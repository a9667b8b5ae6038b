"""Histogram builders: cross-correlation, sync-referenced decay, intensity.

Delay arithmetic stays in signed 64-bit picoseconds throughout; floats only
appear once counts are handed to the fitting layer. Delay bins are half-open
[lo, hi): a pair landing exactly at +window is discarded, one exactly at
-window falls in bin 0.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PS_PER_MS,
    CoincidenceHistogram,
    DecayHistogram,
    IntensityTrace,
    PeriodicStream,
    TimestampStream,
    _map_workers,
)

__all__ = [
    "cross_correlate",
    "brute_force_correlate",
    "sync_decay_histogram",
    "intensity_trace",
]

# Cap on expanded pair indices per vectorized block, bounds working memory.
_PAIR_BUDGET = 4_000_000


def _require_sorted(stream: TimestampStream, name: str) -> None:
    ev = stream.events
    if ev.size > 1 and np.any(np.diff(ev) < 0):
        raise ValueError(f"{name} stream is not sorted by timestamp")


def _check_binning(window: int, bin_width: int) -> int:
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if window < bin_width:
        raise ValueError(
            f"window ({window}) must be at least one bin width ({bin_width})")
    return -(-2 * window // bin_width)


def _pair_counts(ta: np.ndarray, tb: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 window: int, bin_width: int, n_bins: int) -> np.ndarray:
    """Histogram all (a, b) pairs given per-a partner index ranges in b."""
    counts = np.zeros(n_bins, dtype=np.int64)
    lens = hi - lo
    cum = np.cumsum(lens)
    start = 0
    n = ta.size
    while start < n:
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + _PAIR_BUDGET, side="left")) + 1
        stop = min(max(stop, start + 1), n)
        l, h = lo[start:stop], hi[start:stop]
        chunk_lens = h - l
        total = int(chunk_lens.sum())
        if total:
            offsets = np.cumsum(chunk_lens) - chunk_lens
            idx = np.repeat(l - offsets, chunk_lens) + np.arange(total)
            delta = tb[idx] - np.repeat(ta[start:stop], chunk_lens)
            counts += np.bincount((delta + window) // bin_width,
                                  minlength=n_bins)
        start = stop
    return counts


def cross_correlate(a: TimestampStream, b: TimestampStream, window: int,
                    bin_width: int = 500, workers: int = 1) -> CoincidenceHistogram:
    """Full cross-correlation histogram of delays t_b - t_a.

    Every ordered pair with delay in [-window, +window) increments one bin.
    Both streams must be sorted; the partner range for each event is found
    with two moving cursors (binary search on the sorted partner stream), so
    cost scales with events times in-window partners rather than all pairs.

    Parameters
    ----------
    a, b : TimestampStream
        Sorted event streams (delays are measured from a to b).
    window : int
        Half-window in ps.
    bin_width : int
        Bin width in ps, 500 by default.
    workers : int
        Threads to spread the event range over. The result is bit-identical
        for any value; partial histograms are integer sums.

    Returns
    -------
    CoincidenceHistogram
    """
    _require_sorted(a, "a")
    _require_sorted(b, "b")
    n_bins = _check_binning(window, bin_width)
    ta = a.events
    tb = b.events

    def part(i: int) -> np.ndarray:
        t = ta[ta.size * i // workers:ta.size * (i + 1) // workers]
        # Partner index ranges: tb in [t - window, t + window). side="left"
        # on the upper edge is what discards delays exactly at +window.
        lo = np.searchsorted(tb, t - window, side="left")
        hi = np.searchsorted(tb, t + window, side="left")
        return _pair_counts(t, tb, lo, hi, window, bin_width, n_bins)

    counts = sum(_map_workers(part, range(workers), workers),
                 np.zeros(n_bins, np.int64))
    return CoincidenceHistogram(bin_width, window, counts)


def brute_force_correlate(a: TimestampStream, b: TimestampStream, window: int,
                          bin_width: int = 500) -> CoincidenceHistogram:
    """Reference correlator: inspects every ordered pair explicitly.

    Same contract as :func:`cross_correlate`, quadratic cost. Exists as the
    oracle the fast path is checked against; use it for small streams only.
    """
    _require_sorted(a, "a")
    _require_sorted(b, "b")
    n_bins = _check_binning(window, bin_width)
    ta = a.events
    tb = b.events
    counts = np.zeros(n_bins, dtype=np.int64)
    if ta.size == 0 or tb.size == 0:
        return CoincidenceHistogram(bin_width, window, counts)
    block = max(1, _PAIR_BUDGET // max(tb.size, 1))
    for i0 in range(0, ta.size, block):
        delta = tb[None, :] - ta[i0:i0 + block, None]
        inside = (delta >= -window) & (delta < window)
        if inside.any():
            counts += np.bincount((delta[inside] + window) // bin_width,
                                  minlength=n_bins)
    return CoincidenceHistogram(bin_width, window, counts)


def _grid_delays(t: np.ndarray, offset: int, period: int,
                 count: int | None) -> np.ndarray:
    """Delay of each sorted time since the latest pulse at or before it,
    on the grid ``offset + k*period`` for k < count (unbounded when count
    is None). Times before the first pulse are dropped."""
    t = t[np.searchsorted(t, offset, side="left"):]
    delay = t - offset
    delay %= period
    if count is not None:
        last = offset + (count - 1) * period
        past = int(np.searchsorted(t, last, side="left"))
        delay[past:] = t[past:] - last
    return delay


def sync_decay_histogram(photons: TimestampStream,
                         sync: TimestampStream | PeriodicStream | None = None,
                         period: int | None = None,
                         bin_width: int = 500) -> DecayHistogram:
    """Histogram photon delays relative to the preceding sync pulse.

    Either a sync stream or a fixed ``period`` (sync at every multiple of
    it, starting at 0) must be given; an explicit ``period`` wins when
    both are present. Photons arriving before the first sync, or with a
    delay past the last bin edge (a skipped sync, or a photon after the
    last pulse), are not binned and are counted in ``discarded``.

    A :class:`PeriodicStream` sync and ``period`` share one arithmetic
    path, ``k = (t - offset) // period`` clamped to the last pulse, which
    gives the same delays as searching the materialized pulse array. An
    explicit sync :class:`TimestampStream` is searched pulse by pulse.

    Parameters
    ----------
    photons : TimestampStream
    sync : TimestampStream or PeriodicStream, optional
        Sync pulses. For an explicit stream the period is inferred from
        the median spacing.
    period : int, optional
        Sync period in ps.
    bin_width : int
        Bin width in ps; must not exceed the period.
    """
    _require_sorted(photons, "photons")
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    t = photons.events
    s = None   # explicit sync pulses, searched instead of the grid
    if period is not None:
        period = int(period)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        offset, count = 0, None
    elif isinstance(sync, PeriodicStream):
        offset, period, count = sync.offset, sync.period, sync.count
    elif sync is not None:
        _require_sorted(sync, "sync")
        s = sync.events
        if s.size < 2:
            raise ValueError(
                "need at least two sync pulses to infer the period")
        period = int(np.median(np.diff(s)))
    else:
        raise ValueError("either a sync stream or a period is required")
    if bin_width > period:
        raise ValueError(
            f"bin_width ({bin_width}) must not exceed period ({period})")

    if s is None:
        delay = _grid_delays(t, offset, period, count)
    else:
        pos = np.searchsorted(s, t, side="right") - 1
        good = pos >= 0
        delay = t[good] - s[pos[good]]
    n_bins = -(-period // bin_width)
    bins = delay // bin_width
    overflow = bins >= n_bins
    discarded = t.size - delay.size + int(np.count_nonzero(overflow))
    counts = np.bincount(bins[~overflow], minlength=n_bins)
    return DecayHistogram(bin_width, period, counts.astype(np.int64), discarded)


def intensity_trace(photons: TimestampStream,
                    bin_width: int = PS_PER_MS) -> IntensityTrace:
    """Bin a photon stream into an intensity trace (default 1 ms bins).

    Every event lands in a bin: an event exactly at the stream duration is
    assigned to the last bin, so the bin sum always equals the stream
    length.
    """
    _require_sorted(photons, "photons")
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if photons.duration <= 0:
        raise ValueError("stream duration must be positive")
    n_bins = -(-photons.duration // bin_width)
    bins = np.minimum(photons.events // bin_width, n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins)
    return IntensityTrace(counts.astype(np.int64), bin_width, photons.duration)
