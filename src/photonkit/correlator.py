"""Histogram builders: cross-correlation, sync-referenced decay, intensity.

Delay arithmetic stays in signed 64-bit picoseconds throughout; floats only
appear once counts are handed to the fitting layer. Bin counts and their
validity come from :mod:`photonkit.core`. A window, bin width or period is
taken as whole picoseconds: an integral float such as ``600.0`` bins like
the int, a fractional one raises ``ValueError`` naming the argument.
Streams are sorted, within [0, duration]: they checked it when built.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import (
    PS_PER_MS,
    _BLOCK,
    CoincidenceHistogram,
    DecayHistogram,
    IntensityTrace,
    PeriodicStream,
    TimestampStream,
    _decay_bins,
    _delay_bins,
    _map_workers,
    _n_bins,
    _whole,
    _whole_ps,
)

__all__ = [
    "cross_correlate",
    "brute_force_correlate",
    "sync_decay_histogram",
    "intensity_trace",
]

# brute_force_correlate's block size in pairs; bounds its working memory.
_PAIR_BUDGET = 4_000_000


def _photon_streams(photons) -> list[TimestampStream]:
    """One stream or a non-empty sequence of them, as a list."""
    single = isinstance(photons, (TimestampStream, PeriodicStream))
    streams = [photons] if single else list(photons)
    if not streams:
        raise ValueError("photons must be a stream or a non-empty sequence")
    return streams


def _pair_counts(ta: np.ndarray, tb: np.ndarray, window: int,
                 bin_width: int, n_bins: int) -> np.ndarray:
    """Histogram every pair of an event in ``ta`` with an event in ``tb``
    whose delay lies in [-window, +window).

    One binary search finds each event's first candidate partner ``lo``,
    the first ``tb`` at or after ``t - window``. Pass k then bins candidate
    ``lo + k`` of every event whose delay is still under ``+window``; an
    event drops out when its delay leaves the window or its index reaches
    the end of ``tb``. The cost is the pairs plus one pass per partner
    rank and one more, in which the last events drop out (at most
    2*window/d + 2 passes for a detector dead time d); each pass's arrays
    are no longer than ``ta``.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    # Delays are taken from each window's lower edge, t - window, so they
    # are bin offsets already and stay in the window while under 2*window.
    start = ta - window
    at = np.searchsorted(tb, start, side="left")
    # ``at`` is sorted, so the events past the end of ``tb`` are its tail.
    live = int(np.searchsorted(at, tb.size))
    start, at = start[:live], at[:live]
    while at.size:
        delta = tb[at]
        delta -= start
        keep = np.flatnonzero(delta < 2 * window)
        if keep.size < delta.size:
            start, at, delta = start[keep], at[keep], delta[keep]
        delta //= bin_width
        counts += np.bincount(delta, minlength=n_bins)
        at += 1
        if at.size and at[-1] == tb.size:
            live = int(np.searchsorted(at, tb.size))
            start, at = start[:live], at[:live]
    return counts


def cross_correlate(a: TimestampStream, b: TimestampStream, window: int,
                    bin_width: int = 500, workers: int = 1) -> CoincidenceHistogram:
    """Full cross-correlation histogram of delays t_b - t_a.

    Every ordered pair with delay in [-window, +window) increments one bin.
    Streams are sorted, as they check when built. One binary search per
    event of ``a`` finds its first partner in ``b``; a walk over the
    following partners checks the upper edge itself. The cost is the
    in-window pairs plus one pass per partner rank. Each worker folds its
    slice of ``a`` over blocks of ``core._BLOCK`` events, so a pass's
    arrays stay block-sized and in cache; the blocks' integer counts add
    up to the whole slice's.

    Parameters
    ----------
    a, b : TimestampStream
        Sorted event streams (delays are measured from a to b).
    window : int
        Half-window in ps.
    bin_width : int
        Bin width in ps, 500 by default.
    workers : int
        Most threads and slices (no more than blocks) of the event range.
        Any value gives the same result: slices' counts are integer sums.

    Returns
    -------
    CoincidenceHistogram
    """
    window = _whole_ps(window, "window")
    bin_width = _whole_ps(bin_width, "bin_width")
    workers = _whole(workers, "workers")
    n_bins = _delay_bins(window, bin_width)
    ta = a.events
    tb = b.events

    parts = min(workers, -(-ta.size // _BLOCK))  # no more than blocks of a

    def part(i: int) -> np.ndarray:
        t = ta[ta.size * i // parts:ta.size * (i + 1) // parts]
        counts = np.zeros(n_bins, np.int64)
        for lo in range(0, t.size, _BLOCK):
            counts += _pair_counts(t[lo:lo + _BLOCK], tb, window, bin_width,
                                   n_bins)
        return counts

    counts = sum(_map_workers(part, range(parts), workers),
                 np.zeros(n_bins, np.int64))
    return CoincidenceHistogram(bin_width, window, counts)


def brute_force_correlate(a: TimestampStream, b: TimestampStream, window: int,
                          bin_width: int = 500) -> CoincidenceHistogram:
    """Reference correlator: inspects every ordered pair explicitly.

    Same contract as :func:`cross_correlate`, quadratic cost. Exists as the
    oracle the fast path is checked against; use it for small streams only.
    """
    window = _whole_ps(window, "window")
    bin_width = _whole_ps(bin_width, "bin_width")
    n_bins = _delay_bins(window, bin_width)
    ta = a.events
    tb = b.events
    counts = np.zeros(n_bins, dtype=np.int64)
    block = max(1, _PAIR_BUDGET // max(tb.size, 1))
    for i0 in range(0, ta.size, block):
        delta = tb[None, :] - ta[i0:i0 + block, None]
        inside = (delta >= -window) & (delta < window)
        if inside.any():
            counts += np.bincount((delta[inside] + window) // bin_width,
                                  minlength=n_bins)
    return CoincidenceHistogram(bin_width, window, counts)


def _sync_period(sync: TimestampStream | PeriodicStream) -> float:
    """Sync period in ps: a grid's period, else the median pulse spacing."""
    if isinstance(sync, PeriodicStream):
        return float(sync.period)
    return float(np.median(np.diff(sync.events)))


def _grid_delays(t: np.ndarray, offset: int, period: int,
                 count: int | None) -> np.ndarray:
    """Delay of each sorted time, none before ``offset``, since the latest
    pulse at or before it on the grid ``offset + k*period`` for k < count
    (unbounded when count is None)."""
    delay = t - offset
    # The same as ``delay %= period``, whose int64 remainder is several
    # times slower than a floor division by a scalar.
    pulse = delay // period
    pulse *= period
    delay -= pulse
    if count is not None:
        last = offset + (count - 1) * period
        past = int(np.searchsorted(t, last, side="left"))
        delay[past:] = t[past:] - last
    return delay


def sync_decay_histogram(photons: TimestampStream | Sequence[TimestampStream],
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
    explicit sync :class:`TimestampStream` has its period inferred once
    per call and is searched pulse by pulse. Every photon stream from the
    first pulse on is folded over blocks of ``core._BLOCK`` events into
    one set of integer counts, so a call's temporaries stay block-sized.

    Parameters
    ----------
    photons : TimestampStream, or a sequence of them
        All counted against the one sync, and in ``discarded``.
    sync : TimestampStream or PeriodicStream, optional
        Sync pulses. For an explicit stream the period is inferred from
        the median spacing.
    period : int, optional
        Sync period in ps.
    bin_width : int
        Bin width in ps; must not exceed the period.
    """
    streams = _photon_streams(photons)
    s = None   # explicit sync pulses, searched instead of the grid
    bin_width = _whole_ps(bin_width, "bin_width")
    if period is not None:
        period = _whole_ps(period, "period")
        offset, count = 0, None
    elif isinstance(sync, PeriodicStream):
        offset, period, count = sync.offset, sync.period, sync.count
    elif sync is not None:
        if sync.events.size < 2:
            raise ValueError(
                "need at least two sync pulses to infer the period")
        s, period = sync.events, int(_sync_period(sync))
        offset = int(s[0])
    else:
        raise ValueError("either a sync stream or a period is required")
    n_bins = _decay_bins(period, bin_width)

    # Bin n_bins collects the delays past the last edge.
    counts = np.zeros(n_bins + 1, np.int64)
    for t in (p.events for p in streams):
        t = t[np.searchsorted(t, offset, side="left"):]
        for lo in range(0, t.size, _BLOCK):
            block = t[lo:lo + _BLOCK]
            if s is None:
                delay = _grid_delays(block, offset, period, count)
            else:
                delay = block - s[np.searchsorted(s, block, side="right") - 1]
            delay //= bin_width
            np.minimum(delay, n_bins, out=delay)
            counts += np.bincount(delay, minlength=n_bins + 1)
    discarded = sum(map(len, streams)) - int(counts[:n_bins].sum())
    return DecayHistogram(bin_width, period, counts[:n_bins], discarded)


def intensity_trace(photons: TimestampStream | Sequence[TimestampStream],
                    bin_width: int = PS_PER_MS) -> IntensityTrace:
    """Bin photon streams into one intensity trace (default 1 ms bins).

    ``photons`` is one stream or a sequence of them; the trace spans the
    longest duration. Every event lands in a bin: an event at the
    duration is assigned to the last bin, so the bin sum always equals the
    number of events. The counts come from one binary search per inner bin
    edge in each stream's sorted events, not from binning each event.
    """
    streams = _photon_streams(photons)
    bin_width = _whole_ps(bin_width, "bin_width")
    duration = max(s.duration for s in streams)
    n_bins = _n_bins(duration, bin_width)
    if duration <= 0:
        raise ValueError("stream duration must be positive")
    # Events before the edge k*bin_width fill bins 0..k-1; the last bin
    # also takes those at the duration.
    edges = np.arange(1, n_bins) * bin_width
    counts = np.zeros(n_bins, np.int64)
    for ev in (p.events for p in streams):
        counts += np.diff(np.searchsorted(ev, edges, side="left"),
                          prepend=0, append=ev.size)
    return IntensityTrace(counts, bin_width, duration)
