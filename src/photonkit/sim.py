"""Monte-Carlo photon stream generation and detector response.

The source side (``generate_emission``) produces ideal emission times for a
blinking quantum emitter under CW or pulsed excitation, plus an uncorrelated
background. The detector side (``detect_hbt``) routes those photons through
a beam splitter onto two detectors with finite efficiency, timing jitter,
dead time, and dark counts, which is the standard intensity-correlation
arrangement.

Generation is decomposed into (state segment x 1 s block) pieces, each with
its own RNG stream derived from (seed, tag, piece index). ``workers`` maps
the pieces over the package's one thread pool (``core._map_workers``); a
worker changes only who computes a piece, never what it contains, so
output is bit-identical for any ``workers`` value.

Detection takes ``workers`` too: each of its draws starts at its known
offset in one seeded stream on its own generator, and its two channels are
mapped, so its output does not depend on ``workers`` either. It walks the
photons in segments of ``_SEGMENT`` blocks: while one task draws the jitter
of the next segment, another draws the splitter and efficiency uniforms of
this one and keeps its photons per channel, so no draw or mask spans the
whole emission. Pulsed pieces start their draws at known offsets too (see
``_pulsed_piece``). All these draws, and a CW piece's decay times, run in
blocks of ``core._BLOCK`` values through one reused buffer; a CW piece
draws its waits whole and casts its times to int64 in place. The pieces,
and a channel's segments, are joined into one array grown from the first
(``_joined``) and sorted in place. The background is drawn before the
pieces, so a lone piece is drawn with room for it and is never grown.
Detection drops the emission record once its photons are routed, so a
record that its caller does not keep is freed before the channel pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CHANNEL_A,
    CHANNEL_B,
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    SYNC_CHANNEL,
    _BLOCK,
    IntensityTrace,
    PeriodicStream,
    Segment,
    TimestampStream,
    _ArrayRecord,
    _Pool,
    _array,
    _map_workers,
    _n_bins,
    _number,
    _ps,
    _real,
    _whole_ps,
)

__all__ = [
    "BlinkingLaw",
    "EmitterModel",
    "ExcitationConfig",
    "DetectorModel",
    "EmissionRecord",
    "generate_emission",
    "detect_hbt",
    "simulate_poissonian",
    "simulate_intensity_trace",
    "sample_dwells_ms",
]

# RNG stream tags; fixed so that every consumer of a seed gets an
# independent, reproducible substream.
_TAG_SEGMENTS = 0
_TAG_SIGNAL = 1
_TAG_BACKGROUND = 2
_TAG_DETECT = 3
_TAG_POISSON = 4
_TAG_TRACE = 5

_BLOCK_PS = PS_PER_S  # 1 s generation blocks
_SEGMENT = 4  # blocks of ``_BLOCK`` photons per detection segment


@dataclass(frozen=True)
class BlinkingLaw(_ArrayRecord):
    """Dwell-time statistics of the emitting (ON) and dark (OFF) states.

    Parameters
    ----------
    kind : str
        "none" (always ON), "two_state_exponential", or "power_law".
    alpha_on, alpha_off : float
        Power-law exponents of the dwell densities p(t) ~ t**-(1+alpha),
        used by the "power_law" kind. Must lie strictly inside (0, 1),
        the heavy-tailed regime such traces actually show.
    min_dwell_ms, max_dwell_ms : float
        Support of the truncated power-law dwell distribution. Only
        ``max_dwell_ms`` may be infinite, for an untruncated power law.
    mean_on_ms, mean_off_ms : float
        Dwell means for the "two_state_exponential" kind.
    off_emission_rate_per_ms : float
        Residual detected-equivalent background rate (counts/ms). This
        background is uncorrelated and present throughout the trace; during
        OFF dwells it is all that remains.
    """

    kind: str = "none"
    alpha_on: float = _real(default=0.5)
    alpha_off: float = _real(default=0.5)
    min_dwell_ms: float = _real(default=1.0)
    max_dwell_ms: float = _real(finite=False, default=100_000.0)
    mean_on_ms: float = _real(default=100.0)
    mean_off_ms: float = _real(default=50.0)
    off_emission_rate_per_ms: float = _real(default=20.0)

    def validate(self) -> None:
        if self.kind not in ("none", "two_state_exponential", "power_law"):
            raise ValueError(f"unknown blinking kind {self.kind!r}")
        if self.kind == "power_law":
            for name, a in (("alpha_on", self.alpha_on),
                            ("alpha_off", self.alpha_off)):
                if not 0.0 < a < 1.0:
                    raise ValueError(
                        f"{name} must lie in (0, 1), got {a}")
            if not 0.0 < self.min_dwell_ms < self.max_dwell_ms:
                raise ValueError(
                    f"need 0 < min_dwell_ms < max_dwell_ms, got "
                    f"{self.min_dwell_ms} and {self.max_dwell_ms}")
        if self.kind == "two_state_exponential":
            if self.mean_on_ms <= 0 or self.mean_off_ms <= 0:
                raise ValueError("exponential dwell means must be positive")
        if self.off_emission_rate_per_ms < 0:
            raise ValueError("off_emission_rate_per_ms must be >= 0")


@dataclass(frozen=True)
class EmitterModel(_ArrayRecord):
    """Photophysics of the simulated emitter.

    ``lifetime_ns`` is the exciton decay constant tau_X (default 4.7 ns). A
    biexciton photon can precede the exciton one when
    ``biexciton_probability`` > 0; its decay constant is shorter in
    practice, so the default pairing puts it earlier without enforced
    ordering. CW excitation draws no biexciton photon, so
    :func:`generate_emission` refuses a nonzero probability under it.
    """

    lifetime_ns: float = _real(default=4.7)
    biexciton_lifetime_ns: float = _real(default=0.8)
    biexciton_probability: float = _real(default=0.0)
    quantum_yield: float = _real(default=1.0)
    blinking: BlinkingLaw = field(default_factory=BlinkingLaw)

    def validate(self) -> None:
        if not isinstance(self.blinking, BlinkingLaw):
            raise ValueError(f"blinking must be a BlinkingLaw, got "
                             f"{type(self.blinking).__name__}")
        if self.lifetime_ns <= 0:
            raise ValueError(f"lifetime_ns must be positive, got {self.lifetime_ns}")
        if self.biexciton_probability and self.biexciton_lifetime_ns <= 0:
            raise ValueError("biexciton_lifetime_ns must be positive")
        for name, p in (("biexciton_probability", self.biexciton_probability),
                        ("quantum_yield", self.quantum_yield)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class ExcitationConfig(_ArrayRecord):
    """Excitation mode and its parameters.

    CW (the default mode) drives the emitter as a renewal process at
    ``cw_rate_per_s`` excitations per second; pulsed excitation fires at a
    fixed period (default 100 ns, a 10 MHz laser) and excites with a
    per-pulse probability, absorbing somewhere inside the pulse width.
    """

    mode: str = "cw"
    cw_rate_per_s: float = _real(default=1e6)
    pulse_period_ps: int = _ps(default=100_000)
    excitation_probability: float = _real(default=1.0)
    pulse_width_ps: int = _ps(default=50)

    def validate(self) -> None:
        if self.mode not in ("cw", "pulsed"):
            raise ValueError(f"excitation mode must be 'cw' or 'pulsed', got {self.mode!r}")
        if self.mode == "cw" and self.cw_rate_per_s <= 0:
            raise ValueError("cw_rate_per_s must be positive")
        if self.mode == "pulsed":
            if self.pulse_period_ps <= 0:
                raise ValueError("pulse_period_ps must be positive")
            if not 0.0 <= self.excitation_probability <= 1.0:
                raise ValueError("excitation_probability must lie in [0, 1]")
            if not 0 <= self.pulse_width_ps < self.pulse_period_ps:
                raise ValueError("pulse_width_ps must lie in [0, period)")


@dataclass(frozen=True)
class DetectorModel(_ArrayRecord):
    """Beam splitter plus two timing detectors.

    Defaults are typical for silicon APDs behind a 50:50 splitter: 600 ps
    timing jitter, 22 ns dead time, one dark count per millisecond.
    """

    efficiency: float = _real(default=1.0)
    dark_rate_per_ms: float = _real(default=1.0)
    jitter_sigma_ps: float = _real(default=600.0)
    dead_time_ps: int = _ps(default=22_000)
    splitter_ratio: float = _real(default=0.5)

    def validate(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.splitter_ratio <= 1.0:
            raise ValueError(f"splitter_ratio must lie in [0, 1], got {self.splitter_ratio}")
        if self.dark_rate_per_ms < 0:
            raise ValueError("dark_rate_per_ms must be >= 0")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if self.dead_time_ps < 0:
            raise ValueError("dead_time_ps must be >= 0")


@dataclass(frozen=True, eq=False)
class EmissionRecord(_ArrayRecord):
    """Ideal (pre-detector) photon emission times with ground truth.

    ``times`` are sorted int64 ps; ``is_signal`` flags emitter photons as
    opposed to background ones; ``segments`` is the ON/OFF ground truth
    that produced them.
    """

    times: np.ndarray = _array(np.int64)
    is_signal: np.ndarray = _array(bool)
    segments: tuple[Segment, ...]
    duration: int = _ps()
    excitation: ExcitationConfig | None

    def validate(self) -> None:
        if self.times.size != self.is_signal.size:
            raise ValueError("times and is_signal must have equal length")

    def __len__(self) -> int:
        return self.times.size


def _rng(seed: int, *key: int, skip: int = 0) -> np.random.Generator:
    """The stream for (seed, *key), advanced past its first ``skip``
    64-bit outputs."""
    bits = np.random.PCG64(np.random.SeedSequence([int(seed), *key]))
    return np.random.Generator(bits.advance(skip))


def _drawn(draw, n: int):
    """Yield (slice, values) for n values of ``draw(out=...)`` (a Generator
    method), in blocks of ``_BLOCK`` that reuse one buffer."""
    buf = np.empty(min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        part = draw(out=buf[:min(_BLOCK, n - lo)])
        yield slice(lo, lo + part.size), part


def _below(draw, n: int, p: float) -> np.ndarray:
    """Mask of n uniforms from ``draw`` below p, drawn block by block."""
    mask = np.empty(n, bool)
    for b, u in _drawn(draw, n):
        np.less(u, p, out=mask[b])
    return mask


def _joined(parts: list) -> np.ndarray:
    """The int64 arrays in ``parts`` end to end.

    The first part is grown in place when it owns its data and holds at
    least half of the items, so it is never held twice; a smaller one is
    copied, which is quicker than growing it. The others are copied after
    it, and the list is emptied as they are, so each part is freed once
    copied.

    Growing moves the data, so no view of the part may be alive. Every
    ``resize`` in this module resizes such an array and skips numpy's
    reference check, which also counts the references a profiler holds.
    """
    if not parts:
        return np.empty(0, np.int64)
    parts.reverse()
    out = parts.pop()
    at = out.size
    total = at + sum(p.size for p in parts)
    if out.base is None and 2 * at >= total:
        out.resize(total, refcheck=False)
    else:
        head, out = out, np.empty(total, np.int64)
        out[:at] = head
        del head
    while parts:
        part = parts.pop()
        out[at:at + part.size] = part
        at += part.size
    return out


def _thinned(part: np.ndarray, keep: np.ndarray, room: int) -> np.ndarray:
    """``part``, an array that owns its data, cut in place to those of its
    first ``keep.size`` items where ``keep`` is set, followed by ``room``
    free slots. It only shrinks unless the room is more than the items
    dropped: growing moves the data (see ``_joined``)."""
    index = np.flatnonzero(keep)
    part[:index.size] = part[index]
    part.resize(index.size + room, refcheck=False)
    return part


def _truncated_pareto_ms(rng, alpha: float, lo: float, hi: float, size: int) -> np.ndarray:
    """Inverse-CDF draw from p(t) ~ t**-(1+alpha) on [lo, hi]."""
    u = rng.random(size)
    c = 1.0 - (lo / hi) ** alpha
    return lo * (1.0 - u * c) ** (-1.0 / alpha)


def sample_dwells_ms(law: BlinkingLaw, on: bool, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` dwell durations (ms) for one state of a blinking law.

    Exposed mainly so dwell statistics can be checked against the sampler
    without generating whole photon streams.
    """
    return _draw_dwells_ms(law, on, _rng(seed, _TAG_SEGMENTS, 1 if on else 2), n)


def _draw_dwells_ms(law: BlinkingLaw, on: bool, rng, n: int) -> np.ndarray:
    """``n`` dwell durations (ms) of one state, drawn from ``rng``."""
    if law.kind == "power_law":
        alpha = law.alpha_on if on else law.alpha_off
        return _truncated_pareto_ms(rng, alpha, law.min_dwell_ms, law.max_dwell_ms, n)
    if law.kind == "two_state_exponential":
        mean = law.mean_on_ms if on else law.mean_off_ms
        return rng.exponential(mean, n)
    raise ValueError("blinking kind 'none' has no dwell distribution")


def _blinking_segments(law: BlinkingLaw, duration: int, seed: int) -> tuple[Segment, ...]:
    if law.kind == "none":
        return (Segment(True, 0, duration),)
    rng = _rng(seed, _TAG_SEGMENTS)
    segments = []
    t = 0
    on = True
    while t < duration:
        dwell_ms = _draw_dwells_ms(law, on, rng, 1)[0]
        dwell = max(int(round(dwell_ms * PS_PER_MS)), 1)
        end = min(t + dwell, duration)
        segments.append(Segment(on, t, end))
        t = end
        on = not on
    return tuple(segments)


def _signal_pieces(segments, duration: int):
    """Split ON segments on the 1 s block grid into generation pieces."""
    pieces = []
    for seg in segments:
        if not seg.on:
            continue
        lo = seg.start
        while lo < seg.end:
            hi = min(((lo // _BLOCK_PS) + 1) * _BLOCK_PS, seg.end, duration)
            pieces.append((lo, hi))
            lo = hi
    return pieces


def _cw_piece(seed: int, i: int, lo: int, hi: int, exc: ExcitationConfig,
              emitter: EmitterModel, room: int = 0) -> np.ndarray:
    """Renewal-process emission on [lo, hi) as int64 ps: wait Exp(1/rate),
    decay Exp(tau). The array ends in ``room`` free slots."""
    rng = _rng(seed, _TAG_SIGNAL, i)
    rate_per_ps = exc.cw_rate_per_s / PS_PER_S
    tau_x_ps = emitter.lifetime_ns * PS_PER_NS
    mean_cycle = 1.0 / rate_per_ps + tau_x_ps
    out = []
    t = float(lo)
    while t < hi:
        n = max(int((hi - t) / mean_cycle * 1.2) + 16, 16)
        times = np.empty(n, np.int64)  # float ps first, cast in place
        emits = times.view(np.float64)
        # exponential(s) is s * standard_exponential, bit for bit.
        rng.standard_exponential(out=emits)
        emits *= 1.0 / rate_per_ps
        for b, e in _drawn(rng.standard_exponential, n):
            e *= tau_x_ps
            emits[b] += e
        np.cumsum(emits, out=emits)
        emits += t  # non-decreasing, so the times before hi are a prefix
        t = emits[-1]
        k = int(np.searchsorted(emits, hi))
        for j in range(0, k, _BLOCK):
            times[j:j + _BLOCK] = np.rint(emits[j:j + _BLOCK])
        del emits
        # The last buffer's slack holds the room, so this only shrinks it.
        times.resize(k + (room if t >= hi else 0), refcheck=False)
        out.append(times)
    if emitter.quantum_yield < 1.0:
        rooms = [0] * (len(out) - 1) + [room]
        out = [_thinned(p, _below(rng.random, p.size - r,
                                  emitter.quantum_yield), r)
               for p, r in zip(out, rooms)]
    return _joined(out)


def _pulsed_piece(seed: int, i: int, lo: int, hi: int, exc: ExcitationConfig,
                  emitter: EmitterModel, room: int = 0) -> np.ndarray:
    """Per-pulse emission on [lo, hi) as int64 ps: at most one exciton
    photon per pulse, optionally preceded by a biexciton photon from the
    same excitation. Its K excitation uniforms (if p < 1), n absorption
    uniforms and decays (then quantum yield, biexciton) start at 0, K, K+n.
    The array ends in ``room`` free slots."""
    period = exc.pulse_period_ps
    k0 = -(-lo // period)  # first pulse at or after lo
    k1 = -(-hi // period)  # first pulse at or after hi (excluded)
    p = exc.excitation_probability
    n_uniform = max(k1 - k0, 0) if p < 1.0 else 0
    if n_uniform:  # index the excited pulses, never the whole pulse grid
        excited = _below(_rng(seed, _TAG_SIGNAL, i).random, n_uniform, p)
        # Not one flatnonzero, whose result is a view: this array owns its
        # data, so that ``_joined`` can grow it in place.
        out = np.empty(np.count_nonzero(excited) + room, np.int64)
        at = 0
        for j in range(0, n_uniform, _BLOCK):
            index = np.flatnonzero(excited[j:j + _BLOCK])
            np.add(index, k0 + j, out=out[at:at + index.size])
            at += index.size
        del excited
    else:
        out = np.arange(k0, k1 + room, dtype=np.int64)
    n = out.size - room
    out[:n] *= period
    decay_rng = _rng(seed, _TAG_SIGNAL, i, skip=n_uniform + n)
    absorb = np.empty(n) if emitter.biexciton_probability > 0.0 else None
    for (b, u), (_, e) in zip(
            _drawn(_rng(seed, _TAG_SIGNAL, i, skip=n_uniform).random, n),
            _drawn(decay_rng.standard_exponential, n)):
        u *= exc.pulse_width_ps
        u += out[b]
        if absorb is not None:
            absorb[b] = u
        e *= emitter.lifetime_ns * PS_PER_NS
        e += u
        out[b] = np.rint(e, out=e)
    qy = emitter.quantum_yield
    if qy < 1.0:
        out = _thinned(out, _below(decay_rng.random, n, qy), room)
    if absorb is not None:
        xx = absorb[_below(decay_rng.random, n, emitter.biexciton_probability)]
        xx += decay_rng.exponential(emitter.biexciton_lifetime_ns * PS_PER_NS,
                                    xx.size)
        if qy < 1.0:
            xx = xx[_below(decay_rng.random, xx.size, qy)]
        m = out.size - room  # the room stays at the end
        out = np.concatenate((out[:m], np.rint(xx).astype(np.int64), out[m:]))
    return out


def generate_emission(emitter: EmitterModel, excitation: ExcitationConfig,
                      duration: int, seed: int, workers: int = 1) -> EmissionRecord:
    """Generate ideal photon emission times for an emitter.

    Parameters
    ----------
    emitter : EmitterModel
    excitation : ExcitationConfig
    duration : int
        Trace length in whole ps.
    seed : int
        Master seed; the full output is a pure function of (inputs, seed).
    workers : int
        Worker threads for piece generation. Any value yields bit-identical
        output; it only affects wall time.

    Returns
    -------
    EmissionRecord
        Sorted emission times, signal/background mask, and the ON/OFF
        ground-truth segments.
    """
    if excitation.mode == "cw" and emitter.biexciton_probability:
        raise ValueError("biexciton_probability must be 0 under cw "
                         f"excitation, got {emitter.biexciton_probability}")
    duration = _whole_ps(duration, "duration", low=1)

    law = emitter.blinking
    segments = _blinking_segments(law, duration, seed)
    pieces = _signal_pieces(segments, duration)
    bg_rate = law.off_emission_rate_per_ms  # counts per ms, whole trace
    n_blocks = -(-duration // _BLOCK_PS)

    def gen_background(j: int) -> np.ndarray:
        lo = j * _BLOCK_PS
        hi = min(lo + _BLOCK_PS, duration)
        rng = _rng(seed, _TAG_BACKGROUND, j)
        n = rng.poisson(bg_rate * (hi - lo) / PS_PER_MS)
        times = lo + rng.random(n) * (hi - lo)
        return np.rint(times, out=times).astype(np.int64)

    # The background first, so that a lone piece (there is at least one)
    # is drawn with room for it and is never grown.
    bg = np.concatenate(_map_workers(gen_background, range(n_blocks), workers)
                        if bg_rate > 0 else [np.empty(0, np.int64)])
    bg.sort()
    room = bg.size if len(pieces) == 1 else 0

    def gen_signal(i: int) -> np.ndarray:
        piece = _cw_piece if excitation.mode == "cw" else _pulsed_piece
        return piece(seed, i, *pieces[i], excitation, emitter, room)

    parts = _map_workers(gen_signal, range(len(pieces)), workers)
    if room:
        times = parts.pop()
        times[times.size - room:] = bg
    else:
        parts.append(bg)
        times = _joined(parts)
    # One stable sort merges the runs: the pieces are in order and nearly
    # sorted, and the sorted background is the last run.
    times.sort(kind="stable")
    # Every draw is added to a piece start >= 0, so only a decay past the
    # end of the trace can fall outside it.
    times.resize(np.searchsorted(times, duration, side="right"),
                 refcheck=False)
    # Ties: signal goes first. Background photon j of the sorted ``bg``
    # follows every signal photon at or before its time and the j
    # background photons before it.
    at = np.searchsorted(times, bg, side="right")
    at -= np.searchsorted(bg, bg, side="right")
    at += np.arange(bg.size)
    flags = np.ones(times.size, bool)
    flags[at] = False
    return EmissionRecord(times, flags, segments, duration, excitation)


def _dead_time_filter(times: np.ndarray, dead: int) -> np.ndarray:
    """Greedy dead-time pruning: an event is kept iff it arrives at least
    ``dead`` ps after the last kept event.

    Events whose raw gap to their predecessor already satisfies the dead
    time are provably kept (dropping events only moves the last-kept time
    earlier), so only the others, the contested events, need a sequential
    pass. That pass reads just the contested events and their
    predecessors, so beyond a few vector passes over ``times`` the cost
    scales with the number of contested events, not the stream length.
    """
    if dead <= 0 or times.size < 2:
        return times
    uncertain = np.concatenate([  # the gaps, a block at a time
        np.flatnonzero(np.diff(times[lo:lo + _BLOCK + 1]) < dead) + (lo + 1)
        for lo in range(0, times.size - 1, _BLOCK)])
    if uncertain.size == 0:
        return times
    keep = np.ones(times.size, dtype=bool)
    kept = memoryview(keep)  # Python-speed item access in the loop
    for idx, t_prev, t in zip(uncertain.tolist(),
                              times[uncertain - 1].tolist(),
                              times[uncertain].tolist()):
        if kept[idx - 1]:
            last_kept_time = t_prev
        if t - last_kept_time < dead:
            kept[idx] = False
    return times[keep]


def detect_hbt(emission: EmissionRecord | TimestampStream,
               detector: DetectorModel, seed: int, workers: int = 1,
               ) -> tuple[TimestampStream, TimestampStream,
                          TimestampStream | PeriodicStream]:
    """Route an emission record through the splitter and both detectors.

    Each photon goes to arm 0 with probability ``splitter_ratio``, survives
    with probability ``efficiency``, gets Gaussian timing jitter, and then
    competes with dark counts for the detector; events closer than the dead
    time to the previously registered one on the same channel are dropped.

    The photons are taken in segments of ``_SEGMENT`` blocks of
    ``core._BLOCK``. ``workers`` threads draw the jitter of one segment
    while they route the one before it (its splitter and efficiency
    uniforms, then its kept photons per channel), and then run the two
    channels. Any value yields bit-identical output: the draws are one
    seeded stream in a fixed order (splitter and efficiency uniforms,
    jitter normals, then each channel's dark counts), and a uniform takes
    exactly one 64-bit output per photon, so each draw starts at its
    known offset in that stream on its own generator and goes on from
    segment to segment. The returned streams own their arrays.

    Once its photons are routed it drops its reference to ``emission``,
    so a record the caller keeps no reference to (as in
    ``detect_hbt(generate_emission(...), ...)``) is freed before the two
    channels are joined, sorted and dead-time filtered.

    Returns
    -------
    (ch0, ch1, sync) : TimestampStream, TimestampStream, sync stream
        The two detector streams and the sync stream. Pulsed emission
        gives an ideal sync, a :class:`PeriodicStream` with a pulse at
        every multiple of the period before ``duration``; otherwise the
        sync is an empty :class:`TimestampStream`.
    """
    if isinstance(emission, TimestampStream):
        emission = EmissionRecord(
            emission.events, np.ones(len(emission), bool),
            (Segment(True, 0, emission.duration),), emission.duration, None)
    t = emission.times
    n = t.size
    duration = emission.duration
    # Each task draws from its own generator, started at its draw's offset.
    split_rng = _rng(seed, _TAG_DETECT)
    kept_rng = _rng(seed, _TAG_DETECT, skip=n)
    jitter_rng = _rng(seed, _TAG_DETECT, skip=2 * n)
    step = _SEGMENT * _BLOCK
    parts = ([], [])  # by channel id: kept photons, an array per segment

    def jittered(lo: int) -> np.ndarray:
        seg = t[lo:lo + step]
        if detector.jitter_sigma_ps <= 0:
            return seg
        # normal(0, s) is 0 + s * z, bit for bit
        out = np.empty(seg.size, np.int64)
        for b, z in _drawn(jitter_rng.standard_normal, seg.size):
            z *= detector.jitter_sigma_ps
            out[b] = np.rint(z, out=z)
            out[b] += seg[b]
        return out

    def route(times: np.ndarray) -> None:
        to_a = _below(split_rng.random, times.size, detector.splitter_ratio)
        kept = _below(kept_rng.random, times.size, detector.efficiency)
        # Indices first: a gather by index beats a boolean-mask gather.
        parts[CHANNEL_A].append(times[np.flatnonzero(to_a & kept)])
        parts[CHANNEL_B].append(times[np.flatnonzero(kept & ~to_a)])

    def channel(ch: int) -> TimestampStream:
        times = _joined(parts[ch])
        times.sort(kind="stable")
        lo = np.searchsorted(times, 0, side="left")
        hi = np.searchsorted(times, duration, side="right")
        if lo:  # move the events from 0 on to the front
            times[:hi - lo] = times[lo:hi]
        times.resize(hi - lo, refcheck=False)
        return TimestampStream(
            ch, _dead_time_filter(times, detector.dead_time_ps), duration)

    with _Pool(workers, 2) as pool:  # one pool for every step
        # Segment r's jitter is drawn while segment r - 1 is routed.
        routing = None
        for lo in (*range(0, n, step), None):
            tasks = [] if lo is None else [lambda lo=lo: jittered(lo)]
            if routing is not None:
                tasks.append(lambda seg=routing: route(seg))
            done = pool.map(lambda task: task(), tasks)
            routing = None if lo is None else done[0]
        # The record is read no more. Dropping every reference to it here
        # (the argument, the cell ``jittered`` reads and the last task,
        # which can hold a view of it) frees it before the channel pass
        # when the caller keeps none.
        excitation = emission.excitation
        del emission, t, tasks
        for ch in (CHANNEL_A, CHANNEL_B):  # dark counts, after the jitter
            n_dark = jitter_rng.poisson(detector.dark_rate_per_ms * duration
                                        / PS_PER_MS)
            if n_dark:
                parts[ch].append(jitter_rng.integers(0, duration + 1, n_dark))
        streams = pool.map(channel, (CHANNEL_A, CHANNEL_B))

    if excitation is not None and excitation.mode == "pulsed":
        period = excitation.pulse_period_ps
        sync = PeriodicStream(SYNC_CHANNEL, 0, period, -(-duration // period),
                              duration)
    else:
        sync = TimestampStream(SYNC_CHANNEL, np.empty(0, np.int64), duration)
    return streams[0], streams[1], sync


def simulate_poissonian(rate_per_s: float, duration: int, seed: int) -> TimestampStream:
    """Classical Poissonian (coherent) photon stream, the g2 = 1 reference.

    Returns a single pre-detector stream on channel 0; feed it to
    :func:`detect_hbt` for the beam-splitter null measurement.
    """
    rate_per_s = _number(rate_per_s, "rate_per_s")
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    duration = _whole_ps(duration, "duration", low=1)
    rng = _rng(seed, _TAG_POISSON)
    n = rng.poisson(rate_per_s * duration / PS_PER_S)
    times = np.sort(rng.integers(0, duration + 1, n))
    return TimestampStream(CHANNEL_A, times, duration)


def simulate_intensity_trace(law: BlinkingLaw, on_rate_per_ms: float,
                             duration: int, seed: int,
                             bin_width: int = PS_PER_MS,
                             ) -> tuple[IntensityTrace, tuple[Segment, ...]]:
    """Simulate a binned intensity trace directly at the count-rate level.

    Bins overlapping a state boundary mix the two rates in proportion to
    coverage, exactly as photon-level binning would in expectation; counts
    are Poisson draws around that expectation. Suited to long traces where
    per-photon simulation is wasteful. The OFF (and background) level is the
    law's ``off_emission_rate_per_ms``. ``duration`` and ``bin_width`` are
    whole ps.

    Returns the trace and the ground-truth segments.
    """
    on_rate_per_ms = _number(on_rate_per_ms, "on_rate_per_ms")
    if on_rate_per_ms <= 0:
        raise ValueError(f"on_rate_per_ms must be positive, got {on_rate_per_ms}")
    duration = _whole_ps(duration, "duration", low=1)
    bin_width = _whole_ps(bin_width, "bin_width")
    n_bins = _n_bins(duration, bin_width)
    segments = _blinking_segments(law, duration, seed)
    on_fraction = np.zeros(n_bins)
    for seg in segments:
        if not seg.on:
            continue
        i0 = seg.start // bin_width
        i1 = (seg.end - 1) // bin_width
        if i0 == i1:
            on_fraction[i0] += (seg.end - seg.start) / bin_width
        else:
            on_fraction[i0] += ((i0 + 1) * bin_width - seg.start) / bin_width
            on_fraction[i1] += (seg.end - i1 * bin_width) / bin_width
            on_fraction[i0 + 1:i1] += 1.0
    bin_ms = bin_width / PS_PER_MS
    expected = (on_fraction * on_rate_per_ms
                + (1.0 - on_fraction) * law.off_emission_rate_per_ms) * bin_ms
    rng = _rng(seed, _TAG_TRACE)
    counts = rng.poisson(np.clip(expected, 0.0, None))
    trace = IntensityTrace(counts.astype(np.int64), bin_width, duration)
    return trace, segments
