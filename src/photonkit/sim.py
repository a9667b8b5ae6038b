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
    IntensityTrace,
    PeriodicStream,
    Segment,
    TimestampStream,
    _ArrayRecord,
    _array,
    _map_workers,
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


@dataclass(frozen=True)
class BlinkingLaw:
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
        Support of the truncated power-law dwell distribution.
    mean_on_ms, mean_off_ms : float
        Dwell means for the "two_state_exponential" kind.
    off_emission_rate_per_ms : float
        Residual detected-equivalent background rate (counts/ms). This
        background is uncorrelated and present throughout the trace; during
        OFF dwells it is all that remains.
    """

    kind: str = "none"
    alpha_on: float = 0.5
    alpha_off: float = 0.5
    min_dwell_ms: float = 1.0
    max_dwell_ms: float = 100_000.0
    mean_on_ms: float = 100.0
    mean_off_ms: float = 50.0
    off_emission_rate_per_ms: float = 20.0

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
class EmitterModel:
    """Photophysics of the simulated emitter.

    ``lifetime_ns`` is the exciton decay constant tau_X (default 4.7 ns). A
    biexciton photon can precede the exciton one when
    ``biexciton_probability`` > 0; its decay constant is shorter in
    practice, so the default pairing puts it earlier without enforced
    ordering.
    """

    lifetime_ns: float = 4.7
    biexciton_lifetime_ns: float = 0.8
    biexciton_probability: float = 0.0
    quantum_yield: float = 1.0
    blinking: BlinkingLaw = field(default_factory=BlinkingLaw)

    def validate(self) -> None:
        if self.lifetime_ns <= 0:
            raise ValueError(f"lifetime_ns must be positive, got {self.lifetime_ns}")
        if self.biexciton_probability and self.biexciton_lifetime_ns <= 0:
            raise ValueError("biexciton_lifetime_ns must be positive")
        for name, p in (("biexciton_probability", self.biexciton_probability),
                        ("quantum_yield", self.quantum_yield)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        self.blinking.validate()


@dataclass(frozen=True)
class ExcitationConfig:
    """Excitation mode and its parameters.

    CW (the default mode) drives the emitter as a renewal process at
    ``cw_rate_per_s`` excitations per second; pulsed excitation fires at a
    fixed period (default 100 ns, a 10 MHz laser) and excites with a
    per-pulse probability, absorbing somewhere inside the pulse width.
    """

    mode: str = "cw"
    cw_rate_per_s: float = 1e6
    pulse_period_ps: int = 100_000
    excitation_probability: float = 1.0
    pulse_width_ps: int = 50

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
class DetectorModel:
    """Beam splitter plus two timing detectors.

    Defaults are typical for silicon APDs behind a 50:50 splitter: 600 ps
    timing jitter, 22 ns dead time, one dark count per millisecond.
    """

    efficiency: float = 1.0
    dark_rate_per_ms: float = 1.0
    jitter_sigma_ps: float = 600.0
    dead_time_ps: int = 22_000
    splitter_ratio: float = 0.5

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
    duration: int
    excitation: ExcitationConfig | None

    def __post_init__(self):
        super().__post_init__()
        if self.times.size != self.is_signal.size:
            raise ValueError("times and is_signal must have equal length")
        object.__setattr__(self, "duration", int(self.duration))

    def __len__(self) -> int:
        return self.times.size


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *key])))


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
    law.validate()
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


def _cw_piece(rng, lo: int, hi: int, rate_per_ps: float, tau_x_ps: float,
              quantum_yield: float) -> np.ndarray:
    """Renewal-process emission on [lo, hi): wait Exp(1/rate), decay Exp(tau)."""
    mean_cycle = 1.0 / rate_per_ps + tau_x_ps
    out = []
    t = float(lo)
    while t < hi:
        n = max(int((hi - t) / mean_cycle * 1.2) + 16, 16)
        emits = rng.exponential(1.0 / rate_per_ps, n)
        emits += rng.exponential(tau_x_ps, n)
        np.cumsum(emits, out=emits)
        emits += t  # non-decreasing, so the times before hi are a prefix
        out.append(emits[:np.searchsorted(emits, hi)])
        t = emits[-1]
    times = np.concatenate(out) if out else np.empty(0)
    if quantum_yield < 1.0 and times.size:
        times = times[rng.random(times.size) < quantum_yield]
    return times


def _pulsed_piece(rng, lo: int, hi: int, exc: ExcitationConfig,
                  emitter: EmitterModel) -> np.ndarray:
    """Per-pulse emission on [lo, hi): at most one exciton photon per pulse,
    optionally preceded by a biexciton photon from the same excitation."""
    period = exc.pulse_period_ps
    k0 = -(-lo // period)  # first pulse at or after lo
    k1 = -(-hi // period)  # first pulse at or after hi (excluded)
    if k1 <= k0:
        return np.empty(0)
    p = exc.excitation_probability
    if p < 1.0:  # index the excited pulses, never the whole pulse grid
        pulse_t = (k0 + np.flatnonzero(rng.random(k1 - k0) < p)) * period
    else:
        pulse_t = np.arange(k0, k1, dtype=np.int64) * period
    n = pulse_t.size
    if n == 0:
        return np.empty(0)
    absorb = pulse_t + rng.random(n) * exc.pulse_width_ps
    tau_x_ps = emitter.lifetime_ns * PS_PER_NS
    exciton = absorb + rng.exponential(tau_x_ps, n)
    if emitter.quantum_yield < 1.0:
        exciton = exciton[rng.random(n) < emitter.quantum_yield]
    parts = [exciton]
    if emitter.biexciton_probability > 0.0:
        xx_mask = rng.random(n) < emitter.biexciton_probability
        m = int(xx_mask.sum())
        if m:
            tau_xx_ps = emitter.biexciton_lifetime_ns * PS_PER_NS
            xx = absorb[xx_mask] + rng.exponential(tau_xx_ps, m)
            if emitter.quantum_yield < 1.0:
                xx = xx[rng.random(m) < emitter.quantum_yield]
            parts.append(xx)
    return np.concatenate(parts)


def generate_emission(emitter: EmitterModel, excitation: ExcitationConfig,
                      duration: int, seed: int, workers: int = 1) -> EmissionRecord:
    """Generate ideal photon emission times for an emitter.

    Parameters
    ----------
    emitter : EmitterModel
    excitation : ExcitationConfig
    duration : int
        Trace length in ps.
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
    emitter.validate()
    excitation.validate()
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")

    law = emitter.blinking
    segments = _blinking_segments(law, duration, seed)
    pieces = _signal_pieces(segments, duration)

    tau_x_ps = emitter.lifetime_ns * PS_PER_NS
    rate_per_ps = excitation.cw_rate_per_s / PS_PER_S

    def gen_signal(i: int) -> np.ndarray:
        lo, hi = pieces[i]
        rng = _rng(seed, _TAG_SIGNAL, i)
        if excitation.mode == "cw":
            return _cw_piece(rng, lo, hi, rate_per_ps, tau_x_ps,
                             emitter.quantum_yield)
        return _pulsed_piece(rng, lo, hi, excitation, emitter)

    bg_rate = law.off_emission_rate_per_ms  # counts per ms, whole trace
    n_blocks = -(-duration // _BLOCK_PS)

    def gen_background(j: int) -> np.ndarray:
        lo = j * _BLOCK_PS
        hi = min(lo + _BLOCK_PS, duration)
        rng = _rng(seed, _TAG_BACKGROUND, j)
        n = rng.poisson(bg_rate * (hi - lo) / PS_PER_MS)
        return lo + rng.random(n) * (hi - lo)

    signal_parts = _map_workers(gen_signal, range(len(pieces)), workers)
    bg_parts = (_map_workers(gen_background, range(n_blocks), workers)
                if bg_rate > 0 else [])

    parts = signal_parts + bg_parts
    times = np.concatenate(parts) if parts else np.empty(0)
    flags = np.zeros(times.size, bool)
    flags[:sum(part.size for part in signal_parts)] = True
    times = np.rint(times, out=times).astype(np.int64)
    # Every draw is added to a piece start >= 0, so only a decay past the
    # end of the trace can fall outside it.
    if times.size and times.max() > duration:
        inside = times <= duration
        times, flags = times[inside], flags[inside]
    order = np.argsort(times, kind="stable")
    return EmissionRecord(times[order], flags[order], segments, duration, excitation)


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
    uncertain = np.flatnonzero(np.diff(times) < dead) + 1
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
               detector: DetectorModel, seed: int,
               ) -> tuple[TimestampStream, TimestampStream,
                          TimestampStream | PeriodicStream]:
    """Route an emission record through the splitter and both detectors.

    Each photon goes to arm 0 with probability ``splitter_ratio``, survives
    with probability ``efficiency``, gets Gaussian timing jitter, and then
    competes with dark counts for the detector; events closer than the dead
    time to the previously registered one on the same channel are dropped.

    Returns
    -------
    (ch0, ch1, sync) : TimestampStream, TimestampStream, sync stream
        The two detector streams and the sync stream. Pulsed emission
        gives an ideal sync, a :class:`PeriodicStream` with a pulse at
        every multiple of the period before ``duration``; otherwise the
        sync is an empty :class:`TimestampStream`.
    """
    detector.validate()
    if isinstance(emission, TimestampStream):
        emission = EmissionRecord(
            emission.events, np.ones(len(emission), bool),
            (Segment(True, 0, emission.duration),), emission.duration, None)
    rng = _rng(seed, _TAG_DETECT)
    t = emission.times
    n = t.size
    duration = emission.duration

    to_a = rng.random(n) < detector.splitter_ratio
    kept = rng.random(n) < detector.efficiency
    if detector.jitter_sigma_ps > 0:
        t = t + np.rint(rng.normal(0.0, detector.jitter_sigma_ps, n)).astype(np.int64)

    streams = []
    for channel, mask in ((CHANNEL_A, to_a & kept), (CHANNEL_B, ~to_a & kept)):
        ch_times = t[mask]
        n_dark = rng.poisson(detector.dark_rate_per_ms * duration / PS_PER_MS)
        if n_dark:
            dark = rng.integers(0, duration + 1, n_dark)
            ch_times = np.concatenate((ch_times, dark))
        ch_times = np.sort(ch_times, kind="stable")
        ch_times = ch_times[(ch_times >= 0) & (ch_times <= duration)]
        ch_times = _dead_time_filter(ch_times, detector.dead_time_ps)
        streams.append(TimestampStream(channel, ch_times, duration))

    if emission.excitation is not None and emission.excitation.mode == "pulsed":
        period = emission.excitation.pulse_period_ps
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
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
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
    law's ``off_emission_rate_per_ms``.

    Returns the trace and the ground-truth segments.
    """
    law.validate()
    if on_rate_per_ms <= 0:
        raise ValueError(f"on_rate_per_ms must be positive, got {on_rate_per_ms}")
    if duration <= 0 or bin_width <= 0:
        raise ValueError("duration and bin_width must be positive")
    segments = _blinking_segments(law, duration, seed)
    n_bins = -(-duration // bin_width)
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
