"""Shared domain types and unit conventions.

Time is integer picoseconds wherever data is stored or exchanged between
components; curve fitting works internally in floating-point nanoseconds.
Channels 0 and 1 are the two detector arms of the beam-splitter setup,
channel 255 carries laser synchronization pulses.

A record is checked once, when it is built, so an invalid one never
exists: for every record in the package, the simulator's models too,
``_ArrayRecord`` converts each declared field by its rule, then runs the
record's own ``validate()`` if it defines one. So a ``TimestampStream``
is non-decreasing and within [0, duration], and no stage checks again.
Arrays are made read-only so records can be shared freely between
analysis stages: each field declared with ``_array(dtype)`` is converted
to its dtype and frozen, copied first when it is a view of another
array. A contiguous array of that dtype that owns its data is adopted
and frozen in place, read-only for the caller too: pass a copy to keep
writing to it.

Histogram bin geometry is decided here too: the records and every builder
of them get their bin count from ``_n_bins``, ``_delay_bins`` (window) or
``_decay_bins`` (period), the only checks of a bin width. Each field
declared with ``_ps``, and each ps argument of the correlator's builders
and the ``sim`` generators, goes through ``_whole_ps``; a count (a job's
``seed``; ``workers``, ``n_side``, ``n_components``, ``n_boot``, a
file's ``resolution``), a stream's ``channel``, a ``PeriodicStream``'s
``count`` and a ``DecayHistogram``'s ``discarded`` go through
``_whole``, the same rule without the unit. A job's real-valued keys,
the Python API's rates and thresholds and each field declared with
``_real`` (the simulator models' floats) go through ``_number``: null, a
bool, a string, a list, an object, NaN or an infinity is an error naming
it. Only ``_real(finite=False)`` (``BlinkingLaw.max_dwell_ms``) takes an
infinity.
A job's spans and the CLI's ``--period`` go through ``_span(unit)``: a
``_number`` > 0 read as whole ps, from 1 to below 2**63. ``_path`` takes
a job's file names, which must be non-empty strings.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "PS_PER_NS",
    "PS_PER_MS",
    "PS_PER_S",
    "CHANNEL_A",
    "CHANNEL_B",
    "SYNC_CHANNEL",
    "ps_to_ns",
    "ns_to_ps",
    "Measurement",
    "Verdict",
    "TimestampStream",
    "PeriodicStream",
    "CoincidenceHistogram",
    "DecayHistogram",
    "IntensityTrace",
    "Segment",
    "G2CwParams",
    "G2PwParams",
    "MultiExpParams",
    "FitResult",
    "BlinkingResult",
]

PS_PER_NS = 1_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000

CHANNEL_A = 0
CHANNEL_B = 1
SYNC_CHANNEL = 255

# Items per step of a blocked pass (random draws, column fills, channel
# gathers); small steps keep a pass's temporaries small and in cache.
_BLOCK = 1 << 16


def ps_to_ns(t):
    """Convert picoseconds (int or int array) to float nanoseconds."""
    if isinstance(t, np.ndarray):
        return t.astype(np.float64) / PS_PER_NS
    return float(t) / PS_PER_NS


def ns_to_ps(t_ns):
    """Convert float nanoseconds back to integer picoseconds (nearest).

    Round-trips exactly with :func:`ps_to_ns` for magnitudes up to
    2**42 * 1000 ps (about 73 minutes); past that the two float
    roundings can compound to a full picosecond.  Only relative
    quantities (delays, windows, lifetimes, offsets) ever pass through
    here, and those sit far below the bound.  Absolute event times stay
    integer picoseconds end to end and are never converted.
    """
    if isinstance(t_ns, np.ndarray):
        return np.rint(t_ns * PS_PER_NS).astype(np.int64)
    return int(round(t_ns * PS_PER_NS))


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous ``a``. A view is copied first, since whoever
    holds its base could still write through it."""
    out = np.ascontiguousarray(a)
    if out.base is not None:
        out = out.copy()
    out.flags.writeable = False
    return out


class _Pool:
    """Up to ``workers`` threads but no more than ``most`` or cores, kept
    for the ``map`` calls of one ``with`` block; with one thread, each
    call runs in the calling thread."""

    def __init__(self, workers: int, most: int):
        workers = _whole(workers, "workers", low=1)
        threads = min(workers, most, os.cpu_count() or 1)
        self._pool = (ThreadPoolExecutor(max_workers=threads)
                      if threads > 1 else None)

    def __enter__(self) -> "_Pool":
        if self._pool is not None:
            self._pool.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.__exit__(*exc)

    def map(self, fn, items) -> list:
        """``[fn(x) for x in items]``, in the order of ``items``."""
        if self._pool is None:
            return [fn(x) for x in items]
        return list(self._pool.map(fn, items))

    def overlap(self, make, use, keys) -> None:
        """``use(make(k))`` for each of ``keys`` in order, where ``make`` of
        key k runs beside ``use`` of key k - 1: one ``map`` of at most two
        tasks per step. No task or product outlives the call."""
        made = []  # the product that waits for ``use``: none or one
        for k in keys:
            tasks = [lambda k=k: make(k)] + [lambda p=p: use(p) for p in made]
            made = self.map(lambda task: task(), tasks)[:1]
        if made:
            self.map(use, made)


def _map_workers(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads but no
    more than items or cores; the results keep the order of ``items``."""
    items = list(items)
    with _Pool(workers, len(items)) as pool:
        return pool.map(fn, items)


@dataclass(frozen=True)
class Measurement:
    """A value with its one-sigma uncertainty."""

    value: float
    sigma: float

    def __str__(self) -> str:
        return f"{self.value:.4g} +/- {self.sigma:.3g}"


class Verdict(enum.Enum):
    """Single-photon classification from a normalized g2 at the dip."""

    SINGLE_PHOTON = "single_photon"
    NOT_SINGLE = "not_single"
    INCONCLUSIVE = "inconclusive"


def _not_a_number(value, name: str, unit: str) -> ValueError:
    of = f" of {unit}" if unit else ""
    return ValueError(f"{name} must be a number{of}, got {value!r}")


def _float(value, name: str, unit: str = "") -> float:
    """``value`` as a float; a value that is not a real number (a string,
    a bool, null, a list, an object) is an error naming it."""
    if not isinstance(value, (str, bytes, bool, np.bool_)):
        try:
            return float(value)
        except TypeError:
            pass
    raise _not_a_number(value, name, unit)


def _number(value, name: str, unit: str = "", finite: bool = True) -> float:
    """``value`` as a float by :func:`_float`'s rule; NaN, and an infinity
    unless ``finite`` is False, is an error naming it too."""
    number = _float(value, name, unit)
    if math.isnan(number) or (finite and math.isinf(number)):
        raise _not_a_number(value, name, unit)
    return number


def _span(unit: int):
    """The rule of a span given in ``unit`` ps (``PS_PER_S``, ...): a
    number by :func:`_number`'s rule, > 0, read as ``int(round(value *
    unit))`` ps, from 1 to below 2**63; else an error naming it."""
    def span(value, name: str) -> int:
        number = _number(value, name)
        if not number > 0:
            raise ValueError(f"{name} must be positive, got {value}")
        if not 0.5 < number * unit < 2 ** 63:  # 0.5 ps rounds to 0
            raise ValueError(
                f"{name} must be from 1 ps to below 2**63 ps, got {value}")
        return int(round(number * unit))
    return span


def _path(value, name: str) -> str:
    """``value`` as a non-empty file path string, else an error naming it."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    if not value:
        raise ValueError(f"{name} must not be empty")
    return value


def _whole(value, name: str, unit: str = "", low: float = -math.inf) -> int:
    """``value`` as a whole number (of ``unit``, if given) >= ``low``: an
    integral float such as 600.0 is its int; a fractional or non-finite
    one, one below ``low``, or a value :func:`_float` refuses, is an error
    naming it."""
    if not _float(value, name, unit).is_integer():
        of = f" of {unit}" if unit else ""
        raise ValueError(f"{name} must be a whole number{of}, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def _seed(value, name: str = "seed") -> int:
    """``value`` as a random seed: a whole number >= 0 by :func:`_whole`'s
    rule, so a negative one is refused by ``name``, not by numpy."""
    return _whole(value, name, low=0)


def _whole_ps(value, name: str, low: float = -math.inf) -> int:
    """``value`` as whole picoseconds >= ``low``, by :func:`_whole`'s rule."""
    return _whole(value, name, "ps", low)


def _array(dtype):
    """Declare an :class:`_ArrayRecord` field as an array of ``dtype``."""
    return field(metadata={"convert": lambda value, name: _freeze(
        np.asarray(value, dtype=dtype))})


def _ps(low: float = -math.inf, **kw):
    """Declare an :class:`_ArrayRecord` field as whole ps >= ``low``."""
    convert = functools.partial(_whole_ps, low=low)
    return field(metadata={"convert": convert}, **kw)


def _real(finite: bool = True, **kw):
    """Declare an :class:`_ArrayRecord` field as a number by
    :func:`_number`'s rule, an infinity allowed if ``finite`` is False."""
    convert = functools.partial(_number, finite=finite)
    return field(metadata={"convert": convert}, **kw)


class _ArrayRecord:
    """Mixin for record dataclasses: on construction (by
    ``dataclasses.replace`` too) each field declared with :func:`_array`,
    :func:`_ps`, :func:`_real` or a ``convert`` rule is converted by it,
    then the record's ``validate()``, if it defines one, checks the
    record. Equality compares arrays by value."""

    def __post_init__(self):
        for f in fields(self):
            convert = f.metadata.get("convert")
            if convert is not None:
                object.__setattr__(self, f.name,
                                   convert(getattr(self, f.name), f.name))
        validate = getattr(self, "validate", None)
        if validate is not None:
            validate()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            a = getattr(self, name)
            b = getattr(other, name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class TimestampStream(_ArrayRecord):
    """Sorted photon arrival times on one channel.

    Parameters
    ----------
    channel : int
        Channel id. 0 and 1 are detector arms, 255 is the sync channel.
    events : ndarray of int64
        Arrival times in ps, non-decreasing, all within [0, duration] (else
        ``ValueError``). An owned int64 array is frozen in place; pass a
        copy to keep writing.
    duration : int
        Observation span in ps, >= 0.
    """

    channel: int = field(metadata={"convert": _whole})
    events: np.ndarray = _array(np.int64)
    duration: int = _ps(low=0)

    def validate(self) -> None:
        ev, name = self.events, f"channel {self.channel}"
        for lo in range(0, ev.size, _BLOCK):
            # One event back, so the pair across the cut is compared too.
            part = ev[max(lo - 1, 0):lo + _BLOCK]
            if np.any(part[1:] < part[:-1]):
                raise ValueError(f"{name} stream is not sorted by timestamp")
        if ev.size and (ev[0] < 0 or ev[-1] > self.duration):
            raise ValueError(f"{name} events must lie within [0, "
                             f"{self.duration}] ps, got {ev[0]} to {ev[-1]}")

    def __len__(self) -> int:
        return self.events.size

    @property
    def rate_per_ms(self) -> float:
        """Mean detected rate in counts per millisecond."""
        if self.duration <= 0:
            return 0.0
        return len(self) / (self.duration / PS_PER_MS)


@dataclass(frozen=True)
class PeriodicStream(_ArrayRecord):
    """A perfectly periodic stream, such as an ideal laser sync, kept as
    its grid instead of one timestamp per pulse.

    Pulses sit at ``offset + k * period`` for k = 0 .. count-1. It stands
    in for the equivalent :class:`TimestampStream`: ``len`` and
    ``rate_per_ms`` read the grid, and ``events`` builds the pulse array
    on first access only, then keeps it (read-only).

    Parameters
    ----------
    channel : int
        Channel id, usually 255 (sync); a whole number.
    offset : int
        First pulse in ps, >= 0.
    period : int
        Pulse spacing in ps, > 0.
    count : int
        Number of pulses, >= 1; a whole number.
    duration : int
        Observation span in ps, not before the last pulse.
    """

    channel: int = field(metadata={"convert": _whole})
    offset: int = _ps()
    period: int = _ps()
    count: int = field(metadata={"convert": functools.partial(_whole, low=1)})
    duration: int = _ps()

    def validate(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.duration < self.last:
            raise ValueError(
                f"duration {self.duration} is before the last pulse "
                f"{self.last}")
        if self.last > np.iinfo(np.int64).max:
            raise ValueError(
                f"last pulse {self.last} overflows the signed 64-bit ps range")

    @property
    def last(self) -> int:
        """Time of the last pulse in ps."""
        return self.offset + (self.count - 1) * self.period

    @functools.cached_property
    def events(self) -> np.ndarray:
        return _freeze(self.offset + np.arange(self.count, dtype=np.int64)
                       * self.period)

    def __len__(self) -> int:
        return self.count

    rate_per_ms = TimestampStream.rate_per_ms


def _n_bins(span: int, bin_width: int) -> int:
    """ceil(span / bin_width), the only check of a histogram bin width."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    return -(-span // bin_width)


def _delay_bins(window: int, bin_width: int) -> int:
    """Bin count of a delay histogram over [-window, +window)."""
    n = _n_bins(2 * window, bin_width)
    if window < bin_width:
        raise ValueError(f"window ({window}) must be >= bin_width ({bin_width})")
    return n


def _decay_bins(period: int, bin_width: int) -> int:
    """Bin count of a decay histogram over [0, period)."""
    n = _n_bins(period, bin_width)
    if bin_width > period:
        raise ValueError(
            f"bin_width ({bin_width}) must not exceed period ({period})")
    return n


def _check_counts(counts: np.ndarray, n_bins: int, grid: str) -> None:
    """A histogram holds exactly ``n_bins`` non-negative counts."""
    if counts.size != n_bins:
        raise ValueError(
            f"expected {n_bins} bins for {grid}, got {counts.size}")
    if np.any(counts < 0):
        raise ValueError("histogram counts must be non-negative")


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram(_ArrayRecord):
    """Cross-correlation histogram of inter-channel delays.

    Delay bins are half-open [lo, hi) of width ``bin_width`` covering
    [-window, +window); a pair landing exactly at +window is discarded.

    Parameters
    ----------
    bin_width : int
        Bin width in ps.
    window : int
        Half-window in ps; delays run from -window to +window.
    counts : ndarray of int64
        Pair counts per bin, ceil(2*window / bin_width) bins.
    center_offset : int or None
        Fitted dip/peak position tau0 in ps, filled by the fit stage.
    normalization : float or None
        Divisor mapping raw counts onto the normalized g2 scale, filled
        by the normalization stage.
    """

    bin_width: int = _ps()
    window: int = _ps()
    counts: np.ndarray = _array(np.int64)
    center_offset: int | None = None
    normalization: float | None = None

    def validate(self) -> None:
        bw, w = self.bin_width, self.window
        _check_counts(self.counts, _delay_bins(w, bw),
                      f"window {w} and bin width {bw}")
        if self.normalization is not None and not self.normalization > 0:
            raise ValueError(
                f"normalization must be positive, got {self.normalization}")

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def tau_centers_ps(self) -> np.ndarray:
        return -self.window + (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def tau_centers_ns(self) -> np.ndarray:
        return self.tau_centers_ps / PS_PER_NS

    @property
    def normalized(self) -> np.ndarray:
        """Counts divided by the normalization constant."""
        if self.normalization is None:
            raise ValueError("histogram has no normalization set")
        return self.counts / self.normalization

    @property
    def normalized_sigma(self) -> np.ndarray:
        """Per-bin Poisson sigma on the normalized scale."""
        if self.normalization is None:
            raise ValueError("histogram has no normalization set")
        return np.sqrt(self.counts) / self.normalization


@dataclass(frozen=True, eq=False)
class DecayHistogram(_ArrayRecord):
    """Fluorescence decay histogram: photon delay since the preceding sync.

    Delays live in [0, period); bins are half-open of width ``bin_width``.
    ``discarded`` counts photons that could not be assigned (before the
    first sync pulse, or with a delay past the last bin edge).
    """

    bin_width: int = _ps()
    period: int = _ps()
    counts: np.ndarray = _array(np.int64)
    discarded: int = field(
        metadata={"convert": functools.partial(_whole, low=0)}, default=0)

    def validate(self) -> None:
        bw, t = self.bin_width, self.period
        _check_counts(self.counts, _decay_bins(t, bw),
                      f"period {t} and bin width {bw}")

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def delay_centers_ps(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def delay_centers_ns(self) -> np.ndarray:
        return self.delay_centers_ps / PS_PER_NS


@dataclass(frozen=True, eq=False)
class IntensityTrace(_ArrayRecord):
    """Binned count rate versus time, the raw material of blinking analysis.

    The default bin width of 1e9 ps (1 ms) matches the usual blinking
    threshold units of counts per millisecond. A ``duration`` of 0, the
    default, is the bins' span.
    """

    counts: np.ndarray = _array(np.int64)
    bin_width: int = _ps(default=PS_PER_MS)
    duration: int = _ps(low=0, default=0)

    def __post_init__(self):
        super().__post_init__()
        bw = self.bin_width
        dur = self.duration or self.counts.size * bw
        _check_counts(self.counts, _n_bins(dur, bw),
                      f"duration {dur} and bin width {bw}")
        object.__setattr__(self, "duration", dur)

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def span(self) -> int:
        """Full span covered by the bins in ps (>= duration)."""
        return self.counts.size * self.bin_width

    @property
    def bin_width_ms(self) -> float:
        return self.bin_width / PS_PER_MS

    @property
    def rates_per_ms(self) -> np.ndarray:
        """Counts per bin expressed in counts per millisecond."""
        return self.counts / self.bin_width_ms


@dataclass(frozen=True)
class Segment:
    """One maximal ON or OFF run of an intensity trace, half-open in ps."""

    on: bool
    start: int
    end: int

    @property
    def duration_ps(self) -> int:
        return self.end - self.start

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) / PS_PER_MS


@dataclass(frozen=True)
class G2CwParams:
    """Parameters of the CW antibunching model a*(1 - b*exp(-|t-tau0|/tauX)).

    ``plateau`` is the raw uncorrelated-coincidence level `a`, ``dip_depth``
    the fractional dip `b` (1 for an ideal single emitter), ``tau0_ns`` the
    dip position from cable/electronic offsets, ``tau_x_ns`` the emitter
    lifetime constant.
    """

    plateau: float
    dip_depth: float
    tau0_ns: float
    tau_x_ns: float

    names = ("plateau", "dip_depth", "tau0_ns", "tau_x_ns")

    def to_vector(self) -> np.ndarray:
        return np.array(
            [self.plateau, self.dip_depth, self.tau0_ns, self.tau_x_ns])

    @classmethod
    def from_vector(cls, v) -> "G2CwParams":
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


@dataclass(frozen=True, eq=False)
class G2PwParams(_ArrayRecord):
    """Parameters of the pulsed g2 comb model.

    The model is
    ``a + b0*E0 + sum_{n != 0} b_n * En * (1 - E0)`` with
    ``E0 = exp(-|t - tau0|/tauX)`` and ``En = exp(-|t - tau0 - n*T|/tauX)``.

    ``peak_heights`` holds b_n for n = -n_side .. +n_side in order, so the
    center coefficient b0 sits at index n_side. ``period_ns`` (T) is a fixed
    input (laser hardware), not a fitted parameter.
    """

    background: float
    peak_heights: np.ndarray = _array(np.float64)
    tau0_ns: float
    tau_x_ns: float
    period_ns: float

    def validate(self) -> None:
        n = self.peak_heights.size
        if n % 2 != 1 or n < 3:
            raise ValueError(
                f"peak_heights must have odd length >= 3, got {n}")

    @property
    def n_side(self) -> int:
        return (self.peak_heights.size - 1) // 2

    @property
    def center_height(self) -> float:
        """b0, the same-pulse peak coefficient."""
        return float(self.peak_heights[self.n_side])

    @property
    def side_mean(self) -> float:
        """Mean of the side-peak coefficients b_n, n != 0."""
        h = self.peak_heights
        return float((h.sum() - h[self.n_side]) / (h.size - 1))

    @property
    def names(self) -> tuple[str, ...]:
        n = self.n_side
        return (("background",)
                + tuple(f"b[{i}]" for i in range(-n, n + 1))
                + ("tau0_ns", "tau_x_ns"))

    def to_vector(self) -> np.ndarray:
        return np.concatenate((
            [self.background], self.peak_heights,
            [self.tau0_ns, self.tau_x_ns]))

    @classmethod
    def from_vector(cls, v, period_ns: float) -> "G2PwParams":
        v = np.asarray(v, dtype=np.float64)
        return cls(float(v[0]), v[1:-2].copy(), float(v[-2]), float(v[-1]),
                   float(period_ns))


@dataclass(frozen=True, eq=False)
class MultiExpParams(_ArrayRecord):
    """Parameters of A + sum_i B_i * exp(-(t - tau0)/tau_i), t >= tau0.

    Components are kept sorted by ascending lifetime. ``tau0_ns`` is the
    histogram peak position, held fixed during fitting.
    """

    floor: float
    amplitudes: np.ndarray = _array(np.float64)
    lifetimes_ns: np.ndarray = _array(np.float64)
    tau0_ns: float

    def validate(self) -> None:
        b, t = self.amplitudes, self.lifetimes_ns
        if b.size != t.size or b.size == 0:
            raise ValueError(
                f"amplitudes ({b.size}) and lifetimes ({t.size}) must have "
                "equal nonzero length")
        if np.any(np.diff(t) < 0):
            raise ValueError("lifetimes must be sorted ascending")

    @property
    def n_components(self) -> int:
        return self.amplitudes.size

    @property
    def names(self) -> tuple[str, ...]:
        out = ["floor"]
        for i in range(1, self.n_components + 1):
            out += [f"B{i}", f"tau{i}_ns"]
        return tuple(out)

    def to_vector(self) -> np.ndarray:
        v = [self.floor]
        for b, t in zip(self.amplitudes, self.lifetimes_ns):
            v += [b, t]
        return np.array(v)

    @classmethod
    def from_vector(cls, v, tau0_ns: float) -> "MultiExpParams":
        v = np.asarray(v, dtype=np.float64)
        return cls(float(v[0]), v[1::2].copy(), v[2::2].copy(), float(tau0_ns))


@dataclass(frozen=True, eq=False)
class FitResult(_ArrayRecord):
    """Outcome of a model fit.

    ``sigma`` and ``covariance`` are aligned with ``names`` (the free
    parameter vector in its packing order); ``sigma[i]`` equals
    ``sqrt(covariance[i, i])``. ``flags`` carries non-fatal conditions such
    as "singular_covariance" or "degenerate_component".
    """

    params: object
    names: tuple[str, ...]
    sigma: np.ndarray = _array(np.float64)
    covariance: np.ndarray = _array(np.float64)
    chi2_reduced: float
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()

    def value_of(self, name: str) -> Measurement:
        """Look up one fitted parameter with its uncertainty by name."""
        vec = self.params.to_vector()
        i = self.names.index(name)
        return Measurement(float(vec[i]), float(self.sigma[i]))

    def as_dict(self) -> dict:
        vec = self.params.to_vector()
        return {
            name: {"value": float(vec[i]), "sigma": float(self.sigma[i])}
            for i, name in enumerate(self.names)
        }


@dataclass(frozen=True, eq=False)
class BlinkingResult(_ArrayRecord):
    """Full blinking characterization of an intensity trace.

    Dwell durations are in milliseconds. ``alpha_on``/``alpha_off`` are the
    power-law exponents of the dwell distributions with one-sigma errors;
    ``model_on``/``model_off`` name the better dwell model ("power_law" or
    "exponential") per state.
    """

    threshold: float
    on_durations_ms: np.ndarray = _array(np.float64)
    off_durations_ms: np.ndarray = _array(np.float64)
    alpha_on: Measurement | None
    alpha_off: Measurement | None
    model_on: str | None
    model_off: str | None
    mean_on_rate_per_ms: float
    mean_off_rate_per_ms: float
