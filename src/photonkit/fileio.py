"""On-disk formats: binary timestamp files, CSV histograms, JSON reports.

Timestamp files ("PTST") are a 19-byte little-endian header followed by
fixed 16-byte records and, from version 2, an optional periodic table:

    header: magic "PTST" | version u16 | channel count u8 |
            resolution u32 (ps per tick) | record count u64
    record: timestamp u64 (ticks) | channel u8 | 7 reserved bytes
    table:  tag "PSYN" | entry count u8 | entries
    entry:  channel u8 | offset u64 | period u64 | count u64 (ticks)

Records are sorted by timestamp with channel as tie-break, and table
entries by channel, so a rewrite of the same streams is byte-identical.
A table entry stores a :class:`PeriodicStream` (an ideal sync) as its
grid instead of one record per pulse, in the spirit of time-tagged T3
modes that store a sync count per photon rather than the sync events. A
version-2 file without the table has exactly the version-1 layout;
version-1 files still read, and must not carry a table. The file does
not store the observation duration; readers infer it from the last
timestamp or pulse unless the caller overrides it.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core import (
    CoincidenceHistogram,
    DecayHistogram,
    Measurement,
    PeriodicStream,
    TimestampStream,
    Verdict,
)

try:
    from importlib.metadata import PackageNotFoundError, version
    TOOL_VERSION = version("photonkit")
except PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.1.0"

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "RECORD_DTYPE",
    "PERIODIC_TAG",
    "TimestampFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "UnsortedRecordsError",
    "TimestampOverflowError",
    "BadTableTagError",
    "BadPeriodError",
    "BadPulseCountError",
    "DuplicateChannelError",
    "write_timestamps",
    "read_timestamps",
    "export_histogram_csv",
    "read_histogram_csv",
    "file_digest",
    "ReportDocument",
]

MAGIC = b"PTST"
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_HEADER = struct.Struct("<4sHBIQ")
RECORD_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1"), ("pad", "V7")])
PERIODIC_TAG = b"PSYN"
_TABLE_HEAD = struct.Struct("<4sB")
_TABLE_ENTRY = struct.Struct("<BQQQ")
_INT64_MAX = int(np.iinfo(np.int64).max)


class TimestampFileError(Exception):
    """Base error for malformed timestamp files."""

    code = "timestamp_file_error"


class BadMagicError(TimestampFileError):
    code = "bad_magic"


class UnsupportedVersionError(TimestampFileError):
    code = "unsupported_version"


class TruncatedFileError(TimestampFileError):
    code = "truncated"


class UnsortedRecordsError(TimestampFileError):
    code = "unsorted_records"


class TimestampOverflowError(TimestampFileError):
    code = "timestamp_overflow"


class BadTableTagError(TimestampFileError):
    code = "bad_table_tag"


class BadPeriodError(TimestampFileError):
    code = "bad_period"


class BadPulseCountError(TimestampFileError):
    code = "bad_pulse_count"


class DuplicateChannelError(TimestampFileError):
    code = "duplicate_channel"


def write_timestamps(streams, path, resolution: int = 1) -> int:
    """Write streams to one binary file; returns the number of 16-byte
    records written.

    Events from all streams are interleaved in time order (channel id as
    tie-break), which makes the output byte-identical for identical input.
    With ``resolution`` > 1 timestamps are stored in coarser ticks by
    integer division, which is lossy. A :class:`PeriodicStream` whose
    offset and period are whole ticks goes into the periodic table as one
    entry and adds no records; any other one is written pulse by pulse,
    quantized like every record.

    Raises
    ------
    ValueError
        On a bad resolution, more than 255 streams, a channel id outside
        one byte or used by two streams, or negative timestamps.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    streams = list(streams)
    if len(streams) > 255:
        raise ValueError(f"at most 255 channels per file, got {len(streams)}")
    parts_t, parts_ch, table = [], [], []
    seen = set()
    for s in streams:
        if not 0 <= s.channel <= 255:
            raise ValueError(f"channel {s.channel} does not fit in one byte")
        if s.channel in seen:
            raise ValueError(f"channel {s.channel} is given by two streams")
        seen.add(s.channel)
        if (isinstance(s, PeriodicStream) and s.offset % resolution == 0
                and s.period % resolution == 0):
            table.append((s.channel, s.offset // resolution,
                          s.period // resolution, s.count))
            continue
        if s.events.size and s.events.min() < 0:
            raise ValueError(
                f"channel {s.channel} has negative timestamps")
        parts_t.append(s.events.astype(np.uint64) // resolution)
        parts_ch.append(np.full(s.events.size, s.channel, dtype=np.uint8))
    t = np.concatenate(parts_t) if parts_t else np.empty(0, np.uint64)
    ch = np.concatenate(parts_ch) if parts_ch else np.empty(0, np.uint8)
    order = np.lexsort((ch, t))
    records = np.zeros(t.size, dtype=RECORD_DTYPE)
    records["t"] = t[order]
    records["ch"] = ch[order]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(streams),
                             resolution, t.size))
        records.tofile(f)
        if table:
            f.write(_TABLE_HEAD.pack(PERIODIC_TAG, len(table)))
            for entry in sorted(table):
                f.write(_TABLE_ENTRY.pack(*entry))
    return int(t.size)


def _read_table(tail: bytes, fmt_version: int, n_records: int) -> list:
    """Parse the bytes after the records into (channel, offset, period,
    count) tuples in ticks."""
    if not tail:
        return []
    if fmt_version == 1:
        raise TimestampFileError(
            f"trailing data after {n_records} records")
    tag = tail[:len(PERIODIC_TAG)]
    if tag != PERIODIC_TAG:
        raise BadTableTagError(
            f"trailing data after {n_records} records: expected table "
            f"tag {PERIODIC_TAG!r}, found {tag!r}")
    if len(tail) < _TABLE_HEAD.size:
        raise TruncatedFileError("file ends inside the periodic table head")
    n = tail[len(PERIODIC_TAG)]
    body = tail[_TABLE_HEAD.size:]
    if len(body) < n * _TABLE_ENTRY.size:
        raise TruncatedFileError(
            f"periodic table promises {n} entries, file holds "
            f"{len(body) // _TABLE_ENTRY.size}")
    if len(body) > n * _TABLE_ENTRY.size:
        raise TimestampFileError(
            f"trailing data after the {n}-entry periodic table")
    return [_TABLE_ENTRY.unpack_from(body, i * _TABLE_ENTRY.size)
            for i in range(n)]


def read_timestamps(path, duration: int | None = None,
                    ) -> dict[int, TimestampStream | PeriodicStream]:
    """Read a binary timestamp file into streams keyed by channel id.

    Channels written with zero events do not reappear; a periodic table
    entry comes back as a :class:`PeriodicStream`. The duration defaults
    to the last timestamp or pulse in the file; pass ``duration`` to set
    the true observation span when it is known.

    Raises
    ------
    BadMagicError, UnsupportedVersionError, TruncatedFileError,
    UnsortedRecordsError, TimestampOverflowError, BadTableTagError,
    BadPeriodError, BadPulseCountError, DuplicateChannelError
        On the corresponding structural defect. Each carries a stable
        ``code`` attribute for machine handling.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFileError(
                f"file ends inside the {_HEADER.size}-byte header")
        magic, fmt_version, _n_channels, resolution, n_records = \
            _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, found {magic!r}")
        if fmt_version not in _READABLE_VERSIONS:
            raise UnsupportedVersionError(
                f"format version {fmt_version} not supported "
                f"(expected one of {_READABLE_VERSIONS})")
        if resolution == 0:
            raise TimestampFileError("resolution field is zero")
        records = np.fromfile(f, dtype=RECORD_DTYPE, count=n_records)
        if records.size < n_records:
            raise TruncatedFileError(
                f"header promises {n_records} records, file holds "
                f"{records.size}")
        # 255 entries at most, so one byte more than a full table is
        # enough to see any excess.
        tail = f.read(_TABLE_HEAD.size + 255 * _TABLE_ENTRY.size + 1)
    table = _read_table(tail, fmt_version, n_records)

    t = records["t"]
    if t.size and not bool(np.all(t[1:] >= t[:-1])):
        bad = int(np.nonzero(t[1:] < t[:-1])[0][0]) + 1
        raise UnsortedRecordsError(
            f"record {bad} goes backwards in time")
    if t.size and int(t[-1]) * resolution > _INT64_MAX:
        raise TimestampOverflowError(
            "timestamps overflow the signed 64-bit ps range")
    ch = records["ch"]
    record_channels = np.flatnonzero(np.bincount(ch, minlength=256)).tolist()
    seen = set(record_channels)
    last_event = int(t[-1]) * resolution if t.size else 0
    for c, offset, period, count in table:
        if c in seen:
            where = ("the records" if c in record_channels
                     else "the periodic table")
            raise DuplicateChannelError(
                f"channel {c} is already stored in {where}")
        seen.add(c)
        if period == 0:
            raise BadPeriodError(f"channel {c} has a zero period")
        if count == 0:
            raise BadPulseCountError(f"channel {c} has zero pulses")
        last_pulse = (offset + (count - 1) * period) * resolution
        if last_pulse > _INT64_MAX:
            raise TimestampOverflowError(
                f"channel {c}: last pulse overflows the signed 64-bit ps "
                "range")
        last_event = max(last_event, last_pulse)
    if duration is None:
        duration = last_event
    else:
        duration = int(duration)
        if duration < last_event:
            raise ValueError(
                f"duration {duration} is before the last event {last_event}")

    # The records are globally sorted, non-negative and at most
    # ``last_event``, so every per-channel slice is a valid stream.
    times = t.astype(np.int64)
    if resolution != 1:
        times *= resolution
    out = {c: TimestampStream(c, times[ch == c], duration)
           for c in record_channels}
    for c, offset, period, count in table:
        out[c] = PeriodicStream(c, offset * resolution, period * resolution,
                                count, duration)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# CSV histograms

def export_histogram_csv(histogram, path) -> None:
    """Write a histogram as CSV.

    Raw histograms get columns ``bin_center_ns,count``; a normalized
    coincidence histogram gets ``bin_center_ns,g2,sigma`` instead.
    """
    if isinstance(histogram, CoincidenceHistogram):
        centers = histogram.tau_centers_ns
        if histogram.normalization is not None:
            header = "bin_center_ns,g2,sigma"
            table = np.column_stack(
                (centers, histogram.normalized, histogram.normalized_sigma))
            fmt = ["%.3f", "%.9g", "%.9g"]
        else:
            header = "bin_center_ns,count"
            table = np.column_stack((centers, histogram.counts))
            fmt = ["%.3f", "%d"]
    elif isinstance(histogram, DecayHistogram):
        header = "bin_center_ns,count"
        table = np.column_stack((histogram.delay_centers_ns, histogram.counts))
        fmt = ["%.3f", "%d"]
    else:
        raise TypeError(
            f"cannot export a {type(histogram).__name__} as a histogram CSV")
    with open(path, "w", newline="") as f:
        np.savetxt(f, table, fmt=fmt, delimiter=",", header=header,
                   comments="")


def read_histogram_csv(path) -> dict[str, np.ndarray]:
    """Read a histogram CSV back as {column name: array}.

    Count columns come back as int64, everything else as float64.
    """
    with open(path, "r", newline="") as f:
        names = f.readline().strip().split(",")
        body = f.read()
    if not names or names == [""]:
        raise ValueError("histogram CSV has no header line")
    if body.strip():
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if data.shape[1] != len(names):
            raise ValueError(
                f"header names {len(names)} columns, rows have "
                f"{data.shape[1]}")
    else:
        data = np.empty((0, len(names)))
    out = {}
    for j, name in enumerate(names):
        col = data[:, j]
        out[name] = col.astype(np.int64) if name == "count" else col
    return out


# ---------------------------------------------------------------------------
# JSON report

def file_digest(path) -> str:
    """SHA-256 hex digest of a file, streamed in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, Measurement):
        return {"value": obj.value, "sigma": obj.sigma}
    if isinstance(obj, Verdict):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return _jsonify(as_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ReportDocument:
    """Machine-readable analysis report.

    Serializes with sorted keys and a fixed schema version so reports are
    diffable; ``created`` is the only field that varies between identical
    runs.
    """

    config: dict
    results: dict
    errors: list = field(default_factory=list)
    input: dict | None = None
    created: str = field(default_factory=_now_iso)
    schema_version: str = "1"
    tool_name: str = "photonkit"
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        doc = {
            "schema_version": self.schema_version,
            "created": self.created,
            "tool": {"name": self.tool_name, "version": self.tool_version},
            "config": self.config,
            "results": self.results,
            "errors": list(self.errors),
        }
        if self.input is not None:
            doc["input"] = self.input
        return _jsonify(doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @property
    def ok(self) -> bool:
        return not self.errors
