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

The writer moves a file's bytes once. The reader maps the file
read-only instead of copying it, checks and gathers the records from the
mapping and unmaps it before it returns; the streams it returns are its
own arrays. A file truncated by another process while it is being read
can kill the reading process with SIGBUS. Given a ``hashlib`` object
the writer and the reader feed it the file's bytes in file order, so the
caller has the file's digest without reading the file again.
The writer merges the streams into records a chunk at a time: a chunk
ends at every ``core._BLOCK``-th event of each stream, and the cuts fall
between ticks, so each chunk is sorted on its own. Consecutive sorted
chunks make a batch of at most ``_BATCH // 2`` blocks of records (or
one chunk, if that is larger), sorted into two buffers in turn, so the
writer never holds the whole file. Given ``workers`` > 1, a thread of
the package's pool (``core._Pool``) hashes and writes each batch while
the next one is sorted. The reader checks the record order and counts
the channels once per block of ``core._BLOCK`` records, then gathers
every channel from each block while that block is in cache; its tasks
take contiguous runs of blocks and write at offsets taken from the
per-block counts. Given ``workers`` > 1 and a hasher, it hashes the
mapping on one thread for the whole call, beside the checks and the
gather. Neither the bytes nor the streams depend on ``workers`` or the
block size.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core import (
    CoincidenceHistogram,
    DecayHistogram,
    Measurement,
    PS_PER_NS,
    PeriodicStream,
    TimestampStream,
    Verdict,
    _BLOCK,
    _Pool,
    _map_workers,
    _whole,
    _whole_ps,
)

from . import __version__

_SCHEMA_VERSION = "1"  # of the report JSON

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
    "histogram_from_csv",
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
_BATCH = 16  # blocks of ``_BLOCK`` records in the writer's two buffers


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


def write_timestamps(streams, path, resolution: int = 1, workers: int = 1,
                     hasher=None) -> int:
    """Write streams to one binary file; returns the number of 16-byte
    records written.

    Events from all streams are interleaved in time order (channel id as
    tie-break), which makes the output byte-identical for identical input.
    With ``resolution`` > 1 timestamps are stored in coarser ticks by
    integer division, which is lossy. A :class:`PeriodicStream` whose
    offset and period are whole ticks goes into the periodic table as one
    entry and adds no records; any other one is written pulse by pulse,
    quantized like every record.

    The records are sorted a chunk at a time into two buffers of at most
    ``_BATCH // 2`` blocks of ``core._BLOCK`` records (or one chunk, if
    that is larger), used in turn, so beyond its input the writer holds
    about ``_BATCH`` blocks. ``hasher`` (a :mod:`hashlib` object) is fed
    every byte of the file in file order. ``workers`` > 1 hashes and
    writes one buffer on a second thread while the other fills; a file
    of one batch starts no thread. The bytes do not depend on it.

    Raises
    ------
    ValueError
        On a resolution that is not a whole number >= 1, more than 255
        streams, or a channel id outside one byte or used by two streams
        (a stream's events are sorted and >= 0: it checked when built).
    """
    resolution = _whole(resolution, "resolution", low=1)
    streams = list(streams)
    if len(streams) > 255:
        raise ValueError(f"at most 255 channels per file, got {len(streams)}")
    parts, table = [], []
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
        parts.append((s.channel, s.events))
    # Concatenated in channel order, a stable sort by time alone breaks
    # ties on the channel. The records are sorted a chunk at a time: a
    # chunk ends at every ``_BLOCK``-th event of each stream, cut on a tick
    # so that all the events of one tick share a chunk.
    parts.sort(key=lambda part: part[0])
    channels = np.array([c for c, _ in parts], np.uint8)
    cuts = np.unique(np.concatenate(
        [ev[_BLOCK::_BLOCK] // resolution for _, ev in parts]
        or [np.empty(0, np.int64)])) * resolution
    # edges[k, j]: index in stream k of its first event in chunk j
    edges = np.zeros((len(parts), cuts.size + 2), np.int64)
    for row, (_, ev) in zip(edges, parts):
        row[1:-1] = np.searchsorted(ev, cuts)
        row[-1] = ev.size
    sizes = np.diff(edges, axis=1).sum(axis=0)  # records per chunk
    n_records = int(sizes.sum())
    # Consecutive chunks make a batch of at most half of ``_BATCH`` blocks
    # (or one chunk, if that is larger). Batches are sorted into two
    # buffers in turn: while one fills, a pool task hashes and writes the
    # other.
    half = max(_BATCH // 2 * _BLOCK, sizes.max(initial=0))
    batches, held = [[]], 0
    for j, size in enumerate(sizes):
        if held + size > half:
            batches.append([])
            held = 0
        batches[-1].append(j)
        held += size
    batch_sizes = [int(sizes[batch].sum()) for batch in batches]
    buffers = [np.zeros(max(batch_sizes[k::2], default=0), RECORD_DTYPE)
               for k in range(min(len(batches), 2))]

    def fill(k: int) -> np.ndarray:
        """Batch k's sorted records, in one of the two buffers."""
        out = buffers[k % 2][:batch_sizes[k]]
        at = 0
        for j in batches[k]:
            lo, hi = edges[:, j], edges[:, j + 1]
            t = np.concatenate(
                [ev[a:b] for (_, ev), a, b in zip(parts, lo, hi)]
                or [np.empty(0, np.int64)])
            if resolution != 1:
                t //= resolution
            order = np.argsort(t, kind="stable")
            chunk = out[at:at + t.size]
            chunk["t"] = t[order]
            chunk["ch"] = np.repeat(channels, hi - lo)[order]
            at += t.size
        return out.view(np.uint8)

    with open(path, "wb") as f, _Pool(workers, min(len(batches), 2)) as pool:

        def flush(data) -> None:
            if hasher is not None:
                hasher.update(data)
            f.write(data)

        flush(_HEADER.pack(MAGIC, FORMAT_VERSION, len(streams), resolution,
                           n_records))
        # Batch k is sorted while batch k - 1 goes out.
        filled = None
        for k in (*range(len(batches)), None):
            tasks = [] if k is None else [lambda k=k: fill(k)]
            if filled is not None:
                tasks.append(lambda data=filled: flush(data))
            done = pool.map(lambda task: task(), tasks)
            filled = None if k is None else done[0]
        if table:
            flush(_TABLE_HEAD.pack(PERIODIC_TAG, len(table)) + b"".join(
                _TABLE_ENTRY.pack(*entry) for entry in sorted(table)))
    return n_records


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


def read_timestamps(path, duration: int | None = None, workers: int = 1,
                    hasher=None,
                    ) -> dict[int, TimestampStream | PeriodicStream]:
    """Read a binary timestamp file into streams keyed by channel id.

    Channels written with zero events do not reappear; a periodic table
    entry comes back as a :class:`PeriodicStream`. The duration defaults
    to the last timestamp or pulse in the file; pass ``duration`` to set
    the true observation span when it is known.

    The file is mapped read-only, not copied: the records are checked and
    gathered into the streams' own arrays straight from the mapping, which
    is unmapped before this returns. If another process truncates the file
    during the read, this process can die with SIGBUS. ``hasher`` (a
    :mod:`hashlib` object) is fed all of the file's bytes in file order.
    ``workers`` > 1 hashes on one thread for the whole call while the
    records are checked and then gathered in that many contiguous runs
    of blocks, each gathering every channel on its own thread; the
    streams do not depend on it. An error in the records is raised once
    the hashing has ended.

    Raises
    ------
    BadMagicError, UnsupportedVersionError, TruncatedFileError,
    UnsortedRecordsError, TimestampOverflowError, BadTableTagError,
    BadPeriodError, BadPulseCountError, DuplicateChannelError
        On the corresponding structural defect. Each carries a stable
        ``code`` attribute for machine handling.
    """
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size < _HEADER.size:
            raise TruncatedFileError(
                f"file ends inside the {_HEADER.size}-byte header")
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    streams = _read_mapped(np.frombuffer(mapped, np.uint8), duration,
                           workers, hasher)
    # Closed here, not in a ``finally``: a failed read's traceback still
    # holds views of the mapping, which is unmapped once that error is
    # let go.
    mapped.close()
    return streams


def _read_mapped(data: np.ndarray, duration, workers: int, hasher) -> dict:
    """:func:`read_timestamps` on the file's bytes ``data``; the streams
    hold no view of ``data``."""
    magic, fmt_version, _n_channels, resolution, n_records = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, found {magic!r}")
    if fmt_version not in _READABLE_VERSIONS:
        raise UnsupportedVersionError(
            f"format version {fmt_version} not supported "
            f"(expected one of {_READABLE_VERSIONS})")
    if resolution == 0:
        raise TimestampFileError("resolution field is zero")
    held = (data.size - _HEADER.size) // RECORD_DTYPE.itemsize
    if n_records > held:
        raise TruncatedFileError(
            f"header promises {n_records} records, file holds {held}")
    end = _HEADER.size + n_records * RECORD_DTYPE.itemsize
    records = data[_HEADER.size:end].view(RECORD_DTYPE)
    # 255 entries at most, so one byte more than a full table is enough
    # to see any excess.
    table = _read_table(
        data[end:end + _TABLE_HEAD.size + 255 * _TABLE_ENTRY.size + 1]
        .tobytes(), fmt_version, n_records)

    # The digest needs only the bytes, so it is taken beside the whole
    # reading of the records.
    tasks = [lambda: _streams(records, table, resolution, duration, workers)]
    if hasher is not None:
        tasks.append(lambda: hasher.update(data))
    return _map_workers(lambda task: task(), tasks, workers)[0]


def _streams(records: np.ndarray, table: list, resolution: int, duration,
             workers: int) -> dict:
    """The streams of a file's ``records`` (a view of the mapping) and its
    periodic ``table``, after the order, range and table checks; they
    hold no view of ``records``."""
    t = records["t"]
    ch = records["ch"]
    blocks = range(0, t.size, _BLOCK)
    # Each block's count of records per channel id, after the order check.
    per_block = np.empty((len(blocks), 256), np.int64)
    for j, lo in enumerate(blocks):
        # One record back, so the pair across the cut is compared too.
        first = max(lo - 1, 0)
        part = t[first:lo + _BLOCK]
        if not bool(np.all(part[1:] >= part[:-1])):
            bad = first + int(np.nonzero(part[1:] < part[:-1])[0][0]) + 1
            raise UnsortedRecordsError(f"record {bad} goes backwards in time")
        per_block[j] = np.bincount(ch[lo:lo + _BLOCK], minlength=256)
    if t.size and int(t[-1]) * resolution > _INT64_MAX:
        raise TimestampOverflowError(
            "timestamps overflow the signed 64-bit ps range")
    counts = per_block.sum(axis=0)
    record_channels = np.flatnonzero(counts).tolist()
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
        duration = _whole_ps(duration, "duration")
        if duration < last_event:
            raise ValueError(
                f"duration {duration} is before the last event {last_event}")

    # The records are globally sorted, non-negative and at most
    # ``last_event``, so every per-channel slice is a valid stream. Block
    # j's records of a channel land after that channel's records in the
    # blocks before it.
    per_block = per_block[:, record_channels]
    starts = np.cumsum(per_block, axis=0) - per_block
    channels = [(c, np.empty(counts[c], np.int64)) for c in record_channels]

    def gather(run: range) -> None:
        for j in run:
            lo = blocks[j]
            # One contiguous copy of the block's bytes, then its columns:
            # quicker than reading them out of the mapping field by field.
            raw = records[lo:lo + _BLOCK].view(np.uint8).copy().view(
                RECORD_DTYPE)
            block, block_ch = raw["t"].view(np.int64), raw["ch"]
            for (c, events), at, n in zip(channels, starts[j], per_block[j]):
                part = events[at:at + n]
                np.compress(block_ch == c, block, out=part)
                if resolution != 1:
                    part *= resolution

    n = len(blocks)
    parts = min(_whole(workers, "workers"), n)
    _map_workers(gather, [range(n * i // parts, n * (i + 1) // parts)
                          for i in range(parts)], workers)
    out = {c: TimestampStream(c, events, duration) for c, events in channels}
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
    # One ``%`` formats every row, as ``np.savetxt`` would row by row.
    rows = (",".join(fmt) + "\n") * len(table)
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.write(rows % tuple(table.ravel().tolist()))


def read_histogram_csv(path) -> dict[str, np.ndarray]:
    """Read a histogram CSV back as {column name: array}.

    Count columns come back as int64, everything else as float64. A count
    that is not a whole number is an error naming its column and row.
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
        if name == "count":
            bad = np.flatnonzero(~np.isfinite(col) | (col != np.trunc(col)))
            if bad.size:
                raise ValueError(
                    f"column {name!r} must hold whole numbers, got "
                    f"{col[bad[0]]} in row {bad[0] + 1}")
            col = col.astype(np.int64)
        out[name] = col
    return out


def histogram_from_csv(path, period: int | None = None):
    """The histogram a raw ``bin_center_ns,count`` CSV was exported from:
    decay if its first centre is not negative, with ``period`` (ps) or
    bins * bin width as its period. Centres are printed to 1 ps, so the
    bin width, their mean spacing, is exact from 4 rows up (fewer are
    refused); the window is the mean of those they give, kept to the
    ones with the CSV's bin count, so 1 ps off at most (odd bin widths).
    """
    columns = read_histogram_csv(path)
    centers, counts = columns.get("bin_center_ns"), columns.get("count")
    if centers is None or counts is None:
        raise ValueError(
            "fit needs a raw histogram CSV with bin_center_ns,count columns")
    if centers.size < 4:
        raise ValueError("histogram CSV has fewer than 4 rows")
    n, ps = centers.size, centers * PS_PER_NS
    bin_width = int(round((ps[-1] - ps[0]) / (n - 1)))
    if not np.signbit(centers[0]):  # a printed -0.000 is negative
        return DecayHistogram(
            bin_width, n * bin_width if period is None else period, counts)
    window = np.clip(np.rint(np.mean((np.arange(n) + 0.5) * bin_width - ps)),
                     (n - 1) * bin_width // 2 + 1, n * bin_width // 2)
    return CoincidenceHistogram(bin_width, int(window), counts)


# ---------------------------------------------------------------------------
# JSON report

def file_digest(path) -> str:
    """SHA-256 hex digest of a file, streamed in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _encode_leaf(obj):
    """``json.dumps`` hook: the report leaves ``json`` cannot encode itself."""
    if isinstance(obj, np.floating):  # float() also narrows a longdouble
        return float(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Measurement):
        return {"value": obj.value, "sigma": obj.sigma}
    if isinstance(obj, Verdict):
        return obj.value
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return as_dict()
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

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        doc = {
            "schema_version": _SCHEMA_VERSION,
            "created": self.created,
            "tool": {"name": "photonkit", "version": __version__},
            "config": self.config,
            "results": self.results,
            "errors": self.errors,
        }
        if self.input is not None:
            doc["input"] = self.input
        return json.dumps(doc, indent=2, sort_keys=True,
                          default=_encode_leaf) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @property
    def ok(self) -> bool:
        return not self.errors
