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
read-only instead of copying it, reads the records from the mapping and
unmaps it before it returns; the streams it returns are its own arrays.
A file truncated by another process while it is being read can kill the
reading process with SIGBUS. Given a ``hashlib`` object
the writer and the reader feed it the file's bytes in file order, so the
caller has the file's digest without reading the file again.
The writer merges the streams into records a chunk at a time: a chunk
ends at every ``core._BLOCK``-th event of each stream, and the cuts fall
between ticks, so each chunk is sorted on its own. Consecutive sorted
chunks make a batch of at most ``_BATCH // 2`` blocks of records (or
one chunk, if that is larger), sorted into one buffer, so the writer
never holds the whole file. Given ``workers`` > 1, a thread of the
package's pool hashes and writes each batch while the next one is sorted
into a second buffer, by the pool's two-stage rule
(``core._Pool.overlap``). The
reader counts each block of ``core._BLOCK`` records per channel from
the channel ids alone, which sizes every stream exactly. Its tasks then
take contiguous runs of blocks: a task copies each block's times and
ids out of the mapping once, checks the order on that aligned copy (the
previous block's last time carries across the cut), and splits it into
the streams at offsets taken from the counts. Given a hasher, it hashes
the blocks in file order: serially, each right after it is split; given
``workers`` > 1, on one thread for the whole call, beside the counts and
the runs. It releases a block's pages of the mapping once the block is
counted, and again once it is both split and hashed (``_release``), so
the mapping is never resident whole, and serially no page is faulted in
more than twice. Neither the bytes nor the streams depend on ``workers``
or the block size.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
import threading
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
_BATCH = 16  # blocks of ``_BLOCK`` records in two of the writer's batches
# Blocks of records per update on the reader's hashing thread: each update
# hands the GIL back, and one update a block cost cw_blinking's 70 MB
# read 8 ms on 2 cores.
_HASH_SPAN = 16


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

    The records are sorted a chunk at a time into buffers of at most
    ``_BATCH // 2`` blocks of ``core._BLOCK`` records (or one chunk, if
    that is larger), used in turn, so beyond its input the writer holds
    about ``_BATCH // 2`` blocks, or ``_BATCH`` given a second thread.
    ``hasher`` (a :mod:`hashlib` object) is fed every byte of the file in
    file order. ``workers`` > 1 hashes and writes one buffer on a second
    thread while the other fills (``core._Pool.overlap``); a file of one
    batch starts no thread. The bytes do not depend on it.

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
    # (or one chunk, if that is larger). Batches are sorted into the
    # buffers in turn: threaded, while one fills, a pool task hashes and
    # writes the other.
    half = max(_BATCH // 2 * _BLOCK, sizes.max(initial=0))
    batches, held = [[]], 0
    for j, size in enumerate(sizes):
        if held + size > half:
            batches.append([])
            held = 0
        batches[-1].append(j)
        held += size
    batch_sizes = [int(sizes[batch].sum()) for batch in batches]

    def fill(k: int) -> np.ndarray:
        """Batch k's sorted records, in one of the buffers, in turn."""
        out = buffers[k % len(buffers)][:batch_sizes[k]]
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
        # As many buffers as the pool keeps batches alive: one serially.
        m = pool.products
        buffers = [np.zeros(max(batch_sizes[j::m]), RECORD_DTYPE)
                   for j in range(m)]

        def flush(data) -> None:
            if hasher is not None:
                hasher.update(data)
            f.write(data)

        flush(_HEADER.pack(MAGIC, FORMAT_VERSION, len(streams), resolution,
                           n_records))
        # Batch k is sorted while batch k - 1 goes out.
        pool.overlap(fill, flush, range(len(batches)))
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

    The file is mapped read-only, not copied: the channel ids are
    counted, then each block of records is copied out of the mapping
    once, checked and split into the streams' own arrays; the mapping is
    unmapped before this returns. Each block's pages of the mapping are
    released once the block is counted and again once it is split and
    hashed, so the file never counts whole in this process's resident
    set. If another process truncates the file during the read, this
    process can die with SIGBUS. ``hasher`` (a :mod:`hashlib` object) is
    fed all of the file's bytes in file order: at ``workers`` 1 each
    block right after it is split, so the hash reads no page a second
    time. ``workers`` > 1 hashes on one thread for the whole call while
    the records are counted and then checked and split in that many
    contiguous runs of blocks, each on its own thread; the streams do
    not depend on it. An error in the records is raised once the hashing
    has ended or, at ``workers`` 1, stopped at that block.

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
    streams = _read_mapped(mapped, duration, workers, hasher)
    # Closed here, not in a ``finally``: a failed read's traceback still
    # holds views of the mapping, which is unmapped once that error is
    # let go.
    mapped.close()
    return streams


def _release(mapped: mmap.mmap, lo: int, hi: int) -> None:
    """Drop this process's pages of bytes [lo, hi) of the read-only
    ``mapped``, those that lie wholly inside the range: they leave its
    resident set, and a later read faults them in again from the page
    cache."""
    lo = -(-lo // mmap.PAGESIZE) * mmap.PAGESIZE
    hi -= hi % mmap.PAGESIZE
    if hi > lo and hasattr(mmap, "MADV_DONTNEED"):
        mapped.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _read_mapped(mapped: mmap.mmap, duration, workers: int, hasher) -> dict:
    """:func:`read_timestamps` on the file's read-only mapping; the
    streams hold no view of it."""
    data = np.frombuffer(mapped, np.uint8)
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

    def block(j: int) -> slice:
        """Block j's records, as bytes of the file."""
        lo = _HEADER.size + j * _BLOCK * RECORD_DTYPE.itemsize
        return slice(lo, min(lo + _BLOCK * RECORD_DTYPE.itemsize, end))

    def release(j: int) -> None:
        cut = block(j)
        _release(mapped, cut.start, cut.stop)

    # A block is released once its channel ids are counted, and again once
    # it is split and hashed. Serially the hash is taken block by block
    # after the split, in file order, so no page is faulted in more than
    # twice. Given workers > 1, one task hashes ``_HASH_SPAN`` blocks at a
    # time in file order beside the whole reading of the records, and the
    # later of the hash and the split releases a block.
    workers = _whole(workers, "workers", low=1)
    hashing = hasher is not None and workers > 1
    pending = [1 + hashing] * -(-n_records // _BLOCK)
    lock = threading.Lock()

    def done(j: int) -> None:
        """One of block j's readers is done with it."""
        with lock:
            pending[j] -= 1
            last = not pending[j]
        if last:
            release(j)

    def split(j: int) -> None:
        if hasher is not None and not hashing:
            hasher.update(data[block(j)])
        done(j)

    def hash_blocks() -> None:
        for lo in range(0, len(pending), _HASH_SPAN):
            span = range(lo, min(lo + _HASH_SPAN, len(pending)))
            hasher.update(data[block(span[0]).start:block(span[-1]).stop])
            for j in span:
                done(j)

    if hasher is not None:
        hasher.update(data[:_HEADER.size])
    tasks = [lambda: _streams(records, table, resolution, duration, workers,
                              release, split)]
    if hashing:
        tasks.append(hash_blocks)
    streams = _map_workers(lambda task: task(), tasks, workers)[0]
    if hasher is not None:
        hasher.update(data[end:])
    return streams


def _streams(records: np.ndarray, table: list, resolution: int, duration,
             workers: int, counted, split) -> dict:
    """The streams of a file's ``records`` (a view of the mapping) and its
    periodic ``table``, after the order, range and table checks; they
    hold no view of ``records``. After the channel counts, one map checks
    and splits the records in at most ``workers`` runs of blocks, from
    one copy of each block. ``counted(j)`` and ``split(j)`` are called
    once block j is counted and once it is split. The first backwards
    record is reported before any range or table error."""
    t = records["t"]
    ch = records["ch"]
    blocks = range(0, t.size, _BLOCK)
    n = len(blocks)
    parts = min(workers, n)
    # Each run's room for one block: its times and channel ids, copied
    # aligned out of the mapping, and a flag per record. The count pass
    # below uses the first run's. They are taken before the streams, so
    # that once freed they leave no hole above them in the heap.
    runs = [(range(n * i // parts, n * (i + 1) // parts),
             np.empty(min(_BLOCK, t.size), np.uint64),
             np.empty(min(_BLOCK, t.size), np.uint8),
             np.empty(min(_BLOCK, t.size), bool)) for i in range(parts)]

    def mask(c: int, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Where a block's channel ``ids`` are c, in ``out``."""
        return np.equal(ids, c, out=out[:ids.size])

    # Each block's count of records per channel id, from the ids alone, so
    # that each stream's array is exactly its size: arrays sized for a
    # whole run and shrunk after do not fit the heap a process has freed
    # (pulsed_sync's read peaked at 137.4 MB with them, against 116.7 MB,
    # over repeated jobs in one process). The counts are taken for the
    # channels seen so far; a block that holds others is counted whole to
    # find them.
    per_block = {}
    for j, lo in enumerate(blocks):
        _, _, room, flags = runs[0]
        ids = room[:min(_BLOCK, t.size - lo)]
        ids[:] = ch[lo:lo + ids.size]
        known = 0
        for c, counts in per_block.items():
            counts[j] = np.count_nonzero(mask(c, ids, flags))
            known += counts[j]
        if known < ids.size:
            for c in np.flatnonzero(np.bincount(ids, minlength=256)).tolist():
                if c not in per_block:
                    per_block[c] = np.zeros(n, np.int64)
                    per_block[c][j] = np.count_nonzero(mask(c, ids, flags))
        counted(j)
    record_channels = sorted(per_block)
    # Block j's records of a channel land after that channel's records in
    # the blocks before it.
    channels = [(c, np.empty(per_block[c].sum(), np.int64),
                 np.cumsum(per_block[c]) - per_block[c], per_block[c])
                for c in record_channels]

    def gather(run: tuple) -> int | None:
        """Check and split a run of blocks; the index of its first record
        that goes backwards, or None."""
        blocks_of_run, times, ids, back = run
        first = blocks[blocks_of_run.start]
        # The record before the run, so the pair across the cut is
        # compared too.
        last = t[first - 1] if first else 0
        for j in blocks_of_run:
            lo = blocks[j]
            # One aligned copy of the block's columns out of the mapping,
            # which both the order check and the split read.
            block, block_ids = times[:t.size - lo], ids[:t.size - lo]
            block[:] = t[lo:lo + block.size]
            block_ids[:] = ch[lo:lo + block.size]
            backwards = back[:block.size]
            backwards[0] = block[0] < last
            np.less(block[1:], block[:-1], out=backwards[1:])
            if backwards.any():
                return lo + int(np.argmax(backwards))
            last = block[-1]
            events = block.view(np.int64)
            if resolution != 1:
                events *= resolution
            for c, stream, starts, counts in channels:
                if counts[j]:
                    np.compress(mask(c, block_ids, back), events,
                                out=stream[starts[j]:starts[j] + counts[j]])
            split(j)
        return None

    backwards = [bad for bad in _map_workers(gather, runs, workers)
                 if bad is not None]
    if backwards:
        raise UnsortedRecordsError(
            f"record {min(backwards)} goes backwards in time")
    if t.size and int(t[-1]) * resolution > _INT64_MAX:
        raise TimestampOverflowError(
            "timestamps overflow the signed 64-bit ps range")
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
    # ``last_event``, so every per-channel slice is a valid stream.
    out = {c: TimestampStream(c, events, duration)
           for c, events, _, _ in channels}
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
