"""Tests for the binary timestamp format, CSV export, and JSON reports."""

import hashlib
import json
import re
import struct
import sys
import threading
import time
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonkit
from photonkit.core import (
    CoincidenceHistogram,
    DecayHistogram,
    Measurement,
    PeriodicStream,
    TimestampStream,
    Verdict,
)
from photonkit import fileio
from photonkit.correlator import sync_decay_histogram
from photonkit.fileio import (
    FORMAT_VERSION,
    MAGIC,
    PERIODIC_TAG,
    RECORD_DTYPE,
    BadMagicError,
    BadPeriodError,
    BadPulseCountError,
    BadTableTagError,
    DuplicateChannelError,
    ReportDocument,
    TimestampFileError,
    TimestampOverflowError,
    TruncatedFileError,
    UnsortedRecordsError,
    UnsupportedVersionError,
    export_histogram_csv,
    file_digest,
    histogram_from_csv,
    read_histogram_csv,
    read_timestamps,
    write_timestamps,
)

HEADER = struct.Struct("<4sHBIQ")


def stream(events, channel=0, duration=None):
    events = np.asarray(events, dtype=np.int64)
    if duration is None:
        duration = int(events[-1]) if events.size else 0
    return TimestampStream(channel, events, duration)


def file_bytes(*, magic=MAGIC, version=FORMAT_VERSION, n_channels=1,
               resolution=1, records=(), n_records=None):
    """Hand-assemble a timestamp file's bytes, bypassing the writer's
    checks; ``n_records`` overrides the header's record count."""
    recs = np.zeros(len(records), dtype=RECORD_DTYPE)
    for i, (t, ch) in enumerate(records):
        recs["t"][i] = t
        recs["ch"][i] = ch
    n = len(records) if n_records is None else n_records
    return HEADER.pack(magic, version, n_channels, resolution, n) \
        + recs.tobytes()


def write_raw(path, **kwargs):
    """Hand-assemble a timestamp file, bypassing the writer's checks."""
    path.write_bytes(file_bytes(**kwargs))


class TestTimestampRoundTrip:
    def test_two_channels_round_trip(self, tmp_path):
        path = tmp_path / "pair.ptst"
        a = stream([100, 2500, 2500, 9000], channel=0, duration=10_000)
        b = stream([40, 2500, 7700], channel=1, duration=10_000)
        n = write_timestamps([a, b], path)
        assert n == 7
        back = read_timestamps(path, duration=10_000)
        assert set(back) == {0, 1}
        assert back[0] == a
        assert back[1] == b

    def test_file_layout(self, tmp_path):
        path = tmp_path / "layout.ptst"
        write_timestamps([stream([5, 17], channel=3)], path)
        raw = path.read_bytes()
        assert len(raw) == HEADER.size + 2 * RECORD_DTYPE.itemsize
        magic, version, n_channels, resolution, n_records = \
            HEADER.unpack(raw[:HEADER.size])
        assert magic == MAGIC
        assert version == FORMAT_VERSION
        assert n_channels == 1
        assert resolution == 1
        assert n_records == 2

    def test_records_merged_in_time_order(self, tmp_path):
        path = tmp_path / "merge.ptst"
        write_timestamps(
            [stream([10, 300], channel=0), stream([5, 200], channel=1)], path)
        recs = np.fromfile(path, dtype=RECORD_DTYPE, offset=HEADER.size)
        np.testing.assert_array_equal(recs["t"], [5, 10, 200, 300])
        np.testing.assert_array_equal(recs["ch"], [1, 0, 1, 0])

    def test_channels_0_and_0_0_are_one_channel(self, tmp_path):
        """A float channel is read as its whole number, so the writer sees
        the duplicate instead of merging two streams into channel 0."""
        path = tmp_path / "dup.ptst"
        with pytest.raises(ValueError,
                           match="channel 0 is given by two streams"):
            write_timestamps([stream([1, 5, 9], channel=0),
                              TimestampStream(0.0, [2, 6], 20)], path)
        assert not path.exists()

    def test_duration_not_stored_defaults_to_last_event(self, tmp_path):
        path = tmp_path / "span.ptst"
        write_timestamps([stream([100, 900], duration=50_000)], path)
        back = read_timestamps(path)
        assert back[0].duration == 900

    def test_duration_override(self, tmp_path):
        path = tmp_path / "span.ptst"
        write_timestamps([stream([100, 900])], path)
        back = read_timestamps(path, duration=50_000)
        assert back[0].duration == 50_000

    def test_duration_before_last_event_rejected(self, tmp_path):
        path = tmp_path / "span.ptst"
        write_timestamps([stream([100, 900])], path)
        with pytest.raises(ValueError, match="before the last event"):
            read_timestamps(path, duration=800)

    def test_empty_write_is_header_only(self, tmp_path):
        path = tmp_path / "empty.ptst"
        assert write_timestamps([], path) == 0
        assert path.stat().st_size == HEADER.size
        assert read_timestamps(path) == {}

    def test_zero_event_channel_does_not_reappear(self, tmp_path):
        path = tmp_path / "sparse.ptst"
        write_timestamps(
            [stream([7], channel=0), stream([], channel=1)], path)
        back = read_timestamps(path)
        assert set(back) == {0}

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = stream(np.arange(0, 5000, 7), channel=0)
        b = stream(np.arange(3, 5000, 11), channel=1)
        p1, p2 = tmp_path / "one.ptst", tmp_path / "two.ptst"
        write_timestamps([a, b], p1)
        write_timestamps([b, a], p2)
        assert file_digest(p1) == file_digest(p2)

    def test_simultaneous_events_tie_break_on_channel(self, tmp_path):
        path = tmp_path / "tie.ptst"
        write_timestamps(
            [stream([500], channel=2), stream([500], channel=1)], path)
        recs = np.fromfile(path, dtype=RECORD_DTYPE, offset=HEADER.size)
        np.testing.assert_array_equal(recs["ch"], [1, 2])

    def test_resolution_quantizes_timestamps(self, tmp_path):
        path = tmp_path / "coarse.ptst"
        write_timestamps([stream([1234, 5678, 5999])], path, resolution=1000)
        back = read_timestamps(path)
        np.testing.assert_array_equal(back[0].events, [1000, 5000, 5000])

    def test_resolution_one_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.sort(rng.integers(0, 10**12, size=500))
        path = tmp_path / "fine.ptst"
        write_timestamps([stream(t)], path, resolution=1)
        np.testing.assert_array_equal(read_timestamps(path)[0].events, t)

    @pytest.mark.parametrize("resolution", [0, 1.5, "2"])
    def test_bad_resolution_rejected(self, tmp_path, resolution):
        with pytest.raises(ValueError, match="^resolution must be"):
            write_timestamps([stream([1, 3000])], tmp_path / "x.ptst",
                             resolution=resolution)
        assert not (tmp_path / "x.ptst").exists()

    def test_integral_float_resolution_writes_like_int(self, tmp_path):
        streams = [stream([1234, 5678, 5999])]
        write_timestamps(streams, tmp_path / "int.ptst", resolution=1000)
        write_timestamps(streams, tmp_path / "float.ptst", resolution=1000.0)
        assert ((tmp_path / "float.ptst").read_bytes()
                == (tmp_path / "int.ptst").read_bytes())

    def test_too_many_channels_rejected(self, tmp_path):
        streams = [stream([i], channel=0) for i in range(256)]
        with pytest.raises(ValueError, match="at most 255"):
            write_timestamps(streams, tmp_path / "x.ptst")

    def test_channel_must_fit_in_one_byte(self, tmp_path):
        with pytest.raises(ValueError, match="one byte"):
            write_timestamps([stream([1], channel=300)],
                             tmp_path / "x.ptst")

    def test_negative_timestamps_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="channel 0 events must lie"):
            TimestampStream(0, np.array([-5, 10]), 10)


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, magic=b"XXXX")
        with pytest.raises(BadMagicError) as err:
            read_timestamps(path)
        assert err.value.code == "bad_magic"

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, version=FORMAT_VERSION + 1)
        with pytest.raises(UnsupportedVersionError) as err:
            read_timestamps(path)
        assert err.value.code == "unsupported_version"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ptst"
        path.write_bytes(b"PTST\x01\x00")
        with pytest.raises(TruncatedFileError) as err:
            read_timestamps(path)
        assert err.value.code == "truncated"

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, records=[(10, 0), (20, 0)])
        raw = path.read_bytes()
        path.write_bytes(raw[:-RECORD_DTYPE.itemsize])
        with pytest.raises(TruncatedFileError, match="promises 2"):
            read_timestamps(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, records=[(10, 0)])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TimestampFileError, match="trailing"):
            read_timestamps(path)

    def test_zero_resolution_field(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, resolution=0)
        with pytest.raises(TimestampFileError, match="resolution"):
            read_timestamps(path)

    def test_unsorted_records(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, records=[(100, 0), (50, 0)])
        with pytest.raises(UnsortedRecordsError) as err:
            read_timestamps(path)
        assert err.value.code == "unsorted_records"

    def test_timestamp_overflow(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, records=[(2**63, 0)])
        with pytest.raises(TimestampFileError, match="overflow"):
            read_timestamps(path)

    def test_scaled_timestamp_overflow(self, tmp_path):
        path = tmp_path / "bad.ptst"
        write_raw(path, resolution=2**32 - 1, records=[(2**32, 0)])
        with pytest.raises(TimestampFileError, match="overflow"):
            read_timestamps(path)

    def test_record_count_past_the_file_size(self, tmp_path):
        # A header promising 2**40 records must not size an allocation.
        path = tmp_path / "bad.ptst"
        write_raw(path, records=[(10, 0), (20, 0)], n_records=2**40)
        assert path.stat().st_size == 51
        with pytest.raises(TruncatedFileError, match="file holds 2") as err:
            read_timestamps(path)
        assert err.value.code == "truncated"

    def test_errors_share_a_base_class(self):
        for cls in (BadMagicError, UnsupportedVersionError,
                    TruncatedFileError, UnsortedRecordsError):
            assert issubclass(cls, TimestampFileError)


def periodic_table(entries, tag=PERIODIC_TAG, n_entries=None):
    """Bytes of a periodic table holding ``entries`` of (channel, offset,
    period, count), with the tag and entry count overridable."""
    n = len(entries) if n_entries is None else n_entries
    return (struct.pack("<4sB", tag, n)
            + b"".join(struct.pack("<BQQQ", *e) for e in entries))


SYNC = PeriodicStream(255, 300, 1000, 50, 60_000)


class TestPeriodicTable:
    def test_round_trip_keeps_the_grid(self, tmp_path):
        path = tmp_path / "sync.ptst"
        photons = stream([100, 2500, 9000], channel=0, duration=60_000)
        assert write_timestamps([photons, SYNC], path) == 3
        assert path.stat().st_size == (HEADER.size + 3 * RECORD_DTYPE.itemsize
                                       + 5 + 25)
        back = read_timestamps(path, duration=60_000)
        assert back[0] == photons
        assert back[255] == SYNC
        assert "events" not in vars(back[255])

    def test_table_follows_records(self, tmp_path):
        path = tmp_path / "sync.ptst"
        write_timestamps([SYNC, stream([7], channel=1)], path)
        raw = path.read_bytes()
        _, version, n_channels, _, n_records = HEADER.unpack(raw[:HEADER.size])
        assert (version, n_channels, n_records) == (2, 2, 1)
        table = raw[HEADER.size + RECORD_DTYPE.itemsize:]
        assert table == periodic_table([(255, 300, 1000, 50)])

    def test_default_duration_counts_the_last_pulse(self, tmp_path):
        path = tmp_path / "sync.ptst"
        write_timestamps([stream([100, 900]), SYNC], path)
        back = read_timestamps(path)
        assert back[0].duration == back[255].duration == SYNC.last == 49_300

    def test_duration_before_last_pulse_rejected(self, tmp_path):
        path = tmp_path / "sync.ptst"
        write_timestamps([stream([100, 900]), SYNC], path)
        with pytest.raises(ValueError, match="before the last event"):
            read_timestamps(path, duration=49_299)

    def test_rewrite_is_byte_identical(self, tmp_path):
        other = PeriodicStream(7, 0, 333, 4, 60_000)
        p1, p2 = tmp_path / "one.ptst", tmp_path / "two.ptst"
        write_timestamps([SYNC, stream([5], channel=1), other], p1)
        write_timestamps([other, stream([5], channel=1), SYNC], p2)
        assert file_digest(p1) == file_digest(p2)

    def test_whole_tick_grid_stays_a_table_entry(self, tmp_path):
        path = tmp_path / "coarse.ptst"
        sync = PeriodicStream(255, 2000, 100_000, 10, 10**6)
        assert write_timestamps([sync], path, resolution=1000) == 0
        assert read_timestamps(path, duration=10**6)[255] == sync

    def test_fractional_tick_grid_written_as_records(self, tmp_path):
        # Offset 1500 ps is not a whole 1000 ps tick: the pulses go out as
        # records and are quantized exactly like the explicit stream.
        sync = PeriodicStream(255, 1500, 100_000, 10, 10**6)
        periodic, explicit = tmp_path / "p.ptst", tmp_path / "e.ptst"
        assert write_timestamps([sync], periodic, resolution=1000) == 10
        write_timestamps([TimestampStream(255, sync.events, sync.duration)],
                         explicit, resolution=1000)
        assert file_digest(periodic) == file_digest(explicit)
        back = read_timestamps(periodic)[255]
        assert isinstance(back, TimestampStream)
        np.testing.assert_array_equal(back.events,
                                      sync.events // 1000 * 1000)

    def test_duplicate_channel_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two streams"):
            write_timestamps([TimestampStream(0, [1, 5], 10),
                              TimestampStream(0, [3], 10)],
                             tmp_path / "x.ptst")
        with pytest.raises(ValueError, match="two streams"):
            write_timestamps([stream([1], channel=255), SYNC],
                             tmp_path / "x.ptst")

    def test_v1_file_with_sync_records_still_reads(self, tmp_path):
        rng = np.random.default_rng(5)
        photons = np.sort(rng.integers(0, SYNC.duration + 1, 80))
        recs = sorted([(int(t), 0) for t in photons]
                      + [(int(t), 255) for t in SYNC.events])
        v1, v2 = tmp_path / "v1.ptst", tmp_path / "v2.ptst"
        write_raw(v1, version=1, n_channels=2, records=recs)
        write_timestamps([stream(photons, duration=SYNC.duration), SYNC], v2)
        old = read_timestamps(v1, duration=SYNC.duration)
        new = read_timestamps(v2, duration=SYNC.duration)
        assert isinstance(old[255], TimestampStream)
        np.testing.assert_array_equal(old[255].events, SYNC.events)
        assert old[0] == new[0]
        assert (sync_decay_histogram(old[0], sync=old[255], bin_width=50)
                == sync_decay_histogram(new[0], sync=new[255], bin_width=50))


class TestPeriodicTableErrors:
    def read_with_table(self, tmp_path, table, version=FORMAT_VERSION,
                        resolution=1):
        path = tmp_path / "bad.ptst"
        write_raw(path, version=version, resolution=resolution,
                  records=[(10, 0)])
        path.write_bytes(path.read_bytes() + table)
        return read_timestamps(path)

    def test_bad_table_tag(self, tmp_path):
        with pytest.raises(BadTableTagError) as err:
            self.read_with_table(
                tmp_path, periodic_table([(255, 0, 100, 3)], tag=b"XSYN"))
        assert err.value.code == "bad_table_tag"

    def test_entry_count_past_end_of_file(self, tmp_path):
        with pytest.raises(TruncatedFileError, match="promises 3") as err:
            self.read_with_table(
                tmp_path, periodic_table([(255, 0, 100, 3)], n_entries=3))
        assert err.value.code == "truncated"

    def test_table_cut_inside_its_tag(self, tmp_path):
        with pytest.raises(TruncatedFileError):
            self.read_with_table(tmp_path, PERIODIC_TAG)

    def test_zero_period(self, tmp_path):
        with pytest.raises(BadPeriodError) as err:
            self.read_with_table(tmp_path, periodic_table([(255, 0, 0, 3)]))
        assert err.value.code == "bad_period"

    def test_zero_count(self, tmp_path):
        with pytest.raises(BadPulseCountError) as err:
            self.read_with_table(tmp_path, periodic_table([(255, 0, 100, 0)]))
        assert err.value.code == "bad_pulse_count"

    def test_last_pulse_overflows_after_scaling(self, tmp_path):
        # The last pulse at 2**41 ticks fits in 64 bits; at 2**22 ps per
        # tick it lands on 2**63 ps, one past the signed range. One pulse
        # fewer still reads.
        fits = periodic_table([(255, 0, 2**30, 2**11)])
        back = self.read_with_table(tmp_path, fits, resolution=2**22)
        assert back[255].last == 2**63 - 2**52
        table = periodic_table([(255, 0, 2**30, 2**11 + 1)])
        with pytest.raises(TimestampOverflowError, match="last pulse") as err:
            self.read_with_table(tmp_path, table, resolution=2**22)
        assert err.value.code == "timestamp_overflow"

    def test_channel_in_records_and_table(self, tmp_path):
        with pytest.raises(DuplicateChannelError, match="records") as err:
            self.read_with_table(tmp_path, periodic_table([(0, 0, 100, 3)]))
        assert err.value.code == "duplicate_channel"

    def test_channel_repeated_within_table(self, tmp_path):
        table = periodic_table([(255, 0, 100, 3), (255, 50, 100, 3)])
        with pytest.raises(DuplicateChannelError, match="periodic table") \
                as err:
            self.read_with_table(tmp_path, table)
        assert err.value.code == "duplicate_channel"

    def test_trailing_data_after_table(self, tmp_path):
        table = periodic_table([(255, 0, 100, 3)]) + b"\x00"
        with pytest.raises(TimestampFileError, match="trailing"):
            self.read_with_table(tmp_path, table)

    def test_v1_file_must_not_carry_a_table(self, tmp_path):
        with pytest.raises(TimestampFileError, match="trailing") as err:
            self.read_with_table(tmp_path, periodic_table([(255, 0, 100, 3)]),
                                 version=1)
        assert not isinstance(err.value, BadTableTagError)

    def test_codes_are_distinct(self):
        classes = (TimestampFileError, BadMagicError, UnsupportedVersionError,
                   TruncatedFileError, UnsortedRecordsError,
                   TimestampOverflowError, BadTableTagError, BadPeriodError,
                   BadPulseCountError, DuplicateChannelError)
        assert all(issubclass(c, TimestampFileError) for c in classes)
        assert len({c.code for c in classes}) == len(classes)


def reference_write(streams, resolution=1) -> bytes:
    """The file's bytes as a lexsort over structured records builds them."""
    parts_t, parts_ch, table = [], [], []
    for s in streams:
        if (isinstance(s, PeriodicStream) and s.offset % resolution == 0
                and s.period % resolution == 0):
            table.append((s.channel, s.offset // resolution,
                          s.period // resolution, s.count))
            continue
        parts_t.append(s.events.astype(np.uint64) // resolution)
        parts_ch.append(np.full(s.events.size, s.channel, dtype=np.uint8))
    t = np.concatenate(parts_t) if parts_t else np.empty(0, np.uint64)
    ch = np.concatenate(parts_ch) if parts_ch else np.empty(0, np.uint8)
    order = np.lexsort((ch, t))
    records = np.zeros(t.size, dtype=RECORD_DTYPE)
    records["t"] = t[order]
    records["ch"] = ch[order]
    raw = (HEADER.pack(MAGIC, FORMAT_VERSION, len(streams), resolution,
                       t.size) + records.tobytes())
    return raw + (periodic_table(sorted(table)) if table else b"")


def reference_read(raw: bytes) -> dict:
    """Streams decoded from a well-formed file's bytes, one channel mask at
    a time."""
    _, _, _, resolution, n = HEADER.unpack_from(raw)
    end = HEADER.size + n * RECORD_DTYPE.itemsize
    records = np.frombuffer(raw[HEADER.size:end], dtype=RECORD_DTYPE)
    times = records["t"].astype(np.int64) * resolution
    tail = raw[end:]
    table = [struct.unpack_from("<BQQQ", tail, 5 + 25 * i)
             for i in range(tail[4])] if tail else []
    duration = max([int(times[-1]) if n else 0]
                   + [(o + (k - 1) * p) * resolution for _, o, p, k in table])
    out = {int(c): TimestampStream(int(c), times[records["ch"] == c],
                                   duration)
           for c in np.unique(records["ch"])}
    for c, o, p, k in table:
        out[c] = PeriodicStream(c, o * resolution, p * resolution, k,
                                duration)
    return out


@st.composite
def stream_sets(draw):
    """Up to five streams in any channel order, with ties across channels
    (events on a 250 ps grid, quantized further at 1000 ps per tick),
    empty streams, and periodic streams on and off the tick grid."""
    streams = []
    for c in draw(st.lists(st.integers(0, 255), unique=True, max_size=5)):
        if draw(st.booleans()):
            offset = draw(st.integers(0, 4)) * 500
            period = draw(st.integers(1, 6)) * 500
            count = draw(st.integers(1, 20))
            streams.append(PeriodicStream(c, offset, period, count,
                                          offset + (count - 1) * period))
        else:
            events = np.sort(draw(st.lists(st.integers(0, 40),
                                           max_size=30))).astype(np.int64)
            streams.append(stream(events * 250, channel=c))
    return streams


def corrupt_files():
    """(bytes, error class) for every structural defect the reader
    rejects, with the defect as the id."""
    one = file_bytes(records=[(10, 0)])
    v1 = file_bytes(records=[(10, 0)], version=1)
    cases = [
        ("bad_magic", file_bytes(magic=b"XXXX"), BadMagicError),
        ("version", file_bytes(version=FORMAT_VERSION + 1),
         UnsupportedVersionError),
        ("short_header", b"PTST\x01\x00", TruncatedFileError),
        ("short_body", file_bytes(records=[(10, 0), (20, 0)])[:-16],
         TruncatedFileError),
        ("huge_count", file_bytes(records=[(10, 0), (20, 0)], n_records=2**40),
         TruncatedFileError),
        ("trailing", one + b"\x00", BadTableTagError),
        ("zero_resolution", file_bytes(resolution=0), TimestampFileError),
        ("unsorted", file_bytes(records=[(100, 0), (50, 0)]),
         UnsortedRecordsError),
        ("overflow", file_bytes(records=[(5, 0), (2**63, 0)]),
         TimestampOverflowError),
        ("scaled_overflow",
         file_bytes(resolution=2**32 - 1, records=[(2**32, 0)]),
         TimestampOverflowError),
        ("table_tag", one + periodic_table([(255, 0, 100, 3)], tag=b"XSYN"),
         BadTableTagError),
        ("table_count", one + periodic_table([(255, 0, 100, 3)], n_entries=3),
         TruncatedFileError),
        ("table_cut", one + PERIODIC_TAG, TruncatedFileError),
        ("zero_period", one + periodic_table([(255, 0, 0, 3)]),
         BadPeriodError),
        ("zero_count", one + periodic_table([(255, 0, 100, 0)]),
         BadPulseCountError),
        ("pulse_overflow", file_bytes(records=[(10, 0)], resolution=2**22)
         + periodic_table([(255, 0, 2**30, 2**11 + 1)]),
         TimestampOverflowError),
        ("record_and_table", one + periodic_table([(0, 0, 100, 3)]),
         DuplicateChannelError),
        ("table_twice", one + periodic_table([(255, 0, 100, 3),
                                              (255, 50, 100, 3)]),
         DuplicateChannelError),
        ("table_trailing", one + periodic_table([(255, 0, 100, 3)]) + b"\x00",
         TimestampFileError),
        ("v1_table", v1 + periodic_table([(255, 0, 100, 3)]),
         TimestampFileError),
    ]
    return [pytest.param(raw, cls, id=name) for name, raw, cls in cases]


class TestWriteReadWorkers:
    """The writer and the reader against references that sort with lexsort
    and decode channel by channel: identical bytes, streams and digests at
    every worker count, and identical errors."""

    @given(stream_sets(), st.sampled_from([1, 1000]))
    @settings(max_examples=150, deadline=None)
    def test_bytes_and_streams_match_the_references(self, tmp_path_factory,
                                                    streams, resolution):
        path = tmp_path_factory.mktemp("workers") / "x.ptst"
        want = reference_write(streams, resolution)
        expected = reference_read(want)
        for workers in (1, 2, 3):
            hasher = hashlib.sha256()
            n = write_timestamps(streams, path, resolution, workers=workers,
                                 hasher=hasher)
            raw = path.read_bytes()
            assert raw == want
            assert n == HEADER.unpack_from(raw)[4]
            assert hasher.hexdigest() == hashlib.sha256(raw).hexdigest()
            hasher = hashlib.sha256()
            assert read_timestamps(path, workers=workers,
                                   hasher=hasher) == expected
            assert hasher.hexdigest() == hashlib.sha256(raw).hexdigest()

    def test_large_tied_streams(self, tmp_path):
        rng = np.random.default_rng(17)
        streams = [stream(np.sort(rng.integers(0, 10**6, 50_000)), channel=c)
                   for c in (7, 0, 1)]
        streams.append(PeriodicStream(255, 0, 1000, 1000, 10**6))
        path = tmp_path / "big.ptst"
        for resolution in (1, 1000):
            want = reference_write(streams, resolution)
            for workers in (1, 2, 3):
                write_timestamps(streams, path, resolution, workers=workers)
                assert path.read_bytes() == want
                assert (read_timestamps(path, workers=workers)
                        == reference_read(want))

    def test_integral_float_workers_read_like_int(self, tmp_path):
        rng = np.random.default_rng(23)
        streams = [stream(np.sort(rng.integers(0, 10**9, 150_000)), channel=c)
                   for c in (0, 1)]
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path, workers=2.0)
        assert read_timestamps(path, workers=2.0) == read_timestamps(path)
        with pytest.raises(ValueError, match="^workers must be a whole"):
            read_timestamps(path, workers=1.5)

    @pytest.mark.parametrize("raw, cls", corrupt_files())
    def test_errors_keep_type_and_code(self, tmp_path, raw, cls):
        path = tmp_path / "bad.ptst"
        path.write_bytes(raw)
        for kwargs in ({}, {"workers": 2, "hasher": hashlib.sha256()}):
            with pytest.raises(cls) as err:
                read_timestamps(path, **kwargs)
            assert type(err.value) is cls
            assert err.value.code == cls.code


class TestWriteChunks:
    """The writer sorts its records a chunk at a time, cutting at every
    ``_BLOCK``-th event of each stream on a tick; at any block size the
    bytes must be those of the whole-file lexsort."""

    BLOCKS = (1, 7, 64)

    @pytest.mark.parametrize("block", BLOCKS)
    @given(streams=stream_sets(), resolution=st.sampled_from([1, 1000]))
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_the_reference(self, tmp_path_factory, block,
                                       streams, resolution):
        path = tmp_path_factory.mktemp("chunks") / "x.ptst"
        with mock.patch.object(fileio, "_BLOCK", block):
            write_timestamps(streams, path, resolution)
        assert path.read_bytes() == reference_write(streams, resolution)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_one_tick_across_a_cut(self, tmp_path, block):
        """Channel 0's cut event falls in tick 7 after two channel-1
        events of that tick (in ps), so a cut taken in ps would write
        those two first; in ticks, channel 0 leads its tick."""
        ch0 = stream(np.r_[np.arange(block) * 7000 // block, 7500, 7600],
                     channel=0)
        ch1 = stream([7100, 7200, 7900], channel=1)
        path = tmp_path / "x.ptst"
        with mock.patch.object(fileio, "_BLOCK", block):
            write_timestamps([ch1, ch0], path, resolution=1000)
        raw = path.read_bytes()
        assert raw == reference_write([ch1, ch0], 1000)
        records = np.frombuffer(raw[HEADER.size:], dtype=RECORD_DTYPE)
        tick7 = records["ch"][records["t"] == 7]
        np.testing.assert_array_equal(tick7, [0, 0, 1, 1, 1])

    def test_large_streams_at_small_blocks(self, tmp_path):
        rng = np.random.default_rng(29)
        streams = [stream(np.sort(rng.integers(0, 10**6, 5_000)), channel=c)
                   for c in (3, 0, 1)]
        path = tmp_path / "x.ptst"
        for resolution in (1, 1000):
            want = reference_write(streams, resolution)
            for block in self.BLOCKS:
                with mock.patch.object(fileio, "_BLOCK", block):
                    write_timestamps(streams, path, resolution, workers=2,
                                     hasher=hashlib.sha256())
                assert path.read_bytes() == want


class TestWriteBatches:
    """The writer sorts batches of chunks into its buffers in turn and,
    threaded, hashes and writes one while it fills the other. At any
    batch size, odd ones too, the bytes and the digest must be those of
    the whole-file lexsort, at every worker count."""

    @staticmethod
    def write_all_ways(streams, path, resolution):
        """The file's bytes and digest at each batch size, small block and
        worker count."""
        out = []
        for batch in (2, 3):
            for block in (1, 7):
                with mock.patch.object(fileio, "_BATCH", batch), \
                        mock.patch.object(fileio, "_BLOCK", block):
                    for workers in (1, 2, 3):
                        hasher = hashlib.sha256()
                        write_timestamps(streams, path, resolution,
                                         workers=workers, hasher=hasher)
                        out.append(((batch, block, workers),
                                    path.read_bytes(), hasher.hexdigest()))
        return out

    @given(streams=stream_sets(), resolution=st.sampled_from([1, 1000]))
    @settings(max_examples=40, deadline=None)
    def test_bytes_and_digest_match_the_reference(self, tmp_path_factory,
                                                  streams, resolution):
        path = tmp_path_factory.mktemp("batches") / "x.ptst"
        want = reference_write(streams, resolution)
        digest = hashlib.sha256(want).hexdigest()
        for how, raw, got in self.write_all_ways(streams, path, resolution):
            assert raw == want, how
            assert got == digest, how

    def test_chunk_larger_than_half_a_batch(self, tmp_path):
        """Five tied streams make chunks of up to five blocks, more than
        the one block of half a batch."""
        rng = np.random.default_rng(31)
        streams = [stream(np.sort(rng.integers(0, 300, 60)), channel=c)
                   for c in (4, 0, 3, 1, 2)]
        path = tmp_path / "x.ptst"
        want = reference_write(streams)
        for how, raw, got in self.write_all_ways(streams, path, 1):
            assert raw == want, how
            assert got == hashlib.sha256(want).hexdigest(), how

    def test_one_batch_file(self, tmp_path):
        streams = [stream([3, 9], channel=0), stream([5], channel=1),
                   PeriodicStream(255, 0, 4, 3, 9)]
        path = tmp_path / "x.ptst"
        want = reference_write(streams)
        for workers in (1, 2, 3):
            hasher = hashlib.sha256()
            write_timestamps(streams, path, workers=workers, hasher=hasher)
            assert path.read_bytes() == want
            assert hasher.hexdigest() == hashlib.sha256(want).hexdigest()


class TestReadBlocks:
    """The reader checks and gathers the records block by block; at any
    block size and worker count the streams, the digest and the first
    backwards record it names must be those of the whole-file reading."""

    BLOCKS = (1, 7, 64)

    def read_all_ways(self, path):
        """``read_timestamps``'s streams and digest at every block size
        and worker count, after those at the default block size. Each
        stream's events own exactly their data."""
        out = []
        for block in (fileio._BLOCK, *self.BLOCKS):
            with mock.patch.object(fileio, "_BLOCK", block):
                for workers in (1, 2, 3):
                    hasher = hashlib.sha256()
                    streams = read_timestamps(path, workers=workers,
                                              hasher=hasher)
                    for s in streams.values():
                        if isinstance(s, TimestampStream):
                            assert s.events.base is None
                            assert s.events.nbytes == 8 * len(s)
                    out.append((block, workers, streams,
                                hasher.hexdigest()))
        return out

    @given(stream_sets(), st.sampled_from([1, 1000]))
    @settings(max_examples=100, deadline=None)
    def test_streams_and_digest_at_any_block_size(self, tmp_path_factory,
                                                  streams, resolution):
        path = tmp_path_factory.mktemp("blocks") / "x.ptst"
        raw = reference_write(streams, resolution)
        path.write_bytes(raw)
        expected = reference_read(raw)
        digest = hashlib.sha256(raw).hexdigest()
        for block, workers, got, got_digest in self.read_all_ways(path):
            assert got == expected, (block, workers)
            assert got_digest == digest, (block, workers)

    def test_many_blocks_of_tied_channels(self, tmp_path):
        rng = np.random.default_rng(29)
        streams = [stream(np.sort(rng.integers(0, 5000, 700)), channel=c)
                   for c in (3, 0, 1)]
        streams.append(PeriodicStream(255, 0, 100, 40, 5000))
        path = tmp_path / "blocks.ptst"
        for resolution in (1, 10):
            raw = reference_write(streams, resolution)
            path.write_bytes(raw)
            expected = reference_read(raw)
            for block, workers, got, _ in self.read_all_ways(path):
                assert got == expected, (block, workers, resolution)

    @pytest.mark.parametrize("resolution", [1, 1000])
    def test_channels_seen_in_few_blocks(self, tmp_path, resolution):
        """Channels 0 and 1 alternate over 200 records with ties. Channel
        7 holds records 100-102 only, one middle block at block sizes 7
        and 64; channel 255 holds the last record only, so it is first
        seen in the last block at every block size."""
        ch = np.arange(200) % 2
        ch[100:103] = 7
        ch[-1] = 255
        t = np.arange(200) // 2 * 3
        path = tmp_path / "few.ptst"
        write_raw(path, resolution=resolution, records=list(zip(t, ch)))
        expected = reference_read(path.read_bytes())
        assert sorted(expected) == [0, 1, 7, 255]
        for block, workers, got, _ in self.read_all_ways(path):
            assert got == expected, (block, workers)

    # 63 and 64 are first records of a block at block sizes 7 and 64 (and
    # mid-block at the other); 100 is mid-block at 7 and 64.
    @pytest.mark.parametrize("backwards", [[1], [63], [64], [100],
                                           [100, 150], [199]])
    def test_first_backwards_record_is_named(self, tmp_path, backwards):
        t = np.arange(1, 201) * 10
        for i in backwards:
            t[i] = t[i - 1] - 1
        path = tmp_path / "unsorted.ptst"
        write_raw(path, records=[(int(x), i % 2) for i, x in enumerate(t)])
        message = f"record {backwards[0]} goes backwards in time"
        for block in (fileio._BLOCK, *self.BLOCKS):
            with mock.patch.object(fileio, "_BLOCK", block):
                for workers in (1, 2, 3):
                    with pytest.raises(UnsortedRecordsError) as err:
                        read_timestamps(path, workers=workers,
                                        hasher=hashlib.sha256())
                    assert str(err.value) == message, (block, workers)


class TestReadDigestTask:
    """Given a hasher and workers >= 2, the reader hashes the mapping as
    one task beside the whole reading of the records. The streams and the
    digest must not depend on it, and a bad record must fail as it does
    serially, with the hashing thread ended before the error is seen."""

    def test_streams_and_digest(self, tmp_path):
        rng = np.random.default_rng(43)
        streams = [stream(np.sort(rng.integers(0, 10**6, 4000)), channel=c)
                   for c in (0, 1)]
        streams.append(PeriodicStream(255, 0, 1000, 1000, 10**6))
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path)
        raw = path.read_bytes()
        for block in (fileio._BLOCK, 7):
            with mock.patch.object(fileio, "_BLOCK", block):
                for workers in (1, 2, 3):
                    hasher = hashlib.sha256()
                    got = read_timestamps(path, workers=workers,
                                          hasher=hasher)
                    assert got == reference_read(raw), (block, workers)
                    assert (hasher.hexdigest()
                            == hashlib.sha256(raw).hexdigest())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_backwards_record_mid_file(self, tmp_path, workers):
        t = np.arange(1, 3001) * 10
        t[1700] = t[1699] - 1
        path = tmp_path / "unsorted.ptst"
        write_raw(path, records=[(int(x), i % 2) for i, x in enumerate(t)])
        threads = threading.active_count()
        for block in (fileio._BLOCK, 64):
            with mock.patch.object(fileio, "_BLOCK", block):
                with pytest.raises(UnsortedRecordsError) as err:
                    read_timestamps(path, workers=workers,
                                    hasher=hashlib.sha256())
            assert type(err.value) is UnsortedRecordsError
            assert err.value.code == "unsorted_records"
            assert str(err.value) == "record 1700 goes backwards in time"
            assert threading.active_count() == threads


class CountingHasher:
    """A SHA-256 that counts the bytes it has been fed."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.fed = 0

    def update(self, data):
        self.sha.update(data)
        self.fed += memoryview(data).nbytes

    def hexdigest(self):
        return self.sha.hexdigest()


class TestReadRelease:
    """The reader releases each block of records from the mapping
    (``fileio._release``) once its channel ids are counted and again once
    it is split and hashed, so the whole mapping is never resident. Every
    block must be released twice, the second time after the hasher has
    been fed through its end, and the streams and the digest must not
    change. The hashing thread and the splitting threads count down each
    block's readers under a lock; a lost update would leave a block
    unreleased, so threads are switched as often as the interpreter
    allows."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 64, fileio._BLOCK])
    def test_every_block_released_once_hashed(self, tmp_path, monkeypatch,
                                              block, workers):
        rng = np.random.default_rng(44)
        streams = [stream(np.sort(rng.integers(0, 10**6, 500)), channel=c)
                   for c in (0, 1)]
        streams.append(PeriodicStream(255, 0, 1000, 1000, 10**6))
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path)
        raw = path.read_bytes()
        hasher = CountingHasher()
        released = []
        release = fileio._release

        def spy(mapped, lo, hi):
            released.append((lo, hi, hasher.fed))
            release(mapped, lo, hi)

        monkeypatch.setattr(fileio, "_release", spy)
        monkeypatch.setattr(fileio, "_BLOCK", block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = read_timestamps(path, workers=workers, hasher=hasher)
        finally:
            sys.setswitchinterval(interval)
        assert got == reference_read(raw)
        assert hasher.hexdigest() == hashlib.sha256(raw).hexdigest()
        size = RECORD_DTYPE.itemsize
        spans = [(HEADER.size + lo * size, HEADER.size + min(lo + block, 1000)
                  * size) for lo in range(0, 1000, block)]
        assert sorted({(lo, hi) for lo, hi, _ in released}) == spans
        for lo, hi in spans:
            fed = [n for a, b, n in released if (a, b) == (lo, hi)]
            assert len(fed) == 2 and fed[1] >= hi, (lo, hi)


class TestMappedRead:
    """The reader maps the file instead of copying it; the streams it
    returns must own their events, so rewriting the file leaves them as
    they were read."""

    def test_empty_file_is_truncated(self, tmp_path):
        path = tmp_path / "empty.ptst"
        path.write_bytes(b"")
        with pytest.raises(TruncatedFileError, match="header") as err:
            read_timestamps(path)
        assert err.value.code == "truncated"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_streams_survive_a_shorter_rewrite(self, tmp_path, workers):
        rng = np.random.default_rng(41)
        path = tmp_path / "x.ptst"
        streams = [stream(np.sort(rng.integers(0, 10**6, 3000)), channel=c)
                   for c in (0, 1)]
        streams.append(PeriodicStream(255, 0, 1000, 1000, 10**6))
        write_timestamps(streams, path)
        first = read_timestamps(path, workers=workers)
        kept = {c: s.events.copy() for c, s in first.items()}
        # Same path, so the same file is truncated and written shorter.
        shorter = [stream([5, 7], channel=0)]
        write_timestamps(shorter, path)
        for c, s in first.items():
            np.testing.assert_array_equal(s.events, kept[c])
        assert read_timestamps(path, workers=workers) == {0: shorter[0]}

    def test_failed_read_then_good_read(self, tmp_path):
        path = tmp_path / "x.ptst"
        write_raw(path, records=[(20, 0), (10, 0)])
        with pytest.raises(UnsortedRecordsError):
            read_timestamps(path, workers=2, hasher=hashlib.sha256())
        write_raw(path, records=[(10, 0), (20, 1)])
        assert read_timestamps(path) == {
            0: stream([10], 0, 20), 1: stream([20], 1, 20)}


class TestHistogramCsv:
    def test_raw_coincidence_export(self, tmp_path):
        hist = CoincidenceHistogram(
            bin_width=500, window=1000,
            counts=[3, 0, 17, 250])
        path = tmp_path / "g2.csv"
        export_histogram_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_center_ns,count"
        assert lines[1] == "-0.750,3"
        assert lines[4] == "0.750,250"
        assert path.read_text().endswith("\n")

    def test_normalized_coincidence_export(self, tmp_path):
        hist = CoincidenceHistogram(
            bin_width=500, window=1000,
            counts=[3, 0, 17, 250], normalization=200.0)
        path = tmp_path / "g2.csv"
        export_histogram_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_center_ns,g2,sigma"
        assert lines[1].split(",")[1] == "0.015"
        back = read_histogram_csv(path)
        np.testing.assert_allclose(back["g2"], hist.normalized, rtol=1e-8)
        np.testing.assert_allclose(
            back["sigma"], hist.normalized_sigma, rtol=1e-8)

    def test_decay_export(self, tmp_path):
        hist = DecayHistogram(bin_width=100, period=400, counts=[9, 5, 2, 1])
        path = tmp_path / "decay.csv"
        export_histogram_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_center_ns,count"
        assert lines[1] == "0.050,9"

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="Measurement"):
            export_histogram_csv(Measurement(1.0, 0.1), tmp_path / "x.csv")

    def test_round_trip_at_format_precision(self, tmp_path):
        hist = CoincidenceHistogram(
            bin_width=250, window=2000, counts=np.arange(16))
        path = tmp_path / "g2.csv"
        export_histogram_csv(hist, path)
        back = read_histogram_csv(path)
        assert back["count"].dtype == np.int64
        np.testing.assert_array_equal(back["count"], hist.counts)
        np.testing.assert_allclose(
            back["bin_center_ns"], hist.tau_centers_ns, atol=5e-4)

    def test_read_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("bin_center_ns,count\n")
        back = read_histogram_csv(path)
        assert set(back) == {"bin_center_ns", "count"}
        assert back["count"].size == 0
        assert back["count"].dtype == np.int64

    def test_read_blank_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no header"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("count", ["2.7", "nan", "inf"])
    def test_read_count_not_whole_rejected(self, tmp_path, count):
        path = tmp_path / "frac.csv"
        path.write_text(f"bin_center_ns,count\n0.25,3\n0.75,{count}\n")
        with pytest.raises(ValueError, match=(
                rf"^column 'count' must hold whole numbers, got {count} "
                r"in row 2$")):
            read_histogram_csv(path)

    def test_read_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("bin_center_ns,count\n0.5,1,99\n")
        with pytest.raises(ValueError):
            read_histogram_csv(path)


@st.composite
def coincidence_grids(draw):
    """A bin width of 1-2001 ps and a window that gives it 4 to 200 bins."""
    bin_width = draw(st.integers(1, 2001))
    return bin_width, draw(st.integers(3 * bin_width // 2 + 1,
                                       100 * bin_width))


class TestHistogramFromCsv:
    """``histogram_from_csv`` rebuilds the histogram that
    ``export_histogram_csv`` wrote, from centres printed to 1 ps."""

    @given(coincidence_grids())
    @settings(max_examples=300, deadline=None)
    def test_coincidence_round_trip(self, tmp_path_factory, grid):
        bin_width, window = grid
        hist = CoincidenceHistogram(bin_width, window, np.arange(
            -(-2 * window // bin_width)) * 7 % 11)
        path = tmp_path_factory.mktemp("csv") / "g2.csv"
        export_histogram_csv(hist, path)
        back = histogram_from_csv(path)
        assert isinstance(back, CoincidenceHistogram)
        assert back.bin_width == bin_width
        assert back.n_bins == hist.n_bins
        np.testing.assert_array_equal(back.counts, hist.counts)
        # Half-ps centres can leave two windows that print alike.
        if bin_width % 2 == 0 or 2 * window % bin_width == 0:
            assert back.window == window
        else:
            assert abs(back.window - window) <= 1

    @pytest.mark.parametrize("bin_width, window", [(5, 11), (9, 19),
                                                   (499, 999)])
    def test_window_from_every_centre(self, tmp_path, bin_width, window):
        """Odd bin widths and partial last bins where the first and last
        centres alone, each printed half a ps off, point 1 ps away."""
        hist = CoincidenceHistogram(bin_width, window, [1, 2, 3, 4, 5])
        export_histogram_csv(hist, tmp_path / "g2.csv")
        assert histogram_from_csv(tmp_path / "g2.csv").window == window

    @given(st.integers(1, 2001), st.integers(4, 400), st.data())
    @settings(max_examples=300, deadline=None)
    def test_decay_round_trip(self, tmp_path_factory, bin_width, n, data):
        period = n * bin_width - data.draw(st.integers(0, bin_width - 1))
        hist = DecayHistogram(bin_width, period, np.arange(n) * 7 % 11)
        path = tmp_path_factory.mktemp("csv") / "decay.csv"
        export_histogram_csv(hist, path)
        for given_period, read_period in ((None, n * bin_width),
                                          (period, period)):
            back = histogram_from_csv(path, given_period)
            assert isinstance(back, DecayHistogram)
            assert (back.bin_width, back.n_bins) == (bin_width, n)
            assert back.period == read_period
            np.testing.assert_array_equal(back.counts, hist.counts)
            np.testing.assert_array_equal(back.delay_centers_ns,
                                          hist.delay_centers_ns)

    def test_negative_zero_first_centre_is_a_coincidence(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_center_ns,count\n-0.000,1\n0.001,2\n"
                        "0.002,3\n0.003,4\n")
        back = histogram_from_csv(path)
        assert isinstance(back, CoincidenceHistogram)
        assert (back.bin_width, back.window) == (1, 2)

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_fewer_than_4_rows_refused(self, tmp_path, rows):
        path = tmp_path / "h.csv"
        path.write_text("bin_center_ns,count\n" + "".join(
            f"{0.25 + 0.5 * i:.3f},1\n" for i in range(rows)))
        with pytest.raises(ValueError,
                           match="^histogram CSV has fewer than 4 rows$"):
            histogram_from_csv(path)

    def test_normalized_csv_refused(self, tmp_path):
        hist = CoincidenceHistogram(500, 1000, [3, 0, 17, 250],
                                    normalization=200.0)
        export_histogram_csv(hist, tmp_path / "g2.csv")
        with pytest.raises(ValueError, match="bin_center_ns,count columns"):
            histogram_from_csv(tmp_path / "g2.csv")


class TestFileDigest:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 41
        path.write_bytes(payload)
        assert file_digest(path) == hashlib.sha256(payload).hexdigest()

    def test_multi_chunk_file(self, tmp_path):
        path = tmp_path / "big.bin"
        payload = b"\xab" * (3 * (1 << 20) + 17)
        path.write_bytes(payload)
        assert file_digest(path) == hashlib.sha256(payload).hexdigest()


class _WithAsDict:
    def as_dict(self):
        return {"alpha": np.float64(0.37), "n": np.int64(12)}


class TestReportDocument:
    def test_json_is_deterministic_apart_from_created(self):
        kwargs = dict(config={"mode": "cw"}, results={"tau": 4.7})
        a = json.loads(ReportDocument(**kwargs).to_json())
        b = json.loads(ReportDocument(**kwargs).to_json())
        a.pop("created"), b.pop("created")
        assert a == b

    def test_keys_sorted_and_newline_terminated(self):
        text = ReportDocument(config={}, results={}).to_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_created_is_parseable_utc(self):
        doc = ReportDocument(config={}, results={})
        stamp = datetime.fromisoformat(doc.created)
        assert stamp.utcoffset().total_seconds() == 0

    def test_input_block_only_when_given(self):
        bare = ReportDocument(config={}, results={}).to_dict()
        assert "input" not in bare
        full = ReportDocument(
            config={}, results={},
            input={"path": "a.ptst", "sha256": "ff"}).to_dict()
        assert full["input"] == {"path": "a.ptst", "sha256": "ff"}

    def test_ok_tracks_errors(self):
        assert ReportDocument(config={}, results={}).ok
        failed = ReportDocument(
            config={}, results={}, errors=[{"analysis": "g2pw",
                                            "message": "no sync"}])
        assert not failed.ok
        assert failed.to_dict()["errors"][0]["analysis"] == "g2pw"

    def test_numpy_and_domain_types_serialize(self):
        doc = ReportDocument(
            config={"flag": np.bool_(True)},
            results={
                "n": np.int64(7),
                "rate": np.float64(2.5),
                "bins": np.array([1, 2, 3]),
                "tau": Measurement(4.7, 0.2),
                "verdict": Verdict.SINGLE_PHOTON,
                "nested": [{"inner": (np.int32(1), None)}],
                "extra": _WithAsDict(),
            })
        out = doc.to_dict()["results"]
        assert out["n"] == 7 and isinstance(out["n"], int)
        assert out["rate"] == 2.5 and isinstance(out["rate"], float)
        assert out["bins"] == [1, 2, 3]
        assert out["tau"] == {"value": 4.7, "sigma": 0.2}
        assert out["verdict"] == "single_photon"
        assert out["nested"] == [{"inner": [1, None]}]
        assert out["extra"] == {"alpha": 0.37, "n": 12}
        json.dumps(doc.to_dict())

    def test_unserializable_object_rejected(self):
        doc = ReportDocument(config={}, results={"bad": object()})
        with pytest.raises(TypeError, match="cannot serialize"):
            doc.to_dict()

    def test_write_emits_to_json(self, tmp_path):
        doc = ReportDocument(config={"a": 1}, results={"b": [1.5]})
        path = tmp_path / "report.json"
        doc.write(path)
        assert path.read_text() == doc.to_json()


class TestToolVersion:
    """The package version is one literal, the one ``pyproject.toml``
    declares; reports carry it."""

    def test_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
        assert declared is not None
        assert photonkit.__version__ == declared.group(1)

    def test_report_carries_the_package_version(self):
        tool = ReportDocument(config={}, results={}).to_dict()["tool"]
        assert tool == {"name": "photonkit",
                        "version": photonkit.__version__}


class TestThroughput:
    def test_million_record_round_trip_is_quick(self, tmp_path):
        rng = np.random.default_rng(9)
        t = np.cumsum(rng.integers(1, 200_000, size=1_000_000))
        path = tmp_path / "big.ptst"
        write_timestamps([stream(t)], path)
        assert path.stat().st_size == HEADER.size + 16 * 1_000_000
        start = time.perf_counter()
        back = read_timestamps(path)
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(back[0].events, t)
        assert elapsed < 1.0
