"""Tests for the binary timestamp format, CSV export, and JSON reports."""

import hashlib
import json
import struct
import time
from datetime import datetime

import numpy as np
import pytest

from photonkit.core import (
    CoincidenceHistogram,
    DecayHistogram,
    Measurement,
    PeriodicStream,
    TimestampStream,
    Verdict,
)
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


def write_raw(path, *, magic=MAGIC, version=FORMAT_VERSION, n_channels=1,
              resolution=1, records=()):
    """Hand-assemble a timestamp file, bypassing the writer's checks."""
    recs = np.zeros(len(records), dtype=RECORD_DTYPE)
    for i, (t, ch) in enumerate(records):
        recs["t"][i] = t
        recs["ch"][i] = ch
    data = HEADER.pack(magic, version, n_channels, resolution, len(records))
    path.write_bytes(data + recs.tobytes())


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

    def test_bad_resolution_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="resolution"):
            write_timestamps([stream([1])], tmp_path / "x.ptst", resolution=0)

    def test_too_many_channels_rejected(self, tmp_path):
        streams = [stream([i], channel=0) for i in range(256)]
        with pytest.raises(ValueError, match="at most 255"):
            write_timestamps(streams, tmp_path / "x.ptst")

    def test_channel_must_fit_in_one_byte(self, tmp_path):
        with pytest.raises(ValueError, match="one byte"):
            write_timestamps([stream([1], channel=300)],
                             tmp_path / "x.ptst")

    def test_negative_timestamps_rejected(self, tmp_path):
        bad = TimestampStream(0, np.array([-5, 10]), 10)
        with pytest.raises(ValueError, match="negative"):
            write_timestamps([bad], tmp_path / "x.ptst")


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

    def test_read_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("bin_center_ns,count\n0.5,1,99\n")
        with pytest.raises(ValueError):
            read_histogram_csv(path)


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
