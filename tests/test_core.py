"""Unit conversions, stream validation, and the shared dataclasses."""

import dataclasses
import hashlib
import math
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import photonkit as pk
from photonkit import core, fileio
from photonkit.core import _span, ns_to_ps, ps_to_ns
from photonkit.correlator import cross_correlate
from photonkit.fileio import read_timestamps, write_timestamps


class TestUnitConversion:
    # Guaranteed exact range: dividing by 1000 rounds with error at most
    # ulp/2, and below 2**42 ns that error times 1000 plus the product
    # rounding stays under half a picosecond.  Above the bound the two
    # roundings can compound (first miss near 4.4e15 ps).
    @given(st.integers(min_value=0, max_value=2**42 * 1000))
    def test_round_trip_exact_in_guaranteed_range(self, t):
        assert ns_to_ps(ps_to_ns(t)) == t

    def test_array_round_trip(self):
        t = np.array([0, 1, 499, 500, 6 * 10**14, 2**42 * 1000], dtype=np.int64)
        back = ns_to_ps(ps_to_ns(t))
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, t)

    def test_degrades_by_at_most_one_ps_past_the_bound(self):
        t = 4_503_599_627_370_471
        assert abs(ns_to_ps(ps_to_ns(t)) - t) <= 1

    def test_scalar_types(self):
        assert isinstance(ps_to_ns(1500), float)
        assert ps_to_ns(1500) == 1.5
        assert ns_to_ps(1.5) == 1500
        assert isinstance(ns_to_ps(1.5), int)

    # A job's span keys are read by ``_span(unit)``: the same whole ps the
    # stages computed as ``int(round(value * unit))``, refused by name when
    # that is under 1 ps or does not fit a signed 64-bit int.
    @given(st.sampled_from([pk.PS_PER_S, pk.PS_PER_NS, pk.PS_PER_MS]),
           st.one_of(st.floats(min_value=1e-16, max_value=1e12),
                     st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False)))
    def test_span_is_the_rounded_product_or_refused(self, unit, value):
        product = value * unit
        ps = int(round(product)) if math.isfinite(product) else None
        if ps is not None and 1 <= ps < 2**63:
            assert _span(unit)(value, "key") == ps
            assert type(_span(unit)(value, "key")) is int
        else:
            with pytest.raises(ValueError) as refused:
                _span(unit)(value, "key")
            assert str(refused.value) == (
                f"key must be from 1 ps to below 2**63 ps, got {value}")

    @pytest.mark.parametrize("ps, expected", [
        (0.5, None), (0.5000001, 1), (1.5, 2), (2.5, 2),
        (float(2**63 - 1024), 2**63 - 1024), (float(2**63), None)])
    def test_span_edges(self, ps, expected):
        if expected is None:
            with pytest.raises(ValueError, match="^key must be from 1 ps"):
                _span(1)(ps, "key")
        else:
            assert _span(1)(ps, "key") == expected

    @given(st.integers(min_value=1, max_value=2**42 * 1000))
    def test_three_decimal_ns_span_keeps_its_float(self, k):
        """A ``period_ns`` of at most three decimals reaches the pulsed
        fit, as whole ps divided once, as the same float it was typed as."""
        assert _span(pk.PS_PER_NS)(k / 1000, "period_ns") / pk.PS_PER_NS == (
            k / 1000)


class TestTimestampStream:
    def test_freezes_events(self):
        s = pk.TimestampStream(0, [1, 2, 3], 10)
        assert not s.events.flags.writeable
        assert s.events.dtype == np.int64
        assert len(s) == 3

    def test_view_is_copied_so_its_base_cannot_write_through(self):
        a = np.arange(10, dtype=np.int64)
        s = pk.TimestampStream(0, a[:5], 10)
        a[0] = 99
        np.testing.assert_array_equal(s.events, [0, 1, 2, 3, 4])
        assert s.events.base is None
        assert not s.events.flags.writeable

    def test_rate_per_ms(self):
        s = pk.TimestampStream(0, np.arange(500), pk.PS_PER_MS)
        assert s.rate_per_ms == pytest.approx(500.0)
        assert pk.TimestampStream(0, [], 0).rate_per_ms == 0.0

    @pytest.mark.parametrize("channel", [0.5, True])
    def test_channel_must_be_whole(self, channel):
        with pytest.raises(ValueError, match="channel"):
            pk.TimestampStream(channel, [2, 6], 20)

    def test_integral_float_channel(self):
        s = pk.TimestampStream(0.0, [2, 6], 20)
        assert s.channel == 0 and type(s.channel) is int

    def test_ties_and_both_ends_of_the_span_accepted(self):
        s = pk.TimestampStream(3, [0, 5, 5, 100], 100)
        assert len(s) == 4

    # A stream checks its order and range when it is built, so an invalid
    # one never exists: not by construction, not by ``dataclasses.replace``.
    INVALID = [
        ({"events": [30, 10, 20]},
         "channel 3 stream is not sorted by timestamp"),
        ({"events": [-5, 10, 20]},
         "channel 3 events must lie within [0, 100] ps, got -5 to 20"),
        ({"duration": 25},
         "channel 3 events must lie within [0, 25] ps, got 10 to 30"),
    ]

    @pytest.mark.parametrize("bad, message", INVALID)
    def test_refused_when_built(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pk.TimestampStream(**{"channel": 3, "events": [10, 20, 30],
                                  "duration": 100, **bad})

    @pytest.mark.parametrize("bad, message", INVALID)
    def test_refused_by_replace(self, bad, message):
        good = pk.TimestampStream(3, [10, 20, 30], 100)
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(good, **bad)


class TestPeriodicStream:
    def test_length_rate_and_last_pulse(self):
        s = pk.PeriodicStream(255, 300, 1000, 5, 10_000)
        assert len(s) == 5
        assert s.last == 4300
        assert s.rate_per_ms == pytest.approx(5 / (10_000 / pk.PS_PER_MS))

    def test_events_built_on_first_access_and_frozen(self):
        s = pk.PeriodicStream(255, 300, 1000, 5, 10_000)
        assert "events" not in vars(s)
        np.testing.assert_array_equal(s.events, [300, 1300, 2300, 3300, 4300])
        assert s.events.dtype == np.int64
        assert not s.events.flags.writeable
        assert s.events is s.events

    def test_equality_ignores_the_cached_grid(self):
        a = pk.PeriodicStream(255, 0, 100, 3, 300)
        b = pk.PeriodicStream(255, 0, 100, 3, 300)
        a.events
        assert a == b
        assert a != pk.PeriodicStream(255, 0, 100, 4, 300)

    @pytest.mark.parametrize("args", [
        (255, -1, 100, 3, 300),    # offset before zero
        (255, 0, 0, 3, 300),       # zero period
        (255, 0, 100, 0, 300),     # no pulses
        (255, 0, 100, 3, 199),     # duration before the last pulse
        (255, 0, 2**62, 3, 2**63),  # last pulse past the int64 ps range
    ])
    def test_invalid_grid_rejected(self, args):
        with pytest.raises(ValueError):
            pk.PeriodicStream(*args)

    @pytest.mark.parametrize("name, index", [("channel", 0), ("count", 3)])
    @pytest.mark.parametrize("value", [10.7, "10", True])
    def test_channel_and_count_must_be_whole(self, name, index, value):
        args = [255, 0, 100, 10, 10**6]
        args[index] = value
        with pytest.raises(ValueError, match=name):
            pk.PeriodicStream(*args)

    def test_integral_float_channel_and_count(self):
        s = pk.PeriodicStream(255.0, 0, 100, 10.0, 10**6)
        assert s.count == 10 and type(s.count) is int
        assert s.channel == 255 and type(s.channel) is int
        assert s == pk.PeriodicStream(255, 0, 100, 10, 10**6)


class TestCoincidenceHistogram:
    def test_bin_count_and_centers(self):
        h = pk.CoincidenceHistogram(500, 1000, np.zeros(4, np.int64))
        assert h.n_bins == 4
        np.testing.assert_allclose(h.tau_centers_ps, [-750, -250, 250, 750])
        np.testing.assert_allclose(h.tau_centers_ns, [-0.75, -0.25, 0.25, 0.75])

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError, match="expected 4 bins"):
            pk.CoincidenceHistogram(500, 1000, np.zeros(5, np.int64))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pk.CoincidenceHistogram(500, 1000, [-1, 0, 0, 0])

    def test_window_smaller_than_bin_rejected(self):
        with pytest.raises(ValueError, match="window"):
            pk.CoincidenceHistogram(500, 400, np.zeros(2, np.int64))

    def test_normalized_requires_normalization(self):
        h = pk.CoincidenceHistogram(500, 1000, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="no normalization"):
            h.normalized
        h2 = pk.CoincidenceHistogram(500, 1000, [2, 4, 6, 8], normalization=2.0)
        np.testing.assert_allclose(h2.normalized, [1, 2, 3, 4])
        np.testing.assert_allclose(h2.normalized_sigma,
                                   np.sqrt([2, 4, 6, 8]) / 2.0)

    def test_non_positive_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            pk.CoincidenceHistogram(500, 1000, [1, 2, 3, 4], normalization=0.0)


class TestRecordEquality:
    """Records compare field by field, arrays by value."""

    def hist(self, counts=(1, 2, 3, 4), bin_width=500):
        return pk.CoincidenceHistogram(
            bin_width, 1000, np.array(counts[:2000 // bin_width], np.int64))

    def test_different_array_compares_unequal(self):
        assert self.hist() != self.hist(counts=(1, 2, 3, 5))

    def test_different_scalar_compares_unequal(self):
        assert self.hist() != self.hist(bin_width=1000)

    def test_other_type_is_not_implemented(self):
        h = self.hist()
        assert h.__eq__(pk.DecayHistogram(500, 2000, np.zeros(4, np.int64))) \
            is NotImplemented
        assert h != (500, 1000, h.counts)


class TestDecayHistogram:
    def test_centers(self):
        h = pk.DecayHistogram(500, 2000, [1, 2, 3, 4])
        np.testing.assert_allclose(h.delay_centers_ps, [250, 750, 1250, 1750])

    def test_discarded_is_whole(self):
        h = pk.DecayHistogram(500, 1000, [1, 2], np.int64(7))
        assert h.discarded == 7 and type(h.discarded) is int
        with pytest.raises(ValueError, match="discarded"):
            pk.DecayHistogram(500, 1000, [1, 2], 0.5)

    def test_bin_wider_than_period_rejected(self):
        with pytest.raises(ValueError, match="must not exceed period"):
            pk.DecayHistogram(3000, 2000, [1])


class TestIntensityTrace:
    def test_defaults(self):
        t = pk.IntensityTrace([10, 20, 30])
        assert t.bin_width == pk.PS_PER_MS
        assert t.duration == 3 * pk.PS_PER_MS
        assert t.span == t.duration
        np.testing.assert_allclose(t.rates_per_ms, [10, 20, 30])

    def test_partial_last_bin(self):
        t = pk.IntensityTrace([1, 2], bin_width=100, duration=150)
        assert t.span == 200

    def test_mismatched_duration_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            pk.IntensityTrace([1, 2, 3], bin_width=100, duration=150)


class TestSegment:
    def test_durations(self):
        s = pk.Segment(True, 2 * pk.PS_PER_MS, 5 * pk.PS_PER_MS)
        assert s.duration_ps == 3 * pk.PS_PER_MS
        assert s.duration_ms == pytest.approx(3.0)


class TestParamRecords:
    def test_cw_vector_round_trip(self):
        p = pk.G2CwParams(100.0, 0.9, -0.5, 4.7)
        back = pk.G2CwParams.from_vector(p.to_vector())
        assert back == p
        assert pk.G2CwParams.names == ("plateau", "dip_depth", "tau0_ns",
                                       "tau_x_ns")

    def test_pw_heights_must_be_odd(self):
        with pytest.raises(ValueError, match="odd length"):
            pk.G2PwParams(1.0, [1.0, 2.0], 0.0, 4.7, 100.0)

    def test_pw_accessors(self):
        p = pk.G2PwParams(2.0, [10.0, 3.0, 12.0], 0.0, 4.7, 100.0)
        assert p.n_side == 1
        assert p.center_height == 3.0
        assert p.side_mean == pytest.approx(11.0)
        assert p.names == ("background", "b[-1]", "b[0]", "b[1]",
                           "tau0_ns", "tau_x_ns")
        back = pk.G2PwParams.from_vector(p.to_vector(), 100.0)
        assert back == p

    def test_multiexp_requires_sorted_lifetimes(self):
        with pytest.raises(ValueError, match="ascending"):
            pk.MultiExpParams(1.0, [1.0, 1.0], [5.0, 2.0], 0.0)

    def test_multiexp_vector_round_trip(self):
        p = pk.MultiExpParams(1.0, [2.0, 3.0], [0.8, 5.0], 0.1)
        v = p.to_vector()
        np.testing.assert_allclose(v, [1.0, 2.0, 0.8, 3.0, 5.0])
        assert pk.MultiExpParams.from_vector(v, 0.1) == p
        assert p.names == ("floor", "B1", "tau1_ns", "B2", "tau2_ns")


class TestFitResult:
    def test_value_lookup(self):
        p = pk.G2CwParams(100.0, 0.9, 0.0, 4.7)
        r = pk.FitResult(p, p.names, [1.0, 0.02, 0.1, 0.3], np.eye(4),
                         1.0, True, 5)
        m = r.value_of("tau_x_ns")
        assert m.value == 4.7 and m.sigma == 0.3
        d = r.as_dict()
        assert d["dip_depth"] == {"value": 0.9, "sigma": 0.02}


def test_verdict_values():
    assert pk.Verdict.SINGLE_PHOTON.value == "single_photon"
    assert pk.Verdict.NOT_SINGLE.value == "not_single"
    assert pk.Verdict.INCONCLUSIVE.value == "inconclusive"


def test_measurement_str():
    assert str(pk.Measurement(0.304, 0.024)) == "0.304 +/- 0.024"


class TestWholePicosecondFields:
    """Every ps field of a record or model takes an integral float as its
    int and rejects a fractional value by name, instead of truncating."""

    FIELDS = {
        "TimestampStream.duration":
            (lambda v: pk.TimestampStream(0, [1, 2], v), 10),
        "PeriodicStream.offset":
            (lambda v: pk.PeriodicStream(255, v, 10, 3, 100), 5),
        "PeriodicStream.period":
            (lambda v: pk.PeriodicStream(255, 0, v, 3, 100), 10),
        "PeriodicStream.duration":
            (lambda v: pk.PeriodicStream(255, 0, 10, 3, v), 100),
        "CoincidenceHistogram.bin_width":
            (lambda v: pk.CoincidenceHistogram(v, 1000, np.zeros(4)), 500),
        "CoincidenceHistogram.window":
            (lambda v: pk.CoincidenceHistogram(500, v, np.zeros(4)), 1000),
        "DecayHistogram.bin_width":
            (lambda v: pk.DecayHistogram(v, 400, np.zeros(4)), 100),
        "DecayHistogram.period":
            (lambda v: pk.DecayHistogram(100, v, np.zeros(4)), 400),
        "IntensityTrace.bin_width":
            (lambda v: pk.IntensityTrace(np.zeros(3), v, 30), 10),
        "IntensityTrace.duration":
            (lambda v: pk.IntensityTrace(np.zeros(3), 10, v), 25),
        "EmissionRecord.duration":
            (lambda v: pk.EmissionRecord([1], [True], (), v, None), 10),
        "ExcitationConfig.pulse_period_ps":
            (lambda v: pk.ExcitationConfig(pulse_period_ps=v), 100_000),
        "ExcitationConfig.pulse_width_ps":
            (lambda v: pk.ExcitationConfig(pulse_width_ps=v), 50),
        "DetectorModel.dead_time_ps":
            (lambda v: pk.DetectorModel(dead_time_ps=v), 22_000),
    }

    @pytest.mark.parametrize("field", FIELDS)
    def test_integral_float_equals_int(self, field):
        make, value = self.FIELDS[field]
        name = field.split(".")[1]
        got = make(float(value))
        assert got == make(value)
        assert type(getattr(got, name)) is int
        assert getattr(got, name) == value

    @pytest.mark.parametrize("field", FIELDS)
    def test_fractional_value_rejected_by_name(self, field):
        make, value = self.FIELDS[field]
        name = field.split(".")[1]
        with pytest.raises(ValueError, match=f"^{name} must be a whole"):
            make(value + 0.5)

    @pytest.mark.parametrize("bad", ["100000", "1e5", b"100000", True,
                                     np.bool_(True)],
                             ids=["str", "str_exp", "bytes", "bool", "np_bool"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_string_or_bool_rejected_by_name(self, field, bad):
        make, _ = self.FIELDS[field]
        name = field.split(".")[1]
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            make(bad)

    def test_models_stay_hashable(self):
        assert (hash(pk.ExcitationConfig(pulse_period_ps=1e5))
                == hash(pk.ExcitationConfig()))
        assert (hash(pk.DetectorModel(dead_time_ps=22e3))
                == hash(pk.DetectorModel()))
        assert (hash(pk.PeriodicStream(255, 0.0, 10, 3, 100))
                == hash(pk.PeriodicStream(255, 0, 10, 3, 100)))


class TestWorkerBound:
    """``workers`` bounds the threads and parts, it does not set them: a
    pool gets no more threads than it has items or the machine has cores,
    and a split makes no more parts than there are blocks. A fake pool
    records its size and item count and runs the items inline."""

    WORKERS = 10**5

    @pytest.fixture
    def pools(self, monkeypatch):
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                self.size = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                pools.append((self.size, len(items)))
                return map(fn, items)

        monkeypatch.setattr(core, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(core.os, "cpu_count", lambda: 8)
        threads = threading.active_count()
        yield pools
        assert threading.active_count() == threads

    def test_threads_bounded_by_items_and_cores(self, pools):
        out = core._map_workers(lambda ab: ab[0] * ab[1],
                                zip((1, 2, 3), (4, 5, 6)), self.WORKERS)
        assert out == [4, 10, 18]
        assert core._map_workers(str, range(20), self.WORKERS) == [
            str(i) for i in range(20)]
        assert pools == [(3, 3), (8, 20)]

    def test_correlate_parts_bounded_by_blocks(self, pools):
        rng = np.random.default_rng(4)
        n = 3 * core._BLOCK + 5
        a = pk.TimestampStream(0, np.sort(rng.integers(0, 10**9, n)), 10**9)
        b = pk.TimestampStream(1, np.sort(rng.integers(0, 10**9, n)), 10**9)
        got = cross_correlate(a, b, 500, 500, workers=self.WORKERS)
        assert pools == [(4, 4)]
        assert got == cross_correlate(a, b, 500, 500)

    def test_read_parts_bounded_by_blocks(self, pools, tmp_path):
        n = 2 * core._BLOCK + 1
        streams = [pk.TimestampStream(c, np.arange(c, 2 * n, 2), 2 * n)
                   for c in (0, 1)]
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path, workers=self.WORKERS)
        assert pools == []  # without a hasher the writer has one task
        got = read_timestamps(path, 2 * n, workers=self.WORKERS)
        assert pools == [(5, 5)]  # 2n records fill five blocks
        assert got == read_timestamps(path, 2 * n)

    def test_read_runs_beside_the_hash(self, pools, tmp_path):
        """The digest has a thread of its own, and beside it the records
        are read in one map over no more runs than workers or blocks."""
        n = 2 * core._BLOCK + 1
        streams = [pk.TimestampStream(c, np.arange(c, 2 * n, 2), 2 * n)
                   for c in (0, 1)]
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path)
        want = read_timestamps(path, 2 * n)
        for workers, runs in ((2, [(2, 2)]), (3, [(3, 3)]),
                              (self.WORKERS, [(5, 5)])):
            pools.clear()
            got = read_timestamps(path, 2 * n, workers=workers,
                                  hasher=hashlib.sha256())
            assert pools == [(2, 2), *runs], workers
            assert got == want

    def test_write_pool_bounded_by_batches(self, pools, tmp_path):
        n = 2 * core._BLOCK + 1
        streams = [pk.TimestampStream(c, np.arange(c, 2 * n, 2), 2 * n)
                   for c in (0, 1)]
        path = tmp_path / "x.ptst"
        write_timestamps(streams, path, workers=self.WORKERS,
                         hasher=hashlib.sha256())
        assert pools == []  # 2n records are one batch: no thread
        want = path.read_bytes()
        # Half a batch is one block, less than a chunk, so each of the
        # three chunks (two blocks, two blocks, two records) is a batch.
        # Batch k is sorted while batch k - 1 goes out: two tasks at most.
        with mock.patch.object(fileio, "_BATCH", 2):
            write_timestamps(streams, path, workers=self.WORKERS,
                             hasher=hashlib.sha256())
        assert pools == [(2, 1), (2, 2), (2, 2), (2, 1)]
        assert path.read_bytes() == want
