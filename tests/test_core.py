"""Unit conversions, stream validation, and the shared dataclasses."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import photonkit as pk
from photonkit.core import ns_to_ps, ps_to_ns


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


class TestTimestampStream:
    def test_freezes_events(self):
        s = pk.TimestampStream(0, [3, 1, 2], 10)
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


class TestValidateStream:
    def test_clean(self):
        r = pk.validate_stream(pk.TimestampStream(0, [1, 2, 3], 10))
        assert r.ok and r.n_events == 3 and r.n_duplicates == 0

    def test_unsorted_reported_not_raised(self):
        r = pk.validate_stream(pk.TimestampStream(0, [5, 3, 8], 10))
        assert not r.ok
        np.testing.assert_array_equal(r.order_violations, [1])

    def test_duplicates_are_informational(self):
        r = pk.validate_stream(pk.TimestampStream(0, [1, 1, 2], 10))
        assert r.ok
        assert r.n_duplicates == 1

    def test_range_violations(self):
        r = pk.validate_stream(pk.TimestampStream(0, [-1, 2, 11], 10))
        assert not r.ok
        assert r.n_negative == 1 and r.n_past_duration == 1

    def test_empty(self):
        assert pk.validate_stream(pk.TimestampStream(0, [], 10)).ok


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


class TestDecayHistogram:
    def test_centers(self):
        h = pk.DecayHistogram(500, 2000, [1, 2, 3, 4])
        np.testing.assert_allclose(h.delay_centers_ps, [250, 750, 1250, 1750])

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
