"""Simulator tests: determinism, photon statistics, detector effects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonkit as pk
from photonkit.sim import _dead_time_filter

PS_NS = pk.PS_PER_NS
PS_MS = pk.PS_PER_MS
PS_S = pk.PS_PER_S


def quiet_emitter(**kw):
    kw.setdefault("lifetime_ns", 4.7)
    kw.setdefault("blinking", pk.BlinkingLaw(off_emission_rate_per_ms=0.0))
    return pk.EmitterModel(**kw)


class TestDeterminism:
    def test_same_seed_same_emission(self):
        em = quiet_emitter(blinking=pk.BlinkingLaw(
            kind="power_law", alpha_on=0.5, alpha_off=0.5,
            min_dwell_ms=1.0, max_dwell_ms=1e4, off_emission_rate_per_ms=5.0))
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=2e5)
        a = pk.generate_emission(em, exc, 3 * PS_S, seed=42)
        b = pk.generate_emission(em, exc, 3 * PS_S, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=2e5)
        a = pk.generate_emission(em, exc, PS_S, seed=1)
        b = pk.generate_emission(em, exc, PS_S, seed=2)
        assert not np.array_equal(a.times, b.times)

    def test_worker_count_bit_exact_cw(self):
        em = quiet_emitter(blinking=pk.BlinkingLaw(
            kind="power_law", min_dwell_ms=2.0, max_dwell_ms=1e4,
            off_emission_rate_per_ms=10.0))
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=2e5)
        one = pk.generate_emission(em, exc, 3 * PS_S, seed=9, workers=1)
        four = pk.generate_emission(em, exc, 3 * PS_S, seed=9, workers=4)
        np.testing.assert_array_equal(one.times, four.times)
        np.testing.assert_array_equal(one.is_signal, four.is_signal)
        assert one.segments == four.segments

    def test_worker_count_bit_exact_pulsed(self):
        em = quiet_emitter(biexciton_probability=0.1)
        exc = pk.ExcitationConfig("pulsed", excitation_probability=0.4)
        one = pk.generate_emission(em, exc, 2 * PS_S + 777, seed=3, workers=1)
        three = pk.generate_emission(em, exc, 2 * PS_S + 777, seed=3, workers=3)
        np.testing.assert_array_equal(one.times, three.times)

    def test_detect_hbt_deterministic(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e5)
        rec = pk.generate_emission(em, exc, PS_S, seed=0)
        det = pk.DetectorModel()
        a0, a1, _ = pk.detect_hbt(rec, det, seed=7)
        b0, b1, _ = pk.detect_hbt(rec, det, seed=7)
        np.testing.assert_array_equal(a0.events, b0.events)
        np.testing.assert_array_equal(a1.events, b1.events)

    def test_poissonian_deterministic(self):
        a = pk.simulate_poissonian(1e6, PS_S, seed=4)
        b = pk.simulate_poissonian(1e6, PS_S, seed=4)
        np.testing.assert_array_equal(a.events, b.events)


class TestPulsedEmission:
    def test_at_most_one_exciton_photon_per_pulse(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("pulsed")
        rec = pk.generate_emission(em, exc, 10**10, seed=13)
        n_pulses = 10**10 // exc.pulse_period_ps
        assert n_pulses - 5 <= len(rec) <= n_pulses
        per_pulse = np.bincount(rec.times // exc.pulse_period_ps)
        assert per_pulse.max() == 1

    def test_delay_from_pulse_is_exponential(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("pulsed")
        rec = pk.generate_emission(em, exc, 10**10, seed=13)
        delays = rec.times % exc.pulse_period_ps
        # mean delay = tau_X plus half the 50 ps absorption window
        expect = em.lifetime_ns * PS_NS + exc.pulse_width_ps / 2
        tol = 4 * em.lifetime_ns * PS_NS / np.sqrt(len(rec))
        assert abs(delays.mean() - expect) < tol

    def test_biexciton_doubles_emission(self):
        em = quiet_emitter(biexciton_probability=1.0)
        exc = pk.ExcitationConfig("pulsed")
        rec = pk.generate_emission(em, exc, 10**10, seed=13)
        n_pulses = 10**10 // exc.pulse_period_ps
        assert 2 * n_pulses - 10 <= len(rec) <= 2 * n_pulses
        per_pulse = np.bincount(rec.times // exc.pulse_period_ps)
        assert per_pulse.max() == 2

    def test_excitation_probability_thins_pulses(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("pulsed", excitation_probability=0.3)
        rec = pk.generate_emission(em, exc, 10**10, seed=6)
        n_pulses = 10**10 // exc.pulse_period_ps
        sigma = np.sqrt(n_pulses * 0.3 * 0.7)
        assert abs(len(rec) - 0.3 * n_pulses) < 5 * sigma

    def test_quantum_yield_thins_photons(self):
        em = quiet_emitter(quantum_yield=0.5)
        exc = pk.ExcitationConfig("pulsed")
        rec = pk.generate_emission(em, exc, 10**10, seed=6)
        n_pulses = 10**10 // exc.pulse_period_ps
        assert abs(len(rec) - 0.5 * n_pulses) < 5 * np.sqrt(n_pulses * 0.25)


class TestCwEmission:
    def test_renewal_rate(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e6)
        rec = pk.generate_emission(em, exc, PS_S, seed=8)
        cycle_ps = PS_S / exc.cw_rate_per_s + em.lifetime_ns * PS_NS
        expect = PS_S / cycle_ps
        assert abs(len(rec) - expect) < 5 * np.sqrt(expect)
        assert rec.is_signal.all()

    def test_background_rate_and_flags(self):
        em = quiet_emitter(blinking=pk.BlinkingLaw(off_emission_rate_per_ms=50.0))
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e5)
        rec = pk.generate_emission(em, exc, PS_S, seed=8)
        n_bg = int((~rec.is_signal).sum())
        assert abs(n_bg - 50_000) < 5 * np.sqrt(50_000)

    def test_sorted_and_in_range(self):
        em = quiet_emitter(blinking=pk.BlinkingLaw(off_emission_rate_per_ms=20.0))
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=5e5)
        rec = pk.generate_emission(em, exc, 2 * PS_S + 123, seed=5)
        assert (np.diff(rec.times) >= 0).all()
        assert rec.times[0] >= 0 and rec.times[-1] <= rec.duration


def greedy_dead_time(times, dead):
    kept = []
    for t in times:
        if not kept or t - kept[-1] >= dead:
            kept.append(t)
    return kept


class TestDeadTimeFilter:
    def test_explicit_examples(self):
        f = _dead_time_filter
        d = 22_000
        np.testing.assert_array_equal(
            f(np.array([0, 5_000, 30_000]), d), [0, 30_000])
        np.testing.assert_array_equal(
            f(np.array([0, 21_000, 42_000]), d), [0, 42_000])
        np.testing.assert_array_equal(
            f(np.array([0, 21_000, 43_000, 64_000]), d), [0, 43_000])

    def test_trivial_cases(self):
        np.testing.assert_array_equal(
            _dead_time_filter(np.array([5, 6, 7]), 0), [5, 6, 7])
        np.testing.assert_array_equal(_dead_time_filter(np.array([9]), 100), [9])
        assert _dead_time_filter(np.empty(0, np.int64), 100).size == 0

    @given(st.lists(st.integers(0, 400), min_size=0, max_size=60),
           st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy_oracle(self, raw, dead):
        times = np.sort(np.asarray(raw, dtype=np.int64))
        out = _dead_time_filter(times, dead)
        np.testing.assert_array_equal(out, greedy_dead_time(times.tolist(), dead))
        if out.size > 1:
            assert np.diff(out).min() >= dead

    @staticmethod
    def longest_contested_run(times, dead):
        """Longest run of consecutive events closer than ``dead`` to their
        predecessor."""
        contested = np.concatenate(([0], (np.diff(times) < dead).view(np.int8), [0]))
        edges = np.flatnonzero(np.diff(contested))
        return int((edges[1::2] - edges[::2]).max()) if edges.size else 0

    def test_matches_greedy_oracle_at_cw_density(self):
        # 2e5 events at the contested fraction of a CW detector channel
        # (a few %), plus bursts of 3-6 events inside one dead time and
        # some exact repeats, so long contested runs are certain.
        dead = 22_000
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.exponential(dead / 0.03, 200_000)).astype(np.int64)
        starts = rng.choice(times, 400, replace=False)
        bursts = [s + np.sort(rng.integers(0, dead, rng.integers(2, 6)))
                  for s in starts]
        times = np.sort(np.concatenate([times, *bursts, times[:1000:10]]))
        contested = np.mean(np.diff(times) < dead)
        assert 0.02 < contested < 0.06
        assert self.longest_contested_run(times, dead) >= 3
        out = _dead_time_filter(times, dead)
        np.testing.assert_array_equal(out, greedy_dead_time(times.tolist(), dead))

    def test_matches_greedy_oracle_when_most_events_are_contested(self):
        dead = 22_000
        rng = np.random.default_rng(12)
        times = np.cumsum(rng.exponential(dead / 4, 50_000)).astype(np.int64)
        assert np.mean(np.diff(times) < dead) > 0.9
        out = _dead_time_filter(times, dead)
        np.testing.assert_array_equal(out, greedy_dead_time(times.tolist(), dead))
        assert out.size < times.size // 3


class TestDetectHbt:
    def test_dark_counts_only(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e5)
        rec = pk.generate_emission(em, exc, 10 * PS_S, seed=2)
        det = pk.DetectorModel(efficiency=0.0, dark_rate_per_ms=1.0)
        ch0, ch1, _ = pk.detect_hbt(rec, det, seed=2)
        total = len(ch0) + len(ch1)
        assert abs(total - 20_000) < 5 * np.sqrt(20_000)

    def test_splitter_ratio_zero_routes_to_channel_b(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e5)
        rec = pk.generate_emission(em, exc, PS_S, seed=2)
        det = pk.DetectorModel(splitter_ratio=0.0, dark_rate_per_ms=0.0,
                               jitter_sigma_ps=0.0, dead_time_ps=0)
        ch0, ch1, _ = pk.detect_hbt(rec, det, seed=2)
        assert len(ch0) == 0
        assert len(ch1) == len(rec)

    def test_ideal_detector_passes_times_through(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=1e5)
        rec = pk.generate_emission(em, exc, PS_S, seed=2)
        det = pk.DetectorModel(splitter_ratio=1.0, dark_rate_per_ms=0.0,
                               jitter_sigma_ps=0.0, dead_time_ps=0)
        ch0, ch1, _ = pk.detect_hbt(rec, det, seed=2)
        np.testing.assert_array_equal(ch0.events, rec.times)
        assert len(ch1) == 0

    def test_dead_time_invariant_holds_on_output(self):
        em = quiet_emitter(blinking=pk.BlinkingLaw(off_emission_rate_per_ms=30.0))
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=2e6)
        rec = pk.generate_emission(em, exc, PS_S, seed=11)
        det = pk.DetectorModel(dead_time_ps=22_000)
        ch0, ch1, _ = pk.detect_hbt(rec, det, seed=11)
        for s in (ch0, ch1):
            assert len(s) > 100
            assert np.diff(s.events).min() >= det.dead_time_ps
            assert pk.validate_stream(s).ok

    def test_sync_stream_pulsed_vs_cw(self):
        em = quiet_emitter()
        pulsed = pk.generate_emission(
            em, pk.ExcitationConfig("pulsed"), 10**9, seed=1)
        _, _, sync = pk.detect_hbt(pulsed, pk.DetectorModel(), seed=1)
        assert sync.channel == pk.SYNC_CHANNEL
        np.testing.assert_array_equal(
            sync.events, np.arange(0, 10**9, 100_000, dtype=np.int64))
        cw = pk.generate_emission(em, pk.ExcitationConfig("cw"), 10**9, seed=1)
        _, _, sync = pk.detect_hbt(cw, pk.DetectorModel(), seed=1)
        assert len(sync) == 0

    @pytest.mark.parametrize("duration", [10**9, 10**9 + 1, 99_999])
    def test_pulsed_sync_is_a_grid_without_materializing(self, duration):
        em = quiet_emitter()
        pulsed = pk.generate_emission(
            em, pk.ExcitationConfig("pulsed"), duration, seed=1)
        _, _, sync = pk.detect_hbt(pulsed, pk.DetectorModel(), seed=1)
        assert isinstance(sync, pk.PeriodicStream)
        assert (sync.offset, sync.period, sync.duration) == (0, 100_000,
                                                            duration)
        assert "events" not in vars(sync)
        assert len(sync) == np.arange(0, duration, 100_000).size

    def test_accepts_raw_timestamp_stream(self):
        src = pk.simulate_poissonian(1e6, PS_S, seed=3)
        det = pk.DetectorModel(dark_rate_per_ms=0.0, jitter_sigma_ps=0.0,
                               dead_time_ps=0)
        ch0, ch1, sync = pk.detect_hbt(src, det, seed=3)
        assert len(ch0) + len(ch1) == len(src)
        assert len(sync) == 0
        merged = np.sort(np.concatenate((ch0.events, ch1.events)))
        np.testing.assert_array_equal(merged, src.events)


class TestPoissonian:
    def test_rate(self):
        s = pk.simulate_poissonian(1e6, PS_S, seed=0)
        assert abs(len(s) - 1_000_000) < 5_000
        assert (np.diff(s.events) >= 0).all()
        assert s.channel == pk.CHANNEL_A

    def test_args(self):
        with pytest.raises(ValueError):
            pk.simulate_poissonian(0.0, PS_S, seed=0)
        with pytest.raises(ValueError):
            pk.simulate_poissonian(1e6, 0, seed=0)


class TestDwellSampling:
    def test_power_law_support_and_log_mean(self):
        law = pk.BlinkingLaw(kind="power_law", alpha_on=0.5, alpha_off=0.5,
                             min_dwell_ms=1.0, max_dwell_ms=1e5)
        d = pk.sample_dwells_ms(law, on=True, n=20_000, seed=1)
        assert d.min() >= 1.0 and d.max() <= 1e5
        # E[ln(x/lo)] for a Pareto truncated at ratio R:
        # 1/alpha - ln(R) * R**-alpha / (1 - R**-alpha)
        alpha, big_r = 0.5, 1e5
        rho = big_r ** -alpha
        expect = 1 / alpha - np.log(big_r) * rho / (1 - rho)
        logs = np.log(d / 1.0)
        assert abs(logs.mean() - expect) < 5 * logs.std() / np.sqrt(d.size)

    def test_on_off_use_their_own_exponents(self):
        law = pk.BlinkingLaw(kind="power_law", alpha_on=0.3, alpha_off=0.9,
                             min_dwell_ms=1.0, max_dwell_ms=1e5)
        d_on = pk.sample_dwells_ms(law, on=True, n=20_000, seed=1)
        d_off = pk.sample_dwells_ms(law, on=False, n=20_000, seed=1)
        # smaller exponent = heavier tail = larger typical log-duration
        assert np.log(d_on).mean() > np.log(d_off).mean() + 0.5

    def test_exponential_mean(self):
        law = pk.BlinkingLaw(kind="two_state_exponential",
                             mean_on_ms=100.0, mean_off_ms=40.0)
        d = pk.sample_dwells_ms(law, on=False, n=20_000, seed=2)
        assert abs(d.mean() - 40.0) < 5 * 40.0 / np.sqrt(d.size)

    def test_kind_none_has_no_dwells(self):
        with pytest.raises(ValueError):
            pk.sample_dwells_ms(pk.BlinkingLaw(), on=True, n=10, seed=0)


class TestIntensityTraceSim:
    def test_segments_tile_duration(self):
        law = pk.BlinkingLaw(kind="power_law", min_dwell_ms=1.0,
                             max_dwell_ms=1e4)
        duration = 20 * PS_S
        trace, segments = pk.simulate_intensity_trace(law, 200.0, duration, seed=3)
        assert segments[0].start == 0
        assert segments[-1].end == duration
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start == prev.end
            assert cur.on != prev.on
        assert sum(s.duration_ps for s in segments) == duration
        assert trace.counts.sum() > 0

    def test_kind_none_is_single_on_segment(self):
        trace, segments = pk.simulate_intensity_trace(
            pk.BlinkingLaw(), 100.0, PS_S, seed=0)
        assert segments == (pk.Segment(True, 0, PS_S),)
        total = trace.counts.sum()
        assert abs(total - 100_000) < 5 * np.sqrt(100_000)

    def test_deterministic(self):
        law = pk.BlinkingLaw(kind="two_state_exponential",
                             mean_on_ms=50.0, mean_off_ms=20.0)
        a, _ = pk.simulate_intensity_trace(law, 150.0, 5 * PS_S, seed=4)
        b, _ = pk.simulate_intensity_trace(law, 150.0, 5 * PS_S, seed=4)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_off_bins_sit_at_background_level(self):
        law = pk.BlinkingLaw(kind="two_state_exponential", mean_on_ms=100.0,
                             mean_off_ms=100.0, off_emission_rate_per_ms=20.0)
        trace, segments = pk.simulate_intensity_trace(law, 200.0, 10 * PS_S, seed=5)
        rates = trace.rates_per_ms
        for seg in segments:
            if seg.on or seg.duration_ps < 3 * PS_MS:
                continue
            # bins fully inside the OFF dwell
            i0 = -(-seg.start // PS_MS)
            i1 = seg.end // PS_MS
            inner = rates[i0:i1]
            assert inner.size and inner.mean() < 40.0

    def test_args(self):
        with pytest.raises(ValueError):
            pk.simulate_intensity_trace(pk.BlinkingLaw(), 0.0, PS_S, seed=0)
        with pytest.raises(ValueError):
            pk.simulate_intensity_trace(pk.BlinkingLaw(), 10.0, 0, seed=0)


class TestConfigValidation:
    def test_blinking_law(self):
        with pytest.raises(ValueError):
            pk.BlinkingLaw(kind="sometimes").validate()
        with pytest.raises(ValueError):
            pk.BlinkingLaw(kind="power_law", alpha_on=1.0).validate()
        with pytest.raises(ValueError):
            pk.BlinkingLaw(kind="power_law", alpha_off=0.0).validate()
        with pytest.raises(ValueError):
            pk.BlinkingLaw(kind="power_law", min_dwell_ms=10.0,
                           max_dwell_ms=5.0).validate()
        with pytest.raises(ValueError):
            pk.BlinkingLaw(kind="two_state_exponential",
                           mean_on_ms=0.0).validate()
        with pytest.raises(ValueError):
            pk.BlinkingLaw(off_emission_rate_per_ms=-1.0).validate()

    def test_emitter(self):
        with pytest.raises(ValueError):
            pk.EmitterModel(lifetime_ns=0.0).validate()
        with pytest.raises(ValueError):
            pk.EmitterModel(lifetime_ns=4.7, biexciton_probability=1.5).validate()
        with pytest.raises(ValueError):
            pk.EmitterModel(lifetime_ns=4.7, quantum_yield=-0.1).validate()
        with pytest.raises(ValueError):
            pk.EmitterModel(lifetime_ns=4.7, biexciton_probability=0.5,
                            biexciton_lifetime_ns=0.0).validate()

    def test_excitation(self):
        with pytest.raises(ValueError):
            pk.ExcitationConfig("strobe").validate()
        with pytest.raises(ValueError):
            pk.ExcitationConfig("cw", cw_rate_per_s=0.0).validate()
        with pytest.raises(ValueError):
            pk.ExcitationConfig("pulsed", pulse_period_ps=0).validate()
        with pytest.raises(ValueError):
            pk.ExcitationConfig("pulsed", excitation_probability=2.0).validate()
        with pytest.raises(ValueError):
            pk.ExcitationConfig("pulsed", pulse_width_ps=100_000).validate()

    def test_detector(self):
        for bad in (pk.DetectorModel(efficiency=1.2),
                    pk.DetectorModel(splitter_ratio=-0.1),
                    pk.DetectorModel(dark_rate_per_ms=-1.0),
                    pk.DetectorModel(jitter_sigma_ps=-1.0),
                    pk.DetectorModel(dead_time_ps=-1)):
            with pytest.raises(ValueError):
                bad.validate()

    def test_generate_emission_args(self):
        em = quiet_emitter()
        exc = pk.ExcitationConfig("cw")
        with pytest.raises(ValueError):
            pk.generate_emission(em, exc, 0, seed=0)
        with pytest.raises(ValueError):
            pk.generate_emission(em, exc, PS_S, seed=0, workers=0)

    def test_emission_record_shape_mismatch(self):
        with pytest.raises(ValueError):
            pk.EmissionRecord(np.array([1, 2]), np.array([True]), (), 10, None)
