"""Simulator tests: determinism, photon statistics, detector effects."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonkit as pk
from photonkit import pipeline
from photonkit.sim import _dead_time_filter
from photonkit.sim import _TAG_DETECT, _rng

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

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_biexciton_probability_refused(self, p):
        # A CW piece draws no biexciton photon, so the setting is refused
        # rather than ignored.
        em = quiet_emitter(biexciton_probability=p)
        with pytest.raises(ValueError, match="biexciton_probability"):
            pk.generate_emission(em, pk.ExcitationConfig("cw"), PS_S, seed=1)


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
            assert np.all(np.diff(s.events) >= 0)
            assert s.events.min() >= 0 and s.events.max() <= s.duration

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

    def test_trim_to_duration_equals_mask(self):
        # 1 ps jitter on events piled at both ends pushes some below 0
        # and some past the duration and leaves some exactly on either
        # edge; the channel keeps exactly the jittered times inside
        # [0, duration], edges included, as a mask would.
        duration = 10**6
        rng = np.random.default_rng(8)
        ev = np.sort(np.concatenate((
            np.zeros(300, np.int64), np.full(300, duration),
            rng.integers(0, duration + 1, 400))))
        det = pk.DetectorModel(dark_rate_per_ms=0.0, jitter_sigma_ps=1.0,
                               dead_time_ps=0)
        ch0, ch1, _ = pk.detect_hbt(pk.TimestampStream(0, ev, duration),
                                    det, seed=5)
        draws = _rng(5, _TAG_DETECT)  # the draws detect_hbt makes, in order
        to_a = draws.random(ev.size) < det.splitter_ratio
        kept = draws.random(ev.size) < det.efficiency
        t = ev + np.rint(draws.normal(0.0, det.jitter_sigma_ps,
                                      ev.size)).astype(np.int64)
        for got, mask in ((ch0, to_a & kept), (ch1, ~to_a & kept)):
            raw = np.sort(t[mask], kind="stable")
            assert (raw < 0).any() and (raw > duration).any()
            assert (raw == 0).any() and (raw == duration).any()
            np.testing.assert_array_equal(
                got.events, raw[(raw >= 0) & (raw <= duration)])

    def test_accepts_raw_timestamp_stream(self):
        src = pk.simulate_poissonian(1e6, PS_S, seed=3)
        det = pk.DetectorModel(dark_rate_per_ms=0.0, jitter_sigma_ps=0.0,
                               dead_time_ps=0)
        ch0, ch1, sync = pk.detect_hbt(src, det, seed=3)
        assert len(ch0) + len(ch1) == len(src)
        assert len(sync) == 0
        merged = np.sort(np.concatenate((ch0.events, ch1.events)))
        np.testing.assert_array_equal(merged, src.events)


def sequential_detect(emission, det, seed):
    """The two detector channels drawn the plain way: one generator, each
    draw in order (splitter, efficiency, jitter, then each channel's dark
    counts), one channel after the other."""
    if isinstance(emission, pk.TimestampStream):
        t, duration = emission.events, emission.duration
    else:
        t, duration = emission.times, emission.duration
    rng = _rng(seed, _TAG_DETECT)
    n = t.size
    to_a = rng.random(n) < det.splitter_ratio
    kept = rng.random(n) < det.efficiency
    if det.jitter_sigma_ps > 0:
        t = t + np.rint(rng.normal(0.0, det.jitter_sigma_ps, n)).astype(np.int64)
    channels = []
    for mask in (to_a & kept, ~to_a & kept):
        ch = t[mask]
        n_dark = rng.poisson(det.dark_rate_per_ms * duration / PS_MS)
        if n_dark:
            ch = np.concatenate((ch, rng.integers(0, duration + 1, n_dark)))
        ch = np.sort(ch, kind="stable")
        ch = ch[(ch >= 0) & (ch <= duration)]
        channels.append(_dead_time_filter(ch, det.dead_time_ps))
    return channels


DETECTORS = {
    "default": pk.DetectorModel(),
    "lossy": pk.DetectorModel(efficiency=0.6, splitter_ratio=0.4,
                              dark_rate_per_ms=5.0),
    "no_jitter": pk.DetectorModel(efficiency=0.7, jitter_sigma_ps=0.0),
    "no_dark": pk.DetectorModel(efficiency=0.7, dark_rate_per_ms=0.0),
    "efficiency_0": pk.DetectorModel(efficiency=0.0, dark_rate_per_ms=3.0),
    "efficiency_1": pk.DetectorModel(efficiency=1.0, splitter_ratio=0.3),
    "splitter_0": pk.DetectorModel(efficiency=0.8, splitter_ratio=0.0),
    "splitter_1": pk.DetectorModel(efficiency=0.8, splitter_ratio=1.0),
}


@pytest.fixture(scope="module")
def emissions():
    """About 10^5 photons each: CW with background, pulsed at half
    excitation, a raw Poissonian stream, and an empty record."""
    em = quiet_emitter(blinking=pk.BlinkingLaw(off_emission_rate_per_ms=20.0))
    return {
        "cw": pk.generate_emission(
            em, pk.ExcitationConfig("cw", cw_rate_per_s=1e5), PS_S, seed=21),
        "pulsed": pk.generate_emission(
            em, pk.ExcitationConfig("pulsed", excitation_probability=0.5),
            PS_S // 50, seed=22),
        "raw_stream": pk.simulate_poissonian(1e5, PS_S, seed=23),
        "empty": pk.EmissionRecord(
            np.empty(0, np.int64), np.empty(0, bool),
            (pk.Segment(True, 0, PS_S // 10),), PS_S // 10, None),
    }


class TestDetectWorkers:
    """``detect_hbt`` starts each draw at its offset in the one detection
    stream on its own generator and maps the channels over the worker
    pool; at any worker count it must equal the plain sequential draw."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("det_name", sorted(DETECTORS))
    @pytest.mark.parametrize("source", ["cw", "pulsed"])
    def test_matches_sequential_draws(self, emissions, source, det_name,
                                      workers):
        emission = emissions[source]
        assert 5e4 < len(emission) < 2e5
        det = DETECTORS[det_name]
        ch0, ch1, _ = pk.detect_hbt(emission, det, seed=31, workers=workers)
        want0, want1 = sequential_detect(emission, det, seed=31)
        np.testing.assert_array_equal(ch0.events, want0)
        np.testing.assert_array_equal(ch1.events, want1)
        assert (ch0.channel, ch1.channel) == (pk.CHANNEL_A, pk.CHANNEL_B)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("source", ["raw_stream", "empty"])
    def test_raw_and_empty_inputs(self, emissions, source, workers):
        emission = emissions[source]
        det = DETECTORS["lossy"]
        ch0, ch1, sync = pk.detect_hbt(emission, det, seed=32,
                                       workers=workers)
        want0, want1 = sequential_detect(emission, det, seed=32)
        np.testing.assert_array_equal(ch0.events, want0)
        np.testing.assert_array_equal(ch1.events, want1)
        assert len(ch0) and len(ch1)  # dark counts at least
        assert len(sync) == 0

    def test_zero_workers_rejected(self, emissions):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            pk.detect_hbt(emissions["cw"], pk.DetectorModel(), seed=1,
                          workers=0)


class TestBlockedDraws:
    """Pulsed pieces and detection draw photon-sized arrays in blocks of
    ``_BLOCK`` values; the block size must not change any output."""

    MODELS = {
        "pulsed_p04": (quiet_emitter(), 0.4),
        "pulsed_p1": (quiet_emitter(), 1.0),
        "quantum_yield": (quiet_emitter(quantum_yield=0.8), 0.7),
        "biexciton": (quiet_emitter(biexciton_probability=0.3), 0.5),
        "empty": (quiet_emitter(), 0.0),
    }

    def emission(self, name, workers):
        if name == "cw_background":
            em = quiet_emitter(
                blinking=pk.BlinkingLaw(off_emission_rate_per_ms=3.0))
            exc = pk.ExcitationConfig("cw", cw_rate_per_s=3e3)
        else:
            em, p = self.MODELS[name]
            exc = pk.ExcitationConfig("pulsed", pulse_period_ps=200 * 10**6,
                                      excitation_probability=p)
        # Two generation blocks, a partial one last, a few thousand photons.
        return pk.generate_emission(em, exc, PS_S + PS_S // 200, seed=41,
                                    workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(MODELS) + ["cw_background"])
    def test_emission_independent_of_block(self, monkeypatch, name, block,
                                           workers):
        want = self.emission(name, 1)
        monkeypatch.setattr(pk.sim, "_BLOCK", block)
        got = self.emission(name, workers)
        assert got == want
        assert got.times.dtype == np.int64
        assert (len(got) == 0) == (name == "empty")
        if name == "cw_background":
            assert 0 < got.is_signal.sum() < len(got)

    def test_pulsed_piece_draw_offsets(self):
        """The three generators of a pulsed piece continue one stream."""
        em, exc = quiet_emitter(), pk.ExcitationConfig(
            "pulsed", excitation_probability=0.4)
        lo, hi = 3 * 100_000 + 1, 4000 * 100_000
        rng = _rng(5, pk.sim._TAG_SIGNAL, 2)
        k = np.arange(4, 4000)
        pulse_t = k[rng.random(k.size) < 0.4] * 100_000
        absorb = pulse_t + rng.random(pulse_t.size) * exc.pulse_width_ps
        want = np.rint(absorb + rng.exponential(em.lifetime_ns * PS_NS,
                                                pulse_t.size))
        got = pk.sim._pulsed_piece(5, 2, lo, hi, exc, em)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want.astype(np.int64))
        no_pulse = pk.sim._pulsed_piece(5, 2, 1, 100_000, exc, em)
        assert no_pulse.dtype == np.int64 and no_pulse.size == 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("det_name", sorted(DETECTORS))
    def test_detection_at_tiny_block(self, monkeypatch, det_name, workers):
        emission = self.emission("pulsed_p04", 1)
        assert 2000 < len(emission) < 10_000
        det = DETECTORS[det_name]
        monkeypatch.setattr(pk.sim, "_BLOCK", 7)
        ch0, ch1, _ = pk.detect_hbt(emission, det, seed=33, workers=workers)
        want0, want1 = sequential_detect(emission, det, seed=33)
        np.testing.assert_array_equal(ch0.events, want0)
        np.testing.assert_array_equal(ch1.events, want1)


class TestDetectSegments:
    """``detect_hbt`` draws the jitter of one segment of ``_SEGMENT``
    blocks while it routes the one before it. With a block small enough
    that an emission spans many segments, and a last one cut short, it
    must still equal the plain sequential draw at every worker count, and
    its streams must own their arrays."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1000, 4099])
    @pytest.mark.parametrize("det_name", ["default", "lossy", "no_jitter"])
    @pytest.mark.parametrize("source", ["cw", "pulsed", "raw_stream"])
    def test_matches_sequential_draws(self, monkeypatch, emissions, source,
                                      det_name, block, workers):
        emission = emissions[source]
        segment = pk.sim._SEGMENT * block
        assert len(emission) > 4 * segment and len(emission) % segment
        det = DETECTORS[det_name]
        monkeypatch.setattr(pk.sim, "_BLOCK", block)
        ch0, ch1, _ = pk.detect_hbt(emission, det, seed=34, workers=workers)
        want0, want1 = sequential_detect(emission, det, seed=34)
        np.testing.assert_array_equal(ch0.events, want0)
        np.testing.assert_array_equal(ch1.events, want1)
        assert ch0.events.base is None and ch1.events.base is None


class TestCwQuantumYield:
    """A CW piece thins its renewal photons by the quantum yield with one
    uniform per photon, drawn after the renewal times from the same
    generator: the kept photons are a subset of the full-yield run, and
    neither the block size nor the worker count changes them."""

    def emission(self, quantum_yield, workers=1):
        em = quiet_emitter(quantum_yield=quantum_yield)
        exc = pk.ExcitationConfig("cw", cw_rate_per_s=3e3)
        # Two generation blocks, a partial one last.
        return pk.generate_emission(em, exc, PS_S + PS_S // 200, seed=43,
                                    workers=workers)

    def test_thins_the_full_yield_photons(self):
        full, half = self.emission(1.0), self.emission(0.5)
        assert np.isin(half.times, full.times).all()
        frac = len(half) / len(full)
        assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / len(full))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_independent_of_block_and_workers(self, monkeypatch, block,
                                              workers):
        want = self.emission(0.5)
        monkeypatch.setattr(pk.sim, "_BLOCK", block)
        got = self.emission(0.5, workers)
        assert got == want
        assert 0 < len(got) < len(self.emission(1.0))


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
        for rate in (np.nan, np.inf):
            with pytest.raises(ValueError, match=(
                    f"^rate_per_s must be a number, got {rate}")):
                pk.simulate_poissonian(rate, PS_S, seed=0)


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
        for rate in (np.nan, np.inf):
            with pytest.raises(ValueError, match=(
                    f"^on_rate_per_ms must be a number, got {rate}")):
                pk.simulate_intensity_trace(pk.BlinkingLaw(), rate, PS_S,
                                            seed=0)


class TestConstructionChecks:
    """A simulator model checks itself when it is built, so an invalid one
    never exists: not by construction, not by ``dataclasses.replace``."""

    CASES = [
        (pk.BlinkingLaw, {"kind": "power_law"}, {"alpha_on": 1.0},
         "alpha_on must lie in (0, 1), got 1.0"),
        (pk.EmitterModel, {}, {"lifetime_ns": 0.0},
         "lifetime_ns must be positive, got 0.0"),
        (pk.EmitterModel, {}, {"blinking": {"kind": "power_law"}},
         "blinking must be a BlinkingLaw, got dict"),
        (pk.ExcitationConfig, {"mode": "pulsed"}, {"pulse_width_ps": -1},
         "pulse_width_ps must lie in [0, period)"),
        (pk.DetectorModel, {}, {"efficiency": 1.2},
         "efficiency must lie in [0, 1], got 1.2"),
    ]

    @pytest.mark.parametrize("cls, base, bad, message", CASES)
    def test_refused_when_built(self, cls, base, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**base, **bad)

    @pytest.mark.parametrize("cls, base, bad, message", CASES)
    def test_refused_by_replace(self, cls, base, bad, message):
        good = cls(**base)
        good.validate()  # still callable on a valid model
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(good, **bad)

    def test_bad_detector_block_is_refused_before_simulation(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "generate_emission",
                            lambda *args: calls.append(args))
        doc = pipeline.run_pipeline(
            {"mode": "simulate", "duration_s": 0.01,
             "detector": {"efficiency": 1.2}}, base_dir=str(tmp_path))
        assert doc.errors == [{
            "stage": "simulate", "type": "ValueError",
            "message": "efficiency must lie in [0, 1], got 1.2"}]
        assert calls == []
        assert list(tmp_path.iterdir()) == []


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
        for bad in ({"efficiency": 1.2}, {"splitter_ratio": -0.1},
                    {"dark_rate_per_ms": -1.0}, {"jitter_sigma_ps": -1.0},
                    {"dead_time_ps": -1}):
            with pytest.raises(ValueError):
                pk.DetectorModel(**bad).validate()

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


class TestModelFieldNumbers:
    """The simulator models' real-valued fields are numbers by the job
    keys' rule, checked on construction: a bool, a string, null, a list,
    NaN or an infinity is refused by name. Only ``max_dwell_ms`` takes an
    infinity, so an untruncated power law stays valid."""

    @pytest.mark.parametrize("value", [True, "4.7", None, [4.7],
                                       float("nan")])
    @pytest.mark.parametrize("model, name", [
        (pk.BlinkingLaw, "max_dwell_ms"), (pk.EmitterModel, "lifetime_ns"),
        (pk.ExcitationConfig, "excitation_probability"),
        (pk.DetectorModel, "jitter_sigma_ps")])
    def test_refused_by_name(self, model, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a number, got "):
            model(**{name: value})

    @pytest.mark.parametrize("model, name", [
        (pk.EmitterModel, "lifetime_ns"),
        (pk.ExcitationConfig, "cw_rate_per_s"),
        (pk.DetectorModel, "jitter_sigma_ps"),
        (pk.DetectorModel, "dark_rate_per_ms")])
    def test_infinity_refused_by_name(self, model, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a number, got inf$"):
            model(**{name: float("inf")})

    def test_integral_and_infinite_values(self):
        assert pk.EmitterModel(lifetime_ns=5) == pk.EmitterModel(
            lifetime_ns=5.0)
        assert type(pk.DetectorModel(efficiency=1).efficiency) is float
        law = pk.BlinkingLaw(kind="power_law", max_dwell_ms=float("inf"))
        law.validate()
        assert np.all(pk.sample_dwells_ms(law, True, 100, seed=1) >= 1.0)

    def test_poissonian_duration_is_whole_ps(self):
        assert (pk.simulate_poissonian(1e6, 1e9, seed=0)
                == pk.simulate_poissonian(1e6, 10**9, seed=0))
        for bad in ("1000", 1e9 + 0.5):
            with pytest.raises(ValueError, match="^duration must be a"):
                pk.simulate_poissonian(1e6, bad, seed=0)
