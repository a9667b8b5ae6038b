"""Blinking analysis tests: segmentation, dwell statistics, model selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import photonkit as pk

MS = pk.PS_PER_MS


def trace_of(counts):
    c = np.asarray(counts, dtype=np.int64)
    return pk.IntensityTrace(c, MS, c.size * MS)


class TestSegmentTrace:
    def test_explicit_runs(self):
        segs = pk.segment_trace(trace_of([100, 100, 0, 0, 0, 100]), 50.0)
        assert segs == [pk.Segment(True, 0, 2 * MS),
                        pk.Segment(False, 2 * MS, 5 * MS),
                        pk.Segment(True, 5 * MS, 6 * MS)]

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=80),
           st.floats(0.0, 250.0))
    @settings(max_examples=200, deadline=None)
    def test_conservation_alternation_and_state(self, counts, threshold):
        trace = trace_of(counts)
        segs = pk.segment_trace(trace, threshold)
        assert segs[0].start == 0
        assert segs[-1].end == trace.span
        assert sum(s.duration_ps for s in segs) == trace.span
        for prev, cur in zip(segs, segs[1:]):
            assert cur.start == prev.end
            assert cur.on != prev.on
        rates = trace.rates_per_ms
        for s in segs:
            bins = rates[s.start // MS:s.end // MS]
            assert np.all((bins >= threshold) == s.on)

    def test_threshold_zero_is_all_on(self):
        segs = pk.segment_trace(trace_of([0, 5, 0]), 0.0)
        assert segs == [pk.Segment(True, 0, 3 * MS)]

    def test_raising_threshold_never_adds_on_time(self):
        rng = np.random.default_rng(1)
        trace = trace_of(rng.integers(0, 200, 500))

        def on_time(thr):
            return sum(s.duration_ps for s in pk.segment_trace(trace, thr)
                       if s.on)

        times = [on_time(t) for t in (0.0, 30.0, 60.0, 120.0, 500.0)]
        assert times == sorted(times, reverse=True)
        assert times[-1] == 0

    def test_empty_and_errors(self):
        assert pk.segment_trace(pk.IntensityTrace(np.empty(0, np.int64), MS, 0),
                                50.0) == []
        with pytest.raises(ValueError):
            pk.segment_trace(trace_of([1, 2]), -1.0)

    def test_nan_threshold_refused_by_name(self):
        with pytest.raises(ValueError, match=(
                "^threshold_per_ms must be a number, got nan")):
            pk.segment_trace(trace_of([1, 200]), float("nan"))
        with pytest.raises(ValueError, match="^threshold_per_ms"):
            pk.analyze_blinking(trace_of([1, 200]), float("nan"))


class TestPowerLawMle:
    def test_closed_form(self):
        d = np.exp([0.0, 1.0, 2.0, 4.0])
        m = pk.fit_power_law_mle(d, tau_min_ms=1.0)
        assert m.value == pytest.approx(4.0 / 7.0)
        assert m.sigma == pytest.approx(4.0 / 7.0 / 2.0)

    def test_below_tau_min_excluded(self):
        d = np.concatenate((np.exp([0.0, 1.0, 2.0, 4.0]), [0.5, 0.9]))
        m = pk.fit_power_law_mle(d, tau_min_ms=1.0)
        assert m.value == pytest.approx(4.0 / 7.0)

    def test_default_tau_min_is_sample_minimum(self):
        d = np.array([2.0, 2.0 * np.e, 2.0 * np.e ** 3])
        m = pk.fit_power_law_mle(d)
        assert m.value == pytest.approx(3.0 / 4.0)

    def test_consistency_against_pareto_draws(self):
        alpha = 0.6
        pulls = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = stats.pareto.rvs(alpha, size=10_000, random_state=rng)
            m = pk.fit_power_law_mle(d, tau_min_ms=1.0)
            pulls.append((m.value - alpha) / m.sigma)
            assert abs(m.value - alpha) < 5 * m.sigma
        # the pull mean over 30 draws should be near zero
        assert abs(np.mean(pulls)) < 3 / np.sqrt(30) + 0.5

    def test_errors(self):
        with pytest.raises(ValueError):
            pk.fit_power_law_mle([])
        with pytest.raises(ValueError):
            pk.fit_power_law_mle([1.0, 2.0], tau_min_ms=0.0)
        with pytest.raises(ValueError):
            pk.fit_power_law_mle([0.5, 3.0], tau_min_ms=1.0)
        with pytest.raises(ValueError):
            pk.fit_power_law_mle([2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="finite and positive"):
            pk.fit_power_law_mle([1.0, -2.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            pk.fit_power_law_mle([[1.0, 2.0]])


class TestExponentialDwell:
    def test_closed_form(self):
        m = pk.fit_exponential_dwell([1.0, 2.0, 3.0, 6.0])
        assert m.value == pytest.approx(1.0 / 3.0)
        assert m.sigma == pytest.approx(1.0 / 3.0 / 2.0)

    def test_recovery(self):
        rng = np.random.default_rng(3)
        d = rng.exponential(25.0, 20_000)
        m = pk.fit_exponential_dwell(d)
        assert abs(m.value - 1 / 25.0) < 4 * m.sigma

    def test_errors(self):
        with pytest.raises(ValueError):
            pk.fit_exponential_dwell([5.0])


class TestCompareModels:
    def test_power_law_data_selects_power_law(self):
        rng = np.random.default_rng(5)
        d = stats.pareto.rvs(0.5, size=5000, random_state=rng)
        comp = pk.compare_dwell_models(d, tau_min_ms=1.0)
        assert comp.verdict == "power_law"
        assert comp.log_ratio > 0
        assert comp.n == 5000

    def test_exponential_data_selects_exponential(self):
        rng = np.random.default_rng(6)
        d = rng.exponential(30.0, 5000) + 1.0
        comp = pk.compare_dwell_models(d, tau_min_ms=1.0)
        assert comp.verdict == "exponential"
        assert comp.log_ratio < 0

    def test_likelihoods_match_direct_evaluation(self):
        rng = np.random.default_rng(7)
        d = stats.pareto.rvs(0.8, size=400, random_state=rng)
        comp = pk.compare_dwell_models(d, tau_min_ms=1.0)
        a = comp.alpha.value
        lam = comp.rate_per_ms.value
        llp = float(np.log(a * 1.0 ** a * d ** -(1.0 + a)).sum())
        lle = float(np.log(lam * np.exp(-lam * d)).sum())
        assert comp.log_likelihood_power == pytest.approx(llp)
        assert comp.log_likelihood_exponential == pytest.approx(lle)

    def test_tie_breaks_toward_power_law(self):
        comp = pk.DwellModelComparison(
            pk.Measurement(0.5, 0.1), pk.Measurement(0.1, 0.01),
            -100.0, -100.0, 10)
        assert comp.log_ratio == 0.0
        assert comp.verdict == "power_law"


class TestAlphaDistribution:
    def test_matches_analytic_error(self):
        rng = np.random.default_rng(8)
        d = stats.pareto.rvs(0.5, size=2000, random_state=rng)
        boot = pk.alpha_distribution(d, n_boot=300, seed=1, tau_min_ms=1.0)
        assert boot.shape == (300,)
        m = pk.fit_power_law_mle(d, tau_min_ms=1.0)
        assert abs(boot.mean() - m.value) < 3 * m.sigma
        assert m.sigma / 2 < boot.std() < m.sigma * 2

    def test_deterministic(self):
        d = stats.pareto.rvs(0.5, size=200,
                             random_state=np.random.default_rng(9))
        a = pk.alpha_distribution(d, n_boot=50, seed=3)
        b = pk.alpha_distribution(d, n_boot=50, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_errors(self):
        with pytest.raises(ValueError):
            pk.alpha_distribution([1.0])
        with pytest.raises(ValueError):
            pk.alpha_distribution([1.0, 2.0], n_boot=0)
        with pytest.raises(ValueError, match="^n_boot must be a whole number"):
            pk.alpha_distribution([1.0, 2.0], n_boot=2.5)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            pk.alpha_distribution([1.0, 2.0], seed=-1)


class TestDegenerateResamples:
    """A resample the estimator would refuse is NaN instead of the end of
    the bootstrap. Thresholded dwells are whole bins, so a small sample
    often resamples to its shortest dwell alone; the sample itself is
    fitted and would be characterized."""

    D = np.array([1, 1, 1, 1, 1, 1, 2, 5], float)

    def resamples(self, seed, n_boot=200):
        """The resamples ``alpha_distribution`` draws, drawn again."""
        rng = np.random.Generator(np.random.PCG64(seed))
        return [rng.choice(self.D, size=self.D.size, replace=True)
                for _ in range(n_boot)]

    def test_sample_is_fitted(self):
        assert pk.fit_power_law_mle(self.D).value == pytest.approx(3.474,
                                                                   abs=1e-3)

    def test_nan_exactly_on_all_equal_resamples(self):
        boot = pk.alpha_distribution(self.D, n_boot=200, seed=0)
        samples = self.resamples(0)
        equal = np.array([np.all(s == s[0]) for s in samples])
        assert 0 < equal.sum() < equal.size
        np.testing.assert_array_equal(np.isnan(boot), equal)
        for value, sample in zip(boot, samples):
            if not np.isnan(value):
                assert value == pk.fit_power_law_mle(sample).value

    def test_nan_on_each_refusal_at_a_given_tau_min(self):
        tau = 2.0
        boot = pk.alpha_distribution(self.D, n_boot=200, seed=1,
                                     tau_min_ms=tau)
        few = flat = 0
        for value, sample in zip(boot, self.resamples(1)):
            above = sample[sample >= tau]
            few += above.size < 2
            flat += above.size >= 2 and np.all(above == tau)
            if above.size < 2 or np.all(above == tau):
                assert np.isnan(value)
            else:
                assert value == pk.fit_power_law_mle(sample, tau).value
        assert few and flat and np.isfinite(boot).any()

    @pytest.mark.parametrize("durations, tau, message", [
        ([2.0, 2.0, 2.0], None, "no spread above tau_min"),
        ([1.0, 1.0, 2.0, 2.0], 2.0, "no spread above tau_min"),
        ([1.0, 1.0, 1.0, 5.0], 2.0, "need at least 2 durations above"),
        ([1.0, 2.0], 0.0, "tau_min_ms must be positive"),
    ])
    def test_refused_sample_still_raises(self, durations, tau, message):
        with pytest.raises(ValueError, match=message):
            pk.alpha_distribution(durations, tau_min_ms=tau)


class TestDurationSampleChecks:
    """The exponential fit, the model comparison and the bootstrap refuse
    the same bad duration samples as the power-law fit, before any
    estimate is taken."""

    @pytest.mark.parametrize("estimator", [
        pk.fit_exponential_dwell, pk.compare_dwell_models,
        pk.alpha_distribution])
    @pytest.mark.parametrize("durations, message", [
        ([1.0, -2.0], "finite and positive"),
        ([1.0, np.nan, 3.0], "finite and positive"),
        ([[1.0, 2.0]], "one-dimensional"),
    ], ids=["negative", "nan", "2d"])
    def test_refused(self, estimator, durations, message):
        with pytest.raises(ValueError, match=message):
            estimator(durations)


class TestNanCutoffs:
    """A NaN dwell cut-off compares false with every duration; it is
    refused by name, not read as a cut that keeps no dwell."""

    NAN = float("nan")

    @pytest.mark.parametrize("estimator", [
        pk.fit_power_law_mle, pk.compare_dwell_models, pk.alpha_distribution])
    def test_tau_min_refused(self, estimator):
        d = stats.pareto.rvs(0.5, size=50,
                             random_state=np.random.default_rng(4))
        with pytest.raises(ValueError,
                           match="^tau_min_ms must be a number, got nan"):
            estimator(d, tau_min_ms=self.NAN)

    @pytest.mark.parametrize("key, value, message", [
        ("min_dwell_ms", NAN, "must be a number"),
        ("tau_min_ms", NAN, "must be a number"),
        ("tau_min_ms", -1, "must be positive")],
        ids=["min_dwell_ms", "tau_min_ms", "tau_min_ms_negative"])
    def test_analyze_blinking_refuses(self, key, value, message):
        # Too few dwells to fit: tau_min_ms is refused before any fit.
        trace = trace_of([100, 0, 100, 100, 0, 0, 100])
        with pytest.raises(ValueError, match=f"^{key} {message}"):
            pk.analyze_blinking(trace, 50.0, **{key: value})


class TestAnalyzeBlinking:
    def test_boundary_segments_are_censored(self):
        result = pk.analyze_blinking(trace_of([100, 100, 0, 0, 0, 100]),
                                     threshold_per_ms=50.0)
        np.testing.assert_array_equal(result.off_durations_ms, [3.0])
        assert result.on_durations_ms.size == 0
        assert result.alpha_on is None and result.model_on is None
        assert result.mean_on_rate_per_ms == pytest.approx(100.0)
        assert result.mean_off_rate_per_ms == pytest.approx(0.0)
        assert result.threshold == 50.0

    def test_min_dwell_filters_short_segments(self):
        trace = trace_of([100, 0, 100, 100, 0, 0, 100])
        full = pk.analyze_blinking(trace, 50.0)
        np.testing.assert_array_equal(full.off_durations_ms, [1.0, 2.0])
        np.testing.assert_array_equal(full.on_durations_ms, [2.0])
        filtered = pk.analyze_blinking(trace, 50.0, min_dwell_ms=1.5)
        np.testing.assert_array_equal(filtered.off_durations_ms, [2.0])
        np.testing.assert_array_equal(filtered.on_durations_ms, [2.0])

    def test_two_state_exponential_loop(self):
        law = pk.BlinkingLaw(kind="two_state_exponential", mean_on_ms=40.0,
                             mean_off_ms=25.0, off_emission_rate_per_ms=20.0)
        trace, _ = pk.simulate_intensity_trace(law, 200.0, 120 * pk.PS_PER_S,
                                               seed=12)
        result = pk.analyze_blinking(trace, threshold_per_ms=50.0,
                                     min_dwell_ms=3.0, tau_min_ms=3.0)
        assert result.model_on == "exponential"
        assert result.model_off == "exponential"
        assert abs(result.mean_on_rate_per_ms - 200.0) < 10.0
        assert abs(result.mean_off_rate_per_ms - 20.0) < 5.0

    def test_power_law_loop(self):
        law = pk.BlinkingLaw(kind="power_law", alpha_on=0.5, alpha_off=0.5,
                             min_dwell_ms=3.0, max_dwell_ms=100_000.0,
                             off_emission_rate_per_ms=20.0)
        trace, _ = pk.simulate_intensity_trace(law, 200.0, 120 * pk.PS_PER_S,
                                               seed=13)
        result = pk.analyze_blinking(trace, threshold_per_ms=50.0,
                                     min_dwell_ms=3.0, tau_min_ms=3.0)
        assert result.model_on == "power_law"
        assert result.model_off == "power_law"
        assert result.alpha_on.sigma > 0

    def test_sparse_state_reports_none(self):
        result = pk.analyze_blinking(trace_of([100] * 10), 50.0)
        assert result.alpha_on is None
        assert result.reason_on == "too few dwells to characterize"
        assert result.on_durations_ms.size == 0
        assert result.mean_on_rate_per_ms == pytest.approx(100.0)

    # ON and OFF run lengths in 1 ms bins. (a): one ON dwell at or above
    # tau_min_ms = 5. (b): every ON dwell is as long as the cut-off, the
    # sample minimum, so the estimator refuses the ON sample.
    REFUSED_ON = {
        "one_above_cutoff": ([10 if k == 10 else 1 + k % 4 for k in range(20)],
                             [5 + k % 5 for k in range(20)], 5.0),
        "no_spread": ([1] * 30, [1 + k % 5 for k in range(30)], None),
    }
    # Why each state above has no exponent: too sparse a sample above the
    # cut-off, or the estimator's refusal.
    REASONS = {
        "one_above_cutoff": "too few dwells to characterize",
        "no_spread": "estimator refused the dwells: durations have no "
                     "spread above tau_min",
    }

    @pytest.mark.parametrize("case", list(REFUSED_ON))
    def test_refused_state_reports_none(self, case):
        on, off, tau_min_ms = self.REFUSED_ON[case]
        counts = [c for a, b in zip(on, off) for c in [100] * a + [0] * b]
        result = pk.analyze_blinking(trace_of(counts), 50.0,
                                     tau_min_ms=tau_min_ms)
        assert result.alpha_on is None and result.model_on is None
        assert result.alpha_off is not None and result.model_off is not None
        assert result.reason_on == self.REASONS[case]
        assert result.reason_off is None
        assert result.mean_on_rate_per_ms == pytest.approx(100.0)
        assert result.mean_off_rate_per_ms == pytest.approx(0.0)
