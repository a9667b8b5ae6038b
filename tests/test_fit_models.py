"""Model-level fit tests: Jacobians, inversion, drivers, derived quantities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonkit as pk
from photonkit import fit as fitmod
from photonkit.fit import (
    cw_g2_jacobian,
    cw_g2_model,
    levenberg_marquardt,
    multi_exp_jacobian,
    multi_exp_model,
    numeric_jacobian,
    pulsed_g2_jacobian,
    pulsed_g2_model,
)


def away_from_kinks(tau, centers, margin=1e-3):
    keep = np.ones(tau.size, dtype=bool)
    for c in centers:
        keep &= np.abs(tau - c) > margin
    return tau[keep]


class TestAnalyticJacobians:
    def test_cw(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(-40, 40, 401)
        for _ in range(30):
            th = np.array([rng.uniform(50, 5000), rng.uniform(0.1, 1.0),
                           rng.uniform(-2, 2), rng.uniform(0.5, 15)])
            tau = away_from_kinks(grid, [th[2]])
            num = numeric_jacobian(cw_g2_model, tau, th)
            ana = cw_g2_jacobian(tau, th)
            np.testing.assert_allclose(num, ana, rtol=1e-6,
                                       atol=1e-6 * np.abs(ana).max())

    def test_pulsed(self):
        period = 50.0
        for n_side in (3, 1, 5):
            rng = np.random.default_rng(2)
            grid = np.linspace(-60 * n_side, 60 * n_side, 400 * n_side + 1)
            for _ in range(20):
                heights = rng.uniform(50, 500, 2 * n_side + 1)
                th = np.concatenate((
                    [rng.uniform(1, 30)], heights,
                    [rng.uniform(-2, 2), rng.uniform(1, 8)]))
                kinks = th[-2] + np.arange(-n_side, n_side + 1) * period
                tau = away_from_kinks(grid, kinks)
                num = numeric_jacobian(
                    lambda x, t: pulsed_g2_model(x, t, period), tau, th)
                ana = pulsed_g2_jacobian(tau, th, period)
                np.testing.assert_allclose(num, ana, rtol=1e-6,
                                           atol=1e-6 * np.abs(ana).max())

    def test_multi_exp(self):
        rng = np.random.default_rng(3)
        # The second grid starts before tau0 = 0.2, where the kernel's
        # argument t - tau0 is negative.
        grids = (np.linspace(0.5, 80, 300), np.linspace(-2, 80, 300))
        for _ in range(30):
            th = np.array([rng.uniform(1, 50),
                           rng.uniform(100, 3000), rng.uniform(0.3, 3),
                           rng.uniform(100, 3000), rng.uniform(4, 30)])
            for t in grids:
                num = numeric_jacobian(
                    lambda x, p: multi_exp_model(x, p, 0.2), t, th)
                ana = multi_exp_jacobian(t, th, 0.2)
                np.testing.assert_allclose(num, ana, rtol=1e-6,
                                           atol=1e-6 * np.abs(ana).max())


class TestModelClosedForms:
    """Each public model equals its closed form, written out here, bit for
    bit at random parameters; the decay grid starts before tau0."""

    def test_cw(self):
        rng = np.random.default_rng(21)
        tau = np.linspace(-60, 60, 481)
        for _ in range(50):
            th = np.array([rng.uniform(50, 5000), rng.uniform(0, 1),
                           rng.uniform(-2, 2), rng.uniform(0.1, 15)])
            a, b, tau0, tau_x = th
            want = a * (1.0 - b * np.exp(-np.abs(tau - tau0) / tau_x))
            assert np.array_equal(cw_g2_model(tau, th), want)

    def test_pulsed(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            period = rng.uniform(20, 60)
            tau = np.linspace(-(n + 0.5) * period, (n + 0.5) * period, 801)
            th = np.concatenate((
                [rng.uniform(0, 30)], rng.uniform(0, 500, 2 * n + 1),
                [rng.uniform(-2, 2), rng.uniform(0.5, 8)]))
            a, b, tau0, tau_x = th[0], th[1:-2], th[-2], th[-1]
            # E_k = exp(-|tau - tau0 - k*T| / tauX), k = -n .. n
            e = np.exp(-np.abs(tau[:, None] - tau0
                               - np.arange(-n, n + 1) * period) / tau_x)
            e0 = e[:, n]
            side = e @ b - b[n] * e0            # sum_{k != 0} b_k E_k
            want = a + b[n] * e0 + (1.0 - e0) * side
            assert np.array_equal(pulsed_g2_model(tau, th, period), want)

    def test_multi_exp(self):
        rng = np.random.default_rng(23)
        t = np.linspace(-3, 80, 500)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            tau0 = rng.uniform(-1, 3)
            th = np.concatenate(([rng.uniform(0, 50)], np.ravel(
                [(rng.uniform(0, 3000), rng.uniform(0.3, 30))
                 for _ in range(k)])))
            floor, amps, taus = th[0], th[1::2], th[2::2]
            want = floor + np.exp(-(t[:, None] - tau0) / taus) @ amps
            assert np.array_equal(multi_exp_model(t, th, tau0), want)


class TestNoiselessInversion:
    def test_cw(self):
        truth = np.array([800.0, 0.85, 0.4, 4.7])
        tau = np.linspace(-60, 60, 481)
        y = cw_g2_model(tau, truth)
        fit = levenberg_marquardt(cw_g2_model, tau, y, truth * [1.3, 0.7, 0.5, 1.6],
                                  jacobian=cw_g2_jacobian)
        assert fit.converged
        np.testing.assert_allclose(fit.theta, truth, rtol=1e-6)

    def test_pulsed(self):
        period = 100.0
        heights = np.array([400.0, 390.0, 410.0, 40.0, 405.0, 395.0, 400.0])
        truth = np.concatenate(([6.0], heights, [0.5, 4.7]))
        tau = np.linspace(-350, 350, 2801)
        y = pulsed_g2_model(tau, truth, period)
        init = truth * np.concatenate(([1.5], np.full(7, 0.8), [0.4, 1.4]))
        fit = levenberg_marquardt(
            lambda x, t: pulsed_g2_model(x, t, period), tau, y, init,
            jacobian=lambda x, t: pulsed_g2_jacobian(x, t, period))
        assert fit.converged
        np.testing.assert_allclose(fit.theta, truth, rtol=1e-6)

    def test_multi_exp(self):
        truth = np.array([12.0, 1500.0, 0.9, 900.0, 8.0])
        t = np.linspace(0.0, 90, 700)
        y = multi_exp_model(t, truth, 0.0)
        init = truth * [2.0, 0.6, 1.5, 1.4, 0.7]
        fit = levenberg_marquardt(
            lambda x, p: multi_exp_model(x, p, 0.0), t, y, init,
            jacobian=lambda x, p: multi_exp_jacobian(x, p, 0.0))
        assert fit.converged
        np.testing.assert_allclose(fit.theta, truth, rtol=1e-6)


def synth_cw_histogram(rng, a=500.0, b=0.8, tau0=0.3, tau_x=4.7,
                       window_ns=50, bin_ns=0.5):
    window = int(window_ns * 1000)
    bw = int(bin_ns * 1000)
    n = 2 * window // bw
    tau = (-window + (np.arange(n) + 0.5) * bw) / 1000.0
    lam = cw_g2_model(tau, [a, b, tau0, tau_x])
    counts = rng.poisson(lam)
    return pk.CoincidenceHistogram(bw, window, counts.astype(np.int64))


class TestCwDriver:
    def test_recovers_parameters(self):
        hist = synth_cw_histogram(np.random.default_rng(10))
        fit = pk.fit_g2_cw(hist)
        assert fit.converged
        assert fit.names == ("plateau", "dip_depth", "tau0_ns", "tau_x_ns")
        m = fit.value_of("tau_x_ns")
        assert abs(m.value - 4.7) < 3 * m.sigma
        # unit weights: reduced chi-square tracks the per-bin variance,
        # which for Poisson counts is the count level itself
        assert 250 < fit.chi2_reduced < 750

    def test_three_sigma_coverage(self):
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(100):
            fit = pk.fit_g2_cw(synth_cw_histogram(rng))
            m = fit.value_of("tau_x_ns")
            hits += abs(m.value - 4.7) < 3 * m.sigma
        # 3 sigma nominally covers 99.7%; leave room for estimation noise
        assert hits >= 95

    def test_flat_histogram_has_no_dip(self):
        hist = pk.CoincidenceHistogram(500, 50_000, np.full(200, 100, np.int64))
        with pytest.raises(pk.NoDipError):
            pk.fit_g2_cw(hist)

    def test_all_zero_rejected(self):
        hist = pk.CoincidenceHistogram(500, 50_000, np.zeros(200, np.int64))
        with pytest.raises(ValueError):
            pk.fit_g2_cw(hist)

    def test_window_without_plateau_rejected(self):
        window, bw = 30_000, 500
        n = 2 * window // bw
        tau = (-window + (np.arange(n) + 0.5) * bw) / 1000.0
        lam = cw_g2_model(tau, [500.0, 0.9, 0.0, 20.0])
        hist = pk.CoincidenceHistogram(bw, window, np.rint(lam).astype(np.int64))
        with pytest.raises(ValueError):
            pk.fit_g2_cw(hist)


def synth_pw_histogram(rng, a=5.0, side=400.0, center=40.0, tau0=0.4,
                       tau_x=4.7, period_ns=100.0, n_side=5,
                       window_ns=600, bin_ns=0.5):
    window = int(window_ns * 1000)
    bw = int(bin_ns * 1000)
    n = 2 * window // bw
    tau = (-window + (np.arange(n) + 0.5) * bw) / 1000.0
    heights = np.full(2 * n_side + 1, side)
    heights[n_side] = center
    theta = np.concatenate(([a], heights, [tau0, tau_x]))
    lam = pulsed_g2_model(tau, theta, period_ns)
    counts = rng.poisson(lam)
    return pk.CoincidenceHistogram(bw, window, counts.astype(np.int64))


class TestPulsedDriver:
    def test_recovers_parameters(self):
        hist = synth_pw_histogram(np.random.default_rng(20))
        fit = pk.fit_g2_pw(hist, period_ns=100.0, n_side=5)
        assert fit.converged
        m = fit.value_of("tau_x_ns")
        # counts span 6..406 across the comb, so the chi2-scaled sigma is
        # only approximately calibrated (pulls widen by ~1.4x); gate at
        # 5 sigma with a 2% relative floor
        assert abs(m.value - 4.7) < max(5 * m.sigma, 0.02 * 4.7)
        p = fit.params
        assert p.n_side == 5
        assert abs(p.center_height / p.side_mean - 0.1) < 0.02
        assert "b[0]" in fit.names and "b[-5]" in fit.names

    def test_window_must_cover_the_comb(self):
        hist = synth_pw_histogram(np.random.default_rng(20), window_ns=400)
        with pytest.raises(ValueError):
            pk.fit_g2_pw(hist, period_ns=100.0, n_side=5)

    def test_featureless_histogram_rejected(self):
        hist = pk.CoincidenceHistogram(
            500, 600_000, np.full(2400, 50, np.int64))
        with pytest.raises(ValueError):
            pk.fit_g2_pw(hist, period_ns=100.0, n_side=5)

    def test_argument_errors(self):
        hist = synth_pw_histogram(np.random.default_rng(20))
        with pytest.raises(ValueError):
            pk.fit_g2_pw(hist, period_ns=0.0)
        with pytest.raises(ValueError,
                           match="^period_ns must be a number, got nan"):
            pk.fit_g2_pw(hist, period_ns=float("nan"))
        with pytest.raises(ValueError):
            pk.fit_g2_pw(hist, period_ns=100.0, n_side=0)
        with pytest.raises(ValueError, match="^n_side must be a whole number"):
            pk.fit_g2_pw(hist, period_ns=100.0, n_side=2.5)
        assert (pk.fit_g2_pw(hist, period_ns=100.0, n_side=2.0).as_dict()
                == pk.fit_g2_pw(hist, period_ns=100.0, n_side=2).as_dict())


class TestPulsedEdgePeaks:
    """A 600 ns window holds half of the peaks at +-600 ns, which the
    five-side-peak model leaves out. The fit keeps to the bins its peaks
    cover, so on a jitter-free comb it matches them to Poisson noise."""

    def test_pearson_chi2_near_one_at_600_ns(self):
        rec = pk.generate_emission(
            pk.EmitterModel(lifetime_ns=4.7),
            pk.ExcitationConfig("pulsed", excitation_probability=0.1),
            pk.PS_PER_S, seed=1)
        ch0, ch1, _ = pk.detect_hbt(
            rec, pk.DetectorModel(efficiency=0.6, jitter_sigma_ps=0.0),
            seed=1)
        hist = pk.cross_correlate(ch0, ch1, 600_000, 500)
        fit = pk.fit_g2_pw(hist, period_ns=100.0, n_side=5)
        assert fit.converged
        theta = fit.params.to_vector()
        tau = hist.tau_centers_ns
        covered = np.abs(tau - fit.params.tau0_ns) <= 5.5 * 100.0
        assert 0 < covered.sum() < tau.size
        model = pulsed_g2_model(tau[covered], theta, 100.0)
        y = hist.counts[covered]
        pearson = float(((y - model) ** 2 / model).sum())
        assert 0.9 < pearson / (y.size - theta.size) < 1.15
        tau_x = fit.value_of("tau_x_ns")
        assert abs(tau_x.value - 4.7) < 3 * tau_x.sigma


def synth_decay_histogram(rng, floor, pairs, tau0=0.2, bin_ns=0.1,
                          period_ns=100.0):
    bw = int(bin_ns * 1000)
    period = int(period_ns * 1000)
    n = period // bw
    t = (np.arange(n) + 0.5) * bw / 1000.0
    lam = np.full(n, float(floor))
    for amp, tau in pairs:
        sel = t >= tau0
        lam[sel] += amp * np.exp(-(t[sel] - tau0) / tau)
    counts = rng.poisson(lam)
    return pk.DecayHistogram(bw, period, counts.astype(np.int64))


class TestMultiExpDriver:
    def test_biexponential_recovery(self):
        rng = np.random.default_rng(30)
        hist = synth_decay_histogram(rng, 10.0, [(3000.0, 1.334), (800.0, 24.164)])
        fit = pk.fit_multiexp(hist, n_components=2)
        assert fit.converged
        taus = fit.params.lifetimes_ns
        assert taus[0] < taus[1]
        for name, truth in (("tau1_ns", 1.334), ("tau2_ns", 24.164)):
            m = fit.value_of(name)
            assert abs(m.value - truth) < 3 * m.sigma

    def test_overfitting_is_flagged(self):
        rng = np.random.default_rng(31)
        hist = synth_decay_histogram(rng, 10.0, [(3000.0, 4.0)])
        fit = pk.fit_multiexp(hist, n_components=2)
        assert "degenerate_component" in fit.flags
        assert "suggest_n_components=1" in fit.flags

    def test_argument_errors(self):
        rng = np.random.default_rng(32)
        hist = synth_decay_histogram(rng, 10.0, [(3000.0, 4.0)])
        with pytest.raises(ValueError):
            pk.fit_multiexp(hist, n_components=0)
        with pytest.raises(ValueError,
                           match="^n_components must be a whole number"):
            pk.fit_multiexp(hist, 1.5)
        tiny = pk.DecayHistogram(500, 2000, np.array([9, 3, 2, 1], np.int64))
        with pytest.raises(ValueError):
            pk.fit_multiexp(tiny, n_components=2)
        empty = pk.DecayHistogram(500, 10_000, np.zeros(20, np.int64))
        with pytest.raises(ValueError):
            pk.fit_multiexp(empty)


class TestNormalization:
    def test_scaling_counts_and_normalizer_is_invariant(self):
        counts = np.arange(1, 201, dtype=np.int64)
        h1 = pk.CoincidenceHistogram(500, 50_000, counts, normalization=123.0)
        h7 = pk.CoincidenceHistogram(500, 50_000, counts * 7,
                                     normalization=7 * 123.0)
        np.testing.assert_allclose(h7.normalized, h1.normalized,
                                   rtol=1e-10, atol=0)

    def test_refit_of_scaled_histogram_matches(self):
        hist = synth_cw_histogram(np.random.default_rng(40), a=2000.0)
        scaled = pk.CoincidenceHistogram(hist.bin_width, hist.window,
                                         hist.counts * 7)
        f1 = pk.fit_g2_cw(hist)
        f7 = pk.fit_g2_cw(scaled)
        n1, m1 = pk.normalize_g2(hist, f1)
        n7, m7 = pk.normalize_g2(scaled, f7)
        assert n7.normalization == pytest.approx(7 * n1.normalization, rel=1e-6)
        assert m7.value == pytest.approx(m1.value, rel=1e-6)
        np.testing.assert_allclose(n7.normalized, n1.normalized, rtol=1e-6)

    def test_center_offset_and_value(self):
        hist = synth_cw_histogram(np.random.default_rng(41))
        fit = pk.fit_g2_cw(hist)
        out, g2 = pk.normalize_g2(hist, fit)
        assert out.normalization == pytest.approx(fit.params.plateau)
        assert out.center_offset == pk.ns_to_ps(fit.params.tau0_ns)
        assert g2.value == pytest.approx(1.0 - fit.params.dip_depth)
        assert g2.sigma > 0
        # the original histogram is untouched
        assert hist.normalization is None

    def test_pulsed_normalizer_is_side_mean(self):
        hist = synth_pw_histogram(np.random.default_rng(42))
        fit = pk.fit_g2_pw(hist, period_ns=100.0, n_side=5)
        out, g2 = pk.normalize_g2(hist, fit)
        assert out.normalization == pytest.approx(fit.params.side_mean)
        expect = (fit.params.background + fit.params.center_height) \
            / fit.params.side_mean
        assert g2.value == pytest.approx(expect)

    def test_rejects_non_converged_fit(self):
        hist = synth_cw_histogram(np.random.default_rng(43))
        fit = pk.fit_g2_cw(hist)
        broken = dataclasses.replace(fit, converged=False)
        with pytest.raises(ValueError):
            pk.normalize_g2(hist, broken)

    def test_rejects_decay_fit(self):
        rng = np.random.default_rng(44)
        decay_fit = pk.fit_multiexp(
            synth_decay_histogram(rng, 10.0, [(3000.0, 4.0)]), n_components=1)
        hist = synth_cw_histogram(rng)
        with pytest.raises(TypeError):
            pk.normalize_g2(hist, decay_fit)


class TestAverageLifetime:
    def test_equal_weights_reduce_to_the_mean(self):
        params = pk.MultiExpParams(0.0, (1667.0, 1667.0, 1667.0),
                                   (0.833, 4.959, 13.135), 0.0)
        m = pk.average_lifetime(params)
        assert abs(m.value - (0.833 + 4.959 + 13.135) / 3) < 1e-12
        assert m.sigma == 0.0

    def test_closed_form_weighted(self):
        params = pk.MultiExpParams(5.0, (300.0, 100.0), (1.0, 9.0), 0.0)
        m = pk.average_lifetime(params)
        assert m.value == pytest.approx((300 + 900) / 400)

    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.1, 100.0)),
                    min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_extreme_lifetimes(self, comps):
        comps = sorted(comps, key=lambda c: c[1])
        amps = tuple(c[0] for c in comps)
        taus = tuple(c[1] for c in comps)
        m = pk.average_lifetime(pk.MultiExpParams(0.0, amps, taus, 0.0))
        assert min(taus) - 1e-9 <= m.value <= max(taus) + 1e-9

    def test_sigma_from_identity_covariance(self):
        params = pk.MultiExpParams(0.0, (250.0,), (3.5,), 0.0)
        m = pk.average_lifetime(params, covariance=np.eye(3))
        # at v == tau1 only the lifetime column contributes, with weight 1
        assert m.value == pytest.approx(3.5)
        assert m.sigma == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            pk.average_lifetime(pk.MultiExpParams(0.0, (0.0,), (1.0,), 0.0))
        with pytest.raises(TypeError):
            pk.average_lifetime(pk.G2CwParams(1.0, 0.5, 0.0, 4.7))


class TestVerdict:
    def test_two_sigma_rule(self):
        assert pk.single_photon_verdict(pk.Measurement(0.3, 0.05)) \
            is pk.Verdict.SINGLE_PHOTON
        assert pk.single_photon_verdict(pk.Measurement(0.97, 0.05)) \
            is pk.Verdict.NOT_SINGLE
        assert pk.single_photon_verdict(pk.Measurement(0.48, 0.02)) \
            is pk.Verdict.INCONCLUSIVE

    def test_boundaries_are_inconclusive(self):
        assert pk.single_photon_verdict(pk.Measurement(0.4, 0.05)) \
            is pk.Verdict.INCONCLUSIVE
        assert pk.single_photon_verdict(pk.Measurement(0.6, 0.05)) \
            is pk.Verdict.INCONCLUSIVE

    def test_zero_sigma(self):
        assert pk.single_photon_verdict(pk.Measurement(0.499, 0.0)) \
            is pk.Verdict.SINGLE_PHOTON
        assert pk.single_photon_verdict(pk.Measurement(0.501, 0.0)) \
            is pk.Verdict.NOT_SINGLE

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            pk.single_photon_verdict(pk.Measurement(0.3, -0.1))


class TestSeparableStart:
    """Oracles for the start search: the CW sums taken by FFT and the
    (tau0, tauX) it starts from equal a brute-force least squares over the
    same grid, and the shared amplitude solve equals ``np.linalg.lstsq``
    wherever the unconstrained amplitudes are non-negative."""

    @pytest.mark.parametrize("plateau, bump, seed", [
        (3.0, 0.0, 40), (20.0, 0.0, 41), (20.0, 60.0, 42)])
    def test_cw_start_is_the_brute_force_minimum(self, monkeypatch,
                                                 plateau, bump, seed):
        """The third histogram adds a peak at +20 ns that fits better than
        the dip as a negative depth, which the clip at zero rules out."""
        rng = np.random.default_rng(seed)
        hist = synth_cw_histogram(rng, a=plateau)
        tau = hist.tau_centers_ns
        hist = dataclasses.replace(hist, counts=hist.counts + rng.poisson(
            bump * np.exp(-np.abs(tau - 20.0) / 3.0)))
        y = hist.counts.astype(float)
        assert y.size == 200
        bin_ns = hist.bin_width / pk.PS_PER_NS
        window_ns = hist.window / pk.PS_PER_NS
        grid = fitmod._grid(bin_ns, window_ns)
        # e[g, i, j] = exp(-|tau_i - tau_j| / tauX_g), tau0 on bin centre j
        e = np.exp(-np.abs(tau[:, None] - tau[None, :])
                   / grid[:, None, None])
        ye, se, see = fitmod._cw_sums(y, bin_ns, grid[:, None])
        np.testing.assert_allclose(ye, np.einsum("i,gij->gj", y, e),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(se, e.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(see, (e ** 2).sum(axis=1), rtol=1e-12)

        best = (np.inf, None)
        for g in range(grid.size):
            for j in range(tau.size):
                basis = np.column_stack((np.ones_like(y), -e[g, :, j]))
                a, c = np.linalg.lstsq(basis, y, rcond=None)[0]
                if c < 0:  # the depth is clipped at zero
                    a, c = y.mean(), 0.0
                chi2 = float(((y - a + c * e[g, :, j]) ** 2).sum())
                if chi2 < best[0]:
                    best = (chi2, [a, c / a, tau[j], grid[g]])

        starts = []
        engine = fitmod.levenberg_marquardt

        def spy(*args, **kwargs):
            starts.append(args[3])
            return engine(*args, **kwargs)
        monkeypatch.setattr(fitmod, "levenberg_marquardt", spy)
        pk.fit_g2_cw(hist)
        (start,) = starts
        assert start[2:] == best[1][2:]
        np.testing.assert_allclose(start[:2], best[1][:2], rtol=1e-9)

    def test_amplitudes_match_lstsq(self):
        rng = np.random.default_rng(42)
        basis = rng.uniform(0.0, 1.0, (12, 40, 4))
        truth = rng.uniform(-0.5, 2.0, (12, 4))
        y = (basis @ truth[..., None])[..., 0] + rng.normal(0, 0.05, (12, 40))
        w = rng.uniform(0.5, 2.0, 40)
        bw = basis.transpose(0, 2, 1) * w
        amps, chi2 = fitmod._amplitudes(
            bw @ basis, (bw @ y[..., None])[..., 0], (w * y * y).sum(axis=1))
        assert np.all(amps >= 0.0)
        checked = 0
        for k in range(len(basis)):
            sw = np.sqrt(w)
            want = np.linalg.lstsq(sw[:, None] * basis[k], sw * y[k],
                                   rcond=None)[0]
            if np.all(want >= 0):
                checked += 1
                np.testing.assert_allclose(amps[k], want, rtol=1e-9)
                r = y[k] - basis[k] @ want
                np.testing.assert_allclose(chi2[k], (w * r * r).sum(),
                                           rtol=1e-9)
            else:
                assert np.all(amps[k][want < 0] == 0.0)
        assert 0 < checked < len(basis)

    def test_decay_components_within_the_grid(self):
        """Past 3 components the lifetime grid thins, so the start search
        stays at C(20, 3) solves; more components than grid values are
        refused."""
        hist = synth_decay_histogram(np.random.default_rng(43), 10.0,
                                     [(3000.0, 1.3), (800.0, 24.0)])
        assert pk.fit_multiexp(hist, n_components=4).converged
        with pytest.raises(ValueError, match="from 1 to 20, got 21"):
            pk.fit_multiexp(hist, n_components=21)


class TestDefaultCwJobDip:
    """The default CW job at 30 ms, seed 9, once started in an empty bin
    at +1000 ns and read ``not_single`` off a one-bin "dip"; the start
    search finds the dip at zero delay."""

    def test_tau0_near_zero_and_not_single_refused(self, tmp_path):
        doc = pk.run_pipeline(
            {"mode": "simulate", "duration_s": 0.03, "seed": 9,
             "analyses": ["g2cw"], "output": "cw.ptst"},
            base_dir=str(tmp_path))
        assert doc.ok, doc.errors
        g2cw = doc.results["g2cw"]
        assert abs(g2cw["fit"]["tau0_ns"]["value"]) <= 10.0
        assert g2cw["verdict"] is not pk.Verdict.NOT_SINGLE
