"""Model fitting: antibunching dips, pulsed correlation combs, decays.

The engine is damped least squares with Marquardt diagonal scaling. It is
deliberately small and fully specified: convergence is declared when the
relative chi-square improvement drops below 1e-9 or the accepted step norm
below 1e-12, the iteration cap is 500, and the parameter covariance is
(J^T W J)^-1 scaled by the reduced chi-square, falling back to a
pseudo-inverse (and flagging it) when the normal matrix is singular.

Model functions take a plain parameter vector so the engine, the analytic
Jacobians, and the finite-difference cross-checks all share one calling
convention. The packing order of each vector matches the ``names`` of the
corresponding parameter record in :mod:`photonkit.core`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoincidenceHistogram,
    DecayHistogram,
    FitResult,
    G2CwParams,
    G2PwParams,
    Measurement,
    MultiExpParams,
    Verdict,
    ns_to_ps,
)

__all__ = [
    "NoDipError",
    "levenberg_marquardt",
    "numeric_jacobian",
    "cw_g2_model",
    "cw_g2_jacobian",
    "pulsed_g2_model",
    "pulsed_g2_jacobian",
    "multi_exp_model",
    "multi_exp_jacobian",
    "fit_g2_cw",
    "fit_g2_pw",
    "fit_multiexp",
    "normalize_g2",
    "average_lifetime",
    "single_photon_verdict",
]


class NoDipError(ValueError):
    """Raised when a CW histogram shows no antibunching dip to fit."""


# ---------------------------------------------------------------------------
# engine

@dataclass(frozen=True)
class _RawFit:
    theta: np.ndarray
    sigma: np.ndarray
    covariance: np.ndarray
    chi2_reduced: float
    converged: bool
    iterations: int
    flags: tuple[str, ...]


def numeric_jacobian(model, x, theta, rel_step: float = 6e-6) -> np.ndarray:
    """Central-difference Jacobian of ``model(x, theta)`` w.r.t. theta."""
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.size
    cols = []
    for j in range(p):
        h = rel_step * max(abs(theta[j]), 1.0)
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((model(x, up) - model(x, dn)) / (2.0 * h))
    return np.column_stack(cols)


def levenberg_marquardt(model, x, y, init, *, jacobian=None, weights=None,
                        bounds=None, max_iterations: int = 500,
                        chi2_rtol: float = 1e-9,
                        step_atol: float = 1e-12) -> _RawFit:
    """Minimize sum w_i * (y_i - model(x, theta)_i)^2 over theta.

    Parameters
    ----------
    model : callable
        ``model(x, theta) -> ndarray`` of the same length as ``y``.
    x, y : ndarray
        Data. At least as many points as parameters are required.
    init : ndarray
        Starting parameter vector.
    jacobian : callable, optional
        ``jacobian(x, theta) -> (m, p)`` array. Central differences when
        omitted.
    weights : ndarray, optional
        Per-point weights w_i (inverse variances); ones when omitted.
    bounds : sequence of (lo, hi), optional
        Per-parameter box constraints; steps are clipped to the box.

    Returns
    -------
    _RawFit
        Fitted vector, per-parameter sigmas, covariance, reduced chi-square,
        convergence flag, iteration count, and non-fatal flags.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    theta = np.array(init, dtype=np.float64)
    m, p = y.size, theta.size
    if x.size != m:
        raise ValueError(f"x has {x.size} points but y has {m}")
    if m < p:
        raise ValueError(f"{p} parameters need at least {p} points, got {m}")
    if weights is None:
        w = np.ones(m)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != m or np.any(w < 0):
            raise ValueError("weights must be non-negative, one per point")
    sw = np.sqrt(w)

    if bounds is None:
        lo = np.full(p, -np.inf)
        hi = np.full(p, np.inf)
    else:
        lo = np.array([b[0] for b in bounds], dtype=np.float64)
        hi = np.array([b[1] for b in bounds], dtype=np.float64)
    theta = np.clip(theta, lo, hi)

    jac = jacobian if jacobian is not None else (
        lambda xx, th: numeric_jacobian(model, xx, th))

    def residual(th):
        return sw * (y - model(x, th))

    r = residual(theta)
    chi2 = float(r @ r)
    lam = 1e-3
    tiny = np.finfo(np.float64).tiny
    flags: set[str] = set()
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        J = np.asarray(jac(x, theta), dtype=np.float64)
        Jw = sw[:, None] * J
        A = Jw.T @ Jw
        g = Jw.T @ r
        dscale = np.diag(A).copy()
        dscale[dscale <= 0] = 1.0

        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * np.diag(dscale), g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(A + lam * np.diag(dscale), g,
                                       rcond=None)[0]
            trial = np.clip(theta + step, lo, hi)
            rt = residual(trial)
            chi2_t = float(rt @ rt)
            if np.isfinite(chi2_t) and chi2_t <= chi2:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            # No damping produces an improvement: already at a minimum.
            converged = True
            break

        moved = trial - theta
        drop = chi2 - chi2_t
        theta, r, chi2 = trial, rt, chi2_t
        lam = max(lam * 0.3, 1e-12)
        if drop <= chi2_rtol * max(chi2, tiny):
            converged = True
            break
        if float(np.linalg.norm(moved)) < step_atol:
            converged = True
            break

    J = np.asarray(jac(x, theta), dtype=np.float64)
    Jw = sw[:, None] * J
    A = Jw.T @ Jw
    dof = max(m - p, 1)
    chi2_reduced = chi2 / dof
    try:
        cov = np.linalg.inv(A)
        if not np.all(np.isfinite(cov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(A)
        flags.add("singular_covariance")
    cov = cov * chi2_reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return _RawFit(theta, sigma, cov, chi2_reduced, converged, iterations,
                   tuple(sorted(flags)))


# ---------------------------------------------------------------------------
# model functions

def cw_g2_model(tau_ns, theta) -> np.ndarray:
    """CW antibunching dip: a * (1 - b * exp(-|tau - tau0| / tauX)).

    ``theta`` is (plateau a, dip depth b, tau0, tauX), times in ns.
    """
    a, b, tau0, tau_x = theta
    return a * (1.0 - b * np.exp(-np.abs(np.asarray(tau_ns) - tau0) / tau_x))


def cw_g2_jacobian(tau_ns, theta) -> np.ndarray:
    a, b, tau0, tau_x = theta
    d = np.asarray(tau_ns) - tau0
    e = np.exp(-np.abs(d) / tau_x)
    return np.column_stack((
        1.0 - b * e,
        -a * e,
        -a * b * e * np.sign(d) / tau_x,
        -a * b * e * np.abs(d) / tau_x ** 2,
    ))


def _split_pw_theta(theta):
    theta = np.asarray(theta, dtype=np.float64)
    n_side = (theta.size - 4) // 2
    if theta.size != 2 * n_side + 4 or n_side < 1:
        raise ValueError(
            f"pulsed parameter vector has invalid length {theta.size}")
    return theta[0], theta[1:-2], theta[-2], theta[-1], n_side


def pulsed_g2_model(tau_ns, theta, period_ns: float) -> np.ndarray:
    """Pulsed correlation comb.

    ``a + b0*E0 + sum_{n != 0} b_n * En * (1 - E0)`` with
    ``E0 = exp(-|tau - tau0| / tauX)``, ``En = exp(-|tau - tau0 - n*T| / tauX)``.
    ``theta`` is (a, b_-N .. b_+N, tau0, tauX); T is the fixed pulse period.
    The (1 - E0) factor removes side-peak leakage under the center dip so the
    same-pulse coefficient b0 is what the dip height measures.
    """
    a, heights, tau0, tau_x, n_side = _split_pw_theta(theta)
    tau = np.asarray(tau_ns, dtype=np.float64)
    ks = np.arange(-n_side, n_side + 1)
    d = tau[:, None] - tau0 - ks[None, :] * period_ns
    e = np.exp(-np.abs(d) / tau_x)
    e0 = e[:, n_side]
    side = e @ heights - heights[n_side] * e0
    return a + heights[n_side] * e0 + (1.0 - e0) * side


def pulsed_g2_jacobian(tau_ns, theta, period_ns: float) -> np.ndarray:
    a, heights, tau0, tau_x, n_side = _split_pw_theta(theta)
    tau = np.asarray(tau_ns, dtype=np.float64)
    m = tau.size
    ks = np.arange(-n_side, n_side + 1)
    d = tau[:, None] - tau0 - ks[None, :] * period_ns
    u = np.abs(d)
    s = np.sign(d)
    e = np.exp(-u / tau_x)
    e0 = e[:, n_side]
    s0 = s[:, n_side]
    u0 = u[:, n_side]
    b0 = heights[n_side]

    side = e @ heights - b0 * e0                      # sum_{k != 0} b_k E_k
    dside_num = (e * s) @ heights - b0 * e0 * s0       # d(side)/dtau0 * tauX
    dside_u = (e * u) @ heights - b0 * e0 * u0         # d(side)/dtauX * tauX^2

    cols = np.empty((m, theta.size))
    cols[:, 0] = 1.0
    cols[:, 1:2 * n_side + 2] = e * (1.0 - e0)[:, None]
    cols[:, 1 + n_side] = e0
    cols[:, -2] = (e0 * s0 * (b0 - side) + (1.0 - e0) * dside_num) / tau_x
    cols[:, -1] = (e0 * u0 * (b0 - side) + (1.0 - e0) * dside_u) / tau_x ** 2
    return cols


def multi_exp_model(t_ns, theta, tau0_ns: float) -> np.ndarray:
    """Decay model A + sum_i B_i * exp(-(t - tau0) / tau_i) for t >= tau0.

    ``theta`` is (A, B1, tau1, B2, tau2, ...); tau0 is fixed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    t = np.asarray(t_ns, dtype=np.float64)
    amps = theta[1::2]
    taus = theta[2::2]
    dt = t[:, None] - tau0_ns
    return theta[0] + np.exp(-dt / taus[None, :]) @ amps


def multi_exp_jacobian(t_ns, theta, tau0_ns: float) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    t = np.asarray(t_ns, dtype=np.float64)
    amps = theta[1::2]
    taus = theta[2::2]
    dt = t[:, None] - tau0_ns
    e = np.exp(-dt / taus[None, :])
    cols = np.empty((t.size, theta.size))
    cols[:, 0] = 1.0
    cols[:, 1::2] = e
    cols[:, 2::2] = amps[None, :] * e * dt / taus[None, :] ** 2
    return cols


# ---------------------------------------------------------------------------
# fit drivers

def _dip_half_width_ns(tau, counts, i_center, level, fallback):
    """Distance from the center bin to where counts recross ``level``,
    averaged over both sides; ``fallback`` when neither side crosses."""
    widths = []
    right = np.nonzero(counts[i_center:] >= level)[0]
    if right.size:
        widths.append(tau[i_center + right[0]] - tau[i_center])
    left = np.nonzero(counts[:i_center + 1][::-1] >= level)[0]
    if left.size:
        widths.append(tau[i_center] - tau[i_center - left[0]])
    widths = [w for w in widths if w > 0]
    return float(np.mean(widths)) if widths else fallback


def fit_g2_cw(histogram: CoincidenceHistogram) -> FitResult:
    """Fit the CW antibunching model to a raw coincidence histogram.

    Initial values come from the data: the plateau from the outer 20% of
    bins, the dip position from the minimum bin, the depth from min/plateau,
    and tauX from the dip half-width at half-depth (divided by ln 2 to
    invert the exponential profile).

    Raises
    ------
    ValueError
        On an all-zero histogram, or when the window leaves no plateau
        (narrower than ~5 tauX around the dip).
    NoDipError
        When the minimum bin is not below the plateau level.
    """
    counts = histogram.counts.astype(np.float64)
    if not np.any(counts > 0):
        raise ValueError("cannot fit an all-zero histogram")
    tau = histogram.tau_centers_ns
    n = counts.size
    edge = max(n // 10, 1)
    a0 = float(np.mean(np.concatenate((counts[:edge], counts[-edge:]))))
    if a0 <= 0:
        raise ValueError("plateau estimate is zero; no correlations to fit")
    i_min = int(np.argmin(counts))
    tau0_0 = float(tau[i_min])
    b0 = 1.0 - counts[i_min] / a0
    if b0 <= 0:
        raise NoDipError(
            "histogram minimum is not below the plateau; no dip to fit")
    bin_ns = histogram.bin_width / 1000.0
    half = _dip_half_width_ns(tau, counts, i_min, a0 * (1.0 - b0 / 2.0), bin_ns)
    tau_x0 = max(half / math.log(2.0), bin_ns / 2.0)
    if float(np.max(np.abs(tau - tau0_0))) < 5.0 * tau_x0:
        raise ValueError(
            "window too narrow: no plateau beyond 5 lifetimes of the dip")

    window_ns = histogram.window / 1000.0
    bounds = [(1e-300, np.inf), (0.0, 1.0),
              (-window_ns, window_ns), (bin_ns * 1e-3, np.inf)]
    raw = levenberg_marquardt(
        cw_g2_model, tau, counts, [a0, min(b0, 1.0), tau0_0, tau_x0],
        jacobian=cw_g2_jacobian, bounds=bounds)
    params = G2CwParams.from_vector(raw.theta)
    return FitResult(params, G2CwParams.names, raw.sigma, raw.covariance,
                     raw.chi2_reduced, raw.converged, raw.iterations, raw.flags)


def _comb_search(tau, counts, period_ns, n_side):
    """Locate tau0 by scoring a comb of side-peak positions over candidate
    offsets within one period of zero delay."""
    cand = np.nonzero(np.abs(tau) <= period_ns / 2.0)[0]
    if cand.size == 0:
        cand = np.array([counts.size // 2])
    ks = np.concatenate((np.arange(-n_side, 0), np.arange(1, n_side + 1)))
    bw_ns = tau[1] - tau[0] if tau.size > 1 else 1.0
    pos = tau[cand][:, None] + ks[None, :] * period_ns
    idx = np.clip(np.rint((pos - tau[0]) / bw_ns).astype(np.int64),
                  0, counts.size - 1)
    scores = counts[idx].sum(axis=1)
    return int(cand[int(np.argmax(scores))])


def fit_g2_pw(histogram: CoincidenceHistogram, period_ns: float,
              n_side: int = 5) -> FitResult:
    """Fit the pulsed comb model jointly: background, all 2*n_side+1 peak
    coefficients, tau0, and a shared tauX.

    Initialization finds tau0 by comb search over the side peaks (robust
    when the center peak is strongly suppressed), peak heights from local
    maxima, and tauX from the strongest side peak's half-width.

    Raises
    ------
    ValueError
        If the window does not cover (n_side + 0.5) periods, or fewer than
        3 side peaks rise resolvably above the baseline.
    """
    if period_ns <= 0:
        raise ValueError(f"period_ns must be positive, got {period_ns}")
    if n_side < 1:
        raise ValueError(f"n_side must be >= 1, got {n_side}")
    counts = histogram.counts.astype(np.float64)
    if not np.any(counts > 0):
        raise ValueError("cannot fit an all-zero histogram")
    tau = histogram.tau_centers_ns
    window_ns = histogram.window / 1000.0
    if window_ns < (n_side + 0.5) * period_ns:
        raise ValueError(
            f"window ({window_ns:.1f} ns) must cover (n_side + 0.5) periods "
            f"({(n_side + 0.5) * period_ns:.1f} ns)")

    a0 = float(np.percentile(counts, 10.0))
    i0 = _comb_search(tau, counts, period_ns, n_side)
    tau0_0 = float(tau[i0])
    bin_ns = histogram.bin_width / 1000.0

    quarter = period_ns / 4.0
    heights0 = np.zeros(2 * n_side + 1)
    best_peak = None
    for j, k in enumerate(range(-n_side, n_side + 1)):
        center = tau0_0 + k * period_ns
        sel = np.abs(tau - center) <= quarter
        if not sel.any():
            continue
        if k == 0:
            i_near = int(np.argmin(np.abs(tau - center)))
            heights0[j] = max(counts[i_near] - a0, 0.0)
        else:
            local = counts[sel]
            heights0[j] = max(float(local.max()) - a0, 0.0)
            if best_peak is None or heights0[j] > heights0[best_peak[0]]:
                best_peak = (j, int(np.nonzero(sel)[0][int(np.argmax(local))]))

    floor = 3.0 * math.sqrt(a0 + 1.0)
    resolvable = sum(
        1 for j, k in enumerate(range(-n_side, n_side + 1))
        if k != 0 and heights0[j] > floor)
    if resolvable < 3:
        raise ValueError(
            f"only {resolvable} side peaks rise above the baseline; "
            "at least 3 are needed to anchor the comb")

    j_best, i_best = best_peak
    half = _dip_half_width_ns(
        tau, -counts, i_best, -(a0 + heights0[j_best] / 2.0), bin_ns)
    tau_x0 = max(half / math.log(2.0), bin_ns / 2.0)

    init = np.concatenate(([a0], heights0, [tau0_0, tau_x0]))
    bounds = ([(0.0, np.inf)] + [(0.0, np.inf)] * (2 * n_side + 1)
              + [(tau0_0 - period_ns / 2.0, tau0_0 + period_ns / 2.0),
                 (bin_ns * 1e-3, np.inf)])
    raw = levenberg_marquardt(
        lambda x, th: pulsed_g2_model(x, th, period_ns),
        tau, counts, init,
        jacobian=lambda x, th: pulsed_g2_jacobian(x, th, period_ns),
        bounds=bounds)
    params = G2PwParams.from_vector(raw.theta, period_ns)
    return FitResult(params, params.names, raw.sigma, raw.covariance,
                     raw.chi2_reduced, raw.converged, raw.iterations, raw.flags)


def fit_multiexp(histogram: DecayHistogram, n_components: int = 3) -> FitResult:
    """Fit a multi-exponential decay to a sync-referenced histogram.

    The fit runs on bins at and after the histogram peak (tau0, held fixed
    at the argmax bin) with Poisson weights 1/max(counts, 1). Components
    come back sorted by ascending lifetime, with sigma and covariance
    permuted to match. If any amplitude is consistent with zero at one
    sigma the result is flagged degenerate with a suggestion to refit with
    one fewer component.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    counts = histogram.counts.astype(np.float64)
    if not np.any(counts > 0):
        raise ValueError("cannot fit an all-zero histogram")
    tau = histogram.delay_centers_ns
    i_peak = int(np.argmax(counts))
    tau0 = float(tau[i_peak])
    x = tau[i_peak:]
    y = counts[i_peak:]
    p = 1 + 2 * n_components
    if y.size < p:
        raise ValueError(
            f"{y.size} bins after the peak cannot constrain {p} parameters")

    tail = max(y.size // 20, 1)
    floor0 = float(np.mean(y[-tail:]))
    peak = float(y[0])
    amp = max(peak - floor0, peak * 0.1, 1.0)
    below = np.nonzero(y - floor0 < amp / math.e)[0]
    tau_e = (x[below[0]] - tau0) if below.size else (x[-1] - tau0) / 3.0
    tau_e = max(tau_e, (x[1] - x[0]) if x.size > 1 else 1.0)
    if n_components == 1:
        ratios = np.array([1.0])
    else:
        ratios = np.geomspace(0.25, 4.0, n_components)
    init = [floor0]
    for rr in ratios:
        init += [amp / n_components, tau_e * rr]
    bounds = [(0.0, np.inf)] + [(0.0, np.inf), (1e-6, np.inf)] * n_components

    weights = 1.0 / np.maximum(y, 1.0)
    raw = levenberg_marquardt(
        lambda xx, th: multi_exp_model(xx, th, tau0), x, y, init,
        jacobian=lambda xx, th: multi_exp_jacobian(xx, th, tau0),
        weights=weights, bounds=bounds)

    # Sort components by lifetime and permute sigma/covariance to match.
    order = np.argsort(raw.theta[2::2], kind="stable")
    perm = np.concatenate(([0], np.stack((2 * order + 1, 2 * order + 2)).T.ravel()))
    theta = raw.theta[perm]
    sigma = raw.sigma[perm]
    cov = raw.covariance[np.ix_(perm, perm)]

    flags = list(raw.flags)
    amps = theta[1::2]
    amp_sig = sigma[1::2]
    if np.any(amps <= amp_sig):
        flags.append("degenerate_component")
        flags.append(f"suggest_n_components={max(n_components - 1, 1)}")
    params = MultiExpParams.from_vector(theta, tau0)
    return FitResult(params, params.names, sigma, cov, raw.chi2_reduced,
                     raw.converged, raw.iterations, tuple(flags))


# ---------------------------------------------------------------------------
# derived quantities

def normalize_g2(histogram: CoincidenceHistogram,
                 fit: FitResult) -> tuple[CoincidenceHistogram, Measurement]:
    """Normalize a coincidence histogram using its fitted model.

    CW fits divide by the plateau ``a`` (the Poissonian level maps to 1);
    pulsed fits divide by the mean side-peak coefficient, so an isolated
    side peak tops out near 1 and the center value becomes the same-pulse
    coincidence probability ratio.

    Returns
    -------
    (histogram, g2_at_tau0)
        A copy of the histogram with ``normalization`` and ``center_offset``
        filled in, and the normalized model value at tau0 with a one-sigma
        error from first-order propagation of the fit covariance.
    """
    if not fit.converged:
        raise ValueError("cannot normalize from a non-converged fit")
    params = fit.params
    if isinstance(params, G2CwParams):
        norm = params.plateau
        if norm <= 0:
            raise ValueError(f"normalizer (plateau) must be positive, got {norm}")
        value = 1.0 - params.dip_depth
        grad = np.array([0.0, -1.0, 0.0, 0.0])
    elif isinstance(params, G2PwParams):
        norm = params.side_mean
        if norm <= 0:
            raise ValueError(
                f"normalizer (mean side peak) must be positive, got {norm}")
        n_side = params.n_side
        m = 2 * n_side
        top = params.background + params.center_height
        value = top / norm
        grad = np.zeros(2 * n_side + 4)
        grad[0] = 1.0 / norm
        grad[1 + n_side] = 1.0 / norm
        for j in range(1, 2 * n_side + 2):
            if j != 1 + n_side:
                grad[j] = -top / (norm * norm * m)
    else:
        raise TypeError(
            f"cannot normalize from a {type(params).__name__} fit")
    var = float(grad @ fit.covariance @ grad)
    sigma = math.sqrt(max(var, 0.0))
    out = dataclasses.replace(
        histogram, normalization=float(norm),
        center_offset=ns_to_ps(params.tau0_ns))
    return out, Measurement(float(value), sigma)


def average_lifetime(fit_or_params, covariance: np.ndarray | None = None) -> Measurement:
    """Amplitude-weighted mean lifetime sum(B_i tau_i) / sum(B_i).

    Accepts a multi-exponential FitResult (uses its covariance) or a bare
    MultiExpParams (optionally with an explicit covariance over the full
    parameter vector). The error is first-order propagation; it is zero
    when no covariance is available.
    """
    if isinstance(fit_or_params, FitResult):
        params = fit_or_params.params
        covariance = fit_or_params.covariance
    else:
        params = fit_or_params
    if not isinstance(params, MultiExpParams):
        raise TypeError("average_lifetime needs multi-exponential parameters")
    amps = params.amplitudes
    taus = params.lifetimes_ns
    total = float(amps.sum())
    if total == 0.0:
        raise ValueError("all amplitudes are zero; average lifetime undefined")
    value = float((amps * taus).sum() / total)
    if covariance is None:
        return Measurement(value, 0.0)
    grad = np.zeros(1 + 2 * amps.size)
    grad[1::2] = (taus - value) / total
    grad[2::2] = amps / total
    var = float(grad @ covariance @ grad)
    return Measurement(value, math.sqrt(max(var, 0.0)))


def single_photon_verdict(g2_at_tau0: Measurement) -> Verdict:
    """Classify an emitter from its normalized g2 at the dip.

    The single-photon criterion is g2 < 0.5 (one-photon states cannot make
    a same-time pair); the comparison uses a two-sigma margin and returns
    INCONCLUSIVE when the error bar straddles the boundary.
    """
    v, s = g2_at_tau0.value, g2_at_tau0.sigma
    if s < 0:
        raise ValueError(f"sigma must be non-negative, got {s}")
    if v + 2.0 * s < 0.5:
        return Verdict.SINGLE_PHOTON
    if v - 2.0 * s > 0.5:
        return Verdict.NOT_SINGLE
    return Verdict.INCONCLUSIVE
