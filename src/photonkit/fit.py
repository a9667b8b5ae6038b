"""Model fitting: antibunching dips, pulsed correlation combs, decays.

The engine is damped least squares with Marquardt diagonal scaling. It is
deliberately small and fully specified: convergence is declared when the
relative chi-square improvement drops below 1e-9 or the accepted step norm
below 1e-12 (fixed), the iteration cap defaults to 500, and the parameter
covariance is (J^T W J)^-1 scaled by the reduced chi-square, falling back
to a pseudo-inverse (and flagging it) when the normal matrix is singular.
Steps are clipped to the bounds; a parameter on a bound that the gradient
pushes outward is held there, and the step is solved for the others.

Model functions take a plain parameter vector so the engine, the analytic
Jacobians, and the finite-difference cross-checks all share one calling
convention. The packing order of each vector matches the ``names`` of the
corresponding parameter record in :mod:`photonkit.core`. One kernel,
``exp(-u / tau)`` with its derivatives in u and tau, holds the shape of
every model: the CW dip and the pulsed peaks pass u = |delay|, the decay
u = t - tau0.

Every driver checks its histogram with ``_counts``, fits the bins its
model covers and builds its :class:`~photonkit.core.FitResult` with
``_result``. All start the engine by one rule: a model is linear in its
amplitudes once its shapes are fixed (Golub & Pereyra, *SIAM J. Numer.
Anal.* 10, 413 (1973)), so the shapes are searched on a ``_grid``, the
amplitudes solved at each point, and the lowest chi-square starts the fit.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PS_PER_NS,
    CoincidenceHistogram,
    DecayHistogram,
    FitResult,
    G2CwParams,
    G2PwParams,
    Measurement,
    MultiExpParams,
    Verdict,
    _whole,
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

_CHI2_RTOL = 1e-9   # converged: relative chi-square drop below this
_STEP_ATOL = 1e-12  # converged: accepted step norm below this
_REL_STEP = 6e-6    # central-difference step relative to max(|theta|, 1)


@dataclass(frozen=True)
class _RawFit:
    theta: np.ndarray
    sigma: np.ndarray
    covariance: np.ndarray
    chi2_reduced: float
    converged: bool
    iterations: int
    flags: tuple[str, ...]


def numeric_jacobian(model, x, theta) -> np.ndarray:
    """Central-difference Jacobian of ``model(x, theta)`` w.r.t. theta."""
    theta = np.asarray(theta, dtype=np.float64)
    steps = _REL_STEP * np.maximum(np.abs(theta), 1.0)
    return np.column_stack([
        (model(x, theta + dh) - model(x, theta - dh)) / (2.0 * h)
        for h, dh in zip(steps, np.diag(steps))])


def levenberg_marquardt(model, x, y, init, *, jacobian=None, weights=None,
                        bounds=None, max_iterations: int = 500) -> _RawFit:
    """Minimize sum w_i * (y_i - model(x, theta)_i)^2 over theta from init.

    ``model(x, theta)`` gives the m >= p values fitted to ``y`` and
    ``jacobian(x, theta)`` their (m, p) derivatives, central differences
    when omitted. ``weights`` are inverse variances, ones when omitted;
    ``bounds`` a (lo, hi) box per parameter that clips the steps and holds
    a parameter the gradient pushes out of it. Returns a ``_RawFit``: the
    fitted vector, sigmas, covariance, reduced chi-square, convergence
    flag, iteration count and non-fatal flags.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    theta = np.array(init, dtype=np.float64)
    m, p = y.size, theta.size
    if x.size != m:
        raise ValueError(f"x has {x.size} points but y has {m}")
    if m < p:
        raise ValueError(f"{p} parameters need at least {p} points, got {m}")
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if w.size != m or np.any(w < 0):
        raise ValueError("weights must be non-negative, one per point")
    sw = np.sqrt(w)

    lo, hi = np.array([(-np.inf, np.inf)] * p if bounds is None else bounds,
                      dtype=np.float64).T
    theta = np.clip(theta, lo, hi)

    jac = jacobian if jacobian is not None else (
        lambda xx, th: numeric_jacobian(model, xx, th))

    def residual(th):
        return sw * (y - model(x, th))

    def normal(th):
        Jw = sw[:, None] * np.asarray(jac(x, th), dtype=np.float64)
        return Jw, Jw.T @ Jw

    r = residual(theta)
    chi2 = float(r @ r)
    lam = 1e-3
    tiny = np.finfo(np.float64).tiny
    flags: tuple[str, ...] = ()
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        Jw, A = normal(theta)
        g = Jw.T @ r
        dscale = np.diag(A).copy()
        dscale[dscale <= 0] = 1.0
        free = ~(((theta <= lo) & (g < 0)) | ((theta >= hi) & (g > 0)))

        while True:  # ends: lam grows tenfold per rejected step
            damped = (A + lam * np.diag(dscale))[np.ix_(free, free)]
            step = np.zeros(p)
            try:
                step[free] = np.linalg.solve(damped, g[free])
            except np.linalg.LinAlgError:
                step[free] = np.linalg.lstsq(damped, g[free], rcond=None)[0]
            trial = np.clip(theta + step, lo, hi)
            rt = residual(trial)
            chi2_t = float(rt @ rt)
            if np.isfinite(chi2_t) and chi2_t <= chi2:
                break
            lam *= 10.0
            if lam > 1e14:
                # No damping produces an improvement: already at a minimum.
                converged = True
                break
        if converged:
            break

        converged = (chi2 - chi2_t <= _CHI2_RTOL * max(chi2_t, tiny)
                     or float(np.linalg.norm(trial - theta)) < _STEP_ATOL)
        theta, r, chi2 = trial, rt, chi2_t
        lam = max(lam * 0.3, 1e-12)
        if converged:
            break

    _, A = normal(theta)
    chi2_reduced = chi2 / max(m - p, 1)
    try:
        cov = np.linalg.inv(A)
        if not np.all(np.isfinite(cov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(A)
        flags = ("singular_covariance",)
    cov = cov * chi2_reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return _RawFit(theta, sigma, cov, chi2_reduced, converged, iterations,
                   flags)


# ---------------------------------------------------------------------------
# model functions

def _kernel(u, tau, derivatives: bool = False):
    """``exp(-u / tau)``, the shape under every model; with ``derivatives``,
    ``(e, de/du, de/dtau)``, which is ``(e, -e / tau, e * u / tau**2)``."""
    e = np.exp(-u / tau)
    if not derivatives:
        return e
    return e, -e / tau, e * u / tau ** 2


def cw_g2_model(tau_ns, theta) -> np.ndarray:
    """CW antibunching dip: a * (1 - b * exp(-|tau - tau0| / tauX)).

    ``theta`` is (plateau a, dip depth b, tau0, tauX), times in ns.
    """
    a, b, tau0, tau_x = theta
    return a * (1.0 - b * _kernel(np.abs(np.asarray(tau_ns) - tau0), tau_x))


def cw_g2_jacobian(tau_ns, theta) -> np.ndarray:
    a, b, tau0, tau_x = theta
    d = np.asarray(tau_ns) - tau0
    e, e_u, e_tau = _kernel(np.abs(d), tau_x, derivatives=True)
    return np.column_stack(
        (1.0 - b * e, -a * e, a * b * e_u * np.sign(d), -a * b * e_tau))


def _comb(tau_ns, theta, period_ns: float, derivatives: bool = False):
    """(a, heights, N, delays, kernel) of a pulsed vector: the kernel at each
    delay ``tau - tau0 - k*T``, one column per peak k = -N .. +N."""
    theta = np.asarray(theta, dtype=np.float64)
    n_side = (theta.size - 4) // 2
    if theta.size != 2 * n_side + 4 or n_side < 1:
        raise ValueError(
            f"pulsed parameter vector has invalid length {theta.size}")
    ks = np.arange(-n_side, n_side + 1)
    d = (np.asarray(tau_ns, dtype=np.float64)[:, None] - theta[-2]
         - ks * period_ns)
    return (theta[0], theta[1:-2], n_side, d,
            _kernel(np.abs(d), theta[-1], derivatives))


def pulsed_g2_model(tau_ns, theta, period_ns: float) -> np.ndarray:
    """Pulsed correlation comb.

    ``a + b0*E0 + sum_{n != 0} b_n * En * (1 - E0)`` with
    ``E0 = exp(-|tau - tau0| / tauX)``, ``En = exp(-|tau - tau0 - n*T| / tauX)``.
    ``theta`` is (a, b_-N .. b_+N, tau0, tauX); T is the fixed pulse period.
    The (1 - E0) factor removes side-peak leakage under the center dip so the
    same-pulse coefficient b0 is what the dip height measures.
    """
    a, heights, n_side, _, e = _comb(tau_ns, theta, period_ns)
    e0 = e[:, n_side]
    side = e @ heights - heights[n_side] * e0
    return a + heights[n_side] * e0 + (1.0 - e0) * side


def _comb_basis(e, n_side: int) -> np.ndarray:
    """The pulsed columns of (a, b_-N .. b_+N) from a kernel ``e`` (bins,
    2N+1): 1, then E_k (1 - E0) for k != 0 and E0 for k = 0."""
    e0 = e[..., n_side:n_side + 1]
    cols = np.concatenate((np.ones_like(e0), e * (1.0 - e0)), axis=-1)
    cols[..., 1 + n_side] = e0[..., 0]
    return cols


def pulsed_g2_jacobian(tau_ns, theta, period_ns: float) -> np.ndarray:
    _, heights, n_side, d, (e, e_u, e_tau) = _comb(
        tau_ns, theta, period_ns, derivatives=True)
    e0 = e[:, n_side]
    b0 = heights[n_side]
    side = e @ heights - b0 * e0                      # sum_{k != 0} b_k E_k
    # d(model) = dE_0 * (b0 - side) + (1 - E0) * sum_{k != 0} b_k dE_k
    return np.column_stack((_comb_basis(e, n_side), *(
        de[:, n_side] * (b0 - side)
        + (1.0 - e0) * (de @ heights - b0 * de[:, n_side])
        for de in (-e_u * np.sign(d), e_tau))))


def multi_exp_model(t_ns, theta, tau0_ns: float) -> np.ndarray:
    """Decay model A + sum_i B_i * exp(-(t - tau0) / tau_i) for t >= tau0
    (the kernel takes t - tau0 signed, so earlier bins rise above it).

    ``theta`` is (A, B1, tau1, B2, tau2, ...); tau0 is fixed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    dt = np.asarray(t_ns, dtype=np.float64)[:, None] - tau0_ns
    return theta[0] + _kernel(dt, theta[2::2]) @ theta[1::2]


def multi_exp_jacobian(t_ns, theta, tau0_ns: float) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    dt = np.asarray(t_ns, dtype=np.float64)[:, None] - tau0_ns
    e, _, e_tau = _kernel(dt, theta[2::2], derivatives=True)
    cols = np.empty((dt.shape[0], theta.size))
    cols[:, 0] = 1.0
    cols[:, 1::2] = e
    cols[:, 2::2] = theta[1::2] * e_tau
    return cols


# ---------------------------------------------------------------------------
# fit drivers

def _counts(histogram) -> np.ndarray:
    """The histogram's counts as floats; an all-zero histogram is refused."""
    counts = histogram.counts.astype(np.float64)
    if not np.any(counts > 0):
        raise ValueError("cannot fit an all-zero histogram")
    return counts


def _result(params, raw: _RawFit) -> FitResult:
    return FitResult(params, params.names, raw.sigma, raw.covariance,
                     raw.chi2_reduced, raw.converged, raw.iterations, raw.flags)


_GRID = 20  # grid values per shape parameter in the start search


def _grid(bin_ns: float, top_ns: float, size: int = _GRID) -> np.ndarray:
    """Log-spaced shapes from half a bin (tauX's lower bound) to top_ns."""
    return np.geomspace(bin_ns / 2.0, top_ns, size)


def _amplitudes(gram, rhs, yy):
    """Stacked normal equations ``gram @ x = rhs`` (B^T W B, B^T W y) solved,
    clipped at zero, and the chi-square yy - 2 x.rhs + x.gram.x each leaves."""
    x = np.clip(np.linalg.solve(gram, rhs[..., None])[..., 0], 0.0, None)
    return x, (yy - 2.0 * np.einsum("...i,...i", x, rhs)
               + np.einsum("...i,...ij,...j", x, gram, x))


def _cw_sums(counts, bin_ns, tau_x):
    """Sums over bins i of y_i e_ij, e_ij and e_ij**2 at every bin j, for
    e_ij = r**|i - j|, r = exp(-bin / tauX), one row per ``tau_x`` (a
    column). The first is an FFT correlation over 2n points, which does not
    wrap, with the ring r**min(m, 2n - m) transformed in closed form:
    2 Re[(1 - z**n) / (1 - z)] - 1 + z**n, z = r exp(-i pi f / n). The
    others are running sums over lags 0..j and 0..n-1-j, less lag 0."""
    n = counts.size
    e = _kernel(np.arange(n + 1) * bin_ns, tau_x)
    cos = np.cos(np.pi * np.arange(n + 1) / n)
    r, zn = e[:, 1:2], e[:, n:] * (-1.0) ** np.arange(n + 1)
    ring = (2.0 * (1.0 - zn) * (1.0 - r * cos) / (1.0 - 2.0 * r * cos + r * r)
            - 1.0 + zn)
    ye = np.fft.irfft(np.fft.rfft(counts, 2 * n) * ring, 2 * n)[:, :n]
    s, s2 = np.cumsum(e[:, :n], axis=1), np.cumsum(e[:, :n] ** 2, axis=1)
    return ye, s + s[:, ::-1] - 1.0, s2 + s2[:, ::-1] - 1.0


def fit_g2_cw(histogram: CoincidenceHistogram) -> FitResult:
    """Fit the CW antibunching model to a raw coincidence histogram.

    Every bin has unit weight. The fit starts at the least-squares minimum
    over tau0 on every bin centre and tauX on a ``_grid`` to the window,
    with y ~ a - c*e solved at each: c = -cov(y, e) / var(e), clipped at
    zero, leaves sum((y - mean y)^2) - c^2 * n * var(e), and b = c / a.

    Raises
    ------
    ValueError
        On an all-zero histogram, a zero plateau (the mean of the outer 20%
        of bins), or a window narrower than 5 tauX of the start's dip.
    NoDipError
        When the minimum bin is not below the plateau level.
    """
    counts = _counts(histogram)
    edge = max(counts.size // 10, 1)
    plateau = float(np.mean(np.concatenate((counts[:edge], counts[-edge:]))))
    if plateau <= 0:
        raise ValueError("plateau estimate is zero; no correlations to fit")
    if counts.min() >= plateau:
        raise NoDipError(
            "histogram minimum is not below the plateau; no dip to fit")
    tau = histogram.tau_centers_ns
    bin_ns = histogram.bin_width / PS_PER_NS
    window_ns = histogram.window / PS_PER_NS
    tau_x = _grid(bin_ns, window_ns)[:, None]
    ye, se, see = _cw_sums(counts, bin_ns, tau_x)
    n, sy = counts.size, counts.sum()
    var = see - se * se / n
    c = np.clip((sy * se / n - ye) / var, 0.0, None)
    g, j = np.unravel_index(np.argmax(c * c * var), c.shape)
    a = (sy + c[g, j] * se[g, j]) / n
    if float(np.max(np.abs(tau - tau[j]))) < 5.0 * tau_x[g, 0]:
        raise ValueError(
            "window too narrow: no plateau beyond 5 lifetimes of the dip")

    bounds = [(1e-300, np.inf), (0.0, 1.0),
              (-window_ns, window_ns), (bin_ns / 2.0, np.inf)]
    raw = levenberg_marquardt(
        cw_g2_model, tau, counts, [a, c[g, j] / a, tau[j], tau_x[g, 0]],
        jacobian=cw_g2_jacobian, bounds=bounds)
    return _result(G2CwParams.from_vector(raw.theta), raw)


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

    It starts at tau0 from a comb search over the side peaks (robust when
    the center peak is suppressed) and at the tauX on a ``_grid`` to the
    window whose solved background and heights leave the lowest
    chi-square. It fits the bins within (n_side + 0.5) periods of that
    tau0, with unit weights.

    Raises
    ------
    ValueError
        If the window does not cover (n_side + 0.5) periods, or fewer than
        3 solved side-peak heights rise resolvably above the background.
    """
    if period_ns <= 0:
        raise ValueError(f"period_ns must be positive, got {period_ns}")
    n_side = _whole(n_side, "n_side", low=1)
    counts = _counts(histogram)
    tau = histogram.tau_centers_ns
    window_ns = histogram.window / PS_PER_NS
    if window_ns < (n_side + 0.5) * period_ns:
        raise ValueError(
            f"window ({window_ns:.1f} ns) must cover (n_side + 0.5) periods "
            f"({(n_side + 0.5) * period_ns:.1f} ns)")

    tau0 = float(tau[_comb_search(tau, counts, period_ns, n_side)])
    fitted = np.abs(tau - tau0) <= (n_side + 0.5) * period_ns
    x, y = tau[fitted], counts[fitted]
    bin_ns = histogram.bin_width / PS_PER_NS
    grid = _grid(bin_ns, window_ns)
    p = 2 * n_side + 2  # background and heights: the amplitudes
    u = np.abs(_comb(x, np.r_[np.zeros(p), tau0, 1.0], period_ns)[3])
    # Held at exp(-50) past 50 tauX, which no sum sees, the kernel keeps the
    # small tauX off the slow subnormal path of exp and of the products.
    normal = [(b.T @ b, b.T @ y) for b in (
        _comb_basis(_kernel(np.minimum(u, 50 * t), t), n_side) for t in grid)]
    amps, chi2 = _amplitudes(*map(np.array, zip(*normal)), y @ y)
    g = int(np.argmin(chi2))

    side = np.delete(amps[g, 1:], n_side)
    resolvable = int(np.count_nonzero(side > 3 * math.sqrt(amps[g, 0] + 1)))
    if resolvable < 3:
        raise ValueError(
            f"only {resolvable} side peaks rise above the baseline; "
            "at least 3 are needed to anchor the comb")

    bounds = [(0.0, np.inf)] * p + [
        (tau0 - period_ns / 2.0, tau0 + period_ns / 2.0),
        (bin_ns / 2.0, np.inf)]
    raw = levenberg_marquardt(
        lambda xx, th: pulsed_g2_model(xx, th, period_ns), x, y,
        np.r_[amps[g], tau0, grid[g]],
        jacobian=lambda xx, th: pulsed_g2_jacobian(xx, th, period_ns),
        bounds=bounds)
    return _result(G2PwParams.from_vector(raw.theta, period_ns), raw)


def fit_multiexp(histogram: DecayHistogram, n_components: int = 3) -> FitResult:
    """Fit a multi-exponential decay to a sync-referenced histogram.

    The fit runs on bins at and after the histogram peak (tau0, held fixed
    at the argmax bin) with Poisson weights 1/max(counts, 1). It starts at
    the n_components (at most ``_GRID``) distinct lifetimes on a ``_grid``
    to the span after tau0 whose solved floor and amplitudes leave the
    lowest chi-square. Components come back sorted by lifetime, with sigma
    and covariance permuted to match. An amplitude within one sigma of
    zero, or with no positive sigma (two components merged into one
    lifetime), flags the result degenerate with a suggestion to refit with
    one fewer component.
    """
    n_components = _whole(n_components, "n_components")
    if not 1 <= n_components <= _GRID:
        raise ValueError(
            f"n_components must be from 1 to {_GRID}, got {n_components}")
    counts = _counts(histogram)
    tau = histogram.delay_centers_ns
    i_peak = int(np.argmax(counts))
    tau0 = float(tau[i_peak])
    x, y = tau[i_peak:], counts[i_peak:]
    p = 1 + 2 * n_components
    if y.size < p:
        raise ValueError(
            f"{y.size} bins after the peak cannot constrain {p} parameters")

    # Past 3 components a coarser grid keeps to C(_GRID, 3) combinations.
    size = max(g for g in range(n_components, _GRID + 1)
               if math.comb(g, n_components) <= math.comb(_GRID, 3))
    grid = _grid(histogram.bin_width / PS_PER_NS, x[-1] - tau0, size)
    weights = 1.0 / np.maximum(y, 1.0)
    basis = np.column_stack((np.ones_like(y),
                             _kernel((x - tau0)[:, None], grid)))
    bw = basis.T * weights
    gram, rhs = bw @ basis, bw @ y
    rows = np.array([(0, *c) for c in itertools.combinations(
        range(1, size + 1), n_components)])
    amps, chi2 = _amplitudes(gram[rows[:, :, None], rows[:, None, :]],
                             rhs[rows], y @ (weights * y))
    k = int(np.argmin(chi2))
    # (A, B1, tau1, B2, tau2, ...): a Fortran ravel interleaves B and tau
    init = np.r_[amps[k, 0],
                 np.ravel((amps[k, 1:], grid[rows[k, 1:] - 1]), order="F")]
    bounds = [(0.0, np.inf)] + [(0.0, np.inf), (1e-6, np.inf)] * n_components

    raw = levenberg_marquardt(
        lambda xx, th: multi_exp_model(xx, th, tau0), x, y, init,
        jacobian=lambda xx, th: multi_exp_jacobian(xx, th, tau0),
        weights=weights, bounds=bounds)

    # Sort components by lifetime and permute sigma/covariance to match.
    order = np.argsort(raw.theta[2::2], kind="stable")
    perm = np.concatenate(([0], np.stack((2 * order + 1, 2 * order + 2)).T.ravel()))
    raw = dataclasses.replace(raw, theta=raw.theta[perm], sigma=raw.sigma[perm],
                              covariance=raw.covariance[np.ix_(perm, perm)])
    amps, sigma = raw.theta[1::2], raw.sigma[1::2]
    if np.any((amps <= sigma) | (sigma == 0.0)):
        raw = dataclasses.replace(raw, flags=raw.flags + (
            "degenerate_component",
            f"suggest_n_components={max(n_components - 1, 1)}"))
    return _result(MultiExpParams.from_vector(raw.theta, tau0), raw)


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
        top = params.background + params.center_height
        value = top / norm
        grad = np.zeros(2 * n_side + 4)
        grad[1:-2] = -top / (norm * norm * (2 * n_side))
        grad[[0, 1 + n_side]] = 1.0 / norm
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
