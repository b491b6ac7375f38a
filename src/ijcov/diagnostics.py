"""Bias diagnostics for grouped global-local models, plus the posterior
expansion check.

The influence-score covariance can underestimate the truth when each global
parameter interacts with many weakly informed local parameters.  For models
whose per-datum likelihood is conditionally exponential-family,

    log p(y_n | theta) = ytil_n . eta_{a_n}(theta),

with ytil_n the sufficient-statistic vector of datum n and eta_g the natural
parameter of its group, the diagnostics need

    m_g, S_g    within-group first moment and second moment of ytil
                (divisor n_g),
    L_gg        N * E_post[ gbar * Cov(eta_g | gamma, data) ],

where gbar is the centered quantity of interest.  The groups are
conditionally independent given the global parameter, so L is
block-diagonal and only its diagonal blocks are formed.  (The posterior
second moment of eta also carries a conditional-mean term
N^2 E_post[ gbar * mubar_g mubar_h^T ]; the diagnostics below do not use it.)
The per-draw conditional covariances are asked for one slice of groups at a
time, ``conditional_cov(draws, slice(a, b))``, with each M x (b - a) x d x d
block held to the shared ``models._BLOCK_CELLS`` budget (2^16 cells), so the
M x G x d x d array is never built.
The headline scalar is

    kappa_hat = (1/G) sum_g tr(S_g^{1/2} L_gg S_g^{1/2}),

the leading bias of the influence-score covariance relative to the truth;
rho_nn and the rank-one residual term quantify the same object per datum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models
from .errors import NumericalError
from .models import Dataset, hessian_sum, loglik_vector, prior_hessian
from .samplers import PosteriorSample, map_optimize
from .special import special_trigamma

__all__ = [
    "GroupedExpFamilyView",
    "KappaRho",
    "poisson_re_view",
    "poisson_re_truth_moments",
    "empirical_group_moments",
    "l_diag_from_chain",
    "kappa_and_rho",
    "diagnose",
    "BcltCheck",
    "bclt_expansion_check",
]


@dataclass
class GroupedExpFamilyView:
    """How to read a fitted model as a grouped exponential family.

    ``y`` holds the per-datum sufficient statistics (N x y_dim), ``groups``
    the group label of each datum.  ``conditional_cov(draws, groups)`` maps
    the M x D parameter draws and a ``slice`` [a, b) of group labels to the
    closed-form conditional covariances (M x (b - a) x y_dim x y_dim) of eta
    given the global parameter and the data; it reads the global parameter
    from the draws itself.  ``l_diag_from_chain`` asks for slices whose
    block fits ``models._BLOCK_CELLS`` cells (one group when a single group
    exceeds it), so the hook never has to build all G groups at once.
    """

    y: np.ndarray
    groups: np.ndarray
    g_count: int
    conditional_cov: Callable[[np.ndarray, slice], np.ndarray]

    def __post_init__(self):
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        self.groups = np.asarray(self.groups, dtype=np.int64).reshape(-1)
        if self.y.shape[0] != self.groups.size:
            raise ValueError("y and groups disagree on N")
        if self.g_count < 1:
            raise ValueError("g_count must be >= 1")
        if self.groups.size and (
            self.groups.min() < 0 or self.groups.max() >= self.g_count
        ):
            raise ValueError("group labels outside [0, g_count)")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def y_dim(self) -> int:
        return self.y.shape[1]


def poisson_re_view(model, data: Dataset) -> GroupedExpFamilyView:
    """Grouped view of the Poisson random-effects model.

    Sufficient statistics ytil_n = (y_n, 1) and natural parameters
    eta_g = (gamma + lambda_g, -exp(gamma + lambda_g)), so that
    log p(y_n | theta) = y_n (gamma + lambda_g) - exp(gamma + lambda_g)
    is exactly ytil_n . eta_{a_n}.

    Conditional on gamma and the data, u_g = exp(lambda_g) is
    Gamma(A_g, B_g) with A_g = alpha + sum_{n in g} y_n and
    B_g = beta + n_g e^gamma, giving closed-form conditional moments of
    eta_g = (gamma + log u_g, -e^gamma u_g); the view computes the
    covariance of the requested groups from gamma, column 0 of the draws:

        E[eta_g | gamma]   = (gamma + psi(A_g) - log B_g, -e^gamma A_g / B_g)
        Cov[eta_g | gamma] = [[psi1(A_g),      -e^gamma / B_g          ],
                              [-e^gamma / B_g,  e^{2 gamma} A_g / B_g^2]]
    """
    counts = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    g_count = model.group_count
    n_g = np.bincount(groups, minlength=g_count).astype(np.float64)
    sum_y = np.bincount(groups, weights=counts, minlength=g_count)
    a_g = model.alpha + sum_y
    psi1_a = special_trigamma(a_g)

    def conditional_cov(draws, groups):
        gam = np.ascontiguousarray(draws[:, 0], dtype=np.float64)
        c = np.exp(gam)[:, None]
        b = model.beta + n_g[None, groups] * c
        j = np.empty(b.shape + (2, 2))
        j[:, :, 0, 0] = psi1_a[None, groups]
        # -c / b and c**2 a_g / b**2 written into j and b, with no second
        # temporary the size of b (a copy between two fields of j would buffer one)
        np.divide(-c, b, out=j[:, :, 0, 1])
        np.divide(-c, b, out=j[:, :, 1, 0])
        np.multiply(b, b, out=b)
        np.multiply(c**2, a_g[None, groups], out=j[:, :, 1, 1])
        np.divide(j[:, :, 1, 1], b, out=j[:, :, 1, 1])
        return j

    return GroupedExpFamilyView(
        y=np.column_stack([counts, np.ones_like(counts)]),
        groups=groups,
        g_count=g_count,
        conditional_cov=conditional_cov,
    )


def poisson_re_truth_moments(theta_true) -> tuple[np.ndarray, np.ndarray]:
    """Population within-group moments of ytil = (y, 1) at the true
    parameters: m_g = (rho_g, 1) and S_g = [[rho + rho^2, rho], [rho, 1]]
    with rho_g = exp(gamma + lambda_g) (Poisson variance equals the mean)."""
    theta = np.asarray(theta_true, dtype=np.float64)
    rho = np.exp(theta[0] + theta[1:])
    g = rho.size
    m = np.column_stack([rho, np.ones(g)])
    s = np.empty((g, 2, 2))
    s[:, 0, 0] = rho + rho**2
    s[:, 0, 1] = s[:, 1, 0] = rho
    s[:, 1, 1] = 1.0
    return m, s


def empirical_group_moments(view: GroupedExpFamilyView) -> tuple[np.ndarray, np.ndarray]:
    """Within-group moments of the observed sufficient statistics
    (divisor n_g).  Groups with no data get zero rows and a warning; all
    groups empty is an error."""
    g, d = view.g_count, view.y_dim
    n_g = np.bincount(view.groups, minlength=g)
    if n_g.sum() == 0:
        raise ValueError("all groups are empty")
    empty = int((n_g == 0).sum())
    if empty:
        warnings.warn(
            f"{empty} of {g} groups have no data; their moment rows are zero",
            RuntimeWarning,
        )
    m = np.zeros((g, d))
    s = np.zeros((g, d, d))
    np.add.at(m, view.groups, view.y)
    np.add.at(s, view.groups, view.y[:, :, None] * view.y[:, None, :])
    nz = n_g > 0
    m[nz] /= n_g[nz, None]
    s[nz] /= n_g[nz, None, None]
    return m, s


def l_diag_from_chain(sample: PosteriorSample, view: GroupedExpFamilyView) -> np.ndarray:
    """Chain estimate of the diagonal L blocks, (G x y_dim x y_dim), for the
    first quantity of interest.

    The posterior expectation is the plain draw average (divisor M) with g
    centered at its sample mean.  The off-diagonal blocks are zero (the
    groups are conditionally independent given the global parameter), so
    they are never formed.  The conditional covariances come one group
    block of at most ``models._BLOCK_CELLS`` cells at a time; each output
    entry sums over the draws in the same order for any block width, so the
    result has the bits of the whole-array reduction.
    """
    gbar = sample.g_values[:, 0] - sample.g_values[:, 0].mean()
    g, width = view.g_count, max(1, models._BLOCK_CELLS // (sample.m * view.y_dim**2))
    # each block is dropped as soon as it is reduced, so one block is alive
    blocks = [
        np.einsum("m,mgij->gij", gbar, np.asarray(
            view.conditional_cov(sample.draws, slice(a, min(a + width, g))), dtype=np.float64))
        for a in range(0, g, width)
    ]
    return view.n * np.concatenate(blocks) / sample.m


@dataclass
class KappaRho:
    """kappa_hat with its per-group traces, the per-datum diagonal rho_nn,
    and the rank-one residual term."""

    kappa_hat: float
    per_group_trace: np.ndarray
    rho_nn: np.ndarray
    resid_t1_hat: float

    @property
    def rho_bar(self) -> float:
        return float(self.rho_nn.mean())


def _sqrt_psd(mats: np.ndarray, what: str) -> np.ndarray:
    """Symmetric PSD square roots of a stack of matrices; eigenvalues below
    -1e-8 (relative) are an error, small negatives are clipped to zero."""
    evals, evecs = np.linalg.eigh(mats)
    scale = max(1.0, float(np.abs(evals).max()) if evals.size else 1.0)
    if evals.min() < -1e-8 * scale:
        raise NumericalError(
            f"{what} is not positive semidefinite (min eigenvalue "
            f"{evals.min():.3e})"
        )
    root = np.sqrt(np.clip(evals, 0.0, None))
    return np.einsum("gik,gk,gjk->gij", evecs, root, evecs)


def kappa_and_rho(
    view: GroupedExpFamilyView,
    m_g: np.ndarray,
    s_g: np.ndarray,
    l_diag: np.ndarray,
) -> KappaRho:
    """The scalar diagnostics built from within-group moments and the
    diagonal L blocks (G x y_dim x y_dim).

    With ytil_ng = sqrt(G) [n in g] y_n - m_g / sqrt(G):

        rho_nm       = (1/G) sum_g ytil_ng^T L_gg ytil_mg
        kappa_hat    = (1/G) sum_g tr(S_g^{1/2} L_gg S_g^{1/2})
        resid_t1_hat = (1/(N G)) sum_g t_g^T L_gg t_g,  t_g = sum_n ytil_ng.

    Only the diagonal rho_nn is materialized (the full N x N matrix is
    never needed); its mean tracks kappa_hat up to O(1/G) when the moments
    are empirical.
    """
    g, d = view.g_count, view.y_dim
    m_g = np.asarray(m_g, dtype=np.float64).reshape(g, d)
    s_g = np.asarray(s_g, dtype=np.float64).reshape(g, d, d)
    l_diag = np.asarray(l_diag, dtype=np.float64)
    if l_diag.shape != (g, d, d):
        raise ValueError(f"l_diag must be (G, d, d) = {(g, d, d)}, got {l_diag.shape}")

    root = _sqrt_psd(s_g, "S_g")
    inner = np.einsum("gij,gjk,gkl->gil", root, l_diag, root)
    per_group_trace = np.einsum("gii->g", inner)
    kappa_hat = float(per_group_trace.mean())

    # rho_nn via the group decomposition: for datum n in group gn,
    #   rho_nn = (1/G) [ atil^T L_gn atil + (const - mLm_gn) / G ]
    # with atil = sqrt(G) y_n - m_gn / sqrt(G) and const = sum_g m^T L m.
    m_l_m = np.einsum("gi,gij,gj->g", m_g, l_diag, m_g)
    const = float(m_l_m.sum())
    sqrt_g = math.sqrt(g)
    atil = sqrt_g * view.y - m_g[view.groups] / sqrt_g
    quad = np.einsum("ni,nij,nj->n", atil, l_diag[view.groups], atil)
    rho_nn = (quad + (const - m_l_m[view.groups]) / g) / g

    sums = np.zeros((g, d))
    np.add.at(sums, view.groups, view.y)
    t_g = sqrt_g * sums - view.n * m_g / sqrt_g
    resid = float(np.einsum("gi,gij,gj->", t_g, l_diag, t_g) / (view.n * g))

    return KappaRho(
        kappa_hat=kappa_hat,
        per_group_trace=per_group_trace,
        rho_nn=rho_nn,
        resid_t1_hat=resid,
    )


def diagnose(
    sample: PosteriorSample, view: GroupedExpFamilyView, *, moments="empirical"
) -> KappaRho:
    """One-call pipeline: moments, diagonal L blocks, kappa and rho.

    ``moments`` is "empirical" or an explicit (m_g, S_g) pair (for
    known-truth centering in simulations).
    """
    if isinstance(moments, str):
        if moments != "empirical":
            raise ValueError("moments must be 'empirical' or an (m_g, S_g) pair")
        m_g, s_g = empirical_group_moments(view)
    else:
        m_g, s_g = moments
    return kappa_and_rho(view, m_g, s_g, l_diag_from_chain(sample, view))


@dataclass
class BcltCheck:
    """Residuals of the first-order posterior expansion on nested datasets
    and the fitted log-log decay slope (about -2 when the expansion and the
    fitted correction are both right)."""

    n_values: np.ndarray
    posterior_means: np.ndarray
    map_values: np.ndarray
    corrections: np.ndarray
    residuals: np.ndarray
    slope: float


def _third_derivative(model, data: Dataset, theta_hat: float) -> float:
    """(1/N) d^3/dtheta^3 of [sum log_lik + log_prior] at the MAP.  Each of
    the ``loglik_d3`` and ``prior_d3`` hooks falls back on its own 4-point
    difference."""
    t = np.array([theta_hat])
    if hasattr(model, "loglik_d3"):
        ll = math.fsum(float(model.loglik_d3(data.unit(i), t)) for i in range(data.n))
    else:
        ll = _d3(lambda x: math.fsum(loglik_vector(model, data, np.array([x])).tolist()), theta_hat)
    if hasattr(model, "prior_d3"):
        lp = float(model.prior_d3(t))
    else:
        lp = _d3(lambda x: float(model.log_prior(np.array([x]))), theta_hat)
    return (ll + lp) / data.n


def _d3(f, x: float) -> float:
    """4-point central difference of the third derivative of f at x."""
    h = 1e-3 * (1.0 + abs(x))
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)


def _prior_grid(model, grid: np.ndarray) -> np.ndarray:
    if hasattr(model, "log_prior_vector"):
        return np.asarray(model.log_prior_vector(grid), dtype=np.float64)
    return np.array([float(model.log_prior(np.array([t]))) for t in grid])


def _posterior_expectation(
    model, data: Dataset, phi, theta_hat: float, c2: float, *, rtol: float = 1e-11
) -> float:
    """E_post[phi(theta)] by trapezoid quadrature with grid doubling.

    The grid spans theta_hat +- 12 posterior SDs (clipped to the model
    domain); doubling stops when two successive refinements agree to rtol.
    """
    n = data.n
    sd = 1.0 / math.sqrt(n * c2)
    lo, hi = theta_hat - 12.0 * sd, theta_hat + 12.0 * sd
    low_bound = getattr(model, "domain_low", None)
    if low_bound is not None and lo <= low_bound:
        lo = low_bound + 1e-12 * max(theta_hat - low_bound, sd)

    prev = None
    for k in range(9, 23):
        grid = np.linspace(lo, hi, 2**k + 1)
        logpost = model.sum_loglik_grid(data, grid) + _prior_grid(model, grid)
        w = np.exp(logpost - logpost.max())
        z = np.trapezoid(w, grid)
        if z <= 0 or not math.isfinite(z):
            raise NumericalError("quadrature normalizer is degenerate")
        val = np.trapezoid(w * phi(grid), grid) / z
        if prev is not None and abs(val - prev) <= rtol * (abs(val) + 1e-300):
            return float(val)
        prev = val
    raise NumericalError("posterior quadrature did not converge")


def bclt_expansion_check(
    problems,
    phi,
    dphi,
    d2phi,
    *,
    rtol: float = 1e-11,
) -> BcltCheck:
    """Check the first-order expansion of a posterior expectation.

    For each (model, data) problem (1-D parameter), compute the exact
    posterior mean of phi by quadrature, the MAP value, and the analytic
    correction

        (1/N) [ phi''(th) / (2 c2) + phi'(th) c3 / (2 c2^2) ]

    with c2 = -(1/N) d2/dth2 and c3 = (1/N) d3/dth3 of the full log
    posterior at the MAP.  Residuals |E[phi] - phi(th) - correction| decay
    like N^-2 when everything is correct; the fitted log-log slope is
    returned.  Every model must have a ``sum_loglik_grid`` hook (the
    quadrature needs it); a problem that is not 1-D or lacks the hook is
    refused before any computation.
    """
    problems = list(problems)
    for model, _ in problems:
        if model.dim != 1:
            raise ValueError("expansion check handles 1-D parameters only")
        if not hasattr(model, "sum_loglik_grid"):
            raise ValueError("bclt_expansion_check needs a sum_loglik_grid hook")
    n_values, e_phi, phi_map, corrections, residuals = [], [], [], [], []
    for model, data in problems:
        fit = map_optimize(model, data)
        if not fit.converged:
            raise NumericalError("MAP optimization did not converge")
        th = float(fit.theta_hat[0])
        n = data.n

        # Full curvature of the normalized log posterior (prior included).
        curv = hessian_sum(model, data, fit.theta_hat) + prior_hessian(model, fit.theta_hat)
        c2 = -float(curv[0, 0]) / n
        if c2 <= 0:
            raise NumericalError("posterior curvature is not positive")
        c3 = _third_derivative(model, data, th)

        val = _posterior_expectation(model, data, phi, th, c2, rtol=rtol)
        corr = (d2phi(th) / (2.0 * c2) + dphi(th) * c3 / (2.0 * c2**2)) / n
        n_values.append(n)
        e_phi.append(val)
        phi_map.append(float(np.asarray(phi(np.array([th]))).reshape(-1)[0]))
        corrections.append(corr)
        residuals.append(abs(val - phi_map[-1] - corr))

    n_values = np.asarray(n_values, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    ok = residuals > 0
    if ok.sum() >= 2:
        slope = float(
            np.polyfit(np.log(n_values[ok]), np.log(residuals[ok]), 1)[0]
        )
    else:
        slope = float("nan")
    return BcltCheck(
        n_values=n_values,
        posterior_means=np.asarray(e_phi),
        map_values=np.asarray(phi_map),
        corrections=np.asarray(corrections),
        residuals=residuals,
        slope=slope,
    )
