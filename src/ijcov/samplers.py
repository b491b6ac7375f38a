"""Posterior samplers and the Newton MAP optimizer.

Three sampling paths share one entry point, :func:`sample_posterior`:

* exact IID draws for the conjugate models (NormalMeanModel,
  PoissonGammaConjugateModel);
* a Gibbs sweep for the Poisson random-effects model, using the derived
  conjugate conditionals
      u_g | rest ~ Gamma(alpha + sum_{n: a_n=g} w_n y_n,
                         beta + e^gamma sum_{n: a_n=g} w_n)
      e^gamma | rest ~ Gamma(sum_n w_n y_n, sum_g u_g sum_{n: a_n=g} w_n)
  with u_g = exp(lambda_g) (the flat prior on gamma contributes the -1 in
  the e^gamma shape through the Jacobian of c = e^gamma; the conditional is
  improper when sum w_n y_n = 0, which is an error).  The shapes are fixed
  for the whole chain, so the sweep pre-draws the standard-gamma variates for
  a chunk of iterations (about 1 MiB) in one call and scales them by the
  state-dependent 1/rate in the sequential recursion.  numpy draws
  Gamma(k, s) as s * standard_gamma(k), so this is the same RNG stream in the
  same order with the same products: the chain is bit-identical to drawing
  each conditional with ``rng.gamma``.  :func:`posterior_means` runs K such
  chains in lockstep, one K x G array operation per step instead of K
  1-D ones, and each chain keeps its bits: every chain draws from its own
  stream in the same order, the elementwise steps round each element
  correctly whatever the array around it, and each chain's u . w_g stays
  one BLAS dot (one row of ``np.vecdot``; a matrix product would change
  the summation order);
* random-walk Metropolis for any other model, with Robbins-Monro step
  adaptation toward 0.44 acceptance (1-D) or 0.23 (>= 2-D) during burn-in
  only.

The model's type picks the path; there is no override.  Burn-in and thinning
apply to the Markov samplers; the exact samplers return ``m_draws`` IID draws
as-is.  The Gibbs sweep starts from u_g = alpha/beta and
e^gamma = sum_n w_n y_n / sum_g u_g sum_{n: a_n=g} w_n; random-walk Metropolis
starts from the model's ``init`` point, else the origin.  One chain is
strictly sequential; independent chains derive their own RNG streams from
(seed, replicate-index).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .models import (
    Dataset, _origin_start_note, check_information, g_matrix, hessian_sum, log_lik_matrix,
    prior_hessian, prior_score, score_matrix, score_sum, start_point,
    validate_weights, weighted_log_posterior,
)
from .reference import (
    NormalMeanModel,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    exact_normal_posterior,
)
from .rng import KIND_CHAIN, stream

__all__ = [
    "ChainConfig",
    "PosteriorSample",
    "MapFit",
    "sample_posterior",
    "map_optimize",
    "ess",
]


@dataclass
class ChainConfig:
    """Sampler settings.

    ``m_draws`` counts total sampler iterations; Markov samplers discard
    ``burn_in`` of them (default m_draws // 2) and keep every ``thin``-th of
    the remainder, which must leave at least 2 retained draws.  Exact IID
    samplers ignore burn_in/thin.
    """

    m_draws: int
    burn_in: int | None = None
    thin: int = 1
    rng_seed: Any = 0

    def __post_init__(self):
        if self.m_draws < 2:
            raise ValueError("m_draws must be >= 2")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is not None and not (0 <= self.burn_in < self.m_draws):
            raise ValueError("burn_in must lie in [0, m_draws)")

    @property
    def resolved_burn_in(self) -> int:
        return self.m_draws // 2 if self.burn_in is None else self.burn_in

    def retained(self) -> int:
        kept = (self.m_draws - self.resolved_burn_in + self.thin - 1) // self.thin
        if kept < 2:
            raise ValueError("fewer than 2 draws retained after burn-in/thinning")
        return kept


@dataclass
class PosteriorSample:
    """M retained draws with per-draw g values and (optionally) the M x N
    per-datum log-likelihood matrix."""

    draws: np.ndarray
    g_values: np.ndarray
    loglik: np.ndarray | None
    n_data: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=np.float64))
        self.g_values = np.atleast_2d(np.asarray(self.g_values, dtype=np.float64))
        if self.g_values.shape[0] != self.draws.shape[0]:
            raise DimensionMismatchError("draws and g_values row counts differ")
        if not np.all(np.isfinite(self.draws)) or not np.all(
            np.isfinite(self.g_values)
        ):
            raise ValueError("draws and g_values must be finite")
        if self.loglik is not None:
            self.loglik = np.asarray(self.loglik, dtype=np.float64)
            if self.loglik.shape != (self.draws.shape[0], self.n_data):
                raise DimensionMismatchError(
                    f"loglik has shape {self.loglik.shape}, expected "
                    f"({self.draws.shape[0]}, {self.n_data})"
                )
            if not np.all(np.isfinite(self.loglik)):
                raise ValueError("loglik entries must be finite")

    @property
    def m(self) -> int:
        return self.draws.shape[0]

    @property
    def q(self) -> int:
        return self.g_values.shape[1]


def _group_fsum(values: np.ndarray, groups: np.ndarray, g_count: int) -> np.ndarray:
    """Per-group exact sums (fsum), so data permutations cannot change bits.

    One stable sort by group, then one fsum per run; `groups` must lie in
    [0, g_count)."""
    order = np.argsort(groups, kind="stable")
    bounds = np.searchsorted(groups[order], np.arange(g_count + 1)).tolist()
    vals = values[order].tolist()
    return np.array([math.fsum(vals[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])


def sample_posterior(
    model,
    data: Dataset,
    w=None,
    cfg: ChainConfig | None = None,
    *,
    want_loglik: bool = True,
) -> PosteriorSample:
    """Draw from the w-weighted posterior of `model` given `data`.

    Exact conjugate draws for NormalMeanModel and PoissonGammaConjugateModel,
    the Gibbs sweep for PoissonGammaREModel, and random-walk Metropolis for
    any other model; ``meta["method"]`` records which ran.  The sample
    carries g(theta^m) per draw and the M x N log-likelihood matrix when
    ``want_loglik``.
    """
    if cfg is None:
        raise ValueError("cfg is required")
    w = validate_weights(w, data.n)
    validate_data(model, data)
    rng = stream(cfg.rng_seed, KIND_CHAIN)

    meta: dict = {"method": "exact"}
    if isinstance(model, NormalMeanModel):
        mu, var = exact_normal_posterior(model, data, w)
        draws = (mu + math.sqrt(var) * rng.standard_normal(cfg.m_draws))[:, None]
    elif isinstance(model, PoissonGammaConjugateModel):
        shape, rate = model.posterior_params(data, w)
        draws = rng.gamma(shape, 1.0 / rate, size=cfg.m_draws)[:, None]
    elif isinstance(model, PoissonGammaREModel):
        meta["method"] = "gibbs"
        draws = _gibbs_poisson_re(model, [(data, w, rng)], cfg, full_rows=True)
    else:
        meta["method"] = "mh"
        draws, meta["mh_step"], meta["accept_rate"] = _mh_chain(model, data, w, cfg, rng)

    g_values = g_matrix(model, draws)
    loglik = log_lik_matrix(model, data, draws) if want_loglik else None
    return PosteriorSample(
        draws=draws, g_values=g_values, loglik=loglik, n_data=data.n, meta=meta
    )


# Standard-gamma variates pre-drawn per Gibbs chunk, over all the chains of
# one lockstep sweep: 2^17 float64 = 1 MiB.
_GAMMA_CHUNK_VARIATES = 1 << 17


def posterior_means(model, chains, cfg: ChainConfig) -> np.ndarray:
    """(K, q) posterior means of g of the chains (data, w, seed), each the
    bits of ``sample_posterior(model, data, w, cfg with rng_seed=seed)
    .g_values.mean(axis=0)``: random-effects chains as one lockstep Gibbs
    sweep that keeps only gamma, other models one chain at a time."""
    if isinstance(model, PoissonGammaREModel):
        rngs = [(data, w, stream(seed, KIND_CHAIN)) for data, w, seed in chains]
        return _gibbs_poisson_re(model, rngs, cfg, full_rows=False)
    return np.array([sample_posterior(model, data, w, dataclasses.replace(cfg, rng_seed=seed),
                                      want_loglik=False).g_values.mean(axis=0)
                     for data, w, seed in chains])


def validate_data(model, data: Dataset) -> None:
    """Refuse random-effects data with group labels outside [0, group_count)
    or all counts zero (an improper gamma posterior for any weights)."""
    if isinstance(model, PoissonGammaREModel):
        groups = data.units[:, 1]
        if groups.min() < 0 or groups.max() >= model.group_count:
            raise ValueError("group labels outside [0, group_count)")
        if not data.units[:, 0].any():
            raise ValueError("all counts are zero: improper posterior of gamma")


def _gibbs_poisson_re(model: PoissonGammaREModel, chains, cfg, *, full_rows: bool):
    """The Gibbs sweep over the K chains (data, w, rng) in lockstep.  With
    `full_rows` (K = 1) it returns the retained draws (gamma, lambda_1..G);
    else the K x 1 means of gamma, a NumericalError if e^gamma leaves (0, inf)."""
    g_count = model.group_count
    k_count = len(chains)
    w_g = np.empty((k_count, g_count))
    # Row k holds chain k's G u-shapes, then its e^gamma shape.
    shapes = np.empty((k_count, g_count + 1))
    c = np.empty(k_count)
    u0 = np.full(g_count, model.alpha / model.beta)
    for k, (data, w, _) in enumerate(chains):
        w = validate_weights(w, data.n)
        y = data.units[:, 0].astype(np.float64)
        s_wy = math.fsum((w * y).tolist())
        if s_wy <= 0:  # a replicate's weights or data zeroed the counts
            raise NumericalError(
                "improper conditional for gamma: sum of weighted counts is zero "
                "under the flat prior"
            )
        validate_data(model, data)  # its all-zero refusal cannot fire past s_wy > 0
        groups = data.units[:, 1].astype(np.int64)
        w_g[k] = _group_fsum(w, groups, g_count)
        shapes[k, :g_count] = model.alpha + _group_fsum(w * y, groups, g_count)
        shapes[k, g_count] = s_wy
        c[k] = s_wy / float(u0 @ w_g[k])

    burn = cfg.resolved_burn_in
    m_ret = cfg.retained()
    kept = np.empty((m_ret, 1 + g_count) if full_rows else (m_ret, k_count))
    u, rate = np.empty((2, k_count, g_count))
    dots = np.empty(k_count)
    c_col = c[:, None]  # c is only ever written in place
    # Chunk row j of chain k holds iteration j's G u-variates, then its
    # c-variate: the order in which per-iteration rng.gamma calls consume
    # chain k's stream.
    chunk = max(1, _GAMMA_CHUNK_VARIATES // (k_count * (g_count + 1)))
    z = np.empty((k_count, min(chunk, cfg.m_draws), g_count + 1))
    i = 0
    for start in range(0, cfg.m_draws, chunk):
        n_it = min(chunk, cfg.m_draws - start)
        for z_k, shape_k, (_, _, rng) in zip(z, shapes, chains):
            rng.standard_gamma(np.broadcast_to(shape_k, (n_it, g_count + 1)), out=z_k[:n_it])
        for j in range(n_it):
            # u = z * (1 / (beta + c w_g)), then c = (1 / (u . w_g)) * z_c; `out`
            # goes third, by position: parsing the keyword costs ~15% of a call
            np.multiply(c_col, w_g, rate)
            np.add(model.beta, rate, rate)
            np.divide(1.0, rate, rate)
            np.multiply(z[:, j, :g_count], rate, u)
            np.vecdot(u, w_g, dots)
            np.divide(1.0, dots, c)
            np.multiply(c, z[:, j, g_count], c)
            it = start + j
            if it >= burn and (it - burn) % cfg.thin == 0:
                if full_rows:
                    kept[i, 0] = math.log(c[0])
                    kept[i, 1:] = np.log(u[0])
                else:
                    kept[i] = c
                i += 1
    if full_rows:
        return kept
    if not (np.isfinite(kept).all() and (kept > 0).all()):
        raise NumericalError("e^gamma left (0, inf) in a replicate chain")
    # each chain's (m, 1) gamma column and its mean, as sample_posterior has them
    return np.array([
        np.array([math.log(x) for x in col]).reshape(-1, 1).mean(axis=0)
        for col in kept.T.tolist()
    ])


# Random-walk Metropolis step at the start of burn-in, before adaptation.
_MH_START_STEP = 0.5


def _mh_chain(model, data, w, cfg, rng):
    d = model.dim
    theta = start_point(model, data)
    logp = weighted_log_posterior(model, data, w, theta)
    if not math.isfinite(logp):
        raise NumericalError(
            "MH initialization has zero posterior density"
            + _origin_start_note(model)
        )

    target = 0.44 if d == 1 else 0.23
    step = _MH_START_STEP
    burn = cfg.resolved_burn_in
    m_ret = cfg.retained()
    draws = np.empty((m_ret, d))
    accepted_after = 0
    k = 0
    for it in range(cfg.m_draws):
        prop = theta + step * rng.standard_normal(d)
        lp = weighted_log_posterior(model, data, w, prop)
        accept = math.log(max(rng.random(), 1e-300)) < lp - logp
        if accept:
            theta, logp = prop, lp
        if it < burn:
            step = math.exp(
                math.log(step) + (float(accept) - target) / (it + 1) ** 0.6
            )
        if it >= burn:
            accepted_after += int(accept)
            if (it - burn) % cfg.thin == 0:
                draws[k] = theta
                k += 1
    rate = accepted_after / max(cfg.m_draws - burn, 1)
    if not (0.05 <= rate <= 0.95):
        warnings.warn(
            f"MH acceptance rate {rate:.3f} outside [0.05, 0.95] after adaptation",
            RuntimeWarning,
        )
    return draws[:k], step, rate


@dataclass
class MapFit:
    """MAP estimate with the likelihood-only information and score
    covariance needed by the sandwich estimator."""

    theta_hat: np.ndarray
    info_hat: np.ndarray
    score_cov_hat: np.ndarray
    converged: bool
    n_data: int = 0


# Newton iterations before map_optimize gives up (the fit is then unconverged).
_MAP_MAX_ITER = 100


def map_optimize(model, data: Dataset) -> MapFit:
    """Newton ascent with backtracking on the MAP objective

        L(theta) = (1/N) [ sum_n log_lik(x_n|theta) + log_prior(theta) ].

    Returns the fit with Î = -(1/N) sum_n hessian(x_n|theta_hat) (likelihood
    only; the prior enters the objective but not the information) and
    Σ̂ = covariance of the per-datum scores with divisor N.  Raises
    NumericalError("singular fit") when Î has min eigenvalue <= 1e-10 times
    its max eigenvalue, or <= 1e-6 times it for a model without a ``hessian``
    hook (:func:`models.check_information`).
    """
    n = data.n

    def objective(theta):
        return weighted_log_posterior(model, data, None, theta) / n

    def grad(theta):
        return (score_sum(model, data, theta) + prior_score(model, theta)) / n

    def hess(theta):
        return (hessian_sum(model, data, theta) + prior_hessian(model, theta)) / n

    theta = start_point(model, data)

    f = objective(theta)
    if not math.isfinite(f):
        raise NumericalError(
            "MAP initialization outside the model domain" + _origin_start_note(model)
        )

    def stationary():
        return float(np.linalg.norm(g)) <= 1e-8 * (1.0 + abs(f))

    g = grad(theta)
    for _ in range(_MAP_MAX_ITER):
        if stationary():
            break
        h = hess(theta)
        try:
            direction = np.linalg.solve(-h, g)
            if float(direction @ g) <= 0:
                direction = g.copy()
        except np.linalg.LinAlgError:
            direction = g.copy()
        # Backtracking line search (Armijo); objective never decreases
        # across accepted steps.  Stop when no step is accepted.
        t = 1.0
        slope = float(direction @ g)
        for _ in range(60):
            cand = theta + t * direction
            fc = objective(cand)
            if math.isfinite(fc) and fc >= f + 1e-4 * t * slope:
                theta, f = cand, fc
                break
            t *= 0.5
        else:
            break
        g = grad(theta)
    converged = stationary()

    info = -hessian_sum(model, data, theta) / n
    info = 0.5 * (info + info.T)
    check_information(model, info)

    scores = score_matrix(model, data, theta)
    centered = scores - scores.mean(axis=0, keepdims=True)
    sigma = centered.T @ centered / n
    sigma = 0.5 * (sigma + sigma.T)

    return MapFit(
        theta_hat=theta,
        info_hat=info,
        score_cov_hat=sigma,
        converged=converged,
        n_data=n,
    )


def ess(chain) -> float:
    """Effective sample size via Geyer's initial-positive-sequence rule.

    Autocorrelations are summed in consecutive pairs until a pair sum turns
    non-positive; ESS = M / tau clipped to (0, M].  A zero-variance chain
    returns M by convention.  Requires length >= 10.
    """
    x = np.asarray(chain, dtype=np.float64).reshape(-1)
    m = x.size
    if m < 10:
        raise ValueError("ess needs a chain of length >= 10")
    xc = x - x.mean()
    var0 = float(xc @ xc) / m
    if var0 == 0.0:
        return float(m)
    nfft = 1 << (2 * m - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:m] / m
    rho = acov / acov[0]
    tau = -1.0
    k = 0
    while 2 * k + 1 < m:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
        k += 1
    if tau <= 0:
        return float(m)
    return float(min(m, m / tau))
