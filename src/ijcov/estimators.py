"""The four covariance estimators and the influence scores they share.

All estimators report on the sqrt(N) scale, so their outputs are directly
comparable: the influence-score covariance (over datapoints), N times the
posterior covariance of g (Bayes), the covariance of sqrt(N) times bootstrap
replicate means, and the sandwich at the MAP.

Divisor conventions (documented because they matter at desk scale): M-1 over
draws, N-1 over datapoints, B-1 over bootstrap replicates, N for the score
covariance inside the sandwich.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .models import Dataset, g_jacobian
from .rng import KIND_BOOT, seed_sequence
from .samplers import ChainConfig, MapFit, PosteriorSample, sample_posterior

__all__ = [
    "InfluenceMatrix",
    "CovEstimate",
    "influence_scores",
    "ij_covariance",
    "bayes_covariance",
    "bootstrap_covariance",
    "bootstrap_covariance_exhaustive",
    "sandwich_covariance",
]

# Methods whose covariance is Gram-type and must be PSD.
_PSD_METHODS = {"bayes", "ij", "boot", "sim"}


@dataclass
class InfluenceMatrix:
    """N x q influence scores: psi_n = N * cov over draws of (loglik_n, g)."""

    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.atleast_2d(np.asarray(self.psi, dtype=np.float64))
        if not np.all(np.isfinite(self.psi)):
            raise ValueError("influence scores must be finite")

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def q(self) -> int:
        return self.psi.shape[1]


@dataclass
class CovEstimate:
    """q x q covariance estimate with a method label, optional entrywise
    Monte-Carlo SE matrix, and the sample size it was computed from (M draws,
    B replicates, or N datapoints depending on the method)."""

    v: np.ndarray
    method: str
    se: np.ndarray | None = None
    b_or_m: int = 0

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.v, dtype=np.float64))
        if v.shape[0] != v.shape[1]:
            raise ValueError("covariance estimate must be square")
        scale = max(1.0, float(np.abs(v).max()) if v.size else 1.0)
        if np.abs(v - v.T).max() > 1e-12 * scale:
            raise ValueError("covariance estimate is not symmetric")
        v = 0.5 * (v + v.T)
        if self.method in _PSD_METHODS:
            evals = np.linalg.eigvalsh(v)
            if evals.min() < -1e-10 * max(np.trace(v), 1e-300):
                raise ValueError(
                    f"{self.method} covariance has negative eigenvalue "
                    f"{evals.min():.3e}"
                )
        self.v = v
        if self.se is not None:
            self.se = np.atleast_2d(np.asarray(self.se, dtype=np.float64))
            if self.se.shape != v.shape:
                raise ValueError("SE matrix shape does not match estimate")

    @property
    def q(self) -> int:
        return self.v.shape[0]

    def with_se(self, se) -> "CovEstimate":
        return dataclasses.replace(self, se=se)


def influence_scores(sample: PosteriorSample) -> InfluenceMatrix:
    """psi_n = N * sample covariance (divisor M-1) between log-lik column n
    and each g column; shape (N, q)."""
    if sample.loglik is None:
        raise ValueError("sample has no log-likelihood matrix")
    m = sample.m
    if m < 2:
        raise ValueError("need at least 2 draws")
    ll_c = sample.loglik - sample.loglik.mean(axis=0, keepdims=True)
    g_c = sample.g_values - sample.g_values.mean(axis=0, keepdims=True)
    psi = sample.n_data * (ll_c.T @ g_c) / (m - 1)
    return InfluenceMatrix(psi)


def ij_covariance(psi: InfluenceMatrix) -> CovEstimate:
    """Sample covariance of the influence-score rows (divisor N-1)."""
    if psi.n < 2:
        raise ValueError("need at least 2 datapoints")
    centered = psi.psi - psi.psi.mean(axis=0, keepdims=True)
    v = centered.T @ centered / (psi.n - 1)
    return CovEstimate(v=v, method="ij", b_or_m=psi.n)


def bayes_covariance(sample: PosteriorSample) -> CovEstimate:
    """N times the posterior covariance of g (divisor M-1), so the estimate
    lives on the same sqrt(N) scale as the other three."""
    if sample.m < 2:
        raise ValueError("need at least 2 draws")
    g_c = sample.g_values - sample.g_values.mean(axis=0, keepdims=True)
    v = sample.n_data * (g_c.T @ g_c) / (sample.m - 1)
    return CovEstimate(v=v, method="bayes", b_or_m=sample.m)


def map_replicates(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in task order: in-process when threads <= 1,
    else on a pool of `threads` worker processes fed one task at a time.
    `fn` must be a module-level function and the tasks picklable.  Results
    come back in task order, so tasks that each carry their own
    (seed, replicate) stream give the same list for any worker count."""
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _bootstrap_replicate(args):
    model, data, cfg, seed, rep, method = args
    try:
        w_rng = np.random.Generator(np.random.Philox(seed_sequence(seed, KIND_BOOT, rep, 0)))
        w = w_rng.multinomial(data.n, np.full(data.n, 1.0 / data.n)).astype(np.float64)
        rep_cfg = dataclasses.replace(
            cfg, rng_seed=seed_sequence(seed, KIND_BOOT, rep, 1)
        )
        sub = sample_posterior(
            model, data, w, rep_cfg, method=method, want_loglik=False, compute_ess=False
        )
        return sub.g_values.mean(axis=0)
    except Exception as exc:  # noqa: BLE001 - re-raised with replicate index
        raise NumericalError(f"bootstrap replicate {rep} failed: {exc}") from exc


def bootstrap_covariance(
    model,
    data: Dataset,
    cfg: ChainConfig,
    b: int,
    seed: int,
    *,
    method: str = "auto",
    threads: int = 1,
):
    """Multinomial-weight bootstrap of the posterior mean.

    Draws B weight vectors w^b ~ Multinomial(N, 1/N), reruns the sampler
    under each, and returns (CovEstimate of sqrt(N) * replicate means with
    divisor B-1, the raw B x q replicate-mean matrix).  Replicates use
    independent (seed, replicate) RNG streams and an ordered reduction, so
    the result is identical for any worker count.  A replicate failure
    raises, naming the replicate — no silent skipping.
    """
    if b < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    tasks = [(model, data, cfg, seed, rep, method) for rep in range(b)]
    means = np.asarray(map_replicates(_bootstrap_replicate, tasks, threads), dtype=np.float64)
    t = math.sqrt(data.n) * means
    t_c = t - t.mean(axis=0, keepdims=True)
    v = t_c.T @ t_c / (b - 1)
    return CovEstimate(v=v, method="boot", b_or_m=b), means


def bootstrap_covariance_exhaustive(data: Dataset, functional, *, max_n: int = 6) -> CovEstimate:
    """Exhaustive enumeration of every resample (test-only mode for tiny N).

    Enumerates all N^N equally likely index draws, maps each weight vector
    through `functional` (a callable w -> length-q vector, e.g. the weighted
    data mean), and returns the population covariance (divisor N^N) of
    sqrt(N) times the functional values.
    """
    n = data.n
    if n > max_n:
        raise ValueError(f"exhaustive enumeration is limited to N <= {max_n}")
    values = []
    for idx in itertools.product(range(n), repeat=n):
        w = np.bincount(np.asarray(idx), minlength=n).astype(np.float64)
        values.append(np.atleast_1d(np.asarray(functional(w), dtype=np.float64)))
    t = math.sqrt(n) * np.asarray(values)
    t_c = t - t.mean(axis=0, keepdims=True)
    v = t_c.T @ t_c / t.shape[0]
    return CovEstimate(v=v, method="boot", b_or_m=t.shape[0])


def sandwich_covariance(fit: MapFit, model) -> CovEstimate:
    """V = grad_g(theta_hat) I^-1 Sigma I^-1 grad_g(theta_hat)^T.

    Requires a converged fit and nonsingular likelihood information.
    """
    if not fit.converged:
        raise NumericalError("MAP optimization did not converge")
    info = fit.info_hat
    evals = np.linalg.eigvalsh(info)
    if evals.min() <= 1e-10 * max(evals.max(), 0.0):
        raise NumericalError("singular fit")
    inner = np.linalg.solve(info, fit.score_cov_hat)
    inner = np.linalg.solve(info, inner.T).T
    gg = g_jacobian(model, fit.theta_hat)
    v = gg @ inner @ gg.T
    v = 0.5 * (v + v.T)
    return CovEstimate(v=v, method="sandwich", b_or_m=fit.n_data)

