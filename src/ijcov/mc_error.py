"""Monte-Carlo error for the estimators themselves.

Two mechanisms:

* a block bootstrap over retained draws, for statistics computed from one
  chain (the Bayes and IJ covariances inherit MCMC noise from the draws).
  The replicates are one stacked call of the chain-statistics core of
  :mod:`ijcov.estimators`, which also computes the full-chain estimates and
  holds their divisors: the chain is summed once per block, and a replicate
  only reweights those block sums by how often it drew each block;
* a delta-method SE for the bootstrap covariance, propagating the B-replicate
  scatter of (t_i t_j, t_i, t_j) through h(m11, m10, m01) = m11 - m10 * m01.

Both report entrywise SE matrices.  The Z and Delta comparison metrics
combine them: Z is a noise-scaled IJ-vs-bootstrap discrepancy, Delta a
relative deviation from the bootstrap with its SE folded into the
denominator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import CovEstimate, _BlockSums, _check_chain
from .rng import KIND_BLOCK_BOOT, stream
from .samplers import PosteriorSample, ess

__all__ = [
    "SEMatrix",
    "block_bootstrap_se",
    "delta_method_boot_se",
    "z_matrix",
    "delta_metrics",
]

_STATISTICS = ("bayes_cov", "ij_cov", "mean_g")

# fewest bootstrap replicates whose delta-method SE is trusted
MIN_BOOT_REPS = 10
# fewest block-bootstrap replicates whose SD is reported as an SE
MIN_SE_REPS = 50


@dataclass
class SEMatrix:
    """Entrywise Monte-Carlo SEs of one statistic, or of several stacked on axis 0."""

    xi: np.ndarray
    method: str
    blocks: int | None = None
    reps: int | None = None

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=np.float64)
        if not np.all(np.isfinite(self.xi)) or np.any(self.xi < 0):
            raise ValueError("SE entries must be finite and nonnegative")


def block_bootstrap_se(
    sample: PosteriorSample,
    statistic: str | tuple[str, ...] = "bayes_cov",
    *,
    blocks: int | None = None,
    reps: int = 200,
    seed: int = 0,
) -> SEMatrix:
    """Block bootstrap over retained draws.

    Splits the chain into `blocks` contiguous blocks (np.array_split), draws
    blocks with replacement, evaluates the statistic on the resample, and
    reports the entrywise SD (divisor reps-1) over replicates.  The resample
    is never built: a replicate weights the per-block sums by its block
    counts (bincount of its picks), and all replicates are drawn at once and
    evaluated as one stacked call; memory stays O((blocks + reps) * N * q).
    The default block count max(20, M // (10 * tau_hat)) keeps blocks a few
    autocorrelation times long; a warning fires when blocks end up shorter
    than 5 * tau_hat.

    A tuple of statistic names (of one shape) shares the block sums, tau_hat
    and the picks, and stacks their SEs on axis 0 of `xi`; each keeps the
    bits of its own call, as a block's g sums do not depend on the
    log-likelihood sums built beside them.
    """
    names = (statistic,) if isinstance(statistic, str) else tuple(statistic)
    for name in names:
        if name not in _STATISTICS:
            raise ValueError(f"statistic must be one of {_STATISTICS}")
        _check_chain(sample, name)
    if reps < MIN_SE_REPS:
        raise ValueError(f"reps must be >= {MIN_SE_REPS}")
    m = sample.m

    tau = max(1.0, *(m / ess(col) for col in sample.g_values.T)) if m >= 10 else 1.0

    if blocks is None:
        blocks = max(20, int(m // (10.0 * tau)))
        blocks = max(2, min(blocks, m // 2))
    if blocks < 2 or blocks > m // 2:
        raise ValueError(
            f"blocks must lie in [2, M // 2] = [2, {m // 2}], got {blocks}"
        )

    # np.array_split's blocks: the first m % blocks are one draw longer
    min_len, longer = divmod(m, blocks)
    k = np.arange(blocks + 1)
    bounds = k * min_len + np.minimum(k, longer)
    if min_len < 5.0 * tau:
        warnings.warn(
            f"shortest block ({min_len} draws) is under 5 estimated "
            f"autocorrelation times (tau_hat = {tau:.1f}); block-bootstrap "
            "SEs may be optimistic",
            RuntimeWarning,
        )

    sums = _BlockSums(sample, bounds, with_loglik="ij_cov" in names)
    rng = stream(seed, KIND_BLOCK_BOOT)
    # one (reps, blocks) draw is the stream of reps draws of `blocks`: the
    # bit generator, not the call, holds the spare 32-bit half of a word
    picks = rng.integers(0, blocks, size=(reps, blocks)) + blocks * np.arange(reps)[:, None]
    counts = np.bincount(picks.ravel(), minlength=reps * blocks).reshape(reps, blocks)
    xi = [sums.statistic(counts, name).std(axis=0, ddof=1) for name in names]
    return SEMatrix(xi=xi[0] if isinstance(statistic, str) else np.stack(xi),
                    method=f"block_bootstrap[{','.join(names)}]", blocks=blocks, reps=reps)


def delta_method_boot_se(replicate_means: np.ndarray, n_data: int) -> SEMatrix:
    """Delta-method SE for each entry of the bootstrap covariance.

    `replicate_means` is the B x q matrix of per-replicate posterior means.
    With t = sqrt(N) * means, entry (i, j) of the bootstrap covariance is
    h(m11, m10, m01) = m11 - m10 * m01 evaluated at sample moments of
    (t_i t_j, t_i, t_j); the SE is sqrt(grad_h' C grad_h / B) with C the
    3 x 3 replicate covariance (divisor B-1).
    """
    means = np.atleast_2d(np.asarray(replicate_means, dtype=np.float64))
    b, q = means.shape
    if b < MIN_BOOT_REPS:
        raise ValueError(f"delta-method SE is unreliable below B = {MIN_BOOT_REPS} replicates")
    t = math.sqrt(n_data) * means
    xi = np.empty((q, q))
    for i in range(q):
        for j in range(i, q):
            triple = np.column_stack([t[:, i] * t[:, j], t[:, i], t[:, j]])
            c = np.cov(triple, rowvar=False, ddof=1)
            grad = np.array([1.0, -t[:, j].mean(), -t[:, i].mean()])
            var = float(grad @ c @ grad)
            xi[i, j] = xi[j, i] = math.sqrt(max(var, 0.0) / b)
    return SEMatrix(xi=xi, method="delta_boot", reps=b)


def _safe_ratio(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num/den with 0/0 -> 0 and x/0 -> a +-inf sentinel plus a warning."""
    zero_den = den == 0.0
    if np.any(zero_den & (num != 0.0)):
        warnings.warn(
            f"{what}: zero denominator with nonzero difference; "
            "entries set to +-inf sentinels",
            RuntimeWarning,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den)
    out[zero_den & (num == 0.0)] = 0.0
    out[zero_den & (num > 0.0)] = np.inf
    out[zero_den & (num < 0.0)] = -np.inf
    return out


def z_matrix(v_ij: CovEstimate, v_boot: CovEstimate) -> np.ndarray:
    """Entrywise Z = (V_ij - V_boot) / sqrt(Xi_ij^2 + Xi_boot^2).

    Both estimates must carry SE matrices.  Z is antisymmetric under
    swapping the two estimates.
    """
    if v_ij.se is None or v_boot.se is None:
        raise ValueError("both estimates need SE matrices for Z")
    num = v_ij.v - v_boot.v
    den = np.sqrt(v_ij.se**2 + v_boot.se**2)
    return _safe_ratio(num, den, "z_matrix")


def delta_metrics(v_x: CovEstimate, v_boot: CovEstimate) -> np.ndarray:
    """Entrywise Delta = (V_x - V_boot) / (|V_boot| + Xi_boot)."""
    if v_boot.se is None:
        raise ValueError("bootstrap estimate needs an SE matrix for Delta")
    num = v_x.v - v_boot.v
    den = np.abs(v_boot.v) + v_boot.se
    return _safe_ratio(num, den, "delta_metrics")
