"""The four covariance estimators and the chain statistics they share.

All estimators report on the sqrt(N) scale, so their outputs are directly
comparable: the influence-score covariance (over datapoints), N times the
posterior covariance of g (Bayes), the covariance of sqrt(N) times bootstrap
replicate means, and the sandwich at the MAP.

Divisor conventions (they matter at desk scale) live in two helpers.
`_BlockSums`, the one place a chain is centered, gives the influence scores
and the Bayes covariance with divisor M-1 over draws, for the whole chain
and, as one stacked call, for the block-bootstrap replicates of mc_error.
It builds its per-block sums a chunk of equal-length blocks at a time, each
chunk one stacked sum or matmul held to the ``models._BLOCK_CELLS`` budget.
With q = 1, a block whose log-likelihood exceeds the budget (always the
whole chain) is centered in column strips through one reused buffer, so the
M x N matrix is never copied whole.
`_row_cov` divides by rows - ddof: N-1 over influence scores, B-1 and R-1
over bootstrap and ground-truth replicates.  The sandwich's score covariance
uses divisor N.  Bootstrap and ground-truth replicate chains all run through
`replicate_means`.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import models
from .errors import NumericalError
from .models import Dataset, check_information, g_jacobian
from .rng import KIND_BOOT, seed_sequence, stream
from .samplers import ChainConfig, MapFit, PosteriorSample, posterior_means, validate_data

__all__ = [
    "InfluenceMatrix",
    "CovEstimate",
    "influence_scores",
    "ij_covariance",
    "bayes_covariance",
    "bootstrap_covariance",
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


# Strip width of `_BlockSums._loglik_strips` (4 MiB at M = 4,000): a multiple
# of 16, so each column keeps its row group in the BLAS gemv kernel.
_STRIP_COLS = 128


class _BlockSums:
    """Per-block sums of a chain centered at its full-chain means, one row per
    block: sum g, sum g g^T and, with the log-likelihood, sum ll and sum ll g^T
    (flattened; N = 0 without).  Block b is the row slice [bounds[b],
    bounds[b+1]).  Each run of equal-length blocks is summed in chunks of
    whole blocks held to ``models._BLOCK_CELLS`` cells (one block when a block
    is larger): a chunk is centered as one copy, viewed as (blocks, length, .)
    and reduced by one stacked sum or matmul per sum, whose items are a lone
    block's calls, so every block keeps its bits.  A chain that takes block b
    counts[b] times has the counts-weighted totals as its draw sums, so a
    block-bootstrap resample is never built, and the whole chain is one block
    taken once.  With q = 1 a block whose log-likelihood exceeds the budget is
    centered in column strips; with q >= 2 it stays one copy, as a gemm's bits
    depend on its column count (strips of 16-256 moved 1 to 6 of 8 shapes)."""

    def __init__(self, sample: PosteriorSample, bounds, with_loglik: bool):
        self.n_data = sample.n_data
        self.lengths = np.diff(bounds)
        blocks, q = len(self.lengths), sample.g_values.shape[1]
        n = sample.loglik.shape[1] if with_loglik else 0
        g_mean = sample.g_values.mean(axis=0)
        ll_mean = sample.loglik.mean(axis=0) if with_loglik else None
        self.s_g, self.s_gg = np.empty((blocks, q)), np.empty((blocks, q * q))
        self.s_l, self.s_lg = np.empty((blocks, n)), np.empty((blocks, n * q))
        runs = np.flatnonzero(np.diff(self.lengths, prepend=-1))
        for r0, r1 in zip(runs, [*runs[1:], blocks]):
            length = int(self.lengths[r0])
            step = max(1, models._BLOCK_CELLS // (length * (n + q)))
            for i in range(r0, r1, step):
                j = min(i + step, r1)
                a, b = bounds[i], bounds[j]
                g = (sample.g_values[a:b] - g_mean).reshape(j - i, length, q)
                np.sum(g, axis=1, out=self.s_g[i:j])
                np.matmul(g.swapaxes(1, 2), g, out=self.s_gg[i:j].reshape(j - i, q, q))
                if n and q == 1 and length * n > models._BLOCK_CELLS:
                    self._loglik_strips(sample.loglik[a:b], ll_mean, g[0], i)
                elif n:
                    ll = (sample.loglik[a:b] - ll_mean).reshape(j - i, length, n)
                    np.sum(ll, axis=1, out=self.s_l[i:j])
                    np.matmul(ll.swapaxes(1, 2), g, out=self.s_lg[i:j].reshape(j - i, n, q))

    def _loglik_strips(self, ll: np.ndarray, ll_mean: np.ndarray, g: np.ndarray, i: int):
        """Block i's log-likelihood sums for q = 1, its rows `ll` centered
        `_STRIP_COLS` columns at a time in one buffer.  A column's sum and
        gemv row do not depend on the columns beside it, so each keeps its
        bits; a last strip under 16 columns joins the one before, as a gemv
        of 1 to 3 rows or a one-column sum moved bits."""
        rows, n = ll.shape
        cuts = [*range(0, max(n - 15, 1), _STRIP_COLS), n]
        buf = np.empty(rows * max(np.diff(cuts)))
        for c0, c1 in zip(cuts, cuts[1:]):
            strip = buf[:rows * (c1 - c0)].reshape(rows, c1 - c0)
            np.subtract(ll[:, c0:c1], ll_mean[c0:c1], out=strip)
            np.sum(strip, axis=0, out=self.s_l[i, c0:c1])
            np.matmul(strip.T, g, out=self.s_lg[i, c0:c1, None])

    def statistic(self, counts: np.ndarray, statistic: str) -> np.ndarray:
        """`statistic` of each chain r of the (R, blocks) `counts`, stacked on
        axis 0: "psi" (N x q influence scores), "ij_cov" (their row
        covariance), "bayes_cov", or "mean_g", centered at the chain mean.
        With m = counts[r] . lengths draws, covariances use divisor m-1 and are
        scaled by N.  Each matmul stack item is the BLAS call a lone chain
        makes, so each keeps its bits (a product over the chains would not)."""
        m = (counts @ self.lengths)[:, None, None]
        cf = counts.astype(np.float64)[:, None, :]
        g_bar = cf @ self.s_g / m
        if statistic == "mean_g":
            return g_bar[:, 0]
        if statistic == "bayes_cov":
            outer = g_bar.swapaxes(1, 2) * g_bar
            return self.n_data * ((cf @ self.s_gg).reshape(outer.shape) - m * outer) / (m - 1)
        outer = (cf @ self.s_l / m).swapaxes(1, 2) * g_bar
        psi = self.n_data * ((cf @ self.s_lg).reshape(outer.shape) - m * outer) / (m - 1)
        return psi if statistic == "psi" else _row_cov(psi)


def _row_cov(x: np.ndarray, ddof: int = 1) -> np.ndarray:
    """Covariance of the rows of x (of each matrix of a stack), divisor rows - ddof."""
    c = x - x.mean(axis=-2, keepdims=True)
    return c.swapaxes(-1, -2) @ c / (x.shape[-2] - ddof)


def _check_chain(sample: PosteriorSample, statistic: str) -> None:
    """Refuse, before any sum is built, a chain that lacks what `statistic`
    needs: the log-likelihood ("psi", "ij_cov"), 2 datapoints ("ij_cov"), or the
    data count N it scales by ("bayes_cov"; 0 when read without a loglik file)."""
    if statistic in ("psi", "ij_cov") and sample.loglik is None:
        raise ValueError(f"{statistic} needs the log-likelihood matrix")
    if statistic == "ij_cov" and sample.n_data < 2:
        raise ValueError("ij_cov needs at least 2 datapoints")
    if statistic == "bayes_cov" and sample.n_data < 1:
        raise ValueError(f"bayes_cov needs the data count N >= 1, got n_data = {sample.n_data}")


def _whole_chain(sample: PosteriorSample, statistic: str) -> np.ndarray:
    """`statistic` of `_BlockSums` on the whole chain, one block taken once."""
    _check_chain(sample, statistic)
    if sample.m < 2:
        raise ValueError("need at least 2 draws")
    sums = _BlockSums(sample, [0, sample.m], with_loglik=statistic == "psi")
    return sums.statistic(np.ones((1, 1), dtype=np.int64), statistic)[0]


def influence_scores(sample: PosteriorSample) -> InfluenceMatrix:
    """psi_n = N * sample covariance (divisor M-1) between log-lik column n
    and each g column; shape (N, q)."""
    return InfluenceMatrix(_whole_chain(sample, "psi"))


def ij_covariance(psi: InfluenceMatrix) -> CovEstimate:
    """Sample covariance of the influence-score rows (divisor N-1)."""
    if psi.n < 2:
        raise ValueError("need at least 2 datapoints")
    return CovEstimate(v=_row_cov(psi.psi), method="ij", b_or_m=psi.n)


def bayes_covariance(sample: PosteriorSample) -> CovEstimate:
    """N times the posterior covariance of g (divisor M-1), so the estimate
    lives on the same sqrt(N) scale as the other three."""
    return CovEstimate(v=_whole_chain(sample, "bayes_cov"), method="bayes", b_or_m=sample.m)


def map_replicates(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in task order: on a pool of
    min(threads, len(tasks)) worker processes fed one task at a time (a fork
    pool starts every worker up front), or in-process when that is <= 1.
    `fn` must be a module-level function and the tasks picklable.  Results
    come back in task order, so tasks that each carry their own
    (seed, replicate) stream give the same list for any worker count."""
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# Replicate slices per pool worker: with one, the slower worker sets the wall
# time; four balance the load and leave several chains per lockstep sweep.
_SLICES_PER_WORKER = 4


def replicate_means(label: str, inputs, model, cfg: ChainConfig, seed, kind: int,
                    count: int, threads: int) -> np.ndarray:
    """count x q posterior means of g.  Replicate r runs on the (data,
    weights) ``inputs(stream(seed, kind, r, 0))`` with chain stream
    (seed, kind, r, 1).  ``range(count)`` is cut into at most 4 x `threads`
    balanced contiguous slices, each one `posterior_means` call (one lockstep
    sweep), mapped in order, so no layout moves a bit.  A failure raises
    NumericalError naming `label` and the lowest failing replicate; a
    ValueError (bad input) passes through."""
    slices = min(count, _SLICES_PER_WORKER * threads)
    bounds = [count * i // slices for i in range(slices + 1)]
    tasks = [(label, inputs, model, cfg, seed, kind, range(a, b))
             for a, b in zip(bounds, bounds[1:])]
    return np.concatenate(map_replicates(_replicate_slice, tasks, threads))


def _replicate_slice(task) -> np.ndarray:
    """One slice of `replicate_means`; when it fails, its replicates rerun
    one at a time, so the lowest failing one names itself."""
    label, inputs, model, cfg, seed, kind, reps = task
    try:
        chains = [(*inputs(stream(seed, kind, r, 0)), seed_sequence(seed, kind, r, 1))
                  for r in reps]
        return posterior_means(model, chains, cfg)
    except ValueError:
        raise
    except Exception as exc:  # noqa: BLE001 - re-raised with replicate index
        if len(reps) == 1:
            raise NumericalError(f"{label} replicate {reps[0]} failed: {exc}") from exc
        for r in reps:
            _replicate_slice((label, inputs, model, cfg, seed, kind, range(r, r + 1)))
        raise


def _multinomial_weights(data: Dataset, rng) -> tuple:
    """`data` with one Multinomial(N, 1/N) bootstrap weight vector."""
    return data, rng.multinomial(data.n, np.full(data.n, 1.0 / data.n)).astype(np.float64)


def bootstrap_covariance(
    model,
    data: Dataset,
    cfg: ChainConfig,
    b: int,
    seed: int,
    *,
    threads: int = 1,
):
    """Multinomial-weight bootstrap of the posterior mean.

    Draws B weight vectors w^b ~ Multinomial(N, 1/N), reruns the sampler
    under each, and returns (CovEstimate of sqrt(N) * replicate means with
    divisor B-1, the raw B x q replicate-mean matrix).  The replicates run
    through :func:`replicate_means`, so the result is identical for any
    worker count.  The data are checked once, before any replicate starts
    (ValueError); a replicate failure raises NumericalError naming the
    lowest failing replicate — no silent skipping.
    """
    if b < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    validate_data(model, data)
    means = replicate_means("bootstrap", partial(_multinomial_weights, data), model, cfg,
                            seed, KIND_BOOT, b, threads)
    v = _row_cov(math.sqrt(data.n) * means)
    return CovEstimate(v=v, method="boot", b_or_m=b), means


def sandwich_covariance(fit: MapFit, model) -> CovEstimate:
    """V = grad_g(theta_hat) I^-1 Sigma I^-1 grad_g(theta_hat)^T.

    Requires a converged fit and nonsingular likelihood information, under
    the gate of :func:`models.check_information` (tolerance 1e-6 when `model`
    has no ``hessian`` hook).
    """
    if not fit.converged:
        raise NumericalError("MAP optimization did not converge")
    info = fit.info_hat
    check_information(model, info)
    inner = np.linalg.solve(info, fit.score_cov_hat)
    inner = np.linalg.solve(info, inner.T).T
    gg = g_jacobian(model, fit.theta_hat)
    v = gg @ inner @ gg.T
    v = 0.5 * (v + v.T)
    return CovEstimate(v=v, method="sandwich", b_or_m=fit.n_data)

