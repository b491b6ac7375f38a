"""Model abstraction: datasets, weights, the weighted log posterior, and the
one reader for each optional model hook.

A model is any object exposing

    dim : int               parameter dimension D
    log_lik(x, theta)       per-datum log-likelihood, -inf outside the domain
    log_prior(theta)        log prior density, -inf outside the domain
    g(theta)                quantity of interest, a length-q vector

That is all the influence-score, Bayes and bootstrap estimators need.  A
model may also carry optional hooks, for speed or exact derivatives.  The
hooks read by more than one routine are read only through the functions
below, each of which falls back on its own when its hook is missing:

    hook                      reader           fallback
    loglik_matrix(data, ths)  log_lik_matrix,  loop over log_lik
                              loglik_vector
    g_vector(draws)           g_matrix         loop over g
    init(data)                start_point      zeros(dim)
    score(x, th)              score_matrix     Jacobian of loglik_vector
                              score_sum        gradient of the fsum of
                                               loglik_vector
    hessian(x, th)            hessian_sum,     Jacobian of score_sum
                              check_information
    prior_score(th)           prior_score      gradient of log_prior
    prior_hessian(th)         prior_hessian    Jacobian of prior_score
    g_grad(th)                g_jacobian       Jacobian of g

``loglik_matrix`` maps a rows x D parameter stack to rows x N log-likelihoods
(blocks of at most 2^16 cells).  Every fallback derivative is one central
difference, :func:`fd_jacobian`, with coordinate i moved by 1e-4 *
(1 + |theta_i|); Hessians are symmetrized.  ``check_information`` is the one
singular-fit gate of ``map_optimize`` and ``sandwich_covariance``: its
eigenvalue-ratio tolerance is 1e-10 with a ``hessian`` hook and 1e-6 without.
``init`` starts both the MAP optimizer and Metropolis; a start outside the
domain that came from the origin fallback is reported as a missing ``init``
hook.  Hooks read by one routine only stay with that routine in
``diagnostics``: ``loglik_d3``/``prior_d3`` (third derivatives of 1-D
models, each else its own 4-point difference), ``log_prior_vector`` and
``domain_low``.  ``bclt_expansion_check`` requires
``sum_loglik_grid(data, thetas)`` (sum_n log_lik over a 1-D grid) and
refuses a model without it.

All evaluations must be pure; they are called concurrently on shared
immutable data.  Per-datum constants may be dropped from log_lik: posterior
covariances of (g, log_lik) are invariant to theta-constant shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError

__all__ = [
    "Dataset",
    "ones_weights",
    "validate_weights",
    "weighted_log_posterior",
    "log_lik_matrix",
]

# cells per block of a chain-sized temporary, 0.5 MiB of float64, in three layers:
# log_lik_matrix rows, diagnostics' conditional covariances, block-sum chunks
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """Ordered, index-addressable collection of exchangeable datapoints.

    ``units`` is a numpy array whose rows (or scalars, for 1-D payloads) are
    the datapoints x_n in a model-defined layout.  N >= 2 because covariances
    over datapoints need at least two units.
    """

    units: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.units)
        object.__setattr__(self, "units", arr)
        if arr.shape[0] < 2:
            raise ValueError("Dataset needs at least 2 units")

    @property
    def n(self) -> int:
        return int(self.units.shape[0])

    def unit(self, i: int):
        return self.units[i]


def ones_weights(n: int) -> np.ndarray:
    """The 1-vector: reproduces the unweighted posterior."""
    return np.ones(n, dtype=np.float64)


def validate_weights(w, n: int) -> np.ndarray:
    """`w` as a checked float vector of length n; None gives the 1-vector."""
    if w is None:
        return ones_weights(n)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatchError(
            f"weight vector has shape {w.shape}, expected ({n},)"
        )
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    return w


def weighted_log_posterior(model, data: Dataset, w, theta) -> float:
    """Sum_n w_n * log_lik(x_n | theta) + log_prior(theta).

    The per-datum terms are accumulated with math.fsum, so the value is
    exactly rounded and invariant under permuting (data, weights) together.
    Returns -inf when theta is outside the model domain (not an error).
    Datapoints with w_n == 0 contribute nothing even where log_lik is -inf.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.dim,):
        raise DimensionMismatchError(
            f"theta has shape {theta.shape}, expected ({model.dim},)"
        )
    w = validate_weights(w, data.n)
    lp = float(model.log_prior(theta))
    if lp == -math.inf:
        return -math.inf
    ll = loglik_vector(model, data, theta)
    active = w > 0
    if np.any(ll[active] == -math.inf):
        return -math.inf
    return math.fsum((w[active] * ll[active]).tolist()) + lp


def log_lik_matrix(model, data: Dataset, draws) -> np.ndarray:
    """M x N matrix with entry (m, n) = log_lik(x_n | theta^m).

    Requires M >= 2 draws; raises NumericalError naming (m, n) if any entry
    is non-finite (draws are expected to lie inside the model domain).
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim == 1:
        draws = draws[:, None]
    m_count = draws.shape[0]
    if m_count < 2:
        raise ValueError("log_lik_matrix needs at least 2 draws")
    out = np.empty((m_count, data.n), dtype=np.float64)
    rows = max(1, _BLOCK_CELLS // data.n)
    for a in range(0, m_count, rows):
        out[a:a + rows] = _loglik_rows(model, data, draws[a:a + rows])
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise NumericalError(
            f"non-finite log-likelihood at draw {bad[0]}, datum {bad[1]}"
        )
    return out


# Central-difference step, relative to 1 + |theta_i|.  A second derivative
# without any analytic hook is a difference of differences; at this step its
# rounding error is about 1e-8 relative (about 1e-6 with steps 1e-6 and 1e-5).
_FD_STEP = 1e-4


def fd_jacobian(f, theta, h: float) -> np.ndarray:
    """Central-difference Jacobian of f at theta, shape f(theta).shape + (D,);
    coordinate i moves by h * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=np.float64)
    cols = []
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h * (1.0 + abs(theta[i]))
        cols.append((np.asarray(f(theta + e)) - np.asarray(f(theta - e))) / (2 * e[i]))
    return np.stack(cols, axis=-1)


def _fd_hessian(grad_f, theta) -> np.ndarray:
    jac = fd_jacobian(grad_f, theta, _FD_STEP)
    return 0.5 * (jac + jac.T)


def loglik_vector(model, data: Dataset, theta) -> np.ndarray:
    """The N per-datum log-likelihoods at theta."""
    return _loglik_rows(model, data, np.asarray(theta, dtype=np.float64).reshape(1, -1))[0]


def _loglik_rows(model, data: Dataset, thetas: np.ndarray) -> np.ndarray:
    """The rows x N per-datum log-likelihoods at a stack of parameter vectors."""
    if hasattr(model, "loglik_matrix"):
        return np.asarray(model.loglik_matrix(data, thetas), dtype=np.float64)
    return np.array([[model.log_lik(x, t) for x in data.units] for t in thetas], dtype=np.float64)


def g_matrix(model, draws: np.ndarray) -> np.ndarray:
    """g at each row of draws, shape (M, q)."""
    if hasattr(model, "g_vector"):
        return np.asarray(model.g_vector(draws), dtype=np.float64)
    return np.array([model.g(row) for row in draws], dtype=np.float64)


def start_point(model, data: Dataset) -> np.ndarray:
    """A fresh copy of the model's ``init`` start point for `data`, else the
    origin."""
    if hasattr(model, "init"):
        return np.asarray(model.init(data), dtype=np.float64).copy()
    return np.zeros(model.dim)


def _origin_start_note(model) -> str:
    """Error-message clause for a start that fell back to the origin."""
    return "" if hasattr(model, "init") else " (the start is the origin: no init hook)"


def score_matrix(model, data: Dataset, theta) -> np.ndarray:
    """Per-datum scores d log_lik(x_n | theta) / d theta, shape (N, D)."""
    if hasattr(model, "score"):
        return np.array([model.score(data.unit(i), theta) for i in range(data.n)])
    return fd_jacobian(lambda t: loglik_vector(model, data, t), theta, _FD_STEP)


def score_sum(model, data: Dataset, theta) -> np.ndarray:
    """Sum over data of the scores, shape (D,), accumulated in data order."""
    if hasattr(model, "score"):
        s = np.zeros(model.dim)
        for i in range(data.n):
            s += model.score(data.unit(i), theta)
        return s
    return fd_jacobian(
        lambda t: math.fsum(loglik_vector(model, data, t).tolist()), theta, _FD_STEP
    )


def hessian_sum(model, data: Dataset, theta) -> np.ndarray:
    """Sum over data of the log-likelihood Hessians, shape (D, D)."""
    if hasattr(model, "hessian"):
        h = np.zeros((model.dim, model.dim))
        for i in range(data.n):
            h += model.hessian(data.unit(i), theta)
        return h
    return _fd_hessian(lambda t: score_sum(model, data, t), theta)


def check_information(model, info) -> None:
    """Raise NumericalError("singular fit") unless the likelihood information
    `info` (from :func:`hessian_sum`) is invertible: its min eigenvalue must
    exceed 1e-10 times its max with a ``hessian`` hook, and 1e-6 times without
    one, which is above the ~1e-8 relative noise of the difference Hessian."""
    evals = np.linalg.eigvalsh(info)
    ratio = 1e-10 if hasattr(model, "hessian") else 1e-6
    if evals.min() <= ratio * max(evals.max(), 0.0):
        raise NumericalError("singular fit")


def prior_score(model, theta) -> np.ndarray:
    """Gradient of log_prior, shape (D,)."""
    if hasattr(model, "prior_score"):
        return model.prior_score(theta)
    return fd_jacobian(lambda t: float(model.log_prior(t)), theta, _FD_STEP)


def prior_hessian(model, theta) -> np.ndarray:
    """Hessian of log_prior, shape (D, D)."""
    if hasattr(model, "prior_hessian"):
        return model.prior_hessian(theta)
    return _fd_hessian(lambda t: prior_score(model, t), theta)


def g_jacobian(model, theta) -> np.ndarray:
    """Jacobian of g, shape (q, D)."""
    if hasattr(model, "g_grad"):
        return np.atleast_2d(np.asarray(model.g_grad(theta), dtype=np.float64))
    return fd_jacobian(model.g, theta, _FD_STEP)
