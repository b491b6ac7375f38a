"""Concrete models and data simulators.

Three models cover the desk-scale studies:

* :class:`NormalMeanModel` — 1-D normal location with known scale and a
  conjugate normal (or flat) prior; closed-form posterior and influence
  scores make it the oracle for the finite-dimensional consistency checks.
* :class:`PoissonGammaConjugateModel` — 1-D IID Poisson rate with a Gamma
  prior; closed-form Gamma posterior, used for the posterior-expansion rate
  check.
* :class:`PoissonGammaREModel` — Poisson random-effects model with a global
  log-rate gamma (flat prior) and per-group log-effects lambda_g whose
  exponentials are IID Gamma(alpha, beta).

Simulators take explicit seeds and derive their streams through
:mod:`ijcov.rng`, so replications are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Dataset, validate_weights
from .rng import KIND_SIMULATE, stream

__all__ = [
    "NormalMeanModel",
    "PoissonGammaConjugateModel",
    "PoissonGammaREModel",
    "SimSpec",
    "simulate_poisson_re",
    "simulate_poisson_re_conditional",
    "simulate_misspecified_normal",
    "exact_normal_posterior",
    "normal_influence_oracle",
]


@dataclass(frozen=True)
class NormalMeanModel:
    """Normal location model x ~ N(theta, known_sd^2), conjugate normal prior.

    ``prior_sd=None`` selects the flat improper prior; then the posterior is
    N(weighted mean, known_sd^2 / sum(w)).
    """

    known_sd: float = 1.0
    prior_mean: float = 0.0
    prior_sd: float | None = None

    dim = 1

    def __post_init__(self):
        if not (math.isfinite(self.known_sd) and self.known_sd > 0):
            raise ValueError(f"known_sd must be finite and positive, got {self.known_sd!r}")
        if self.prior_sd is not None and self.prior_sd <= 0:
            raise ValueError("prior_sd must be positive (or None for flat)")

    def log_lik(self, x, theta) -> float:
        t = float(np.asarray(theta).reshape(-1)[0])
        v = self.known_sd**2
        return -0.5 * (float(x) - t) ** 2 / v - 0.5 * math.log(2 * math.pi * v)

    def loglik_matrix(self, data: Dataset, draws) -> np.ndarray:
        t = np.asarray(draws, dtype=np.float64)[:, :1]
        x = np.asarray(data.units, dtype=np.float64)
        v = self.known_sd**2
        return -0.5 * (x - t) ** 2 / v - 0.5 * math.log(2 * math.pi * v)

    def sum_loglik_grid(self, data: Dataset, thetas) -> np.ndarray:
        x = np.asarray(data.units, dtype=np.float64)
        t = np.asarray(thetas, dtype=np.float64)
        v = self.known_sd**2
        sx = math.fsum(x.tolist())
        sxx = math.fsum((x * x).tolist())
        n = data.n
        return (
            -0.5 * (sxx - 2.0 * t * sx + n * t * t) / v
            - 0.5 * n * math.log(2 * math.pi * v)
        )

    def log_prior(self, theta) -> float:
        if self.prior_sd is None:
            return 0.0
        t = float(np.asarray(theta).reshape(-1)[0])
        v = self.prior_sd**2
        return -0.5 * (t - self.prior_mean) ** 2 / v - 0.5 * math.log(
            2 * math.pi * v
        )

    def log_prior_vector(self, thetas) -> np.ndarray:
        t = np.asarray(thetas, dtype=np.float64)
        if self.prior_sd is None:
            return np.zeros_like(t)
        v = self.prior_sd**2
        return -0.5 * (t - self.prior_mean) ** 2 / v - 0.5 * math.log(
            2 * math.pi * v
        )

    def g(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).reshape(1).copy()

    def g_vector(self, draws: np.ndarray) -> np.ndarray:
        return np.asarray(draws, dtype=np.float64).reshape(-1, 1).copy()

    def g_grad(self, theta) -> np.ndarray:
        return np.array([[1.0]])

    def score(self, x, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([(float(x) - t) / self.known_sd**2])

    def hessian(self, x, theta) -> np.ndarray:
        return np.array([[-1.0 / self.known_sd**2]])

    def loglik_d3(self, x, theta) -> float:
        return 0.0

    def prior_score(self, theta) -> np.ndarray:
        if self.prior_sd is None:
            return np.zeros(1)
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([-(t - self.prior_mean) / self.prior_sd**2])

    def prior_hessian(self, theta) -> np.ndarray:
        if self.prior_sd is None:
            return np.zeros((1, 1))
        return np.array([[-1.0 / self.prior_sd**2]])

    def prior_d3(self, theta) -> float:
        return 0.0

    def init(self, data: Dataset) -> np.ndarray:
        return np.array([float(np.mean(np.asarray(data.units, dtype=np.float64)))])

    domain_low = -math.inf


def exact_normal_posterior(model: NormalMeanModel, data: Dataset, w=None):
    """Conjugate posterior (mean, variance) of the normal-mean model.

    Weighted version of the closed form: with precision contributions
    sum(w)/known_sd^2 from the data and 1/prior_sd^2 from the prior (zero for
    the flat prior).  Weighted sums use fsum, so permuting (data, weights)
    together changes nothing.
    """
    w = validate_weights(w, data.n)
    x = np.asarray(data.units, dtype=np.float64)
    v = model.known_sd**2
    prec = math.fsum(w.tolist()) / v
    mean_num = math.fsum((w * x).tolist()) / v
    if model.prior_sd is not None:
        prec += 1.0 / model.prior_sd**2
        mean_num += model.prior_mean / model.prior_sd**2
    if prec <= 0:
        raise ValueError("posterior precision is zero (flat prior, zero weights)")
    return mean_num / prec, 1.0 / prec


def normal_influence_oracle(model: NormalMeanModel, data: Dataset, w=None) -> np.ndarray:
    """Analytic influence scores N * sigma_post^2 * (x_n - mu_post), shape (N, 1).

    This is the exact-posterior limit of the draw-based influence estimate:
    cov(theta, x_n*theta - theta^2/2) = sigma_post^2 * (x_n - mu_post) under
    the conjugate normal posterior (unit model variance; general known_sd
    scales the covariance by 1/known_sd^2).
    """
    mu, var = exact_normal_posterior(model, data, w)
    x = np.asarray(data.units, dtype=np.float64)
    psi = data.n * var * (x - mu) / model.known_sd**2
    return psi[:, None]


@dataclass(frozen=True)
class PoissonGammaConjugateModel:
    """IID Poisson counts with rate theta > 0 and Gamma(prior_shape, prior_rate)
    prior (shape-rate parameterization).  prior_shape=1, prior_rate=0 is the
    flat improper prior on theta > 0.

    The per-datum constant -log(y!) is dropped from log_lik.
    """

    prior_shape: float = 1.0
    prior_rate: float = 0.0

    dim = 1

    def __post_init__(self):
        if self.prior_shape <= 0 or self.prior_rate < 0:
            raise ValueError("need prior_shape > 0 and prior_rate >= 0")

    def log_lik(self, x, theta) -> float:
        t = float(np.asarray(theta).reshape(-1)[0])
        if t <= 0:
            return -math.inf
        return float(x) * math.log(t) - t

    def loglik_matrix(self, data: Dataset, draws) -> np.ndarray:
        t = np.asarray(draws, dtype=np.float64)[:, :1]
        y = np.asarray(data.units, dtype=np.float64)
        # math.log per draw, as log_lik takes it (np.log may differ by an ulp)
        log_t = np.array([[math.log(v) if v > 0 else 0.0] for v in t[:, 0].tolist()])
        out = y * log_t - t
        out[t[:, 0] <= 0] = -math.inf
        return out

    def sum_loglik_grid(self, data: Dataset, thetas) -> np.ndarray:
        y = np.asarray(data.units, dtype=np.float64)
        t = np.asarray(thetas, dtype=np.float64)
        s = math.fsum(y.tolist())
        out = np.full(t.shape, -math.inf)
        pos = t > 0
        out[pos] = s * np.log(t[pos]) - data.n * t[pos]
        return out

    def log_prior(self, theta) -> float:
        t = float(np.asarray(theta).reshape(-1)[0])
        if t <= 0:
            return -math.inf
        return (self.prior_shape - 1.0) * math.log(t) - self.prior_rate * t

    def log_prior_vector(self, thetas) -> np.ndarray:
        t = np.asarray(thetas, dtype=np.float64)
        out = np.full(t.shape, -math.inf)
        pos = t > 0
        out[pos] = (self.prior_shape - 1.0) * np.log(t[pos]) - self.prior_rate * t[pos]
        return out

    def g(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).reshape(1).copy()

    def g_vector(self, draws: np.ndarray) -> np.ndarray:
        return np.asarray(draws, dtype=np.float64).reshape(-1, 1).copy()

    def g_grad(self, theta) -> np.ndarray:
        return np.array([[1.0]])

    def score(self, x, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([float(x) / t - 1.0])

    def hessian(self, x, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([[-float(x) / t**2]])

    def loglik_d3(self, x, theta) -> float:
        t = float(np.asarray(theta).reshape(-1)[0])
        return 2.0 * float(x) / t**3

    def prior_score(self, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([(self.prior_shape - 1.0) / t - self.prior_rate])

    def prior_hessian(self, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return np.array([[-(self.prior_shape - 1.0) / t**2]])

    def prior_d3(self, theta) -> float:
        t = float(np.asarray(theta).reshape(-1)[0])
        return 2.0 * (self.prior_shape - 1.0) / t**3

    def posterior_params(self, data: Dataset, w=None):
        """Conjugate Gamma posterior (shape, rate) under weights w."""
        w = validate_weights(w, data.n)
        y = np.asarray(data.units, dtype=np.float64)
        shape = self.prior_shape + math.fsum((w * y).tolist())
        rate = self.prior_rate + math.fsum(w.tolist())
        if shape <= 0 or rate <= 0:
            raise ValueError("improper Gamma posterior (zero counts and weights)")
        return shape, rate

    def init(self, data: Dataset) -> np.ndarray:
        y = np.asarray(data.units, dtype=np.float64)
        return np.array([max(float(y.mean()), 0.5)])

    domain_low = 0.0


def _check_prior(alpha: float, beta: float) -> None:
    if not all(math.isfinite(v) and v > 0 for v in (alpha, beta)):
        raise ValueError("alpha and beta must be finite and positive")


@dataclass(frozen=True)
class PoissonGammaREModel:
    """Poisson random-effects model.

    Data units are integer rows (y_n, a_n) with a_n in [0, G).  Parameters
    theta = (gamma, lambda_1..lambda_G); the rate for group g is
    exp(gamma + lambda_g).  Prior: exp(lambda_g) ~ Gamma(alpha, beta) IID,
    flat prior on gamma.  The quantity of interest is gamma.

    log_lik(x_n | theta) = y_n (gamma + lambda_{a_n}) - exp(gamma + lambda_{a_n})
    (the -log y_n! constant is dropped).
    """

    group_count: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.group_count < 1:
            raise ValueError("group_count must be >= 1")
        _check_prior(self.alpha, self.beta)

    @property
    def dim(self) -> int:
        return 1 + self.group_count

    def _split(self, theta):
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        return theta[0], theta[1:]

    def log_lik(self, x, theta) -> float:
        gamma, lam = self._split(theta)
        y, a = float(x[0]), int(x[1])
        eta = gamma + lam[a]
        with np.errstate(over="ignore"):
            rate = math.exp(eta) if eta < 700 else math.inf
        val = y * eta - rate
        return val if math.isfinite(val) else -math.inf

    def loglik_matrix(self, data: Dataset, draws) -> np.ndarray:
        draws = np.asarray(draws, dtype=np.float64)
        y = data.units[:, 0].astype(np.float64)
        a = data.units[:, 1].astype(np.int64)
        eta = draws[:, :1] + draws[:, 1 + a]
        with np.errstate(over="ignore"):
            out = y * eta - np.exp(eta)
        out[~np.isfinite(out)] = -math.inf
        return out

    def log_prior(self, theta) -> float:
        _, lam = self._split(theta)
        with np.errstate(over="ignore"):
            val = self.alpha * lam.sum() - self.beta * math.fsum(
                np.exp(lam).tolist()
            )
        const = self.group_count * (
            self.alpha * math.log(self.beta) - math.lgamma(self.alpha)
        )
        total = val + const
        return total if math.isfinite(total) else -math.inf

    def g(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).reshape(-1)[:1].copy()

    def g_vector(self, draws: np.ndarray) -> np.ndarray:
        return np.asarray(draws, dtype=np.float64)[:, :1].copy()

    def init(self, data: Dataset) -> np.ndarray:
        y = data.units[:, 0].astype(np.float64)
        lam0 = math.log(self.alpha / self.beta)
        gamma0 = math.log(max(y.mean(), 0.5)) - lam0
        return np.concatenate([[gamma0], np.full(self.group_count, lam0)])


@dataclass(frozen=True)
class SimSpec:
    """Settings for one Poisson random-effects simulation."""

    n: int
    g_count: int
    gamma_true: float
    alpha: float
    beta: float
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.n >= self.g_count >= 1):
            raise ValueError("need N >= G >= 1")
        if not math.isfinite(self.gamma_true):
            raise ValueError(f"gamma_true must be finite, got {self.gamma_true!r}")
        _check_prior(self.alpha, self.beta)


def simulate_poisson_re(spec: SimSpec):
    """Simulate the random-effects dataset; returns (Dataset, true theta).

    Group assignments are equiprobable over G groups; exp(lambda_g) are IID
    Gamma(alpha, beta) (shape-rate); y_n ~ Poisson(exp(gamma + lambda_{a_n})).
    The realized theta = (gamma, lambda) is returned so that conditional
    ground-truth replications (new y and a, same lambda) are possible.
    """
    rng = stream(spec.rng_seed, KIND_SIMULATE)
    u = rng.gamma(shape=spec.alpha, scale=1.0 / spec.beta, size=spec.g_count)
    lam = np.log(u)
    theta_true = np.concatenate([[spec.gamma_true], lam])
    data = _draw_conditional(spec.n, spec.g_count, spec.gamma_true, lam, rng)
    return data, theta_true


def simulate_poisson_re_conditional(n: int, theta_true, rng) -> Dataset:
    """Redraw both y and group assignments with lambda held at theta_true.

    This is the conditional replication used for the simulated ground truth:
    responses and assignments are new, the realized random effects are not.
    """
    theta_true = np.asarray(theta_true, dtype=np.float64).reshape(-1)
    gamma, lam = theta_true[0], theta_true[1:]
    return _draw_conditional(n, lam.size, gamma, lam, rng)


def _draw_conditional(n, g_count, gamma, lam, rng) -> Dataset:
    a = rng.integers(0, g_count, size=n)
    rates = np.exp(gamma + lam[a])
    y = rng.poisson(rates)
    return Dataset(np.column_stack([y, a]).astype(np.int64))


def simulate_misspecified_normal(
    n: int,
    true_dist: str,
    seed: int = 0,
    scale: float = 1.0,
    df: float | None = None,
    rng=None,
) -> Dataset:
    """IID draws from the chosen data distribution F, centered at zero.

    true_dist: "laplace" (variance 2*scale^2), "student_t" (requires df > 2,
    scaled by `scale`), or "gaussian" (sd = scale; correctly specified when
    scale equals the model's known_sd).  Pass `rng` to draw from an existing
    stream (replicated ground-truth datasets); otherwise `seed` derives one.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_normal_sim(true_dist, scale, df)
    if rng is None:
        rng = stream(seed, KIND_SIMULATE)
    if true_dist == "laplace":
        x = rng.laplace(0.0, scale, size=n)
    elif true_dist == "student_t":
        x = scale * rng.standard_t(df, size=n)
    else:
        x = rng.normal(0.0, scale, size=n)
    return Dataset(x)


def _check_normal_sim(true_dist: str, scale: float, df: float | None) -> None:
    """Refuse a data distribution F that cannot give finite draws."""
    if true_dist not in ("laplace", "student_t", "gaussian"):
        raise ValueError(f"unknown true_dist {true_dist!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if true_dist == "student_t" and (df is None or not (math.isfinite(df) and df > 2)):
        raise ValueError(f"student_t needs a finite df > 2 (finite variance), got {df!r}")
