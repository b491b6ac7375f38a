"""Reference models: conjugate closed forms, the analytic influence oracle,
and the simulators."""

import math

import numpy as np
import pytest

from ijcov import (
    Dataset,
    NormalMeanModel,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    SimSpec,
    exact_normal_posterior,
    normal_influence_oracle,
    simulate_misspecified_normal,
    simulate_poisson_re,
    simulate_poisson_re_conditional,
)
from ijcov.models import ones_weights


class TestNormalConjugacy:
    def test_two_point_hand_value(self):
        # prior N(0,1), unit noise, data {0, 2}: precision 3, mean 2/3
        model = NormalMeanModel(known_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        mu, var = exact_normal_posterior(model, Dataset(np.array([0.0, 2.0])))
        assert mu == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert var == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_flat_prior_reduces_to_sample_mean(self):
        model = NormalMeanModel(known_sd=2.0)  # flat prior
        x = np.array([1.0, 2.0, 6.0])
        mu, var = exact_normal_posterior(model, Dataset(x))
        assert mu == pytest.approx(3.0, rel=1e-15)
        assert var == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_weights_scale_precision(self):
        # doubling every weight halves the posterior variance (flat prior)
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.3, -0.4, 1.1]))
        _, var1 = exact_normal_posterior(model, data, ones_weights(3))
        _, var2 = exact_normal_posterior(model, data, 2.0 * ones_weights(3))
        assert var2 == pytest.approx(var1 / 2.0, rel=1e-14)

    def test_zero_total_weight_rejected(self):
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            exact_normal_posterior(model, data, np.zeros(2))


class TestInfluenceOracle:
    def test_closed_form(self):
        model = NormalMeanModel(known_sd=1.0)
        x = np.array([0.0, 2.0])
        psi = normal_influence_oracle(model, Dataset(x))
        # mu = 1, var = 1/2: psi_n = 2 * 0.5 * (x_n - 1) = x_n - 1
        np.testing.assert_allclose(psi[:, 0], x - 1.0, rtol=0, atol=1e-15)

    def test_scores_sum_to_zero_flat_prior(self):
        model = NormalMeanModel(known_sd=1.7)
        rng = np.random.default_rng(3)
        psi = normal_influence_oracle(model, Dataset(rng.normal(size=31)))
        assert abs(psi.sum()) < 1e-12


class TestPoissonGammaConjugacy:
    def test_posterior_params(self):
        model = PoissonGammaConjugateModel(prior_shape=2.0, prior_rate=1.0)
        data = Dataset(np.array([3.0, 0.0, 4.0]))
        shape, rate = model.posterior_params(data)
        assert shape == 9.0 and rate == 4.0

    def test_posterior_mean_matches_quadrature_free_identity(self):
        # E[theta | y] = shape/rate for the conjugate Gamma posterior
        model = PoissonGammaConjugateModel(prior_shape=1.0, prior_rate=0.0)
        data = Dataset(np.array([5.0, 7.0]))
        shape, rate = model.posterior_params(data)
        assert shape / rate == pytest.approx(6.5)

    def test_domain_guard(self):
        model = PoissonGammaConjugateModel()
        assert model.log_prior(np.array([-1.0])) == -math.inf


class TestPoissonRESimulator:
    def test_shapes_and_dtypes(self):
        spec = SimSpec(n=50, g_count=5, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=0)
        data, theta = simulate_poisson_re(spec)
        assert data.units.shape == (50, 2)
        assert theta.shape == (6,)
        assert theta[0] == 1.5
        y, a = data.units[:, 0], data.units[:, 1]
        assert np.all(y >= 0) and np.all((a >= 0) & (a < 5))
        assert np.all(data.units == data.units.astype(np.int64))

    def test_seed_determinism(self):
        spec = SimSpec(n=30, g_count=3, gamma_true=1.0, alpha=2.0, beta=1.0, rng_seed=7)
        d1, t1 = simulate_poisson_re(spec)
        d2, t2 = simulate_poisson_re(spec)
        np.testing.assert_array_equal(d1.units, d2.units)
        np.testing.assert_array_equal(t1, t2)

    def test_group_moment_match(self):
        """Sample mean/variance of exp(lambda_g) within 4 SE of alpha/beta and
        alpha/beta^2 over a large batch of simulated groups."""
        alpha, beta, g = 25.0, 2.5, 120_000
        spec = SimSpec(n=g, g_count=g, gamma_true=0.0, alpha=alpha, beta=beta, rng_seed=11)
        _, theta = simulate_poisson_re(spec)
        u = np.exp(theta[1:])
        mean_se = math.sqrt(alpha / beta**2 / g)
        assert abs(u.mean() - alpha / beta) < 4 * mean_se
        # SE of the sample variance of a Gamma: sqrt((m4 - v^2)/g)
        v = alpha / beta**2
        m4 = 3 * v**2 + 6 * v**2 / alpha  # Gamma excess kurtosis 6/alpha
        var_se = math.sqrt((m4 - v**2) / g)
        assert abs(u.var(ddof=1) - v) < 4 * var_se

    def test_conditional_replication_keeps_lambda(self):
        spec = SimSpec(n=40, g_count=4, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=5)
        data, theta = simulate_poisson_re(spec)
        rng = np.random.default_rng(99)
        rep = simulate_poisson_re_conditional(40, theta, rng)
        assert rep.units.shape == (40, 2)
        # new assignments and responses, same realized rates (checked by
        # regenerating with the same rng state)
        rng2 = np.random.default_rng(99)
        rep2 = simulate_poisson_re_conditional(40, theta, rng2)
        np.testing.assert_array_equal(rep.units, rep2.units)
        assert not np.array_equal(rep.units, data.units)


class TestMisspecifiedNormalSimulator:
    def test_laplace_variance(self):
        d = simulate_misspecified_normal(200_000, "laplace", seed=1, scale=1.0)
        assert d.units.var() == pytest.approx(2.0, rel=0.02)

    def test_student_t_requires_df(self):
        with pytest.raises(ValueError):
            simulate_misspecified_normal(10, "student_t", seed=0)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError, match="unknown true_dist"):
            simulate_misspecified_normal(10, "cauchy", seed=0)

    def test_explicit_rng_bypasses_seed(self):
        rng = np.random.default_rng(4)
        a = simulate_misspecified_normal(10, "gaussian", seed=0, rng=rng)
        b = simulate_misspecified_normal(10, "gaussian", seed=0)
        assert not np.array_equal(a.units, b.units)


class TestREModelBasics:
    def test_dim_counts_gamma_and_lambdas(self):
        model = PoissonGammaREModel(group_count=7, alpha=1.0, beta=1.0)
        assert model.dim == 8

    def test_g_is_first_coordinate(self):
        model = PoissonGammaREModel(group_count=2, alpha=1.0, beta=1.0)
        theta = np.array([0.4, 1.0, -1.0])
        assert model.g(theta) == pytest.approx(0.4)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                                             (1.0, math.nan), (0.0, 1.0), (1.0, -math.inf)])
    def test_prior_must_be_finite_and_positive(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be finite and positive"):
            PoissonGammaREModel(group_count=2, alpha=alpha, beta=beta)
        with pytest.raises(ValueError, match="alpha and beta must be finite and positive"):
            SimSpec(n=4, g_count=2, gamma_true=0.0, alpha=alpha, beta=beta)
