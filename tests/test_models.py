"""Core data containers and the weighted log-posterior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ijcov.diagnostics
from ijcov import (
    ChainConfig,
    Dataset,
    DimensionMismatchError,
    NormalMeanModel,
    NumericalError,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    bclt_expansion_check,
    SimSpec,
    log_lik_matrix,
    map_optimize,
    sample_posterior,
    sandwich_covariance,
    simulate_misspecified_normal,
    simulate_poisson_re,
)
from ijcov import models
from ijcov.models import (hessian_sum, ones_weights, score_sum, validate_weights,
                          weighted_log_posterior)
from ijcov.samplers import MapFit


class TestDataset:
    def test_single_unit_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0]))

    def test_n_and_unit_access(self):
        d = Dataset(np.array([3.0, 1.0, 4.0]))
        assert d.n == 3
        assert d.unit(2) == 4.0


class TestWeights:
    def test_ones_weights_reproduce_unweighted(self):
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.5, -1.0, 2.0]))
        theta = np.array([0.3])
        lp_w = weighted_log_posterior(model, data, ones_weights(3), theta)
        want = sum(model.log_lik(x, theta) for x in data.units) + model.log_prior(theta)
        assert lp_w == pytest.approx(want, rel=1e-15)

    def test_no_weights_are_unit_weights(self):
        assert np.array_equal(validate_weights(None, 3), ones_weights(3))
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.5, -1.0, 2.0]))
        theta = np.array([0.3])
        assert weighted_log_posterior(model, data, None, theta) == \
            weighted_log_posterior(model, data, ones_weights(3), theta)

    def test_negative_weight_rejected(self):
        model = NormalMeanModel()
        data = Dataset(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            weighted_log_posterior(model, data, np.array([1.0, -0.5]), np.array([0.0]))

    def test_wrong_length_rejected(self):
        model = NormalMeanModel()
        data = Dataset(np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            weighted_log_posterior(model, data, np.ones(3), np.array([0.0]))

    def test_zero_weight_masks_invalid_datum(self):
        """A zero-weight datum contributes nothing even if its log_lik is -inf."""
        model = PoissonGammaREModel(group_count=1, alpha=1.0, beta=1.0)
        data = Dataset(np.array([[2, 0], [1, 0]]))
        theta = np.array([0.1, 0.2])
        full = weighted_log_posterior(model, data, np.array([1.0, 1.0]), theta)
        masked = weighted_log_posterior(model, data, np.array([1.0, 0.0]), theta)
        assert np.isfinite(full) and np.isfinite(masked)
        assert masked == pytest.approx(
            model.log_lik(data.unit(0), theta) + model.log_prior(theta)
        )


class TestNormalMeanHandValues:
    def test_log_lik_hand_value(self):
        # ll = -0.5*log(2*pi*sd^2) - (x-mu)^2/(2 sd^2); x=1.2, mu=0.5, sd=2
        model = NormalMeanModel(known_sd=2.0)
        got = model.log_lik(1.2, np.array([0.5]))
        want = -0.5 * math.log(2 * math.pi * 4.0) - 0.49 / 8.0
        assert got == pytest.approx(want, rel=1e-15)

    def test_flat_prior_is_zero(self):
        model = NormalMeanModel(known_sd=1.0)
        assert model.log_prior(np.array([137.0])) == 0.0


class TestPoissonREHandValues:
    def test_log_lik_drops_constant(self):
        # ll = y*(gamma + lam_a) - exp(gamma + lam_a), no log(y!) term
        model = PoissonGammaREModel(group_count=2, alpha=25.0, beta=2.5)
        theta = np.array([1.5, 0.2, -0.3])
        got = model.log_lik(np.array([4, 1]), theta)
        want = 4 * (1.5 - 0.3) - math.exp(1.2)
        assert got == pytest.approx(want, rel=1e-15)

    def test_locality_in_lambda(self):
        """Perturbing lambda_h for h != a_n leaves log_lik(x_n) exactly unchanged."""
        model = PoissonGammaREModel(group_count=3, alpha=2.0, beta=1.0)
        theta = np.array([0.5, 0.1, -0.2, 0.3])
        x = np.array([7, 1])
        base = model.log_lik(x, theta)
        bumped = theta.copy()
        bumped[1] += 10.0  # group 0, not the datum's group
        bumped[3] -= 5.0  # group 2
        assert model.log_lik(x, bumped) == base


class TestPermutationInvariance:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weighted_log_posterior_bit_identical_under_permutation(self, seed):
        """fsum accumulation makes the value exactly permutation invariant."""
        rng = np.random.default_rng(seed)
        n = 40
        x = rng.normal(size=n)
        w = rng.uniform(0.0, 2.0, size=n)
        order = rng.permutation(n)
        model = NormalMeanModel(known_sd=1.3, prior_mean=0.0, prior_sd=5.0)
        theta = np.array([0.25])
        a = weighted_log_posterior(model, Dataset(x), w, theta)
        b = weighted_log_posterior(model, Dataset(x[order]), w[order], theta)
        assert a == b  # bit-for-bit


class TestLogLikMatrix:
    def test_shape_and_values(self):
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.0, 1.0, -1.0]))
        draws = np.array([[0.0], [0.5]])
        ll = log_lik_matrix(model, data, draws)
        assert ll.shape == (2, 3)
        assert ll[1, 1] == pytest.approx(model.log_lik(1.0, np.array([0.5])))

    def test_single_draw_rejected(self):
        model = NormalMeanModel()
        data = Dataset(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            log_lik_matrix(model, data, np.array([[0.0]]))

    def test_nonfinite_entry_names_location(self):
        # lambda outside the Gamma domain makes the prior -inf but log_lik fine;
        # force a non-finite log_lik instead via an inf draw
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.0, 1.0]))
        draws = np.array([[0.0], [np.inf]])
        with pytest.raises(NumericalError, match=r"draw 1"):
            log_lik_matrix(model, data, draws)


def per_draw_loglik(model, data, theta):
    """The per-draw hook each shipped model carried before ``loglik_matrix``,
    written out: the oracle for the row-block hooks."""
    t = float(np.asarray(theta).reshape(-1)[0])
    if isinstance(model, NormalMeanModel):
        x = np.asarray(data.units, dtype=np.float64)
        v = model.known_sd**2
        return -0.5 * (x - t) ** 2 / v - 0.5 * math.log(2 * math.pi * v)
    if isinstance(model, PoissonGammaConjugateModel):
        y = np.asarray(data.units, dtype=np.float64)
        return np.full(data.n, -math.inf) if t <= 0 else y * math.log(t) - t
    gamma, lam = np.asarray(theta, dtype=np.float64)[0], np.asarray(theta)[1:]
    y = data.units[:, 0].astype(np.float64)
    eta = gamma + lam[data.units[:, 1].astype(np.int64)]
    with np.errstate(over="ignore"):
        out = y * eta - np.exp(eta)
    out[~np.isfinite(out)] = -math.inf
    return out


def loglik_case(name):
    """(model, data, draws) for a shipped model; M is no multiple of the rows
    in one 2^16-cell block (1638 at N=40, 1310 at N=50, 163 at N=400)."""
    if name == "normal":
        model, data, m = (NormalMeanModel(known_sd=1.3, prior_sd=4.0),
                          simulate_misspecified_normal(40, "laplace", seed=5), 4000)
    elif name == "poisson":
        model, data, m = (PoissonGammaConjugateModel(2.0, 1.0),
                          Dataset(np.random.default_rng(6).poisson(3.0, size=50)), 3001)
    else:
        model, m = PoissonGammaREModel(group_count=400, alpha=25.0, beta=2.5), 1000
        data, _ = simulate_poisson_re(SimSpec(n=400, g_count=400, gamma_true=1.5,
                                              alpha=25.0, beta=2.5, rng_seed=7))
    s = sample_posterior(model, data, cfg=ChainConfig(m_draws=2 * m, rng_seed=8),
                         want_loglik=False)
    return model, data, s.draws[:m]


class TestLogLikRowBlocks:
    """The row-block hooks give every bit of the per-draw loop they replace."""

    @pytest.mark.parametrize("case", ["normal", "poisson", "re"])
    def test_matrix_matches_per_draw_loop(self, case):
        model, data, draws = loglik_case(case)
        rows = models._BLOCK_CELLS // data.n
        assert draws.shape[0] % rows and draws.shape[0] > rows
        want = np.array([per_draw_loglik(model, data, row) for row in draws])
        assert np.array_equal(log_lik_matrix(model, data, draws), want)

    @pytest.mark.parametrize("case", ["normal", "poisson", "re"])
    def test_vector_matches_per_draw_hook(self, case):
        model, data, draws = loglik_case(case)
        rows = list(draws[:25]) + [-draws[0]]  # a negative Poisson rate: a row of -inf
        for theta in rows:
            assert np.array_equal(models.loglik_vector(model, data, theta),
                                  per_draw_loglik(model, data, theta))

    def test_hook_called_once_per_row_block(self):
        model, data, draws = loglik_case("re")
        calls = []

        class Counting:
            dim = model.dim

            def loglik_matrix(self, data, block):
                calls.append(block.shape[0])
                return model.loglik_matrix(data, block)

        log_lik_matrix(Counting(), data, draws)
        rows = models._BLOCK_CELLS // data.n
        assert calls == [rows] * (len(draws) // rows) + [len(draws) % rows]

    def test_hook_free_model_loops_over_log_lik(self):
        model, data, draws = loglik_case("normal")
        draws = draws[:50]
        want = np.array([[model.log_lik(x, row) for x in data.units] for row in draws])
        assert np.array_equal(log_lik_matrix(_wrap(model), data, draws), want)


def _wrap(inner, hooks=()):
    """A model with only dim, log_lik/log_prior/g and the named optional
    hooks, all forwarded to `inner`."""
    attrs = {"dim": inner.dim}
    for name in ("log_lik", "log_prior", "g") + tuple(hooks):
        attrs[name] = staticmethod(getattr(inner, name))
    return type("Wrapped", (), attrs)()


def _normal_case():
    x = np.random.default_rng(3).normal(1.0, 2.0, size=40)
    return NormalMeanModel(prior_sd=3.0), Dataset(x), (), np.array([0.7])


def _poisson_case():
    # The default start (the origin) is a zero rate, outside the domain, so
    # every Poisson wrapper keeps the model's start point.
    y = np.random.default_rng(4).poisson(3.0, size=40)
    return (PoissonGammaConjugateModel(2.0, 1.0), Dataset(y),
            ("init",), np.array([2.5]))


class TestHookCombinations:
    """Each optional hook falls back on its own: a model with only the
    required attributes, or with score or hessian alone, gives the fully
    hooked model's results to finite-difference accuracy."""

    @pytest.mark.parametrize("case", [_normal_case, _poisson_case], ids=["normal", "poisson"])
    @pytest.mark.parametrize("extra", [(), ("score",), ("hessian",)],
                             ids=["bare", "score", "hessian"])
    def test_matches_fully_hooked_model(self, case, extra):
        full, data, starts, theta = case()
        model = _wrap(full, starts + extra)

        fit, want = map_optimize(model, data), map_optimize(full, data)
        assert fit.converged
        for name in ("theta_hat", "info_hat", "score_cov_hat"):
            np.testing.assert_allclose(getattr(fit, name), getattr(want, name), rtol=1e-6)
        np.testing.assert_allclose(sandwich_covariance(fit, model).v,
                                   sandwich_covariance(want, full).v, rtol=1e-6)

        draws = theta + np.linspace(-0.3, 0.3, 5)[:, None]
        np.testing.assert_allclose(log_lik_matrix(model, data, draws),
                                   log_lik_matrix(full, data, draws), rtol=1e-12)
        w = np.random.default_rng(5).uniform(0.0, 2.0, size=data.n)
        assert weighted_log_posterior(model, data, w, theta) == pytest.approx(
            weighted_log_posterior(full, data, w, theta), rel=1e-12)

        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=200, rng_seed=1))
        assert s.meta["method"] == "mh"
        np.testing.assert_array_equal(s.g_values, s.draws)

    def test_present_hook_is_used_exactly(self):
        """A score hook without hessian, or a hessian hook without score, is
        still read: those sums equal the fully hooked model's bit for bit."""
        full, data, _, theta = _normal_case()
        assert np.array_equal(score_sum(_wrap(full, ("score",)), data, theta),
                              score_sum(full, data, theta))
        assert np.array_equal(hessian_sum(_wrap(full, ("hessian",)), data, theta),
                              hessian_sum(full, data, theta))


class TestMissingStartHook:
    """A hook-free Poisson model starts at the origin, a zero rate outside
    the domain; the refusal names the missing init hook."""

    def test_map_optimize_names_init(self):
        _, data, _, _ = _poisson_case()
        with pytest.raises(NumericalError, match="outside the model domain.*no init hook"):
            map_optimize(_wrap(PoissonGammaConjugateModel(2.0, 1.0)), data)

    def test_mh_names_init(self):
        _, data, _, _ = _poisson_case()
        with pytest.raises(NumericalError, match="zero posterior density.*no init hook"):
            sample_posterior(_wrap(PoissonGammaConjugateModel(2.0, 1.0)), data,
                             cfg=ChainConfig(m_draws=200))


class TestSingularGate:
    """map_optimize and sandwich_covariance refuse a singular likelihood
    information; without a hessian hook the tolerance clears the noise of
    the difference Hessian."""

    @pytest.mark.parametrize("n, g_count", [(20, 4), (50, 5), (100, 10)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hook_free_re_fit_refused(self, n, g_count, seed):
        """With only the required attributes, loglik_matrix and init, the
        difference Hessian reads the singular RE information at an eigenvalue
        ratio of about 1e-9, above the exact-Hessian tolerance of 1e-10; the
        gate for a model without a hessian hook still refuses the fit."""
        spec = SimSpec(n=n, g_count=g_count, gamma_true=1.0, alpha=25.0, beta=2.5,
                       rng_seed=seed)
        data, _ = simulate_poisson_re(spec)
        model = _wrap(PoissonGammaREModel(group_count=g_count, alpha=25.0, beta=2.5),
                      ("loglik_matrix", "init"))
        with pytest.raises(NumericalError, match="singular"):
            map_optimize(model, Dataset(data.units))

    def test_noise_level_information_refused_without_hessian_hook(self):
        # eigenvalues about 1.5e-9 and 2: invertible for an exact Hessian,
        # difference noise for a model without one
        fit = MapFit(theta_hat=np.zeros(2), info_hat=np.array([[1.0, 1.0], [1.0, 1.0 + 3e-9]]),
                     score_cov_hat=np.eye(2), converged=True, n_data=10)

        class Pair:
            dim = 2

            def g(self, theta):
                return np.asarray(theta)

        class HookedPair(Pair):
            def hessian(self, x, theta):
                raise AssertionError("the gate only asks whether the hook is there")

        with pytest.raises(NumericalError, match="singular"):
            sandwich_covariance(fit, Pair())
        assert np.all(np.isfinite(sandwich_covariance(fit, HookedPair()).v))

    def test_hook_free_ill_conditioned_model_fits(self):
        """A hook-free 2-D normal mean with a correlated known covariance of
        condition number 2e3 clears the difference-Hessian gate; its sandwich
        with g = theta is the biased sample covariance."""
        sigma = np.array([[1.0, 0.999], [0.999, 1.0]])
        assert np.linalg.cond(sigma) == pytest.approx(1999.0)
        prec = np.linalg.inv(sigma)
        x = np.random.default_rng(13).multivariate_normal([0.5, -0.5], sigma, size=200)

        class CorrelatedMean:
            dim = 2

            def log_lik(self, xn, theta):
                r = xn - theta
                return -0.5 * float(r @ prec @ r)

            def log_prior(self, theta):
                return 0.0

            def g(self, theta):
                return np.asarray(theta)

        fit = map_optimize(CorrelatedMean(), Dataset(x))
        assert fit.converged
        np.testing.assert_allclose(fit.info_hat, prec, rtol=1e-6)
        v = sandwich_covariance(fit, CorrelatedMean()).v
        np.testing.assert_allclose(v, np.cov(x.T, ddof=0), rtol=1e-5)


class TestBcltHooks:
    def test_missing_grid_hook_refused_before_compute(self, monkeypatch):
        full, data, _, _ = _normal_case()

        def no_fit(*args, **kwargs):
            raise AssertionError("map_optimize ran before the hook check")

        monkeypatch.setattr(ijcov.diagnostics, "map_optimize", no_fit)
        with pytest.raises(ValueError, match="needs a sum_loglik_grid hook"):
            bclt_expansion_check([(full, data), (_wrap(full), data)],
                                 lambda t: t, lambda t: 1.0, lambda t: 0.0)

    def test_prior_hessian_hook_not_required(self):
        full, data, _, _ = _normal_case()
        model = _wrap(full, ("sum_loglik_grid",))
        args = (lambda t: t**2, lambda t: 2.0 * t, lambda t: 2.0)
        got = bclt_expansion_check([(model, data)], *args)
        want = bclt_expansion_check([(full, data)], *args)
        np.testing.assert_allclose(got.posterior_means, want.posterior_means, rtol=1e-9)
        np.testing.assert_allclose(got.corrections, want.corrections, rtol=1e-5)

    @pytest.mark.parametrize("missing", ["prior_d3", "loglik_d3"])
    def test_each_third_derivative_hook_falls_back_on_its_own(self, missing):
        """A model with only one of loglik_d3 and prior_d3 gets a difference
        for the other one, not a zero: the cubic-phi correction matches the
        fully hooked model's."""
        full = PoissonGammaConjugateModel(2.0, 1.0)
        y = np.random.default_rng(0).poisson(2.0, size=200)
        kept = tuple({"loglik_d3", "prior_d3"} - {missing})
        model = _wrap(full, ("sum_loglik_grid", "init", "domain_low") + kept)
        args = (lambda t: t**3, lambda t: 3.0 * t**2, lambda t: 6.0 * t)
        got, want = (bclt_expansion_check([(m, Dataset(y[:n])) for n in (50, 200)], *args)
                     for m in (model, full))
        np.testing.assert_allclose(got.corrections, want.corrections, rtol=1e-5)
