"""Grouped exponential-family diagnostics.

The statistical tests avoid chain noise where possible by building a
deterministic PosteriorSample at equally spaced quantiles of the exact
marginal posterior of the global log-rate (the local rates integrate out of
the Poisson random-effects model in closed form, leaving a 1-D density that
trapezoid quadrature nails).  Draw averages over that sample agree with
posterior integrals to O(M^-2), so comparisons against closed forms need no
statistical tolerance.

For the G = N = 4 reference example the diagonal L blocks have exact
rational values, derived by integration by parts on that marginal density:
with T = sum of counts, S = sum_g A_g, and h = e^gamma / (beta + e^gamma),

    E[(gamma - gbar) h]   = 1 / S          (E[(gamma - gbar) score] = -1)
    E[(gamma - gbar) h^2] = (1 + 2T) / (S (S + 1))
                                           (h' = h(1-h); E[h] = T/S because
                                            h is Beta(T, S - T) under the
                                            posterior)

so L_gg = [[0, -N/S], [-N/S, N A_g (1+2T)/(S(S+1))]]; the trigamma entry is
exactly zero because it does not depend on gamma and the centered weight
kills constants.  A long Gibbs chain must reproduce these within MC error.
"""

import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from ijcov import (
    ChainConfig,
    Dataset,
    GroupedExpFamilyView,
    NormalMeanModel,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    PosteriorSample,
    bclt_expansion_check,
    diagnose,
    ess,
    poisson_re_truth_moments,
    poisson_re_view,
    sample_posterior,
    simulate_poisson_re,
    SimSpec,
)
from ijcov import models
from ijcov.diagnostics import empirical_group_moments, kappa_and_rho, l_diag_from_chain
from ijcov.errors import NumericalError
from ijcov.special import special_trigamma
from test_special import special_digamma


@dataclass
class PoissonAnalytic:
    """Closed-form diagnostic ingredients for the balanced Poisson
    random-effects model, in the multiplicative parameterization
    gamma0 = exp(gamma).

    ``rho_g`` are per-group mean responses and ``v_g`` the per-group response
    variances (for Poisson data at the truth, v_g = rho_g; for observed data,
    plug in the empirical group means/variances).  ``n_per_group`` is the
    common group size.
    """

    alpha: float
    beta: float
    gamma0: float
    n_per_group: float
    rho_g: np.ndarray
    v_g: np.ndarray

    def __post_init__(self):
        self.rho_g = np.asarray(self.rho_g, dtype=np.float64).reshape(-1)
        self.v_g = np.asarray(self.v_g, dtype=np.float64).reshape(-1)
        if self.rho_g.shape != self.v_g.shape:
            raise ValueError("rho_g and v_g must have the same length")
        if self.gamma0 <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha, beta, gamma0 must be positive")

    def _ab(self):
        a = self.alpha + self.n_per_group * self.rho_g
        b = self.beta + self.n_per_group * self.gamma0
        return a, b

    def mu(self) -> np.ndarray:
        """Conditional means of eta_g given the global parameter, (G, 2)."""
        a, b = self._ab()
        return np.column_stack(
            [math.log(self.gamma0) + special_digamma(a) - math.log(b),
             -self.gamma0 * a / b]
        )

    def j_gg(self) -> np.ndarray:
        """Conditional covariances of eta_g, (G, 2, 2)."""
        a, b = self._ab()
        g = a.size
        j = np.empty((g, 2, 2))
        j[:, 0, 0] = special_trigamma(a)
        j[:, 0, 1] = j[:, 1, 0] = -self.gamma0 / b
        j[:, 1, 1] = self.gamma0**2 * a / b**2
        return j

    def m_s(self) -> tuple[np.ndarray, np.ndarray]:
        """Within-group moments of ytil = (y, 1): m_g and S_g, from rho/v."""
        g = self.rho_g.size
        m = np.column_stack([self.rho_g, np.ones(g)])
        s = np.empty((g, 2, 2))
        s[:, 0, 0] = self.v_g + self.rho_g**2
        s[:, 0, 1] = s[:, 1, 0] = self.rho_g
        s[:, 1, 1] = 1.0
        return m, s


def poisson_re_eta(draws):
    """Natural parameters eta_g = (gamma + lambda_g, -exp(gamma + lambda_g))
    at each draw of the Poisson random-effects model, as (M x G x 2)."""
    s = draws[:, :1] + draws[:, 1:]
    return np.stack([s, -np.exp(s)], axis=-1)


def raw_second_moment_blocks(sample):
    """Direct chain estimate of E_post[ gbar * etabar etabar^T ] as
    (G x G x 2 x 2) blocks, with eta evaluated draw by draw.

    For g measurable with respect to the global parameter this equals
    L / N + M / N^2 with M_gh = N^2 E_post[ gbar * mubar_g mubar_h^T ] built
    from the conditional means; L and M use only the global draws, so the
    two routes validate each other.
    """
    eta = poisson_re_eta(sample.draws)
    m_draws, g, d = eta.shape
    gbar = sample.g_values[:, 0] - sample.g_values[:, 0].mean()
    eta_c = (eta - eta.mean(axis=0, keepdims=True)).reshape(m_draws, g * d)
    blocks = (eta_c * gbar[:, None]).T @ eta_c / m_draws
    return blocks.reshape(g, d, g, d).transpose(0, 2, 1, 3)


def poisson_re_conditional_mean(model, data, gammas):
    """E[eta_g | gamma, data] = (gamma + psi(A_g) - log B_g, -e^gamma A_g / B_g)
    (the poisson_re_view docstring), as (M x G x 2)."""
    y = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    g = model.group_count
    n_g = np.bincount(groups, minlength=g).astype(np.float64)
    a_g = model.alpha + np.bincount(groups, weights=y, minlength=g)
    c = np.exp(gammas)[:, None]
    b = model.beta + n_g[None, :] * c
    return np.stack(
        [gammas[:, None] + special_digamma(a_g)[None, :] - np.log(b),
         -c * a_g[None, :] / b],
        axis=-1,
    )


def quantile_sample(model, data, m=4096):
    """Deterministic sample at posterior quantiles of the global log-rate."""
    y = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    g = model.group_count
    n_g = np.bincount(groups, minlength=g).astype(np.float64)
    a_g = model.alpha + np.bincount(groups, weights=y, minlength=g)
    tot = y.sum()

    def logpost(gam):
        return gam * tot - (
            a_g[None, :] * np.log(model.beta + n_g[None, :] * np.exp(gam)[:, None])
        ).sum(axis=1)

    wide = np.linspace(-12.0, 12.0, 20001)
    lp = logpost(wide)
    mode = wide[np.argmax(lp)]
    h = 1e-4
    c2 = -(logpost(np.array([mode + h]))[0] - 2 * lp.max()
           + logpost(np.array([mode - h]))[0]) / h**2
    sd = 1.0 / math.sqrt(c2)
    grid = np.linspace(mode - 14 * sd, mode + 14 * sd, 40001)
    lp = logpost(grid)
    w = np.exp(lp - lp.max())
    cdf = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    gam = np.interp((np.arange(m) + 0.5) / m, cdf, grid)
    return PosteriorSample(
        draws=gam[:, None], g_values=gam[:, None], loglik=None, n_data=data.n
    )


def zero_cov(g_count, d=1):
    """Conditional-covariance hook that is identically zero."""
    return lambda draws, groups: np.zeros((len(draws), len(range(g_count)[groups]), d, d))


def scalar_view(g_count=1, y=((2.0,), (4.0,)), groups=(0, 0), conditional_cov=None):
    """1-D sufficient-statistic view with a pluggable conditional
    covariance (zero by default)."""
    return GroupedExpFamilyView(
        y=np.asarray(y, dtype=np.float64),
        groups=np.asarray(groups),
        g_count=g_count,
        conditional_cov=conditional_cov or zero_cov(g_count),
    )


class TestViewValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            scalar_view(y=[[1.0], [2.0], [3.0]], groups=[0, 0])

    def test_g_count_floor(self):
        with pytest.raises(ValueError):
            scalar_view(g_count=0)

    def test_labels_in_range(self):
        with pytest.raises(ValueError, match="labels"):
            scalar_view(g_count=1, groups=[0, 1])

    def test_loglik_reconstruction_matches_model(self):
        """The view's statistics in the stacked form ytil_n . eta_{a_n} must
        reproduce the model's per-datum log-likelihood exactly (both drop the
        same data-only constant)."""
        rng = np.random.default_rng(0)
        g = 3
        y = rng.poisson(2.5, size=9)
        groups = np.repeat(np.arange(g), 3)
        data = Dataset(np.column_stack([y, groups]))
        model = PoissonGammaREModel(group_count=g, alpha=3.0, beta=1.5)
        view = poisson_re_view(model, data)
        theta = np.concatenate([[0.3], rng.normal(size=g)])
        eta = poisson_re_eta(theta[None, :])[0]
        recon = np.einsum("nd,nd->n", view.y, eta[view.groups])
        direct = np.array(
            [float(model.log_lik(data.unit(i), theta)) for i in range(9)]
        )
        np.testing.assert_allclose(recon, direct, rtol=0, atol=1e-12)

    def test_conditional_moments_match_analytic(self):
        """Two independent writings of the same conditional covariance: the
        view's vectorized path and PoissonAnalytic's multiplicative form."""
        y = np.array([3, 1, 4, 2, 5, 0])
        groups = np.array([0, 0, 1, 1, 2, 2])
        data = Dataset(np.column_stack([y, groups]))
        model = PoissonGammaREModel(group_count=3, alpha=4.0, beta=2.0)
        view = poisson_re_view(model, data)
        gamma = 0.37
        j = view.conditional_cov(np.array([[gamma, 0.5, -0.1, 0.2]]), slice(None))
        rho_g = np.bincount(groups, weights=y.astype(float)) / 2.0
        ana = PoissonAnalytic(
            alpha=4.0, beta=2.0, gamma0=math.exp(gamma), n_per_group=2.0,
            rho_g=rho_g, v_g=rho_g,
        )
        np.testing.assert_allclose(j[0], ana.j_gg(), rtol=1e-12)


class TestEmpiricalGroupMoments:
    def test_single_datum_per_group(self):
        view = scalar_view(
            g_count=2, y=[[3.0], [5.0]], groups=[0, 1]
        )
        m, s = empirical_group_moments(view)
        np.testing.assert_array_equal(m, [[3.0], [5.0]])
        np.testing.assert_array_equal(s, [[[9.0]], [[25.0]]])

    def test_poisson_view_moment_arithmetic(self):
        # m_g = (mean, 1); S_g = [[var + mean^2, mean], [mean, 1]] with the
        # population (divisor n_g) variance
        y = np.array([2, 4, 0, 3, 3, 1])
        groups = np.array([0, 0, 0, 1, 1, 1])
        data = Dataset(np.column_stack([y, groups]))
        model = PoissonGammaREModel(group_count=2, alpha=1.0, beta=1.0)
        m, s = empirical_group_moments(poisson_re_view(model, data))
        for g in range(2):
            vals = y[groups == g].astype(float)
            assert m[g, 0] == pytest.approx(vals.mean())
            assert m[g, 1] == 1.0
            assert s[g, 0, 0] == pytest.approx(vals.var() + vals.mean() ** 2)
            assert s[g, 0, 1] == pytest.approx(vals.mean())
            assert s[g, 1, 1] == 1.0

    def test_duplication_idempotent(self):
        y = [[1.0, 2.0], [3.0, 1.0], [0.0, 1.0]]
        view1 = GroupedExpFamilyView(
            y=np.array(y), groups=np.array([0, 1, 1]), g_count=2,
            conditional_cov=zero_cov(2, 2),
        )
        view2 = GroupedExpFamilyView(
            y=np.array(y * 3), groups=np.array([0, 1, 1] * 3), g_count=2,
            conditional_cov=zero_cov(2, 2),
        )
        m1, s1 = empirical_group_moments(view1)
        m2, s2 = empirical_group_moments(view2)
        np.testing.assert_allclose(m1, m2, rtol=1e-15)
        np.testing.assert_allclose(s1, s2, rtol=1e-15)

    def test_empty_group_warns_with_zero_rows(self):
        view = scalar_view(g_count=3, y=[[3.0], [5.0]], groups=[0, 2])
        with pytest.warns(RuntimeWarning, match="no data"):
            m, s = empirical_group_moments(view)
        assert m[1, 0] == 0.0 and s[1, 0, 0] == 0.0
        assert m[0, 0] == 3.0 and m[2, 0] == 5.0

    def test_all_empty_rejected(self):
        view = GroupedExpFamilyView(
            y=np.zeros((0, 1)), groups=np.zeros(0, dtype=int), g_count=2,
            conditional_cov=zero_cov(2),
        )
        with pytest.raises(ValueError, match="empty"):
            empirical_group_moments(view)


class TestTruthMoments:
    def test_matches_analytic_moment_layout(self):
        theta = np.array([0.4, -0.2, 0.1, 0.5])
        m, s = poisson_re_truth_moments(theta)
        rho = np.exp(0.4 + theta[1:])
        ana = PoissonAnalytic(
            alpha=1.0, beta=1.0, gamma0=1.0, n_per_group=1.0, rho_g=rho, v_g=rho
        )
        m2, s2 = ana.m_s()
        np.testing.assert_allclose(m, m2, rtol=1e-14)
        np.testing.assert_allclose(s, s2, rtol=1e-14)

    def test_second_moment_psd(self):
        m, s = poisson_re_truth_moments(np.array([1.2, 0.3, -0.8]))
        cov = s - np.einsum("gi,gj->gij", m, m)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


class TestPoissonAnalytic:
    def test_j_closed_form(self):
        ana = PoissonAnalytic(
            alpha=25.0, beta=2.5, gamma0=1.3, n_per_group=2.0,
            rho_g=np.array([1.0, 2.0]), v_g=np.array([1.0, 2.0]),
        )
        j = ana.j_gg()
        a = 25.0 + 2.0 * np.array([1.0, 2.0])
        b = 2.5 + 2.0 * 1.3
        np.testing.assert_allclose(j[:, 0, 0], special_trigamma(a), rtol=1e-13)
        np.testing.assert_allclose(j[:, 0, 1], [-1.3 / b] * 2, rtol=1e-13)
        np.testing.assert_allclose(j[:, 1, 1], 1.3**2 * a / b**2, rtol=1e-13)
        np.testing.assert_array_equal(j[:, 0, 1], j[:, 1, 0])

    def test_mu_closed_form(self):
        ana = PoissonAnalytic(
            alpha=4.0, beta=2.0, gamma0=0.7, n_per_group=3.0,
            rho_g=np.array([2.0]), v_g=np.array([2.0]),
        )
        a = 4.0 + 3.0 * 2.0
        b = 2.0 + 3.0 * 0.7
        mu = ana.mu()
        assert mu[0, 0] == pytest.approx(
            math.log(0.7) + float(special_digamma(np.array([a]))[0]) - math.log(b),
            rel=1e-13,
        )
        assert mu[0, 1] == pytest.approx(-0.7 * a / b, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonAnalytic(alpha=-1.0, beta=1.0, gamma0=1.0, n_per_group=1.0,
                            rho_g=np.array([1.0]), v_g=np.array([1.0]))
        with pytest.raises(ValueError, match="length"):
            PoissonAnalytic(alpha=1.0, beta=1.0, gamma0=1.0, n_per_group=1.0,
                            rho_g=np.array([1.0, 2.0]), v_g=np.array([1.0]))


class TestMLMatrices:
    def test_hand_arithmetic_closed_form(self):
        """Three-draw fake posterior with J = gamma^2:
        gbar = (-4/3, -1/3, 5/3), so L = N/M * sum(gbar * gamma^2) = 88/9."""
        view = scalar_view(
            conditional_cov=lambda draws, groups: (draws[:, 0] ** 2)[:, None, None, None]
        )
        draws = np.array([[0.0], [1.0], [3.0]])
        sample = PosteriorSample(draws=draws, g_values=draws, loglik=None, n_data=2)
        l_diag = l_diag_from_chain(sample, view)
        assert l_diag.shape == (1, 1, 1)
        assert l_diag.ravel()[0] == pytest.approx(88.0 / 9.0, rel=1e-14)

    def test_constant_g_zeroes_everything(self):
        view = scalar_view(conditional_cov=lambda draws, groups: np.ones((len(draws), 1, 1, 1)))
        draws = np.array([[0.5], [1.5], [2.5]])
        sample = PosteriorSample(
            draws=draws, g_values=np.full((3, 1), 7.0), loglik=None, n_data=2
        )
        np.testing.assert_array_equal(l_diag_from_chain(sample, view), 0.0)

    def test_degenerate_conditional_gives_zero_l(self):
        view = scalar_view()
        draws = np.array([[0.0], [1.0], [3.0]])
        sample = PosteriorSample(draws=draws, g_values=draws, loglik=None, n_data=2)
        np.testing.assert_array_equal(l_diag_from_chain(sample, view), 0.0)

    def test_path_errors(self):
        """A model without a closed-form conditional covariance has no view."""
        with pytest.raises(TypeError, match="conditional_cov"):
            GroupedExpFamilyView(
                y=np.ones((2, 1)), groups=np.zeros(2, dtype=int), g_count=1,
            )

    def test_l_matches_exact_rationals_on_long_chain(self):
        """Gibbs chain vs the integration-by-parts closed forms (module
        docstring): counts (3,1,4,2), one per group, alpha=25, beta=2.5.
        Per-entry MC tolerance is 4 SE with SE taken from the draw spread
        over the effective sample size."""
        y = np.array([3, 1, 4, 2])
        data = Dataset(np.column_stack([y, np.arange(4)]))
        model = PoissonGammaREModel(group_count=4, alpha=25.0, beta=2.5)
        cfg = ChainConfig(m_draws=60_000, burn_in=2000, rng_seed=0)
        sample = sample_posterior(model, data, cfg=cfg)
        l_diag = l_diag_from_chain(sample, poisson_re_view(model, data))

        a_g = 25.0 + y
        s_tot, t_tot = a_g.sum(), float(y.sum())  # 110, 10
        l01_exact = -4.0 / s_tot
        l11_exact = 4.0 * a_g * (1.0 + 2.0 * t_tot) / (s_tot * (s_tot + 1.0))

        gam = sample.draws[:, 0]
        gbar = gam - gam.mean()
        ess_g = ess(gam)
        c = np.exp(gam)
        b = 2.5 + c
        se01 = 4.0 * np.std(gbar * (-c / b), ddof=1) / math.sqrt(ess_g)
        assert se01 < 0.01 * abs(l01_exact) * 40  # tolerance stays informative
        for g in range(4):
            block = l_diag[g]
            # gamma-independent trigamma entry is annihilated by centering
            assert abs(block[0, 0]) < 1e-14
            assert block[0, 1] == block[1, 0]
            assert abs(block[0, 1] - l01_exact) < 4.0 * se01
            se11 = 4.0 * a_g[g] * np.std(gbar * (c**2 / b**2), ddof=1) / math.sqrt(ess_g)
            assert abs(block[1, 1] - l11_exact[g]) < 4.0 * se11

    def test_raw_route_agrees_with_closed_form_decomposition(self):
        """Dual route: the direct per-draw second-moment blocks must equal
        L/N + M/N^2 within MC error, with L from the library and M from the
        closed-form conditional means.  The prior mean alpha/beta = 0.5 of
        the group rates leaves the local parameters weakly informed, so on
        the diagonal blocks L/N dominates M/N^2 and lies well outside the
        5-SE band: an L off by a factor of 2 fails.  The SE of each entry
        comes from the per-draw spread of the difference statistic over the
        ESS of the global parameter."""
        spec = SimSpec(n=6, g_count=3, gamma_true=0.4, alpha=3.0, beta=6.0, rng_seed=11)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=6.0)
        sample = sample_posterior(
            model, data, cfg=ChainConfig(m_draws=60_000, rng_seed=1)
        )
        view = poisson_re_view(model, data)
        raw = raw_second_moment_blocks(sample)

        gam = sample.draws[:, 0]
        gbar = sample.g_values[:, 0] - sample.g_values[:, 0].mean()
        eta = poisson_re_eta(sample.draws)
        mu = poisson_re_conditional_mean(model, data, gam)
        j = view.conditional_cov(sample.draws, slice(None))
        eta_c = eta - eta.mean(axis=0)
        mu_c = mu - mu.mean(axis=0)
        diag = np.arange(3), np.arange(3)
        l_blocks = np.zeros((3, 3, 2, 2))
        l_blocks[diag] = l_diag_from_chain(sample, view)
        # M / N^2 = E_post[ gbar * mubar_g mubar_h^T ]
        m_term = np.einsum("m,mgi,mhj->ghij", gbar, mu_c, mu_c) / sample.m
        pred = l_blocks / 6.0 + m_term

        per = gbar[:, None, None, None, None] * (
            np.einsum("mgi,mhj->mghij", eta_c, eta_c)
            - np.einsum("mgi,mhj->mghij", mu_c, mu_c)
        )
        per[:, np.arange(3), np.arange(3)] -= gbar[:, None, None, None] * j
        se = per.std(axis=0, ddof=1) / math.sqrt(ess(gam))
        np.testing.assert_array_less(np.abs(raw - pred), 5.0 * se + 1e-12)

        l_over_n = np.abs(l_blocks[diag][:, 1, 1]) / 6.0
        assert np.all(l_over_n > np.abs(m_term[diag][:, 1, 1]))
        assert np.all(l_over_n > 5.0 * se[diag][:, 1, 1])


class TestKappaRho:
    def poisson_setup(self, seed=3, g=6, per=4):
        rng = np.random.default_rng(seed)
        y = rng.poisson(3.0, size=g * per)
        groups = np.repeat(np.arange(g), per)
        data = Dataset(np.column_stack([y, groups]))
        model = PoissonGammaREModel(group_count=g, alpha=3.0, beta=1.5)
        view = poisson_re_view(model, data)
        m, s = empirical_group_moments(view)
        l = rng.normal(size=(g, 2, 2))
        return view, m, s, l + l.transpose(0, 2, 1)

    def test_zero_l_zeroes_everything(self):
        view, m, s, _ = self.poisson_setup()
        kr = kappa_and_rho(view, m, s, np.zeros((6, 2, 2)))
        assert kr.kappa_hat == 0.0
        np.testing.assert_array_equal(kr.rho_nn, 0.0)
        assert kr.resid_t1_hat == 0.0

    def test_linearity_in_l(self):
        view, m, s, l = self.poisson_setup()
        kr1 = kappa_and_rho(view, m, s, l)
        kr3 = kappa_and_rho(view, m, s, 3.0 * l)
        assert kr3.kappa_hat == pytest.approx(3.0 * kr1.kappa_hat, rel=1e-12)
        np.testing.assert_allclose(kr3.rho_nn, 3.0 * kr1.rho_nn, rtol=1e-12)
        assert kr3.resid_t1_hat == pytest.approx(3.0 * kr1.resid_t1_hat, rel=1e-12)

    def test_group_relabeling_invariance(self):
        view, m, s, l = self.poisson_setup()
        kr = kappa_and_rho(view, m, s, l)
        perm = np.random.default_rng(9).permutation(6)
        inv = np.argsort(perm)
        relabeled = GroupedExpFamilyView(
            y=view.y, groups=inv[view.groups], g_count=6,
            conditional_cov=view.conditional_cov,
        )
        kr2 = kappa_and_rho(relabeled, m[perm], s[perm], l[perm])
        assert kr2.kappa_hat == pytest.approx(kr.kappa_hat, rel=1e-12)
        np.testing.assert_allclose(kr2.rho_nn, kr.rho_nn, rtol=1e-10)
        assert kr2.resid_t1_hat == pytest.approx(kr.resid_t1_hat, rel=1e-12)

    def test_balanced_empirical_centering_identity(self):
        """With balanced groups and empirical moments the diagonal mean obeys
        rho_bar = kappa_hat - mean_g(m_g' L_gg m_g) / G exactly; this pins the
        scaled-statistic construction end to end."""
        view, m, s, l = self.poisson_setup(seed=5, g=8, per=5)
        kr = kappa_and_rho(view, m, s, l)
        correction = np.einsum("gi,gij,gj->g", m, l, m).mean() / 8.0
        assert kr.rho_bar == pytest.approx(kr.kappa_hat - correction, abs=1e-12)

    def test_non_psd_s_rejected(self):
        view, m, s, l = self.poisson_setup()
        s = s.copy()
        s[2] = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues -2 and 4
        with pytest.raises(NumericalError, match="positive semidefinite"):
            kappa_and_rho(view, m, s, l)

    def test_l_shape_guard(self):
        view, m, s, _ = self.poisson_setup()
        for shape in ((6, 3, 3), (6, 6, 2, 2)):
            with pytest.raises(ValueError, match="l_diag"):
                kappa_and_rho(view, m, s, np.zeros(shape))

    def test_cross_terms_shrink_with_group_count(self):
        """|R_hat - rho_bar| collects the off-diagonal rho mass; with
        truth-centered moments its median over datasets falls as G grows at
        fixed N/G.  Quantile samples make each value deterministic."""
        medians = []
        for g in (10, 40, 160):
            crosses = []
            for seed in range(9):
                spec = SimSpec(n=20 * g, g_count=g, gamma_true=0.4,
                               alpha=3.0, beta=1.5, rng_seed=100 + seed)
                data, theta_true = simulate_poisson_re(spec)
                model = PoissonGammaREModel(group_count=g, alpha=3.0, beta=1.5)
                sample = quantile_sample(model, data)
                view = poisson_re_view(model, data)
                moments = poisson_re_truth_moments(theta_true)
                terms = diagnose(sample, view, moments=moments)
                crosses.append(abs(terms.resid_t1_hat - terms.rho_nn.mean()))
            medians.append(float(np.median(crosses)))
        assert medians[0] > medians[1] > medians[2]

    def test_kappa_magnitude_smaller_with_more_data_per_group(self):
        """Same N, ten times fewer better-informed groups: the predicted-bias
        scalar collapses (here by more than 5x on every seed checked)."""
        for seed in range(4):
            kappas = {}
            for g in (400, 40):
                spec = SimSpec(n=400, g_count=g, gamma_true=0.4,
                               alpha=3.0, beta=1.5, rng_seed=seed)
                data, theta_true = simulate_poisson_re(spec)
                model = PoissonGammaREModel(group_count=g, alpha=3.0, beta=1.5)
                sample = quantile_sample(model, data)
                view = poisson_re_view(model, data)
                moments = poisson_re_truth_moments(theta_true)
                kappas[g] = diagnose(sample, view, moments=moments).kappa_hat
            assert abs(kappas[40]) < abs(kappas[400]) / 5.0


def expression_conditional_cov(model, data):
    """poisson_re_view's conditional_cov as whole-array expressions, with
    their M x (b - a) temporaries: the oracle for the in-place version."""
    counts = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    n_g = np.bincount(groups, minlength=model.group_count).astype(np.float64)
    a_g = model.alpha + np.bincount(groups, weights=counts, minlength=model.group_count)
    psi1_a = special_trigamma(a_g)

    def conditional_cov(draws, groups):
        gam = np.ascontiguousarray(draws[:, 0], dtype=np.float64)
        c = np.exp(gam)[:, None]
        b = model.beta + n_g[None, groups] * c
        j = np.empty(b.shape + (2, 2))
        j[:, :, 0, 0] = psi1_a[None, groups]
        j[:, :, 0, 1] = j[:, :, 1, 0] = -c / b
        j[:, :, 1, 1] = c**2 * a_g[None, groups] / b**2
        return j

    return conditional_cov


class TestDiagnosePipeline:
    @pytest.mark.parametrize("g_count", [3, 40, 400])
    def test_in_place_conditional_cov_keeps_every_bit(self, g_count):
        spec = SimSpec(n=400, g_count=g_count, gamma_true=1.5, alpha=25.0, beta=2.5,
                       rng_seed=5)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=g_count, alpha=25.0, beta=2.5)
        sample = sample_posterior(model, data, cfg=ChainConfig(m_draws=600, rng_seed=0),
                                  want_loglik=False)
        view = poisson_re_view(model, data)
        old = replace(view, conditional_cov=expression_conditional_cov(model, data))
        assert np.array_equal(view.conditional_cov(sample.draws, slice(None)),
                              old.conditional_cov(sample.draws, slice(None)))
        for a in range(0, g_count, 7):
            block = slice(a, min(a + 7, g_count))
            assert np.array_equal(view.conditional_cov(sample.draws, block),
                                  old.conditional_cov(sample.draws, block))
        assert np.array_equal(l_diag_from_chain(sample, view), l_diag_from_chain(sample, old))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # groups with no data
            new_terms, old_terms = diagnose(sample, view), diagnose(sample, old)
        assert new_terms.kappa_hat == old_terms.kappa_hat
        assert new_terms.resid_t1_hat == old_terms.resid_t1_hat

    def test_composes_the_pieces(self):
        spec = SimSpec(n=12, g_count=3, gamma_true=0.2, alpha=3.0, beta=1.5, rng_seed=1)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=1.5)
        sample = sample_posterior(
            model, data, cfg=ChainConfig(m_draws=400, rng_seed=0)
        )
        view = poisson_re_view(model, data)
        terms = diagnose(sample, view)
        m, s = empirical_group_moments(view)
        l_diag = l_diag_from_chain(sample, view)
        kr = kappa_and_rho(view, m, s, l_diag)
        assert terms.kappa_hat == kr.kappa_hat
        assert terms.resid_t1_hat == kr.resid_t1_hat
        np.testing.assert_array_equal(terms.rho_nn, kr.rho_nn)
        np.testing.assert_array_equal(terms.per_group_trace, kr.per_group_trace)
        assert terms.kappa_hat == pytest.approx(terms.per_group_trace.mean())

    def test_unknown_moments_string(self):
        spec = SimSpec(n=6, g_count=2, gamma_true=0.2, alpha=3.0, beta=1.5, rng_seed=2)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=2, alpha=3.0, beta=1.5)
        sample = sample_posterior(
            model, data, cfg=ChainConfig(m_draws=100, rng_seed=0)
        )
        with pytest.raises(ValueError, match="moments"):
            diagnose(sample, poisson_re_view(model, data), moments="bogus")


def whole_array_l(sample, view):
    """The L diagonal from one hook call over all G groups: the oracle for
    the group-blocked reduction."""
    gbar = sample.g_values[:, 0] - sample.g_values[:, 0].mean()
    j = view.conditional_cov(sample.draws, slice(0, view.g_count))
    return view.n * np.einsum("m,mgij->gij", gbar, j) / sample.m


def varied_view(g_count, n=9, seed=0):
    """A 2-D view whose conditional covariance differs by draw and by group."""
    rng = np.random.default_rng(seed)

    def conditional_cov(draws, groups):
        lab = np.arange(g_count, dtype=np.float64)[groups]
        t = draws[:, :1]
        j = np.empty((len(draws), lab.size, 2, 2))
        j[:, :, 0, 0] = np.sin(t * (lab + 1.0))
        j[:, :, 0, 1] = j[:, :, 1, 0] = np.exp(-t) * lab
        j[:, :, 1, 1] = t**2 + lab / 3.0
        return j

    return GroupedExpFamilyView(
        y=rng.normal(size=(n, 2)), groups=rng.integers(0, g_count, size=n),
        g_count=g_count, conditional_cov=conditional_cov,
    )


def gaussian_sample(m, n_data, seed=1, loc=0.0, scale=1.0, cols=1):
    """M Gaussian draws of the global parameter (column 0, also g); any
    other columns are zero."""
    gam = np.random.default_rng(seed).normal(loc, scale, size=m)
    draws = np.zeros((m, cols))
    draws[:, 0] = gam
    return PosteriorSample(draws=draws, g_values=gam[:, None], loglik=None, n_data=n_data)


def budget_for(width, m, d=2):
    """A cell budget that gives group blocks of `width` (0: below one group)."""
    return max(1, width * m * d * d + m * d * d - 1)


@pytest.fixture(scope="module")
def re_g400():
    spec = SimSpec(n=400, g_count=400, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=5)
    data, _ = simulate_poisson_re(spec)
    model = PoissonGammaREModel(group_count=400, alpha=25.0, beta=2.5)
    sample = sample_posterior(model, data, cfg=ChainConfig(m_draws=4000, rng_seed=0),
                              want_loglik=False)
    return sample, poisson_re_view(model, data)


class TestGroupBlocks:
    """l_diag_from_chain asks for one bounded group block at a time and keeps
    every bit of the whole-array reduction."""

    @pytest.mark.parametrize("width", [None, 0, 1, 3])
    @pytest.mark.parametrize("g_count", [1, 7, 401])
    def test_blocks_equal_whole_array(self, monkeypatch, g_count, width):
        m = 2001
        if width is not None:
            monkeypatch.setattr(models, "_BLOCK_CELLS", budget_for(width, m))
        view, sample = varied_view(g_count), gaussian_sample(m, 9)
        assert np.array_equal(l_diag_from_chain(sample, view), whole_array_l(sample, view))

    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_poisson_re_view_blocks_equal_whole_array(self, monkeypatch, re_g400, width):
        sample, view = re_g400
        if width is not None:
            monkeypatch.setattr(models, "_BLOCK_CELLS", budget_for(width, sample.m))
        assert np.array_equal(l_diag_from_chain(sample, view), whole_array_l(sample, view))

    @pytest.mark.parametrize("width", [None, 0, 1, 3, 500])
    @pytest.mark.parametrize("g_count", [1, 7, 401])
    def test_slices_fit_the_budget_and_cover_the_groups_once(
        self, monkeypatch, g_count, width
    ):
        m = 301
        if width is not None:
            monkeypatch.setattr(models, "_BLOCK_CELLS", budget_for(width, m))
        view = varied_view(g_count)
        seen = []

        def spy(draws, groups):
            seen.append(groups)
            return view.conditional_cov(draws, groups)

        l_diag_from_chain(gaussian_sample(m, 9), replace(view, conditional_cov=spy))
        for block in seen:
            assert isinstance(block, slice) and block.step is None
            cells = m * (block.stop - block.start) * 4
            assert cells <= models._BLOCK_CELLS or block.stop - block.start == 1
        assert seen[0].start == 0 and seen[-1].stop == g_count
        assert all(p.stop == q.start for p, q in zip(seen, seen[1:]))
        assert all(block.stop > block.start for block in seen)

    def test_peak_memory_is_one_block(self):
        """At M = 2000, G = 400 the whole J array alone is 25.6 MB."""
        spec = SimSpec(n=400, g_count=400, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=5)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=400, alpha=25.0, beta=2.5)
        view = poisson_re_view(model, data)
        sample = gaussian_sample(2000, 400, loc=1.5, scale=0.05, cols=model.dim)
        tracemalloc.start()
        try:
            l_diag_from_chain(sample, view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBcltExpansion:
    def normal_problem(self, n, rng):
        x = rng.normal(1.0, 2.0, size=n)
        return NormalMeanModel(known_sd=2.0, prior_mean=0.0, prior_sd=3.0), Dataset(x)

    def test_linear_phi_residual_vanishes(self):
        rng = np.random.default_rng(0)
        problems = [self.normal_problem(n, rng) for n in (50, 200)]
        chk = bclt_expansion_check(
            problems, lambda t: 2.0 * t + 1.0, lambda t: 2.0, lambda t: 0.0
        )
        assert np.all(chk.residuals < 1e-12)

    def test_quadratic_phi_conjugate_closed_form(self):
        """For an exactly normal posterior, E[theta^2] - thetahat^2 equals the
        posterior variance, and the analytic correction reproduces it, so the
        residual sits at quadrature precision."""
        rng = np.random.default_rng(0)
        ns = (50, 200, 800)
        problems = [self.normal_problem(n, rng) for n in ns]
        chk = bclt_expansion_check(
            problems, lambda t: t**2, lambda t: 2.0 * t, lambda t: 2.0
        )
        for n, gap, corr, resid in zip(
            ns, chk.posterior_means - chk.map_values, chk.corrections, chk.residuals
        ):
            sigma2 = 1.0 / (n / 4.0 + 1.0 / 9.0)
            assert gap == pytest.approx(sigma2, rel=1e-9)
            assert corr == pytest.approx(sigma2, rel=1e-9)
            assert resid < 1e-9 * sigma2 + 1e-14

    def test_cubic_phi_decay_rate(self):
        rng = np.random.default_rng(0)
        problems = []
        for n in (50, 200, 800):
            y = rng.poisson(3.0, size=n)
            problems.append(
                (PoissonGammaConjugateModel(prior_shape=2.0, prior_rate=1.0),
                 Dataset(y))
            )
        chk = bclt_expansion_check(
            problems, lambda t: t**3, lambda t: 3.0 * t**2, lambda t: 6.0 * t
        )
        assert -2.3 < chk.slope < -1.7

    def test_quadrature_non_convergence(self):
        rng = np.random.default_rng(0)
        problems = [self.normal_problem(50, rng)]

        def bad_phi(t):
            return np.full_like(np.atleast_1d(np.asarray(t, dtype=float)), np.nan)

        with pytest.raises(NumericalError, match="converge"):
            bclt_expansion_check(problems, bad_phi, lambda t: 0.0, lambda t: 0.0)

    def test_multiparameter_model_rejected(self):
        spec = SimSpec(n=6, g_count=3, gamma_true=0.2, alpha=3.0, beta=1.5, rng_seed=0)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=1.5)
        with pytest.raises(ValueError, match="1-D"):
            bclt_expansion_check([(model, data)], lambda t: t, lambda t: 1.0,
                                 lambda t: 0.0)
