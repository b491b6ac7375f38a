"""Posterior samplers: exact conjugate draws, the Gibbs sweep for the
random-effects model, the MH fallback, MAP optimization, and ESS."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ijcov import samplers
from ijcov import (
    ChainConfig,
    Dataset,
    NormalMeanModel,
    NumericalError,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    SimSpec,
    ess,
    exact_normal_posterior,
    map_optimize,
    sample_posterior,
    simulate_poisson_re,
)
from ijcov.rng import KIND_CHAIN, stream


class TestChainConfig:
    def test_burn_default_is_half(self):
        assert ChainConfig(m_draws=4000).resolved_burn_in == 2000

    def test_retained_counts(self):
        cfg = ChainConfig(m_draws=11, burn_in=3, thin=2)
        assert cfg.retained() == 4  # draws 3,5,7,9 of 0..10

    def test_too_few_retained_rejected(self):
        with pytest.raises(ValueError, match="retained"):
            ChainConfig(m_draws=4, burn_in=3).retained()

    @pytest.mark.parametrize("bad", [dict(m_draws=1), dict(m_draws=10, thin=0),
                                     dict(m_draws=10, burn_in=10)])
    def test_invalid_settings(self, bad):
        with pytest.raises(ValueError):
            ChainConfig(**bad)


class TestExactNormalSampler:
    def test_moments_match_conjugate_formula(self):
        model = NormalMeanModel(known_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        data = Dataset(np.array([0.0, 2.0]))
        cfg = ChainConfig(m_draws=200_000, rng_seed=0)
        s = sample_posterior(model, data, cfg=cfg)
        mu, var = exact_normal_posterior(model, data)
        # exact sampler keeps every draw
        assert s.draws.shape == (200_000, 1)
        assert s.draws.mean() == pytest.approx(mu, abs=4 * math.sqrt(var / 200_000))
        assert s.draws.var(ddof=1) == pytest.approx(var, rel=0.05)

    def test_loglik_matrix_shape_and_content(self):
        model = NormalMeanModel(known_sd=2.0)
        data = Dataset(np.array([1.0, -1.0, 0.5]))
        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=50, rng_seed=1))
        assert s.loglik.shape == (50, 3)
        want = model.log_lik(1.0, s.draws[7])
        assert s.loglik[7, 0] == pytest.approx(want, rel=1e-14)

    def test_seed_determinism(self):
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.0, 1.0]))
        a = sample_posterior(model, data, cfg=ChainConfig(m_draws=20, rng_seed=5))
        b = sample_posterior(model, data, cfg=ChainConfig(m_draws=20, rng_seed=5))
        c = sample_posterior(model, data, cfg=ChainConfig(m_draws=20, rng_seed=6))
        np.testing.assert_array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    def test_zero_weights_drop_data(self):
        # weighting {0,2,99} with (1,1,0) must reproduce the {0,2} posterior
        model = NormalMeanModel(known_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        data3 = Dataset(np.array([0.0, 2.0, 99.0]))
        w = np.array([1.0, 1.0, 0.0])
        mu_w, var_w = exact_normal_posterior(model, data3, w)
        mu, var = exact_normal_posterior(model, Dataset(np.array([0.0, 2.0])))
        assert (mu_w, var_w) == (pytest.approx(mu), pytest.approx(var))


class TestExactPoissonGammaSampler:
    def test_moments_match_gamma_posterior(self):
        model = PoissonGammaConjugateModel(prior_shape=2.0, prior_rate=1.0)
        data = Dataset(np.array([3.0, 5.0, 1.0]))
        shape, rate = model.posterior_params(data)
        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=100_000, rng_seed=2))
        assert s.draws.mean() == pytest.approx(shape / rate, rel=0.01)
        assert s.draws.var(ddof=1) == pytest.approx(shape / rate**2, rel=0.05)


def mask_group_fsum(values, groups, g_count):
    """The per-group mask sums that _group_fsum replaced; an oracle."""
    return np.array([math.fsum(values[groups == g].tolist()) for g in range(g_count)])


def per_iteration_gibbs(model, data, w, cfg):
    """The Gibbs sweep as it was before chunked pre-drawing: one rng.gamma
    call per conditional per iteration.  The oracle for bit-identity."""
    g_count = model.group_count
    y = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    wy_g = mask_group_fsum(w * y, groups, g_count)
    w_g = mask_group_fsum(w, groups, g_count)
    s_wy = math.fsum((w * y).tolist())
    shape_u = model.alpha + wy_g
    burn = cfg.resolved_burn_in
    draws = np.empty((cfg.retained(), 1 + g_count))
    u = np.full(g_count, model.alpha / model.beta)
    c = s_wy / float(u @ w_g)
    rng = stream(cfg.rng_seed, KIND_CHAIN)
    k = 0
    for it in range(cfg.m_draws):
        u = rng.gamma(shape_u, 1.0 / (model.beta + c * w_g))
        c = rng.gamma(s_wy, 1.0 / float(u @ w_g))
        if it >= burn and (it - burn) % cfg.thin == 0:
            draws[k, 0] = math.log(c)
            draws[k, 1:] = np.log(u)
            k += 1
    return draws[:k]


def chunk_iters(g_count):
    return samplers._GAMMA_CHUNK_VARIATES // (g_count + 1)


def multinomial_weights(data, seed, zero_group=None):
    """Multinomial(N, .) weights; `zero_group` gets probability 0, so its
    datapoints all have weight 0."""
    keep = np.ones(data.n)
    if zero_group is not None:
        keep[data.units[:, 1] == zero_group] = 0.0
    rng = np.random.default_rng(seed)
    return rng.multinomial(data.n, keep / keep.sum()).astype(np.float64)


# (G, N, weights, ChainConfig settings); m_draws is below, equal to, or not a
# multiple of the chunk (chunk_iters(G) iterations).
CHUNK_CASES = {
    "g1_unit_below_chunk": (1, 30, None, dict(m_draws=500)),
    "g1_multinomial_thin3": (1, 30, "multinomial", dict(m_draws=501, thin=3)),
    "g3_unit_one_chunk_burn0": (3, 30, None, dict(m_draws=chunk_iters(3), burn_in=0)),
    "g3_zero_group": (3, 30, "zero_group", dict(m_draws=700)),
    "g400_unit_not_multiple_thin3": (400, 400, None,
                                     dict(m_draws=2 * chunk_iters(400) + 17, thin=3)),
    "g400_multinomial_one_chunk_burn0": (400, 400, "multinomial",
                                         dict(m_draws=chunk_iters(400), burn_in=0)),
    "g400_zero_group": (400, 400, "zero_group", dict(m_draws=1000)),
}


class TestGibbsChunkedSweep:
    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_bit_identical_to_per_iteration_sweep(self, case):
        g_count, n, weights, settings = CHUNK_CASES[case]
        data, _ = simulate_poisson_re(SimSpec(n=n, g_count=g_count, gamma_true=1.0,
                                              alpha=2.0, beta=1.5, rng_seed=g_count))
        model = PoissonGammaREModel(group_count=g_count, alpha=2.0, beta=1.5)
        if weights is None:
            w = np.ones(n)
        else:
            w = multinomial_weights(data, 9, zero_group=0 if weights == "zero_group" else None)
            if g_count > 1:  # some groups carry no weight at all
                assert (mask_group_fsum(w, data.units[:, 1], g_count) == 0).any()
        cfg = ChainConfig(rng_seed=17, **settings)
        got = sample_posterior(model, data, w, cfg, want_loglik=False).draws
        assert got.shape == (cfg.retained(), 1 + g_count)
        assert np.array_equal(got, per_iteration_gibbs(model, data, w, cfg))

    def test_group_fsum_matches_masks(self):
        rng = np.random.default_rng(4)
        groups = rng.integers(0, 7, size=300)
        groups[groups == 5] = 2  # group 5 is empty
        values = rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, size=300)
        got = samplers._group_fsum(values, groups, 7)
        assert np.array_equal(got, mask_group_fsum(values, groups, 7))
        assert got[5] == 0.0


def one_at_a_time_means(model, chains, cfg):
    """Each (data, w, seed) chain alone through the per-iteration oracle,
    its posterior mean of g taken as sample_posterior's g_values give it:
    the oracle for the lockstep sweep."""
    return np.array([
        model.g_vector(per_iteration_gibbs(model, data, np.ones(data.n) if w is None else w,
                                           dataclasses.replace(cfg, rng_seed=seed)))
        .mean(axis=0)
        for data, w, seed in chains
    ])


def lockstep_chains(g_count, k_count):
    """K chains on datasets of their own; every other chain carries
    multinomial weights that leave group 0 (and so, for G > 1, a whole
    group) with zero weight."""
    chains = []
    for k in range(k_count):
        data, _ = simulate_poisson_re(SimSpec(n=max(30, g_count), g_count=g_count,
                                              gamma_true=1.0, alpha=2.0, beta=1.5,
                                              rng_seed=100 + k))
        w = None
        if k % 2:
            w = multinomial_weights(data, k, zero_group=0 if g_count > 1 else None)
            if g_count > 1:
                assert (mask_group_fsum(w, data.units[:, 1], g_count) == 0).any()
        chains.append((data, w, 1000 + k))
    return chains


class TestLockstepSweep:
    """posterior_means runs K random-effects chains in one lockstep sweep;
    every chain's mean keeps the bits of that chain run alone."""

    @pytest.mark.parametrize("g_count", [1, 3, 400])
    @pytest.mark.parametrize("k_count", [1, 2, 7])
    @pytest.mark.parametrize("budget", ["default", "small"])
    def test_bit_identical_to_one_chain_at_a_time(self, monkeypatch, g_count, k_count,
                                                  budget):
        if budget == "small":  # many chunks, down to one iteration each
            monkeypatch.setattr(samplers, "_GAMMA_CHUNK_VARIATES", 1 << 10)
        model = PoissonGammaREModel(group_count=g_count, alpha=2.0, beta=1.5)
        chains = lockstep_chains(g_count, k_count)
        cfg = ChainConfig(m_draws=601, thin=2)
        got = samplers.posterior_means(model, chains, cfg)
        assert got.shape == (k_count, 1)
        assert np.array_equal(got, one_at_a_time_means(model, chains, cfg))

    def test_other_models_run_sample_posterior(self):
        model = NormalMeanModel(known_sd=1.0)
        data = Dataset(np.array([0.5, -1.0, 2.0]))
        chains = [(data, None, 3), (data, np.array([2.0, 0.0, 1.0]), 4)]
        cfg = ChainConfig(m_draws=50)
        want = [sample_posterior(model, d, w, ChainConfig(m_draws=50, rng_seed=s))
                .g_values.mean(axis=0) for d, w, s in chains]
        assert np.array_equal(samplers.posterior_means(model, chains, cfg), np.array(want))

    @pytest.mark.parametrize("g_count", [1, 3, 400])
    def test_vecdot_rows_are_the_chain_dots(self, g_count):
        rng = np.random.default_rng(g_count)
        u = rng.standard_gamma(3.0, size=(7, g_count)) * 10.0 ** rng.integers(-3, 4, (7, g_count))
        w = rng.multinomial(g_count, np.full(g_count, 1.0 / g_count), size=7).astype(np.float64)
        w[:, 0] = 0.0
        got = np.vecdot(u, w)
        assert np.array_equal(got, np.array([float(u[k] @ w[k]) for k in range(7)]))


class MetropolisOnly:
    """Forwards every attribute to `inner` under a type that has no
    dedicated sampler, so sample_posterior runs random-walk Metropolis."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def collapsed_gamma_mean(model, data):
    """E[gamma | data] by trapezoid quadrature of the collapsed posterior
    p(gamma | data) ∝ exp(gamma S) Π_g (beta + e^gamma N_g)^-(alpha + S_g),
    with the u_g = exp(lambda_g) integrated out (unit weights)."""
    y = data.units[:, 0].astype(np.float64)
    groups = data.units[:, 1].astype(np.int64)
    y_g = np.bincount(groups, weights=y, minlength=model.group_count)
    n_g = np.bincount(groups, minlength=model.group_count).astype(np.float64)

    def log_density(gam):
        rate = model.beta + np.exp(gam)[:, None] * n_g
        return gam * y.sum() - ((model.alpha + y_g) * np.log(rate)).sum(axis=1)

    coarse = np.linspace(-20.0, 20.0, 8001)
    lp = log_density(coarse)
    live = coarse[lp > lp.max() - 60.0]
    grid = np.linspace(live[0] - 0.01, live[-1] + 0.01, 20001)
    lp = log_density(grid)
    dens = np.exp(lp - lp.max())

    def trapezoid(f):
        return float(np.sum((f[1:] + f[:-1]) * np.diff(grid)) / 2.0)

    return trapezoid(grid * dens) / trapezoid(dens)


class TestGibbsSampler:
    @pytest.mark.parametrize("n,g_count,alpha,beta,m_draws", [
        (30, 3, 25.0, 2.5, 20_000),   # small G
        (40, 40, 2.0, 1.0, 40_000),   # N/G = 1
    ])
    def test_posterior_mean_matches_collapsed_quadrature(self, n, g_count, alpha, beta,
                                                         m_draws):
        """The exact target: E[gamma | data] from the collapsed density lies
        within 4 Monte-Carlo SEs of the Gibbs chain's mean."""
        data, _ = simulate_poisson_re(SimSpec(n=n, g_count=g_count, gamma_true=1.0,
                                              alpha=alpha, beta=beta, rng_seed=11))
        model = PoissonGammaREModel(group_count=g_count, alpha=alpha, beta=beta)
        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=m_draws, rng_seed=0),
                             want_loglik=False)
        gam = s.draws[:, 0]
        mcse = gam.std(ddof=1) / math.sqrt(ess(gam))
        assert abs(gam.mean() - collapsed_gamma_mean(model, data)) < 4 * mcse

    def test_gibbs_matches_mh_reference(self):
        """Two independent sampler families agree on E[gamma | data] within
        4 combined MC standard errors."""
        spec = SimSpec(n=30, g_count=3, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=3)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=3, alpha=25.0, beta=2.5)
        sg = sample_posterior(model, data, cfg=ChainConfig(m_draws=40_000, rng_seed=0),
                              want_loglik=False)
        sm = sample_posterior(MetropolisOnly(model), data,
                              cfg=ChainConfig(m_draws=80_000, rng_seed=1), want_loglik=False)
        assert (sg.meta["method"], sm.meta["method"]) == ("gibbs", "mh")
        gg, gm = sg.g_values[:, 0], sm.g_values[:, 0]
        se = math.hypot(gg.std(ddof=1) / math.sqrt(ess(gg)),
                        gm.std(ddof=1) / math.sqrt(ess(gm)))
        assert abs(gg.mean() - gm.mean()) < 4 * se

    def test_single_group_rate_concentrates_at_log_mean(self):
        # with G=1 only gamma + lambda_1 is identified; its posterior mean
        # approaches log(ybar) for large N
        rng = np.random.default_rng(8)
        y = rng.poisson(12.0, size=4000)
        data = Dataset(np.column_stack([y, np.zeros_like(y)]))
        model = PoissonGammaREModel(group_count=1, alpha=25.0, beta=2.5)
        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=4000, rng_seed=0),
                             want_loglik=False)
        combined = s.draws[:, 0] + s.draws[:, 1]
        assert combined.mean() == pytest.approx(math.log(y.mean()), abs=0.02)

    def test_burn_and_thin_applied(self):
        spec = SimSpec(n=12, g_count=2, gamma_true=1.0, alpha=2.0, beta=1.0, rng_seed=0)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=2, alpha=2.0, beta=1.0)
        cfg = ChainConfig(m_draws=100, burn_in=40, thin=3)
        s = sample_posterior(model, data, cfg=cfg, want_loglik=False)
        assert s.draws.shape == (20, 3)

    def test_all_zero_counts_rejected(self):
        # flat prior on gamma is improper when the total count is zero: the
        # data are refused as input before the chain starts
        data = Dataset(np.array([[0, 0], [0, 1]]))
        model = PoissonGammaREModel(group_count=2, alpha=2.0, beta=1.0)
        with pytest.raises(ValueError, match="^all counts are zero"):
            sample_posterior(model, data, cfg=ChainConfig(m_draws=100, rng_seed=0))

    def test_weights_zeroing_the_counts_stay_numerical(self):
        data = Dataset(np.array([[3, 0], [0, 1]]))
        model = PoissonGammaREModel(group_count=2, alpha=2.0, beta=1.0)
        with pytest.raises(NumericalError, match="^improper conditional"):
            sample_posterior(model, data, np.array([0.0, 2.0]),
                             cfg=ChainConfig(m_draws=100, rng_seed=0))


class TestMapOptimize:
    def test_flat_prior_normal_map_is_sample_mean(self):
        model = NormalMeanModel(known_sd=2.0)
        x = np.array([1.0, 2.0, 6.0])
        fit = map_optimize(model, Dataset(x))
        assert fit.converged
        assert fit.theta_hat[0] == pytest.approx(3.0, abs=1e-10)
        # info = (1/N) sum 1/sd^2 = 1/4; score cov = s^2_N / sd^4
        assert fit.info_hat[0, 0] == pytest.approx(0.25, rel=1e-12)
        s2n = x.var()
        assert fit.score_cov_hat[0, 0] == pytest.approx(s2n / 16.0, rel=1e-12)
        assert fit.n_data == 3

    def test_proper_prior_shifts_optimum(self):
        model = NormalMeanModel(known_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        fit = map_optimize(model, Dataset(np.array([0.0, 2.0])))
        assert fit.theta_hat[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_poisson_gamma_map(self):
        # flat-ish prior (shape 1, rate 0): MAP of conjugate Gamma(1+Sy, N)
        # is (shape-1)/rate = ybar
        model = PoissonGammaConjugateModel(prior_shape=1.0, prior_rate=0.0)
        y = np.array([3.0, 5.0, 4.0])
        fit = map_optimize(model, Dataset(y))
        assert fit.converged
        assert fit.theta_hat[0] == pytest.approx(4.0, abs=1e-9)


def direct_ess(chain) -> float:
    """Oracle for `ess`: each autocovariance as a dot of two lagged views,
    xc[:M-j] @ xc[j:], read only as far as Geyer's initial-positive-sequence
    rule goes."""
    x = np.asarray(chain, dtype=np.float64).reshape(-1)
    m = x.size
    xc = x - x.mean()
    acov0 = float(xc @ xc)
    if acov0 == 0.0:
        return float(m)
    tau = -1.0
    for j in range(0, m - 1, 2):
        pair = float(xc[:m - j] @ xc[j:]) / acov0 + float(xc[:m - j - 1] @ xc[j + 1:]) / acov0
        if pair <= 0:
            break
        tau += 2.0 * pair
    return float(m) if tau <= 0 else float(min(m, m / tau))


def ar1_chain(phi, m, seed):
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=m)
    x = np.empty(m)
    x[0] = eps[0]
    for t in range(1, m):
        x[t] = phi * x[t - 1] + eps[t]
    return x


class TestEssAgainstDirectLags:
    """The FFT autocovariances give the ESS of the lag-by-lag definition."""

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.6, 0.9, 0.95, 0.97])
    def test_ar1_chains_agree(self, phi):
        for m, seed in itertools.product((10, 11, 17, 100, 1001, 4000), range(3)):
            x = ar1_chain(phi, m, seed)
            assert ess(x) == pytest.approx(direct_ess(x), rel=1e-12, abs=0), (m, seed)

    def test_long_tau_chain(self):
        # a random walk: the pair sums stay positive far out, so most lags
        # are read
        x = np.cumsum(np.random.default_rng(3).normal(size=3000))
        assert ess(x) == pytest.approx(direct_ess(x), rel=1e-12, abs=0)


class TestEss:
    def test_iid_chain_near_m(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20_000)
        assert ess(x) > 0.8 * 20_000

    def test_ar1_chain_reduced(self):
        # AR(1) with phi = 0.9 has tau = (1+phi)/(1-phi) = 19
        rng = np.random.default_rng(1)
        m, phi = 100_000, 0.9
        x = np.empty(m)
        x[0] = rng.normal()
        eps = rng.normal(size=m)
        for t in range(1, m):
            x[t] = phi * x[t - 1] + eps[t]
        got = ess(x)
        assert got == pytest.approx(m / 19.0, rel=0.25)

    def test_constant_chain_returns_m(self):
        assert ess(np.ones(500)) == 500.0

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))

    def test_never_exceeds_m(self):
        rng = np.random.default_rng(2)
        # antithetic-ish negatively correlated chain
        z = rng.normal(size=5000)
        x = np.ravel(np.column_stack([z, -z]))
        assert ess(x) <= 10_000.0
