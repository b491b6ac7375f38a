"""Monte-Carlo error machinery: block bootstrap, the delta method for
bootstrap summaries, and the Z / Delta comparison metrics."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ijcov import (
    ChainConfig,
    CovEstimate,
    NormalMeanModel,
    PoissonGammaREModel,
    PosteriorSample,
    SimSpec,
    bayes_covariance,
    block_bootstrap_se,
    bootstrap_covariance,
    delta_method_boot_se,
    delta_metrics,
    ij_covariance,
    influence_scores,
    sample_posterior,
    simulate_misspecified_normal,
    simulate_poisson_re,
    z_matrix,
)
from ijcov import estimators, models
from ijcov.estimators import _BlockSums
from ijcov.rng import KIND_BLOCK_BOOT, stream


ONE_BLAS_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def chain_sample(g, loglik=None, n_data=10):
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
    return PosteriorSample(
        draws=g.copy(), g_values=g, loglik=loglik, n_data=n_data
    )


class TestBlockBootstrapSE:
    def test_constant_chain_gives_zero(self):
        s = chain_sample(np.full(600, 1.7))
        with warnings.catch_warnings():
            # a constant chain has undefined autocorrelation time; only the
            # magnitude of the SE matters here
            warnings.simplefilter("ignore", RuntimeWarning)
            xi = block_bootstrap_se(s, "bayes_cov", reps=60, seed=0)
        assert xi.xi.shape == (1, 1)
        assert abs(xi.xi[0, 0]) < 1e-30

    def test_blocks_bounds_enforced(self):
        s = chain_sample(np.random.default_rng(0).normal(size=400))
        with pytest.raises(ValueError):
            block_bootstrap_se(s, "bayes_cov", blocks=1, reps=60)
        with pytest.raises(ValueError):
            block_bootstrap_se(s, "bayes_cov", blocks=201, reps=60)

    def test_reps_floor(self):
        s = chain_sample(np.random.default_rng(0).normal(size=400))
        with pytest.raises(ValueError):
            block_bootstrap_se(s, "bayes_cov", reps=49)

    def test_unknown_statistic(self):
        s = chain_sample(np.random.default_rng(0).normal(size=400))
        with pytest.raises(ValueError):
            block_bootstrap_se(s, "median_g", reps=60)

    def test_ij_statistic_needs_loglik(self):
        s = chain_sample(np.random.default_rng(0).normal(size=400))
        with pytest.raises(ValueError):
            block_bootstrap_se(s, "ij_cov", reps=60)
        with pytest.raises(ValueError, match="log-likelihood"):
            block_bootstrap_se(s, ("bayes_cov", "ij_cov"), reps=60)

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        s = chain_sample(rng.normal(size=500))
        a = block_bootstrap_se(s, "bayes_cov", reps=80, seed=5)
        b = block_bootstrap_se(s, "bayes_cov", reps=80, seed=5)
        c = block_bootstrap_se(s, "bayes_cov", reps=80, seed=6)
        np.testing.assert_array_equal(a.xi, b.xi)
        assert not np.array_equal(a.xi, c.xi)

    def test_mean_statistic_calibrated_on_iid_chain(self):
        """For an IID chain the block bootstrap SE of the draw mean must sit
        near sigma/sqrt(M); checked as a median over independent chains."""
        rng = np.random.default_rng(2)
        m = 2000
        ratios = []
        for _ in range(20):
            x = rng.normal(0.0, 1.3, size=m)
            xi = block_bootstrap_se(chain_sample(x), "mean_g", reps=200, seed=3)
            ratios.append(xi.xi.ravel()[0] / (x.std(ddof=1) / math.sqrt(m)))
        med = float(np.median(ratios))
        assert 0.8 < med < 1.2

    def test_low_ess_warns_on_thin_blocks(self):
        # strongly autocorrelated chain forced into many short blocks
        rng = np.random.default_rng(3)
        m, phi = 4000, 0.99
        x = np.empty(m)
        x[0] = 0.0
        eps = rng.normal(size=m)
        for t in range(1, m):
            x[t] = phi * x[t - 1] + eps[t]
        with pytest.warns(RuntimeWarning, match="block"):
            block_bootstrap_se(chain_sample(x), "mean_g", blocks=m // 2, reps=60, seed=0)


def exact_chain():
    data = simulate_misspecified_normal(40, "laplace", seed=2)
    return sample_posterior(NormalMeanModel(known_sd=1.0), data,
                            cfg=ChainConfig(m_draws=1000, rng_seed=2))


class MetropolisOnly:
    """Forwards every attribute to `inner` under a type that has no
    dedicated sampler, so sample_posterior runs random-walk Metropolis."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def re_problem(method):
    """The RE model, as is for "gibbs" or wrapped for "mh", and its data."""
    spec = SimSpec(n=30, g_count=3, gamma_true=1.5, alpha=25.0, beta=2.5, rng_seed=3)
    data, _ = simulate_poisson_re(spec)
    model = PoissonGammaREModel(group_count=3, alpha=25.0, beta=2.5)
    return (MetropolisOnly(model) if method == "mh" else model), data


def re_chain(method):
    model, data = re_problem(method)
    return sample_posterior(model, data, cfg=ChainConfig(m_draws=1200, rng_seed=4))


def mh_chain_all_params():
    # every parameter as a g column (q = 4), so the q x q and N x q block
    # sums are exercised off the diagonal
    s = re_chain("mh")
    return PosteriorSample(draws=s.draws, g_values=s.draws, loglik=s.loglik,
                           n_data=s.n_data)


CHAINS = {"exact": exact_chain, "gibbs": lambda: re_chain("gibbs"),
          "mh": mh_chain_all_params}


def rows(sample, idx):
    return PosteriorSample(draws=sample.draws[idx], g_values=sample.g_values[idx],
                           loglik=sample.loglik[idx], n_data=sample.n_data)


def resample_oracle(sample, statistic, blocks, reps, seed):
    """The block bootstrap computed the long way: concatenate the picked
    blocks' rows and recompute the statistic from scratch."""
    segments = np.array_split(np.arange(sample.m), blocks)
    rng = stream(seed, KIND_BLOCK_BOOT)
    values = []
    for _ in range(reps):
        pick = rng.integers(0, blocks, size=blocks)
        sub = rows(sample, np.concatenate([segments[b] for b in pick]))
        if statistic == "bayes_cov":
            values.append(bayes_covariance(sub).v)
        elif statistic == "ij_cov":
            values.append(ij_covariance(influence_scores(sub)).v)
        else:
            values.append(sub.g_values.mean(axis=0))
    return np.asarray(values).std(axis=0, ddof=1)


class TestBlockSumsAgainstResampling:
    @pytest.mark.parametrize("statistic", ["bayes_cov", "ij_cov", "mean_g"])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_matches_recomputed_resamples(self, chain, statistic):
        sample = CHAINS[chain]()
        assert sample.m % 20 == 0 and sample.m % 7, "want equal and unequal blocks"
        for blocks in (20, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = block_bootstrap_se(sample, statistic, blocks=blocks, reps=60, seed=9)
            want = resample_oracle(sample, statistic, blocks, 60, seed=9)
            assert got.blocks == blocks and got.reps == 60
            np.testing.assert_allclose(got.xi, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("blocks", [10, 7])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_unit_counts_reproduce_full_chain_estimates(self, chain, blocks):
        sample = CHAINS[chain]()
        segments = np.array_split(np.arange(sample.m), blocks)
        bounds = np.cumsum([0] + [len(s) for s in segments])
        sums = _BlockSums(sample, bounds, with_loglik=True)
        ones = np.ones((1, blocks), dtype=np.int64)
        for got, want in [
            (sums.statistic(ones, "bayes_cov")[0], bayes_covariance(sample).v),
            (sums.statistic(ones, "ij_cov")[0], ij_covariance(influence_scores(sample)).v),
        ]:
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        # the replicate mean is centered at the chain mean
        scale = np.abs(sample.g_values).max()
        np.testing.assert_allclose(sums.statistic(ones, "mean_g"), 0.0,
                                   atol=1e-12 * scale)


def _sym(v):
    """The symmetrization CovEstimate applies."""
    return 0.5 * (v + v.T)


def _centered(x):
    return x - x.mean(axis=0, keepdims=True)


def one_chain_statistic(sums, counts, statistic):
    """`_BlockSums.statistic` for one count vector, as it was evaluated once
    per replicate before the replicates were stacked: the loop oracle."""
    m = counts @ sums.lengths
    g_bar = counts @ sums.s_g / m
    if statistic == "mean_g":
        return g_bar
    q = g_bar.size
    if statistic == "bayes_cov":
        s_gg = np.tensordot(counts, sums.s_gg.reshape(-1, q, q), axes=1)
        return sums.n_data * (s_gg - m * np.outer(g_bar, g_bar)) / (m - 1)
    l_bar = counts @ sums.s_l / m
    s_lg = np.tensordot(counts, sums.s_lg.reshape(-1, sums.n_data, q), axes=1)
    psi = sums.n_data * (s_lg - m * np.outer(l_bar, g_bar)) / (m - 1)
    if statistic == "psi":
        return psi
    c = psi - psi.mean(axis=0)
    return c.T @ c / (psi.shape[0] - 1)


def replicate_loop_se(sample, statistic, blocks, reps, seed):
    """block_bootstrap_se with one statistic call per replicate."""
    lengths = [len(b) for b in np.array_split(np.arange(sample.m), blocks)]
    sums = _BlockSums(sample, np.cumsum([0] + lengths), with_loglik=statistic == "ij_cov")
    rng = stream(seed, KIND_BLOCK_BOOT)
    values = [one_chain_statistic(sums, np.bincount(rng.integers(0, blocks, size=blocks),
                                                    minlength=blocks), statistic)
              for _ in range(reps)]
    return np.asarray(values).std(axis=0, ddof=1)


def study_chain():
    # the normal study's chain: N = 400, M = 4000, split into 400 blocks
    data = simulate_misspecified_normal(400, "laplace", seed=11)
    return sample_posterior(NormalMeanModel(known_sd=1.0), data,
                            cfg=ChainConfig(m_draws=4000, rng_seed=3))


class TestStackedReplicatesAgainstLoop:
    """Replicates evaluated as one stacked call keep every bit of the
    one-call-per-replicate loop, and the whole chain (R = 1, one block)
    every bit of the single-chain statistic."""

    @pytest.mark.parametrize("statistic", ["bayes_cov", "ij_cov", "mean_g"])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_block_bootstrap_bit_identical(self, chain, statistic):
        sample = CHAINS[chain]()
        for blocks in (20, 7):  # equal and unequal blocks
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = block_bootstrap_se(sample, statistic, blocks=blocks, reps=60, seed=9)
            assert np.array_equal(got.xi,
                                  replicate_loop_se(sample, statistic, blocks, 60, seed=9))

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_stacked_statistics_are_the_single_calls(self, chain):
        # one call shares the block sums, tau_hat and the picks; the Bayes
        # SE from sums built with the log-likelihood keeps its bits
        sample = CHAINS[chain]()
        for blocks in (20, 7, None):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                both = block_bootstrap_se(sample, ("bayes_cov", "ij_cov"), blocks=blocks,
                                          reps=60, seed=9)
                singles = [block_bootstrap_se(sample, name, blocks=blocks, reps=60, seed=9)
                           for name in ("bayes_cov", "ij_cov")]
            q = sample.q
            assert both.xi.shape == (2, q, q) and singles[0].xi.shape == (q, q)
            assert np.array_equal(both.xi, np.stack([one.xi for one in singles]))
            assert (both.blocks, both.reps) == (singles[0].blocks, 60)
            assert both.method == "block_bootstrap[bayes_cov,ij_cov]"

    @pytest.mark.parametrize("blocks", [2, 7, 37, 400])
    def test_one_draw_is_the_per_replicate_stream(self, blocks):
        # block_bootstrap_se draws all picks at once; numpy's bit generator
        # holds the spare 32-bit half of a word across calls, so the stream
        # is the one the per-replicate draws read
        one, loop = stream(5, KIND_BLOCK_BOOT), stream(5, KIND_BLOCK_BOOT)
        assert np.array_equal(one.integers(0, blocks, size=(60, blocks)),
                              [loop.integers(0, blocks, size=blocks) for _ in range(60)])

    @pytest.mark.parametrize("statistic", ["bayes_cov", "ij_cov"])
    def test_study_size_bit_identical(self, statistic):
        sample = study_chain()
        got = block_bootstrap_se(sample, statistic, blocks=400, reps=200, seed=11)
        assert np.array_equal(got.xi, replicate_loop_se(sample, statistic, 400, 200, seed=11))

    @pytest.mark.parametrize("chain", sorted(CHAINS) + ["study"])
    def test_whole_chain_bit_identical(self, chain):
        s = study_chain() if chain == "study" else CHAINS[chain]()
        one = np.ones(1, dtype=np.int64)
        psi = one_chain_statistic(_BlockSums(s, [0, s.m], True), one, "psi")
        assert np.array_equal(influence_scores(s).psi, psi)
        v_ij = one_chain_statistic(_BlockSums(s, [0, s.m], True), one, "ij_cov")
        assert np.array_equal(ij_covariance(influence_scores(s)).v, _sym(v_ij))
        v_bayes = one_chain_statistic(_BlockSums(s, [0, s.m], False), one, "bayes_cov")
        assert np.array_equal(bayes_covariance(s).v, _sym(v_bayes))


def block_sums_loop(sample, bounds, with_loglik):
    """The four block sums built one block at a time, as `_BlockSums` built
    them before it stacked each chunk of blocks: the loop oracle."""
    g_mean = sample.g_values.mean(axis=0)
    ll_mean = sample.loglik.mean(axis=0) if with_loglik else None
    sums = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        g = sample.g_values[a:b] - g_mean
        ll = sample.loglik[a:b] - ll_mean if with_loglik else np.empty((b - a, 0))
        sums.append((g.sum(axis=0), g.T @ g, ll.sum(axis=0), ll.T @ g))
    return [np.array(s).reshape(len(s), -1) for s in zip(*sums)]


def split_bounds(m, blocks):
    return np.cumsum([0] + [len(b) for b in np.array_split(np.arange(m), blocks)])


def random_sample(m, n, q, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(3.0, 1.0, size=(m, q))
    loglik = rng.normal(-2.0, 1.0, size=(m, n)) if n else None
    return PosteriorSample(draws=g, g_values=g, loglik=loglik, n_data=n)


class TestStackedBlockSums:
    """Each chunk of equal-length blocks summed as one stacked call keeps
    every bit of the per-block loop, whatever the chunk size."""

    @pytest.mark.parametrize("budget", ["default", "one cell", "three blocks"])
    def test_sums_equal_the_per_block_loop(self, budget, monkeypatch):
        # np.array_split gives a run of longer blocks, then one of shorter;
        # a budget of one cell makes one-block chunks, each block over the
        # budget, and three blocks' worth leaves uneven last chunks
        default = models._BLOCK_CELLS
        for m, n, q in itertools.product((7, 10, 100, 2000, 3001, 4000), (0, 1, 3, 400),
                                         (1, 2, 3)):
            sample = random_sample(m, n, q, seed=m + n + q)
            for blocks in (b for b in (1, 2, 3, 20, 37, 400) if b <= m):
                cells = {"default": default, "one cell": 1,
                         "three blocks": 3 * -(-m // blocks) * (n + q)}[budget]
                monkeypatch.setattr(models, "_BLOCK_CELLS", cells)
                bounds = split_bounds(m, blocks)
                got = _BlockSums(sample, bounds, with_loglik=n > 0)
                want = block_sums_loop(sample, bounds, n > 0)
                for name, w in zip(("s_g", "s_gg", "s_l", "s_lg"), want):
                    assert np.array_equal(getattr(got, name), w), (m, n, q, blocks, name)

    def test_column_strips_equal_the_per_block_loop(self):
        # under the default budget a whole-chain block of q = 1 is centered
        # in strips, a last strip under 16 columns joining the one before;
        # q >= 2 keeps one copy.  OpenBLAS splits a threaded gemv's rows by
        # the thread count, so at N = 401 or 1001 its bits depend on that
        # count whatever the strips: the check runs at one BLAS thread
        if any(os.environ.get(k) != "1" for k in ONE_BLAS_THREAD):
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 f"{__file__}::TestStackedBlockSums::test_column_strips_equal_the_per_block_loop"],
                env={**os.environ, **ONE_BLAS_THREAD}, capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stdout[-3000:]
            return
        for m, n, q in itertools.product((3001, 4000), (129, 401, 1001), (1, 2, 3)):
            sample = random_sample(m, n, q, seed=m + n + q)
            for blocks in (1, 2, 3):
                bounds = split_bounds(m, blocks)
                got = _BlockSums(sample, bounds, with_loglik=True)
                want = block_sums_loop(sample, bounds, True)
                for name, w in zip(("s_g", "s_gg", "s_l", "s_lg"), want):
                    assert np.array_equal(getattr(got, name), w), (m, n, q, blocks, name)

    def test_influence_scores_peak_is_the_sums_and_one_strip(self):
        # (M, N) = (4000, 400), q = 1: no 12.8 MB centered copy of the
        # log-likelihood, only one 4 MB strip beside the g column, the sums
        # and the 128 KiB buffers of numpy's strided subtract
        sample = random_sample(4000, 400, 1)
        strip = 4000 * estimators._STRIP_COLS * 8
        tracemalloc.start()
        try:
            influence_scores(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < strip + 2**18

    def test_peak_memory_is_the_sums_and_one_chunk(self):
        # the study's shape: M = 4000, N = 400, 400 blocks; the sums of the
        # log-likelihood take 2.4 MiB, each centered chunk at most 0.5 MiB
        sample = random_sample(4000, 400, 1)
        bounds = split_bounds(4000, 400)
        tracemalloc.start()
        try:
            _BlockSums(sample, bounds, with_loglik=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCoreAgainstDirectFormulas:
    """The whole-chain estimates come from the block-sum core as one block
    taken once, and the row covariances from one helper.  The textbook
    formulas, written out here, must give the same bits."""

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_chain_estimates_bit_identical(self, chain):
        s = CHAINS[chain]()
        n, m = s.n_data, s.m
        ll_c, g_c = _centered(s.loglik), _centered(s.g_values)
        psi = n * (ll_c.T @ g_c) / (m - 1)
        assert np.array_equal(influence_scores(s).psi, psi)
        assert np.array_equal(bayes_covariance(s).v, _sym(n * (g_c.T @ g_c) / (m - 1)))
        psi_c = _centered(psi)
        assert np.array_equal(ij_covariance(influence_scores(s)).v,
                              _sym(psi_c.T @ psi_c / (n - 1)))

    @pytest.mark.parametrize("method", ["exact", "gibbs", "mh"])
    def test_bootstrap_bit_identical(self, method):
        if method == "exact":
            model = NormalMeanModel(known_sd=1.0)
            data = simulate_misspecified_normal(40, "laplace", seed=2)
        else:
            model, data = re_problem(method)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            est, means = bootstrap_covariance(model, data, ChainConfig(m_draws=200), 12, seed=1)
        t_c = _centered(math.sqrt(data.n) * means)
        assert np.array_equal(est.v, _sym(t_c.T @ t_c / (12 - 1)))


class TestDeltaMethodSE:
    def test_b_floor(self):
        with pytest.raises(ValueError):
            delta_method_boot_se(np.random.default_rng(0).normal(size=(9, 1)), n_data=5)

    def test_constant_replicates_give_zero(self):
        xi = delta_method_boot_se(np.ones((40, 2)), n_data=9)
        np.testing.assert_array_equal(xi.xi, np.zeros((2, 2)))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=(60, 2))
        xi1 = delta_method_boot_se(means, n_data=16)
        xi2 = delta_method_boot_se(3.0 * means, n_data=16)
        np.testing.assert_allclose(xi2.xi, 9.0 * xi1.xi, rtol=1e-12)

    def test_replicate_permutation_invariance(self):
        rng = np.random.default_rng(5)
        means = rng.normal(size=(50, 3))
        xi1 = delta_method_boot_se(means, n_data=7)
        xi2 = delta_method_boot_se(means[rng.permutation(50)], n_data=7)
        np.testing.assert_allclose(xi1.xi, xi2.xi, atol=1e-12)

    def test_duplicating_replicates_shrinks_by_sqrt2(self):
        """Doubling B with the same empirical distribution divides the SE by
        about sqrt(2) (exactly, up to the ddof=1 correction)."""
        rng = np.random.default_rng(6)
        means = rng.normal(size=(100, 1))
        xi1 = delta_method_boot_se(means, n_data=4)
        xi2 = delta_method_boot_se(np.vstack([means, means]), n_data=4)
        assert xi2.xi[0, 0] == pytest.approx(xi1.xi[0, 0] / math.sqrt(2), rel=0.02)

    def test_variance_entry_matches_direct_resampling_scale(self):
        """The delta-method SE of a variance should approach
        sqrt(mu4 - var^2) / sqrt(B) for centered replicates."""
        rng = np.random.default_rng(7)
        b = 40_000
        t = rng.normal(size=(b, 1))  # already sqrt(N)-scale in this check
        xi = delta_method_boot_se(t, n_data=1)
        # for N(0,1): mu4 - var^2 = 2, so SE ~ sqrt(2/B)
        assert xi.xi[0, 0] == pytest.approx(math.sqrt(2.0 / b), rel=0.05)


class TestZAndDelta:
    def make(self, v, se, method="ij"):
        return CovEstimate(np.array([[v]]), method).with_se(np.array([[se]]))

    def test_forced_unit_z(self):
        a = self.make(2.0, 0.6)
        b = self.make(1.0, 0.8, "boot")
        assert z_matrix(a, b)[0, 0] == pytest.approx(1.0)

    def test_z_antisymmetric(self):
        rng = np.random.default_rng(8)
        va = rng.normal(size=(2, 2)); va = va @ va.T
        vb = rng.normal(size=(2, 2)); vb = vb @ vb.T
        a = CovEstimate(va, "ij").with_se(np.abs(rng.normal(size=(2, 2))) + 0.1)
        b = CovEstimate(vb, "boot").with_se(np.abs(rng.normal(size=(2, 2))) + 0.1)
        np.testing.assert_allclose(z_matrix(a, b), -z_matrix(b, a), atol=1e-13)

    def test_missing_se_rejected(self):
        a = CovEstimate(np.eye(1), "ij")
        b = self.make(1.0, 0.1, "boot")
        with pytest.raises(ValueError):
            z_matrix(a, b)

    def test_forced_delta_values(self):
        # (1.5 - 1.0) / (1.0 + 0.0) = 0.5 and (1.3 - 1.0)/(1.0 + 0.0) = 0.3
        boot = self.make(1.0, 0.0, "boot")
        assert delta_metrics(self.make(1.5, 0.0), boot)[0, 0] == pytest.approx(0.5)
        assert delta_metrics(self.make(1.3, 0.0), boot)[0, 0] == pytest.approx(0.3)

    def test_zero_over_zero_is_silent_zero(self):
        a = self.make(1.0, 0.0)
        b = self.make(1.0, 0.0, "boot")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = z_matrix(a, b)
        assert z[0, 0] == 0.0

    def test_nonzero_over_zero_warns_and_is_inf(self):
        a = self.make(2.0, 0.0)
        b = self.make(1.0, 0.0, "boot")
        with pytest.warns(RuntimeWarning):
            z = z_matrix(a, b)
        assert z[0, 0] == math.inf
        with pytest.warns(RuntimeWarning):
            z = z_matrix(b, a)
        assert z[0, 0] == -math.inf
