"""Covariance estimators: influence scores, IJ, Bayes, bootstrap, sandwich.

The two-draw hand example used throughout:

    loglik = [[1, 2], [3, 5]]   (M=2 draws x N=2 data)
    g      = [[10], [14]]

    centered loglik columns: [[-1, -1.5], [1, 1.5]]
    centered g:              [[-2], [2]]
    psi = N/(M-1) * ll~^T g~ = 2 * [[4], [6]] = [[8], [12]]
    V_IJ = cov(psi rows, ddof=1) = 8
    V_Bayes = N * cov(g, ddof=1) = 2 * 8 = 16
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ijcov import estimators
from ijcov import (
    ChainConfig,
    CovEstimate,
    Dataset,
    InfluenceMatrix,
    NormalMeanModel,
    NumericalError,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    PosteriorSample,
    SimSpec,
    bayes_covariance,
    bootstrap_covariance,
    ij_covariance,
    influence_scores,
    map_optimize,
    normal_influence_oracle,
    sample_posterior,
    sandwich_covariance,
    simulate_poisson_re,
)
from ijcov.rng import KIND_BOOT, seed_sequence, stream


def bootstrap_covariance_exhaustive(data: Dataset, functional) -> CovEstimate:
    """Exhaustive enumeration of every resample (a test oracle for tiny N).

    Enumerates all N^N equally likely index draws, maps each weight vector
    through `functional` (a callable w -> length-q vector, e.g. the weighted
    data mean), and returns the population covariance (divisor N^N) of
    sqrt(N) times the functional values.
    """
    n = data.n
    if n > 6:
        raise ValueError("exhaustive enumeration is limited to N <= 6")
    values = []
    for idx in itertools.product(range(n), repeat=n):
        w = np.bincount(np.asarray(idx), minlength=n).astype(np.float64)
        values.append(np.atleast_1d(np.asarray(functional(w), dtype=np.float64)))
    v = estimators._row_cov(math.sqrt(n) * np.asarray(values), ddof=0)
    return CovEstimate(v=v, method="boot", b_or_m=len(values))


def hand_sample():
    return PosteriorSample(
        draws=np.array([[0.0], [1.0]]),
        g_values=np.array([[10.0], [14.0]]),
        loglik=np.array([[1.0, 2.0], [3.0, 5.0]]),
        n_data=2,
    )


class TestInfluenceScores:
    def test_hand_value(self):
        psi = influence_scores(hand_sample())
        np.testing.assert_allclose(psi.psi, [[8.0], [12.0]], rtol=0, atol=1e-14)

    def test_requires_loglik(self):
        s = PosteriorSample(draws=np.zeros((3, 1)), g_values=np.zeros((3, 1)),
                            loglik=None, n_data=4)
        with pytest.raises(ValueError, match="log-likelihood"):
            influence_scores(s)

    def test_matches_analytic_oracle_on_exact_draws(self):
        """Draw-based scores converge to the conjugate closed form."""
        model = NormalMeanModel(known_sd=1.0)
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=25))
        s = sample_posterior(model, data, cfg=ChainConfig(m_draws=200_000, rng_seed=0))
        psi = influence_scores(s).psi[:, 0]
        want = normal_influence_oracle(model, data)[:, 0]
        # relative MC error of a covariance at M draws is ~sqrt(2/M)
        assert np.corrcoef(psi, want)[0, 1] > 0.999
        np.testing.assert_allclose(psi, want, atol=5 * np.abs(want).max() / math.sqrt(200_000))

    def test_per_datum_loglik_shift_invariance(self):
        """Adding a per-datum constant (dropped normalizers) changes nothing."""
        s = hand_sample()
        shifted = PosteriorSample(
            draws=s.draws, g_values=s.g_values,
            loglik=s.loglik + np.array([100.0, -7.0]), n_data=2,
        )
        np.testing.assert_allclose(
            influence_scores(shifted).psi, influence_scores(s).psi, atol=1e-12
        )


class TestIJCovariance:
    def test_hand_value(self):
        v = ij_covariance(influence_scores(hand_sample()))
        assert v.v[0, 0] == pytest.approx(8.0, rel=1e-15)
        assert v.method == "ij"

    def test_datapoint_permutation_invariance(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=(9, 2))
        v1 = ij_covariance(InfluenceMatrix(psi))
        v2 = ij_covariance(InfluenceMatrix(psi[rng.permutation(9)]))
        np.testing.assert_allclose(v1.v, v2.v, atol=1e-12)

    def test_linear_map_conjugation(self):
        """Scores for Ag transform as A psi, so V(Ag) = A V A^T."""
        rng = np.random.default_rng(2)
        psi = rng.normal(size=(30, 3))
        a = rng.normal(size=(2, 3))
        v = ij_covariance(InfluenceMatrix(psi)).v
        v_mapped = ij_covariance(InfluenceMatrix(psi @ a.T)).v
        np.testing.assert_allclose(v_mapped, a @ v @ a.T, rtol=1e-10)

    def test_result_is_psd(self):
        rng = np.random.default_rng(3)
        v = ij_covariance(InfluenceMatrix(rng.normal(size=(40, 4))))
        assert np.linalg.eigvalsh(v.v).min() >= -1e-12


class TestBayesCovariance:
    def test_hand_value(self):
        v = bayes_covariance(hand_sample())
        assert v.v[0, 0] == pytest.approx(16.0, rel=1e-15)
        assert v.method == "bayes"

    def test_matches_n_times_draw_variance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(500, 2))
        s = PosteriorSample(draws=g.copy(), g_values=g, loglik=None, n_data=77)
        np.testing.assert_allclose(
            bayes_covariance(s).v, 77 * np.cov(g.T, ddof=1), rtol=1e-12
        )


class TestCovEstimate:
    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovEstimate(np.array([[1.0, 0.5], [0.2, 1.0]]), "bayes")

    def test_negative_definite_rejected_for_psd_methods(self):
        with pytest.raises(ValueError):
            CovEstimate(np.array([[-1.0]]), "ij")

    def test_sandwich_method_may_be_indefinite(self):
        # map estimates are quadratic forms, but the check only guards the
        # sampling-based methods
        CovEstimate(np.array([[1.0]]), "map")

    def test_with_se_shape_guard(self):
        v = CovEstimate(np.eye(2), "bayes")
        with pytest.raises(Exception):
            v.with_se(np.ones((3, 3)))


class TestExhaustiveBootstrap:
    def test_two_point_mean_hand_value(self):
        """All 4 equally likely index draws of {0,1}: resample means are
        0, 1/2, 1/2, 1; their variance is 1/8; scaled by N = 2 gives 0.25."""
        x = np.array([0.0, 1.0])
        v = bootstrap_covariance_exhaustive(
            Dataset(x), lambda w: np.array([np.average(x, weights=w)])
        )
        assert abs(v.v[0, 0] - 0.25) <= 1e-12

    def test_three_point_matches_direct_enumeration(self):
        x = np.array([0.0, 3.0, 7.0])
        v = bootstrap_covariance_exhaustive(
            Dataset(x), lambda w: np.array([np.average(x, weights=w)])
        )
        # the exhaustive bootstrap variance of the resample mean is
        # Var(x) (population) / N, scaled by N
        assert v.v[0, 0] == pytest.approx(x.var(), abs=1e-12)

    def test_large_n_refused(self):
        with pytest.raises(ValueError):
            bootstrap_covariance_exhaustive(Dataset(np.arange(9.0)), lambda w: np.zeros(1))

    def test_bit_identical_to_population_formula(self):
        """Divisor N^N, centered at the mean over all resamples."""
        x = np.array([0.5, -1.0, 2.0, 3.5])

        def f(w):
            return np.array([np.average(x, weights=w), np.average(x**2, weights=w)])

        v = bootstrap_covariance_exhaustive(Dataset(x), f)
        t = 2.0 * np.array([f(np.bincount(idx, minlength=4).astype(np.float64))
                            for idx in itertools.product(range(4), repeat=4)])
        t_c = t - t.mean(axis=0, keepdims=True)
        want = t_c.T @ t_c / 4**4
        assert np.array_equal(v.v, 0.5 * (want + want.T))


class TestBootstrapCovariance:
    @pytest.fixture(scope="class")
    def normal_setup(self):
        model = NormalMeanModel(known_sd=1.0)
        rng = np.random.default_rng(10)
        data = Dataset(rng.normal(size=60))
        cfg = ChainConfig(m_draws=400, rng_seed=0)
        return model, data, cfg

    def test_deterministic_across_threads(self, normal_setup):
        model, data, cfg = normal_setup
        v1, means1 = bootstrap_covariance(model, data, cfg, b=16, seed=3, threads=1)
        v2, means2 = bootstrap_covariance(model, data, cfg, b=16, seed=3, threads=4)
        np.testing.assert_array_equal(means1, means2)
        np.testing.assert_array_equal(v1.v, v2.v)

    def test_seed_changes_replicates(self, normal_setup):
        model, data, cfg = normal_setup
        _, m1 = bootstrap_covariance(model, data, cfg, b=8, seed=3)
        _, m2 = bootstrap_covariance(model, data, cfg, b=8, seed=4)
        assert not np.array_equal(m1, m2)

    def test_b_too_small(self, normal_setup):
        model, data, cfg = normal_setup
        with pytest.raises(ValueError):
            bootstrap_covariance(model, data, cfg, b=1, seed=0)

    def test_tracks_sample_variance_scale(self, normal_setup):
        """For the flat-prior normal mean the bootstrap covariance of the
        posterior mean is close to the sample variance."""
        model, data, cfg = normal_setup
        v, _ = bootstrap_covariance(model, data, cfg, b=120, seed=0)
        s2 = data.units.var(ddof=1)
        # bootstrap MC error at B=120 is ~ sqrt(2/B) ~ 13 percent
        assert v.v[0, 0] == pytest.approx(s2, rel=0.5)
        assert v.b_or_m == 120

    def test_failed_replicate_named(self, monkeypatch):
        # all-zero counts make the gamma posterior improper for any weights:
        # the data are refused before any replicate starts, not as a failure
        # of replicate 0
        def no_replicates(*args, **kwargs):
            raise AssertionError("replicates started on invalid data")

        monkeypatch.setattr(estimators, "map_replicates", no_replicates)
        data = Dataset(np.array([[0, 0], [0, 1], [0, 1]], dtype=np.int64))
        model = PoissonGammaREModel(group_count=2, alpha=3.0, beta=1.5)
        with pytest.raises(ValueError, match="^all counts are zero"):
            bootstrap_covariance(model, data, ChainConfig(m_draws=40), b=4, seed=0)

    def test_replicate_with_all_zero_counts_is_numerical(self):
        # replicate chains skip the up-front refusal: counts that a
        # replicate's weights or simulated data zero stay a numerical
        # failure naming the replicate
        data = Dataset(np.array([[0, 0], [0, 1], [0, 1]], dtype=np.int64))
        model = PoissonGammaREModel(group_count=2, alpha=3.0, beta=1.5)
        inputs = functools.partial(estimators._multinomial_weights, data)
        with pytest.raises(NumericalError,
                           match="^bootstrap replicate 0 failed: improper conditional"):
            estimators.replicate_means("bootstrap", inputs, model, ChainConfig(m_draws=40),
                                       0, KIND_BOOT, 4, 1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_chain_mid_slice_names_its_replicate(self, threads):
        # only datum 0 has a count, so a replicate whose weights miss it has
        # an improper gamma conditional: at seed 12, replicates 3 and 7.  At
        # threads=1 the slices are [0, 2), [2, 5), [5, 7), [7, 10), so 3 fails
        # inside a lockstep slice
        data = Dataset(np.array([[5, 0], [0, 0], [0, 1], [0, 1]], dtype=np.int64))
        missed = [r for r in range(10)
                  if estimators._multinomial_weights(data, stream(12, KIND_BOOT, r, 0))[1][0] == 0]
        assert missed == [3, 7]
        model = PoissonGammaREModel(group_count=2, alpha=3.0, beta=1.5)
        with pytest.raises(NumericalError,
                           match="^bootstrap replicate 3 failed: improper conditional"):
            bootstrap_covariance(model, data, ChainConfig(m_draws=40), b=10, seed=12,
                                 threads=threads)

    def test_input_error_inside_replicate_passes_through(self):
        # a ValueError is bad input, not a numerical failure of replicate 0
        data = Dataset(np.array([[2, 0], [3, 5]], dtype=np.int64))
        model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=1.5)
        inputs = functools.partial(estimators._multinomial_weights, data)
        with pytest.raises(ValueError, match="^group labels outside"):
            estimators.replicate_means("bootstrap", inputs, model, ChainConfig(m_draws=40),
                                       0, KIND_BOOT, 4, 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_re_means_match_one_chain_at_a_time(self, threads):
        """Slices of 2-3 (threads=1), 1-2 (threads=2) and 1 (threads=3)
        lockstep chains give each replicate the bits of its chain run alone."""
        data, _ = simulate_poisson_re(SimSpec(n=40, g_count=8, gamma_true=1.0, alpha=3.0,
                                              beta=1.5, rng_seed=2))
        model = PoissonGammaREModel(group_count=8, alpha=3.0, beta=1.5)
        cfg = ChainConfig(m_draws=300)
        want = []
        for r in range(11):
            d, w = estimators._multinomial_weights(data, stream(5, KIND_BOOT, r, 0))
            rep_cfg = dataclasses.replace(cfg, rng_seed=seed_sequence(5, KIND_BOOT, r, 1))
            want.append(sample_posterior(model, d, w, rep_cfg, want_loglik=False)
                        .g_values.mean(axis=0))
        v, means = bootstrap_covariance(model, data, cfg, b=11, seed=5, threads=threads)
        assert np.array_equal(means, np.array(want))
        assert np.array_equal(v.v, estimators._row_cov(math.sqrt(40) * np.array(want)))


class TestMapReplicates:
    @pytest.fixture()
    def requested(self, monkeypatch):
        """Swaps ProcessPoolExecutor for an in-process fake that records the
        worker count it is asked for, so no process is started."""
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(estimators, "ProcessPoolExecutor", RecordingPool)
        return requested

    def test_pool_capped_at_task_count(self, requested):
        assert estimators.map_replicates(lambda t: t * t, [1, 2, 3], 10_000) == [1, 4, 9]
        assert requested == [3]

    def test_single_task_runs_in_process(self, requested):
        assert estimators.map_replicates(lambda t: t * t, [5], 4) == [25]
        assert estimators.map_replicates(lambda t: t * t, [], 4) == []
        assert requested == []


class TestSandwich:
    def test_normal_flat_prior_equals_biased_sample_variance(self):
        model = NormalMeanModel(known_sd=1.0)
        rng = np.random.default_rng(11)
        x = rng.laplace(size=400)
        fit = map_optimize(model, Dataset(x))
        v = sandwich_covariance(fit, model)
        assert v.v[0, 0] == pytest.approx(x.var(), rel=1e-12)
        assert v.method == "sandwich"

    def test_poisson_rate_equals_biased_sample_variance(self):
        # Info = 1/rate_hat, score cov = s^2/rate_hat^2, identity functional:
        # the products collapse to s^2 exactly at rate_hat = ybar
        model = PoissonGammaConjugateModel(prior_shape=1.0, prior_rate=0.0)
        rng = np.random.default_rng(12)
        y = rng.poisson(4.0, size=300).astype(float)
        fit = map_optimize(model, Dataset(y))
        v = sandwich_covariance(fit, model)
        assert v.v[0, 0] == pytest.approx(y.var(), rel=1e-10)

    def test_singular_information_raises(self):
        # the flat-gamma RE likelihood Hessian is singular (gamma and the
        # lambdas share a direction); the fit itself refuses, on the
        # difference Hessian since the model has no hessian hook
        spec = SimSpec(n=20, g_count=4, gamma_true=1.0, alpha=25.0, beta=2.5, rng_seed=0)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=4, alpha=25.0, beta=2.5)
        with pytest.raises(NumericalError, match="singular"):
            sandwich_covariance(map_optimize(model, Dataset(data.units)), model)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_ij_and_bayes_always_psd(seed):
    rng = np.random.default_rng(seed)
    m, n, q = 12, 6, 2
    s = PosteriorSample(
        draws=rng.normal(size=(m, 1)),
        g_values=rng.normal(size=(m, q)),
        loglik=rng.normal(size=(m, n)),
        n_data=n,
    )
    for est in (ij_covariance(influence_scores(s)), bayes_covariance(s)):
        assert np.linalg.eigvalsh(est.v).min() >= -1e-10 * max(1.0, np.trace(est.v))
