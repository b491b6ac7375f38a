"""End-to-end validation gate: one test per headline guarantee.

Each test runs a full scenario at fixed tolerances and prints a single
`[PASS]/[FAIL] criterion N` line (visible with -s) before asserting, so a
plain pytest run doubles as a checklist.  Budgets are wall-clock seconds;
the regime-replication study (criterion 4) dominates the total.

Every configuration here was frozen only after an independent prototype
reproduced its numbers within the stated tolerances.
"""

import json
import math
import time
import warnings

import numpy as np

from ijcov import (
    ChainConfig,
    Dataset,
    ExperimentConfig,
    InfluenceMatrix,
    NormalMeanModel,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    PosteriorSample,
    SimSpec,
    bclt_expansion_check,
    block_bootstrap_se,
    delta_method_boot_se,
    diagnose,
    ij_covariance,
    influence_scores,
    map_optimize,
    normal_influence_oracle,
    poisson_re_truth_moments,
    poisson_re_view,
    run_experiment,
    sample_posterior,
    sandwich_covariance,
    simulate_misspecified_normal,
    simulate_poisson_re,
    z_matrix,
)
from ijcov.estimators import CovEstimate
from ijcov.io import assemble_sample, write_draws_csv, write_loglik_csv
from ijcov.special import special_trigamma
from test_estimators import bootstrap_covariance_exhaustive
from test_special import special_digamma


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


def test_criterion_1_consistency_and_rate():
    """IJ vs sandwich on a misspecified normal-mean model, plus the O(1/N)
    decay of their gap."""
    t0 = time.time()
    model = NormalMeanModel(known_sd=1.0)

    data = simulate_misspecified_normal(2000, "laplace", seed=0, scale=1.0)
    sample = sample_posterior(
        model, data, cfg=ChainConfig(m_draws=20000, burn_in=0, rng_seed=0)
    )
    v_ij = ij_covariance(influence_scores(sample)).v[0, 0]
    v_map = sandwich_covariance(map_optimize(model, data), model).v[0, 0]
    rel = abs(v_ij - v_map) / v_map

    # Rate clause: the draw-based estimate carries an N-independent
    # Monte-Carlo floor, so the gap's N-decay is measured on the
    # closed-form limit of the influence scores (criterion 2 pins the
    # draw-based estimator to that limit).
    ns = [250, 500, 1000, 2000, 4000]
    gaps = np.zeros((20, len(ns)))
    for si in range(20):
        for ni, n in enumerate(ns):
            d = simulate_misspecified_normal(n, "laplace", seed=1000 + si, scale=1.0)
            vij_n = ij_covariance(InfluenceMatrix(normal_influence_oracle(model, d))).v[0, 0]
            vmap_n = sandwich_covariance(map_optimize(model, d), model).v[0, 0]
            gaps[si, ni] = abs(vij_n - vmap_n)
    slope = float(np.polyfit(np.log(ns), np.log(gaps.mean(axis=0)), 1)[0])

    elapsed = time.time() - t0
    ok = (
        rel < 0.10
        and abs(v_ij - 2.0) / 2.0 < 0.15
        and abs(v_map - 2.0) / 2.0 < 0.15
        and -1.3 < slope < -0.7
        and elapsed < 30.0
    )
    report(1, ok, f"|ij-map|/map={rel:.4f} ij={v_ij:.4f} map={v_map:.4f} "
                  f"slope={slope:.3f} ({elapsed:.1f}s)")


def test_criterion_2_influence_score_oracle():
    """Draw-based influence scores against the conjugate closed form."""
    t0 = time.time()
    model = NormalMeanModel(known_sd=2.0, prior_mean=1.0, prior_sd=3.0)
    x = np.random.default_rng(1).normal(1.0, 2.0, size=300)
    data = Dataset(x)
    m_draws = 50000
    sample = sample_posterior(
        model, data, cfg=ChainConfig(m_draws=m_draws, burn_in=0, rng_seed=0)
    )
    psi_hat = influence_scores(sample).psi[:, 0]
    psi_oracle = normal_influence_oracle(model, data)[:, 0]

    corr = float(np.corrcoef(psi_hat, psi_oracle)[0, 1])
    # per-entry MC standard error of psi_hat: N * sd(ll~_n * g~) / sqrt(M)
    ll_c = sample.loglik - sample.loglik.mean(axis=0, keepdims=True)
    g_c = sample.g_values[:, 0] - sample.g_values[:, 0].mean()
    se = data.n * np.std(ll_c * g_c[:, None], axis=0, ddof=1) / math.sqrt(m_draws)
    max_err_se = float(np.max(np.abs(psi_hat - psi_oracle) / se))

    elapsed = time.time() - t0
    ok = corr > 0.999 and max_err_se < 5.0 and elapsed < 5.0
    report(2, ok, f"corr={corr:.6f} max|err|/se={max_err_se:.2f} ({elapsed:.1f}s)")


def test_criterion_3_exhaustive_bootstrap():
    """All 4 resamples of {0, 1}: the scaled mean variance is exactly 1/4."""
    t0 = time.time()
    x = np.array([0.0, 1.0])
    v = float(bootstrap_covariance_exhaustive(
        Dataset(x), lambda w: np.array([np.average(x, weights=w)])
    ).v[0, 0])
    elapsed = time.time() - t0
    ok = abs(v - 0.25) <= 1e-12
    report(3, ok, f"v={v!r} |v-1/4|={abs(v - 0.25):.2e} ({elapsed:.2f}s)")


def test_criterion_4_regime_replication():
    """Grouped Poisson study: the IJ estimate underestimates the simulated
    ground truth when every group is data-starved (N/G = 1) and agrees with
    it when groups are well informed (N/G = 10)."""
    t0 = time.time()
    results = {}
    for g_count in (400, 40):
        rows = []
        for seed in range(10):
            cfg = ExperimentConfig(
                model="poisson_re", n=400, g_count=g_count, seed=seed, threads=4
            )
            res = quiet(run_experiment, cfg)
            se = math.hypot(float(res.v_ij.se[0, 0]), float(res.v_sim.se[0, 0]))
            rows.append((float(res.v_ij.v[0, 0]), float(res.v_sim.v[0, 0]), se))
        results[g_count] = rows
    under = sum(v_sim - v_ij > 2.0 * se for v_ij, v_sim, se in results[400])
    close = sum(abs(v_ij - v_sim) <= 3.0 * se for v_ij, v_sim, se in results[40])
    elapsed = time.time() - t0
    ok = under >= 8 and close >= 7 and elapsed <= 900.0
    report(4, ok, f"underestimates at N/G=1: {under}/10 (need >=8), "
                  f"within 3 SE at N/G=10: {close}/10 (need >=7) ({elapsed:.0f}s)")


def test_criterion_5_kappa_diagnostic():
    """rho_bar tracks kappa_hat at G = N, and the predicted-bias scalar
    collapses when the same N is concentrated into ten-fold fewer groups."""
    t0 = time.time()
    alpha, beta, gamma = 25.0, 2.5, 1.5

    spec = SimSpec(n=400, g_count=400, gamma_true=gamma, alpha=alpha, beta=beta,
                   rng_seed=0)
    data, _ = simulate_poisson_re(spec)
    model = PoissonGammaREModel(group_count=400, alpha=alpha, beta=beta)
    sample = quiet(sample_posterior, model, data,
                   cfg=ChainConfig(m_draws=4000, rng_seed=0))
    terms = quiet(diagnose, sample, poisson_re_view(model, data))
    gap = abs(terms.rho_nn.mean() - terms.kappa_hat)
    tol = 5.0 / math.sqrt(400) * abs(terms.kappa_hat)

    # magnitude contrast across regimes, truth-centered moments
    wins = 0
    for seed in range(10):
        kappas = {}
        for g_count in (400, 40):
            s = SimSpec(n=400, g_count=g_count, gamma_true=gamma, alpha=alpha,
                        beta=beta, rng_seed=seed)
            d, theta_true = simulate_poisson_re(s)
            mdl = PoissonGammaREModel(group_count=g_count, alpha=alpha, beta=beta)
            chain = quiet(sample_posterior, mdl, d,
                          cfg=ChainConfig(m_draws=4000, rng_seed=seed))
            kappas[g_count] = quiet(
                diagnose, chain, poisson_re_view(mdl, d),
                moments=poisson_re_truth_moments(theta_true),
            ).kappa_hat
        wins += abs(kappas[40]) < abs(kappas[400])

    elapsed = time.time() - t0
    ok = gap <= tol and wins == 10 and elapsed < 120.0
    report(5, ok, f"|rho_bar-kappa|={gap:.2e} tol={tol:.2e}, "
                  f"magnitude drop at N/G=10: {wins}/10 seeds ({elapsed:.1f}s)")


def test_criterion_6_posterior_expansion_rate():
    """First-order expansion residual for E[theta^3] decays like N^-2 on
    nested Poisson-Gamma datasets."""
    t0 = time.time()
    y_all = np.random.default_rng(0).poisson(3.0, size=3200)
    sizes = (50, 100, 200, 400, 800, 1600, 3200)
    problems = [
        (PoissonGammaConjugateModel(prior_shape=2.0, prior_rate=1.0),
         Dataset(y_all[:n]))
        for n in sizes
    ]
    chk = bclt_expansion_check(
        problems, lambda t: t**3, lambda t: 3.0 * t**2, lambda t: 6.0 * t
    )
    elapsed = time.time() - t0
    ok = -2.3 < chk.slope < -1.7 and elapsed < 60.0
    report(6, ok, f"slope={chk.slope:.4f} ({elapsed:.1f}s)")


def test_criterion_7_mc_error_calibration():
    """Block-bootstrap SE on an IID chain, and the delta-method SE for a
    bootstrap variance, both against closed-form targets."""
    t0 = time.time()
    ratios = []
    for seed in range(50):
        x = np.random.default_rng(seed).normal(0.7, 1.3, size=2000)
        s = PosteriorSample(draws=x[:, None], g_values=x[:, None], loglik=None,
                            n_data=100)
        xi = quiet(block_bootstrap_se, s, "mean_g", reps=200, seed=seed)
        ratios.append(float(np.ravel(xi.xi)[0]) / (1.3 / math.sqrt(2000)))
    med = float(np.median(ratios))

    b = 5000
    t_means = np.random.default_rng(123).normal(0.0, 1.0, size=(b, 1))
    xi_boot = delta_method_boot_se(t_means, 1).xi[0, 0]
    oracle = math.sqrt(2.0 / b)
    rel = abs(xi_boot - oracle) / oracle

    elapsed = time.time() - t0
    ok = 0.8 <= med <= 1.2 and rel < 0.25 and elapsed < 120.0
    report(7, ok, f"block-SE median ratio={med:.3f}, "
                  f"delta-method rel err={rel:.3f} ({elapsed:.1f}s)")


def test_criterion_8_invariants(tmp_path):
    """Structural invariants on one shared random instance each."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    m, n, q = 60, 12, 3
    loglik = rng.normal(size=(m, n))
    g = rng.normal(size=(m, q))
    sample = PosteriorSample(draws=g.copy(), g_values=g, loglik=loglik, n_data=n)
    v = ij_covariance(influence_scores(sample)).v
    checks = {}

    checks["psd"] = np.linalg.eigvalsh(v).min() >= -1e-10 * np.trace(v)

    perm = rng.permutation(n)
    sample_p = PosteriorSample(draws=g.copy(), g_values=g, loglik=loglik[:, perm],
                               n_data=n)
    v_p = ij_covariance(influence_scores(sample_p)).v
    checks["permutation"] = np.allclose(v_p, v, rtol=1e-12, atol=1e-14)

    shifted = PosteriorSample(
        draws=g.copy(), g_values=g,
        loglik=loglik + rng.normal(size=n)[None, :], n_data=n,
    )
    psi0 = influence_scores(sample).psi
    psi1 = influence_scores(shifted).psi
    checks["loglik shift"] = np.allclose(psi1, psi0, rtol=1e-12, atol=1e-12)

    a = rng.normal(size=(q, q))
    sample_a = PosteriorSample(draws=g.copy(), g_values=g @ a.T, loglik=loglik,
                               n_data=n)
    v_a = ij_covariance(influence_scores(sample_a)).v
    checks["equivariance"] = np.allclose(v_a, a @ v @ a.T, rtol=1e-12, atol=1e-12)

    e1 = CovEstimate(v=np.array([[2.0, 0.1], [0.1, 1.0]]), method="ij",
                     se=np.full((2, 2), 0.3))
    e2 = CovEstimate(v=np.array([[1.5, -0.2], [-0.2, 1.2]]), method="boot",
                     se=np.full((2, 2), 0.4))
    checks["z antisymmetry"] = np.array_equal(z_matrix(e1, e2), -z_matrix(e2, e1))

    cfg = dict(model="poisson_re", n=12, g_count=3, gamma_true=0.5, alpha=3.0,
               beta=1.5, m_draws=400, b_boot=12, r_ground_truth=12, se_reps=60,
               seed=0)
    r1 = quiet(run_experiment, ExperimentConfig(threads=1, **cfg))
    r2 = quiet(run_experiment, ExperimentConfig(threads=2, **cfg))
    checks["thread determinism"] = json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    write_draws_csv(tmp_path / "d.csv", sample)
    write_loglik_csv(tmp_path / "l.csv", sample)
    back = assemble_sample(tmp_path / "d.csv", tmp_path / "l.csv")
    checks["csv round trip"] = (
        np.allclose(back.draws, sample.draws, rtol=1e-12, atol=1e-15)
        and np.allclose(back.g_values, sample.g_values, rtol=1e-12, atol=1e-15)
        and np.allclose(back.loglik, sample.loglik, rtol=1e-12, atol=1e-15)
    )

    xs = np.array([0.5, 1.0, 2.5, 10.0])
    checks["special identities"] = bool(
        np.all(np.abs(special_digamma(xs + 1) - special_digamma(xs) - 1.0 / xs) < 1e-12)
        and abs(special_trigamma(np.array([1.0]))[0] - math.pi**2 / 6.0) < 1e-12
    )

    elapsed = time.time() - t0
    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed and elapsed < 60.0
    report(8, ok, f"{len(checks)} invariants"
                  + (f", failed: {failed}" if failed else " all hold")
                  + f" ({elapsed:.1f}s)")
