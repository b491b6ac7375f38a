"""The end-to-end study pipeline and its report emission.

A module-scoped tiny run (N=12, G=3, short chain, 12 replicates everywhere)
backs most assertions; it finishes in well under a second.  Determinism is
asserted at the byte level on result.json, which deliberately excludes
wall-clock timings and execution plumbing (threads, output_dir) so identical
(config, seed) pairs produce identical files regardless of worker count.
"""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ijcov import (
    ChainConfig,
    NormalMeanModel,
    PoissonGammaREModel,
    SimSpec,
    block_bootstrap_se,
    sample_posterior,
    simulate_misspecified_normal,
    simulate_poisson_re,
)
from ijcov.cli import cli_dispatch
from ijcov.errors import NumericalError
from ijcov.estimators import CovEstimate
from ijcov.experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_report,
    run_experiment,
)
from ijcov.io import read_json

TINY = dict(
    model="poisson_re", n=12, g_count=3, gamma_true=0.5, alpha=3.0, beta=1.5,
    m_draws=400, b_boot=12, r_ground_truth=12, se_reps=60, seed=0,
)


def run_quiet(cfg):
    # short chains trip the block-length warning by design; not under test here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_experiment(cfg)


def one_at_a_time_means(model, chains, cfg):
    """Each replicate chain alone through sample_posterior: the oracle for
    the lockstep replicate slices."""
    return np.array([
        sample_posterior(model, data, w, replace(cfg, rng_seed=seed), want_loglik=False)
        .g_values.mean(axis=0)
        for data, w, seed in chains
    ])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    res = run_quiet(ExperimentConfig(**TINY, threads=1, output_dir=str(out)))
    return res, out


class TestConfig:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="probit", n=10)

    def test_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ExperimentConfig(model="normal_misspec", n=0)
        with pytest.raises(ValueError, match="positive"):
            ExperimentConfig(model="normal_misspec", n=10, b_boot=0)

    def test_groups_need_data(self):
        with pytest.raises(ValueError, match="n >= g_count"):
            ExperimentConfig(model="poisson_re", n=5, g_count=10)

    def test_thread_floor(self):
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(model="normal_misspec", n=10, threads=0)

    def test_replicate_floors(self):
        with pytest.raises(ValueError, match="se_reps"):
            ExperimentConfig(model="normal_misspec", n=10, se_reps=49)
        with pytest.raises(ValueError, match="b_boot"):
            ExperimentConfig(model="normal_misspec", n=10, b_boot=9)
        with pytest.raises(ValueError, match="r_ground_truth"):
            ExperimentConfig(model="normal_misspec", n=10, r_ground_truth=9)

    def test_blocks_within_retained_draws(self):
        # the Gibbs chain keeps 200 of 400 draws; the exact sampler keeps all
        with pytest.raises(ValueError, match="blocks"):
            ExperimentConfig(**{**TINY, "blocks": 1})
        with pytest.raises(ValueError, match="blocks"):
            ExperimentConfig(**{**TINY, "blocks": 101})
        ExperimentConfig(**{**TINY, "blocks": 100})
        ExperimentConfig(model="normal_misspec", n=10, m_draws=400, blocks=200)
        with pytest.raises(ValueError, match="blocks"):
            ExperimentConfig(model="normal_misspec", n=10, m_draws=400, blocks=201)

    @pytest.mark.parametrize("settings, message", [
        (dict(model="normal_misspec", known_sd=math.nan), "known_sd must be finite"),
        (dict(model="normal_misspec", scale=math.inf), "scale must be finite"),
        (dict(model="normal_misspec", true_dist="student_t", df=math.nan), "finite df > 2"),
        (dict(model="poisson_re", gamma_true=-math.inf), "gamma_true must be finite"),
        (dict(model="poisson_re", alpha=math.nan), "alpha and beta must be finite"),
    ], ids=["known_sd", "scale", "df", "gamma_true", "alpha"])
    def test_non_finite_settings(self, settings, message):
        # refused by the checks of the model and the simulator themselves
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(n=10, **settings)

    @pytest.mark.parametrize("settings, message", [
        (dict(model="poisson_re", known_sd=math.nan), "known_sd must be finite, got nan"),
        (dict(model="poisson_re", scale=math.inf), "scale must be finite, got inf"),
        (dict(model="poisson_re", df=-math.inf), "df must be finite, got -inf"),
        (dict(model="normal_misspec", alpha=math.nan), "alpha must be finite, got nan"),
        (dict(model="normal_misspec", gamma_true=math.inf), "gamma_true must be finite, got inf"),
    ], ids=["re_known_sd", "re_scale", "re_df", "normal_alpha", "normal_gamma_true"])
    def test_unused_non_finite_settings(self, settings, message):
        # the model ignores them, but result.json would carry them
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(n=10, **settings)

    def test_n_over_g(self):
        cfg = ExperimentConfig(model="poisson_re", n=40, g_count=8)
        assert cfg.n_over_g == 5.0

    def test_dict_round_trip_drops_plumbing(self):
        cfg = ExperimentConfig(**TINY, threads=4, output_dir="/somewhere")
        d = cfg.to_dict()
        assert "threads" not in d and "output_dir" not in d
        assert d["n_over_g"] == 4.0
        back = ExperimentConfig.from_dict(d)
        assert back == replace(cfg, threads=1, output_dir=None)


class TestPipelineResult:
    def test_shapes_and_presence(self, tiny_run):
        res, _ = tiny_run
        for est in (res.v_sim, res.v_bayes, res.v_ij, res.v_boot):
            assert est.v.shape == (1, 1)
            assert est.se is not None and est.se.shape == (1, 1)
        assert res.v_map is None  # flat-gamma RE Hessian is singular
        assert isinstance(res.kappa_hat, float)
        assert isinstance(res.resid_t1_hat, float)
        for mat in (res.z, res.delta_ij, res.delta_bayes):
            assert mat.shape == (1, 1)

    def test_replicate_counts(self, tiny_run):
        res, _ = tiny_run
        assert res.v_boot.b_or_m == 12
        assert res.v_sim.b_or_m == 12
        assert res.v_bayes.b_or_m == 200  # retained draws after default burn-in

    def test_stage_timings(self, tiny_run):
        res, _ = tiny_run
        assert set(res.timings) == {
            "simulate", "chain", "chain_se", "bootstrap", "ground_truth",
            "metrics", "diagnostics",
        }
        assert all(t >= 0.0 for t in res.timings.values())

    def test_chain_estimates_match_direct_formulas(self, tiny_run):
        """v_bayes and v_ij recomputed from scratch on an identical chain."""
        res, _ = tiny_run
        spec = SimSpec(n=12, g_count=3, gamma_true=0.5, alpha=3.0, beta=1.5,
                       rng_seed=0)
        data, _ = simulate_poisson_re(spec)
        model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=1.5)
        sample = sample_posterior(model, data, cfg=ChainConfig(m_draws=400, rng_seed=0))
        g = sample.g_values
        gc = g - g.mean(axis=0)
        v_bayes = 12.0 * (gc.T @ gc) / (g.shape[0] - 1)
        assert res.v_bayes.v[0, 0] == pytest.approx(v_bayes[0, 0], rel=1e-12)
        llc = sample.loglik - sample.loglik.mean(axis=0)
        psi = 12.0 / (g.shape[0] - 1) * (llc.T @ gc)
        pc = psi - psi.mean(axis=0)
        v_ij = (pc.T @ pc) / (12 - 1)
        assert res.v_ij.v[0, 0] == pytest.approx(v_ij[0, 0], rel=1e-12)

    def test_metrics_match_their_definitions(self, tiny_run):
        res, _ = tiny_run
        num = res.v_ij.v[0, 0] - res.v_boot.v[0, 0]
        z = num / math.hypot(res.v_ij.se[0, 0], res.v_boot.se[0, 0])
        assert res.z[0, 0] == pytest.approx(z, rel=1e-12)
        den = abs(res.v_boot.v[0, 0]) + res.v_boot.se[0, 0]
        assert res.delta_ij[0, 0] == pytest.approx(num / den, rel=1e-12)
        dnum = res.v_bayes.v[0, 0] - res.v_boot.v[0, 0]
        assert res.delta_bayes[0, 0] == pytest.approx(dnum / den, rel=1e-12)

    def test_result_json_contents(self, tiny_run):
        _, out = tiny_run
        doc = json.loads((out / "result.json").read_text())
        assert doc["schema_version"] == 1
        assert "timings" not in doc
        assert doc["config"]["n_over_g"] == 4.0
        assert "threads" not in doc["config"]
        assert doc["v_map"] is None
        assert doc["kappa_hat"] is not None


class TestDeterminism:
    def test_bytes_stable_across_runs_and_threads(self, tiny_run, tmp_path):
        _, out = tiny_run
        base = (out / "result.json").read_bytes()
        run_quiet(ExperimentConfig(**TINY, threads=1, output_dir=str(tmp_path / "a")))
        assert (tmp_path / "a" / "result.json").read_bytes() == base
        run_quiet(ExperimentConfig(**TINY, threads=2, output_dir=str(tmp_path / "b")))
        assert (tmp_path / "b" / "result.json").read_bytes() == base
        for name in ("estimates.csv", "widths.csv", "z_delta.csv", "report.txt"):
            assert (tmp_path / "b" / name).read_bytes() == (out / name).read_bytes()

    def test_bytes_match_one_chain_at_a_time_oracle(self, tiny_run, tmp_path, monkeypatch):
        """Lockstep replicate slices (3 chains each at threads=1, 1-2 at
        threads=2, 1 at threads=3) write the bytes of the run whose
        replicate chains each run alone."""
        _, out = tiny_run
        for threads in (2, 3):
            run_quiet(ExperimentConfig(**TINY, threads=threads,
                                       output_dir=str(tmp_path / f"t{threads}")))
        monkeypatch.setattr("ijcov.estimators.posterior_means", one_at_a_time_means)
        run_quiet(ExperimentConfig(**TINY, threads=1, output_dir=str(tmp_path / "oracle")))
        want = (tmp_path / "oracle" / "result.json").read_bytes()
        for run in (out, tmp_path / "t2", tmp_path / "t3"):
            assert (run / "result.json").read_bytes() == want

    def test_seed_changes_result(self, tmp_path):
        run_quiet(ExperimentConfig(**{**TINY, "seed": 1}, output_dir=str(tmp_path)))
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["config"]["seed"] == 1


class TestReportFiles:
    def test_all_files_emitted(self, tiny_run):
        _, out = tiny_run
        names = {p.name for p in out.iterdir()}
        assert names == {"result.json", "estimates.csv", "widths.csv",
                         "z_delta.csv", "report.txt", "timings.json"}

    def test_estimates_csv_rows(self, tiny_run):
        res, out = tiny_run
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0] == "method,i,j,estimate,lower,upper"
        assert len(lines) == 5  # sim, bayes, ij, boot; q = 1
        by_method = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        row = by_method["ij"]
        est, lo, hi = float(row[3]), float(row[4]), float(row[5])
        assert est == res.v_ij.v[0, 0]
        assert lo == pytest.approx(est - 2 * res.v_ij.se[0, 0], rel=1e-12)
        assert hi == pytest.approx(est + 2 * res.v_ij.se[0, 0], rel=1e-12)

    def test_widths_are_se_scale(self, tiny_run):
        res, out = tiny_run
        lines = (out / "widths.csv").read_text().splitlines()
        assert lines[0] == "method,i,width"
        widths = {l.split(",")[0]: float(l.split(",")[2]) for l in lines[1:]}
        assert widths["sim"] == pytest.approx(
            math.sqrt(res.v_sim.v[0, 0] / 12.0), rel=1e-12
        )

    def test_report_text_headlines(self, tiny_run):
        _, out = tiny_run
        text = (out / "report.txt").read_text()
        assert "study: poisson_re  N=12  G=3  seed=0" in text
        assert "N/G = 4" in text
        assert "kappa_hat = " in text
        assert "Z (ij vs boot):" in text

    def test_report_regenerates_from_saved_result(self, tiny_run, tmp_path):
        """The report step is recomputation-free: re-emitting from the saved
        result.json reproduces every file byte for byte (minus timings)."""
        _, out = tiny_run
        back = ExperimentResult.from_dict(read_json(out / "result.json"))
        emit_report(back, tmp_path)
        for name in ("result.json", "estimates.csv", "widths.csv",
                     "z_delta.csv", "report.txt"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
        assert not (tmp_path / "timings.json").exists()

    def test_golden_report(self, tiny_run):
        """Frozen copy of the tiny study's report; regenerating must agree
        byte for byte."""
        _, out = tiny_run
        golden = Path(__file__).parent / "golden" / "report.txt"
        assert (out / "report.txt").read_bytes() == golden.read_bytes()


def one_by_one(v, se=None, method="x", b=10):
    est = CovEstimate(v=np.array([[float(v)]]), method=method, b_or_m=b)
    return est if se is None else est.with_se(np.array([[float(se)]]))


def fake_result(z_val):
    return ExperimentResult(
        config=ExperimentConfig(**TINY),
        v_sim=one_by_one(2.0, 0.1, "sim"),
        v_bayes=one_by_one(1.0, 0.1, "bayes"),
        v_ij=one_by_one(2.0, 0.1, "ij"),
        v_boot=one_by_one(2.0, 0.1, "boot"),
        v_map=None,
        z=np.array([[z_val]]),
        delta_ij=np.zeros((1, 1)),
        delta_bayes=np.zeros((1, 1)),
        kappa_hat=0.5,
        resid_t1_hat=0.1,
    )


class TestRendering:
    def test_equal_estimates_render_zero_z(self, tmp_path):
        emit_report(fake_result(0.0), tmp_path)
        zrow = (tmp_path / "z_delta.csv").read_text().splitlines()[1]
        assert zrow.split(",")[2] == "0.0"
        text = (tmp_path / "report.txt").read_text()
        assert "inf*" not in text

    def test_infinite_sentinel_footnoted(self, tmp_path):
        emit_report(fake_result(math.inf), tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "inf*" in text
        assert "zero Monte-Carlo-error denominator" in text

    def test_infinite_sentinel_is_text_in_result_json(self, tmp_path):
        # strict JSON has no Infinity; the report reads the text back
        emit_report(fake_result(-math.inf), tmp_path)
        doc = read_json(tmp_path / "result.json")
        assert doc["z"] == [["-inf"]] and doc["delta_ij"] == [[0.0]]
        assert ExperimentResult.from_dict(doc).z.tolist() == [[-math.inf]]


class TestChainSE:
    def test_one_block_bootstrap_call(self, tiny_run, monkeypatch):
        calls = []

        def counted(sample, statistic, **kwargs):
            calls.append(statistic)
            return block_bootstrap_se(sample, statistic, **kwargs)

        monkeypatch.setattr("ijcov.experiment.block_bootstrap_se", counted)
        res = run_quiet(ExperimentConfig(**TINY))
        assert calls == [("bayes_cov", "ij_cov")]
        want, _ = tiny_run
        assert np.array_equal(res.v_bayes.se, want.v_bayes.se)
        assert np.array_equal(res.v_ij.se, want.v_ij.se)


class TestStageFailures:
    def test_usage_failure_names_stage(self, monkeypatch):
        # the config refuses a bad block count, so the usage failure is
        # injected where the block bootstrap would raise it
        def refuse(*args, **kwargs):
            raise ValueError("blocks must lie in [2, M // 2]")

        monkeypatch.setattr("ijcov.experiment.block_bootstrap_se", refuse)
        with pytest.raises(RuntimeError, match="stage 'chain_se'"):
            run_quiet(ExperimentConfig(**TINY))

    def test_keyboard_interrupt_passes_through(self, monkeypatch):
        interrupt = KeyboardInterrupt()

        def stop(*args, **kwargs):
            raise interrupt

        monkeypatch.setattr("ijcov.experiment.block_bootstrap_se", stop)
        with pytest.raises(KeyboardInterrupt) as exc:
            run_quiet(ExperimentConfig(**TINY))
        assert exc.value is interrupt

    def test_numerical_failure_keeps_type_and_stage(self, monkeypatch):
        def boom(n, theta, rng):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(
            "ijcov.experiment.simulate_poisson_re_conditional", boom
        )
        with pytest.raises(NumericalError, match="stage 'ground_truth'") as exc:
            run_quiet(ExperimentConfig(**TINY))
        assert "ground-truth replicate 0 failed: synthetic failure" in str(exc.value)


class TestNormalStudy:
    def test_misspecified_laplace_pattern(self, tmp_path):
        """Laplace data through a fixed-variance normal model: the sandwich
        equals the population variance of the observed data exactly, the IJ
        estimate tracks it, and the Bayes covariance stays near the model's
        assumed variance instead."""
        cfg = ExperimentConfig(
            model="normal_misspec", n=800, true_dist="laplace", scale=1.0,
            known_sd=1.0, m_draws=2000, b_boot=12, r_ground_truth=30,
            se_reps=60, seed=1, output_dir=str(tmp_path),
        )
        res = run_quiet(cfg)
        x = np.asarray(
            simulate_misspecified_normal(800, "laplace", seed=1, scale=1.0).units,
            dtype=np.float64,
        )
        assert res.v_map is not None
        assert res.v_map.v[0, 0] == pytest.approx(x.var(), rel=1e-10)
        assert res.v_ij.v[0, 0] == pytest.approx(res.v_map.v[0, 0], rel=0.2)
        assert res.v_bayes.v[0, 0] == pytest.approx(1.0, rel=0.2)
        assert res.kappa_hat is None
        assert "sandwich" in res.timings
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["v_map"]["v"][0][0] == res.v_map.v[0, 0]


class TestCliPipeline:
    def test_experiment_and_report_subcommands(self, tmp_path, capsys):
        out1 = tmp_path / "run"
        args = ["--seed", "0", "--out", str(out1), "experiment",
                "--model", "poisson_re", "--n", "12", "--g-count", "3",
                "--gamma-true", "0.5", "--alpha", "3.0", "--beta", "1.5",
                "--m", "400", "--b", "12", "--r", "12", "--se-reps", "60"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli_dispatch(args)
        cap = capsys.readouterr()
        assert code == 0
        assert "v_sim" in cap.out and "kappa_hat" in cap.out
        out2 = tmp_path / "re"
        code = cli_dispatch(["--out", str(out2), "report",
                             "--result", str(out1 / "result.json")])
        capsys.readouterr()
        assert code == 0
        assert (out2 / "z_delta.csv").read_bytes() == \
            (out1 / "z_delta.csv").read_bytes()

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda d: {k: v for k, v in d.items() if k != "v_sim"},
             "missing or malformed field: 'v_sim'"),
            (lambda d: {**d, "config": {**d["config"], "bogus": 1}}, "bogus"),
            (lambda d: [d], "expected a JSON object"),
            (lambda d: {**d, "schema_version": 99}, "schema_version 99"),
        ],
        ids=["missing_v_sim", "unknown_config_key", "top_level_array", "schema_version"],
    )
    def test_report_refuses_malformed_result(self, tiny_run, tmp_path, capsys,
                                             mangle, message):
        _, out = tiny_run
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps(mangle(json.loads((out / "result.json").read_text()))))
        code = cli_dispatch(["--out", str(tmp_path / "re"), "report", "--result", str(bad)])
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert cap.err.startswith(f"error: {bad}: ")
        assert message in cap.err
        assert len(cap.err.strip().splitlines()) == 1
        assert not (tmp_path / "re").exists()

    def test_stage_failure_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("synthetic usage failure")

        monkeypatch.setattr("ijcov.experiment.block_bootstrap_se", refuse)
        args = ["--seed", "0", "--out", str(tmp_path / "run"), "experiment",
                "--model", "poisson_re", "--n", "12", "--g-count", "3",
                "--gamma-true", "0.5", "--alpha", "3.0", "--beta", "1.5",
                "--m", "400", "--b", "12", "--r", "12", "--se-reps", "60"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli_dispatch(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: experiment stage 'chain_se' failed: "
                       "synthetic usage failure\n")

    def test_bad_config_exits_1_before_any_compute(self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("the study must not start")

        monkeypatch.setattr("ijcov.cli.run_experiment", never)
        out = tmp_path / "run"
        code = cli_dispatch(["--out", str(out), "experiment",
                             "--model", "normal_misspec", "--n", "50",
                             "--se-reps", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "se_reps" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("r", ["1", "2"])
    def test_too_few_ground_truth_replicates_exit_1_before_any_compute(
            self, tmp_path, capsys, monkeypatch, r):
        # R = 1 divided by zero in the ground-truth SE and R = 2 made its
        # (R-3)/(R-1) factor negative, both after every other stage had run
        def never(cfg):
            raise AssertionError("the study must not start")

        monkeypatch.setattr("ijcov.cli.run_experiment", never)
        out = tmp_path / "run"
        code = cli_dispatch(["--out", str(out), "experiment", "--model", "normal_misspec",
                             "--n", "3", "--m", "10", "--b", "10", "--r", r])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: r_ground_truth must be >= 10\n"
        assert not out.exists()
