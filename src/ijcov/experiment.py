"""The simulation-study pipeline: one observed dataset, four estimators with
their Monte-Carlo SEs, a simulated ground truth, and the comparison metrics.

Stages (each timed, each aborting with its name on failure):

1. simulate the observed dataset;
2. run the posterior chain; V_bayes and V_ij with block-bootstrap SEs;
3. B weighted-bootstrap replicates; V_boot with the delta-method SE;
4. R conditional ground-truth replicates (random effects held fixed, new
   responses and assignments; fresh data from F for the normal study), a
   chain per replicate, V_sim = N x variance of the replicate posterior
   means with a fourth-moment SE;
5. Z, Delta metrics, the sandwich when the model admits one, and the
   grouped-diagnostic kappa_hat for the random-effects study;
6. report emission: deterministic result.json + tables + plot CSVs, with
   wall-clock timings in a separate sidecar so the report itself is
   bit-exact for a given (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import diagnose, poisson_re_view
from .errors import NumericalError, StageError
from .estimators import (
    CovEstimate,
    _row_cov,
    bayes_covariance,
    bootstrap_covariance,
    ij_covariance,
    influence_scores,
    replicate_means,
    sandwich_covariance,
)
from .io import SCHEMA_VERSION, cov_from_dict, cov_to_dict, write_csv, write_json
from .mc_error import MIN_BOOT_REPS, MIN_SE_REPS
from .mc_error import block_bootstrap_se, delta_method_boot_se, delta_metrics, z_matrix
from .reference import (
    NormalMeanModel,
    PoissonGammaREModel,
    _check_normal_sim,
    simulate_misspecified_normal,
    simulate_poisson_re,
    simulate_poisson_re_conditional,
    SimSpec,
)
from .rng import KIND_GROUND_TRUTH
from .samplers import ChainConfig, map_optimize, sample_posterior

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "emit_report"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one study; `model` is "poisson_re" or "normal_misspec".

    The Poisson study uses (g_count, gamma_true, alpha, beta); the normal
    study uses (true_dist, scale, df, known_sd) with a flat prior.  Counts
    are desk-scaled defaults: raise m_draws/b_boot/r_ground_truth toward the
    published protocol when runtime permits.
    """

    model: str
    n: int
    g_count: int = 1
    gamma_true: float = 1.5
    alpha: float = 25.0
    beta: float = 2.5
    true_dist: str = "laplace"
    scale: float = 1.0
    df: float | None = None
    known_sd: float = 1.0
    m_draws: int = 4000
    burn_in: int | None = None
    b_boot: int = 50
    r_ground_truth: int = 100
    blocks: int | None = None
    se_reps: int = 200
    seed: int = 0
    threads: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        if self.model not in ("poisson_re", "normal_misspec"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("n", "g_count", "m_draws", "b_boot", "r_ground_truth", "se_reps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.model == "poisson_re" and self.n < self.g_count:
            raise ValueError("need n >= g_count")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for name, floor in (("se_reps", MIN_SE_REPS), ("b_boot", MIN_BOOT_REPS),
                            ("r_ground_truth", 10)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}")
        # the model and simulator refuse a non-finite prior, known_sd, gamma_true, scale or df
        build_model(self.model, self.g_count, self.alpha, self.beta, self.known_sd)
        if self.model == "poisson_re":
            SimSpec(n=self.n, g_count=self.g_count, gamma_true=self.gamma_true,
                    alpha=self.alpha, beta=self.beta)
        else:
            _check_normal_sim(self.true_dist, self.scale, self.df)
        # settings the model ignores still go to result.json, where NaN is not JSON
        for name in ("gamma_true", "alpha", "beta", "scale", "df", "known_sd"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # ChainConfig refuses a bad burn_in here instead of in the chain
        # stage; the normal study's exact sampler keeps every draw
        chain = ChainConfig(m_draws=self.m_draws, burn_in=self.burn_in)
        retained = self.m_draws if self.model == "normal_misspec" else chain.retained()
        if self.blocks is not None and not 2 <= self.blocks <= retained // 2:
            raise ValueError(
                f"blocks must lie in [2, {retained // 2}] for {retained} retained "
                f"draws, got {self.blocks}"
            )

    @property
    def n_over_g(self) -> float:
        return self.n / self.g_count

    def to_dict(self) -> dict:
        """Study definition only: threads and output_dir are execution
        plumbing and are excluded so the serialized result is identical
        across worker counts and output locations."""
        d = dataclasses.asdict(self)
        d["n_over_g"] = self.n_over_g
        del d["threads"], d["output_dir"]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = {k: v for k, v in d.items() if k != "n_over_g"}
        return ExperimentConfig(**d)


def _sentinels_as_text(a: np.ndarray) -> list:
    """a.tolist() with the +-inf sentinels of Z and Delta as "inf"/"-inf" (JSON
    has no Infinity); np.asarray(..., dtype=np.float64) reads them back."""
    return np.where(np.isfinite(a), a.astype(object), a.astype(str)).tolist()


@dataclass
class ExperimentResult:
    """Everything the report needs; reproducible bit-exactly from
    (config, seed) except the wall-clock `timings` sidecar."""

    config: ExperimentConfig
    v_sim: CovEstimate
    v_bayes: CovEstimate
    v_ij: CovEstimate
    v_boot: CovEstimate
    v_map: CovEstimate | None
    z: np.ndarray
    delta_ij: np.ndarray
    delta_bayes: np.ndarray
    kappa_hat: float | None
    resid_t1_hat: float | None
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict; timings are deliberately excluded (sidecar)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "v_sim": cov_to_dict(self.v_sim),
            "v_bayes": cov_to_dict(self.v_bayes),
            "v_ij": cov_to_dict(self.v_ij),
            "v_boot": cov_to_dict(self.v_boot),
            "v_map": None if self.v_map is None else cov_to_dict(self.v_map),
            "z": _sentinels_as_text(self.z),
            "delta_ij": _sentinels_as_text(self.delta_ij),
            "delta_bayes": _sentinels_as_text(self.delta_bayes),
            "kappa_hat": self.kappa_hat,
            "resid_t1_hat": self.resid_t1_hat,
        }

    @staticmethod
    def from_dict(d) -> "ExperimentResult":
        """Inverse of `to_dict`; anything that is not a result of this
        schema raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"schema_version {d.get('schema_version')!r}, expected {SCHEMA_VERSION}"
            )
        try:
            return ExperimentResult(
                config=ExperimentConfig.from_dict(d["config"]),
                v_sim=cov_from_dict(d["v_sim"]),
                v_bayes=cov_from_dict(d["v_bayes"]),
                v_ij=cov_from_dict(d["v_ij"]),
                v_boot=cov_from_dict(d["v_boot"]),
                v_map=None if d.get("v_map") is None else cov_from_dict(d["v_map"]),
                z=np.asarray(d["z"], dtype=np.float64),
                delta_ij=np.asarray(d["delta_ij"], dtype=np.float64),
                delta_bayes=np.asarray(d["delta_bayes"], dtype=np.float64),
                kappa_hat=d.get("kappa_hat"),
                resid_t1_hat=d.get("resid_t1_hat"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"missing or malformed field: {exc}") from exc


class _Stage:
    """Times a pipeline stage and renames any failure after it; KeyboardInterrupt
    and other BaseExceptions pass through unchanged."""

    def __init__(self, name: str, timings: dict):
        self.name = name
        self.timings = timings

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timings[self.name] = time.perf_counter() - self.t0
        if not isinstance(exc, Exception):
            return False
        msg = f"experiment stage {self.name!r} failed: {exc}"
        if isinstance(exc, NumericalError):
            raise NumericalError(msg) from exc
        raise StageError(msg) from exc


def build_model(model: str, g_count: int, alpha: float, beta: float, known_sd: float):
    """The Poisson random-effects model for "poisson_re", else the normal
    location model with a flat prior (shared by the study and the CLI)."""
    if model == "poisson_re":
        return PoissonGammaREModel(group_count=g_count, alpha=alpha, beta=beta)
    return NormalMeanModel(known_sd=known_sd)


def simulate_observed(model: str, n: int, seed: int, *, g_count: int, gamma_true: float,
                      alpha: float, beta: float, true_dist: str, scale: float,
                      df: float | None):
    """The observed dataset and, for "poisson_re", the true theta (None for
    the normal study's data); shared by the study and the CLI."""
    if model == "poisson_re":
        return simulate_poisson_re(SimSpec(n=n, g_count=g_count, gamma_true=gamma_true,
                                           alpha=alpha, beta=beta, rng_seed=seed))
    return simulate_misspecified_normal(n, true_dist, seed=seed, scale=scale, df=df), None


def _gt_dataset(cfg: ExperimentConfig, theta_true, rng) -> tuple:
    """One conditional ground-truth dataset from `rng`, with unit weights."""
    if cfg.model == "poisson_re":
        return simulate_poisson_re_conditional(cfg.n, theta_true, rng), None
    data = simulate_misspecified_normal(
        cfg.n, cfg.true_dist, scale=cfg.scale, df=cfg.df, rng=rng
    )
    return data, None


def _fourth_moment_se(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Entrywise SE of the sample covariance s of rows of t (R x q).

    Var(s_ij) is estimated by (m22_ij - (R-3)/(R-1) s_ij^2) / R with m22 the
    central (2,2) cross moment; for a diagonal entry this is the classical
    fourth-moment variance of a sample variance.
    """
    r = t.shape[0]
    tc = t - t.mean(axis=0, keepdims=True)
    m22 = np.einsum("ri,rj->ij", tc**2, tc**2) / r
    var = (m22 - (r - 3.0) / (r - 1.0) * s**2) / r
    return np.sqrt(np.clip(var, 0.0, None))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full pipeline; see the module docstring for the stages."""
    timings: dict = {}
    model = build_model(cfg.model, cfg.g_count, cfg.alpha, cfg.beta, cfg.known_sd)

    with _Stage("simulate", timings):
        data, theta_true = simulate_observed(
            cfg.model, cfg.n, cfg.seed, g_count=cfg.g_count, gamma_true=cfg.gamma_true,
            alpha=cfg.alpha, beta=cfg.beta, true_dist=cfg.true_dist, scale=cfg.scale, df=cfg.df)

    with _Stage("chain", timings):
        chain_cfg = ChainConfig(
            m_draws=cfg.m_draws, burn_in=cfg.burn_in, rng_seed=cfg.seed
        )
        sample = sample_posterior(model, data, None, chain_cfg)
        v_bayes = bayes_covariance(sample)
        v_ij = ij_covariance(influence_scores(sample))

    with _Stage("chain_se", timings):
        xi = block_bootstrap_se(sample, ("bayes_cov", "ij_cov"), blocks=cfg.blocks,
                                reps=cfg.se_reps, seed=cfg.seed).xi
        v_bayes = v_bayes.with_se(xi[0])
        v_ij = v_ij.with_se(xi[1])

    # replicate chains take their seeds from the (seed, kind, rep) streams
    rep_cfg = ChainConfig(m_draws=cfg.m_draws, burn_in=cfg.burn_in)
    with _Stage("bootstrap", timings):
        v_boot, rep_means = bootstrap_covariance(
            model, data, rep_cfg, cfg.b_boot, cfg.seed, threads=cfg.threads
        )
        v_boot = v_boot.with_se(delta_method_boot_se(rep_means, cfg.n).xi)

    with _Stage("ground_truth", timings):
        t = math.sqrt(cfg.n) * replicate_means(
            "ground-truth", partial(_gt_dataset, cfg, theta_true), model, rep_cfg, cfg.seed,
            KIND_GROUND_TRUTH, cfg.r_ground_truth, cfg.threads)
        v = _row_cov(t)
        v_sim = CovEstimate(v=v, method="sim", se=_fourth_moment_se(t, v), b_or_m=t.shape[0])

    with _Stage("metrics", timings):
        z = z_matrix(v_ij, v_boot)
        delta_ij = delta_metrics(v_ij, v_boot)
        delta_bayes = delta_metrics(v_bayes, v_boot)

    v_map = None
    kappa_hat = None
    resid_t1 = None
    if cfg.model == "normal_misspec":
        with _Stage("sandwich", timings):
            v_map = sandwich_covariance(map_optimize(model, data), model)
    else:
        with _Stage("diagnostics", timings):
            terms = diagnose(sample, poisson_re_view(model, data))
            kappa_hat = terms.kappa_hat
            resid_t1 = terms.resid_t1_hat

    result = ExperimentResult(
        config=cfg,
        v_sim=v_sim,
        v_bayes=v_bayes,
        v_ij=v_ij,
        v_boot=v_boot,
        v_map=v_map,
        z=z,
        delta_ij=delta_ij,
        delta_bayes=delta_bayes,
        kappa_hat=kappa_hat,
        resid_t1_hat=resid_t1,
        timings=timings,
    )
    if cfg.output_dir is not None:
        emit_report(result, cfg.output_dir)
    return result


def _fmt_cell(x: float) -> str:
    """Table cell; infinities become the footnoted sentinel."""
    if math.isinf(x):
        return "inf*" if x > 0 else "-inf*"
    return f"{x:.6g}"


def _named_estimates(result: ExperimentResult):
    pairs = [
        ("sim", result.v_sim),
        ("bayes", result.v_bayes),
        ("ij", result.v_ij),
        ("boot", result.v_boot),
    ]
    if result.v_map is not None:
        pairs.append(("map", result.v_map))
    return pairs


def emit_report(result: ExperimentResult, out_dir) -> list[Path]:
    """Write result.json, report.txt, and the plot CSVs; returns the paths.

    Everything except timings.json is a pure function of the result, so a
    fixed (config, seed) reproduces the files byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    res_path = out / "result.json"
    write_json(res_path, result.to_dict())
    paths.append(res_path)

    q = result.v_sim.q
    n = result.config.n
    est_rows = []
    width_rows = []
    for name, est in _named_estimates(result):
        for i in range(q):
            width_rows.append([name, i, math.sqrt(max(est.v[i, i], 0.0) / n)])
            for j in range(q):
                se = float(est.se[i, j]) if est.se is not None else 0.0
                est_rows.append(
                    [
                        name,
                        i,
                        j,
                        float(est.v[i, j]),
                        float(est.v[i, j] - 2 * se),
                        float(est.v[i, j] + 2 * se),
                    ]
                )
    est_path = out / "estimates.csv"
    write_csv(est_path, ["method", "i", "j", "estimate", "lower", "upper"], est_rows)
    paths.append(est_path)

    width_path = out / "widths.csv"
    write_csv(width_path, ["method", "i", "width"], width_rows)
    paths.append(width_path)

    zd_rows = [
        [i, j, result.z[i, j], result.delta_ij[i, j], result.delta_bayes[i, j]]
        for i in range(q)
        for j in range(q)
    ]
    zd_path = out / "z_delta.csv"
    write_csv(zd_path, ["i", "j", "z", "delta_ij", "delta_bayes"], zd_rows)
    paths.append(zd_path)

    lines = []
    cfg = result.config
    lines.append(f"study: {cfg.model}  N={cfg.n}  G={cfg.g_count}  seed={cfg.seed}")
    lines.append(f"N/G = {cfg.n_over_g:g}")
    lines.append("")
    lines.append(f"{'method':<8}{'entry':<8}{'estimate':>14}{'se':>14}")
    for name, est in _named_estimates(result):
        for i in range(q):
            for j in range(i, q):
                se_txt = (
                    _fmt_cell(float(est.se[i, j])) if est.se is not None else "-"
                )
                lines.append(
                    f"{name:<8}({i},{j})  {_fmt_cell(float(est.v[i, j])):>14}"
                    f"{se_txt:>14}"
                )
    lines.append("")
    lines.append("Z (ij vs boot):")
    for i in range(q):
        lines.append("  " + "  ".join(_fmt_cell(result.z[i, j]) for j in range(q)))
    lines.append("Delta^IJ:")
    for i in range(q):
        lines.append(
            "  " + "  ".join(_fmt_cell(result.delta_ij[i, j]) for j in range(q))
        )
    lines.append("Delta^Bayes:")
    for i in range(q):
        lines.append(
            "  " + "  ".join(_fmt_cell(result.delta_bayes[i, j]) for j in range(q))
        )
    lines.append("")
    if result.kappa_hat is not None:
        xi_scale = (
            float(result.v_ij.se[0, 0]) if result.v_ij.se is not None else 0.0
        )
        verdict = (
            "expect visible IJ bias"
            if result.kappa_hat > 2 * xi_scale
            else "IJ bias within Monte-Carlo noise"
        )
        lines.append(
            f"kappa_hat = {result.kappa_hat:.6g} (vs Xi^IJ scale "
            f"{xi_scale:.6g}): {verdict}"
        )
        lines.append(f"resid_t1_hat = {result.resid_t1_hat:.6g}")
    note = any(
        math.isinf(v)
        for v in np.concatenate(
            [result.z.ravel(), result.delta_ij.ravel(), result.delta_bayes.ravel()]
        )
    )
    if note:
        lines.append("")
        lines.append(
            "* infinite entries mark a zero Monte-Carlo-error denominator "
            "(degenerate comparison, not a numerical failure)"
        )
    lines.append("")
    report_path = out / "report.txt"
    report_path.write_text("\n".join(lines))
    paths.append(report_path)

    if result.timings:
        write_json(out / "timings.json", result.timings)
    return paths
