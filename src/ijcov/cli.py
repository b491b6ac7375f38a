"""Command-line interface.

Subcommands: simulate, sample, ij, bootstrap, sandwich, mcse, diagnose,
bclt-check, experiment, report.  Global flags (before the subcommand):
--seed, --config (JSON defaults file), --out (output directory), --threads
(or the IJCOV_THREADS env var), --format {csv,json}.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure (for
example a failed bootstrap replicate or a divergent quadrature).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .diagnostics import (
    bclt_expansion_check,
    diagnose as run_diagnose,
    poisson_re_view,
)
from .errors import DimensionMismatchError, IngestError, NumericalError, StageError
from .estimators import (
    bootstrap_covariance,
    ij_covariance,
    influence_scores,
    sandwich_covariance,
)
from .experiment import (ExperimentConfig, ExperimentResult, build_model, emit_report,
                         run_experiment, simulate_observed)
from .io import (
    assemble_sample,
    cov_to_dict,
    read_dataset_csv,
    read_json,
    write_csv,
    write_dataset_csv,
    write_draws_csv,
    write_json,
    write_loglik_csv,
)
from .mc_error import MIN_BOOT_REPS, MIN_SE_REPS, block_bootstrap_se, delta_method_boot_se
from .models import Dataset
from .reference import NormalMeanModel, PoissonGammaConjugateModel, PoissonGammaREModel
from .rng import KIND_SIMULATE, stream
from .samplers import ChainConfig, ess, map_optimize, sample_posterior

_MODEL_CHOICES = ("poisson_re", "normal")


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="Root RNG seed.")
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file of per-subcommand option defaults.",
)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for output files.")
@click.option("--threads", type=click.IntRange(min=1), default=1, envvar="IJCOV_THREADS",
              show_default=True, help="Worker count (results are identical for any value).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="File format for matrix outputs.")
@click.pass_context
def cli(ctx, seed, config_path, out_dir, threads, fmt):
    """Frequentist covariance of Bayesian posterior means from MCMC output."""
    if config_path is not None:
        try:
            with open(config_path) as fh:
                defaults = json.load(fh)
        except ValueError as exc:
            raise IngestError(f"{config_path}: {exc}") from exc
        sections = defaults.values() if isinstance(defaults, dict) else [defaults]
        if not all(isinstance(v, dict) for v in sections):
            raise IngestError(
                f"{config_path}: --config must be a JSON object of per-subcommand objects"
            )
        ctx.default_map = defaults
    ctx.obj = {"seed": seed, "out": out_dir, "threads": threads, "format": fmt}


def _out_path(ctx, name: str) -> Path | None:
    out = ctx.obj["out"]
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _print_matrix(mat: np.ndarray) -> None:
    mat = np.atleast_2d(mat)
    for row in mat:
        click.echo(" ".join(repr(float(v)) for v in row))


def _save(ctx, stem: str, payload, header, rows) -> None:
    """With --out set, write `payload` to <stem>.json or (header, rows) to
    <stem>.csv, per --format, and name the file."""
    path = _out_path(ctx, f"{stem}.{ctx.obj['format']}")
    if path is None:
        return
    if ctx.obj["format"] == "json":
        write_json(path, payload)
    else:
        write_csv(path, header, rows)
    click.echo(f"wrote {path}")


def _emit_estimate(ctx, stem: str, est) -> None:
    """Print the point estimate and save the full payload when --out is set."""
    _print_matrix(est.v)
    if est.se is not None:
        click.echo("se:")
        _print_matrix(est.se)
    q = est.v.shape[0]
    rows = [
        [i, j, est.v[i, j], est.se[i, j] if est.se is not None else 0.0]
        for i in range(q)
        for j in range(q)
    ]
    _save(ctx, stem, cov_to_dict(est), ["i", "j", "estimate", "se"], rows)


def _load_data(path: str, model: str) -> Dataset:
    data, kind = read_dataset_csv(path)
    want = "poisson_re" if model == "poisson_re" else "normal"
    if kind != want:
        raise IngestError(f"{path} holds a {kind} dataset, expected {want}")
    return data


def _options(*opts):
    """One decorator applying `opts`, listed in --help in the order given."""
    def apply(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return apply


_prior_options = _options(
    click.option("--alpha", type=float, default=25.0, show_default=True),
    click.option("--beta", type=float, default=2.5, show_default=True),
)
_known_sd_option = click.option("--known-sd", type=float, default=1.0, show_default=True)
_sim_model_options = _options(
    click.option("--model", type=click.Choice(_MODEL_CHOICES), required=True),
    click.option("--g-count", type=int, default=10, show_default=True),
    _prior_options,
)
_model_options = _options(_sim_model_options, _known_sd_option)
_chain_options = _options(
    click.option("--m", "m_draws", type=int, default=4000, show_default=True,
                 help="Total sampler iterations (half burned in by default)."),
    click.option("--burn", "burn_in", type=int, default=None),
    click.option("--thin", type=int, default=1, show_default=True),
)
_sim_options = _options(
    click.option("--n", type=int, required=True),
    click.option("--gamma-true", type=float, default=1.5, show_default=True),
    click.option("--dist", "true_dist", type=click.Choice(["laplace", "student_t", "gaussian"]),
                 default="laplace", show_default=True),
    click.option("--scale", type=float, default=1.0, show_default=True),
    click.option("--df", type=float, default=None),
)
_draw_file_options = _options(
    click.option("--draws", "draws_path", type=click.Path(exists=True, dir_okay=False),
                 required=True),
    click.option("--loglik", "loglik_path", type=click.Path(exists=True, dir_okay=False),
                 required=True),
    click.option("--g-cols", default=None,
                 help="1-based parameter column indices to treat as g (comma-separated)."),
    click.option("--g-expr", default=None,
                 help="numpy expression over parameter columns, e.g. 'p_1 + 2*p_2'."),
)


@cli.command()
@_sim_model_options
@_sim_options
@click.pass_context
def simulate(ctx, model, n, **settings):
    """Simulate a dataset; writes dataset.csv (and truth.json for poisson_re)."""
    data, theta_true = simulate_observed(model, n, ctx.obj["seed"], **settings)
    path = _out_path(ctx, "dataset.csv") or Path("dataset.csv")
    write_dataset_csv(path, data, "poisson_re" if model == "poisson_re" else "normal")
    click.echo(f"wrote {path}")
    if theta_true is not None:
        tpath = path.with_name("truth.json")
        write_json(tpath, {"theta_true": theta_true.tolist()})
        click.echo(f"wrote {tpath}")


@cli.command()
@_model_options
@_chain_options
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.pass_context
def sample(ctx, model, g_count, alpha, beta, known_sd, m_draws, burn_in, thin, data_path):
    """Run a posterior chain; writes draws.csv and loglik.csv."""
    mdl = build_model(model, g_count, alpha, beta, known_sd)
    data = _load_data(data_path, model)
    cfg = ChainConfig(m_draws=m_draws, burn_in=burn_in, thin=thin,
                      rng_seed=ctx.obj["seed"])
    s = sample_posterior(mdl, data, None, cfg)
    dpath = _out_path(ctx, "draws.csv") or Path("draws.csv")
    write_draws_csv(dpath, s)
    lpath = dpath.with_name("loglik.csv")
    write_loglik_csv(lpath, s)
    click.echo(f"wrote {dpath}")
    click.echo(f"wrote {lpath}")
    if s.m >= 10:
        click.echo(f"min ESS across parameters: {min(map(ess, s.draws.T)):.1f}")


@cli.command()
@_draw_file_options
@click.pass_context
def ij(ctx, **files):
    """Influence-score covariance estimate from exported draw files."""
    s = assemble_sample(**files)
    est = ij_covariance(influence_scores(s))
    _emit_estimate(ctx, "v_ij", est)


@cli.command()
@_model_options
@_chain_options
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--b", "b_reps", type=int, default=50, show_default=True,
              help="Bootstrap replicates.")
@click.pass_context
def bootstrap(ctx, model, g_count, alpha, beta, known_sd, m_draws, burn_in, thin,
              data_path, b_reps):
    """Weighted-bootstrap covariance with its delta-method SE."""
    if b_reps < MIN_BOOT_REPS:
        raise ValueError(f"--b must be >= {MIN_BOOT_REPS} replicates for the delta-method SE")
    mdl = build_model(model, g_count, alpha, beta, known_sd)
    data = _load_data(data_path, model)
    cfg = ChainConfig(m_draws=m_draws, burn_in=burn_in, thin=thin, rng_seed=0)
    est, rep_means = bootstrap_covariance(
        mdl, data, cfg, b_reps, ctx.obj["seed"], threads=ctx.obj["threads"]
    )
    est = est.with_se(delta_method_boot_se(rep_means, data.n).xi)
    _emit_estimate(ctx, "v_boot", est)


@cli.command()
@_model_options
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.pass_context
def sandwich(ctx, model, g_count, alpha, beta, known_sd, data_path):
    """MAP sandwich covariance (refuses poisson_re, whose fit is singular)."""
    if model == "poisson_re":
        raise ValueError(
            "sandwich is undefined for poisson_re: gamma and each lambda_g enter the "
            "likelihood only through their sum, so the information is singular"
        )
    mdl = build_model(model, g_count, alpha, beta, known_sd)
    data = _load_data(data_path, model)
    est = sandwich_covariance(map_optimize(mdl, data), mdl)
    _emit_estimate(ctx, "v_map", est)


@cli.command()
@_draw_file_options
@click.option("--statistic", type=click.Choice(["bayes_cov", "ij_cov"]),
              default="ij_cov", show_default=True)
@click.option("--blocks", type=int, default=None,
              help="Contiguous blocks (default max(20, M/(10 tau_hat))).")
@click.option("--reps", type=int, default=200, show_default=True)
@click.pass_context
def mcse(ctx, statistic, blocks, reps, **files):
    """Block-bootstrap Monte-Carlo SE of a chain statistic."""
    if reps < MIN_SE_REPS:
        raise ValueError(f"--reps must be >= {MIN_SE_REPS} replicates for the block-bootstrap SE")
    s = assemble_sample(**files)
    se = block_bootstrap_se(s, statistic, blocks=blocks, reps=reps,
                            seed=ctx.obj["seed"])
    _print_matrix(se.xi)
    q = se.xi.shape[0]
    _save(ctx, f"xi_{statistic}",
          {"xi": se.xi.tolist(), "method": se.method, "blocks": se.blocks, "reps": se.reps},
          ["i", "j", "xi"], [[i, j, se.xi[i, j]] for i in range(q) for j in range(q)])


@cli.command()
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--draws", "draws_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--g-count", type=int, required=True)
@_prior_options
@click.option("--ij-se", type=float, default=None,
              help="Xi^IJ scale for the predicted-bias flag (from mcse).")
@click.pass_context
def diagnose(ctx, data_path, draws_path, g_count, alpha, beta, ij_se):
    """Grouped diagnostics (kappa, rho, residual) for the Poisson RE model."""
    if ij_se is not None and not (math.isfinite(ij_se) and ij_se >= 0):
        raise ValueError(f"--ij-se must be finite and >= 0, got {ij_se!r}")
    mdl = PoissonGammaREModel(group_count=g_count, alpha=alpha, beta=beta)
    data = _load_data(data_path, "poisson_re")
    # g is the model's: gamma, parameter column 1, unless the file has g_* columns
    s = assemble_sample(draws_path, g_cols="1")
    view = poisson_re_view(mdl, data)
    if s.draws.shape[1] != mdl.dim:
        raise IngestError(
            f"draws have {s.draws.shape[1]} parameter columns, model has {mdl.dim}"
        )
    terms = run_diagnose(s, view)
    flag = None if ij_se is None else bool(terms.kappa_hat > 2 * ij_se)
    click.echo(f"kappa_hat = {terms.kappa_hat!r}")
    click.echo(f"resid_t1_hat = {terms.resid_t1_hat!r}")
    if flag is not None:
        click.echo(
            "predicted IJ bias: " + ("LIKELY" if flag else "within MC noise")
        )
    payload = {
        "kappa_hat": terms.kappa_hat,
        "resid_t1_hat": terms.resid_t1_hat,
        "per_group_trace": terms.per_group_trace.tolist(),
        "rho_nn_mean": terms.rho_bar,
        "predicted_bias": flag,
    }
    _save(ctx, "diagnostics", payload, ["group", "trace"],
          [[g, v] for g, v in enumerate(terms.per_group_trace)])


_PHI_SETS = {
    "identity": (lambda t: t, lambda t: 1.0, lambda t: 0.0),
    "square": (lambda t: t**2, lambda t: 2.0 * t, lambda t: 2.0),
    "cube": (lambda t: t**3, lambda t: 3.0 * t**2, lambda t: 6.0 * t),
}


@cli.command(name="bclt-check")
@click.option("--model", type=click.Choice(["normal", "poisson_gamma"]),
              default="poisson_gamma", show_default=True)
@click.option("--phi", type=click.Choice(sorted(_PHI_SETS)), default="cube",
              show_default=True)
@click.option("--n-grid", default="50,100,200,400,800,1600,3200",
              show_default=True, help="Comma-separated dataset sizes (nested prefixes).")
@click.option("--rate", type=float, default=2.0, show_default=True,
              help="True Poisson rate (poisson_gamma) or data sd (normal).")
@click.pass_context
def bclt_check(ctx, model, phi, n_grid, rate):
    """Posterior-expansion residual rate check on nested 1-D problems."""
    try:
        sizes = sorted({int(s) for s in n_grid.split(",")})
    except ValueError as exc:
        raise click.UsageError(f"--n-grid must be integers: {exc}") from exc
    if len(sizes) < 2 or sizes[0] < 2:
        raise click.UsageError("--n-grid needs at least two sizes >= 2")
    rng = stream(ctx.obj["seed"], KIND_SIMULATE)
    if model == "poisson_gamma":
        mdl = PoissonGammaConjugateModel(prior_shape=2.0, prior_rate=1.0)
        full = rng.poisson(rate, size=sizes[-1]).astype(np.int64)
    else:
        mdl = NormalMeanModel(known_sd=1.0, prior_mean=0.0, prior_sd=3.0)
        full = rng.normal(0.0, rate, size=sizes[-1])
    problems = [(mdl, Dataset(full[:n])) for n in sizes]
    phi_f, dphi, d2phi = _PHI_SETS[phi]
    check = bclt_expansion_check(problems, phi_f, dphi, d2phi)
    click.echo(f"{'N':>6}{'E[phi]':>18}{'phi(MAP)':>18}{'correction':>16}{'residual':>14}")
    for i, n in enumerate(check.n_values):
        click.echo(
            f"{int(n):>6}{check.posterior_means[i]:>18.10g}"
            f"{check.map_values[i]:>18.10g}{check.corrections[i]:>16.6g}"
            f"{check.residuals[i]:>14.6g}"
        )
    click.echo(f"slope = {check.slope!r}")
    path = _out_path(ctx, "bclt_check.csv")
    if path is not None:
        rows = [
            [int(check.n_values[i]), check.posterior_means[i], check.map_values[i],
             check.corrections[i], check.residuals[i]]
            for i in range(len(check.n_values))
        ]
        write_csv(path, ["n", "posterior_mean", "phi_map", "correction", "residual"],
                  rows)
        click.echo(f"wrote {path}")


@cli.command()
@click.option("--model", type=click.Choice(["poisson_re", "normal_misspec"]),
              required=True)
@_sim_options
@click.option("--g-count", type=int, default=1, show_default=True)
@_prior_options
@_known_sd_option
@click.option("--m", "m_draws", type=int, default=4000, show_default=True)
@click.option("--burn", "burn_in", type=int, default=None)
@click.option("--b", "b_boot", type=int, default=50, show_default=True)
@click.option("--r", "r_ground_truth", type=int, default=100, show_default=True)
@click.option("--blocks", type=int, default=None)
@click.option("--se-reps", type=int, default=200, show_default=True)
@click.pass_context
def experiment(ctx, **settings):
    """Full pipeline: estimators, SEs, simulated ground truth, report."""
    out = ctx.obj["out"] or "experiment_out"
    cfg = ExperimentConfig(**settings, seed=ctx.obj["seed"], threads=ctx.obj["threads"],
                           output_dir=out)
    result = run_experiment(cfg)
    click.echo(f"v_sim   = {float(result.v_sim.v[0, 0])!r}")
    click.echo(f"v_bayes = {float(result.v_bayes.v[0, 0])!r}")
    click.echo(f"v_ij    = {float(result.v_ij.v[0, 0])!r}")
    click.echo(f"v_boot  = {float(result.v_boot.v[0, 0])!r}")
    if result.v_map is not None:
        click.echo(f"v_map   = {float(result.v_map.v[0, 0])!r}")
    if result.kappa_hat is not None:
        click.echo(f"kappa_hat = {result.kappa_hat!r}")
    click.echo(f"report in {out}")


@cli.command()
@click.option("--result", "result_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="result.json from a previous experiment run.")
@click.pass_context
def report(ctx, result_path):
    """Re-render tables and plot CSVs from a saved result (no recomputation)."""
    try:
        result = ExperimentResult.from_dict(read_json(result_path))
    except ValueError as exc:
        raise IngestError(f"{result_path}: {exc}") from exc
    out = ctx.obj["out"] or str(Path(result_path).parent)
    paths = emit_report(result, out)
    for p in paths:
        click.echo(f"wrote {p}")


def cli_dispatch(argv=None) -> int:
    """Run the CLI on argv; returns the exit code instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    except (IngestError, DimensionMismatchError, StageError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def main() -> int:
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
