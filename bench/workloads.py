"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs one
unit of work per ``run_unit`` call, always with the same inputs, so every
unit of a run must produce the same output bytes.  ``run_unit`` returns a
digest of the unit's output files and a list of failed output checks; an
exception or a non-zero exit code counts as a failed unit in the caller.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from pathlib import Path

# Study sizes: the defaults of ExperimentConfig (m_draws=4000, b_boot=50,
# r_ground_truth=100, se_reps=200) at N=400.
N = 400
G = 400
M_DRAWS = 4000
SE_REPS = 200


def _simulate_re(seed: int):
    """The Poisson random-effects dataset that ExperimentConfig's defaults
    and ``ijcov simulate --model poisson_re`` both draw for this seed."""
    import ijcov

    spec = ijcov.SimSpec(n=N, g_count=G, gamma_true=1.5, alpha=25.0, beta=2.5,
                         rng_seed=seed)
    return ijcov.simulate_poisson_re(spec)[0]


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class _Workload:
    name = ""
    threads = 1  # pool size of the measured units

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._units = 0

    def _unit_dir(self) -> Path:
        self._units += 1
        return self.workdir / f"unit{self._units}"

    def reference(self):
        """Expected outputs computed before the timed loop (none by default)."""


class Study(_Workload):
    """One ``run_experiment`` call; the unit writes the report files, so
    ``emit_report`` runs and ``result.json`` can be compared byte for byte."""

    config: dict = {}

    def setup(self):
        import ijcov

        self.cfg = dict(self.config, seed=self.seed)
        if self.cfg["model"] == "poisson_re":
            self.data = _simulate_re(self.seed)
        else:
            self.data = ijcov.simulate_misspecified_normal(
                N, self.cfg["true_dist"], seed=self.seed)

    def run_unit(self, threads: int, recorder=None):
        from ijcov import ExperimentConfig, run_experiment

        out = self._unit_dir()
        cfg = ExperimentConfig(**self.cfg, threads=threads, output_dir=str(out))
        result = run_experiment(cfg)
        digest = _sha256([out / "result.json"])
        shutil.rmtree(out)
        return {"digest": digest, "timings": dict(result.timings),
                "problems": self.check(result)}

    def check(self, result) -> list[str]:
        return []


class StudyReG400(Study):
    name = "study_re_g400"
    threads = 2
    config = {"model": "poisson_re", "n": N, "g_count": G}


class StudyNormalLaplace(Study):
    name = "study_normal_laplace"
    config = {"model": "normal_misspec", "n": N, "true_dist": "laplace"}

    def setup(self):
        import ijcov

        super().setup()
        # Closed-form IJ on the same simulated data: the exact-posterior
        # limit of the draw-based influence scores.
        psi = ijcov.normal_influence_oracle(ijcov.NormalMeanModel(known_sd=1.0),
                                            self.data)
        self.oracle_v = ijcov.ij_covariance(ijcov.InfluenceMatrix(psi)).v

    def check(self, result) -> list[str]:
        gap = abs(result.v_ij.v - self.oracle_v)
        limit = 4.0 * result.v_ij.se
        if (gap > limit).any():
            return [f"v_ij {result.v_ij.v.tolist()} is more than 4 Xi^IJ "
                    f"{result.v_ij.se.tolist()} from the oracle "
                    f"{self.oracle_v.tolist()}"]
        return []


def _read_matrix(path: Path, column: str, q: int):
    out = [[None] * q for _ in range(q)]
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[int(row["i"])][int(row["j"])] = float(row[column])
    return out


class CliRoundtripRe(_Workload):
    """The README walkthrough in process: sample, ij, mcse, diagnose on
    files, with the dataset simulated once in set-up."""

    name = "cli_roundtrip_re"

    def _dispatch(self, argv, recorder, span):
        from ijcov.cli import cli_dispatch

        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if recorder is not None:
                stack.enter_context(recorder.span(span))
            stack.enter_context(contextlib.redirect_stdout(buf_out))
            stack.enter_context(contextlib.redirect_stderr(buf_err))
            code = cli_dispatch(["--seed", str(self.seed), *argv])
        if code != 0:
            raise RuntimeError(f"{span} exited {code}: {buf_err.getvalue().strip()}")

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._dispatch(["--out", str(self.workdir), "simulate", "--model",
                        "poisson_re", "--n", str(N), "--g-count", str(G)],
                       None, "cli.simulate")
        self.dataset = self.workdir / "dataset.csv"

    def reference(self):
        """In-memory estimates from the same chain, never touching CSV."""
        import ijcov
        from ijcov.samplers import ChainConfig

        model = ijcov.PoissonGammaREModel(group_count=G, alpha=25.0, beta=2.5)
        sample = ijcov.sample_posterior(model, _simulate_re(self.seed), None,
                                        ChainConfig(m_draws=M_DRAWS, rng_seed=self.seed))
        self.ref_v = ijcov.ij_covariance(ijcov.influence_scores(sample)).v.tolist()
        self.ref_xi = ijcov.block_bootstrap_se(
            sample, "ij_cov", reps=SE_REPS, seed=self.seed).xi.tolist()

    def run_unit(self, threads: int, recorder=None):
        out = self._unit_dir()
        o = ["--out", str(out)]
        draws, loglik = str(out / "draws.csv"), str(out / "loglik.csv")
        self._dispatch([*o, "sample", "--model", "poisson_re", "--data",
                        str(self.dataset), "--g-count", str(G), "--m", str(M_DRAWS)],
                       recorder, "cli.sample")
        self._dispatch([*o, "ij", "--draws", draws, "--loglik", loglik],
                       recorder, "cli.ij")
        self._dispatch([*o, "mcse", "--draws", draws, "--loglik", loglik],
                       recorder, "cli.mcse")
        q = len(self.ref_v)
        v = _read_matrix(out / "v_ij.csv", "estimate", q)
        xi = _read_matrix(out / "xi_ij_cov.csv", "xi", q)
        self._dispatch([*o, "diagnose", "--data", str(self.dataset), "--draws",
                        draws, "--g-count", str(G), "--ij-se", repr(xi[0][0])],
                       recorder, "cli.diagnose")
        problems = []
        if v != self.ref_v:
            problems.append(f"v_ij read back {v} != in-memory {self.ref_v}")
        if xi != self.ref_xi:
            problems.append(f"xi_ij_cov read back {xi} != in-memory {self.ref_xi}")
        files = [out / f for f in ("draws.csv", "loglik.csv", "v_ij.csv",
                                   "xi_ij_cov.csv", "diagnostics.csv")]
        digest = _sha256(files)
        shutil.rmtree(out)
        return {"digest": digest, "timings": {}, "problems": problems}


WORKLOADS = {w.name: w for w in (StudyReG400, StudyNormalLaplace, CliRoundtripRe)}
