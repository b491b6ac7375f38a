"""ijcov benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another, each in a
fresh process, and prints all their tables.

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Units of work run back to back
until the next one would end past ``--seconds`` (at least two units).

``--trace 0`` prints the end-to-end metrics: median wall and CPU seconds per
unit (CPU of this process plus its reaped pool workers), each normalised to
a reference core speed sampled while the unit runs (see hostspeed.py), this
process's peak RSS, and the median set-up time of fresh interpreters that
import the package and build the workload's inputs.  The unit times as
measured, before normalisation, are printed and recorded beside them.
``--trace 1`` prints the per-module metrics: after one untraced unit it runs
one unit at ``threads=1`` with spans around calls into each module (see
tracing.py), and, for a workload whose units use a pool, one untraced
``threads=1`` unit before it, for the parallel efficiency and the tracing
overhead.

Every unit's outputs are checked (see workloads.py), and all units of a run
must produce the same output bytes whatever their thread count.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The
full record (machine, per-unit values, digests, warnings) and the span file
go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from hostspeed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_UNITS = 2
# No unit starts after this many seconds of the run, so that a run ends well
# inside the three minutes a run may take.
START_DEADLINE_S = 110.0
# One BLAS thread per process: the units' only parallelism is the
# experiment's own worker pool, so `threads` says how many cores a unit uses
# (unpinned, each of the two pool workers would start two BLAS threads on
# the two cores).
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
# numpy asks for transparent huge pages for arrays of 4 MiB and more, and
# whether the kernel has them to give depends on the whole host's memory: with
# them, the normal study's peak RSS read 94 MB instead of 81 MB in three runs
# of ten.  Small pages leave peak RSS to the program.
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
# glibc adjusts its mmap threshold as the program frees memory, so whether
# each 12.8 MB chain copy page-faults depends on allocation history: unpinned,
# the normal study's unit time moved between about 1.5 s and 2.5 s from run to
# run on a 2-core Xeon VM.  Fixed thresholds (allocations up to 32 MiB from the
# heap, freed heap kept) make runs compare the program's work rather than the
# allocator's state.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
MALLOPT = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 1 << 30}
STAGES = ("simulate", "chain", "chain_se", "bootstrap", "ground_truth",
          "metrics", "diagnostics", "sandwich")


def pin_allocator() -> bool:
    """Fix glibc's malloc thresholds for this process and the pool workers it
    forks; False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(k, v) == 1 for k, v in MALLOPT.items())


def import_program():
    """Import ijcov from this checkout's src/, refusing any other copy."""
    os.environ.update(BLAS_ENV, **NUMPY_ENV)
    if not (SRC / "ijcov" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'ijcov'}; "
                         "run from the root of an ijcov checkout")
    sys.path.insert(0, str(SRC))
    import ijcov

    if Path(ijcov.__file__).resolve().parent != (SRC / "ijcov").resolve():
        raise SystemExit(f"bench: imported ijcov from {ijcov.__file__}, not {SRC}")
    return ijcov


def machine_record(pinned: bool) -> dict:
    from importlib.metadata import version

    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*((idx / f).read_text().strip()
                                               for f in ("level", "type", "size"))))
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": version("click"),
        "blas_threads_env": BLAS_ENV,
        "numpy_env": NUMPY_ENV,
        "malloc_thresholds_pinned": pinned,
        "note": ("largest working set is one 4000 x 400 float64 matrix "
                 "(12.8 MB), far below the reported last-level cache; "
                 "byte counts here are computed from shapes, not measured "
                 "memory bandwidth"),
    }


def run_measured(workload, threads: int, recorder=None) -> dict:
    """One unit: wall and CPU seconds, RuntimeWarnings, output digest, and
    whether it failed (raised, exited non-zero or failed a check).  An
    untraced unit runs under a SpeedSampler, whose own time is taken out of
    its wall and CPU seconds; its normalised times are those seconds times
    the sampled core speed (see hostspeed.py)."""
    sampler = SpeedSampler() if recorder is None else None
    s0 = resource.getrusage(resource.RUSAGE_SELF)
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, (
            sampler or contextlib.nullcontext()):
        warnings.simplefilter("always")
        try:
            out = workload.run_unit(threads, recorder)
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted
            out = {"digest": None, "timings": {},
                   "problems": [f"{type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - t0
    s1 = resource.getrusage(resource.RUSAGE_SELF)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(getattr(b, f) - getattr(a, f) for a, b in ((s0, s1), (c0, c1))
              for f in ("ru_utime", "ru_stime"))
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    unit = dict(out, threads=threads, traced=recorder is not None, wall_s=wall,
                cpu_s=cpu, runtime_warnings=len(runtime),
                warning_texts=sorted(set(runtime)))
    if sampler is not None:
        unit["wall_s"] = wall - sampler.wall_spent
        unit["cpu_s"] = cpu - sampler.cpu_spent
        speed = sampler.speed()
        unit.update(speed=speed, speed_samples=len(sampler.samples),
                    wall_norm_s=unit["wall_s"] * speed,
                    cpu_norm_s=unit["cpu_s"] * speed)
    return unit


def timed_loop(workload, seconds: float, started: float) -> list[dict]:
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run_measured(workload, workload.threads))
        now = time.perf_counter()
        typical = statistics.median(u["wall_s"] for u in units)
        if now - started + typical > START_DEADLINE_S:
            return units
        if len(units) >= MIN_UNITS and now - t0 + typical > seconds:
            return units


def setup_probe(name: str, seed: int, workdir: Path) -> float:
    """Seconds for a fresh interpreter to import ijcov and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def mark_failures(units: list[dict]) -> None:
    """A unit fails on any problem or on output bytes that differ from the
    first unit of the run (same inputs, any thread count, traced or not)."""
    ref = next((u["digest"] for u in units if u["digest"]), None)
    for u in units:
        if u["digest"] is not None and u["digest"] != ref:
            u["problems"].append(f"output sha256 {u['digest']} != {ref}")
        u["failed"] = bool(u["problems"])


def end_to_end(units, peak_rss_mb, setup_samples) -> dict:
    """The bounded metrics: median host-normalised unit times, peak RSS and
    median set-up time."""
    return {
        "wall_norm_s": statistics.median(u["wall_norm_s"] for u in units),
        "cpu_norm_s": statistics.median(u["cpu_norm_s"] for u in units),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def as_measured(units) -> dict:
    """Median unit times before normalisation, and the median core speed."""
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "speed": statistics.median(u["speed"] for u in units),
    }


def per_layer(agg: dict, loop_units, t1_unit, traced, worker_rss_mb, r_gt) -> dict:
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    m["samplers.sample_posterior.calls"] = get("samplers.sample_posterior", "calls")
    m["samplers.sample_posterior.self_s"] = get("samplers.sample_posterior", "self_s")
    m["samplers.iters_per_s"] = ratio(get("samplers.sample_posterior", "iters"),
                                      m["samplers.sample_posterior.self_s"])
    m["samplers.ess.calls"] = get("samplers.ess", "calls")
    m["samplers.ess.busy_s"] = get("samplers.ess", "busy_s")
    m["samplers.map_optimize.busy_s"] = get("samplers.map_optimize", "busy_s")

    m["models.log_lik_matrix.calls"] = get("models.log_lik_matrix", "calls")
    m["models.log_lik_matrix.busy_s"] = get("models.log_lik_matrix", "busy_s")
    m["models.log_lik_matrix.cells"] = get("models.log_lik_matrix", "cells")

    m["estimators.influence_scores.calls"] = get("estimators.influence_scores", "calls")
    for f in ("influence_scores", "ij_covariance", "bayes_covariance",
              "bootstrap_covariance"):
        m[f"estimators.{f}.busy_s"] = get(f"estimators.{f}", "busy_s")
    m["estimators.bootstrap_covariance.replicate_ms"] = 1e3 * ratio(
        get("estimators.bootstrap_covariance", "busy_s"),
        get("estimators.bootstrap_covariance", "replicates"))
    m["estimators.sandwich_covariance.busy_s"] = get("estimators.sandwich_covariance",
                                                     "busy_s")

    bb = "mc_error.block_bootstrap_se"
    m[f"{bb}.calls"] = get(bb, "calls")
    m[f"{bb}.busy_s"] = get(bb, "busy_s")
    m[f"{bb}.self_s"] = get(bb, "self_s")
    m[f"{bb}.reps"] = get(bb, "reps")
    m[f"{bb}.bytes_copied"] = get(bb, "bytes_copied")

    for stage in STAGES:
        m[f"experiment.stage.{stage}_s"] = statistics.median(
            u["timings"].get(stage, 0.0) for u in loop_units)
    single = [t1_unit] if t1_unit else [u for u in loop_units if u["threads"] == 1]
    gt = statistics.median(u["timings"].get("ground_truth", 0.0) for u in single)
    m["experiment.ground_truth.replicate_ms"] = 1e3 * ratio(gt, r_gt)
    loop_wall = statistics.median(u["wall_s"] for u in loop_units)
    m["experiment.threads1_wall_s"] = t1_unit["wall_s"] if t1_unit else 0.0
    m["experiment.parallel_eff"] = ratio(
        m["experiment.threads1_wall_s"], loop_units[0]["threads"] * loop_wall)
    m["experiment.worker_peak_rss_mb"] = worker_rss_mb
    m["experiment.emit_report.busy_s"] = get("experiment.emit_report", "busy_s")

    m["diagnostics.diagnose.busy_s"] = get("diagnostics.diagnose", "busy_s")

    write_s = get("io.write_draws_csv", "busy_s") + get("io.write_loglik_csv", "busy_s")
    m["io.write_draws_csv.busy_s"] = get("io.write_draws_csv", "busy_s")
    m["io.write_loglik_csv.busy_s"] = get("io.write_loglik_csv", "busy_s")
    m["io.bytes_written"] = get("io.write_draws_csv", "bytes") + get(
        "io.write_loglik_csv", "bytes")
    m["io.write_MBps"] = ratio(m["io.bytes_written"] / 1e6, write_s)
    m["io.assemble_sample.calls"] = get("io.assemble_sample", "calls")
    m["io.assemble_sample.busy_s"] = get("io.assemble_sample", "busy_s")
    m["io.bytes_read"] = get("io.assemble_sample", "bytes")
    m["io.read_MBps"] = ratio(m["io.bytes_read"] / 1e6, m["io.assemble_sample.busy_s"])

    for cmd in ("sample", "ij", "mcse", "diagnose"):
        m[f"cli.{cmd}.busy_s"] = get(f"cli.{cmd}", "busy_s")
    m["cli.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith("cli."))

    m["warnings.runtime"] = traced["runtime_warnings"]
    # Against the untraced threads=1 unit that ran just before the traced one.
    base = t1_unit or loop_units[-1]
    m["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    return m


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per process),
    with each one's table in turn and one summary line at the end."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predicted = json.loads((Path(__file__).parent / "predictions.json").read_text())
    table = {k for row in predicted["modules"] for k in row["metrics"]}
    if table != {m["name"] for m in spec["per_layer"]}:
        raise SystemExit("bench: predictions.json and BENCHMARK.json per_layer differ")
    pinned = pin_allocator()
    ijcov = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    seed = args.seed % 2**31
    cls = WORKLOADS[args.workload]
    if args.probe_setup:
        cls(seed, Path(args.workdir)).setup()
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = cls(seed, workdir / "unit")
        workload.setup()
        workload.reference()
        # A traced run reports no bounded metric, so one untraced unit at the
        # workload's thread count is enough before the traced one.
        if args.trace:
            units = [run_measured(workload, workload.threads)]
        else:
            units = timed_loop(workload, args.seconds, started)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        loop_units = list(units)

        t1_unit = traced = None
        missing = []
        spans_path = None
        if args.trace:
            if workload.threads != 1:
                t1_unit = run_measured(workload, 1)
                units.append(t1_unit)
            from tracing import Recorder, instrumented

            recorder = Recorder()
            with instrumented(recorder) as missing:
                traced = run_measured(workload, 1, recorder)
            units.append(traced)
            spans_path = OUT / f"spans-{tag}.json"
            recorder.write(spans_path)
        setup_samples = [setup_probe(args.workload, seed, workdir / f"probe{i}")
                         for i in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mark_failures(units)
    failed = sum(u["failed"] for u in units)
    if args.trace:
        r_gt = ijcov.ExperimentConfig(model="normal_misspec", n=400).r_ground_truth
        metrics = per_layer(recorder.summary(), loop_units, t1_unit, traced,
                            worker_rss_mb if workload.threads > 1 else 0.0, r_gt)
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(loop_units, peak_rss_mb, setup_samples)
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units_of):
        raise SystemExit("bench: metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units_of))}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_record(pinned),
        "attempted": len(units), "failed": failed,
        "fail_rate": failed / len(units),
        "output_sha256": next((u["digest"] for u in units if u["digest"]), None),
        "metrics": metrics, "setup_samples_s": setup_samples,
        "end_to_end_detail": dict(end_to_end(loop_units, peak_rss_mb, setup_samples),
                                  **as_measured(loop_units)),
        "units": units, "missing_patches": missing,
        "spans": None if spans_path is None else str(spans_path.relative_to(ROOT)),
    }
    record_path = OUT / f"record-{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  units {len(loop_units)} "
          f"(+{len(units) - len(loop_units)} trace)  machine nproc="
          f"{record['machine']['nproc']} {record['machine']['cpu_model']}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units_of[name]}")
    if not args.trace:
        raw = as_measured(loop_units)
        print(f"  {'wall_s (as measured)':<48} {raw['wall_s']:>16.6g} s")
        print(f"  {'cpu_s (as measured)':<48} {raw['cpu_s']:>16.6g} s")
        print(f"  {'core speed (REF_LOOP_S / loop time)':<48} {raw['speed']:>16.6g} ratio")
        print(f"  {'fail_rate':<48} {record['fail_rate']:>16.6g} ratio")
    print(f"  output sha256 {record['output_sha256']}")
    for u in units:
        for p in u["problems"]:
            print(f"  FAILED unit: {p}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
