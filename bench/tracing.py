"""Span recorder for the traced benchmark run.

Spans are opened only from benchmark code: around each ``cli_dispatch`` call
the benchmark makes, and around calls into a module's public functions, by
temporarily replacing the name in the namespace of the module that calls it
(``ijcov.experiment.sample_posterior`` and so on).  Nothing under ``src/`` is
edited.  Spans live in memory and are written out once, when the run ends.

The traced unit runs with ``threads=1``, so every call stays in this process
and spans nest strictly; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager


class Recorder:
    """In-memory spans: id, name, start, end (seconds since the recorder was
    made), parent id and free-form attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        """`fn` wrapped in a span; `attrs(args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"].update(attrs(args, kwargs, result))
                return result

        return traced

    def self_times(self) -> list[float]:
        """Duration minus the durations of direct children, per span."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, summed attrs."""
        agg: dict = {}
        for s, self_s in zip(self.spans, self.self_times()):
            a = agg.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["busy_s"] += s["end"] - s["start"]
            a["self_s"] += self_s
            for k, v in s["attrs"].items():
                a[k] = a.get(k, 0) + v
        return agg

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _chain_iters(args, kwargs, _result):
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"iters": cfg.m_draws}


def _cells(_args, _kwargs, result):
    return {"cells": int(result.size)}


def _block_boot(args, kwargs, result):
    # Computed, not measured: each replicate rebuilds the draws, g and
    # log-likelihood rows of the chain (PosteriorSample.subset).
    sample = _arg(args, kwargs, 0, "sample")
    n = sample.n_data if sample.loglik is not None else 0
    width = n + sample.draws.shape[1] + sample.q
    return {"reps": result.reps, "bytes_copied": result.reps * sample.m * width * 8}


def _replicates(args, kwargs, _result):
    return {"replicates": _arg(args, kwargs, 3, "b")}


def _written(args, kwargs, _result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _read(args, kwargs, _result):
    total = os.path.getsize(_arg(args, kwargs, 0, "draws_path"))
    loglik = _arg(args, kwargs, 1, "loglik_path")
    if loglik is not None:
        total += os.path.getsize(loglik)
    return {"bytes": total}


# (calling module, name in its namespace, span name, attrs).  The span is
# named after the module that defines the function, so one layer's calls
# add up whoever makes them.
PATCHES = [
    ("experiment", "sample_posterior", "samplers.sample_posterior", _chain_iters),
    ("experiment", "map_optimize", "samplers.map_optimize", None),
    ("experiment", "influence_scores", "estimators.influence_scores", None),
    ("experiment", "ij_covariance", "estimators.ij_covariance", None),
    ("experiment", "bayes_covariance", "estimators.bayes_covariance", None),
    ("experiment", "bootstrap_covariance", "estimators.bootstrap_covariance", _replicates),
    ("experiment", "sandwich_covariance", "estimators.sandwich_covariance", None),
    ("experiment", "block_bootstrap_se", "mc_error.block_bootstrap_se", _block_boot),
    ("experiment", "delta_method_boot_se", "mc_error.delta_method_boot_se", None),
    ("experiment", "z_matrix", "mc_error.z_matrix", None),
    ("experiment", "delta_metrics", "mc_error.delta_metrics", None),
    ("experiment", "diagnose", "diagnostics.diagnose", None),
    ("experiment", "poisson_re_view", "diagnostics.poisson_re_view", None),
    ("experiment", "simulate_poisson_re", "reference.simulate_poisson_re", None),
    ("experiment", "simulate_poisson_re_conditional",
     "reference.simulate_poisson_re_conditional", None),
    ("experiment", "simulate_misspecified_normal",
     "reference.simulate_misspecified_normal", None),
    ("experiment", "emit_report", "experiment.emit_report", None),
    ("estimators", "sample_posterior", "samplers.sample_posterior", _chain_iters),
    ("mc_error", "influence_scores", "estimators.influence_scores", None),
    ("mc_error", "ij_covariance", "estimators.ij_covariance", None),
    ("mc_error", "bayes_covariance", "estimators.bayes_covariance", None),
    ("mc_error", "ess", "samplers.ess", None),
    ("samplers", "log_lik_matrix", "models.log_lik_matrix", _cells),
    ("samplers", "ess", "samplers.ess", None),
    ("cli", "sample_posterior", "samplers.sample_posterior", _chain_iters),
    ("cli", "influence_scores", "estimators.influence_scores", None),
    ("cli", "ij_covariance", "estimators.ij_covariance", None),
    ("cli", "block_bootstrap_se", "mc_error.block_bootstrap_se", _block_boot),
    ("cli", "run_diagnose", "diagnostics.diagnose", None),
    ("cli", "poisson_re_view", "diagnostics.poisson_re_view", None),
    ("cli", "read_dataset_csv", "io.read_dataset_csv", None),
    ("cli", "write_draws_csv", "io.write_draws_csv", _written),
    ("cli", "write_loglik_csv", "io.write_loglik_csv", _written),
    ("cli", "assemble_sample", "io.assemble_sample", _read),
    ("cli", "write_csv", "io.write_csv", None),
]


@contextmanager
def instrumented(recorder: Recorder):
    """Install every patch for the duration of the block; yields the list of
    names that no longer exist (a later refactor may move them)."""
    installed = []
    missing = []
    try:
        for mod_name, attr, span_name, attrs in PATCHES:
            mod = importlib.import_module(f"ijcov.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"ijcov.{mod_name}.{attr}")
                continue
            setattr(mod, attr, recorder.wrap(orig, span_name, attrs))
            installed.append((mod, attr, orig))
        yield missing
    finally:
        for mod, attr, orig in reversed(installed):
            setattr(mod, attr, orig)
