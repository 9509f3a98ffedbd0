"""Span recorder and layer-boundary instrumentation for traced benchmark runs.

Modules bind imported names when they are imported, so a span on a layer
boundary is installed by rebinding the called name in every ``cir_particles``
module namespace that holds it: ``cir_particles.integrators.step_normals``,
``cir_particles.cli.simulate_batch`` and so on.  Imports made inside a
function body read the defining module's attribute at call time, so
rebinding ``cir_particles.integrators.simulate_batch`` also catches the calls
from ``events`` and ``stationary``.

Spans stay in memory as (span id, parent span id, name, start, end) and are
written out once when the run ends.  Counters are computed from the wrapped
calls' arguments and returned values only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.pass"


class Recorder:
    """In-memory spans of one traced pass, plus per-layer counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = {}

    def open(self, name: str) -> tuple[int, int | None]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent

    def close(self, span_id: int, parent: int | None, name: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[span_id] = (span_id, parent, name, start, end)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover."""
        out = {s[0]: s[4] - s[3] for s in self.spans}
        for span_id, parent, _, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out


def traced(recorder: Recorder, layer: str, fn, count=None):
    counters = recorder.counters.setdefault(layer, {"calls": 0})

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id, parent = recorder.open(layer)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span_id, parent, layer, start)
        counters["calls"] += 1
        if count is not None:
            count(counters, fn, args, kwargs, result)
        return result

    return wrapper


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def count_variates(counters, fn, args, kwargs, result) -> None:
    _add(counters, "variates", int(np.size(result)))


def count_draws(counters, fn, args, kwargs, result) -> None:
    _add(counters, "draws", int(np.size(result)))


def count_batch(counters, fn, args, kwargs, result) -> None:
    """Rows, useful and stepped path-steps of one simulate_batch call.

    The kernel's loop ends once no row is active, so every row is stepped up
    to the latest stop time: stepped = n_paths * round(max(stop_time)/dt).
    """
    steps = np.rint(result.stop_time / result.config.dt)
    _add(counters, "rows", result.n_paths)
    _add(counters, "path_steps_useful", int(steps.sum()))
    _add(counters, "path_steps_stepped", result.n_paths * int(steps.max()) if steps.size else 0)


def count_mh(counters, fn, args, kwargs, result) -> None:
    """Metropolis iterations: burn_in + steps * thin, burn_in defaulting as mh_sampler does."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    steps, thin = bound.arguments["steps"], bound.arguments["thin"]
    burn_in = bound.arguments["burn_in"]
    if burn_in is None:
        burn_in = max(1000, steps // 5)
    _add(counters, "iters", burn_in + steps * thin)


def count_artifacts(counters, fn, args, kwargs, result) -> None:
    """Bytes of the files in the command's --out directory after it returns."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    argv = list(bound.arguments.get("argv") or [])
    size = 0
    if "--out" in argv[:-1]:
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    _add(counters, "artifact_bytes", size)


# (module, function, layer name, counter)
TARGETS = (
    ("randomness", "step_normals", "randomness.step_normals", count_variates),
    ("cirprocess", "exact_step", "cirprocess.exact_step", count_draws),
    ("integrators", "simulate_batch", "integrators.simulate_batch", count_batch),
    ("integrators", "simulate_path", "integrators.simulate_path", None),
    ("events", "detect_events", "events.detect_events", None),
    ("events", "first_passage_partial_sum", "events.first_passage_partial_sum", None),
    ("stationary", "mh_sampler", "stationary.mh_sampler", count_mh),
    ("stationary", "rejection_sample_pair", "stationary.rejection_sample_pair", None),
    ("stationary", "estimate_log_normalizer", "stationary.estimate_log_normalizer", None),
    ("stats", "ks_test", "stats.ks", None),
    ("stats", "ks_test_two_sample", "stats.ks", None),
    ("model", "classify_regime", "model.classify_regime", None),
    ("cli", "main", "cli.main", count_artifacts),
)


def instrument(recorder: Recorder) -> None:
    """Rebind every layer-boundary function in all loaded package modules."""
    for module in {m for m, _, _, _ in TARGETS}:
        importlib.import_module(f"cir_particles.{module}")
    namespaces = [
        mod for name, mod in sys.modules.items()
        if name == "cir_particles" or name.startswith("cir_particles.")
    ]
    for module, func, layer, count in TARGETS:
        original = getattr(sys.modules[f"cir_particles.{module}"], func)
        wrapper = traced(recorder, layer, original, count)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass (no ratios)."""
    self_time = recorder.self_times()
    totals: dict[str, float] = {}
    for span_id, _, name, _, _ in recorder.spans:
        totals[name] = totals.get(name, 0.0) + self_time[span_id]
    out: dict[str, float] = {}
    for _, _, layer, _ in TARGETS:
        counters = recorder.counters.get(layer, {})
        out[f"{layer}.self_s"] = totals.get(layer, 0.0)
        for key, value in counters.items():
            out[f"{layer}.{key}"] = value
    return out


# Ratio metrics: (numerator, denominator, scale), all taken from summed counters.
RATIOS = {
    "randomness.step_normals.ns_per_variate": (
        "randomness.step_normals.self_s", "randomness.step_normals.variates", 1e9),
    "cirprocess.exact_step.ns_per_draw": (
        "cirprocess.exact_step.self_s", "cirprocess.exact_step.draws", 1e9),
    "integrators.simulate_batch.rows_per_call": (
        "integrators.simulate_batch.rows", "integrators.simulate_batch.calls", 1.0),
    "integrators.simulate_batch.useful_frac": (
        "integrators.simulate_batch.path_steps_useful",
        "integrators.simulate_batch.path_steps_stepped", 1.0),
    "integrators.simulate_batch.ns_per_path_step": (
        "integrators.simulate_batch.self_s",
        "integrators.simulate_batch.path_steps_stepped", 1e9),
    "stationary.mh_sampler.us_per_iter": (
        "stationary.mh_sampler.self_s", "stationary.mh_sampler.iters", 1e6),
}


def per_layer(summed: dict[str, float], names) -> dict[str, float]:
    """Each named per-layer metric: a summed counter or a ratio of two (0 if undefined)."""
    out = {}
    for name in names:
        if name in RATIOS:
            num, den, scale = RATIOS[name]
            d = summed.get(den, 0.0)
            out[name] = scale * summed.get(num, 0.0) / d if d else 0.0
        else:
            out[name] = summed.get(name, 0.0)
    return out
