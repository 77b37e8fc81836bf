"""Benchmark-owned span tracing: wrappers around each layer's entry points.

The traced run installs :func:`instrument` around one workload iteration.
Every wrapped entry point opens a span in the in-memory :class:`Ledger`
(name, start, end, parent, attributes) and, under the same layer name
prefixed with ``perfbench:``, a :func:`repro.obs.span`.  The second copy
is how worker-side time comes back: multiprocess workers are forked
after the wrappers are installed, run them too, and the library's own
telemetry spill (``repro.obs.spill``) merges their span aggregates into
the main process's :class:`repro.obs.Tracer`.  Untraced runs install nothing.

Module functions are patched in every ``repro`` module that holds a
reference to them, because callers look names up in their own module
(``from repro.explore.pareto import pareto_frontier``); class methods are
patched on the class.  :func:`instrument` restores everything on exit.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span-name prefix of the copies recorded through ``repro.obs``.
OBS_PREFIX = "perfbench:"

#: Layers whose work counts as execution ("worker busy") on a serial backend.
EXECUTION_LAYERS = ("synth", "lower", "simulate")


class Ledger:
    """In-memory span list of the main (parent) process.

    Each span is ``[name, start, end, parent_index, attrs]``; spans opened
    in another process (a forked worker running an inherited wrapper)
    are not recorded here.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, attrs: Optional[dict] = None) -> Iterator[None]:
        if os.getpid() != self.pid:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def as_records(self, origin: float) -> List[dict]:
        """JSON-ready spans, times relative to ``origin``."""
        return [{"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent, **({"attrs": attrs} if attrs else {})}
                for name, start, end, parent, attrs in self.spans]


def _trace_cycles(job) -> int:
    trace = job.trace
    return int(trace.length) if trace is not None else 0


def _group_cycles(jobs, *args, **kwargs) -> Dict[str, int]:
    return {"cycles": sum(_trace_cycles(job) for job in jobs)}


def _job_cycles(job, *args, **kwargs) -> Dict[str, int]:
    return {"cycles": _trace_cycles(job)}


def _targets():
    """(owner, attribute, layer, attrs function) of every wrapped entry point.

    ``owner`` is a class (the method is patched on it) or a module (the
    function is patched in every repro module that references it).
    """
    from repro.experiments import prediction, runner
    from repro.experiments.fig9_rms import Fig9Result
    from repro.experiments.fig10_distribution import Fig10Result
    from repro.explore import adaptive, pareto, sweep
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.regress import RandomForestRegressor
    from repro.runtime import backends, jobs, plan
    from repro.runtime.cache import CachingBackend
    from repro.runtime.synth_cache import SynthesisCache
    from repro.workloads import generators

    targets = [
        (RandomForestClassifier, "fit", "ml.classifier_fit", None),
        (RandomForestClassifier, "predict", "ml.classifier_predict", None),
        (RandomForestClassifier, "predict_proba", "ml.classifier_predict", None),
        (RandomForestRegressor, "fit", "ml.regressor_fit", None),
        (RandomForestRegressor, "predict", "ml.regressor_predict", None),
        (RandomForestRegressor, "predict_all", "ml.regressor_predict", None),
        (RandomForestRegressor, "predict_std", "ml.regressor_predict", None),
        (prediction, "rows_from_characterizations", "ml.model", None),
        (adaptive._Surrogate, "fit", "adaptive.surrogate_fit", None),
        (adaptive, "select_batch", "adaptive.select", None),
        (pareto, "aggregate_points", "pareto", None),
        (pareto, "pareto_frontier", "pareto", None),
        (pareto, "nondominated_mask", "pareto", None),
        (pareto, "rank_frontier", "pareto", None),
        (jobs, "synthesize_entry", "synth", None),
        (SynthesisCache, "load", "synth_cache.load", None),
        (SynthesisCache, "store_design", "synth_cache.store", None),
        (jobs, "build_simulator", "lower", None),
        (plan, "build_group_simulator", "lower", None),
        (jobs, "execute_job", "simulate", _job_cycles),
        (jobs, "golden_reference", "simulate", _job_cycles),
        (jobs, "run_timing", "simulate", _job_cycles),
        (plan, "execute_group", "simulate", _group_cycles),
        (sweep, "score_characterization", "score", None),
        (generators.WorkloadSpec, "generate", "workload", None),
        (generators, "uniform_workload", "workload", None),
        (runner, "run_fig9", "report", None),
        (runner, "run_fig10", "report", None),
        (prediction.PredictionStudyResult, "format_abper_table", "report", None),
        (prediction.PredictionStudyResult, "format_avpe_table", "report", None),
        (Fig9Result, "format_table", "report", None),
        (Fig10Result, "format_table", "report", None),
    ]
    for backend in (backends.SerialBackend, backends.MultiprocessBackend,
                    plan.PlannedBackend):
        targets.append((backend, "run", "runtime", None))
        targets.append((backend, "run_tasks", "runtime", None))
    targets.append((backends.MultiprocessBackend, "run_calls", "runtime", None))
    targets.append((CachingBackend, "run", "runtime", None))
    return targets


@contextmanager
def instrument(ledger: Ledger, results_dir_name: str) -> Iterator[None]:
    """Wrap every layer entry point for the ``with`` block, then restore.

    A ``ResultStore`` rooted at a directory named ``results_dir_name`` is
    the result cache: its ``load``/``store`` calls are the ``store.*``
    layer (the synthesis cache's own store I/O is inside
    ``synth_cache.*``).
    """
    from repro.obs import span as obs_span
    from repro.runtime.store import ResultStore

    patched: List[Tuple[object, str, object]] = []

    def wrap(function: Callable, layer_of: Callable, attrs_of) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            layer = layer_of(args)
            if layer is None:
                return function(*args, **kwargs)
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else {}
            with ledger.span(layer, attrs), obs_span(OBS_PREFIX + layer, **attrs):
                return function(*args, **kwargs)
        return wrapper

    def patch(owner, name: str, layer_of: Callable, attrs_of) -> None:
        original = owner.__dict__[name]
        wrapper = wrap(original, layer_of, attrs_of)
        if isinstance(owner, type):
            patched.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.split(".")[0] == "repro"
                    and getattr(module, name, None) is original):
                patched.append((module, name, original))
                setattr(module, name, wrapper)

    def store_layer(suffix: str) -> Callable:
        return lambda args: (f"store.{suffix}"
                             if args[0].root.name == results_dir_name else None)

    try:
        for owner, name, layer, attrs_of in _targets():
            patch(owner, name, lambda args, layer=layer: layer, attrs_of)
        patch(ResultStore, "load", store_layer("load"), None)
        patch(ResultStore, "store", store_layer("store"), None)
        yield
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


# --------------------------------------------------------------------- #
# Reduction: spans -> per-layer numbers
# --------------------------------------------------------------------- #
class LayerTotals:
    """Per-layer busy time, self time, calls and summed attributes."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.attrs: Dict[str, Dict[str, float]] = {}
        self.roots_s = 0.0

    def add(self, layer: str, busy: float, self_s: float, calls: int,
            attrs: dict) -> None:
        self.busy[layer] = self.busy.get(layer, 0.0) + busy
        self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
        self.calls[layer] = self.calls.get(layer, 0) + calls
        bucket = self.attrs.setdefault(layer, {})
        for key, value in attrs.items():
            bucket[key] = bucket.get(key, 0) + value


def main_totals(ledger: Ledger) -> LayerTotals:
    """Reduce the main process's spans.

    ``busy`` and ``calls`` count a span only when no ancestor belongs to
    the same layer (nested calls such as ``predict`` -> ``predict_proba``
    are not double counted); ``self`` is a span's duration minus its
    children's.
    """
    totals = LayerTotals()
    spans = ledger.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        duration = end - start
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if parent < 0:
            totals.roots_s += duration
        totals.add(name, 0.0 if nested else duration, duration - child_time[index],
                   0 if nested else 1, {} if nested else attrs)
    return totals


def worker_totals(tracer) -> Tuple[LayerTotals, float]:
    """Reduce the spilled worker spans of a ``repro.obs`` tracer.

    Returns the per-layer totals (busy and calls; self time is not
    derivable from path aggregates and stays equal to busy) and the
    workers' summed task-busy seconds.
    """
    totals = LayerTotals()
    busy = 0.0
    for worker in tracer.workers.values():
        busy += worker["busy_s"]
        for path, stats in worker["spans"].items():
            parts = path.split("/")
            leaf = parts[-1]
            if not leaf.startswith(OBS_PREFIX):
                continue
            if leaf in parts[:-1]:
                continue
            layer = leaf[len(OBS_PREFIX):]
            numeric = {key: value for key, value in stats.attrs.items()
                       if isinstance(value, (int, float)) and not isinstance(value, bool)}
            totals.add(layer, stats.wall_s, stats.wall_s, stats.calls, numeric)
    return totals, busy


def obs_span_wall(tracer, leaf: str) -> float:
    """Main-process wall seconds of ``repro.obs`` spans named ``leaf``."""
    return sum(stats.wall_s for path, stats in tracer.spans.items()
               if path.split("/")[-1] == leaf)
