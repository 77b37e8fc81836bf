"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` seconds
(whole iterations, at least one) and reports the end-to-end metrics;
``--trace 1`` does the same, then runs one more iteration under the
benchmark's layer wrappers (:mod:`ledger`) and reports the per-layer
metrics instead.  Every iteration's outputs are checked (:mod:`suite`);
the last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``.  ``--held-out`` and ``--size smoke`` serve the
self-test (``selftest.py``).

The process reads and writes only inside the checkout: ``REPRO_*``
variables are dropped, temporary files go to ``.perfbench/``, and the
traced run's spans are written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("figures", "sweep_cold", "adaptive_warm")

#: Per-layer metrics: name -> (unit, where the number comes from).
PER_LAYER = {
    "ml.classifier_fit_s": ("s", "ledger"),
    "ml.classifier_fit_calls": ("count", "ledger"),
    "ml.classifier_predict_s": ("s", "ledger"),
    "ml.regressor_fit_s": ("s", "ledger"),
    "ml.regressor_fit_calls": ("count", "ledger"),
    "ml.regressor_predict_s": ("s", "ledger"),
    "ml.model_self_s": ("s", "ledger"),
    "adaptive.surrogate_fit_s": ("s", "ledger"),
    "adaptive.select_s": ("s", "ledger"),
    "adaptive.rounds": ("count", "workload output"),
    "adaptive.simulated_jobs": ("count", "workload output"),
    "adaptive.frontier_recall": ("ratio", "workload output"),
    "pareto.busy_s": ("s", "ledger"),
    "pareto.calls": ("count", "ledger"),
    "synth.busy_s": ("s", "ledger + worker spill"),
    "synth.calls": ("count", "ledger + worker spill"),
    "synth_cache.load_s": ("s", "ledger + worker spill"),
    "synth_cache.store_s": ("s", "ledger + worker spill"),
    "synth_cache.entries_written": ("count", "store directory"),
    "lower.busy_s": ("s", "ledger + worker spill"),
    "lower.calls": ("count", "ledger + worker spill"),
    "simulate.busy_s": ("s", "ledger + worker spill"),
    "simulate.calls": ("count", "ledger + worker spill"),
    "simulate.cycles": ("count", "ledger + worker spill"),
    "simulate.cycles_per_s": ("1/s", "ledger + worker spill"),
    "runtime.self_s": ("s", "ledger"),
    "runtime.wait_s": ("s", "repro.obs span schedule.wait"),
    "runtime.worker_busy_s": ("s", "worker spill (multiprocess) or ledger (serial)"),
    "runtime.worker_idle_s": ("s", "derived: workers x wall - busy"),
    "runtime.jobs": ("count", "repro.obs metric jobs.simulated"),
    "runtime.groups": ("count", "repro.obs metric plan.groups"),
    "runtime.jobs_per_group": ("count", "repro.obs metric plan.group_size"),
    "runtime.tasks_retried": ("count", "repro.obs metric tasks.retried"),
    "runtime.pool_rebuilds": ("count", "repro.obs metric pool.rebuilds"),
    "store.load_s": ("s", "ledger"),
    "store.load_calls": ("count", "ledger"),
    "store.store_s": ("s", "ledger"),
    "store.store_calls": ("count", "ledger"),
    "store.bytes_written": ("bytes", "store directory"),
    "cache.hit_ratio": ("ratio", "repro.obs metrics cache.hits/misses"),
    "score.busy_s": ("s", "ledger"),
    "workload.busy_s": ("s", "ledger"),
    "report.busy_s": ("s", "ledger"),
    "experiments.prediction_abper": ("ratio", "workload output"),
    "unattributed_s": ("s", "ledger: wall - root spans"),
    "tracing_overhead": ("ratio", "traced wall / untraced median wall"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="input sizes; goldens describe 'full' only")
    parser.add_argument("--held-out", action="store_true",
                        help="use inputs outside the golden pool and check them "
                             "against golden-free invariants only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def isolate_environment() -> list:
    """Drop every ``REPRO_*`` variable; the workloads pass settings explicitly."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def peak_rss_mb(with_workers: bool) -> float:
    """Peak resident memory of this process, plus its largest reaped worker.

    Only the multiprocess workload has children (its pool workers, all
    joined by then); elsewhere the children's figure is left out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                if with_workers else 0)
    return (own + children) / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'repro'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    dropped = isolate_environment()
    workdir = WORK_ROOT / f"work-{os.getpid()}"
    temp = workdir / "tmp"
    temp.mkdir(parents=True)
    # Pool spill files and planner trace spills go through tempfile.
    os.environ["TMPDIR"] = str(temp)
    tempfile.tempdir = str(temp)
    try:
        result = run(args, workdir, dropped)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir: Path, dropped: list) -> dict:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import suite
    import_s = time.perf_counter() - started

    from repro.obs.manifest import host_facts

    inputs = suite.inputs_for(args.seed, held_out=args.held_out, size=args.size)
    workload = suite.WORKLOADS[args.workload](inputs, workdir)
    attempted = failed = 0
    problems_seen = []

    def attempt(action):
        nonlocal attempted, failed
        attempted += 1
        try:
            outcome, problems = action()
        except Exception:
            outcome, problems = None, ["raised:\n" + traceback.format_exc()]
        if problems:
            failed += 1
            problems_seen.extend(problems)
            for problem in problems:
                print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
        return outcome

    def iteration(label: str):
        outcome = workload.iterate(label)
        return outcome, workload.check(outcome)

    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            began = time.perf_counter()
            workload.prepare()
            setup_times.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setup_times)

        outcomes = []
        loop_start = time.perf_counter()
        while True:
            outcome = attempt(lambda: iteration(f"iter{attempted}"))
            if outcome is not None:
                outcomes.append(outcome)
            if time.perf_counter() - loop_start >= args.seconds:
                break
        if args.held_out and args.workload == "sweep_cold" and outcomes:
            attempt(lambda: (None, workload.serial_matches(outcomes[-1])))

        walls = [outcome.wall_s for outcome in outcomes]
        report = {"workload": args.workload, "seed": args.seed,
                  "variant": inputs.variant, "held_out": args.held_out,
                  "size": args.size, "settings": workload.settings(),
                  "dropped_env": dropped, "iterations_s": walls,
                  "setup_repeats_s": setup_times, "import_s": import_s,
                  "problems": problems_seen}
        if outcomes and "ml_tables_identical" in outcomes[-1].outputs:
            report["ml_tables_identical"] = outcomes[-1].outputs["ml_tables_identical"]
        metrics = {}
        if args.trace:
            metrics = traced_metrics(suite, workload, walls, attempt, args, report)
        elif walls:
            wall = statistics.median(walls)
            workload.close()
            metrics = {
                "wall_s": metric(wall, "s"),
                "setup_s": metric(setup_s, "s"),
                "points_per_s": metric(outcomes[0].points / wall, "1/s"),
                "peak_rss_mb": metric(peak_rss_mb(workload.workers > 1), "MiB"),
            }
    finally:
        workload.close()
    # host_facts() forks a child, so it runs after peak_rss_mb().
    report["host"] = host_facts()
    print(json.dumps({"perfbench_report": report}, default=str))
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_metrics(suite, workload, walls, attempt, args, report) -> dict:
    """Run one iteration under the layer wrappers; its per-layer metrics.

    The wrappers record into the benchmark's :class:`ledger.Ledger`; a
    ``repro.obs`` tracer and metrics registry are active alongside, so
    multiprocess workers spill their spans and counters back to them.
    """
    import ledger
    from repro.obs import MetricsRegistry, Tracer, metrics_run, trace_run

    book, tracer, registry = ledger.Ledger(), Tracer(), MetricsRegistry()
    origin = time.perf_counter()

    def traced_iteration():
        with trace_run(tracer), metrics_run(registry), \
                ledger.instrument(book, suite.RESULTS_DIR):
            outcome = workload.iterate("traced")
        return outcome, workload.check(outcome)

    outcome = attempt(traced_iteration)
    if outcome is None or not walls:
        return {}
    values = layer_values(book, tracer, registry, outcome, workload)
    values["tracing_overhead"] = outcome.wall_s / statistics.median(walls)
    metrics = {name: metric(values[name], unit)
               for name, (unit, _) in PER_LAYER.items()}
    report["layer_sources"] = {name: source for name, (_, source) in PER_LAYER.items()}
    report["layer_shares"] = layer_shares(values, outcome.wall_s)
    dump = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "traced_wall_s": outcome.wall_s,
        "spans": book.as_records(origin),
        "repro_obs": tracer.snapshot(), "repro_obs_metrics": registry.snapshot(),
        "metrics": metrics, "sources": report["layer_sources"]}, default=str))
    report["trace_file"] = str(dump.relative_to(ROOT))
    return metrics


def layer_shares(values: dict, wall: float) -> dict:
    """The shares that show which layers a workload stresses."""
    execution = sum(values[name] for name in
                    ("synth.busy_s", "lower.busy_s", "simulate.busy_s"))
    worker_busy = values["runtime.worker_busy_s"]
    return {
        "ml_classifier_of_wall": (values["ml.classifier_fit_s"]
                                  + values["ml.classifier_predict_s"]) / wall,
        "regressor_fit_of_wall": values["ml.regressor_fit_s"] / wall,
        "synth_lower_simulate_of_worker_busy":
            execution / worker_busy if worker_busy else 0.0,
        "ml_calls": values["ml.classifier_fit_calls"] + values["ml.regressor_fit_calls"],
        "synth_lower_simulate_calls": (values["synth.calls"] + values["lower.calls"]
                                       + values["simulate.calls"]),
    }


def layer_values(book, tracer, registry, outcome, workload) -> dict:
    """Reduce one traced iteration to the numbers named in ``PER_LAYER``."""
    import ledger

    parent = ledger.main_totals(book)
    workers, spilled_busy = ledger.worker_totals(tracer)

    def busy(layer):
        return parent.busy.get(layer, 0.0) + workers.busy.get(layer, 0.0)

    def calls(layer):
        return parent.calls.get(layer, 0) + workers.calls.get(layer, 0)

    counters = registry.counters
    group_sizes = registry.histograms.get("plan.group_size")
    outputs = outcome.outputs
    wall = outcome.wall_s
    cycles = (parent.attrs.get("simulate", {}).get("cycles", 0)
              + workers.attrs.get("simulate", {}).get("cycles", 0))
    if workload.workers > 1:
        worker_busy = spilled_busy
    else:
        worker_busy = sum(parent.busy.get(layer, 0.0)
                          for layer in ledger.EXECUTION_LAYERS)
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    empty = {"entries": 0, "bytes": 0}
    return {
        "ml.classifier_fit_s": busy("ml.classifier_fit"),
        "ml.classifier_fit_calls": calls("ml.classifier_fit"),
        "ml.classifier_predict_s": busy("ml.classifier_predict"),
        "ml.regressor_fit_s": busy("ml.regressor_fit"),
        "ml.regressor_fit_calls": calls("ml.regressor_fit"),
        "ml.regressor_predict_s": busy("ml.regressor_predict"),
        "ml.model_self_s": parent.self_s.get("ml.model", 0.0),
        "adaptive.surrogate_fit_s": busy("adaptive.surrogate_fit"),
        "adaptive.select_s": busy("adaptive.select"),
        "adaptive.rounds": outputs.get("rounds", 0),
        "adaptive.simulated_jobs": outputs.get("requested", 0),
        "adaptive.frontier_recall": outputs.get("recall", 0.0),
        "pareto.busy_s": busy("pareto"),
        "pareto.calls": calls("pareto"),
        "synth.busy_s": busy("synth"),
        "synth.calls": calls("synth"),
        "synth_cache.load_s": busy("synth_cache.load"),
        "synth_cache.store_s": busy("synth_cache.store"),
        "synth_cache.entries_written": outputs.get("synth_written", empty)["entries"],
        "lower.busy_s": busy("lower"),
        "lower.calls": calls("lower"),
        "simulate.busy_s": busy("simulate"),
        "simulate.calls": calls("simulate"),
        "simulate.cycles": cycles,
        "simulate.cycles_per_s": cycles / busy("simulate") if busy("simulate") else 0.0,
        "runtime.self_s": parent.self_s.get("runtime", 0.0),
        "runtime.wait_s": ledger.obs_span_wall(tracer, "schedule.wait"),
        "runtime.worker_busy_s": worker_busy,
        "runtime.worker_idle_s": max(0.0, workload.workers * wall - worker_busy),
        "runtime.jobs": counters.get("jobs.simulated", 0),
        "runtime.groups": counters.get("plan.groups", 0),
        "runtime.jobs_per_group": group_sizes.mean if group_sizes is not None else 0.0,
        "runtime.tasks_retried": counters.get("tasks.retried", 0),
        "runtime.pool_rebuilds": counters.get("pool.rebuilds", 0),
        "store.load_s": busy("store.load"),
        "store.load_calls": calls("store.load"),
        "store.store_s": busy("store.store"),
        "store.store_calls": calls("store.store"),
        "store.bytes_written": outputs.get("result_written", empty)["bytes"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "score.busy_s": busy("score"),
        "workload.busy_s": busy("workload"),
        "report.busy_s": busy("report"),
        "experiments.prediction_abper": outputs.get("prediction_abper", 0.0),
        "unattributed_s": wall - parent.roots_s,
    }


if __name__ == "__main__":
    sys.exit(main())
