"""Smoke-size self-test of the benchmark: every workload, every check.

Run from the root of a checkout (about 15 s on two CPUs)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size smoke --held-out --trace 1``:
small inputs outside the golden pool, so only the golden-free checks
apply (job counts, cache hits, warm-search determinism, and for
``sweep_cold`` serial-vs-multiprocess bit-identity).  It asserts that
every check passed, that the result line has exactly the contract's
keys, that every per-layer metric named in ``BENCHMARK.json`` is
reported, and that each workload exercises and bypasses the layers the
benchmark claims.  It then runs one untraced smoke run per workload and
checks the end-to-end metric names the same way, and finally checks
that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per workload: per-layer metrics that must be non-zero / exactly zero.
EXERCISED = {
    "figures": ["ml.classifier_fit_calls", "synth.calls", "lower.calls",
                "simulate.calls", "report.busy_s", "experiments.prediction_abper"],
    "sweep_cold": ["synth.calls", "lower.calls", "simulate.calls", "score.busy_s",
                   "synth_cache.entries_written", "store.store_calls",
                   "store.bytes_written", "runtime.wait_s", "runtime.worker_busy_s"],
    "adaptive_warm": ["ml.regressor_fit_calls", "adaptive.rounds",
                      "adaptive.surrogate_fit_s", "adaptive.select_s", "pareto.calls",
                      "store.load_calls"],
}
BYPASSED = {
    "figures": ["ml.regressor_fit_calls", "adaptive.rounds", "pareto.calls",
                "store.load_calls", "synth_cache.entries_written"],
    "sweep_cold": ["ml.classifier_fit_calls", "ml.regressor_fit_calls",
                   "adaptive.rounds", "cache.hit_ratio", "report.busy_s"],
    "adaptive_warm": ["synth.calls", "lower.calls", "simulate.calls", "runtime.jobs",
                      "ml.classifier_fit_calls", "synth_cache.entries_written",
                      "store.store_calls"],
}


def run(workload: str, trace: int, cwd: Path = ROOT, extra=("--size", "smoke",
                                                              "--held-out")):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
               workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
               *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(completed) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"exit {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    return result


def check_traced(workload: str) -> None:
    metrics = result_of(run(workload, 1))["metrics"]
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, (workload, name, metrics[name])
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, (workload, name, metrics[name])
    if workload == "adaptive_warm":
        assert metrics["cache.hit_ratio"]["value"] == 1.0, metrics["cache.hit_ratio"]


def check_untraced(workload: str) -> None:
    metrics = result_of(run(workload, 0))["metrics"]
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit and metrics[name]["value"] > 0, metrics[name]
    assert metrics["setup_s"]["value"] < metrics["wall_s"]["value"] * 100


def check_refuses_without_sources() -> None:
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("figures", 0, cwd=bare, extra=())
        assert completed.returncode != 0, completed.stdout
        assert not completed.stdout.strip(), completed.stdout


def main() -> int:
    for workload in EXERCISED:
        check_traced(workload)
        check_untraced(workload)
        print(f"ok {workload}")
    check_refuses_without_sources()
    print("ok refuses to run without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
