"""Throughput benchmarks (A4): how fast the substrate itself is.

Two entry points share this module:

* classic pytest-benchmark micro-benchmarks (multiple rounds) for the
  operations the experiments lean on: vectorised behavioural ISA
  characterisation, zero-delay netlist evaluation on both engines, the
  fast timing simulator on both engines, and synthesis of a full design;

* a standalone script mode (``python benchmarks/bench_throughput.py``)
  that measures the compiled bit-packed engine against the dense
  reference engine on a 32-bit adder trace, measures the execution
  backends of :mod:`repro.runtime` (serial vs multiprocess) on an
  end-to-end characterization of the twelve paper designs, measures the
  persistent result cache cold (simulate + persist) vs warm (every job
  served bit-identically from disk), measures the design-space
  explorer's sweep throughput (designs x clock points per second, cold
  vs warm) for both registered operator families (the adder space and
  the multiplier space through the same cached pipeline), measures the
  adaptive frontier-guided search against the
  exhaustive width-16 sweep (frontier recall at a fifth of the space,
  plus a warm re-run that must simulate nothing), measures the overhead
  of full runtime telemetry (span tracing, metrics, run manifests) on a
  batched sweep — tracing-on must stay within 2 % of tracing-off — and
  records
  everything — with backend, worker count and host metadata — in
  ``BENCH_throughput.json`` at the repository root,
  so the performance trajectory of the simulation core is tracked
  across PRs.  The reference engine executes the seed algorithm
  (per-gate ``uint8`` logic, dense float64 arrival times), making the
  reported speedup a conservative bound on the gain over the seed
  implementation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

from repro.core.config import ISAConfig
from repro.core.isa import InexactSpeculativeAdder
from repro.experiments.common import StudyConfig, characterize_designs
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.timing.fast_sim import FastTimingSimulator
from repro.workloads.generators import uniform_workload

CONFIG = ISAConfig.from_quadruple((8, 0, 0, 4))

#: Clock period used for single-clock timing benchmarks (the paper's 15 % CPR).
BENCH_CLOCK = 2.55e-10

#: Speedup the compiled engine must reach over the reference engine on the
#: 32-bit adder trace (the acceptance bar of the compiled-engine PR).
SPEEDUP_TARGET = 10.0

#: End-to-end speedup the multiprocess backend must reach over serial on
#: the 12-design characterization workload, on hosts with at least as
#: many CPUs as workers (the acceptance bar of the runtime PR).
BACKEND_SPEEDUP_TARGET = 2.0

#: Cold sweep-throughput gain the batched planner path must reach over
#: per-job execution on the multi-design width-16 sweep (the acceptance
#: bar of the planner PR); CI only asserts "no slower" (>= 1.0) to stay
#: robust on noisy shared runners.
BATCHED_SWEEP_TARGET = 2.0

#: Cold sweep-throughput gain the vectorized synthesis kernels (plus
#: clock-specialised lowering) must reach over the reference per-gate
#: kernels on the width-16 design-space sweep; CI asserts "no slower"
#: (>= 1.0) to stay robust on noisy shared runners.
SYNTH_VECTOR_TARGET = 1.5

#: End-to-end gain a warm persistent synthesis cache must reach over the
#: reference baseline on the same sweep (the warm pass additionally must
#: synthesize zero designs, which CI asserts unconditionally).
SYNTH_WARM_TARGET = 2.0

#: Fraction of the exhaustive Pareto frontier the adaptive search must
#: recover at width 16 (the acceptance bar of the adaptive-explorer PR).
ADAPTIVE_RECALL_TARGET = 0.9

#: Share of the width-16 quadruple space the adaptive search may
#: simulate while clearing the recall bar.
ADAPTIVE_BUDGET_FRACTION = 0.2

#: Slowdown budget of full telemetry (span tracing, metrics, manifest)
#: on a batched width-16 sweep: tracing-on must stay within 2 % of
#: tracing-off (the acceptance bar of the observability PR).
TELEMETRY_OVERHEAD_TARGET = 1.02

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


# --------------------------------------------------------------------- #
# pytest-benchmark micro-benchmarks
# --------------------------------------------------------------------- #
if pytest is not None:

    @pytest.fixture(scope="module")
    def operands():
        trace = uniform_workload(20000, width=32, seed=3)
        return trace

    @pytest.fixture(scope="module")
    def synthesized():
        return synthesize(CONFIG)

    @pytest.mark.benchmark(group="throughput")
    def test_behavioural_isa_throughput(benchmark, operands):
        """Vectorised golden-model characterisation (20k additions per round)."""
        adder = InexactSpeculativeAdder(CONFIG)
        result = benchmark(adder.add_many, operands.a, operands.b)
        assert result.shape == operands.a.shape

    @pytest.mark.benchmark(group="throughput")
    def test_structural_stats_throughput(benchmark, operands):
        """Golden model with per-block fault attribution (Fig. 10 structural series)."""
        adder = InexactSpeculativeAdder(CONFIG)
        result, stats = benchmark(adder.add_many_with_stats, operands.a, operands.b)
        assert stats.cycles == operands.length

    @pytest.mark.benchmark(group="throughput")
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_netlist_logic_evaluation_throughput(benchmark, operands, synthesized, engine):
        """Zero-delay gate-level evaluation of the synthesized ISA netlist."""
        chunk = {"A": operands.a[:4000], "B": operands.b[:4000],
                 "cin": np.zeros(4000, dtype=np.uint64)}
        words = benchmark(synthesized.netlist.compute_words, chunk, "S", engine)
        assert words.shape == (4000,)

    @pytest.mark.benchmark(group="throughput")
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_fast_timing_simulation_throughput(benchmark, operands, synthesized, engine):
        """Two-vector timing simulation at the paper's 15% CPR clock, per engine."""
        simulator = FastTimingSimulator(synthesized.netlist, synthesized.annotation,
                                        engine=engine)
        trace_operands = {"A": operands.a[:3000], "B": operands.b[:3000],
                          "cin": np.zeros(3000, dtype=np.uint64)}
        trace = benchmark(simulator.run_trace, trace_operands, BENCH_CLOCK)
        assert trace.cycles == 2999

    @pytest.mark.benchmark(group="throughput")
    def test_synthesis_flow_throughput(benchmark):
        """Full synthesis flow (generate, optimise, size, annotate) of one ISA."""
        design = benchmark(synthesize, ISAConfig.from_quadruple((16, 2, 1, 6)))
        assert design.netlist.num_gates > 0


# --------------------------------------------------------------------- #
# Standalone engine + backend comparison (writes BENCH_throughput.json)
# --------------------------------------------------------------------- #
def host_metadata() -> dict:
    """CPU count, Python version and platform of the benchmark host."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_backend_comparison(cycles: int = 600, workers: int = 4,
                           backends=("serial", "multiprocess"),
                           simulator: str = "event", engine: str = "auto") -> dict:
    """Measure the runtime backends on an end-to-end characterization.

    Characterises the twelve paper designs over one shared trace with
    the requested simulator tier — by default the event-driven reference
    tier, the expensive path the paper's Fig. 7-10 studies pay for —
    once per backend, asserting that all backends produce bit-identical
    sampled outputs.  Returns the record section with per-backend wall
    times, the multiprocess-over-serial speedup, worker count and job
    count.
    """
    timings: dict = {}
    reference_results = None
    job_count = 0
    for backend in backends:
        # cache_dir is pinned off: a result-cache hit on the second
        # backend would turn the serial-vs-multiprocess comparison into
        # a disk-read benchmark.
        config = StudyConfig(simulator=simulator, engine=engine, backend=backend,
                             workers=workers, characterization_length=max(cycles, 16),
                             trace_scale=1.0, cache_dir=None)
        entries = config.design_entries()
        job_count = len(entries)
        trace = config.characterization_trace()
        started = time.perf_counter()
        results = characterize_designs(entries, trace, config)
        elapsed = time.perf_counter() - started
        timings[backend] = elapsed
        if reference_results is None:
            reference_results = results
        else:
            for want, got in zip(reference_results, results):
                for clk, timing in want.timing_traces.items():
                    other = got.timing_traces[clk]
                    assert np.array_equal(timing.sampled_words, other.sampled_words), \
                        f"backends disagree on {want.name} sampled words at clock {clk}"
                    assert np.array_equal(timing.settled_words, other.settled_words), \
                        f"backends disagree on {want.name} settled words at clock {clk}"

    record = {
        "jobs": job_count,
        "trace_cycles": max(cycles, 16),
        "simulator": simulator,
        "engine": engine,
        "workers": workers,
        "speedup_target": BACKEND_SPEEDUP_TARGET,
        "backends": {backend: {"wall_s": timings[backend]} for backend in timings},
    }
    if "serial" in timings and "multiprocess" in timings:
        record["speedup"] = timings["serial"] / timings["multiprocess"]
        cpus = os.cpu_count() or 1
        if cpus < workers:
            # The bar is only meaningful when the host can actually run
            # the workers in parallel; record the bound instead of a
            # guaranteed-failed verdict.
            record["note"] = (
                f"host exposes {cpus} CPU(s) for {workers} workers; the achievable "
                "speedup is bounded by the CPU count, not by the backend")
        else:
            record["passed"] = record["speedup"] >= BACKEND_SPEEDUP_TARGET
    return record


def run_cache_comparison(cycles: int = 600, simulator: str = "fast",
                         engine: str = "auto") -> dict:
    """Cold vs warm wall time of the persistent result cache.

    Characterises the twelve paper designs twice against one throwaway
    cache directory: the cold run simulates and persists, the warm run
    must serve every job from disk (zero simulation) bit-identically.
    Returns the record section with both wall times, the warm speedup
    and the hit/miss counters of each pass.
    """
    from repro.experiments.common import shutdown_backends
    from repro.runtime import CachingBackend

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        config = StudyConfig(simulator=simulator, engine=engine, backend="serial",
                             characterization_length=max(cycles, 16),
                             trace_scale=1.0, cache_dir=cache_dir)
        entries = config.design_entries()
        trace = config.characterization_trace()
        backend = config.runtime_backend()
        assert isinstance(backend, CachingBackend)

        started = time.perf_counter()
        cold_results = characterize_designs(entries, trace, config)
        cold_s = time.perf_counter() - started
        cold_misses = backend.stats.misses

        started = time.perf_counter()
        warm_results = characterize_designs(entries, trace, config)
        warm_s = time.perf_counter() - started
        warm_hits = backend.stats.hits

        for want, got in zip(cold_results, warm_results):
            for clk, timing in want.timing_traces.items():
                other = got.timing_traces[clk]
                assert np.array_equal(timing.sampled_words, other.sampled_words), \
                    f"warm cache run disagrees on {want.name} at clock {clk}"
        assert backend.stats.misses == cold_misses, "warm run executed simulation jobs"

        return {
            "jobs": len(entries),
            "trace_cycles": max(cycles, 16),
            "simulator": simulator,
            "engine": engine,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "cold_misses": cold_misses,
            "warm_hits": warm_hits,
        }
    finally:
        shutdown_backends()
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_explore_comparison(width: int = 16, max_designs: int = 24,
                           length: int = 256) -> dict:
    """Sweep throughput of the design-space explorer, cold vs warm.

    Enumerates and subsamples the quadruple space at ``width``, sweeps
    it (plus the exact baseline) over the four default clock points
    through the cached job pipeline against a throwaway cache
    directory, then repeats the sweep warm — asserting zero simulated
    jobs and point-for-point identical scores.  Records designs, jobs,
    points and the cold sweep throughput in (design x clock) points per
    second.
    """
    from repro.explore import DesignSpace, SweepSpec, run_sweep, sweep_clock_plan
    from repro.runtime import CachingBackend
    from repro.workloads.generators import WorkloadSpec

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-explore-")
    try:
        entries = DesignSpace(width=width).entries(max_designs=max_designs)
        spec = SweepSpec(
            entries=tuple(entries),
            clock_plan=sweep_clock_plan(),
            workloads=(WorkloadSpec("uniform", length, width=width, seed=3),),
            simulator="fast",
            width=width,
        )
        backend = CachingBackend("serial", cache_dir)

        started = time.perf_counter()
        cold = run_sweep(spec, backend=backend)
        cold_s = time.perf_counter() - started
        cold_misses = backend.stats.misses

        started = time.perf_counter()
        warm = run_sweep(spec, backend=backend)
        warm_s = time.perf_counter() - started

        assert backend.stats.misses == cold_misses, "warm sweep executed simulation jobs"
        assert cold.points == warm.points, "warm sweep disagrees with the cold one"

        return {
            "width": width,
            "designs": len(spec.entries),
            "jobs": spec.job_count,
            "points": spec.point_count,
            "trace_cycles": length,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "points_per_s": spec.point_count / cold_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_multiplier_sweep_comparison(width: int = 8, max_designs: int = 32,
                                    length: int = 256) -> dict:
    """Sweep throughput of the multiplier operator family, cold vs warm.

    The registry counterpart of :func:`run_explore_comparison`: resolve
    the ``multiplier`` family, enumerate and subsample its quadruple
    space at ``width``, sweep it (plus the exact array-multiplier
    baseline) over the family's safe period and the paper's CPR levels
    through the cached job pipeline, then repeat the sweep warm —
    asserting zero simulated jobs and point-for-point identical scores.
    Records designs, jobs, points and the cold sweep throughput in
    (design x clock) points per second, proving a second operator
    family pays no throughput tax in the shared pipeline.
    """
    from repro.explore import SweepSpec, run_sweep
    from repro.families import get_family
    from repro.runtime import CachingBackend
    from repro.timing.clocking import PAPER_CPR_LEVELS, ClockPlan
    from repro.workloads.generators import WorkloadSpec

    family = get_family("multiplier")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-mul-")
    try:
        entries = family.design_space(width).entries(max_designs=max_designs)
        spec = SweepSpec(
            entries=tuple(entries),
            clock_plan=ClockPlan(safe_period=family.safe_period(width),
                                 cpr_levels=PAPER_CPR_LEVELS),
            workloads=(WorkloadSpec("uniform", length, width=width, seed=3),),
            simulator="fast",
            width=width,
        )
        backend = CachingBackend("serial", cache_dir)

        started = time.perf_counter()
        cold = run_sweep(spec, backend=backend)
        cold_s = time.perf_counter() - started
        cold_misses = backend.stats.misses

        started = time.perf_counter()
        warm = run_sweep(spec, backend=backend)
        warm_s = time.perf_counter() - started

        assert backend.stats.misses == cold_misses, \
            "warm multiplier sweep executed simulation jobs"
        assert cold.points == warm.points, \
            "warm multiplier sweep disagrees with the cold one"

        return {
            "family": "multiplier",
            "width": width,
            "designs": len(spec.entries),
            "jobs": spec.job_count,
            "points": spec.point_count,
            "trace_cycles": length,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "points_per_s": spec.point_count / cold_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_batched_sweep_comparison(width: int = 16, max_designs: int = 16,
                                 workloads: int = 8, length: int = 256,
                                 repeats: int = 3) -> dict:
    """Batched planner path vs per-job execution on a multi-design sweep.

    Expands a width-``width`` design-space sweep (``max_designs``
    quadruples plus the exact baseline x ``workloads`` workload traces x
    the four default clock points) into one job batch and runs it twice:
    once per-job on a bare serial backend (the reference path), once
    through the execution planner (grouped by design + clock plan,
    clock-specialised lowering, stacked multi-trace evaluation).  The
    two result sets are asserted bit-identical; the record carries both
    wall times and sweep throughputs in (design x workload x clock)
    points per second.  CI asserts the batched path is no slower; the
    committed artifact documents the actual speedup.
    """
    import numpy as np  # noqa: F811 - keep the section self-contained

    from repro.explore import DesignSpace, SweepSpec, sweep_clock_plan
    from repro.runtime import PlannedBackend, SerialBackend
    from repro.workloads.generators import WorkloadSpec

    entries = DesignSpace(width=width).entries(max_designs=max_designs)
    spec = SweepSpec(
        entries=tuple(entries),
        clock_plan=sweep_clock_plan(),
        workloads=tuple(WorkloadSpec("uniform", length, width=width, seed=3 + index)
                        for index in range(workloads)),
        simulator="fast",
        width=width,
    )
    jobs = spec.jobs()

    def per_job():
        return SerialBackend().run(jobs)

    def batched():
        return PlannedBackend(SerialBackend()).run(jobs)

    # Repeats interleave the two paths so slow host phases (shared
    # runners, thermal drift) hit both sides equally instead of
    # whichever happens to run second.
    per_job_s = batched_s = float("inf")
    reference = planned = None
    for _ in range(repeats):
        started = time.perf_counter()
        reference = per_job()
        per_job_s = min(per_job_s, time.perf_counter() - started)
        started = time.perf_counter()
        planned = batched()
        batched_s = min(batched_s, time.perf_counter() - started)
    for want, got in zip(reference, planned):
        assert np.array_equal(want.gold_words, got.gold_words), \
            f"batched planner disagrees on {want.name} golden words"
        assert np.array_equal(want.netlist_words, got.netlist_words), \
            f"batched planner disagrees on {want.name} netlist words"
        for clk, timing in want.timing_traces.items():
            other = got.timing_traces[clk]
            assert np.array_equal(timing.sampled_words, other.sampled_words), \
                f"batched planner disagrees on {want.name} sampled words at {clk}"
            assert np.array_equal(timing.settled_words, other.settled_words), \
                f"batched planner disagrees on {want.name} settled words at {clk}"

    speedup = per_job_s / batched_s if batched_s > 0 else float("inf")
    return {
        "width": width,
        "designs": len(spec.entries),
        "workloads": workloads,
        "jobs": spec.job_count,
        "points": spec.point_count,
        "trace_cycles": length,
        "per_job_s": per_job_s,
        "batched_s": batched_s,
        "per_job_points_per_s": spec.point_count / per_job_s,
        "batched_points_per_s": spec.point_count / batched_s,
        "speedup": speedup,
        "speedup_target": BATCHED_SWEEP_TARGET,
        "passed": speedup >= 1.0,
    }


def run_synth_flow_comparison(width: int = 16, max_designs: int = 64,
                              length: int = 256, repeats: int = 2) -> dict:
    """Synthesis-flow throughput: vectorized kernels and the synthesis cache.

    Runs one cold width-``width`` design-space sweep (``max_designs``
    quadruples plus the exact baseline x the four default clock points)
    three ways on the serial backend:

    * **reference** — the per-gate oracle kernels of ``tests/oracles.py``
      (swapped in by ``oracles.reference_kernels``) and no synthesis
      cache: the baseline of both speedup bars;
    * **vector** — the library's levelised NumPy synthesis kernels,
      still synthesizing every design (the cold bar: target
      ``SYNTH_VECTOR_TARGET``, CI asserts no slower);
    * **warm synth cache** — vector kernels plus a primed persistent
      synthesis cache: the sweep must synthesize *zero* designs (the
      phase counter is asserted, cold and warm) and clear the
      ``SYNTH_WARM_TARGET`` end-to-end bar.

    All three passes are asserted point-for-point identical; the
    in-process design memo is dropped between passes so each one pays
    its true cost.
    """
    from repro.explore import DesignSpace, SweepSpec, run_sweep, sweep_clock_plan
    from repro.obs import trace_run
    from repro.runtime.jobs import clear_design_cache
    from repro.runtime.synth_cache import configure_synth_cache
    from repro.workloads.generators import WorkloadSpec

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from oracles import reference_kernels

    entries = DesignSpace(width=width).entries(max_designs=max_designs)
    spec = SweepSpec(
        entries=tuple(entries),
        clock_plan=sweep_clock_plan(),
        workloads=(WorkloadSpec("uniform", length, width=width, seed=3),),
        simulator="fast",
        width=width,
    )
    designs = len(spec.entries)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-synth-")
    configure_synth_cache(None)

    def synthesized(tracer) -> int:
        return tracer.phase_totals().get("synthesize", {}).get("calls", 0)

    def cold_sweep(vector: bool):
        clear_design_cache()
        kernels = contextlib.nullcontext() if vector else reference_kernels()
        with kernels, trace_run() as tracer:
            started = time.perf_counter()
            result = run_sweep(spec, backend="serial")
            elapsed = time.perf_counter() - started
        return elapsed, result, synthesized(tracer)

    try:
        # Interleave the two cold paths so host noise hits both equally.
        reference_s = vector_s = float("inf")
        reference = vector = None
        synthesized_cold = 0
        for _ in range(repeats):
            elapsed, reference, _calls = cold_sweep(vector=False)
            reference_s = min(reference_s, elapsed)
            elapsed, vector, synthesized_cold = cold_sweep(vector=True)
            vector_s = min(vector_s, elapsed)
        assert reference.points == vector.points, \
            "vectorized synthesis sweep disagrees with the reference kernels"
        assert synthesized_cold == designs, \
            f"cold sweep synthesized {synthesized_cold} of {designs} designs"

        # Prime the persistent synthesis cache, then measure warm passes
        # that must not run the flow at all.
        configure_synth_cache(cache_dir)
        clear_design_cache()
        run_sweep(spec, backend="serial")
        warm_s = float("inf")
        warm = None
        synthesized_warm = 0
        for _ in range(repeats):
            clear_design_cache()
            with trace_run() as tracer:
                started = time.perf_counter()
                warm = run_sweep(spec, backend="serial")
                warm_s = min(warm_s, time.perf_counter() - started)
            synthesized_warm = synthesized(tracer)
            assert synthesized_warm == 0, \
                f"warm synth-cache sweep synthesized {synthesized_warm} designs"
        assert reference.points == warm.points, \
            "warm synth-cache sweep disagrees with the reference kernels"

        vector_speedup = reference_s / vector_s if vector_s > 0 else float("inf")
        warm_speedup = reference_s / warm_s if warm_s > 0 else float("inf")
        return {
            "width": width,
            "designs": designs,
            "jobs": spec.job_count,
            "points": spec.point_count,
            "trace_cycles": length,
            "reference_s": reference_s,
            "vector_s": vector_s,
            "warm_s": warm_s,
            "reference_designs_per_s": designs / reference_s,
            "vector_designs_per_s": designs / vector_s,
            "warm_designs_per_s": designs / warm_s,
            "vector_speedup": vector_speedup,
            "warm_speedup": warm_speedup,
            "vector_speedup_target": SYNTH_VECTOR_TARGET,
            "warm_speedup_target": SYNTH_WARM_TARGET,
            "cold_synthesized": synthesized_cold,
            "warm_synthesized": synthesized_warm,
            "passed": vector_speedup >= 1.0 and synthesized_warm == 0,
        }
    finally:
        configure_synth_cache(None)
        clear_design_cache()
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_telemetry_overhead_comparison(width: int = 16, max_designs: int = 16,
                                      workloads: int = 8, length: int = 256,
                                      repeats: int = 5) -> dict:
    """Full telemetry vs none on a batched sweep: overhead must stay tiny.

    Runs the same batched width-``width`` sweep twice per repeat —
    tracing off (no ambient tracer, every ``span()`` is a single
    context-variable read) and tracing on (a full ``telemetry_run``
    session with span tracing, the metrics registry, a ``--timings``
    tracer and a manifest written to a throwaway directory) — and
    compares best-of wall times.  The results are asserted bit-identical
    and the slowdown must stay within ``TELEMETRY_OVERHEAD_TARGET``
    (2 %): observability has to be cheap enough to leave on.
    """
    import numpy as np  # noqa: F811 - keep the section self-contained

    from repro.explore import DesignSpace, SweepSpec, sweep_clock_plan
    from repro.obs import telemetry_run, trace_run
    from repro.runtime import PlannedBackend, SerialBackend
    from repro.workloads.generators import WorkloadSpec

    entries = DesignSpace(width=width).entries(max_designs=max_designs)
    spec = SweepSpec(
        entries=tuple(entries),
        clock_plan=sweep_clock_plan(),
        workloads=tuple(WorkloadSpec("uniform", length, width=width, seed=3 + index)
                        for index in range(workloads)),
        simulator="fast",
        width=width,
    )
    jobs = spec.jobs()

    def plain():
        return PlannedBackend(SerialBackend()).run(jobs)

    def traced(directory):
        with telemetry_run(directory, command="bench-telemetry",
                           config={"jobs": len(jobs)}):
            with trace_run():
                return PlannedBackend(SerialBackend()).run(jobs)

    telemetry_dir = tempfile.mkdtemp(prefix="repro-bench-telemetry-")
    plain_s = traced_s = float("inf")
    reference = observed = None
    try:
        # Interleave the two modes so host noise hits both sides alike.
        for _ in range(repeats):
            started = time.perf_counter()
            reference = plain()
            plain_s = min(plain_s, time.perf_counter() - started)
            started = time.perf_counter()
            observed = traced(telemetry_dir)
            traced_s = min(traced_s, time.perf_counter() - started)
    finally:
        shutil.rmtree(telemetry_dir, ignore_errors=True)
    for want, got in zip(reference, observed):
        assert np.array_equal(want.gold_words, got.gold_words), \
            f"telemetry perturbed {want.name} golden words"
        assert np.array_equal(want.netlist_words, got.netlist_words), \
            f"telemetry perturbed {want.name} netlist words"

    overhead = traced_s / plain_s if plain_s > 0 else float("inf")
    return {
        "width": width,
        "designs": len(spec.entries),
        "workloads": workloads,
        "jobs": spec.job_count,
        "trace_cycles": length,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "overhead": overhead,
        "overhead_target": TELEMETRY_OVERHEAD_TARGET,
        "passed": overhead <= TELEMETRY_OVERHEAD_TARGET,
    }


def run_adaptive_search_comparison(width: int = 16, length: int = 128,
                                   cpr_levels=(0.0, 0.10), seed: int = 7) -> dict:
    """Adaptive frontier-guided search vs the exhaustive sweep.

    Sweeps the full width-``width`` quadruple space exhaustively (the
    reference frontier), then runs the surrogate-directed search of
    :mod:`repro.explore.adaptive` at its default 20 % budget against a
    throwaway result cache and scores the frontier-membership recall —
    the acceptance bar of the adaptive-explorer PR (recall >=
    ``ADAPTIVE_RECALL_TARGET`` simulating at most
    ``ADAPTIVE_BUDGET_FRACTION`` of the space).  A second, warm adaptive
    pass on the same cache must simulate zero jobs: batch selection is
    seed-deterministic, so every round re-requests exactly the designs
    the cold pass persisted.
    """
    from repro.experiments.designs import exact_entry
    from repro.explore import DesignSpace, SweepSpec, run_sweep, sweep_clock_plan
    from repro.explore.adaptive import AdaptiveSpec, frontier_recall, run_adaptive
    from repro.explore.pareto import aggregate_points, frontier_keys, pareto_frontier
    from repro.runtime import CachingBackend, SerialBackend
    from repro.workloads.generators import WorkloadSpec

    space = DesignSpace(width=width)
    template = SweepSpec(
        entries=(exact_entry(width),),
        clock_plan=sweep_clock_plan(tuple(cpr_levels)),
        workloads=(WorkloadSpec("uniform", length, width=width, seed=11),),
        simulator="fast",
        width=width,
    )

    started = time.perf_counter()
    exhaustive = run_sweep(template.with_entries(space.entries(include_exact=True)),
                           backend="serial")
    exhaustive_s = time.perf_counter() - started
    reference = pareto_frontier(aggregate_points(exhaustive.points))

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-adaptive-")
    try:
        spec = AdaptiveSpec(space=space, sweep=template, seed=seed)
        backend = CachingBackend(SerialBackend(), cache_dir)

        started = time.perf_counter()
        cold = run_adaptive(spec, backend=backend)
        adaptive_s = time.perf_counter() - started
        cold_misses = backend.stats.misses

        started = time.perf_counter()
        warm = run_adaptive(spec, backend=backend)
        warm_s = time.perf_counter() - started
        warm_simulated = backend.stats.misses - cold_misses

        assert frontier_keys(cold.frontier) == frontier_keys(warm.frontier), \
            "warm adaptive re-run recovered a different frontier"

        recall = frontier_recall(reference, cold.frontier)
        clock_points = len(template.clock_plan.cpr_levels)
        return {
            "width": width,
            "candidates": cold.candidates,
            "trace_cycles": length,
            "clock_points": clock_points,
            "exhaustive_s": exhaustive_s,
            "exhaustive_points_per_s": (cold.candidates + 1) * clock_points / exhaustive_s,
            "reference_frontier": len(reference),
            "adaptive_s": adaptive_s,
            "warm_s": warm_s,
            "simulated": cold.simulated,
            "fraction_simulated": cold.fraction_simulated,
            "rounds": len(cold.rounds),
            "recovered_frontier": len(cold.frontier),
            "recall": recall,
            "warm_simulated": warm_simulated,
            "speedup": exhaustive_s / adaptive_s if adaptive_s > 0 else float("inf"),
            "recall_target": ADAPTIVE_RECALL_TARGET,
            "budget_fraction_target": ADAPTIVE_BUDGET_FRACTION,
            "seed": seed,
            "note": "the bar is simulations avoided (80% of the space), not "
                    "wall time: at this CI-sized trace length the surrogate "
                    "fits rival the cheap simulations, while at production "
                    "trace lengths (or widths where exhaustive sweeps are "
                    "infeasible) per-design simulation cost dominates",
            "passed": (recall >= ADAPTIVE_RECALL_TARGET
                       and cold.fraction_simulated <= ADAPTIVE_BUDGET_FRACTION
                       and warm_simulated == 0),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _best_of(callable_, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_engine_comparison(cycles: int = 20000, repeats: int = 3) -> dict:
    """Measure compiled vs reference on a 32-bit adder trace.

    Returns the record written to ``BENCH_throughput.json``; sampled
    outputs of the two engines are asserted equal along the way.
    """
    options = SynthesisOptions()
    design = synthesize(exact_adder_netlist(32, options.adder_architecture), options)
    trace = uniform_workload(cycles, width=32, seed=3)
    operands = {"A": trace.a, "B": trace.b,
                "cin": np.zeros(cycles, dtype=np.uint64)}
    clocks = [2.85e-10, 2.70e-10, BENCH_CLOCK]

    reference = FastTimingSimulator(design.netlist, design.annotation,
                                    engine="reference")
    compiled = FastTimingSimulator(design.netlist, design.annotation,
                                   engine="compiled")

    record = {
        "design": f"exact {options.adder_architecture} 32-bit (sized)",
        "gates": design.netlist.num_gates,
        "trace_cycles": cycles,
        "baseline": "reference engine (seed algorithm: per-gate uint8 logic, "
                    "dense float64 arrival times)",
        "speedup_target": SPEEDUP_TARGET,
        "host": host_metadata(),
        "results": {},
    }

    # zero-delay logic evaluation
    ref_eval, ref_words = _best_of(
        lambda: design.netlist.compute_words(operands, engine="reference"), repeats)
    new_eval, new_words = _best_of(
        lambda: design.netlist.compute_words(operands, engine="compiled"), repeats + 2)
    assert np.array_equal(ref_words, new_words), "logic engines disagree"
    record["results"]["logic_eval"] = {
        "reference_s": ref_eval, "compiled_s": new_eval,
        "speedup": ref_eval / new_eval,
    }

    # fast timing simulation, single clock (the headline number)
    ref_time, ref_trace = _best_of(
        lambda: reference.run_trace(operands, BENCH_CLOCK), repeats)
    new_time, new_trace = _best_of(
        lambda: compiled.run_trace(operands, BENCH_CLOCK), repeats + 2)
    assert np.array_equal(ref_trace.sampled_words, new_trace.sampled_words), \
        "timing engines disagree"
    record["results"]["fast_sim_single_clock"] = {
        "clock_period_s": BENCH_CLOCK,
        "reference_s": ref_time, "compiled_s": new_time,
        "speedup": ref_time / new_time,
        "compiled_cycles_per_s": (cycles - 1) / new_time,
    }

    # fast timing simulation, the paper's three-clock sweep
    ref_time3, _ = _best_of(
        lambda: reference.run_trace_multi(operands, clocks), repeats)
    new_time3, _ = _best_of(
        lambda: compiled.run_trace_multi(operands, clocks), repeats + 2)
    record["results"]["fast_sim_three_clocks"] = {
        "clock_periods_s": clocks,
        "reference_s": ref_time3, "compiled_s": new_time3,
        "speedup": ref_time3 / new_time3,
    }

    record["headline_speedup"] = record["results"]["fast_sim_single_clock"]["speedup"]
    record["passed"] = record["headline_speedup"] >= SPEEDUP_TARGET
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=20000,
                        help="trace length in cycles (default 20000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions, best-of (default 3)")
    parser.add_argument("--backend", choices=("serial", "multiprocess", "both"),
                        default="both",
                        help="runtime backends to benchmark on the characterization "
                             "workload (default both, which also records the speedup)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker processes of the multiprocess backend (default 4)")
    parser.add_argument("--backend-cycles", type=int, default=600,
                        help="trace length of the backend characterization workload "
                             "(event-driven tier; default 600)")
    parser.add_argument("--explore-designs", type=int, default=24,
                        help="design budget of the explorer sweep benchmark "
                             "(default 24)")
    parser.add_argument("--multiplier-designs", type=int, default=32,
                        help="design budget of the multiplier-family sweep "
                             "benchmark (default 32)")
    parser.add_argument("--synth-designs", type=int, default=64,
                        help="design budget of the synthesis-flow benchmark "
                             "(default 64, the acceptance-criterion sweep size)")
    parser.add_argument("--adaptive-cycles", type=int, default=128,
                        help="trace length of the adaptive-search benchmark "
                             "(default 128; the exhaustive reference sweeps all "
                             "889 width-16 quadruples at this length)")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI run (4096 cycles, 2 repeats, 150-cycle backend "
                             "workload, 12-design explorer sweep, 12-design synthesis "
                             "flow, 64-cycle adaptive search); report-only — never "
                             "fails the exit code on noisy shared runners")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help=f"artifact path (default {RESULT_PATH})")
    args = parser.parse_args(argv)
    if args.smoke:
        args.cycles, args.repeats, args.backend_cycles = 4096, 2, 150
        args.explore_designs = 12
        args.multiplier_designs = 12
        args.synth_designs = 12
        args.adaptive_cycles = 64

    record = run_engine_comparison(cycles=args.cycles, repeats=args.repeats)
    backends = ("serial", "multiprocess") if args.backend == "both" else (args.backend,)
    chars = record["results"]["characterization_backends"] = run_backend_comparison(
        cycles=args.backend_cycles, workers=args.jobs, backends=backends)
    cache = record["results"]["result_cache"] = run_cache_comparison(
        cycles=args.backend_cycles)
    explore = record["results"]["explore_sweep"] = run_explore_comparison(
        max_designs=args.explore_designs)
    mul = record["results"]["multiplier_sweep"] = run_multiplier_sweep_comparison(
        max_designs=args.multiplier_designs)
    # Best-of floor: the two paths alternate long wall-time sections, so
    # a couple of extra repeats are what shields the recorded ratio from
    # scheduler noise on shared hosts.
    batched = record["results"]["batched_sweep"] = run_batched_sweep_comparison(
        max_designs=args.explore_designs, repeats=max(args.repeats, 4))
    synth = record["results"]["synth_flow"] = run_synth_flow_comparison(
        max_designs=args.synth_designs, repeats=max(args.repeats - 1, 2))
    adaptive = record["results"]["adaptive_search"] = run_adaptive_search_comparison(
        length=args.adaptive_cycles)
    # The two modes differ by a couple of percent at most, so the
    # section needs a workload long enough (and enough best-of repeats)
    # to resolve the ratio above host noise.
    tele = record["results"]["telemetry_overhead"] = run_telemetry_overhead_comparison(
        max_designs=8 if args.smoke else 16, repeats=max(args.repeats, 5))
    # The artifact's overall verdict covers every bar: the engine
    # speedup, (when the host can judge it) the backend speedup, the
    # batched planner being no slower than per-job execution, the
    # synthesis flow (vector kernels no slower, warm cache synthesizing
    # nothing), and the adaptive search (frontier recall at a fifth of
    # the space, warm re-run simulating nothing).
    record["engine_passed"] = record.pop("passed")
    record["passed"] = (record["engine_passed"] and chars.get("passed", True)
                        and batched.get("passed", True)
                        and synth.get("passed", True)
                        and adaptive.get("passed", True)
                        and tele.get("passed", True))
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    single = record["results"]["fast_sim_single_clock"]
    print(f"fast simulator, {record['design']}, {record['trace_cycles']} cycles:")
    print(f"  reference : {single['reference_s'] * 1e3:8.1f} ms")
    print(f"  compiled  : {single['compiled_s'] * 1e3:8.1f} ms")
    print(f"  speedup   : {single['speedup']:8.1f}x  "
          f"(target >= {record['speedup_target']:g}x)")
    print(f"characterization backends, {chars['jobs']} designs, {chars['trace_cycles']} cycles "
          f"({chars['simulator']} tier), {record['host']['cpu_count']} CPUs:")
    for backend, entry in chars["backends"].items():
        label = f"{backend}[{chars['workers']}]" if backend == "multiprocess" else backend
        print(f"  {label:<16}: {entry['wall_s'] * 1e3:8.1f} ms")
    if "speedup" in chars:
        verdict = ""
        if "passed" in chars:
            verdict = f"  (target >= {chars['speedup_target']:g}x)"
        elif "note" in chars:
            verdict = "  (host-bound, see note)"
        print(f"  speedup         : {chars['speedup']:8.2f}x{verdict}")
    print(f"result cache, {cache['jobs']} designs, {cache['trace_cycles']} cycles "
          f"({cache['simulator']} tier):")
    print(f"  cold (simulate) : {cache['cold_s'] * 1e3:8.1f} ms  "
          f"({cache['cold_misses']} misses)")
    print(f"  warm (from disk): {cache['warm_s'] * 1e3:8.1f} ms  "
          f"({cache['warm_hits']} hits, zero simulation)")
    print(f"  warm speedup    : {cache['warm_speedup']:8.1f}x")
    print(f"explorer sweep, {explore['designs']} designs x 4 clock points, "
          f"{explore['trace_cycles']} cycles (width {explore['width']}):")
    print(f"  cold (simulate) : {explore['cold_s'] * 1e3:8.1f} ms  "
          f"({explore['points_per_s']:.0f} points/s)")
    print(f"  warm (from disk): {explore['warm_s'] * 1e3:8.1f} ms  "
          f"({explore['warm_speedup']:.1f}x, zero simulation)")
    print(f"multiplier sweep, {mul['designs']} designs x 4 clock points, "
          f"{mul['trace_cycles']} cycles (width {mul['width']}):")
    print(f"  cold (simulate) : {mul['cold_s'] * 1e3:8.1f} ms  "
          f"({mul['points_per_s']:.0f} points/s)")
    print(f"  warm (from disk): {mul['warm_s'] * 1e3:8.1f} ms  "
          f"({mul['warm_speedup']:.1f}x, zero simulation)")
    print(f"batched sweep, {batched['designs']} designs x {batched['workloads']} "
          f"workloads x 4 clock points, {batched['trace_cycles']} cycles "
          f"(width {batched['width']}):")
    print(f"  per-job         : {batched['per_job_s'] * 1e3:8.1f} ms  "
          f"({batched['per_job_points_per_s']:.0f} points/s)")
    print(f"  batched planner : {batched['batched_s'] * 1e3:8.1f} ms  "
          f"({batched['batched_points_per_s']:.0f} points/s)")
    print(f"  speedup         : {batched['speedup']:8.2f}x  "
          f"(target >= {batched['speedup_target']:g}x)")
    print(f"synthesis flow, {synth['designs']} designs x 4 clock points, "
          f"{synth['trace_cycles']} cycles (width {synth['width']}, serial):")
    print(f"  reference       : {synth['reference_s'] * 1e3:8.1f} ms  "
          f"({synth['reference_designs_per_s']:.1f} designs/s)")
    print(f"  vector kernels  : {synth['vector_s'] * 1e3:8.1f} ms  "
          f"({synth['vector_speedup']:.2f}x, target >= "
          f"{synth['vector_speedup_target']:g}x)")
    print(f"  warm synth cache: {synth['warm_s'] * 1e3:8.1f} ms  "
          f"({synth['warm_speedup']:.2f}x, target >= "
          f"{synth['warm_speedup_target']:g}x, "
          f"{synth['warm_synthesized']} designs synthesized)")
    print(f"adaptive search, width {adaptive['width']}, "
          f"{adaptive['candidates']} candidates x {adaptive['clock_points']} "
          f"clock points, {adaptive['trace_cycles']} cycles:")
    print(f"  exhaustive      : {adaptive['exhaustive_s'] * 1e3:8.1f} ms  "
          f"(frontier {adaptive['reference_frontier']} points)")
    print(f"  adaptive        : {adaptive['adaptive_s'] * 1e3:8.1f} ms  "
          f"(simulated {adaptive['simulated']} designs = "
          f"{adaptive['fraction_simulated'] * 100:.1f}% of the space in "
          f"{adaptive['rounds']} rounds)")
    print(f"  recall          : {adaptive['recall']:8.3f}   "
          f"(target >= {adaptive['recall_target']:g} at <= "
          f"{adaptive['budget_fraction_target'] * 100:g}% of the space)")
    print(f"  warm re-run     : {adaptive['warm_s'] * 1e3:8.1f} ms  "
          f"({adaptive['warm_simulated']} jobs simulated)")
    print(f"telemetry overhead, {tele['designs']} designs x {tele['workloads']} "
          f"workloads x 4 clock points, {tele['trace_cycles']} cycles "
          f"(width {tele['width']}, batched serial):")
    print(f"  tracing off     : {tele['plain_s'] * 1e3:8.1f} ms")
    print(f"  tracing on      : {tele['traced_s'] * 1e3:8.1f} ms  "
          f"(spans + metrics + manifest)")
    print(f"  overhead        : {tele['overhead']:8.3f}x  "
          f"(target <= {tele['overhead_target']:g}x)")
    print(f"[written to {args.output}]")
    return 0 if (record["passed"] or args.smoke) else 1


if __name__ == "__main__":
    sys.exit(main())
