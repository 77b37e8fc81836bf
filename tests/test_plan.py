"""Tests of the execution planner: grouping, batching, bit-identity.

The planner's contract is that batched execution is **bit-identical** to
per-job execution on every backend — grouped multi-trace evaluation,
clock-specialised lowering and interned traces included — and that
whatever cannot batch (event-tier jobs, single-job groups) passes
through to the wrapped backend untouched.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np
import pytest

from repro.circuit.compiled import PackedTimingProgram
from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime import (
    CachingBackend,
    CharacterizationJob,
    GoldenTask,
    MultiprocessBackend,
    PlannedBackend,
    SerialBackend,
    TimingChunkTask,
    execute_group,
    run_jobs,
)
from repro.experiments.designs import exact_entry, isa_entry
from repro.obs.trace import span, trace_run
from repro.timing.clocking import ClockPlan
from repro.timing.fast_sim import FastTimingSimulator
from repro.workloads.generators import uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)

#: Report order of the pipeline phases in the ``--timings`` footer.
CANONICAL_PHASES = ("synthesize", "synth.optimize", "synth.sizing", "synth.sta",
                    "lower", "pack", "simulate", "score", "schedule.wait")


def footer_phase_names(out):
    """Check the shape of the single ``--timings`` footer in ``out``.

    The footer is ``(timings: <name> <x.xx> s / ... (attributed <x.xx> s))``
    with the canonical phases first, in pipeline order, and every other
    span name after them, sorted.  Returns the phase names in order.
    """
    footers = [line for line in out.splitlines() if line.startswith("(timings: ")]
    assert len(footers) == 1, footers
    match = re.fullmatch(r"\(timings: (.+) \(attributed \d+\.\d\d s\)\)",
                         footers[0])
    assert match, footers[0]
    names = []
    for part in match.group(1).split(" / "):
        assert re.fullmatch(r"\S+ \d+\.\d\d s", part), part
        names.append(part.split(" ")[0])
    assert len(set(names)) == len(names)
    canonical = [name for name in names if name in CANONICAL_PHASES]
    assert names[:len(canonical)] == canonical
    assert canonical == sorted(canonical, key=CANONICAL_PHASES.index)
    others = names[len(canonical):]
    assert others == sorted(others)
    return names


def make_job(quadruple=(4, 0, 0, 2), trace=None, length=200, seed=11,
             simulator="fast", **kwargs):
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    if trace is None:
        trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, width=16, **kwargs)


def sweep_batch():
    """Two designs x three ragged traces, plus an event job and a stats job."""
    traces = [uniform_workload(length, width=16, seed=seed)
              for length, seed in ((200, 1), (131, 2), (64, 3))]
    jobs = []
    for quadruple in ((4, 0, 0, 2), (8, 0, 0, 4), None):
        for trace in traces:
            jobs.append(make_job(quadruple=quadruple, trace=trace))
    jobs.append(make_job(trace=traces[2], simulator="event"))
    jobs.append(make_job(quadruple=(8, 0, 0, 4), trace=traces[0],
                         collect_structural_stats=True))
    return jobs


def assert_bit_identical(reference, candidate):
    assert reference.name == candidate.name
    assert np.array_equal(reference.diamond_words, candidate.diamond_words)
    assert np.array_equal(reference.gold_words, candidate.gold_words)
    assert np.array_equal(reference.netlist_words, candidate.netlist_words)
    assert set(reference.timing_traces) == set(candidate.timing_traces)
    for clk, timing in reference.timing_traces.items():
        other = candidate.timing_traces[clk]
        assert np.array_equal(timing.sampled_words, other.sampled_words)
        assert np.array_equal(timing.settled_words, other.settled_words)
        assert timing.output_width == other.output_width
    assert ((reference.structural_stats is None)
            == (candidate.structural_stats is None))


class CountingSerial(SerialBackend):
    """Serial backend counting the whole jobs and tasks that reach it."""

    def __init__(self):
        self.jobs_run = 0
        self.tasks_run = 0

    def run(self, jobs):
        jobs = list(jobs)
        self.jobs_run += len(jobs)
        return super().run(jobs)

    def run_tasks(self, tasks):
        tasks = list(tasks)
        self.tasks_run += len(tasks)
        return super().run_tasks(tasks)


class TestPlannedBitIdentity:
    def test_planned_serial_identical(self):
        jobs = sweep_batch()
        reference = SerialBackend().run(jobs)
        planned = run_jobs(jobs)
        for want, got in zip(reference, planned):
            assert_bit_identical(want, got)

    def test_planned_multiprocess_identical(self):
        jobs = sweep_batch()
        reference = SerialBackend().run(jobs)
        planned = run_jobs(jobs, backend="multiprocess", workers=2)
        for want, got in zip(reference, planned):
            assert_bit_identical(want, got)
        # the parent restores the original trace objects on group results
        for job, got in zip(jobs, planned):
            assert got.trace is job.trace

    def test_planned_cached_identical_and_warm_zero_jobs(self, tmp_path):
        jobs = sweep_batch()
        reference = SerialBackend().run(jobs)
        inner = CountingSerial()
        cache = CachingBackend(PlannedBackend(inner), tmp_path)
        cold = cache.run(jobs)
        for want, got in zip(reference, cold):
            assert_bit_identical(want, got)
        assert cache.stats.misses == len(jobs)
        # batched groups execute inside the planner; the inner backend
        # only sees the pass-through (event-tier) job
        executed_cold = inner.jobs_run + inner.tasks_run
        assert executed_cold == 1
        warm = cache.run(jobs)
        for want, got in zip(reference, warm):
            assert_bit_identical(want, got)
        assert inner.jobs_run + inner.tasks_run == executed_cold  # zero on warm
        assert cache.stats.hits == len(jobs)

    def test_same_design_two_clock_plans_stay_separate(self):
        trace = uniform_workload(100, width=16, seed=5)
        other = uniform_workload(90, width=16, seed=6)
        jobs = []
        for periods in (PERIODS, PERIODS[:1]):
            for tr in (trace, other):
                jobs.append(CharacterizationJob(
                    entry=isa_entry((4, 0, 0, 2), width=16), trace=tr,
                    clock_periods=periods, simulator="fast", width=16))
        reference = SerialBackend().run(jobs)
        planned = run_jobs(jobs)
        for want, got in zip(reference, planned):
            assert_bit_identical(want, got)


class TestPlannedScheduling:
    def test_single_job_batch_passes_through(self):
        inner = CountingSerial()
        planned = PlannedBackend(inner)
        job = make_job()
        [result] = planned.run([job])
        assert inner.jobs_run == 1  # no grouping, inner saw the whole batch
        assert_bit_identical(SerialBackend().run([job])[0], result)

    def test_single_design_batch_groups(self):
        inner = CountingSerial()
        planned = PlannedBackend(inner)
        trace_a = uniform_workload(100, width=16, seed=7)
        trace_b = uniform_workload(100, width=16, seed=8)
        jobs = [make_job(trace=trace_a), make_job(trace=trace_b)]
        results = planned.run(jobs)
        assert inner.jobs_run == 0  # the group ran batched, in-process
        for want, got in zip(SerialBackend().run(jobs), results):
            assert_bit_identical(want, got)

    def test_event_jobs_pass_through(self):
        inner = CountingSerial()
        planned = PlannedBackend(inner)
        trace = uniform_workload(64, width=16, seed=9)
        jobs = [make_job(trace=trace, simulator="event", length=64),
                make_job(trace=trace, simulator="event", length=64)]
        planned.run(jobs)
        assert inner.jobs_run == 2

    def test_min_group_size_validation(self):
        with pytest.raises(ConfigurationError):
            PlannedBackend(SerialBackend(), min_group_size=1)

    def test_run_jobs_keeps_caller_supplied_cache_in_the_loop(self, tmp_path):
        """run_jobs must not wrap a caller's caching stack in a planner.

        A planner *above* the cache would execute grouped jobs in-process
        and route them around the cache entirely.
        """
        traces = [uniform_workload(100, width=16, seed=seed) for seed in (31, 32)]
        jobs = [make_job(trace=trace) for trace in traces]
        caching = CachingBackend(PlannedBackend(SerialBackend()), tmp_path)
        run_jobs(jobs, backend=caching)
        assert caching.stats.misses == len(jobs)
        run_jobs(jobs, backend=caching)
        assert caching.stats.hits == len(jobs)

    def test_describe(self):
        assert PlannedBackend(SerialBackend()).describe() == "planned[serial]"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            backend = PlannedBackend(MultiprocessBackend(workers=2))
        expected = min(2, os.cpu_count() or 1)
        try:
            assert backend.describe() == f"planned[multiprocess[{expected}]]"
        finally:
            backend.close()

    def test_run_tasks_batches_timing_chunks(self):
        job = make_job(length=200)
        tasks = [GoldenTask(job)]
        for start, stop in ((0, 64), (64, 128), (128, 199)):
            tasks.append(TimingChunkTask(job.with_trace(job.trace.slice(start, stop + 1))))
        reference = SerialBackend().run_tasks(tasks)
        inner = CountingSerial()
        planned = PlannedBackend(inner)
        results = planned.run_tasks(tasks)
        assert inner.tasks_run == 1  # only the golden task passed through
        # golden tuples agree
        want, got = reference[0], results[0]
        for index in (1, 2, 4):
            assert np.array_equal(want[index], got[index])
        # timing chunks agree per clock
        for want, got in zip(reference[1:], results[1:]):
            assert set(want) == set(got)
            for clk in want:
                assert np.array_equal(want[clk].sampled_words, got[clk].sampled_words)
                assert np.array_equal(want[clk].settled_words, got[clk].settled_words)

    def test_subdivide_restores_pool_parallelism(self):
        """Few large groups split until the pool has one task per worker."""
        groups = PlannedBackend._subdivide([[0, 1, 2, 3, 4, 5, 6, 7]], 4)
        assert len(groups) == 4
        assert sorted(index for group in groups for index in group) == list(range(8))
        groups = PlannedBackend._subdivide([[0, 1], [2, 3, 4, 5]], 3)
        assert len(groups) == 3
        # nothing left to split: single-job groups stay whole
        assert PlannedBackend._subdivide([[0]], 8) == [[0]]

    def test_single_design_many_traces_multiprocess_identical(self):
        """One design x many traces splits across the pool bit-identically."""
        traces = [uniform_workload(100, width=16, seed=seed) for seed in range(6)]
        jobs = [make_job(trace=trace) for trace in traces]
        want = SerialBackend().run(jobs)
        backend = PlannedBackend(MultiprocessBackend(workers=3))
        try:
            got = backend.run(jobs)
        finally:
            backend.close()
        for reference, candidate in zip(want, got):
            assert_bit_identical(reference, candidate)

    def test_run_tasks_all_passthrough(self):
        job = make_job(length=80)
        tasks = [GoldenTask(job), TimingChunkTask(job)]
        inner = CountingSerial()
        planned = PlannedBackend(inner, min_group_size=3)
        planned.run_tasks(tasks)
        assert inner.tasks_run == 2


class TestExecuteGroup:
    def test_structural_stats_match_per_job(self):
        trace = uniform_workload(150, width=16, seed=13)
        jobs = [make_job(quadruple=(8, 0, 0, 4), trace=trace,
                         collect_structural_stats=True),
                make_job(quadruple=(8, 0, 0, 4), length=90, seed=14)]
        [want_stats, want_plain] = SerialBackend().run(jobs)
        [got_stats, got_plain] = execute_group(jobs)
        assert_bit_identical(want_stats, got_stats)
        assert_bit_identical(want_plain, got_plain)
        assert got_stats.structural_stats.cycles == want_stats.structural_stats.cycles
        assert np.array_equal(got_stats.structural_stats.position_counts,
                              want_stats.structural_stats.position_counts)

    def test_exact_entry_group(self):
        jobs = [make_job(quadruple=None, length=100, seed=15),
                make_job(quadruple=None, length=70, seed=16)]
        for want, got in zip(SerialBackend().run(jobs), execute_group(jobs)):
            assert_bit_identical(want, got)


class TestClockSpecialisedSimulator:
    def test_other_clock_raises(self):
        job = make_job()
        from repro.runtime import synthesize_job
        design = synthesize_job(job)
        simulator = FastTimingSimulator(design.netlist, design.annotation,
                                        engine="compiled", clock_periods=PERIODS)
        operands = job.trace.as_operands()
        specialised = simulator.run_trace_multi(operands, list(PERIODS))
        general = FastTimingSimulator(design.netlist, design.annotation,
                                      engine="compiled")
        reference = general.run_trace_multi(operands, list(PERIODS))
        for clk in PERIODS:
            assert np.array_equal(specialised[clk].sampled_words,
                                  reference[clk].sampled_words)
        with pytest.raises(SimulationError):
            simulator.run_trace_multi(operands, [min(PERIODS) * 0.5])

    def test_specialised_program_is_smaller(self):
        job = make_job(quadruple=(8, 0, 0, 4))
        from repro.runtime import synthesize_job
        design = synthesize_job(job)
        program = design.netlist.compiled()
        full = PackedTimingProgram(program, design.annotation)
        specialised = PackedTimingProgram(program, design.annotation,
                                          clock_periods=PERIODS)
        assert specialised.num_rows < full.num_rows
        assert specialised.clock_periods == tuple(sorted(set(PERIODS)))
        assert full.clock_periods is None


class TestPhases:
    def test_phase_noop_without_tracer(self):
        with span("simulate"):
            pass  # must not raise or record anywhere

    def test_trace_run_records_phases(self):
        with trace_run() as tracer:
            with span("simulate"):
                pass
            with span("score"):
                pass
            with span("simulate"):
                pass
        totals = tracer.phase_totals()
        assert totals["simulate"]["calls"] == 2
        assert totals["score"]["calls"] == 1
        text = tracer.describe()
        assert "simulate" in text and "score" in text

    def test_planned_run_attributes_phases(self, monkeypatch):
        # A warm persistent synthesis cache (the cache-enabled CI leg)
        # would legitimately skip the synthesize phase; disable it so
        # the attribution of a from-scratch run is what is asserted.
        from repro.runtime.synth_cache import SYNTH_CACHE_ENV
        monkeypatch.delenv(SYNTH_CACHE_ENV, raising=False)
        jobs = [make_job(length=80, seed=21), make_job(length=80, seed=22)]
        with trace_run() as tracer:
            PlannedBackend(SerialBackend()).run(jobs)
        totals = tracer.phase_totals()
        for name in ("synthesize", "lower", "simulate"):
            assert totals[name]["wall_s"] > 0

    def test_explore_cli_timings_footer(self, capsys, monkeypatch):
        # backend pinned to serial: phases are recorded in the process
        # that executes them, so the multiprocess CI leg would see none.
        # A warm shared synthesis or result cache would (correctly)
        # erase the synthesize phase asserted below, so run uncached.
        from repro.runtime.synth_cache import SYNTH_CACHE_ENV
        monkeypatch.delenv(SYNTH_CACHE_ENV, raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        from repro.explore.cli import main
        exit_code = main(["--width", "16", "--max-designs", "4", "--length", "32",
                          "--backend", "serial", "--timings"])
        assert exit_code == 0
        names = footer_phase_names(capsys.readouterr().out)
        assert {"synthesize", "synth.optimize", "synth.sizing", "synth.sta",
                "lower", "simulate", "score"} <= set(names)

    def test_runner_cli_timings_footer(self, capsys, tmp_path):
        from repro.experiments.runner import main
        exit_code = main(["--scale", "0.02", "--simulator", "fast",
                          "--backend", "serial",
                          "--figures", "fig9", "--no-cache", "--timings"])
        assert exit_code == 0
        names = footer_phase_names(capsys.readouterr().out)
        assert {"lower", "simulate"} <= set(names)
