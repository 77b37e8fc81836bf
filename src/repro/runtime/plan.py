"""Structure-aware execution planner: batched sweep kernels.

A design-space sweep submits many :class:`CharacterizationJob` units
that share almost everything — the same design, the same clock plan,
often the same workload trace — yet per-job execution pays the Python
dispatch of every gate batch, every arrival-threshold application and
every trace packing once *per job*.  The planner restores the economics:

* **Grouping** — jobs are grouped by design identity + clock plan
  (:meth:`CharacterizationJob.cache_key` plus ``clock_periods``).  Each
  group synthesizes once, lowers one *clock-specialised* timing program
  (only the arrival-threshold cone the group's clocks sample is
  compiled), and simulates every trace of the group in one stacked
  multi-trace pass (:meth:`FastTimingSimulator.run_traces_multi`), so
  one bitwise operation per gate batch covers the whole group.
* **Trace interning** — in-process, operand expansion and packing
  happen once per unique trace (shared across every design of a sweep);
  when the wrapped backend runs calls in worker processes, each unique
  trace (by content digest) is spilled to disk once and loaded once per
  worker, instead of being pickled into every job.
* **One dispatch path** — every group becomes one call of
  :func:`_group_task`, handed to the wrapped backend's
  :meth:`~repro.runtime.backends.Backend.run_calls` (its single dispatch
  point, with its retries, pool recovery and fault decisions) on every
  backend alike; the same task function runs in the driver and in
  workers.
* **Fan-out/fan-in** — per-job results are sliced back out of the
  batched arrays in submission order.  Because packed words of
  different traces never mix and the behavioural golden models are
  elementwise, every result is **bit-identical** to per-job execution
  (asserted by ``tests/test_plan.py`` across serial, multiprocess and
  cached backends).

Jobs that cannot batch — the event-driven simulator tier, or groups
smaller than ``min_group_size`` — pass through to the wrapped backend
unchanged, preserving its whole-job/split scheduling (a single-design
batch behaves exactly as before the planner existed).  The planner
slots *under* :class:`~repro.runtime.cache.CachingBackend`: the cache
keys and stores per-job entries, and only its misses reach the planner,
so warm sweeps still execute zero jobs.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.families import family_of
from repro.obs.metrics import metric_count, metric_observe
from repro.obs.trace import span
from repro.runtime.backends import Backend, Task, TimingChunkTask, get_backend
from repro.runtime.cache import trace_digest
from repro.runtime.jobs import (
    CharacterizationJob,
    DesignCharacterization,
    cached_simulator,
    group_key,
    synthesize_job,
)
from repro.timing.fast_sim import FastTimingSimulator
from repro.utils.lru import IdentityMemo, LRUDict
from repro.workloads.traces import OperandTrace

#: Traces whose operand dicts are memoised per object identity, so the
#: interned expansion cache in :mod:`repro.timing.operands` sees stable
#: array identities across the many groups of one sweep.
_OPERAND_CACHE: "IdentityMemo[dict]" = IdentityMemo(64)


def _operands_of(trace: OperandTrace) -> dict:
    """``trace.as_operands()``, memoised per trace object.

    Re-deriving the dict per group would mint fresh ``cin`` arrays every
    time and defeat the identity-keyed expansion interning downstream.
    """
    operands = _OPERAND_CACHE.get((trace,))
    if operands is None:
        operands = _OPERAND_CACHE.put((trace,), trace.as_operands())
    return operands


def build_group_simulator(job: CharacterizationJob,
                          synthesized) -> FastTimingSimulator:
    """The clock-specialised fast simulator of one planner group.

    Grouping by clock plan is what makes the specialisation safe: every
    job of the group samples exactly these periods, so the compiled
    program only needs their arrival-threshold cone.
    """
    with span("lower"):
        return FastTimingSimulator(synthesized.netlist, synthesized.annotation,
                                   engine=job.engine,
                                   clock_periods=job.clock_periods)


def execute_group(jobs: Sequence[CharacterizationJob],
                  synthesized=None, simulator=None) -> List[DesignCharacterization]:
    """Execute one same-design, same-clock-plan group in a batched pass.

    Behavioural golden references run as **one** vectorised pass over
    the concatenated operand arrays (both models are elementwise, so
    slicing the result per job is bit-identical to per-job calls); the
    gate-level golden words fall out of the same packed evaluation that
    feeds the timing masks, so the group pays a single logic pass where
    per-job execution pays two per job.
    """
    jobs = list(jobs)
    job0 = jobs[0]
    metric_count("jobs.simulated", len(jobs))
    if synthesized is None:
        synthesized = synthesize_job(job0)
    if simulator is None:
        simulator = build_group_simulator(job0, synthesized)
    traces = [job.trace for job in jobs]
    bounds = np.cumsum([0] + [trace.length for trace in traces])

    family = family_of(job0.entry)
    with span("simulate", design=job0.name, jobs=len(jobs),
               transitions=int(bounds[-1])):
        a = np.concatenate([trace.a for trace in traces])
        b = np.concatenate([trace.b for trace in traces])
        diamond_all = family.exact_words(job0.width, a, b)
        # golden_words copies the exact baseline's diamond buffer, like
        # golden_reference() does: a result must never alias its gold
        # and diamond words to one buffer.
        gold_all, _ = family.golden_words(job0.entry, job0.width, a, b,
                                          diamond=diamond_all)

    batched = simulator.run_traces_multi(
        [_operands_of(trace) for trace in traces], job0.clock_periods,
        output_bus=job0.output_bus, include_settled_values=True)

    results: List[DesignCharacterization] = []
    for index, job in enumerate(jobs):
        low, high = int(bounds[index]), int(bounds[index + 1])
        diamond = diamond_all[low:high]
        gold = gold_all[low:high]
        structural_stats = None
        if job.collect_structural_stats and not job0.entry.is_exact:
            with span("simulate"):
                gold, structural_stats = family.golden_words(
                    job.entry, job.width, job.trace.a, job.trace.b,
                    collect_stats=True)
        netlist_words = batched.settled_values[index]
        if not np.array_equal(netlist_words, gold):
            raise ConfigurationError(
                f"synthesized netlist of {job.name} disagrees with its behavioural "
                "golden model; the synthesis flow is unfaithful")
        results.append(DesignCharacterization(
            entry=job.entry,
            synthesized=synthesized,
            trace=job.trace,
            diamond_words=diamond,
            gold_words=gold,
            timing_traces=batched.timing[index],
            structural_stats=structural_stats,
            netlist_words=netlist_words,
        ))
    return results


# --------------------------------------------------------------------- #
# Group calls: one task function, in the driver or in a worker
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _TraceRef:
    """A spilled trace: written once per content digest, loaded once per worker.

    Presentational trace names ride along in the spill payload; results
    never depend on them (jobs report their *design* name).
    """

    digest: str
    path: str


@dataclass(frozen=True)
class _GroupSpec:
    """A planner group as one call: the shared job fields plus its traces.

    ``traces`` holds the traces themselves for an in-process backend and
    :class:`_TraceRef` spills for one whose calls cross to workers.
    """

    entry: object
    width: int
    synthesis: object
    simulator: str
    engine: str
    output_bus: str
    clock_periods: Tuple[float, ...]
    traces: Tuple[Union[OperandTrace, _TraceRef], ...]
    structural_stats: Tuple[bool, ...]
    timing_only: bool = False


#: Worker-side spilled traces by digest (LRU; traces can be large).
_WORKER_TRACES: "LRUDict[str, OperandTrace]" = LRUDict(32)


def _load_trace(trace: Union[OperandTrace, _TraceRef]) -> OperandTrace:
    """Resolve a group member's trace: one disk load per spilled digest."""
    if isinstance(trace, OperandTrace):
        return trace
    loaded = _WORKER_TRACES.get(trace.digest)
    if loaded is None:
        with open(trace.path, "rb") as handle:
            payload = pickle.load(handle)
        loaded = _WORKER_TRACES.put(trace.digest, OperandTrace(
            a=payload["a"], b=payload["b"],
            width=payload["width"], name=payload["name"]))
    return loaded


def _group_jobs(spec: _GroupSpec) -> List[CharacterizationJob]:
    return [CharacterizationJob(
        entry=spec.entry,
        trace=_load_trace(trace),
        clock_periods=spec.clock_periods,
        simulator=spec.simulator,
        engine=spec.engine,
        synthesis=spec.synthesis,
        width=spec.width,
        collect_structural_stats=stats,
        output_bus=spec.output_bus,
    ) for trace, stats in zip(spec.traces, spec.structural_stats)]


def _group_task(spec: _GroupSpec):
    """One whole planner group, batched.

    Returns per-member results in member order with their traces
    stripped (a worker's results are pickled back; the planner restores
    the traces), or just the per-member timing dicts for ``timing_only``
    groups.
    """
    jobs = _group_jobs(spec)
    job0 = jobs[0]
    synthesized = synthesize_job(job0)
    simulator = cached_simulator(job0, synthesized, build_group_simulator)
    if spec.timing_only:
        return simulator.run_traces_multi(
            [_operands_of(job.trace) for job in jobs], job0.clock_periods,
            output_bus=job0.output_bus).timing
    results = execute_group(jobs, synthesized=synthesized, simulator=simulator)
    for result in results:
        result.trace = None
    return results


class PlannedBackend(Backend):
    """Decorate a backend with grouping, interning and batched execution.

    Parameters
    ----------
    inner:
        The backend (or backend name) the plan executes on.  Every
        batched group is one call on ``inner.run_calls``; when the inner
        backend runs calls in worker processes, traces are spilled once
        per unique digest and loaded once per worker.  Anything the
        planner cannot batch is passed through to ``inner`` untouched,
        in one batch, preserving its scheduling.
    min_group_size:
        Smallest group worth batching (default 2); smaller groups pass
        through, so the single-job split path of the multiprocess
        backend is never regressed.
    """

    name = "planned"

    def __init__(self, inner="serial", min_group_size: int = 2) -> None:
        if min_group_size < 2:
            raise ConfigurationError(
                f"min_group_size must be at least 2, got {min_group_size}")
        self.inner = get_backend(inner)
        self.min_group_size = min_group_size
        # Digest memo; modest capacity on purpose — entries pin their
        # trace (for the identity check), and recomputing a SHA-256 is
        # far cheaper than keeping large dead traces alive.
        self._digests: "IdentityMemo[str]" = IdentityMemo(64)

    def describe(self) -> str:
        return f"planned[{self.inner.describe()}]"

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------ #
    def _digest(self, trace: OperandTrace) -> str:
        digest = self._digests.get((trace,))
        if digest is None:
            digest = self._digests.put((trace,), trace_digest(trace))
        return digest

    def _split(self, jobs: Sequence[CharacterizationJob]
               ) -> Tuple[List[List[int]], List[int]]:
        """Indices of batchable groups, and pass-through indices in order."""
        grouped: Dict[tuple, List[int]] = {}
        for index, job in enumerate(jobs):
            grouped.setdefault(group_key(job), []).append(index)
        batched: List[List[int]] = []
        passthrough: List[int] = []
        for key, indices in grouped.items():
            job = jobs[indices[0]]
            if job.simulator == "fast" and len(indices) >= self.min_group_size:
                batched.append(indices)
            else:
                passthrough.extend(indices)
        passthrough.sort()
        return batched, passthrough

    def _spill(self, trace: OperandTrace, spill_dir: str,
               refs: Dict[str, _TraceRef]) -> _TraceRef:
        """Write each unique trace once per batch; later members share it."""
        digest = self._digest(trace)
        ref = refs.get(digest)
        if ref is None:
            ref = refs[digest] = _TraceRef(
                digest=digest, path=os.path.join(spill_dir, f"{digest}.pkl"))
            with open(ref.path, "wb") as handle:
                pickle.dump({"a": trace.a, "b": trace.b, "width": trace.width,
                             "name": trace.name}, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
        return ref

    def _group_specs(self, jobs: Sequence[CharacterizationJob],
                     batched: List[List[int]], spill_dir: Optional[str],
                     timing_only: bool) -> List[_GroupSpec]:
        """One spec per group; traces spilled when ``spill_dir`` is given."""
        refs: Dict[str, _TraceRef] = {}
        specs: List[_GroupSpec] = []
        for indices in batched:
            group = [jobs[index] for index in indices]
            job0 = group[0]
            specs.append(_GroupSpec(
                entry=job0.entry, width=job0.width, synthesis=job0.synthesis,
                simulator=job0.simulator, engine=job0.engine,
                output_bus=job0.output_bus, clock_periods=job0.clock_periods,
                traces=tuple(job.trace if spill_dir is None
                             else self._spill(job.trace, spill_dir, refs)
                             for job in group),
                structural_stats=tuple(job.collect_structural_stats
                                       for job in group),
                timing_only=timing_only))
        if spill_dir is not None:
            metric_count("plan.traces_interned", len(refs))
        return specs

    @staticmethod
    def _subdivide(batched: List[List[int]], target: int) -> List[List[int]]:
        """Split index groups until at least ``target`` tasks exist.

        One task per group starves a wide pool when a batch has few
        groups (a single design over many traces, or the chunk tasks of
        one sharded cache entry).  Splitting a group is always safe —
        each sub-group is itself a valid same-design, same-clock-plan
        group, and concatenating sub-group results in index order is
        the group's result — so the largest group is halved until the
        task count reaches the pool width (or nothing is left to split).
        """
        groups = [list(indices) for indices in batched]
        while len(groups) < target:
            largest = max(range(len(groups)), key=lambda i: len(groups[i]))
            if len(groups[largest]) < 2:
                break
            indices = groups[largest]
            middle = len(indices) // 2
            groups[largest:largest + 1] = [indices[:middle], indices[middle:]]
        return groups

    def _run_grouped(self, jobs: Sequence[CharacterizationJob],
                     batched: List[List[int]], timing_only: bool,
                     results: List, passthrough_fn: Callable[[], None]) -> None:
        """Execute the batched groups, interleaving the pass-through batch.

        The group calls go through the inner backend's ``run_calls``:
        transient group failures retry, a killed worker re-dispatches
        only unfinished groups, and the pass-through jobs (scheduled by
        the inner backend itself) run once the first round of group
        calls is dispatched — on a pool, overlapping with them.  Groups
        are subdivided until the inner backend has one call per worker,
        so a batch with fewer groups than workers still parallelises.
        """
        metric_count("plan.groups", len(batched))
        for indices in batched:
            metric_observe("plan.group_size", len(indices))
        batched = self._subdivide(batched, self.inner.workers)
        spill_dir = (None if self.inner.in_process
                     else tempfile.mkdtemp(prefix="repro-plan-traces-"))
        try:
            specs = self._group_specs(jobs, batched, spill_dir, timing_only)
            gathered = self.inner.run_calls(
                [(_group_task, (spec,), f"group:{spec.entry.name}:{index}")
                 for index, spec in enumerate(specs)],
                interleave=passthrough_fn)
        finally:
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)
        for indices, outcomes in zip(batched, gathered):
            for index, outcome in zip(indices, outcomes):
                if not timing_only:
                    outcome.trace = jobs[index].trace
                results[index] = outcome

    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence[CharacterizationJob]) -> List[DesignCharacterization]:
        jobs = list(jobs)
        batched, passthrough = self._split(jobs)
        if not batched:
            # Nothing groups: hand the whole batch to the inner backend so
            # its scheduling heuristics (whole-job vs split) see the full
            # picture — the planner leaves no trace on this path.
            return self.inner.run(jobs)
        results: List = [None] * len(jobs)

        def passthrough_fn() -> None:
            if passthrough:
                outcomes = self.inner.run([jobs[index] for index in passthrough])
                for index, outcome in zip(passthrough, outcomes):
                    results[index] = outcome

        self._run_grouped(jobs, batched, False, results, passthrough_fn)
        return results

    def run_tasks(self, tasks: Sequence[Task]) -> List[object]:
        tasks = list(tasks)
        timing_indices = [index for index, task in enumerate(tasks)
                          if isinstance(task, TimingChunkTask)]
        timing_jobs = [tasks[index].job for index in timing_indices]
        batched, passthrough_local = self._split(timing_jobs)
        if not batched:
            return self.inner.run_tasks(tasks)
        # Map the grouping (computed over timing tasks only) back to the
        # full task list; golden tasks always pass through.
        batched = [[timing_indices[local] for local in group] for group in batched]
        passthrough = sorted(
            set(range(len(tasks)))
            - {index for group in batched for index in group})
        results: List = [None] * len(tasks)

        def passthrough_fn() -> None:
            if passthrough:
                outcomes = self.inner.run_tasks([tasks[index] for index in passthrough])
                for index, outcome in zip(passthrough, outcomes):
                    results[index] = outcome

        self._run_grouped([task.job for task in tasks], batched, True, results,
                          passthrough_fn)
        return results
