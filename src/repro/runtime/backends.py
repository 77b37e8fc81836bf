"""Pluggable execution backends for characterization jobs.

Every backend has one dispatch point, :meth:`Backend.run_calls`: it
executes a batch of ``(function, args, key)`` calls and returns their
results in call order.  Whole jobs (:meth:`~Backend.run`), golden and
timing-chunk tasks (:meth:`~Backend.run_tasks`) and the execution
planner's group calls (:mod:`repro.runtime.plan`) all become calls of
the module-level task functions below, which run unchanged in the
driver and in worker processes and share one bounded per-process
simulator cache.  ``run_calls`` is also where task faults are decided:
each submission of a call is one fault-plan event in the driver
(:func:`~repro.runtime.faultinject.dispatch`).

``serial``
    Executes the calls in the calling process
    (:func:`~repro.runtime.resilience.retry_calls`) — the reference
    behaviour.

``multiprocess``
    Fans the calls out across worker processes with
    :class:`concurrent.futures.ProcessPoolExecutor`.  Each job of a
    small batch is split into one *golden* task (synthesis cross-check,
    diamond/golden words, structural statistics) plus one timing task
    per word-aligned trace chunk (see
    :func:`repro.circuit.compiled.transition_chunks`), so a single large
    job parallelises as well as a batch of small ones.  Chunks are
    merged strictly in trace order, and both simulator tiers are
    transition-local, so results are **bit-identical to the serial
    backend at any worker count**.

Backends raise whatever the job execution raises (e.g. the golden-model
cross-check failure) — scheduling does not swallow errors.  *Transient*
failures, however, are survived rather than raised: both backends retry
individual calls under a :class:`~repro.runtime.resilience.RetryPolicy`
(safe because every task is deterministic and transition-local, so a
retried task is bit-identical by construction), and the multiprocess
backend recovers from a broken pool by rebuilding its executor and
re-dispatching only the calls whose futures did not complete — after
``max_rebuilds`` consecutive rebuilds without progress it degrades to
the serial loop with a :class:`RuntimeWarning` instead of failing the
batch.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.circuit.compiled import WORD_BITS, transition_chunks
from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.obs.manifest import telemetry_run
from repro.obs.metrics import metric_count
from repro.obs.spill import drain_spill_dir, spilled_call, telemetry_active
from repro.obs.trace import span
from repro.runtime.faultinject import dispatch
from repro.runtime.resilience import RetryPolicy, retry_calls
from repro.runtime.jobs import (
    CharacterizationJob,
    DesignCharacterization,
    cached_simulator,
    execute_job,
    golden_reference,
    merge_timing_chunks,
    run_timing,
    synthesize_job,
)
from repro.runtime.synth_cache import adopt_synth_cache, synth_cache_spec

#: Names accepted by :func:`get_backend` (and ``StudyConfig.backend``).
BACKENDS = ("serial", "multiprocess")


# --------------------------------------------------------------------- #
# Sub-job tasks: the finer scheduling granularity below a whole job
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GoldenTask:
    """Sub-job unit: the golden half of one job, no timing simulation.

    Executing it yields the 5-tuple ``(synthesized, diamond_words,
    gold_words, structural_stats, netlist_words)`` over the job's full
    trace — exactly what :func:`~repro.runtime.jobs.golden_reference`
    returns, prefixed with the synthesized design.
    """

    job: CharacterizationJob


@dataclass(frozen=True)
class TimingChunkTask:
    """Sub-job unit: timing simulation of one (typically sliced) trace.

    The job's trace *is* the chunk — callers slice before building the
    task.  Executing it yields the ``{clock_period: TimingErrorTrace}``
    dict of :func:`~repro.runtime.jobs.run_timing`; no golden words are
    derived, which is the point: a caller that only needs timing shards
    (the result cache's cold sharded path) no longer pays for
    chunk-local golden references it would discard.
    """

    job: CharacterizationJob


#: A schedulable sub-job unit.
Task = Union[GoldenTask, TimingChunkTask]


#: One schedulable call: ``(function, args, key)``.  The key names the
#: call in retry backoff, timeouts and fault plans, and carries the
#: design name.
Call = Tuple[Callable, tuple, str]


# --------------------------------------------------------------------- #
# Task functions: what every call runs, in the driver or in a worker
# --------------------------------------------------------------------- #
def _golden_task(job: CharacterizationJob):
    """Synthesize (memoised) and compute the golden references."""
    synthesized = synthesize_job(job)
    return (synthesized,) + golden_reference(job, synthesized)


def _timing_chunk_task(chunk_job: CharacterizationJob):
    """Simulate one trace chunk (the job's trace is the slice)."""
    return run_timing(chunk_job, cached_simulator(chunk_job, synthesize_job(chunk_job)))


def _whole_job_task(job: CharacterizationJob) -> DesignCharacterization:
    """One complete job, through the per-process design/simulator caches.

    The trace is stripped from the result — a worker's result is pickled
    back, and the caller already holds the trace on the job and
    restores it on receipt.
    """
    synthesized = synthesize_job(job)
    result = execute_job(job, synthesized=synthesized,
                         simulator=cached_simulator(job, synthesized))
    result.trace = None
    return result


def _worker_call(synth_cache, function: Callable, args: tuple):
    """Run one call in a worker, on the synthesis cache the driver uses."""
    adopt_synth_cache(synth_cache)
    return function(*args)


def _job_calls(jobs: Sequence[CharacterizationJob]) -> List[Call]:
    return [(_whole_job_task, (job,), f"{job.name}:{index}")
            for index, job in enumerate(jobs)]


def _task_calls(tasks: Sequence[Task]) -> List[Call]:
    return [(_golden_task if isinstance(task, GoldenTask) else _timing_chunk_task,
             (task.job,), f"{task.job.name}:{index}")
            for index, task in enumerate(tasks)]


def _restore_traces(jobs: Sequence[CharacterizationJob],
                    results: List[DesignCharacterization]) -> List[DesignCharacterization]:
    for job, result in zip(jobs, results):
        result.trace = job.trace
    return results


class Backend:
    """Interface of an execution backend: run a batch of calls in order.

    :meth:`run_calls` is the one dispatch point; :meth:`run` (whole
    jobs) and :meth:`run_tasks` (sub-job :class:`GoldenTask` /
    :class:`TimingChunkTask` units — the granularity the result cache's
    sharded path and the execution planner use) build their calls and
    hand them to it.
    """

    name = "abstract"

    #: The task-level retry policy; concrete backends resolve it from
    #: the current settings at construction (``REPRO_MAX_RETRIES`` /
    #: ``REPRO_TASK_TIMEOUT``, or a CLI's ``--max-retries`` /
    #: ``--task-timeout``) unless one is passed in.
    retry_policy: RetryPolicy = RetryPolicy()

    #: Calls run in parallel (the planner splits groups to fill them).
    workers: int = 1

    #: Whether :meth:`run_calls` runs calls in the calling process, so
    #: arguments never cross a process boundary.
    in_process: bool = True

    def run_calls(self, calls: Sequence[Call],
                  interleave: Optional[Callable[[], None]] = None) -> List[object]:
        """Execute ``(function, args, key)`` calls; results in call order.

        ``interleave`` is invoked once, after the first round of calls
        has been dispatched — the planner's hook for running its
        pass-through batch alongside its group calls.
        """
        raise NotImplementedError

    def run(self, jobs: Sequence[CharacterizationJob]) -> List[DesignCharacterization]:
        """Execute ``jobs`` and return their results in submission order."""
        raise NotImplementedError

    def run_tasks(self, tasks: Sequence[Task]) -> List[object]:
        """Execute sub-job tasks and return their results in order."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable backend description (recorded in reports)."""
        return self.name

    def close(self) -> None:
        """Release held resources (worker pools); idempotent, no-op by default."""


class SerialBackend(Backend):
    """Run every call in the calling process, one after the other.

    Calls share the process-wide design memo and simulator cache, so a
    study submitting several traces of the same design (e.g. the
    prediction study's training + evaluation pair) lowers it only once.
    Each call runs under the backend's :class:`RetryPolicy`
    (:func:`~repro.runtime.resilience.retry_calls`).
    """

    name = "serial"

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_env())

    def run_calls(self, calls: Sequence[Call],
                  interleave: Optional[Callable[[], None]] = None) -> List[object]:
        return retry_calls(self.retry_policy, calls, interleave)

    def run(self, jobs: Sequence[CharacterizationJob]) -> List[DesignCharacterization]:
        jobs = list(jobs)
        metric_count("jobs.simulated", len(jobs))
        return _restore_traces(jobs, self.run_calls(_job_calls(jobs)))

    def run_tasks(self, tasks: Sequence[Task]) -> List[object]:
        return self.run_calls(_task_calls(tasks))


@dataclass
class _PendingCall:
    """Driver-side state of one schedulable callable in a resilient gather."""

    index: int
    function: Callable
    args: tuple
    key: str
    attempts: int = 0
    resolved: bool = False
    future: object = field(default=None, repr=False)


class MultiprocessBackend(Backend):
    """Fan characterization work out across worker processes.

    Parameters
    ----------
    workers:
        Worker process count (defaults to ``os.cpu_count()``).  Requests
        beyond the machine's CPU count are clamped to it with a warning:
        the workload is compute-bound, so extra processes only add
        scheduling overhead (a 1-CPU bench host measured 0.92x with 4
        workers).
    chunk_transitions:
        Transitions per timing chunk.  ``None`` picks a word-aligned
        size splitting each job into about ``workers`` chunks; explicit
        values are rounded up to the packed word size (64), which keeps
        chunked execution bit-identical to a full-trace run.
    retry_policy:
        Task-level :class:`RetryPolicy` (default: from the current
        settings — ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``).
    max_rebuilds:
        Consecutive pool rebuilds without a single completed task before
        the backend degrades to the in-process serial loop (with a
        :class:`RuntimeWarning`) instead of thrashing a pool whose
        workers die on every task.
    """

    name = "multiprocess"
    in_process = False

    def __init__(self, workers: Optional[int] = None,
                 chunk_transitions: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_rebuilds: int = 3) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        if chunk_transitions is not None and chunk_transitions < 1:
            raise ConfigurationError(
                f"chunk_transitions must be at least 1, got {chunk_transitions}")
        if max_rebuilds < 1:
            raise ConfigurationError(
                f"max_rebuilds must be at least 1, got {max_rebuilds}")
        cpus = os.cpu_count() or 1
        if workers is not None and workers > cpus:
            warnings.warn(
                f"clamping {workers} requested workers to the {cpus} available "
                f"CPU(s); oversubscribing a compute-bound pool only adds overhead",
                RuntimeWarning, stacklevel=2)
            workers = cpus
        self.workers = workers if workers is not None else cpus
        self.chunk_transitions = chunk_transitions
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_env())
        self.max_rebuilds = max_rebuilds
        self._pool: Optional[ProcessPoolExecutor] = None
        self._degraded = False
        self._rebuilds_without_progress = 0
        # Telemetry spill: per-worker JSONL files the driver merges back
        # (created lazily when a task is submitted under active
        # telemetry, removed by close()).  Offsets track the bytes each
        # drain already consumed, so draining is safe mid-batch.
        self._spill_dir: Optional[str] = None
        self._spill_offsets: Dict[str, int] = {}

    def describe(self) -> str:
        return f"multiprocess[{self.workers}]"

    # ------------------------------------------------------------------ #
    # Pool lifecycle.  The executor persists across run() calls so the
    # per-worker design/simulator caches stay warm between batches; it is
    # created lazily and torn down by close() (or by the executor's own
    # manager thread once the backend is garbage-collected).
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Telemetry spills are drained *first*, so spans and metrics of
        completed workers survive a close on the failure path too; the
        temp spill directory is then removed.
        """
        self.drain_telemetry()
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._spill_offsets = {}

    def __enter__(self) -> "MultiprocessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _chunk_size(self, transitions: int) -> int:
        if self.chunk_transitions is not None:
            return self.chunk_transitions
        # About one chunk per worker, word-aligned, at least one word.
        per_worker = -(-transitions // self.workers)
        return max(WORD_BITS, -(-per_worker // WORD_BITS) * WORD_BITS)

    def _submit(self, function: Callable, *args):
        """Submit one call to the pool (created lazily) as a raw future.

        The call carries the driver's synthesis cache, so workers read
        and write the cache the driver uses now, not the one their
        environment named when they were forked.  Under active
        telemetry the worker records its own spans/metrics and spills
        them for :meth:`drain_telemetry` to merge.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        call = (_worker_call, synth_cache_spec(), function, args)
        if telemetry_active():
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix="repro-obs-spill-")
            return self._pool.submit(spilled_call, self._spill_dir, *call)
        return self._pool.submit(*call)

    def drain_telemetry(self) -> None:
        """Merge completed workers' spilled spans/metrics into ambient state."""
        if self._spill_dir is not None:
            drain_spill_dir(self._spill_dir, self._spill_offsets)

    # ------------------------------------------------------------------ #
    # Resilient gather: the one scheduling path every batch goes through
    # ------------------------------------------------------------------ #
    def _recover_pool(self, progressed: bool) -> None:
        """Tear down a broken/stalled pool and account for the rebuild.

        The spill directory survives (only :meth:`close` removes it), so
        completed workers' telemetry is drained before their processes
        are reaped; stuck workers are terminated best-effort — a pool
        rebuilt around them would otherwise inherit their task queue.
        """
        self.drain_telemetry()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        metric_count("pool.rebuilds")
        self._rebuilds_without_progress = \
            (0 if progressed else self._rebuilds_without_progress) + 1
        if self._rebuilds_without_progress >= self.max_rebuilds and not self._degraded:
            self._degraded = True
            metric_count("backend.degraded")
            warnings.warn(
                f"multiprocess backend degraded to in-process execution after "
                f"{self._rebuilds_without_progress} consecutive pool rebuilds "
                f"without progress", RuntimeWarning, stacklevel=3)

    def run_calls(self, calls: Sequence[Call],
                  interleave: Optional[Callable[[], None]] = None) -> List[object]:
        """Resiliently execute ``(function, args, key)`` calls on the pool.

        Per round: every outstanding call is submitted in call order
        (each submission one fault-plan event, decided in the driver),
        then the driver waits for completions —

        * a transient task failure is retried (with the policy's
          deterministic backoff) up to ``max_attempts``; the original
          error propagates on exhaustion, non-retryable errors at once;
        * a :class:`BrokenProcessPool` (worker killed mid-task) rebuilds
          the executor and re-dispatches only the calls whose futures
          did not complete — completed results are kept, a re-dispatched
          task is bit-identical by construction;
        * a wait window of ``task_timeout`` seconds with **no** task
          completing counts as a stall: the pool is rebuilt and every
          unresolved call charged one timeout attempt, so a genuinely
          stuck task exhausts its budget with a
          :class:`TaskTimeoutError` instead of re-dispatching forever;
        * after ``max_rebuilds`` consecutive rebuilds without progress
          the backend degrades to the serial loop
          (:func:`~repro.runtime.resilience.retry_calls`, warned once).

        Worker telemetry spills are merged before returning.
        """
        policy = self.retry_policy
        pending = [_PendingCall(index, function, args, key)
                   for index, (function, args, key) in enumerate(calls)]
        results: List[object] = [None] * len(pending)
        outstanding = pending
        while outstanding:
            if self._degraded:
                outcomes = retry_calls(
                    policy, [(call.function, call.args, call.key) for call in outstanding],
                    interleave)
                for call, outcome in zip(outstanding, outcomes):
                    results[call.index] = outcome
                break
            broken = stalled = progressed = False
            failure: Optional[Tuple[int, Exception]] = None
            unresolved: Dict[object, _PendingCall] = {}
            try:
                for call in outstanding:
                    function, args = dispatch(call.function, call.args, call.key)
                    call.future = self._submit(function, *args)
                    unresolved[call.future] = call
            except BrokenProcessPool:
                broken = True
            if interleave is not None:
                interleave, hook = None, interleave
                hook()
            retries: List[_PendingCall] = []
            if not broken:
                with span("schedule.wait"):
                    while unresolved and not broken:
                        done, _ = _wait_futures(set(unresolved),
                                                timeout=policy.task_timeout,
                                                return_when=FIRST_COMPLETED)
                        if not done:
                            stalled = True
                            break
                        for future in done:
                            call = unresolved.pop(future)
                            try:
                                outcome = future.result()
                            except BrokenProcessPool:
                                broken = True
                                continue
                            except Exception as error:
                                if policy.retryable(error) and \
                                        call.attempts + 1 < policy.max_attempts:
                                    call.attempts += 1
                                    retries.append(call)
                                elif failure is None or call.index < failure[0]:
                                    failure = (call.index, error)
                                continue
                            results[call.index] = outcome
                            call.resolved = True
                            progressed = True
            if broken or stalled:
                self._recover_pool(progressed)
                outstanding = [call for call in outstanding if not call.resolved]
                if stalled:
                    # No task finished inside the timeout window: charge
                    # every unresolved call one timeout attempt.
                    for call in outstanding:
                        call.attempts += 1
                        if call.attempts >= policy.max_attempts:
                            raise TaskTimeoutError(
                                f"task {call.key} made no progress within its "
                                f"{policy.task_timeout:g} s budget across "
                                f"{call.attempts} attempts")
                metric_count("tasks.retried", len(outstanding))
                continue
            if failure is not None:
                raise failure[1]
            if retries:
                metric_count("tasks.retried", len(retries))
                time.sleep(max(policy.delay(call.key, call.attempts)
                               for call in retries))
            # Retries go out in call order, like every round.
            outstanding = sorted(retries, key=lambda call: call.index)
        self.drain_telemetry()
        return results

    def run_tasks(self, tasks: Sequence[Task]) -> List[object]:
        return self.run_calls(_task_calls(tasks))

    def run(self, jobs: Sequence[CharacterizationJob]) -> List[DesignCharacterization]:
        jobs = list(jobs)
        # Scheduling granularity.  A batch with at least one job per
        # worker parallelises best as whole jobs: every design is
        # synthesized exactly once somewhere in the pool.  A small batch
        # (fewer jobs than workers) is instead split into one golden task
        # plus per-chunk timing tasks, trading a little duplicated
        # lowering for intra-job parallelism.  An explicit
        # ``chunk_transitions`` always forces the split (the determinism
        # tests rely on it).  Either way results are bit-identical.
        metric_count("jobs.simulated", len(jobs))
        if self.chunk_transitions is not None or len(jobs) < self.workers:
            return self._run_split(jobs)
        return _restore_traces(jobs, self.run_calls(_job_calls(jobs)))

    def _run_split(self, jobs: List[CharacterizationJob]) -> List[DesignCharacterization]:
        # Plan: per job, one golden task plus one timing task per chunk.
        # A chunk over transitions [start, stop) needs input vectors
        # [start, stop] — one vector of overlap with its predecessor.
        spans: List[List[Tuple[int, int]]] = [
            transition_chunks(job.trace.transitions, self._chunk_size(job.trace.transitions))
            for job in jobs
        ]
        # One flat resilient gather: goldens first, then every chunk in
        # job order (the chunk merge below is local compute, not waiting).
        calls: List[Call] = [
            (_golden_task, (job,), f"golden:{job.name}:{index}")
            for index, job in enumerate(jobs)]
        chunk_slices: List[Tuple[int, int]] = []
        for index, job in enumerate(jobs):
            start_call = len(calls)
            calls.extend(
                (_timing_chunk_task, (job.with_trace(job.trace.slice(start, stop + 1)),),
                 f"chunk:{job.name}:{index}:{start}")
                for start, stop in spans[index])
            chunk_slices.append((start_call, len(calls)))
        outcomes = self.run_calls(calls)
        golden_results = outcomes[:len(jobs)]
        chunk_results = [outcomes[start:stop] for start, stop in chunk_slices]
        results: List[DesignCharacterization] = []
        for index, job in enumerate(jobs):
            synthesized, diamond, gold, stats, netlist_words = golden_results[index]
            timing_traces = merge_timing_chunks(iter(chunk_results[index]))
            results.append(DesignCharacterization(
                entry=job.entry,
                synthesized=synthesized,
                trace=job.trace,
                diamond_words=diamond,
                gold_words=gold,
                timing_traces=timing_traces,
                structural_stats=stats,
                netlist_words=netlist_words,
            ))
        return results


# --------------------------------------------------------------------- #
# Lookup / convenience entry points
# --------------------------------------------------------------------- #
def get_backend(backend, workers: Optional[int] = None) -> Backend:
    """Resolve a backend name (or pass a :class:`Backend` through).

    ``workers`` only applies to the multiprocess backend; ``None`` means
    one worker per CPU.
    """
    if isinstance(backend, Backend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "multiprocess":
        return MultiprocessBackend(workers=workers)
    raise ConfigurationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}")


def build_stack(backend="serial", workers: Optional[int] = None,
                cache_dir: Optional[str] = None,
                cache_limit_mb: Optional[float] = None) -> Backend:
    """The runtime stack over ``backend``: result cache → planner → backend.

    ``backend`` is a name (built here with ``workers``) or an instance.
    The planner (:class:`~repro.runtime.PlannedBackend`) groups jobs
    sharing a design and clock plan into one batched simulation,
    bit-identically to per-job execution; it slots *under* the result
    cache built from ``cache_dir``, so cache entries stay per-job and
    warm batches execute zero jobs.  An instance that already is a
    planned or caching stack is not planned again — that would route
    grouped jobs around the caller's cache.
    """
    from repro.runtime.cache import CachingBackend  # deferred: cache builds on backends
    from repro.runtime.plan import PlannedBackend  # deferred: plan builds on backends
    stack = get_backend(backend, workers=workers)
    if not isinstance(stack, (PlannedBackend, CachingBackend)):
        stack = PlannedBackend(stack)
    if cache_dir is not None:
        stack = CachingBackend(stack, cache_dir, limit_mb=cache_limit_mb)
    return stack


@contextmanager
def open_stack(backend="serial", workers: Optional[int] = None,
               cache_dir: Optional[str] = None) -> Iterator[Backend]:
    """:func:`build_stack` for one ``with`` block.

    A stack over a backend built here from a *name* (and its worker
    pool, if any) is closed on exit; a caller-supplied :class:`Backend`
    is left open, so its pool and per-worker caches stay warm.
    """
    stack = build_stack(backend, workers=workers, cache_dir=cache_dir)
    try:
        yield stack
    finally:
        if not isinstance(backend, Backend):
            stack.close()


def run_jobs(jobs: Sequence[CharacterizationJob], backend="serial",
             workers: Optional[int] = None,
             cache_dir: Optional[str] = None,
             telemetry_dir: Optional[str] = None) -> List[DesignCharacterization]:
    """Run a batch of characterization jobs on the requested backend.

    The batch runs on :func:`build_stack`: the execution planner over
    ``backend``, fronted by the persistent result cache of
    :mod:`repro.runtime.cache` when ``cache_dir`` is given (hits skip
    execution entirely, misses run and are persisted for the next
    call).

    ``telemetry_dir`` (or ``$REPRO_TELEMETRY_DIR``) appends a run
    manifest — phases, spans, worker utilisation, metrics — to the
    given directory (see :mod:`repro.obs.manifest`).  When an outer
    telemetry session is already active (a CLI, or ``run_sweep``), the
    batch is observed by it and no extra manifest is written.

    This is the one-shot convenience entry point: a backend constructed
    here from a *name* (and its worker pool, if any) is closed before
    returning.  To keep a pool and its per-worker caches warm across
    batches, pass a :class:`Backend` instance you own — it is left
    open — or schedule through ``StudyConfig.runtime_backend()``.
    """
    jobs = list(jobs)
    with telemetry_run(telemetry_dir, command="run_jobs",
                       config={"jobs": len(jobs),
                               "cache_dir": str(cache_dir) if cache_dir else None}) \
            as telemetry, open_stack(backend, workers, cache_dir) as stack:
        telemetry.config["backend"] = stack.describe()
        return stack.run(jobs)
