"""Unified characterization runtime: jobs plus pluggable backends.

Every heavy operation of the reproduction — synthesize a design, compute
its golden references, simulate an operand trace at a set of clock
periods — is modelled as a :class:`CharacterizationJob` and scheduled by
a :class:`Backend`:

* ``serial`` executes jobs in-process (the reference behaviour),
* ``multiprocess`` fans independent jobs *and* independent word-aligned
  trace chunks out across worker processes, with per-process caching of
  synthesized designs and compiled programs, merging chunks in trace
  order so results are bit-identical to serial at any worker count.

Each backend schedules everything through one dispatch method,
:meth:`Backend.run_calls`, which is also where retries, pool recovery
and fault-plan decisions (:mod:`repro.runtime.faultinject`) happen.

The experiment drivers (`repro.experiments`), the dataset assembly
(`repro.ml.dataset`), the ``repro-experiments`` CLI and the throughput
benchmarks all characterise through this runtime; future scaling work
(async, remote workers) plugs in here as additional backends.

:mod:`repro.runtime.cache` adds persistence on top: wrapping any
backend in a :class:`CachingBackend` stores every result in a
content-addressed on-disk store keyed by the job's full identity, so
re-runs (and large sharded traces interrupted half-way) reuse finished
work bit-identically instead of re-simulating it.  :func:`build_stack`
is the one builder of the stack — result cache over execution planner
over backend — that ``run_jobs``, ``run_sweep``, ``run_adaptive`` and
``StudyConfig.runtime_backend`` all schedule on.

Runtime settings (backend, workers, caches, retries, timeout, telemetry,
fault plan) resolve env → StudyConfig → CLI through
:mod:`repro.settings` when a run starts; no run changes the process
environment, and multiprocess workers receive the driver's synthesis
cache with every call.

Quick start::

    from repro.runtime import CharacterizationJob, run_jobs
    from repro.experiments.designs import isa_entry

    job = CharacterizationJob(entry=isa_entry((8, 0, 0, 4)), trace=trace,
                              clock_periods=(2.55e-10,), simulator="fast")
    [result] = run_jobs([job], backend="multiprocess", workers=4)
"""

from repro.runtime.backends import (
    BACKENDS,
    Backend,
    GoldenTask,
    MultiprocessBackend,
    SerialBackend,
    Task,
    TimingChunkTask,
    build_stack,
    get_backend,
    open_stack,
    run_jobs,
)
from repro.runtime.cache import (
    CacheStats,
    CachingBackend,
    ResultStore,
    job_digest,
    trace_digest,
)
from repro.runtime.faultinject import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_point,
    parse_fault_plan,
    reset_fault_plan,
)
from repro.runtime.jobs import (
    SIMULATORS,
    CharacterizationJob,
    DesignCharacterization,
    build_simulator,
    clear_design_cache,
    execute_job,
    merge_timing_chunks,
    synthesize_entry,
    synthesize_job,
)
from repro.runtime.plan import PlannedBackend, execute_group
from repro.runtime.resilience import (
    RETRYABLE_EXCEPTIONS,
    RetryPolicy,
    deterministic_jitter,
    retry_calls,
)
from repro.runtime.synth_cache import (
    SynthesisCache,
    active_synth_cache,
    configure_synth_cache,
    synth_digest,
)
from repro.settings import RETRIES_ENV, TIMEOUT_ENV

__all__ = [
    "BACKENDS",
    "FAULT_PLAN_ENV",
    "RETRIES_ENV",
    "RETRYABLE_EXCEPTIONS",
    "SIMULATORS",
    "TIMEOUT_ENV",
    "Backend",
    "CacheStats",
    "CachingBackend",
    "CharacterizationJob",
    "DesignCharacterization",
    "FaultPlan",
    "FaultSpec",
    "GoldenTask",
    "MultiprocessBackend",
    "PlannedBackend",
    "ResultStore",
    "RetryPolicy",
    "SerialBackend",
    "SynthesisCache",
    "Task",
    "TimingChunkTask",
    "active_fault_plan",
    "active_synth_cache",
    "build_simulator",
    "build_stack",
    "clear_design_cache",
    "configure_synth_cache",
    "deterministic_jitter",
    "execute_group",
    "synth_digest",
    "execute_job",
    "fault_point",
    "get_backend",
    "job_digest",
    "merge_timing_chunks",
    "open_stack",
    "parse_fault_plan",
    "reset_fault_plan",
    "retry_calls",
    "run_jobs",
    "synthesize_entry",
    "synthesize_job",
    "trace_digest",
]
