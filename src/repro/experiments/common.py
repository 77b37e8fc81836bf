"""Shared machinery of the experiment drivers.

``StudyConfig`` gathers every knob of the reproduction (trace lengths and
their scale factor, clock plan, simulator tier and engine, execution
backend, synthesis and model options) with defaults scaled so a full run
finishes in minutes on a laptop; trace lengths can be raised towards the
paper's ten-million-vector characterisation when more fidelity is wanted.

Characterisation itself lives in :mod:`repro.runtime`: every figure
driver turns its designs into :class:`~repro.runtime.CharacterizationJob`
batches and submits them to the study's execution backend (``serial`` or
``multiprocess``).  :func:`characterize_design` is the single-job
convenience wrapper and :func:`characterize_designs` the batch entry
point; both return :class:`~repro.runtime.DesignCharacterization`
objects bundling the synthesized design, the diamond/golden outputs, the
gate-level cross-check words and the timing simulation at every clock
period of the plan.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry, paper_design_entries
from repro.ml.model import TimingModelOptions
from repro.runtime import (
    BACKENDS,
    SIMULATORS,
    Backend,
    CharacterizationJob,
    DesignCharacterization,
    RetryPolicy,
    build_stack,
    get_backend,
)
from repro.settings import RuntimeSettings
from repro.synth.flow import SynthesisOptions
from repro.timing.clocking import ClockPlan
from repro.timing.fast_sim import ENGINES
from repro.workloads.generators import uniform_workload
from repro.workloads.traces import OperandTrace

#: Shared backend stacks: the raw backend per (backend, workers, retry
#: policy) — keeping a multiprocess pool and its per-worker caches alive
#: between calls — and the stack over it per that key plus the result
#: cache's directory and budget, so hit/miss counters accumulate over a
#: whole study run.
_SHARED_BACKENDS: dict = {}


def shutdown_backends() -> None:
    """Close every shared backend (worker pools included); idempotent.

    Registered with :mod:`atexit` so multiprocess pools never outlive
    the interpreter silently; tests call it directly to assert clean
    pool teardown and to reset the shared-instance registry.
    """
    instances = list(_SHARED_BACKENDS.values())
    _SHARED_BACKENDS.clear()
    for backend in instances:
        backend.close()


atexit.register(shutdown_backends)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a full reproduction study."""

    width: int = 32
    characterization_length: int = 4000
    training_length: int = 2500
    evaluation_length: int = 2500
    seed: int = 7
    simulator: str = "event"
    engine: str = "auto"
    backend: str = field(default_factory=lambda: RuntimeSettings.current().backend)
    workers: Optional[int] = field(default_factory=lambda: RuntimeSettings.current().workers)
    trace_scale: float = field(
        default_factory=lambda: RuntimeSettings.current().trace_scale)
    cache_dir: Optional[str] = field(
        default_factory=lambda: RuntimeSettings.current().cache_dir)
    cache_limit_mb: Optional[float] = field(
        default_factory=lambda: RuntimeSettings.current().cache_limit_mb)
    clock_plan: ClockPlan = field(default_factory=ClockPlan.paper)
    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    model: TimingModelOptions = field(default_factory=TimingModelOptions)

    def __post_init__(self) -> None:
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"simulator must be one of {SIMULATORS}, got {self.simulator!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")
        if not (math.isfinite(self.trace_scale) and self.trace_scale > 0):
            raise ConfigurationError(
                f"trace_scale must be positive and finite, got {self.trace_scale}")
        if self.cache_limit_mb is not None and not (
                math.isfinite(self.cache_limit_mb) and self.cache_limit_mb > 0):
            raise ConfigurationError(
                f"cache_limit_mb must be positive and finite, got {self.cache_limit_mb}")
        for name in ("characterization_length", "training_length", "evaluation_length"):
            if getattr(self, name) < 16:
                raise ConfigurationError(f"{name} must be at least 16 vectors")

    # ------------------------------------------------------------------ #
    def design_entries(self) -> List[DesignEntry]:
        """The twelve paper designs at this study's width."""
        return paper_design_entries(self.width)

    def scaled_length(self, length: int) -> int:
        """``length`` scaled by the study's ``trace_scale`` (16-vector floor)."""
        return max(int(length * self.trace_scale), 16)

    def characterization_trace(self) -> OperandTrace:
        """Random trace used for error characterisation (Figs. 9 and 10)."""
        return uniform_workload(self.scaled_length(self.characterization_length),
                                width=self.width, seed=self.seed)

    def training_trace(self) -> OperandTrace:
        """Random trace used to train the prediction model (Figs. 7 and 8)."""
        return uniform_workload(self.scaled_length(self.training_length),
                                width=self.width, seed=self.seed + 1)

    def evaluation_trace(self) -> OperandTrace:
        """Held-out random trace used to evaluate the prediction model."""
        return uniform_workload(self.scaled_length(self.evaluation_length),
                                width=self.width, seed=self.seed + 2)

    def scaled_down(self, factor: float) -> "StudyConfig":
        """A copy with every trace scaled by ``factor`` (for quick runs).

        Scaling composes into the explicit ``trace_scale`` field — the
        single mechanism behind every trace-length adjustment — so the
        applied factor stays visible in reports.
        """
        if factor <= 0:
            raise ConfigurationError(f"factor must be positive, got {factor}")
        return replace(self, trace_scale=self.trace_scale * factor)

    # ------------------------------------------------------------------ #
    # Runtime integration
    # ------------------------------------------------------------------ #
    def job(self, entry: DesignEntry, trace: OperandTrace,
            collect_structural_stats: bool = False) -> CharacterizationJob:
        """The characterization job of one design entry over one trace."""
        return CharacterizationJob(
            entry=entry,
            trace=trace,
            clock_periods=tuple(self.clock_plan.periods),
            simulator=self.simulator,
            engine=self.engine,
            synthesis=self.synthesis,
            width=self.width,
            collect_structural_stats=collect_structural_stats,
        )

    def runtime_backend(self) -> Backend:
        """The execution backend this study schedules its jobs on.

        The stack is :func:`~repro.runtime.build_stack`'s — the
        execution planner over the study's backend, fronted by the
        persistent result cache when ``cache_dir`` is set — and it is
        shared: the raw backend per (backend, workers, retry policy), so
        a multiprocess pool and its per-worker design caches stay warm
        across characterisation calls, and the stack per that key plus
        the cache directory and budget, so hit/miss counters span a
        whole study run.  The retry policy is the current settings'
        (``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``, or a CLI run's
        flags), so a run under different retry settings never inherits
        another run's backend.
        """
        key = (self.backend, self.workers, RetryPolicy.from_env())
        inner = _SHARED_BACKENDS.get(key)
        if inner is None:
            inner = _SHARED_BACKENDS[key] = get_backend(self.backend, workers=self.workers)
        cache_dir = (os.path.abspath(os.path.expanduser(self.cache_dir))
                     if self.cache_dir is not None else None)
        stack_key = key + (cache_dir, self.cache_limit_mb)
        stack = _SHARED_BACKENDS.get(stack_key)
        if stack is None:
            stack = _SHARED_BACKENDS[stack_key] = build_stack(
                inner, cache_dir=self.cache_dir, cache_limit_mb=self.cache_limit_mb)
        return stack


def characterize_design(entry: DesignEntry, trace: OperandTrace, config: StudyConfig,
                        collect_structural_stats: bool = False) -> DesignCharacterization:
    """Characterise one design over a trace at every CPR level.

    Thin wrapper over the runtime: builds a single job and submits it to
    the study's backend (the multiprocess backend still parallelises a
    single job across its trace chunks).
    """
    job = config.job(entry, trace, collect_structural_stats=collect_structural_stats)
    return config.runtime_backend().run([job])[0]


def characterize_designs(entries: Sequence[DesignEntry], trace: OperandTrace,
                         config: StudyConfig,
                         stats_for: Iterable[str] = ()) -> List[DesignCharacterization]:
    """Characterise a batch of designs over one shared trace.

    ``stats_for`` names the designs whose structural fault statistics
    should be collected (the Fig. 10 design).  Results come back in
    entry order regardless of the backend.
    """
    stats_for = set(stats_for)
    jobs = [config.job(entry, trace, collect_structural_stats=entry.name in stats_for)
            for entry in entries]
    return config.runtime_backend().run(jobs)
