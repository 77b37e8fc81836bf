"""Sweep expansion: designs x clock points x workloads -> one job batch.

A :class:`SweepSpec` names everything a design-space sweep varies — the
design entries (typically a :class:`~repro.explore.space.DesignSpace`
selection plus the exact baseline), a clock plan whose CPR levels are the
overclocking points, and one or more workload generators — and expands
into a single batch of
:class:`~repro.runtime.CharacterizationJob` submitted through
:mod:`repro.runtime` in one call.  That single-batch shape is deliberate:
the multiprocess backend schedules whole jobs across its pool only when
the batch is at least one job per worker, and the
:class:`~repro.runtime.CachingBackend` plans hits and misses over the
entire sweep at once, so a resumed sweep re-simulates exactly the
missing designs.

Each finished job is scored into :class:`SweepPoint` records — one per
(design x workload x CPR level) — carrying the joint error statistics of
the overclocked output against the exact reference
(:func:`~repro.analysis.metrics.error_statistics`), the split
structural/timing RMS components, and the structural cost of the
synthesized netlist (:func:`~repro.analysis.metrics.structural_cost`).
The Pareto machinery in :mod:`repro.explore.pareto` consumes these
points directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    ErrorStatistics,
    StructuralCost,
    error_statistics,
    structural_cost,
)
from repro.core.combination import combine_errors
from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry
from repro.families import family_of
from repro.obs.trace import span
from repro.runtime import (
    SIMULATORS,
    CharacterizationJob,
    DesignCharacterization,
    open_stack,
    run_jobs,
)
from repro.synth.flow import SynthesisOptions
from repro.timing.clocking import ClockPlan
from repro.timing.fast_sim import ENGINES
from repro.workloads.generators import WorkloadSpec

#: Default overclocking points of a sweep: the safe period (the frontier
#: anchor where timing errors vanish) plus the paper's 5/10/15 % CPR.
SWEEP_CPR_LEVELS = (0.0, 0.05, 0.10, 0.15)


def sweep_clock_plan(cpr_levels: Sequence[float] = SWEEP_CPR_LEVELS) -> ClockPlan:
    """The paper's safe period swept over explicit CPR levels."""
    return ClockPlan(cpr_levels=tuple(cpr_levels))


@dataclass(frozen=True)
class SweepSpec:
    """One design-space sweep: entries x clock plan x workloads."""

    entries: Tuple[DesignEntry, ...]
    clock_plan: ClockPlan = field(default_factory=sweep_clock_plan)
    workloads: Tuple[WorkloadSpec, ...] = ()
    simulator: str = "fast"
    engine: str = "auto"
    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    width: int = 32

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("a sweep needs at least one design entry")
        if not self.workloads:
            raise ConfigurationError("a sweep needs at least one workload spec")
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"simulator must be one of {SIMULATORS}, got {self.simulator!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        for workload in self.workloads:
            if workload.width != self.width:
                raise ConfigurationError(
                    f"workload {workload.kind!r} is {workload.width}-bit but the "
                    f"sweep is {self.width}-bit")
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "workloads", tuple(self.workloads))

    # ------------------------------------------------------------------ #
    @property
    def job_count(self) -> int:
        """Jobs the sweep expands into (designs x workloads)."""
        return len(self.entries) * len(self.workloads)

    @property
    def point_count(self) -> int:
        """Scored points the sweep yields (designs x workloads x CPR levels)."""
        return self.job_count * len(self.clock_plan.cpr_levels)

    def jobs(self) -> List[CharacterizationJob]:
        """The sweep as one flat job batch, workload-major then entry order.

        Traces are materialised once per workload and shared by every
        design's job, so the batch carries ``len(workloads)`` operand
        arrays no matter how many designs are swept (and every job of a
        workload hits the same trace digest in the result cache).
        """
        jobs: List[CharacterizationJob] = []
        for workload in self.workloads:
            trace = workload.generate()
            for entry in self.entries:
                jobs.append(CharacterizationJob(
                    entry=entry,
                    trace=trace,
                    clock_periods=tuple(self.clock_plan.periods),
                    simulator=self.simulator,
                    engine=self.engine,
                    synthesis=self.synthesis,
                    width=self.width,
                ))
        return jobs

    def with_entries(self, entries: Sequence[DesignEntry]) -> "SweepSpec":
        """This sweep over a different design subset, everything else shared.

        The adaptive explorer expands each of its batches through this:
        clock plan, workloads, simulator tier and synthesis options stay
        identical across rounds, so every round's jobs land in the same
        cache keyspace as an exhaustive sweep of the same space.
        """
        return replace(self, entries=tuple(entries))

    def describe(self) -> str:
        """One-line sweep summary for reports."""
        kinds = ", ".join(workload.kind for workload in self.workloads)
        return (f"{len(self.entries)} designs x {len(self.workloads)} workloads "
                f"({kinds}) x {len(self.clock_plan.cpr_levels)} clock points "
                f"= {self.job_count} jobs / {self.point_count} points")


@dataclass(frozen=True)
class SweepPoint:
    """Score of one (design x workload x CPR) point of a sweep.

    ``stats`` are the *joint* error statistics — the overclocked inexact
    output against the exact reference, the quantity an application
    ultimately experiences; ``structural_rms`` / ``timing_rms`` split
    that error into the paper's two sources.
    """

    design: str
    quadruple: Optional[Tuple[int, int, int, int]]
    workload: str
    cpr: float
    clock_period: float
    stats: ErrorStatistics
    structural_rms: float
    timing_rms: float
    cost: StructuralCost
    provably_exact: bool = False

    @property
    def is_exact(self) -> bool:
        """True for the exact-baseline design."""
        return self.quadruple is None


@dataclass
class SweepResult:
    """Every scored point of one executed sweep.

    ``resumed_jobs`` counts jobs whose scores were replayed from a
    checkpoint journal instead of simulated (zero without checkpointing).
    """

    spec: SweepSpec
    points: List[SweepPoint]
    resumed_jobs: int = 0

    @property
    def designs(self) -> List[str]:
        """Design names in sweep order, each once."""
        seen: List[str] = []
        for point in self.points:
            if point.design not in seen:
                seen.append(point.design)
        return seen

    def points_for(self, design: str) -> List[SweepPoint]:
        """All points of one design, across workloads and CPR levels."""
        return [point for point in self.points if point.design == design]


def score_characterization(characterization: DesignCharacterization,
                           clock_plan: ClockPlan, width: int,
                           workload: str) -> List[SweepPoint]:
    """Score one finished job into its per-CPR sweep points."""
    with span("score"):
        return _score_characterization(characterization, clock_plan, width, workload)


def _score_characterization(characterization: DesignCharacterization,
                            clock_plan: ClockPlan, width: int,
                            workload: str) -> List[SweepPoint]:
    entry = characterization.entry
    family = family_of(entry)
    quadruple = family.quadruple_of(entry)
    provably_exact = family.is_provably_exact(entry)
    result_width = family.result_width(width)
    cost = structural_cost(characterization.synthesized)
    diamond = characterization.diamond_words[1:]
    gold = characterization.gold_words[1:]
    points: List[SweepPoint] = []
    for cpr, period in clock_plan.items():
        silver = characterization.timing_trace(period).sampled_words
        errors = combine_errors(diamond, gold, silver)
        rms = errors.rms_relative_errors()
        points.append(SweepPoint(
            design=characterization.name,
            quadruple=quadruple,
            workload=workload,
            cpr=cpr,
            clock_period=period,
            stats=error_statistics(diamond, silver, width=result_width),
            structural_rms=rms["structural"],
            timing_rms=rms["timing"],
            cost=cost,
            provably_exact=provably_exact,
        ))
    return points


#: Jobs simulated between checkpoint-journal flushes (a compromise:
#: small enough that an interruption forfeits little work, large enough
#: that the multiprocess backend still sees batches worth scheduling).
CHECKPOINT_BATCH = 16


def run_sweep(spec: SweepSpec, backend="serial", workers: Optional[int] = None,
              cache_dir: Optional[str] = None,
              telemetry_dir: Optional[str] = None,
              checkpoint_dir: Optional[str] = None, resume: bool = False,
              checkpoint_batch: int = CHECKPOINT_BATCH) -> SweepResult:
    """Expand a sweep spec and run it through the job pipeline.

    ``backend`` is a backend name or an owned :class:`Backend` instance
    (a caller-supplied instance is left open, mirroring
    :func:`~repro.runtime.run_jobs`); ``cache_dir`` fronts it with the
    persistent result cache so re-running a sweep — or growing it with
    more designs — only simulates the unseen jobs.  The stack is
    :func:`~repro.runtime.build_stack`'s: the sweep's (design x clock
    plan) groups each run as one multi-trace batched evaluation,
    bit-identical to per-job execution.

    ``telemetry_dir`` (or ``$REPRO_TELEMETRY_DIR``) appends one run
    manifest covering the whole sweep — expansion, execution *and*
    scoring — unless an outer telemetry session (a CLI) already
    observes it (see :mod:`repro.obs.manifest`).

    ``checkpoint_dir`` (or ``$REPRO_CHECKPOINT_DIR``) journals each
    completed batch of ``checkpoint_batch`` jobs — simulated *and*
    scored — into a :class:`~repro.explore.checkpoint.SweepJournal`;
    with ``resume=True`` a previously interrupted run replays journaled
    scores and simulates only the unfinished jobs (counted in
    ``SweepResult.resumed_jobs`` and the ``sweep.jobs_resumed`` metric),
    with points identical to an uninterrupted run.  Without ``resume``
    an existing journal of the same sweep is discarded first.
    """
    from repro.explore.checkpoint import SweepJournal, require_checkpoint_dir
    from repro.obs.manifest import telemetry_run
    from repro.obs.metrics import metric_count
    resolved_checkpoint = require_checkpoint_dir(checkpoint_dir, resume)
    with telemetry_run(telemetry_dir,
                       command="run_sweep",
                       config={"sweep": spec.describe(),
                               "backend": getattr(backend, "name", str(backend)),
                               "workers": workers,
                               "cache_dir": str(cache_dir) if cache_dir else None,
                               "checkpoint_dir": resolved_checkpoint,
                               "resume": resume}):
        jobs = spec.jobs()

        def workload_of(index: int) -> str:
            # jobs() is workload-major: every workload's trace covers one
            # contiguous run of len(entries) jobs.
            return spec.workloads[index // len(spec.entries)].kind

        journal, completed = None, {}
        if resolved_checkpoint is not None:
            from repro.runtime.cache import job_digest
            digests = [job_digest(job) for job in jobs]
            journal = SweepJournal.for_spec(resolved_checkpoint, digests)
            if not resume:
                journal.clear()
            journaled = journal.load() if resume else {}
            completed = {index: journaled[digest] for index, digest in enumerate(digests)
                         if digest in journaled}
        pending = [index for index in range(len(jobs)) if index not in completed]
        resumed = len(jobs) - len(pending)
        if resumed:
            metric_count("sweep.jobs_resumed", resumed)

        # One stack for every batch (a single batch without a journal),
        # so a worker pool and its caches stay warm across checkpoints.
        batch_size = max(1, checkpoint_batch if journal is not None else len(pending))
        scored = dict(completed)
        with open_stack(backend, workers=workers, cache_dir=cache_dir) as stack:
            for start in range(0, len(pending), batch_size):
                batch = pending[start:start + batch_size]
                characterizations = run_jobs([jobs[index] for index in batch],
                                             backend=stack)
                for index, characterization in zip(batch, characterizations):
                    scored[index] = score_characterization(
                        characterization, spec.clock_plan, spec.width,
                        workload=workload_of(index))
                    if journal is not None:
                        journal.record(digests[index], scored[index])

        points = [point for index in range(len(jobs)) for point in scored[index]]
        return SweepResult(spec=spec, points=points, resumed_jobs=resumed)
