"""Characterization jobs: the unit of work of the execution runtime.

A :class:`CharacterizationJob` bundles everything needed to characterise
one design over one operand trace — the design entry to synthesize, the
trace, the clock periods to sample, the simulator tier (``event`` or
``fast``) and the execution engine of the fast tier (``auto`` /
``compiled`` / ``reference``).  :func:`execute_job` performs the job in
the calling process; the backends in :mod:`repro.runtime.backends`
schedule batches of jobs, possibly splitting each trace into independent
chunks.

Both timing tiers are *transition-local*: the outcome of cycle ``t``
depends only on the input vectors ``t-1`` and ``t`` (the event-driven
simulator seeds each transition from the settled state of the previous
vector, the fast simulator is a two-vector model by construction).  A
trace may therefore be cut at any transition boundary and simulated
chunk by chunk — with a one-vector overlap between chunks — and the
concatenated results are bit-identical to a single full-trace run.
That property is what the multiprocess backend exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.isa import StructuralFaultStats
from repro.exceptions import ConfigurationError
from repro.families import family_of
from repro.obs.trace import span
from repro.runtime.synth_cache import active_synth_cache
from repro.synth.flow import SynthesisOptions, SynthesizedDesign, synthesize
from repro.timing.errors import TimingErrorTrace
from repro.timing.event_sim import EventDrivenSimulator
from repro.timing.fast_sim import ENGINES, FastTimingSimulator
from repro.utils.lru import LRUDict
from repro.workloads.traces import OperandTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> runtime)
    from repro.experiments.designs import DesignEntry

#: Timing-simulator tiers a job may request.
SIMULATORS = ("event", "fast")


@dataclass(frozen=True, eq=False)
class CharacterizationJob:
    """One (design x trace x clock plan x engine) characterisation.

    Jobs are immutable and picklable, so backends can ship them to
    worker processes.  They compare and hash by identity (the trace
    arrays make value equality ill-defined); :meth:`cache_key` is the
    value-level key — everything except the trace — under which
    backends cache synthesized designs and simulators.
    """

    entry: "DesignEntry"
    trace: OperandTrace
    clock_periods: Tuple[float, ...]
    simulator: str = "event"
    engine: str = "auto"
    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    width: int = 32
    collect_structural_stats: bool = False
    output_bus: str = "S"

    def __post_init__(self) -> None:
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"simulator must be one of {SIMULATORS}, got {self.simulator!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not self.clock_periods:
            raise ConfigurationError("a characterization job needs at least one clock period")
        for clk in self.clock_periods:
            if clk <= 0:
                raise ConfigurationError(f"clock periods must be positive, got {clk}")
        if self.trace.length < 2:
            raise ConfigurationError("a characterization trace needs at least two vectors")
        if self.synthesis.variation_sigma > 0 and self.synthesis.variation_seed is None:
            # Workers re-synthesize the design independently; an unseeded
            # variation draw would give every worker a differently
            # annotated circuit and silently break the bit-identity
            # guarantee between backends (and between runs).
            raise ConfigurationError(
                "characterization jobs with variation_sigma > 0 require an explicit "
                "variation_seed so every backend synthesizes the same annotated design")
        object.__setattr__(self, "clock_periods", tuple(self.clock_periods))

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Design label of the job (as used in the paper's figures)."""
        return self.entry.name

    def cache_key(self) -> tuple:
        """Key under which workers cache the synthesized design and simulator.

        Everything that determines the synthesized design and the
        simulator construction — but *not* the trace, so chunk tasks of
        the same job (and jobs re-running a design on another trace) hit
        the same cache entry and lowering happens once per process.
        """
        return (self.entry, self.width, self.synthesis, self.simulator,
                self.engine, self.output_bus)

    def with_trace(self, trace: OperandTrace) -> "CharacterizationJob":
        """The same job over a different (e.g. sliced) trace."""
        return replace(self, trace=trace)


@dataclass
class DesignCharacterization:
    """Everything the experiments need to know about one characterised design."""

    entry: "DesignEntry"
    synthesized: SynthesizedDesign
    trace: OperandTrace
    diamond_words: np.ndarray
    gold_words: np.ndarray
    timing_traces: Dict[float, TimingErrorTrace]
    structural_stats: Optional[StructuralFaultStats] = None
    netlist_words: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        """Design label as used in the paper's figures."""
        return self.entry.name

    def timing_trace(self, clock_period: float) -> TimingErrorTrace:
        """Timing-simulation result at one clock period of the plan."""
        try:
            return self.timing_traces[clock_period]
        except KeyError:
            raise ConfigurationError(
                f"design {self.name} was not simulated at clock period {clock_period}") from None


# --------------------------------------------------------------------- #
# Job execution building blocks (shared by all backends)
# --------------------------------------------------------------------- #
def synthesize_entry(entry: "DesignEntry", width: int,
                     options: SynthesisOptions) -> SynthesizedDesign:
    """Synthesize one design entry with the flow options.

    The entry's operator family decides what the flow materialises — a
    behavioural configuration with a registered generator, or a ready
    netlist (the exact baselines and all multiplier designs).
    """
    with span("synthesize", design=entry.name, width=width):
        spec = family_of(entry).design_spec(entry, width, options)
        return synthesize(spec, options)


#: Process-wide memo of synthesized designs by synthesis identity.
#: Every backend synthesizes through :func:`synthesize_job`, so one
#: design is synthesized (or loaded from the persistent synthesis
#: cache) at most once per process regardless of how many jobs, traces
#: or simulator tiers request it.
_DESIGN_CACHE: Dict[tuple, SynthesizedDesign] = {}


def clear_design_cache() -> None:
    """Drop the process-wide design and simulator caches (tests, benchmarks)."""
    _DESIGN_CACHE.clear()
    _SIMULATORS.clear()


def synthesize_job(job: CharacterizationJob) -> SynthesizedDesign:
    """Synthesize the job's design entry with the job's flow options.

    This is the read-through path of the persistent synthesis cache
    (:mod:`repro.runtime.synth_cache`): an in-memory hit returns the
    process's shared instance, a disk hit (``REPRO_SYNTH_CACHE``) is
    unpickled once and memoised, and only a full miss actually runs the
    flow — and then persists the result for every other process and run.
    The ``synthesize`` phase counter therefore counts *actual* flow
    runs, which is what the warm-cache assertions observe.
    """
    key = (job.entry, job.width, job.synthesis)
    design = _DESIGN_CACHE.get(key)
    if design is not None:
        return design
    cache = active_synth_cache()
    if cache is not None:
        design = cache.load(job.entry, job.width, job.synthesis)
        if design is not None:
            _DESIGN_CACHE[key] = design
            return design
    design = synthesize_entry(job.entry, job.width, job.synthesis)
    if cache is not None:
        cache.store_design(job.entry, job.width, job.synthesis, design)
    _DESIGN_CACHE[key] = design
    return design


def build_simulator(kind: str, synthesized: SynthesizedDesign, engine: str = "auto",
                    clock_periods: Optional[Tuple[float, ...]] = None):
    """Instantiate the requested timing simulator for a synthesized design.

    ``engine`` selects the execution tier of the fast simulator; the
    event-driven simulator is its own (glitch-aware) reference tier and
    ignores it.  When ``clock_periods`` names the periods the caller will
    sample (a job's clock plan), the fast simulator is specialised to
    that plan — only the arrival-threshold cone those clocks reach is
    compiled, which is typically an order of magnitude smaller than the
    general program and bit-identical at the sampled periods.
    """
    with span("lower", simulator=kind, engine=engine,
               clocks=len(clock_periods) if clock_periods else 0):
        if kind == "event":
            return EventDrivenSimulator(synthesized.netlist, synthesized.annotation)
        if kind == "fast":
            return FastTimingSimulator(synthesized.netlist, synthesized.annotation,
                                       engine=engine, clock_periods=clock_periods)
    raise ConfigurationError(f"unknown simulator kind {kind!r}")


def group_key(job: CharacterizationJob) -> tuple:
    """Simulator (and planner grouping) key: all but trace and stats flag."""
    return (job.cache_key(), job.clock_periods)


#: Process-wide simulators by :func:`group_key`, shared by every task of
#: every backend, in the driver and in workers.  LRU-bounded: a sweep
#: touches most designs once, so older entries are dead weight.
_SIMULATORS: "LRUDict[tuple, object]" = LRUDict(16)


def cached_simulator(job: CharacterizationJob, synthesized: SynthesizedDesign,
                     build=None):
    """The job's simulator from the process-wide cache, built on a miss.

    ``build(job, synthesized)`` defaults to :func:`build_simulator`; any
    builder's simulator is valid at every period of the job's clock
    plan, so an entry serves every caller of its key.
    """
    key = group_key(job)
    simulator = _SIMULATORS.get(key)
    if simulator is None:
        simulator = _SIMULATORS.put(key, build(job, synthesized) if build else
                                    build_simulator(job.simulator, synthesized,
                                                    engine=job.engine,
                                                    clock_periods=job.clock_periods))
    return simulator


def golden_reference(job: CharacterizationJob, synthesized: SynthesizedDesign):
    """Diamond/golden words, structural stats and the gate-level cross-check.

    Returns ``(diamond, gold, structural_stats, netlist_words)``; raises
    :class:`~repro.exceptions.ConfigurationError` when the synthesized
    netlist disagrees with the behavioural golden model.
    """
    trace = job.trace
    family = family_of(job.entry)
    with span("simulate", design=job.name, transitions=trace.length):
        diamond = family.exact_words(job.width, trace.a, trace.b)
        gold, structural_stats = family.golden_words(
            job.entry, job.width, trace.a, trace.b,
            collect_stats=job.collect_structural_stats, diamond=diamond)

        # Gate-level settled outputs from the compiled packed engine: the
        # netlist's own golden reference, checked against the behavioural one.
        netlist_words = synthesized.netlist.compute_words(trace.as_operands(),
                                                          output_bus=job.output_bus)
    if not np.array_equal(netlist_words, gold):
        raise ConfigurationError(
            f"synthesized netlist of {job.name} disagrees with its behavioural "
            "golden model; the synthesis flow is unfaithful")
    return diamond, gold, structural_stats, netlist_words


def run_timing(job: CharacterizationJob, simulator) -> Dict[float, TimingErrorTrace]:
    """Run the job's timing simulation over its (possibly sliced) trace."""
    with span("simulate", transitions=job.trace.length,
               clocks=len(job.clock_periods)):
        return simulator.run_trace_multi(job.trace.as_operands(), job.clock_periods,
                                         output_bus=job.output_bus)


def merge_timing_chunks(chunks) -> Dict[float, TimingErrorTrace]:
    """Concatenate per-chunk timing results back into full-trace traces.

    ``chunks`` is a sequence of ``{clock_period: TimingErrorTrace}``
    dicts in chunk order.  Because both simulators are transition-local,
    the concatenation is bit-identical to a single full-trace run.
    """
    chunks = list(chunks)
    if not chunks:
        return {}
    merged: Dict[float, TimingErrorTrace] = {}
    settled = None
    for clk in chunks[0]:
        if settled is None:
            # Both simulators share one settled array across all clock
            # periods of a run; preserve that sharing after the merge.
            settled = np.concatenate([chunk[clk].settled_words for chunk in chunks])
        merged[clk] = TimingErrorTrace(
            clock_period=clk,
            sampled_words=np.concatenate([chunk[clk].sampled_words for chunk in chunks]),
            settled_words=settled,
            output_width=chunks[0][clk].output_width,
        )
    return merged


def execute_job(job: CharacterizationJob,
                synthesized: Optional[SynthesizedDesign] = None,
                simulator=None) -> DesignCharacterization:
    """Perform one characterization job in the calling process.

    This is the reference execution path (the serial backend calls it
    per job); ``synthesized`` and ``simulator`` may be supplied to reuse
    work cached by the caller (they must match the job's ``cache_key``).
    """
    if synthesized is None:
        synthesized = synthesize_job(job)
    diamond, gold, structural_stats, netlist_words = golden_reference(job, synthesized)
    if simulator is None:
        simulator = build_simulator(job.simulator, synthesized, engine=job.engine,
                                    clock_periods=job.clock_periods)
    timing_traces = run_timing(job, simulator)
    return DesignCharacterization(
        entry=job.entry,
        synthesized=synthesized,
        trace=job.trace,
        diamond_words=diamond,
        gold_words=gold,
        timing_traces=timing_traces,
        structural_stats=structural_stats,
        netlist_words=netlist_words,
    )
