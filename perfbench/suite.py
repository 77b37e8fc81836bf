"""The three benchmark workloads, driven through the library's public API.

Each workload has the same shape:

* ``prepare()`` is the set-up (timed into ``setup_s``): configuration,
  and for ``adaptive_warm`` the cold search that fills the caches;
* ``iterate(label)`` runs one measured unit of work and returns an
  :class:`Outcome` with the wall time, the scored point count and every
  output the checks need;
* ``check(outcome)`` compares those outputs with the committed goldens
  (or, for held-out inputs, with the golden-free invariants) and
  returns the list of mismatches.

Inputs come from an :class:`Inputs` value derived from the benchmark
seed (see :func:`inputs_for`); the library only ever sees the derived
trace and model seeds, never the benchmark seed itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments import runner
from repro.experiments.common import StudyConfig, shutdown_backends
from repro.explore import (
    AdaptiveSpec,
    DesignSpace,
    SweepSpec,
    frontier_keys,
    pareto,
    run_adaptive,
    run_sweep,
)
from repro.explore.cli import frontier_rows
from repro.families import get_family
from repro.ml.model import TimingModelOptions
from repro.runtime import (
    CachingBackend,
    MultiprocessBackend,
    PlannedBackend,
    SerialBackend,
    clear_design_cache,
    configure_synth_cache,
)
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Input variants with committed goldens; the benchmark seed picks one
#: (``seed % VARIANTS``), so every run is checked against a golden.
VARIANTS = 8

#: The figures' traces keep the paper's seed; the seed varies the model.
FIGURE_TRACE_SEED = 7
MODEL_SEED_BASE = 2017          # TimingModelOptions' default seed
SWEEP_TRACE_SEED_BASE = 7
SEARCH_SEED_BASE = 7
ADAPTIVE_TRACE_SEED = 7

#: Figure-pipeline outputs: Fig. 9/10 are simulation only (byte checked),
#: Fig. 7/8 come from the per-bit classifiers (checked through ABPER).
FIGURES = ["fig7", "fig8", "fig9", "fig10"]

#: A rewritten classifier may move the mean Fig. 7 ABPER by this share of
#: its golden value before the output counts as wrong.
ABPER_TOLERANCE = 0.10

#: The adaptive search must recover this share of the reference frontier
#: while simulating at most ``ADAPTIVE_MAX_FRACTION`` of the space.
RECALL_GATE = 0.9
ADAPTIVE_MAX_FRACTION = 0.2

WIDTH = 16
SWEEP_WORKERS = 2

#: Directory names of the two stores; the traced run tells the result
#: cache's store I/O from the synthesis cache's by them.
RESULTS_DIR = "results"
SYNTH_DIR = "synth"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (``full`` is the benchmark)."""

    figure_trace_scale: float = 0.5
    sweep_designs: int = 256
    sweep_length: int = 1024
    adaptive_length: int = 128
    adaptive_budget: Optional[int] = None


SIZES = {
    "full": Sizes(),
    "smoke": Sizes(figure_trace_scale=0.04, sweep_designs=12, sweep_length=128,
                   adaptive_length=64, adaptive_budget=40),
}


@dataclass(frozen=True)
class Inputs:
    """Seeds derived from the benchmark seed, plus the size preset."""

    variant: int
    held_out: bool
    size: str

    @property
    def golden(self) -> bool:
        """Whether committed goldens describe these inputs."""
        return not self.held_out and self.size == "full"

    @property
    def sizes(self) -> Sizes:
        return SIZES[self.size]


def inputs_for(seed: int, held_out: bool = False, size: str = "full") -> Inputs:
    """The inputs of benchmark seed ``seed``.

    A normal run uses variant ``seed % VARIANTS``, which has goldens; a
    held-out run uses variant ``VARIANTS + seed``, outside the golden
    pool, and is checked only against golden-free invariants.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    variant = VARIANTS + seed if held_out else seed % VARIANTS
    return Inputs(variant=variant, held_out=held_out, size=size)


def load_golden(name: str):
    with open(GOLDEN_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


def canonical(value) -> str:
    """Byte-stable serialisation used for every golden comparison."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def store_inventory(root: Path) -> Dict[str, int]:
    """Entries and bytes of a ``ResultStore`` directory, counted on disk.

    Layout ``<root>/<digest[:2]>/<digest>/<files>``; an entry is a digest
    directory holding at least one published (non-temporary) file.
    """
    entries = size = 0
    if root.is_dir():
        for prefix in root.iterdir():
            if not prefix.is_dir():
                continue
            for entry in prefix.iterdir():
                files = [path for path in entry.iterdir()
                         if path.is_file() and not path.name.startswith(".tmp-")]
                if files:
                    entries += 1
                    size += sum(path.stat().st_size for path in files)
    return {"entries": entries, "bytes": size}


@dataclass
class Outcome:
    """What one iteration produced."""

    wall_s: float
    points: int
    outputs: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Common scaffolding: a private work directory and fresh cache dirs."""

    name = ""
    workers = 1
    #: Set-ups timed per run (``setup_s`` is their median).
    setup_repeats = 3

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self._fresh = 0

    def fresh_dir(self, label: str) -> Path:
        self._fresh += 1
        path = self.workdir / f"{label}-{self._fresh}"
        path.mkdir(parents=True)
        return path

    def settings(self) -> dict:
        """Resolved settings recorded with each result."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def iterate(self, label: str) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        shutdown_backends()


# --------------------------------------------------------------------- #
# figures: the paper's Fig. 7-10 pipeline
# --------------------------------------------------------------------- #
class Figures(Workload):
    """``run_all`` for Fig. 7-10, fast simulator, serial, no caches."""

    name = "figures"

    def config(self) -> StudyConfig:
        return StudyConfig(
            simulator="fast", engine="auto", backend="serial", workers=None,
            trace_scale=self.inputs.sizes.figure_trace_scale, cache_dir=None,
            cache_limit_mb=None, seed=FIGURE_TRACE_SEED,
            model=TimingModelOptions(seed=MODEL_SEED_BASE + self.inputs.variant))

    def settings(self) -> dict:
        config = self.config()
        return {"figures": FIGURES, "simulator": config.simulator,
                "engine": config.engine, "backend": config.backend,
                "trace_scale": config.trace_scale, "trace_seed": config.seed,
                "model_seed": config.model.seed, "result_cache": None,
                "synth_cache": None}

    def prepare(self) -> None:
        self.study = self.config()
        configure_synth_cache(None)
        self.study.runtime_backend()

    def iterate(self, label: str) -> Outcome:
        captured = []
        original = runner.run_prediction_study

        def capture(config):
            study = original(config)
            captured.append(study)
            return study

        clear_design_cache()
        runner.run_prediction_study = capture
        try:
            started = time.perf_counter()
            report = runner.run_all(self.study, FIGURES)
            wall = time.perf_counter() - started
        finally:
            runner.run_prediction_study = original
        sections = {number: "\n\n".join(
                        section for section in report.split("\n\n")
                        if section.startswith(f"Fig. {number} — "))
                    for number in (7, 8, 9, 10)}
        [study] = captured
        abper = sum(row.abper for row in study.rows) / len(study.rows)
        config = self.study
        jobs = 3 * len(config.design_entries())
        return Outcome(wall_s=wall, points=jobs * len(config.clock_plan.cpr_levels),
                       outputs={"sections": sections, "prediction_abper": abper})

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        sections = outcome.outputs["sections"]
        for number, text in sections.items():
            if not text:
                problems.append(f"Fig. {number} table missing from the report")
        if problems or self.inputs.size != "full":
            return problems
        golden = load_golden("figures.json")
        for number in (9, 10):
            if sections[number] != golden["tables"][str(number)]:
                problems.append(f"Fig. {number} tables differ from their golden")
        references = golden["prediction_abper"]
        reference = (references[str(self.inputs.variant)] if self.inputs.golden
                     else max(references.values()))
        abper = outcome.outputs["prediction_abper"]
        if not abper <= reference * (1 + ABPER_TOLERANCE):
            problems.append(f"mean Fig. 7 ABPER {abper:.6g} exceeds the golden "
                            f"{reference:.6g} by more than {ABPER_TOLERANCE:.0%}")
        if self.inputs.golden:
            ml_tables = golden["ml_tables"][str(self.inputs.variant)]
            outcome.outputs["ml_tables_identical"] = all(
                sections[number] == ml_tables[str(number)] for number in (7, 8))
        return problems


# --------------------------------------------------------------------- #
# sweep_cold: exhaustive-style sweep into empty caches, 2 workers
# --------------------------------------------------------------------- #
def sweep_spec(trace_seed: int, sizes: Sizes) -> SweepSpec:
    family = get_family("adder")
    space = DesignSpace(width=WIDTH)
    return SweepSpec(
        entries=tuple(space.entries(max_designs=sizes.sweep_designs)),
        clock_plan=ClockPlan(safe_period=family.safe_period(WIDTH),
                             cpr_levels=(0.0, 0.05, 0.10, 0.15)),
        workloads=(WorkloadSpec(kind="uniform", length=sizes.sweep_length,
                                width=WIDTH, seed=trace_seed),),
        simulator="fast", engine="auto", width=WIDTH)


def cached_stack(inner, result_dir: Path) -> CachingBackend:
    """The runtime stack every CLI builds: cache over planner over backend."""
    return CachingBackend(PlannedBackend(inner), str(result_dir))


def ranked_rows(points) -> list:
    # Looked up on the module, so the traced run's pareto wrappers see it.
    ranked = pareto.rank_frontier(pareto.pareto_frontier(pareto.aggregate_points(points)))
    return frontier_rows(ranked, get_family("adder"))


class SweepCold(Workload):
    """``run_sweep`` over 256 strided width-16 designs plus the exact adder."""

    name = "sweep_cold"
    workers = SWEEP_WORKERS

    def trace_seed(self) -> int:
        return SWEEP_TRACE_SEED_BASE + self.inputs.variant

    def settings(self) -> dict:
        sizes = self.inputs.sizes
        return {"width": WIDTH, "designs": sizes.sweep_designs + 1,
                "length": sizes.sweep_length, "trace_seed": self.trace_seed(),
                "cpr_levels": [0.0, 0.05, 0.10, 0.15], "simulator": "fast",
                "backend": "multiprocess", "workers": SWEEP_WORKERS,
                "result_cache": "fresh per iteration",
                "synth_cache": "fresh per iteration"}

    def prepare(self) -> None:
        self.spec = sweep_spec(self.trace_seed(), self.inputs.sizes)

    def iterate(self, label: str) -> Outcome:
        return self.run_once(label, MultiprocessBackend(workers=SWEEP_WORKERS))

    def run_once(self, label: str, inner) -> Outcome:
        root = self.fresh_dir(label)
        synth_dir, result_dir = root / SYNTH_DIR, root / RESULTS_DIR
        configure_synth_cache(str(synth_dir))
        clear_design_cache()
        backend = cached_stack(inner, result_dir)
        try:
            started = time.perf_counter()
            result = run_sweep(self.spec, backend=backend)
            rows = ranked_rows(result.points)
            wall = time.perf_counter() - started
        finally:
            backend.close()
            configure_synth_cache(None)
        outputs = {
            "rows": rows,
            "points": [(point.design, point.cpr, repr(point.stats),
                        point.structural_rms, point.timing_rms)
                       for point in result.points],
            "simulated": backend.stats.misses,
            "hits": backend.stats.hits,
            "result_written": store_inventory(result_dir),
            "synth_written": store_inventory(synth_dir),
        }
        return Outcome(wall_s=wall, points=len(result.points), outputs=outputs)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        outputs = outcome.outputs
        jobs = len(self.spec.entries)
        if outcome.points != self.spec.point_count:
            problems.append(f"{outcome.points} points scored, expected "
                            f"{self.spec.point_count}")
        if outputs["simulated"] != jobs or outputs["hits"] != 0:
            problems.append(f"simulated {outputs['simulated']} jobs with "
                            f"{outputs['hits']} cache hits, expected {jobs} and 0")
        for store in ("result_written", "synth_written"):
            if outputs[store]["entries"] != jobs:
                problems.append(f"{store} holds {outputs[store]['entries']} entries, "
                                f"expected {jobs}")
        if self.inputs.golden:
            golden = load_golden("sweep_cold.json")[str(self.inputs.variant)]
            if canonical(outputs["rows"]) != canonical(golden):
                problems.append("ranked frontier rows differ from their golden")
        return problems

    def serial_matches(self, outcome: Outcome) -> List[str]:
        """Held-out check: the serial backend scores bit-identical points."""
        serial = self.run_once("serial", SerialBackend())
        if serial.outputs["points"] != outcome.outputs["points"]:
            return ["serial and multiprocess sweeps scored different points"]
        return []


# --------------------------------------------------------------------- #
# adaptive_warm: the surrogate search re-run against warm caches
# --------------------------------------------------------------------- #
class AdaptiveWarm(Workload):
    """``run_adaptive`` at width 16, re-run warm on the serial backend."""

    name = "adaptive_warm"
    # The set-up is a whole cold search (~15 s); one per run.
    setup_repeats = 1

    def search_seed(self) -> int:
        return SEARCH_SEED_BASE + self.inputs.variant

    def spec(self) -> AdaptiveSpec:
        sizes = self.inputs.sizes
        family = get_family("adder")
        template = SweepSpec(
            entries=(family.exact_entry(WIDTH),),
            clock_plan=ClockPlan(safe_period=family.safe_period(WIDTH),
                                 cpr_levels=(0.0, 0.10)),
            workloads=(WorkloadSpec(kind="uniform", length=sizes.adaptive_length,
                                    width=WIDTH, seed=ADAPTIVE_TRACE_SEED),),
            simulator="fast", engine="auto", width=WIDTH)
        spec = AdaptiveSpec(space=DesignSpace(width=WIDTH), sweep=template,
                            seed=self.search_seed())
        if sizes.adaptive_budget is not None:
            spec = replace(spec, budget=sizes.adaptive_budget)
        return spec

    def settings(self) -> dict:
        spec = self.spec()
        return {"width": WIDTH, "length": self.inputs.sizes.adaptive_length,
                "trace_seed": ADAPTIVE_TRACE_SEED, "search_seed": spec.seed,
                "cpr_levels": [0.0, 0.10], "batch_size": spec.batch_size,
                "budget": spec.budget, "budget_fraction": spec.budget_fraction,
                "backend": "serial", "result_cache": "filled in set-up",
                "synth_cache": "filled in set-up"}

    def prepare(self) -> None:
        self.adaptive_spec = self.spec()
        root = self.fresh_dir("caches")
        self.synth_dir, self.result_dir = root / SYNTH_DIR, root / RESULTS_DIR
        configure_synth_cache(str(self.synth_dir))
        clear_design_cache()
        backend = cached_stack(SerialBackend(), self.result_dir)
        try:
            cold = run_adaptive(self.adaptive_spec, backend=backend)
        finally:
            backend.close()
        self.cold_keys = frontier_keys(cold.frontier)

    def iterate(self, label: str) -> Outcome:
        # A re-run is a new process: nothing memoised in this one counts.
        clear_design_cache()
        before = [store_inventory(self.result_dir), store_inventory(self.synth_dir)]
        backend = cached_stack(SerialBackend(), self.result_dir)
        try:
            started = time.perf_counter()
            result = run_adaptive(self.adaptive_spec, backend=backend)
            wall = time.perf_counter() - started
        finally:
            backend.close()
        after = [store_inventory(self.result_dir), store_inventory(self.synth_dir)]
        written = [{key: now[key] - then[key] for key in now}
                   for now, then in zip(after, before)]
        requested = (result.simulated + 1) * len(self.adaptive_spec.sweep.workloads)
        outputs = {"keys": frontier_keys(result.frontier),
                   "simulated": backend.stats.misses, "hits": backend.stats.hits,
                   "requested": requested, "rounds": len(result.rounds),
                   "fraction": result.fraction_simulated}
        if self.inputs.size == "full":
            reference = {(tuple(quadruple) if quadruple is not None else None, cpr)
                         for quadruple, cpr in load_golden("adaptive_reference.json")}
            outputs["recall"] = len(reference & outputs["keys"]) / len(reference)
        return Outcome(wall_s=wall, points=len(result.points), outputs=outputs)

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        outputs = outcome.outputs
        if outputs["simulated"] != 0 or outputs["hits"] != outputs["requested"]:
            problems.append(f"warm search simulated {outputs['simulated']} jobs and hit "
                            f"{outputs['hits']} of {outputs['requested']}")
        if outputs["keys"] != self.cold_keys:
            problems.append("warm frontier differs from the cold search's frontier")
        if outputs["fraction"] > ADAPTIVE_MAX_FRACTION:
            problems.append(f"simulated {outputs['fraction']:.1%} of the space")
        recall = outputs.get("recall")
        if recall is not None and recall < RECALL_GATE:
            problems.append(f"frontier recall {recall:.3f} below {RECALL_GATE}")
        return problems


WORKLOADS = {workload.name: workload for workload in (Figures, SweepCold, AdaptiveWarm)}
