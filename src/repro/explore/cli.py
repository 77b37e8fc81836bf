"""``repro-explore``: design-space exploration from the command line.

Enumerates the legal ISA quadruple space at the requested width
(:mod:`repro.explore.space`), expands a sweep over clock-period
reductions and workload generators into one characterization-job batch
(:mod:`repro.explore.sweep`), runs it through the
:mod:`repro.runtime` backend stack — so ``--backend multiprocess``
parallelises the sweep and ``--cache-dir`` makes re-runs and grown
sweeps warm — and prints the Pareto frontier of accuracy vs. gate count
vs. clock period, ranked and annotated with the nearest hand-picked
paper design (:mod:`repro.explore.pareto`).

Example::

    repro-explore --width 16 --max-designs 64 --backend multiprocess \
        --jobs 4 --cache-dir ~/.cache/repro-explore

``--adaptive`` switches the exhaustive (or strided) sweep for the
surrogate-directed search of :mod:`repro.explore.adaptive`: the whole
space is the candidate set, but only a budgeted fraction of it is ever
simulated — random-forest surrogates fitted on the measured rounds steer
each next batch toward the Pareto frontier::

    repro-explore --width 32 --adaptive --budget 160 --batch-size 12 \
        --cache-dir ~/.cache/repro-explore
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_log_value, format_table
from repro.cli import (
    CacheCounters,
    resolve_runtime_flags,
    run_with_settings,
    runtime_flags,
    write_report,
)
from repro.experiments.common import StudyConfig
from repro.explore.adaptive import AdaptiveSpec, run_adaptive
from repro.explore.pareto import (
    aggregate_points,
    pareto_frontier,
    rank_frontier,
)
from repro.explore.sweep import SWEEP_CPR_LEVELS, SweepSpec, run_sweep
from repro.families import family_ids, get_family
from repro.timing.clocking import ClockPlan
from repro.timing.fast_sim import ENGINES
from repro.workloads.generators import GENERATORS, WorkloadSpec

#: Workload generator kinds the sweep may draw stimulus from (the
#: registry order of :data:`repro.workloads.generators.GENERATORS`).
WORKLOAD_KINDS = tuple(GENERATORS)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro-explore`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-explore", parents=[runtime_flags()],
        description="Enumerate, sweep and Pareto-rank approximate-operator "
                    "configurations through the cached characterization pipeline")
    parser.add_argument("--family", choices=family_ids(), default="adder",
                        help="operator family whose design space is explored "
                             "(default adder)")
    parser.add_argument("--width", type=int, default=32,
                        help="operand width whose quadruple space is explored "
                             "(default 32)")
    parser.add_argument("--max-designs", type=int, default=64, metavar="N",
                        help="design budget: at most N quadruples, evenly strided over "
                             "the sorted space; 0 sweeps the entire space (default 64)")
    parser.add_argument("--block-sizes", type=int, nargs="+", default=None, metavar="B",
                        help="adder only: restrict the space to these block sizes "
                             "(default: every proper divisor of the width)")
    parser.add_argument("--max-overhead-bits", type=int, default=None, metavar="K",
                        help="adder only: cost constraint, only quadruples with "
                             "spec+correction+reduction <= K")
    parser.add_argument("--clock-sweep", type=float, nargs="+", metavar="CPR",
                        default=[cpr * 100 for cpr in SWEEP_CPR_LEVELS],
                        help="clock-period reductions to sweep, in percent of the "
                             "family's safe period (default: 0 5 10 15)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_KINDS,
                        default=["uniform"],
                        help="workload generators characterised per design (default: uniform)")
    parser.add_argument("--length", type=int, default=1024, metavar="VECTORS",
                        help="operand vectors per workload trace, scaled by "
                             "$REPRO_TRACE_SCALE (default 1024)")
    parser.add_argument("--simulator", choices=("event", "fast"), default="fast",
                        help="timing simulator tier (default fast; the event tier is the "
                             "glitch-aware reference and orders of magnitude slower)")
    parser.add_argument("--engine", choices=ENGINES, default="auto",
                        help="execution engine of the fast simulator (default auto)")
    parser.add_argument("--cache-limit-mb", type=float, default=None, metavar="MB",
                        help="byte budget of the result cache; oldest entries are "
                             "pruned after writes (default: $REPRO_CACHE_LIMIT_MB, "
                             "or unbounded)")
    parser.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                        help="journal completed job batches to DIR so an interrupted "
                             "exploration can resume (default: $REPRO_CHECKPOINT_DIR, "
                             "or no checkpointing)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted exploration from the checkpoint "
                             "journal: journaled scores are replayed and only "
                             "unfinished jobs are simulated (requires --checkpoint-dir "
                             "or $REPRO_CHECKPOINT_DIR)")
    parser.add_argument("--adaptive", action="store_true",
                        help="surrogate-directed search instead of a sweep: simulate "
                             "only a budgeted fraction of the space, steering each "
                             "batch with random-forest surrogates fitted on the "
                             "measured rounds (--max-designs is ignored; the whole "
                             "space is the candidate set)")
    parser.add_argument("--budget-fraction", type=float, default=0.2, metavar="F",
                        help="adaptive simulation budget as a fraction of the "
                             "candidate space, in (0, 1] (default 0.2)")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="adaptive simulation budget as an absolute design count "
                             "(overrides --budget-fraction)")
    parser.add_argument("--batch-size", type=int, default=12, metavar="N",
                        help="designs simulated per adaptive round (default 12)")
    parser.add_argument("--rounds", type=int, default=30, metavar="N",
                        help="maximum adaptive acquisition rounds after the seed "
                             "batch (default 30)")
    parser.add_argument("--json", action="store_true",
                        help="emit the exploration as structured JSON (frontier "
                             "rows plus the run manifest) instead of the text report")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="print only the N best-ranked frontier rows (default: all)")
    return parser


def design_space(arguments):
    """The quadruple space the CLI arguments select, from the family."""
    family = get_family(arguments.family)
    constraints = {}
    if arguments.family == "adder":
        if arguments.block_sizes:
            constraints["block_sizes"] = tuple(arguments.block_sizes)
        constraints["max_overhead_bits"] = arguments.max_overhead_bits
    return family.design_space(arguments.width, **constraints)


def build_sweep(arguments, config: StudyConfig,
                space=None, template: bool = False) -> SweepSpec:
    """Expand the CLI arguments into the sweep specification.

    With ``template=True`` the entries are just the exact baseline —
    the shape the adaptive search wants, replacing the entries batch by
    batch via :meth:`SweepSpec.with_entries`.
    """
    family = get_family(arguments.family)
    space = space if space is not None else design_space(arguments)
    if template:
        entries = [family.exact_entry(arguments.width)]
    else:
        max_designs = arguments.max_designs if arguments.max_designs > 0 else None
        entries = space.entries(max_designs=max_designs)
    length = config.scaled_length(arguments.length)
    workloads = tuple(
        WorkloadSpec(kind=kind, length=length, width=arguments.width,
                     seed=arguments.seed + index)
        for index, kind in enumerate(arguments.workloads))
    plan = ClockPlan(safe_period=family.safe_period(arguments.width),
                     cpr_levels=tuple(cpr / 100.0 for cpr in arguments.clock_sweep))
    return SweepSpec(entries=tuple(entries), clock_plan=plan, workloads=workloads,
                     simulator=arguments.simulator, engine=arguments.engine,
                     synthesis=config.synthesis, width=arguments.width)


def nearest_paper_label(point, family) -> str:
    """How close a frontier point sits to a hand-picked paper design."""
    if point.is_exact:
        return "exact (baseline)"
    annotation = family.annotate(point.quadruple)
    if annotation is None:
        return "—"
    nearest, distance = annotation
    if distance == 0:
        return f"{nearest} (paper design)"
    return f"{nearest} (d={distance:.1f})"


def frontier_rows(ranked, family) -> List[dict]:
    """JSON-ready dicts of the ranked frontier (the ``--json`` payload)."""
    return [{
        "rank": rank,
        "design": point.design,
        "quadruple": list(point.quadruple) if point.quadruple else None,
        "cpr": point.cpr,
        "clock_period_s": point.clock_period,
        "rms_re": point.rms_re,
        "error_rate": point.error_rate,
        "provably_exact": bool(point.provably_exact),
        "gates": point.gates,
        "area_proxy_s": point.area_proxy,
        "nearest": nearest_paper_label(point, family),
    } for rank, point in enumerate(ranked, start=1)]


def frontier_table(ranked, total_candidates: int, top: int = 0,
                   family=None) -> str:
    """The ranked-frontier report table."""
    if family is None:
        family = get_family("adder")
    rows = []
    shown = ranked if top <= 0 else ranked[:top]
    for rank, point in enumerate(shown, start=1):
        nearest_label = nearest_paper_label(point, family)
        rows.append((
            rank,
            point.design,
            f"{point.cpr * 100:g}%",
            f"{point.clock_period * 1e12:.0f}",
            format_log_value(point.rms_re * 100.0),
            f"{point.error_rate:.4f}",
            "yes" if point.provably_exact else "",
            point.gates,
            f"{point.area_proxy * 1e12:.0f}",
            nearest_label,
        ))
    title = (f"Pareto frontier — {len(ranked)} of {total_candidates} "
             "(design x CPR) points non-dominated in "
             "(guarantee, joint RMS RE, gates, area, clock period)")
    return format_table(
        ["rank", "design", "CPR", "clock (ps)", "joint RMS RE (%)", "error rate",
         "exact-by-design", "gates", "area (ps)", "nearest paper design"],
        rows, title=title)


@dataclass
class ExplorationReport:
    """Text report plus the structured payload of one exploration run."""

    text: str
    payload: dict


def run_exploration(arguments) -> ExplorationReport:
    """Run the full exploration; returns the report text and JSON payload.

    Backend, workers and the caches come from the run's settings, so
    call it under :func:`~repro.cli.run_with_settings` as :func:`main`
    does.
    """
    started = time.time()
    config = StudyConfig(width=arguments.width, simulator=arguments.simulator,
                         engine=arguments.engine, seed=arguments.seed)
    family = get_family(arguments.family)
    space = design_space(arguments)
    spec = build_sweep(arguments, config, space=space, template=arguments.adaptive)

    backend = config.runtime_backend()
    counters = CacheCounters(backend)
    if arguments.adaptive:
        adaptive_spec = AdaptiveSpec(
            space=space, sweep=spec, batch_size=arguments.batch_size,
            budget=arguments.budget, budget_fraction=arguments.budget_fraction,
            max_rounds=arguments.rounds, seed=arguments.seed)
        adaptive = run_adaptive(
            adaptive_spec, backend=backend,
            progress=lambda log: print(f"  {log.describe()}", file=sys.stderr),
            checkpoint_dir=arguments.checkpoint_dir, resume=arguments.resume)
        points = adaptive.points
        jobs_total = (adaptive.simulated + 1) * len(spec.workloads)
        mode_lines = [
            f"search    : {adaptive.describe()}",
        ]
        explored_note = (f"explored {adaptive.simulated} of {adaptive.candidates} "
                         f"designs in {len(adaptive.rounds)} rounds")
    else:
        result = run_sweep(spec, backend=backend,
                           checkpoint_dir=arguments.checkpoint_dir, resume=arguments.resume)
        points = result.points
        jobs_total = spec.job_count
        mode_lines = [f"sweep     : {spec.describe()}"]
        explored_note = (f"explored {len(spec.entries)} designs / "
                         f"{spec.point_count} points")
        if result.resumed_jobs:
            explored_note += (f", resumed {result.resumed_jobs} jobs from "
                              f"the checkpoint journal")

    candidates = aggregate_points(points)
    ranked = rank_frontier(pareto_frontier(candidates))

    title = ("ISA design-space exploration" if arguments.family == "adder"
             else f"{arguments.family} design-space exploration")
    sections: List[str] = [
        title,
        f"space     : {space.describe()}",
        *mode_lines,
        f"workload  : {spec.workloads[0].length} vectors per trace, "
        f"simulator={spec.simulator}, engine={spec.engine}",
        "",
        frontier_table(ranked, total_candidates=len(candidates), top=arguments.top,
                       family=family),
    ]

    elapsed = time.time() - started
    sections.append(
        f"({explored_note} in "
        f"{elapsed:.1f} s, backend={backend.describe()}, seed={arguments.seed}"
        f"{counters.note(jobs_total)})")

    payload = {
        "family": arguments.family,
        "width": arguments.width,
        "space": space.describe(),
        "mode": "adaptive" if arguments.adaptive else "sweep",
        "explored": explored_note,
        "candidates": len(candidates),
        "frontier_size": len(ranked),
        "backend": backend.describe(),
        "seed": arguments.seed,
        "elapsed_s": elapsed,
        "frontier": frontier_rows(ranked, family),
    }
    return ExplorationReport(text="\n".join(sections), payload=payload)


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    settings = resolve_runtime_flags(parser, arguments)
    if arguments.width < 2:
        parser.error("--width must be at least 2 (a 1-bit operand has no quadruple space)")
    family = get_family(arguments.family)
    if arguments.width > family.max_width:
        parser.error(f"--width must be at most {family.max_width} for the "
                     f"{arguments.family} family")
    if arguments.family != "adder" and (arguments.block_sizes
                                        or arguments.max_overhead_bits is not None):
        parser.error("--block-sizes and --max-overhead-bits apply to the adder "
                     "family only")
    if arguments.length < 16:
        parser.error("--length must be at least 16 vectors")
    if not 0.0 < arguments.budget_fraction <= 1.0:
        parser.error("--budget-fraction must be in (0, 1]")
    if arguments.budget is not None and arguments.budget < 1:
        parser.error("--budget must be at least 1 design")
    if arguments.batch_size < 1:
        parser.error("--batch-size must be at least 1 design")
    if arguments.rounds < 0:
        parser.error("--rounds must be non-negative")
    settings = settings.override(cache_limit_mb=arguments.cache_limit_mb,
                                 checkpoint_dir=arguments.checkpoint_dir)
    if arguments.resume and settings.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir (or $REPRO_CHECKPOINT_DIR)")
    report, timings, telemetry = run_with_settings(
        settings, arguments, "repro-explore",
        {"family": arguments.family, "width": arguments.width,
         "adaptive": arguments.adaptive, "workloads": list(arguments.workloads),
         "length": arguments.length},
        lambda: run_exploration(arguments), inline=arguments.json)
    if arguments.json:
        payload = dict(report.payload)
        if telemetry.manifest is not None:
            payload["manifest"] = telemetry.manifest
        write_report(arguments, json.dumps(payload, indent=2, sort_keys=True))
    else:
        write_report(arguments, report.text + timings)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
