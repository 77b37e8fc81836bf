"""Command-line runner regenerating every figure of the paper.

``repro-experiments`` (installed as a console script) runs the Fig. 7/8
prediction study, the Fig. 9 error-combination sweep and the Fig. 10
distribution analysis, printing the paper-equivalent tables and
optionally writing them to a results file.

All characterisation is routed through the job pipeline of
:mod:`repro.runtime`: the runner builds one :class:`StudyConfig` from the
CLI knobs (simulator tier, fast-engine tier, execution backend, worker
count and result-cache directory), the figure drivers turn their designs
into job batches, and the selected backend — ``serial`` or
``multiprocess``, optionally fronted by the persistent on-disk result
cache (``--cache-dir`` / ``$REPRO_CACHE_DIR``) — schedules them.
Fig. 9 and Fig. 10 share a single characterization batch; a warm cache
reproduces every figure bit-identically without executing a single
simulation job (the footer reports the hit/miss counts).

Example::

    repro-experiments --scale 0.5 --backend multiprocess --jobs 4 \
        --simulator fast --engine compiled --output results.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.core.config import ISAConfig
from repro.experiments.common import StudyConfig, characterize_designs
from repro.experiments.designs import FIG10_QUADRUPLE
from repro.experiments.fig9_rms import run_fig9
from repro.experiments.fig10_distribution import run_fig10
from repro.experiments.prediction import run_prediction_study
from repro.families import family_ids, get_family
from repro.obs.manifest import resolve_telemetry_dir, telemetry_run
from repro.obs.trace import trace_run
from repro.runtime import BACKENDS, CachingBackend, retry_settings
from repro.runtime.synth_cache import active_synth_cache, configure_synth_cache
from repro.timing.fast_sim import ENGINES


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro-experiments`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of 'Combining Structural and Timing Errors in "
                    "Overclocked Inexact Speculative Adders' (DATE 2017)")
    parser.add_argument("--family", choices=family_ids(), default="adder",
                        help="operator family to characterise (default adder; the "
                             "paper's figures are adder studies, so any other family "
                             "runs a compact characterization sweep instead of "
                             "--figures)")
    parser.add_argument("--width", type=int, default=None,
                        help="operand width of a non-adder family study "
                             "(default: the family's default width)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor applied to every trace length (default 1.0)")
    parser.add_argument("--simulator", choices=("event", "fast"), default="event",
                        help="timing simulator: glitch-aware event-driven (default) or fast "
                             "no-glitch vectorised")
    parser.add_argument("--engine", choices=ENGINES, default="auto",
                        help="execution engine of the fast simulator: compiled bit-packed, "
                             "dense reference, or auto fallback (default auto)")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend scheduling the characterization jobs "
                             "(default: $REPRO_BACKEND or serial)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes of the multiprocess backend "
                             "(default: $REPRO_WORKERS or one per CPU)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent on-disk result cache: characterization jobs "
                             "already in the cache skip simulation entirely and "
                             "reproduce bit-identically; misses are simulated and "
                             "stored for the next run (default: $REPRO_CACHE_DIR, "
                             "or no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even when $REPRO_CACHE_DIR "
                             "is set")
    parser.add_argument("--synth-cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent synthesis cache: designs synthesized by any "
                             "run or process load from disk bit-identically instead "
                             "of re-running the flow (default: $REPRO_SYNTH_CACHE, "
                             "or no cache)")
    parser.add_argument("--no-synth-cache", action="store_true",
                        help="disable the synthesis cache even when $REPRO_SYNTH_CACHE "
                             "is set")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="transient-failure retries per task, on top of the first "
                             "attempt (overrides $REPRO_MAX_RETRIES for this run; default: "
                             "$REPRO_MAX_RETRIES or 2)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-task wall-clock budget; stalled multiprocess tasks "
                             "are re-dispatched, over-budget serial tasks retried "
                             "(overrides $REPRO_TASK_TIMEOUT for this run; default: "
                             "$REPRO_TASK_TIMEOUT or none)")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    parser.add_argument("--timings", action="store_true",
                        help="append a phase breakdown (synthesize — split into "
                             "synth.optimize / synth.sizing / synth.sta sub-phases — "
                             "then lower / pack / simulate / score) to the footer; "
                             "multiprocess worker phases are merged back into the "
                             "breakdown, with the driver's blocked time reported "
                             "as schedule.wait")
    parser.add_argument("--telemetry-dir", type=str, default=None, metavar="DIR",
                        help="append a run manifest (config, host, phases, worker "
                             "utilisation, cache metrics) to DIR/manifests.jsonl; "
                             "summarise with repro-stats "
                             "(default: $REPRO_TELEMETRY_DIR, or no telemetry)")
    parser.add_argument("--figures", nargs="+", default=["fig7", "fig8", "fig9", "fig10"],
                        choices=["fig7", "fig8", "fig9", "fig10"],
                        help="which figures to regenerate")
    parser.add_argument("--output", type=str, default=None,
                        help="optional path for the text report (stdout is always printed)")
    return parser


def run_all(config: StudyConfig, figures: List[str]) -> str:
    """Run the requested figures and return the combined text report."""
    sections: List[str] = []
    started = time.time()
    backend_instance = config.runtime_backend()
    # Shared caching backends accumulate counters across every study of
    # the process; the footer reports the delta of *this* run only.
    stats_baseline = (backend_instance.stats.snapshot()
                      if isinstance(backend_instance, CachingBackend) else None)
    synth_cache = active_synth_cache()
    synth_baseline = (synth_cache.stats.snapshot()
                      if synth_cache is not None else None)

    if "fig7" in figures or "fig8" in figures:
        study = run_prediction_study(config)
        if "fig7" in figures:
            sections.append(study.format_abper_table())
        if "fig8" in figures:
            sections.append(study.format_avpe_table())

    characterizations = None
    if "fig9" in figures or "fig10" in figures:
        target = ISAConfig.from_quadruple(FIG10_QUADRUPLE).name
        characterizations = characterize_designs(
            config.design_entries(), config.characterization_trace(), config,
            stats_for=(target,))

    if "fig9" in figures:
        sections.append(run_fig9(config, characterizations=characterizations).format_table())

    if "fig10" in figures:
        fig10_characterization = None
        if characterizations is not None:
            target = ISAConfig.from_quadruple(FIG10_QUADRUPLE).name
            for characterization in characterizations:
                if characterization.name == target:
                    fig10_characterization = characterization
                    break
        sections.append(run_fig10(config, characterization=fig10_characterization).format_table())

    elapsed = time.time() - started
    cache_note = ""
    if stats_baseline is not None:
        run_stats = backend_instance.stats.since(stats_baseline)
        cache_note = (f", cache={run_stats.describe()} "
                      f"[{backend_instance.store.root}]")
    if synth_baseline is not None:
        synth_stats = synth_cache.stats.since(synth_baseline)
        cache_note += (f", synth-cache={synth_stats.describe()} "
                       f"[{synth_cache.store.root}]")
    sections.append(f"(regenerated {', '.join(figures)} in {elapsed:.1f} s, "
                    f"simulator={config.simulator}, engine={config.engine}, "
                    f"backend={backend_instance.describe()}, "
                    f"trace_scale={config.trace_scale:g}, "
                    f"seed={config.seed}{cache_note})")
    return "\n\n".join(sections)


def run_family_study(config: StudyConfig, family_id: str, width: int) -> str:
    """Compact characterization sweep of one non-adder operator family.

    The paper's figures are adder studies; other families get the
    pipeline-equivalent summary — a strided selection of the legal space
    plus the exact baseline, swept over the family's CPR plan through
    the same cached job pipeline, reported per (design x CPR) point.
    """
    from repro.analysis.report import format_log_value, format_table
    from repro.explore.sweep import SWEEP_CPR_LEVELS, SweepSpec, run_sweep
    from repro.timing.clocking import ClockPlan
    from repro.workloads.generators import WorkloadSpec

    family = get_family(family_id)
    space = family.design_space(width)
    started = time.time()
    backend_instance = config.runtime_backend()
    stats_baseline = (backend_instance.stats.snapshot()
                      if isinstance(backend_instance, CachingBackend) else None)
    synth_cache = active_synth_cache()
    synth_baseline = (synth_cache.stats.snapshot()
                      if synth_cache is not None else None)

    spec = SweepSpec(
        entries=tuple(space.entries(max_designs=12)),
        clock_plan=ClockPlan(safe_period=family.safe_period(width),
                             cpr_levels=SWEEP_CPR_LEVELS),
        workloads=(WorkloadSpec(kind="uniform", length=config.scaled_length(512),
                                width=width, seed=config.seed),),
        simulator=config.simulator, engine=config.engine,
        synthesis=config.synthesis, width=width)
    result = run_sweep(spec, backend=backend_instance)

    rows = [(point.design,
             f"{point.cpr * 100:g}%",
             f"{point.clock_period * 1e12:.0f}",
             format_log_value(point.stats.rms_relative_error * 100.0),
             f"{point.stats.error_rate:.4f}",
             "yes" if point.provably_exact else "",
             point.cost.gates,
             f"{point.cost.area_proxy * 1e12:.0f}")
            for point in result.points]
    table = format_table(
        ["design", "CPR", "clock (ps)", "joint RMS RE (%)", "error rate",
         "exact-by-design", "gates", "area (ps)"],
        rows,
        title=f"{family_id} characterization — {space.describe()}; "
              f"{spec.describe()}")

    elapsed = time.time() - started
    cache_note = ""
    if stats_baseline is not None:
        run_stats = backend_instance.stats.since(stats_baseline)
        cache_note = (f", cache={run_stats.describe()} "
                      f"[{backend_instance.store.root}]")
    if synth_baseline is not None:
        synth_stats = synth_cache.stats.since(synth_baseline)
        cache_note += (f", synth-cache={synth_stats.describe()} "
                       f"[{synth_cache.store.root}]")
    footer = (f"(characterized {len(spec.entries)} {family_id} designs in "
              f"{elapsed:.1f} s, simulator={config.simulator}, "
              f"engine={config.engine}, backend={backend_instance.describe()}, "
              f"trace_scale={config.trace_scale:g}, "
              f"seed={config.seed}{cache_note})")
    return "\n\n".join([table, footer])


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.no_cache and arguments.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if arguments.no_synth_cache and arguments.synth_cache_dir:
        parser.error("--no-synth-cache and --synth-cache-dir are mutually exclusive")
    if arguments.no_synth_cache:
        configure_synth_cache(None)
    elif arguments.synth_cache_dir is not None:
        # Exports $REPRO_SYNTH_CACHE so multiprocess workers spawned by
        # the backend read through the same on-disk cache.
        configure_synth_cache(arguments.synth_cache_dir)
    if arguments.max_retries is not None and arguments.max_retries < 0:
        parser.error("--max-retries must be non-negative")
    if arguments.task_timeout is not None and arguments.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    overrides = {"simulator": arguments.simulator, "engine": arguments.engine,
                 "seed": arguments.seed}
    if arguments.backend is not None:
        overrides["backend"] = arguments.backend
    if arguments.jobs is not None:
        overrides["workers"] = arguments.jobs
    if arguments.no_cache:
        overrides["cache_dir"] = None
    elif arguments.cache_dir is not None:
        overrides["cache_dir"] = arguments.cache_dir
    family = get_family(arguments.family)
    width = arguments.width
    if arguments.family == "adder":
        if width is not None:
            parser.error("--width applies to non-adder family studies only "
                         "(the paper's figures are fixed-width adder studies)")
    else:
        width = width if width is not None else family.default_width
        if not 2 <= width <= family.max_width:
            parser.error(f"--width must be in [2, {family.max_width}] for the "
                         f"{arguments.family} family")
    config = StudyConfig(**overrides)
    if arguments.scale != 1.0:
        # --scale composes with $REPRO_TRACE_SCALE through the explicit
        # trace_scale field, so the applied scaling shows in the report.
        config = replace(config, trace_scale=config.trace_scale * arguments.scale)

    def run() -> str:
        if arguments.family == "adder":
            return run_all(config, arguments.figures)
        return run_family_study(config, arguments.family, width)

    with telemetry_run(resolve_telemetry_dir(arguments.telemetry_dir),
                       command="repro-experiments",
                       config={"family": arguments.family,
                               "figures": list(arguments.figures),
                               "simulator": arguments.simulator,
                               "engine": arguments.engine,
                               "scale": arguments.scale}), \
            retry_settings(arguments.max_retries, arguments.task_timeout):
        if arguments.timings:
            with trace_run() as tracer:
                report = run()
            report += f"\n(timings: {tracer.describe()})"
        else:
            report = run()
    print(report)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
