"""Runtime flags shared by the ``repro-experiments`` and ``repro-explore`` CLIs.

Both CLIs take their runtime flags from one argparse parent
(:func:`runtime_flags`), validate and resolve them the same way
(:func:`resolve_runtime_flags`) and run under the result
(:func:`run_with_settings`).  A run's settings are the environment
overridden by the flags given (env → StudyConfig → CLI, see
:mod:`repro.settings`), applied for that run only: no run changes the
process environment, so two back-to-back in-process runs share no
settings — not the retry policy, not the synthesis cache, not its
budget.  A run without ``--synth-cache-dir`` / ``--no-synth-cache``
keeps the synthesis cache the process chose in code
(:func:`~repro.runtime.synth_cache.configure_synth_cache`).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import replace
from typing import Callable, Optional, Tuple, TypeVar

from repro.obs.manifest import TelemetryHandle, telemetry_run
from repro.obs.trace import trace_run
from repro.runtime.backends import BACKENDS, Backend
from repro.runtime.cache import CachingBackend
from repro.runtime.synth_cache import active_synth_cache, synth_cache_spec
from repro.settings import RuntimeSettings

Result = TypeVar("Result")


def runtime_flags() -> argparse.ArgumentParser:
    """The argparse parent holding every runtime flag both CLIs share."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend scheduling the characterization jobs "
                             "(default: $REPRO_BACKEND or serial)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes of the multiprocess backend "
                             "(default: $REPRO_WORKERS or one per CPU)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent on-disk result cache: jobs already in the "
                             "cache skip simulation entirely and reproduce "
                             "bit-identically, so a re-run (or a grown sweep) "
                             "simulates only unseen jobs (default: $REPRO_CACHE_DIR, "
                             "or no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even when $REPRO_CACHE_DIR "
                             "is set")
    parser.add_argument("--synth-cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent synthesis cache: designs synthesized by any "
                             "run or process load from disk bit-identically instead "
                             "of re-running the flow (default: $REPRO_SYNTH_CACHE, "
                             "or no cache; its budget is $REPRO_SYNTH_CACHE_LIMIT_MB)")
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
    parser.add_argument("--telemetry-dir", type=str, default=None, metavar="DIR",
                        help="append a run manifest (config, host, phases, worker "
                             "utilisation, cache metrics) to DIR/manifests.jsonl; "
                             "summarise with repro-stats "
                             "(default: $REPRO_TELEMETRY_DIR, or no telemetry)")
    parser.add_argument("--timings", action="store_true",
                        help="append a phase breakdown (synthesize — split into "
                             "synth.optimize / synth.sizing / synth.sta sub-phases — "
                             "then lower / pack / simulate / score) to the footer; "
                             "multiprocess worker phases are merged back into the "
                             "breakdown, with the driver's blocked time reported "
                             "as schedule.wait")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    parser.add_argument("--output", type=str, default=None,
                        help="optional path for the report (stdout is always printed)")
    return parser


def resolve_runtime_flags(parser: argparse.ArgumentParser,
                          arguments: argparse.Namespace) -> RuntimeSettings:
    """Validate the shared flags, then resolve the run's settings.

    Invalid flag combinations exit through ``parser.error``; malformed
    ``REPRO_*`` values raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if arguments.no_cache and arguments.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if arguments.no_synth_cache and arguments.synth_cache_dir:
        parser.error("--no-synth-cache and --synth-cache-dir are mutually exclusive")
    if arguments.max_retries is not None and arguments.max_retries < 0:
        parser.error("--max-retries must be non-negative")
    if arguments.task_timeout is not None and not 0 < arguments.task_timeout < math.inf:
        parser.error("--task-timeout must be positive and finite")
    settings = RuntimeSettings.from_env().override(
        backend=arguments.backend, workers=arguments.jobs,
        cache_dir=arguments.cache_dir, synth_cache_dir=arguments.synth_cache_dir,
        max_retries=arguments.max_retries, task_timeout=arguments.task_timeout,
        telemetry_dir=arguments.telemetry_dir)
    if arguments.no_cache:
        settings = replace(settings, cache_dir=None)
    if arguments.no_synth_cache:
        settings = replace(settings, synth_cache_dir=None)
    elif arguments.synth_cache_dir is None:
        # Without a synth flag the run keeps the process's cache: the
        # one configure_synth_cache chose, else the environment's.
        root, limit_mb = synth_cache_spec() or (None, None)
        settings = replace(settings, synth_cache_dir=root, synth_cache_limit_mb=limit_mb)
    return settings


def run_with_settings(settings: RuntimeSettings, arguments: argparse.Namespace,
                      command: str, config: dict, run: Callable[[], Result],
                      inline: bool = False) -> Tuple[Result, str, TelemetryHandle]:
    """``run()`` under ``settings``, telemetry and ``--timings``.

    The settings, the synthesis cache they name included, are applied
    for the call only.  Returns the result, the ``--timings``
    footer line (empty without the flag) and the telemetry handle
    (whose manifest is built once the run is over).
    """
    with settings.applied(), \
            telemetry_run(settings.telemetry_dir, command=command, config=config,
                          inline=inline) as telemetry:
        if not arguments.timings:
            return run(), "", telemetry
        with trace_run() as tracer:
            result = run()
        return result, f"\n(timings: {tracer.describe()})", telemetry


def write_report(arguments: argparse.Namespace, text: str) -> None:
    """Print the report and, with ``--output``, write it there too."""
    print(text)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


class CacheCounters:
    """The result- and synthesis-cache counts of one run, for its footer.

    Shared caching backends accumulate counters across every study of
    the process; the footer reports the delta since construction only.
    """

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self.results = (backend.stats.snapshot()
                        if isinstance(backend, CachingBackend) else None)
        self.synth_cache = active_synth_cache()
        self.synth = (self.synth_cache.stats.snapshot()
                      if self.synth_cache is not None else None)

    def note(self, jobs_total: Optional[int] = None) -> str:
        """The footer's cache note (empty without caches).

        With ``jobs_total`` the note also says how many of the run's
        jobs were simulated (result-cache misses).
        """
        note = ""
        if self.results is not None:
            run = self.backend.stats.since(self.results)
            note = f", cache={run.describe()} [{self.backend.store.root}]"
            if jobs_total is not None:
                note += f", simulated {run.misses} of {jobs_total} jobs"
        if self.synth is not None:
            note += (f", synth-cache={self.synth_cache.stats.since(self.synth).describe()} "
                     f"[{self.synth_cache.store.root}]")
        return note
