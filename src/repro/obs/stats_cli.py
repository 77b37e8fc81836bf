"""``repro-stats``: summarise telemetry directories and cache inventories.

Reads the run manifests a telemetry directory accumulated
(``manifests.jsonl``, one JSON line per observed run — see
:mod:`repro.obs.manifest`) and renders the questions an operator
actually asks: where does the time go (slowest phases across runs), is
the result cache earning its keep (hit-rate trend run over run), are
the multiprocess workers busy or starved (per-worker utilisation), and
what failed (faults, retries, pool rebuilds, dead fault plans)?

``--cache-dir`` additionally inspects a result/synthesis cache
directory through :meth:`repro.runtime.store.ResultStore.entry_inventory`
— entry count, total bytes, age span and the largest entries — without
loading a single payload.

Examples::

    repro-stats .telemetry
    repro-stats .telemetry --top 5 --json
    repro-stats --cache-dir ~/.cache/repro-explore
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis.report import format_table
from repro.obs.manifest import MANIFEST_FILE, load_manifests


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro-stats`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Summarise repro telemetry directories (run manifests) "
                    "and inspect cache-directory inventories")
    parser.add_argument("telemetry_dir", nargs="?", default=None,
                        help=f"telemetry directory holding {MANIFEST_FILE} "
                             "(as written by --telemetry-dir / "
                             "$REPRO_TELEMETRY_DIR)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                        help="inspect a result/synthesis cache directory: "
                             "entries, bytes, age and the largest entries")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows per table (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of tables")
    return parser


# --------------------------------------------------------------------- #
# Telemetry-directory summaries
# --------------------------------------------------------------------- #
def phase_summary(manifests: List[dict]) -> List[dict]:
    """Per-phase totals across runs, slowest first."""
    totals: dict = {}
    for manifest in manifests:
        for name, record in manifest.get("phases", {}).items():
            entry = totals.setdefault(
                name, {"phase": name, "wall_s": 0.0, "cpu_s": 0.0,
                       "calls": 0, "runs": 0})
            entry["wall_s"] += record.get("wall_s", 0.0)
            entry["cpu_s"] += record.get("cpu_s", 0.0)
            entry["calls"] += record.get("calls", 0)
            entry["runs"] += 1
    return sorted(totals.values(), key=lambda entry: -entry["wall_s"])


def cache_trend(manifests: List[dict]) -> List[dict]:
    """Per-run result-cache hits/misses and hit rate, in append order."""
    rows: List[dict] = []
    for manifest in manifests:
        counters = manifest.get("metrics", {}).get("counters", {})
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        if not hits and not misses:
            continue
        rows.append({
            "run_id": manifest.get("run_id", "?"),
            "timestamp": manifest.get("timestamp", "?"),
            "command": manifest.get("command", "?"),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        })
    return rows


def worker_summary(manifests: List[dict]) -> List[dict]:
    """Per-run worker utilisation: busy seconds vs. elapsed x workers."""
    rows: List[dict] = []
    for manifest in manifests:
        workers = manifest.get("workers", {})
        if not workers:
            continue
        elapsed = manifest.get("elapsed_s", 0.0)
        busy = sum(worker.get("busy_s", 0.0) for worker in workers.values())
        tasks = sum(worker.get("tasks", 0) for worker in workers.values())
        capacity = elapsed * len(workers)
        rows.append({
            "run_id": manifest.get("run_id", "?"),
            "command": manifest.get("command", "?"),
            "workers": len(workers),
            "tasks": tasks,
            "busy_s": busy,
            "elapsed_s": elapsed,
            "utilisation": busy / capacity if capacity > 0 else 0.0,
        })
    return rows


#: Run-manifest counters of the failure-handling summary.
FAILURE_COUNTERS = ("faults.injected", "tasks.retried", "pool.rebuilds",
                    "backend.degraded")


def failure_summary(manifests: List[dict]) -> dict:
    """Failure-handling counters summed across runs, plus run warnings."""
    counters = dict.fromkeys(FAILURE_COUNTERS, 0)
    warnings: List[dict] = []
    for manifest in manifests:
        recorded = manifest.get("metrics", {}).get("counters", {})
        for name in FAILURE_COUNTERS:
            counters[name] += recorded.get(name, 0)
        warnings.extend({"run_id": manifest.get("run_id", "?"),
                         "command": manifest.get("command", "?"),
                         "warning": warning}
                        for warning in manifest.get("warnings", []))
    return {"counters": counters, "warnings": warnings}


def summarize_telemetry(directory, top: int = 10) -> dict:
    """The full JSON-ready summary of one telemetry directory."""
    manifests = load_manifests(directory)
    commands: dict = {}
    for manifest in manifests:
        command = manifest.get("command", "?")
        commands[command] = commands.get(command, 0) + 1
    return {
        "telemetry_dir": str(directory),
        "runs": len(manifests),
        "commands": commands,
        "total_elapsed_s": sum(m.get("elapsed_s", 0.0) for m in manifests),
        "phases": phase_summary(manifests)[:top] if top > 0 else phase_summary(manifests),
        "cache_trend": cache_trend(manifests),
        "workers": worker_summary(manifests),
        "failures": failure_summary(manifests),
    }


def render_telemetry(summary: dict, top: int) -> str:
    sections: List[str] = []
    commands = ", ".join(f"{name} x{count}"
                         for name, count in sorted(summary["commands"].items()))
    sections.append(
        f"telemetry {summary['telemetry_dir']} — {summary['runs']} run(s)"
        + (f" ({commands})" if commands else "")
        + f", {summary['total_elapsed_s']:.1f} s observed")
    if summary["phases"]:
        rows = [(entry["phase"], f"{entry['wall_s']:.2f}",
                 f"{entry['cpu_s']:.2f}", entry["calls"], entry["runs"])
                for entry in summary["phases"]]
        sections.append(format_table(
            ["phase", "wall (s)", "cpu (s)", "calls", "runs"], rows,
            title="Slowest phases across runs"))
    if summary["cache_trend"]:
        rows = [(entry["timestamp"], entry["command"], entry["hits"],
                 entry["misses"], f"{entry['hit_rate'] * 100:.1f}%")
                for entry in summary["cache_trend"][-top:]]
        sections.append(format_table(
            ["run", "command", "hits", "misses", "hit rate"], rows,
            title="Result-cache hit-rate trend (latest runs)"))
    if summary["workers"]:
        rows = [(entry["command"], entry["workers"], entry["tasks"],
                 f"{entry['busy_s']:.2f}", f"{entry['elapsed_s']:.2f}",
                 f"{entry['utilisation'] * 100:.0f}%")
                for entry in summary["workers"][-top:]]
        sections.append(format_table(
            ["command", "workers", "tasks", "busy (s)", "elapsed (s)",
             "utilisation"], rows,
            title="Worker utilisation (latest multiprocess runs)"))
    if summary["runs"] and not summary["workers"]:
        sections.append("(no multiprocess worker records — every run was serial)")
    if summary["runs"]:
        failures = summary["failures"]
        lines = [format_table(
            list(FAILURE_COUNTERS),
            [tuple(failures["counters"][name] for name in FAILURE_COUNTERS)],
            title="Failure handling across runs")]
        lines.extend(f"warning ({entry['command']} {entry['run_id']}): "
                     f"{entry['warning']}" for entry in failures["warnings"])
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


# --------------------------------------------------------------------- #
# Cache-directory inventory
# --------------------------------------------------------------------- #
def summarize_cache(cache_dir, top: int = 10) -> dict:
    """Inventory of one cache directory via the store's existing index."""
    from repro.runtime.store import ResultStore  # deferred: keeps obs leaf-light
    store = ResultStore(cache_dir)
    inventory = store.entry_inventory()
    now = time.time()
    total_bytes = sum(size for _, size, _ in inventory)
    newest = max((mtime for mtime, _, _ in inventory), default=None)
    oldest = min((mtime for mtime, _, _ in inventory), default=None)
    largest = sorted(inventory, key=lambda record: -record[1])
    if top > 0:
        largest = largest[:top]
    return {
        "cache_dir": str(cache_dir),
        "entries": len(inventory),
        "total_bytes": total_bytes,
        "newest_age_s": (now - newest) if newest is not None else None,
        "oldest_age_s": (now - oldest) if oldest is not None else None,
        "largest": [{"entry": path.name, "bytes": size,
                     "age_s": now - mtime}
                    for mtime, size, path in largest],
    }


def render_cache(summary: dict) -> str:
    header = (f"cache {summary['cache_dir']} — {summary['entries']} entries, "
              f"{summary['total_bytes'] / (1024 * 1024):.1f} MiB")
    if summary["newest_age_s"] is not None:
        header += (f", newest {summary['newest_age_s']:.0f} s old, "
                   f"oldest {summary['oldest_age_s']:.0f} s old")
    sections = [header]
    if summary["largest"]:
        rows = [(entry["entry"][:16] + "…", f"{entry['bytes'] / 1024:.1f}",
                 f"{entry['age_s']:.0f}")
                for entry in summary["largest"]]
        sections.append(format_table(
            ["entry (digest)", "KiB", "age (s)"], rows,
            title="Largest cache entries"))
    return "\n\n".join(sections)


# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.telemetry_dir is None and arguments.cache_dir is None:
        parser.error("nothing to summarise: pass a telemetry directory "
                     "and/or --cache-dir")
    payload: dict = {}
    sections: List[str] = []
    if arguments.telemetry_dir is not None:
        summary = summarize_telemetry(arguments.telemetry_dir, top=arguments.top)
        payload["telemetry"] = summary
        sections.append(render_telemetry(summary, top=arguments.top))
    if arguments.cache_dir is not None:
        summary = summarize_cache(arguments.cache_dir, top=arguments.top)
        payload["cache"] = summary
        sections.append(render_cache(summary))
    try:
        if arguments.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n\n".join(sections))
    except BrokenPipeError:  # e.g. `repro-stats dir | head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
