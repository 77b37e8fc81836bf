"""Sweep checkpointing: a journal of completed, scored jobs.

A :class:`SweepJournal` is an append-only JSONL file recording, per
completed characterization job, the job's content digest
(:func:`~repro.runtime.cache.job_digest`) and its scored
:class:`~repro.explore.sweep.SweepPoint` rows.  ``run_sweep`` journals
each completed batch as it finishes, so an interrupted sweep — a killed
process, a lost machine — resumes from the journal plus the result
cache: ``--resume`` replays the journaled scores and simulates (and
*scores*) only the jobs the journal has not seen.

The journal is keyed by the sweep's full job-digest list, so a resumed
run must describe the same sweep — a changed spec (different designs,
workloads, clock plan, width, synthesis options) lands in a different
journal file and starts fresh instead of splicing incompatible points.

Scored floats round-trip exactly: JSON serialisation uses ``repr``-style
shortest-round-trip floats, so a resumed sweep's points are
**byte-identical** to an uninterrupted run's (asserted by
``tests/test_resilience.py``).  Corrupt trailing lines — the torn write
of the interruption itself — are skipped on load; the affected job is
simply re-simulated.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import ErrorStatistics, StructuralCost
from repro.exceptions import ConfigurationError
from repro.explore.sweep import SweepPoint
from repro.settings import CHECKPOINT_ENV, RuntimeSettings

#: Bumped whenever the journal line layout changes; foreign-format
#: journals are ignored (the sweep re-simulates) instead of misread.
JOURNAL_FORMAT = 1


def _scalar(value):
    """A JSON-safe plain scalar (numpy scalars carry an ``item()``)."""
    item = getattr(value, "item", None)
    return item() if item is not None else value


def point_to_record(point: SweepPoint) -> dict:
    """One sweep point as a JSON-ready dict (floats round-trip exactly)."""
    return {
        "design": point.design,
        "quadruple": (None if point.quadruple is None
                      else [int(v) for v in point.quadruple]),
        "workload": point.workload,
        "cpr": float(point.cpr),
        "clock_period": float(point.clock_period),
        "stats": {name: _scalar(value)
                  for name, value in vars(point.stats).items()},
        "structural_rms": float(point.structural_rms),
        "timing_rms": float(point.timing_rms),
        "cost": {name: _scalar(value)
                 for name, value in vars(point.cost).items()},
        "provably_exact": bool(point.provably_exact),
    }


def point_from_record(record: dict) -> SweepPoint:
    """Rebuild a sweep point from its journaled dict."""
    quadruple = record["quadruple"]
    return SweepPoint(
        design=record["design"],
        quadruple=None if quadruple is None else tuple(int(v) for v in quadruple),
        workload=record["workload"],
        cpr=record["cpr"],
        clock_period=record["clock_period"],
        stats=ErrorStatistics(**record["stats"]),
        structural_rms=record["structural_rms"],
        timing_rms=record["timing_rms"],
        cost=StructuralCost(**record["cost"]),
        provably_exact=record["provably_exact"],
    )


class SweepJournal:
    """Append-only JSONL journal of one sweep's completed, scored jobs."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    @classmethod
    def for_spec(cls, checkpoint_dir, digests: Sequence[str]) -> "SweepJournal":
        """The journal file of the sweep whose jobs have these digests.

        The file name hashes the full digest list, so journal identity
        *is* sweep identity — same spec, same file; any change, a fresh
        one.
        """
        identity = hashlib.sha256(
            "\n".join(digests).encode("utf-8")).hexdigest()[:16]
        directory = Path(checkpoint_dir).expanduser()
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / f"sweep-{identity}.jsonl")

    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, List[SweepPoint]]:
        """Journaled scores by job digest (empty when absent/unreadable).

        A corrupt or half-written line — typically the very write the
        interruption tore — is skipped, along with foreign-format lines;
        those jobs are simply simulated again.
        """
        completed: Dict[str, List[SweepPoint]] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return completed
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if entry["format"] != JOURNAL_FORMAT:
                    continue
                points = [point_from_record(record) for record in entry["points"]]
                completed[entry["digest"]] = points
            except (KeyError, TypeError, ValueError):
                continue
        return completed

    def record(self, digest: str, points: Sequence[SweepPoint]) -> None:
        """Append one completed job's scores (flushed before returning).

        Journal writes are resilience bookkeeping, so they follow the
        cache-write convention: an ``OSError`` is swallowed — the job
        stays un-journaled and a future resume re-simulates it, which is
        slower but never wrong.
        """
        line = json.dumps({"format": JOURNAL_FORMAT, "digest": digest,
                           "points": [point_to_record(point) for point in points]},
                          sort_keys=True)
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass

    def clear(self) -> None:
        """Drop the journal (a fresh, non-resumed run starts clean)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


def require_checkpoint_dir(checkpoint_dir: Optional[str],
                           resume: bool) -> Optional[str]:
    """The checkpoint directory: explicit, else the current settings'.

    ``resume`` without a checkpoint directory is a configuration error —
    there is nothing to resume from.
    """
    resolved = (str(checkpoint_dir) if checkpoint_dir is not None
                else RuntimeSettings.current().checkpoint_dir)
    if resume and resolved is None:
        raise ConfigurationError(
            "resume requested without a checkpoint directory; pass "
            f"checkpoint_dir (or set {CHECKPOINT_ENV})")
    return resolved
