"""Hierarchical span tracing with ambient (context-local) activation.

A *span* attributes one timed region — wall seconds plus thread CPU
seconds — to a name, nested under whatever spans are open in the same
context: entering ``span("synthesize")`` inside ``span("plan.group")``
records under the path ``plan.group/synthesize``.  The pipeline's
coarse phases (:data:`PHASES`: ``synthesize``, ``lower``, ``pack``,
``simulate``, ``score`` and their dotted sub-phases) are spans like any
other; :meth:`Tracer.describe` renders them as the ``--timings`` footer
of both CLIs.

Activation is ambient and context-local: :func:`trace_run` installs a
:class:`Tracer` in a :mod:`contextvars` context variable, and
:func:`span` reads it.  Because the variable is context-local, two
threads (or two nested ``trace_run`` blocks) can trace concurrently
without interleaving each other's stacks — the property the future
characterization service needs.  More than one tracer may be active at
once (they stack); every open tracer observes every span, so a
CLI-level telemetry session and an inner ``--timings`` tracer each see
the full picture.

When no tracer is active, :func:`span` costs one context-variable read
and yields immediately — instrumented hot paths pay nothing by default.

Tracers *aggregate* rather than retain: spans are folded into per-path
``(wall, cpu, calls, attrs)`` records as they close, so a sweep
emitting hundreds of thousands of spans holds memory proportional to
the number of distinct paths, not the number of spans.  Numeric span
attributes are summed across calls (e.g. ``transitions``), everything
else keeps its last value.
"""

from __future__ import annotations

import numbers
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple

#: Every tracer currently observing spans in this context (innermost last).
_TRACERS: ContextVar[Tuple["Tracer", ...]] = ContextVar("repro_obs_tracers",
                                                        default=())

#: Canonical report order of the pipeline phases (dotted names are
#: sub-phases nested inside the phase before them; ``schedule.wait`` is
#: the driver's blocked-on-workers time, overlapping merged worker
#: phases rather than nesting in one).
PHASES = ("synthesize", "synth.optimize", "synth.sizing", "synth.sta",
          "lower", "pack", "simulate", "score", "schedule.wait")

#: Names of the spans currently open in this context (outermost first).
_STACK: ContextVar[Tuple[str, ...]] = ContextVar("repro_obs_stack", default=())


def active_tracers() -> Tuple["Tracer", ...]:
    """The tracers observing spans in the current context (may be empty)."""
    return _TRACERS.get()


def _clean_attr(value):
    """JSON-safe form of one span attribute (numpy scalars included)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return str(value)


class SpanStats:
    """Aggregated observations of one span path."""

    __slots__ = ("name", "wall_s", "cpu_s", "calls", "attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.calls = 0
        self.attrs: Dict[str, object] = {}

    def fold(self, wall_s: float, cpu_s: float, calls: int, attrs) -> None:
        """Accumulate one observation (or a pre-aggregated batch of them)."""
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.calls += calls
        for key, value in attrs.items():
            value = _clean_attr(value)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                previous = self.attrs.get(key, 0)
                if isinstance(previous, (int, float)) and not isinstance(previous, bool):
                    self.attrs[key] = previous + value
                    continue
            self.attrs[key] = value

    def as_dict(self) -> dict:
        record = {"name": self.name, "wall_s": self.wall_s,
                  "cpu_s": self.cpu_s, "calls": self.calls}
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class Tracer:
    """Collects spans into per-path aggregates (plus per-worker stats).

    ``workers`` accumulates the spill records of multiprocess workers
    (see :mod:`repro.obs.spill`): per worker pid, the busy seconds, task
    count and span aggregates recorded inside that worker.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self.workers: Dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    def record(self, name: str, path: str, wall_s: float, cpu_s: float,
               attrs) -> None:
        """Fold one finished span into the aggregates."""
        stats = self.spans.get(path)
        if stats is None:
            stats = self.spans[path] = SpanStats(name)
        stats.fold(wall_s, cpu_s, 1, attrs)

    def merge_span(self, path: str, name: str, wall_s: float, cpu_s: float,
                   calls: int, attrs) -> None:
        """Fold a pre-aggregated span record (spill merge path)."""
        stats = self.spans.get(path)
        if stats is None:
            stats = self.spans[path] = SpanStats(name)
        stats.fold(wall_s, cpu_s, calls, attrs)

    def merge_spill(self, record: dict) -> None:
        """Fold one worker spill record: global aggregates + per-worker stats."""
        pid = str(record.get("pid", "?"))
        worker = self.workers.get(pid)
        if worker is None:
            worker = self.workers[pid] = {"busy_s": 0.0, "tasks": 0, "spans": {}}
        worker["busy_s"] += float(record.get("busy_s", 0.0))
        worker["tasks"] += int(record.get("tasks", 1))
        for path, span in record.get("spans", {}).items():
            name = span.get("name", path.rsplit("/", 1)[-1])
            wall = float(span.get("wall_s", 0.0))
            cpu = float(span.get("cpu_s", 0.0))
            calls = int(span.get("calls", 1))
            attrs = span.get("attrs", {})
            self.merge_span(path, name, wall, cpu, calls, attrs)
            mine = worker["spans"].get(path)
            if mine is None:
                mine = worker["spans"][path] = SpanStats(name)
            mine.fold(wall, cpu, calls, attrs)

    # ------------------------------------------------------------------ #
    def phase_totals(self) -> Dict[str, dict]:
        """Per-leaf-name totals (the classic phase breakdown), path-merged."""
        totals: Dict[str, dict] = {}
        for stats in self.spans.values():
            record = totals.setdefault(
                stats.name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
            record["wall_s"] += stats.wall_s
            record["cpu_s"] += stats.cpu_s
            record["calls"] += stats.calls
        return totals

    def attributed_wall_s(self) -> float:
        """Wall seconds attributed to top-level phases, driver + workers.

        Dotted leaf names (``synth.*`` sub-phases, ``schedule.wait``,
        ``plan.group``) are excluded — their time is either nested
        inside a parent phase or is bookkeeping wait.
        """
        return sum(record["wall_s"] for name, record in
                   self.phase_totals().items() if "." not in name)

    def describe(self) -> str:
        """One-line phase breakdown: the ``--timings`` footer body.

        :data:`PHASES` come first in pipeline order, every other leaf
        name follows sorted, and the closing total is
        :meth:`attributed_wall_s`.
        """
        totals = self.phase_totals()
        names = [name for name in PHASES if name in totals]
        names += sorted(name for name in totals if name not in PHASES)
        if not names:
            return "no phases recorded"
        parts = [f"{name} {totals[name]['wall_s']:.2f} s" for name in names]
        return " / ".join(parts) + f" (attributed {self.attributed_wall_s():.2f} s)"

    def snapshot(self) -> dict:
        """JSON-ready view: hierarchical spans, leaf totals, worker stats."""
        return {
            "spans": {path: stats.as_dict()
                      for path, stats in sorted(self.spans.items())},
            "phases": self.phase_totals(),
            "workers": {
                pid: {"busy_s": worker["busy_s"], "tasks": worker["tasks"],
                      "spans": {path: stats.as_dict()
                                for path, stats in sorted(worker["spans"].items())}}
                for pid, worker in sorted(self.workers.items())},
        }


@contextmanager
def trace_run(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) for the ``with`` block.

    Tracers *stack*: a tracer installed inside another's block sees the
    same spans the outer one does.  The span stack restarts empty for
    the block, so paths recorded under this tracer are rooted at it.
    """
    tracer = tracer if tracer is not None else Tracer()
    tracers_token = _TRACERS.set(_TRACERS.get() + (tracer,))
    stack_token = _STACK.set(())
    try:
        yield tracer
    finally:
        _STACK.reset(stack_token)
        _TRACERS.reset(tracers_token)


@contextmanager
def span(name: str, **attrs) -> Iterator[None]:
    """Attribute the ``with`` body to span ``name`` under the open stack.

    A no-op (one context-variable read) unless a tracer is active.
    ``attrs`` annotate the span: numeric values are summed across calls
    of the same path, everything else keeps its last value.
    """
    tracers = _TRACERS.get()
    if not tracers:
        yield
        return
    stack = _STACK.get()
    token = _STACK.set(stack + (name,))
    path = "/".join(stack + (name,))
    wall0 = time.perf_counter()
    cpu0 = time.thread_time()
    try:
        yield
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.thread_time() - cpu0
        _STACK.reset(token)
        for tracer in tracers:
            tracer.record(name, path, wall, cpu, attrs)
