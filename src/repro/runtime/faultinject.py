"""Deterministic fault injection for resilience tests and chaos CI.

A *fault plan* is a small JSON document naming faults to inject at
instrumented points of the runtime — task dispatch (:data:`POINT_TASK`)
and result-store writes (:data:`POINT_STORE_WRITE` /
:data:`POINT_STORE_WRITE_DONE`).  The plan is activated through the
``REPRO_FAULT_PLAN`` environment variable (either the JSON itself or a
path to a file holding it), read through :mod:`repro.settings` like
every runtime setting (env → StudyConfig → CLI; no CLI flag sets a
plan, and no run changes the process environment).

Plan format::

    {"faults": [
        {"kind": "kill-worker", "every": 40},
        {"kind": "task-error", "at": 2},
        {"kind": "delay", "at": 1, "seconds": 0.5, "times": 1},
        {"kind": "store-error", "point": "store.write", "every": 5,
         "match": "chaos-cache"},
        {"kind": "truncate", "point": "store.write.done", "at": 3}
     ]}

Only the driver — the process that dispatches work — arms a plan; pool
workers never do, not even on their own synthesis-cache writes.  Each
spec counts the events of its point and falls due on the ``at``-th
event (once) or on every ``every``-th; ``match`` restricts the count to
events whose key contains the substring; ``times`` caps the firings.

Task events are counted **at dispatch**: every submission of a call
through a backend's ``run_calls`` — first dispatch, retry, or
re-dispatch after a pool rebuild — is one event, in call order, keyed
by the call key (which carries the design name, so ``match`` selects by
design).  :func:`dispatch` decides each submission afresh and ships a
call that falls due together with its faults, so which calls fail is a
pure function of the plan and the dispatched calls — the same on the
serial backend and at any worker count.  Store events are counted at
the write.

Fault kinds
-----------
``kill-worker``
    ``os._exit(1)`` — but only inside a worker process; in the driver
    the fault is counted and shrugged off, so a plan armed for a whole
    test suite can never kill the test runner itself.
``task-error``
    Raise a transient :class:`OSError` from the task body (retryable).
``delay``
    Sleep ``seconds`` inside the task (exercises per-task timeouts).
``store-error``
    Raise :class:`OSError` from inside a result-store write (absorbed
    as a warn-and-continue miss by :meth:`ResultStore.store`).
``truncate``
    Truncate the just-written cache entry file to half its size (the
    next load sees corruption and recomputes — the corruption-as-miss
    path).

Malformed plans raise :class:`~repro.exceptions.ConfigurationError`
naming the variable and the offending value, consistent with every
other ``REPRO_*`` knob.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import metric_count
from repro.settings import FAULT_PLAN_ENV, RuntimeSettings

#: Instrumented points a fault spec may attach to.
POINT_TASK = "task"
POINT_STORE_WRITE = "store.write"
POINT_STORE_WRITE_DONE = "store.write.done"
POINTS = (POINT_TASK, POINT_STORE_WRITE, POINT_STORE_WRITE_DONE)

#: Fault kind -> the point it defaults to when the spec names none.
KINDS = {
    "kill-worker": POINT_TASK,
    "task-error": POINT_TASK,
    "delay": POINT_TASK,
    "store-error": POINT_STORE_WRITE,
    "truncate": POINT_STORE_WRITE_DONE,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: what, where, and on which events."""

    kind: str
    point: str
    at: Optional[int] = None
    every: Optional[int] = None
    times: Optional[int] = None
    seconds: float = 0.0
    match: Optional[str] = None

    def due(self, counter: int) -> bool:
        """Whether the ``counter``-th matching event (1-based) fires."""
        if self.at is not None and counter == self.at:
            return True
        return self.every is not None and counter % self.every == 0


def _parse_spec(index: int, raw, value: str) -> FaultSpec:
    def bad(detail: str) -> ConfigurationError:
        return ConfigurationError(
            f"{FAULT_PLAN_ENV} fault #{index + 1} {detail}, got {value!r}")

    if not isinstance(raw, dict):
        raise bad("must be an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise bad(f"names unknown kind {kind!r} (expected one of {sorted(KINDS)})")
    point = raw.get("point", KINDS[kind])
    if point not in POINTS:
        raise bad(f"names unknown point {point!r} (expected one of {POINTS})")
    counters = {}
    for field in ("at", "every", "times"):
        entry = raw.get(field)
        if entry is not None and (not isinstance(entry, int) or entry < 1):
            raise bad(f"field {field!r} must be a positive integer")
        counters[field] = entry
    if counters["at"] is None and counters["every"] is None:
        raise bad("needs an 'at' or 'every' trigger")
    seconds = raw.get("seconds", 0.0)
    if not isinstance(seconds, (int, float)) or seconds < 0:
        raise bad("field 'seconds' must be a non-negative number")
    match = raw.get("match")
    if match is not None and not isinstance(match, str):
        raise bad("field 'match' must be a string")
    unknown = set(raw) - {"kind", "point", "at", "every", "times", "seconds", "match"}
    if unknown:
        raise bad(f"has unknown fields {sorted(unknown)}")
    return FaultSpec(kind=kind, point=point, at=counters["at"],
                     every=counters["every"], times=counters["times"],
                     seconds=float(seconds), match=match)


class FaultPlan:
    """An armed fault plan: the driver's event counters and firing budgets."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = specs
        self._events = [0] * len(specs)
        self._firings = [0] * len(specs)

    def decide(self, point: str, key: str = "") -> Tuple[FaultSpec, ...]:
        """Count one event at ``point`` and return the specs that fall due."""
        due = []
        for index, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if spec.match is not None and spec.match not in key:
                continue
            self._events[index] += 1
            if not spec.due(self._events[index]) or (
                    spec.times is not None and self._firings[index] >= spec.times):
                continue
            self._firings[index] += 1
            metric_count("faults.injected")
            due.append(spec)
        return tuple(due)

    def fire(self, point: str, key: str = "") -> None:
        """Count one event at ``point`` and inject what falls due, here."""
        for spec in self.decide(point, key):
            inject(spec, key)


def inject(spec: FaultSpec, key: str) -> None:
    """Inject one fault into the calling process."""
    if spec.kind == "kill-worker":
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return
    if spec.kind == "delay":
        time.sleep(spec.seconds)
        return
    if spec.kind == "truncate":
        try:
            size = os.path.getsize(key)
            with open(key, "r+b") as handle:
                handle.truncate(size // 2)
        except OSError:
            pass
        return
    # task-error / store-error: a transient, retryable OSError.
    raise OSError(f"injected {spec.kind} fault at {spec.point}: {key}")


def _faulted_call(faults: Tuple[FaultSpec, ...], key: str,
                  function: Callable, args: tuple):
    """A dispatched call shipped with the faults decided for it."""
    for spec in faults:
        inject(spec, key)
    return function(*args)


# --------------------------------------------------------------------- #
# Environment-driven activation
# --------------------------------------------------------------------- #
_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_KEY: Optional[str] = None


def parse_fault_plan(value: str) -> List[FaultSpec]:
    """Parse a fault-plan document (JSON text or a path to one).

    Malformed documents raise :class:`ConfigurationError` naming
    ``REPRO_FAULT_PLAN`` and the value.
    """
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError(
                f"{FAULT_PLAN_ENV} names an unreadable plan file "
                f"({error}), got {value!r}") from None
    try:
        document = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} must be JSON (or a path to a JSON file): "
            f"{error}, got {value!r}") from None
    if isinstance(document, list):
        document = {"faults": document}
    if not isinstance(document, dict) or not isinstance(document.get("faults"), list):
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} must be an object with a 'faults' list "
            f"(or a bare list), got {value!r}")
    unknown = set(document) - {"faults"}
    if unknown:
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} has unknown fields {sorted(unknown)}, got {value!r}")
    return [_parse_spec(index, raw, value)
            for index, raw in enumerate(document["faults"])]


def active_fault_plan() -> Optional[FaultPlan]:
    """The driver's plan named by ``REPRO_FAULT_PLAN``, or ``None``.

    Always ``None`` in a worker process: only the driver decides faults.
    Rebuilt (with fresh counters) whenever the settings' value
    changes, so tests monkeypatching the variable see the right plan.
    """
    global _ACTIVE, _ACTIVE_KEY
    if multiprocessing.parent_process() is not None:
        return None
    value = RuntimeSettings.current().fault_plan
    if value is None:
        return None
    if _ACTIVE is None or _ACTIVE_KEY != value:
        _ACTIVE, _ACTIVE_KEY = FaultPlan(parse_fault_plan(value)), value
    return _ACTIVE


def reset_fault_plan() -> None:
    """Drop the driver's plan instance (tests; the env decides the next)."""
    global _ACTIVE, _ACTIVE_KEY
    _ACTIVE, _ACTIVE_KEY = None, None


def fault_point(point: str, key: str = "") -> None:
    """Fire the active plan at an instrumented point (no-op without one)."""
    plan = active_fault_plan()
    if plan is not None:
        plan.fire(point, key)


def dispatch(function: Callable, args: tuple, key: str) -> Tuple[Callable, tuple]:
    """``(function, args)`` to submit for one dispatch of the call ``key``.

    Counts one :data:`POINT_TASK` event; a call that falls due is wrapped
    with its faults, which then strike wherever the call runs.  Without
    an armed plan the call is returned untouched.
    """
    plan = active_fault_plan()
    faults = plan.decide(POINT_TASK, key) if plan is not None else ()
    if not faults:
        return function, args
    return _faulted_call, (faults, key, function, args)


def dead_plan_warnings(counters: dict) -> List[str]:
    """A warning naming the armed plan if a run injected no fault at all."""
    value = RuntimeSettings.current().fault_plan
    if value is None or counters.get("faults.injected", 0):
        return []
    return [f"fault plan {FAULT_PLAN_ENV}={value} was armed but injected "
            "no faults (its triggers never fell due)"]
