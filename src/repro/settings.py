"""Runtime settings: the one place the process environment is read.

Every ``REPRO_*`` variable the library understands is a field of the
frozen :class:`RuntimeSettings`, and :meth:`RuntimeSettings.from_env`
is the only code that reads :data:`os.environ`.  Nothing in the library
writes the environment.

Settings resolve in one order, **environment → StudyConfig → CLI**,
at the entry point that needs them (a CLI ``main``, ``StudyConfig``
construction, backend construction, ``run_jobs`` / ``run_sweep`` /
``run_adaptive``, ``telemetry_run``), never at import:

* the environment gives every field its base value;
* explicit arguments (``StudyConfig`` fields, ``cache_dir=``,
  ``telemetry_dir=``, a backend's ``retry_policy=`` ...) win over it;
* a CLI resolves the environment overridden by its flags once, and runs
  under the result with :meth:`RuntimeSettings.applied`; entry points
  inside the run read :meth:`RuntimeSettings.current`, so one run's
  flags never outlive it.

Malformed values raise :class:`~repro.exceptions.ConfigurationError`
naming the variable and the value.  This module imports only the
standard library (and the library's exception types), so resolving
settings costs no start-up time.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Scales every default trace length of a ``StudyConfig``.
TRACE_SCALE_ENV = "REPRO_TRACE_SCALE"

#: Default execution backend of a ``StudyConfig`` and its worker count.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"

#: Persistent result-cache directory (empty or unset: no cache) and its
#: budget in mebibytes (empty or unset: unbounded).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_LIMIT_ENV = "REPRO_CACHE_LIMIT_MB"

#: Extra attempts per task on top of the first, and the per-task
#: wall-clock budget in seconds.
RETRIES_ENV = "REPRO_MAX_RETRIES"
TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Synthesis-cache directory (empty or unset: no cache) and its budget
#: in mebibytes.
SYNTH_CACHE_ENV = "REPRO_SYNTH_CACHE"
SYNTH_CACHE_LIMIT_ENV = "REPRO_SYNTH_CACHE_LIMIT_MB"

#: Checkpoint-journal directory of sweeps and adaptive searches.
CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"

#: Directory run manifests are appended to (empty or unset: none).
TELEMETRY_ENV = "REPRO_TELEMETRY_DIR"

#: Fault plan (JSON text, or a path to a JSON file) of the chaos harness.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every variable above, in :class:`RuntimeSettings` field order.
ENV_NAMES = (TRACE_SCALE_ENV, BACKEND_ENV, WORKERS_ENV, CACHE_DIR_ENV,
             CACHE_LIMIT_ENV, RETRIES_ENV, TIMEOUT_ENV, SYNTH_CACHE_ENV,
             SYNTH_CACHE_LIMIT_ENV, CHECKPOINT_ENV, TELEMETRY_ENV, FAULT_PLAN_ENV)

#: Retries when the environment does not say otherwise: two retries
#: (three attempts) absorb one transient fault plus one unlucky
#: recurrence without masking a persistent failure for long.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class RuntimeSettings:
    """Every runtime setting of one run, one field per ``REPRO_*`` name."""

    trace_scale: float = 1.0
    backend: str = "serial"
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_limit_mb: Optional[float] = None
    max_retries: int = DEFAULT_RETRIES
    task_timeout: Optional[float] = None
    synth_cache_dir: Optional[str] = None
    synth_cache_limit_mb: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    telemetry_dir: Optional[str] = None
    fault_plan: Optional[str] = None

    @classmethod
    def from_env(cls) -> "RuntimeSettings":
        """The settings the process environment names right now."""
        return _parse(tuple(os.environ.get(name) for name in ENV_NAMES))

    @classmethod
    def current(cls) -> "RuntimeSettings":
        """The settings a CLI run applied, else :meth:`from_env`."""
        applied = cls.in_run()
        return applied if applied is not None else cls.from_env()

    @staticmethod
    def in_run() -> Optional["RuntimeSettings"]:
        """The settings of the CLI run in progress, ``None`` outside one."""
        return _APPLIED.get()

    def override(self, **values) -> "RuntimeSettings":
        """A copy with every value that is not ``None`` replacing its field."""
        return replace(self, **{name: value for name, value in values.items()
                                if value is not None})

    @contextmanager
    def applied(self) -> Iterator["RuntimeSettings"]:
        """Make these the :meth:`current` settings for the ``with`` block."""
        token = _APPLIED.set(self)
        try:
            yield self
        finally:
            _APPLIED.reset(token)


#: The settings of the CLI run in progress in this context, if any.
_APPLIED: ContextVar[Optional[RuntimeSettings]] = ContextVar("repro_settings",
                                                             default=None)


def _parse(raw: Tuple[Optional[str], ...]) -> RuntimeSettings:
    (trace_scale, backend, workers, cache_dir, cache_limit, retries, timeout,
     synth_dir, synth_limit, checkpoint, telemetry, fault_plan) = \
        (value or "" for value in raw)
    synth_limit_mb = _number(SYNTH_CACHE_LIMIT_ENV, synth_limit.strip(), float,
                             "a number of mebibytes", math.isfinite)
    if synth_limit_mb is not None and synth_limit_mb <= 0:
        raise ConfigurationError(
            f"{SYNTH_CACHE_LIMIT_ENV} must be positive, got {synth_limit!r}")
    return RuntimeSettings(
        trace_scale=_number(TRACE_SCALE_ENV, trace_scale, float,
                            "a number (trace-length scale factor)", default=1.0),
        # Only an unset REPRO_BACKEND means serial; StudyConfig rejects "".
        backend=backend if raw[1] is not None else "serial",
        workers=_number(WORKERS_ENV, workers, int, "a positive integer worker count"),
        cache_dir=cache_dir or None,
        cache_limit_mb=_number(CACHE_LIMIT_ENV, cache_limit, float,
                               "a size in mebibytes"),
        max_retries=_number(RETRIES_ENV, retries.strip(), int,
                            "a non-negative integer retry count",
                            lambda count: count >= 0, default=DEFAULT_RETRIES),
        task_timeout=_number(TIMEOUT_ENV, timeout.strip(), float,
                             "a positive number of seconds",
                             lambda seconds: 0 < seconds < math.inf),
        synth_cache_dir=synth_dir.strip() or None,
        synth_cache_limit_mb=synth_limit_mb,
        checkpoint_dir=checkpoint.strip() or None,
        telemetry_dir=telemetry.strip() or None,
        fault_plan=fault_plan.strip() or None,
    )


def _number(name: str, value: str, convert: Callable, what: str,
            valid: Optional[Callable] = None, default=None):
    """``convert(value)``, ``default`` when empty; else a ConfigurationError."""
    if not value:
        return default
    try:
        number = convert(value)
        if valid is not None and not valid(number):
            raise ValueError
    except ValueError:
        raise ConfigurationError(f"{name} must be {what}, got {value!r}") from None
    return number
