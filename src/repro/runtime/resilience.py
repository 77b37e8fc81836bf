"""Task-level resilience: retry policies, deterministic backoff, timeouts.

Every characterization task is deterministic and transition-local, so a
retried task is **bit-identical by construction** — which is what makes
task-level retries safe to apply everywhere: a transient failure
(injected or real: a killed worker, an ``OSError`` out of a flaky
filesystem, a stalled task) costs one re-execution, never a changed
result.  :class:`RetryPolicy` bundles the knobs:

* ``max_attempts`` — total tries per task (1 = no retries), driven by
  ``REPRO_MAX_RETRIES`` (retries *on top of* the first attempt);
* exponential backoff whose jitter is a pure function of the task key
  and the attempt number (SHA-256, not :mod:`random`), so two runs of
  the same failing batch sleep identically — reproducibility extends
  to the failure path;
* ``task_timeout`` — optional per-task wall-clock budget
  (``REPRO_TASK_TIMEOUT`` seconds).  The multiprocess backend treats a
  window with no completed task as a stall and re-dispatches
  (see :meth:`MultiprocessBackend.run_calls`); in-process execution
  (:func:`retry_calls`) checks post-hoc, since an in-process task
  cannot be preempted.

Only *transient* failures are retried: :data:`RETRYABLE_EXCEPTIONS`
covers :class:`OSError` (I/O hiccups, injected faults),
:class:`TimeoutError` and :class:`~repro.exceptions.TaskTimeoutError`.
Deterministic failures — a golden-model mismatch, a
:class:`~repro.exceptions.ConfigurationError` — propagate immediately:
retrying them would repeat the same failure while hiding its origin.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.obs.metrics import metric_count
from repro.runtime.faultinject import dispatch

#: Extra attempts per task on top of the first (``max_attempts - 1``).
RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Per-task wall-clock budget, in seconds (float).
TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Default retries when the environment does not say otherwise: two
#: retries (three attempts) absorb one transient fault plus one unlucky
#: recurrence without masking a persistent failure for long.
DEFAULT_RETRIES = 2

#: Exception types worth retrying — transient by nature.  Everything
#: else (assertion-style cross-check failures, configuration errors)
#: reflects the task itself and propagates on the first attempt.
RETRYABLE_EXCEPTIONS = (OSError, TimeoutError, TaskTimeoutError)


def deterministic_jitter(key: str, attempt: int) -> float:
    """A uniform [0, 1) draw that is a pure function of (key, attempt)."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _env_retries() -> int:
    value = os.environ.get(RETRIES_ENV, "")
    if not value.strip():
        return DEFAULT_RETRIES
    try:
        retries = int(value)
        if retries < 0:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"{RETRIES_ENV} must be a non-negative integer retry count, "
            f"got {value!r}") from None
    return retries


def _env_timeout() -> Optional[float]:
    value = os.environ.get(TIMEOUT_ENV, "")
    if not value.strip():
        return None
    try:
        timeout = float(value)
        if timeout <= 0:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"{TIMEOUT_ENV} must be a positive number of seconds, "
            f"got {value!r}") from None
    return timeout


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend retries one failed task."""

    max_attempts: int = DEFAULT_RETRIES + 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be non-negative, got {self.backoff_base}")
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The policy named by ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``.

        Malformed values raise :class:`ConfigurationError` naming the
        variable and the value, like every other ``REPRO_*`` knob.
        """
        return cls(max_attempts=_env_retries() + 1, task_timeout=_env_timeout())

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is transient enough to be worth a re-run."""
        return isinstance(error, RETRYABLE_EXCEPTIONS)

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before re-running ``key`` after its ``attempt``-th try.

        Exponential in the attempt with a deterministic per-key jitter
        factor in [0.5, 1.5): staggered like random jitter, reproducible
        like everything else in the pipeline.
        """
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (0.5 + deterministic_jitter(key, attempt))


@contextmanager
def retry_settings(max_retries: Optional[int],
                   task_timeout: Optional[float]) -> Iterator[None]:
    """Export a CLI's ``--max-retries`` / ``--task-timeout`` for one run.

    Backends resolve their policy with :meth:`RetryPolicy.from_env` when
    they are built, so the settings travel through the environment; the
    previous values are restored when the block exits, so one in-process
    run's settings never leak into the next.  ``None`` leaves a variable
    as it is.
    """
    settings = {RETRIES_ENV: max_retries, TIMEOUT_ENV: task_timeout}
    previous = {name: os.environ.get(name) for name in settings}
    for name, value in settings.items():
        if value is not None:
            os.environ[name] = str(value)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def retry_calls(policy: RetryPolicy, calls: Sequence[Tuple[Callable, tuple, str]],
                interleave: Optional[Callable[[], None]] = None,
                clock: Callable[[], float] = time.monotonic,
                sleep: Callable[[float], None] = time.sleep) -> List[object]:
    """Run ``(function, args, key)`` calls under ``policy``, in this process.

    The in-process twin of the multiprocess gather, in the same rounds:
    every outstanding call is dispatched once, in call order, then the
    transient failures are retried in the next round after the policy's
    backoff (counted as ``tasks.retried``).  A non-retryable error, or a
    transient one on its last attempt, propagates at once.  An in-process
    task cannot be preempted, so the per-task timeout is checked
    post-hoc: an attempt over budget is a retryable
    :class:`TaskTimeoutError`.  ``interleave`` runs once, after the
    first round.
    """
    calls = list(calls)
    results: List[object] = [None] * len(calls)
    attempts = [0] * len(calls)
    outstanding = list(range(len(calls)))
    while outstanding:
        retries: List[int] = []
        for index in outstanding:
            function, args, key = calls[index]
            attempts[index] += 1
            submitted, submitted_args = dispatch(function, args, key)
            started = clock()
            try:
                results[index] = submitted(*submitted_args)
            except Exception as error:
                if not policy.retryable(error) or attempts[index] >= policy.max_attempts:
                    raise
                retries.append(index)
                continue
            elapsed = clock() - started
            if policy.task_timeout is not None and elapsed > policy.task_timeout:
                if attempts[index] >= policy.max_attempts:
                    raise TaskTimeoutError(
                        f"task {key} took {elapsed:.3f} s, over its "
                        f"{policy.task_timeout:g} s budget")
                retries.append(index)
        if interleave is not None:
            interleave, hook = None, interleave
            hook()
        if retries:
            metric_count("tasks.retried", len(retries))
            sleep(max(policy.delay(calls[index][2], attempts[index])
                      for index in retries))
        outstanding = retries
    return results
