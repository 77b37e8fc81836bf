"""Task-level resilience: retry policies, deterministic backoff, timeouts.

Every characterization task is deterministic and transition-local, so a
retried task is **bit-identical by construction** — which is what makes
task-level retries safe to apply everywhere: a transient failure
(injected or real: a killed worker, an ``OSError`` out of a flaky
filesystem, a stalled task) costs one re-execution, never a changed
result.  :class:`RetryPolicy` bundles the knobs:

* ``max_attempts`` — total tries per task (1 = no retries), driven by
  ``REPRO_MAX_RETRIES`` (retries *on top of* the first attempt), or a
  CLI run's ``--max-retries`` (env → StudyConfig → CLI, resolved by
  :meth:`RetryPolicy.from_env` when a backend is built; no run
  changes the process environment);
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
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.obs.metrics import metric_count
from repro.runtime.faultinject import dispatch
from repro.settings import DEFAULT_RETRIES, RuntimeSettings

#: Exception types worth retrying — transient by nature.  Everything
#: else (assertion-style cross-check failures, configuration errors)
#: reflects the task itself and propagates on the first attempt.
RETRYABLE_EXCEPTIONS = (OSError, TimeoutError, TaskTimeoutError)


def deterministic_jitter(key: str, attempt: int) -> float:
    """A uniform [0, 1) draw that is a pure function of (key, attempt)."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


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
        if self.task_timeout is not None and not 0 < self.task_timeout < math.inf:
            raise ConfigurationError(
                f"task_timeout must be positive and finite, got {self.task_timeout}")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The policy of the current settings.

        ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``, or a CLI run's
        ``--max-retries`` / ``--task-timeout`` (see
        :meth:`RuntimeSettings.current`).  Malformed values raise
        :class:`ConfigurationError` naming the variable and the value.
        """
        settings = RuntimeSettings.current()
        return cls(max_attempts=settings.max_retries + 1,
                   task_timeout=settings.task_timeout)

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
