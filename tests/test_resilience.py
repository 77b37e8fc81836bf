"""Tests of the resilient execution layer (retries, recovery, checkpoints).

The contract under test: a worker killed mid-batch recovers with results
bit-identical to a fault-free serial run, across serial/multiprocess x
planned/unplanned x cached/uncached; retry exhaustion propagates the
original error; a pool whose workers die on every task degrades to
in-process execution with a warning instead of failing; transient
store-write failures warn once and continue as misses; checkpointed
sweeps resume by replaying journaled scores and simulating only the
unfinished jobs; and fault plans, decided in the driver at dispatch,
fault the same calls on every backend and at every worker count.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.experiments.designs import exact_entry, isa_entry
from repro.explore.checkpoint import (
    CHECKPOINT_ENV,
    SweepJournal,
    point_from_record,
    point_to_record,
    require_checkpoint_dir,
)
from repro.explore.space import space_entries
from repro.explore.sweep import SweepSpec, run_sweep
from repro.obs.metrics import metrics_run
from repro.runtime import (
    FAULT_PLAN_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    CachingBackend,
    CharacterizationJob,
    MultiprocessBackend,
    PlannedBackend,
    RetryPolicy,
    SerialBackend,
    active_fault_plan,
    deterministic_jitter,
    parse_fault_plan,
    reset_fault_plan,
    retry_calls,
    run_jobs,
)
from repro.runtime.faultinject import POINT_TASK, FaultPlan, FaultSpec
from repro.runtime.store import ResultStore
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", engine="auto",
              seed=11, **kwargs):
    """A quick 16-bit characterization job (mirrors test_result_cache)."""
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, engine=engine, width=16, **kwargs)


def job_batch():
    """Four jobs: two designs across two operand traces."""
    return [small_job(quadruple=quadruple, seed=seed)
            for seed in (11, 12) for quadruple in ((4, 0, 0, 2), (4, 2, 1, 2))]


def assert_bit_identical(reference, candidate):
    """Every array of two characterisations matches exactly."""
    assert reference.name == candidate.name
    assert np.array_equal(reference.diamond_words, candidate.diamond_words)
    assert np.array_equal(reference.gold_words, candidate.gold_words)
    assert np.array_equal(reference.netlist_words, candidate.netlist_words)
    assert set(reference.timing_traces) == set(candidate.timing_traces)
    for clk, timing in reference.timing_traces.items():
        other = candidate.timing_traces[clk]
        assert np.array_equal(timing.sampled_words, other.sampled_words)
        assert np.array_equal(timing.settled_words, other.settled_words)


def multiprocess_backend(**kwargs):
    """A multiprocess backend, quiet about worker clamping on small hosts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return MultiprocessBackend(**kwargs)


@pytest.fixture
def arm_faults(monkeypatch):
    """Arm (and on teardown disarm) a fault plan with fresh counters."""
    def arm(faults):
        document = {"faults": faults}
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(document))
        reset_fault_plan()
        return document
    yield arm
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fault_plan()


@pytest.fixture
def cpus(monkeypatch):
    """Report 4 CPUs, so no requested worker count (<= 4) is clamped."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def assert_fired(registry, plan):
    """The armed plan injected at least one fault into the run."""
    assert registry.counters.get("faults.injected", 0) >= 1, \
        f"fault plan {plan} never fired"


# --------------------------------------------------------------------- #
# Environment knobs
# --------------------------------------------------------------------- #
class TestEnvKnobs:
    @pytest.mark.parametrize("value", ["banana", "-1", "1.5"])
    def test_malformed_retries_names_variable_and_value(self, monkeypatch, value):
        monkeypatch.setenv(RETRIES_ENV, value)
        with pytest.raises(ConfigurationError) as excinfo:
            RetryPolicy.from_env()
        assert RETRIES_ENV in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize("value", ["soon", "0", "-2.5", "nan", "inf"])
    def test_malformed_timeout_names_variable_and_value(self, monkeypatch, value):
        monkeypatch.setenv(TIMEOUT_ENV, value)
        with pytest.raises(ConfigurationError) as excinfo:
            RetryPolicy.from_env()
        assert TIMEOUT_ENV in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_env_policy_resolves_attempts_and_timeout(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "5")
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 6
        assert policy.task_timeout == 2.5

    def test_zero_retries_means_single_attempt(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "0")
        assert RetryPolicy.from_env().max_attempts == 1

    @pytest.mark.parametrize("document, detail", [
        ("{not json", "must be JSON"),
        ("/nonexistent/fault-plan.json", "unreadable plan file"),
        ('{"faults": 3}', "'faults' list"),
        ('[{"kind": "melt-cpu", "at": 1}]', "unknown kind"),
        ('[{"kind": "task-error"}]', "'at' or 'every' trigger"),
        ('[{"kind": "task-error", "at": 0}]', "must be a positive integer"),
        ('[{"kind": "task-error", "at": 1, "color": "red"}]', "unknown fields"),
        ('[{"kind": "task-error", "at": 1, "point": "moon"}]', "unknown point"),
        ('[{"kind": "delay", "at": 1, "seconds": -1}]', "non-negative number"),
        ('{"faults": [], "state_dir": "/tmp/faults"}', "unknown fields"),
    ])
    def test_malformed_fault_plan_names_variable_and_value(self, document, detail):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_plan(document)
        message = str(excinfo.value)
        assert FAULT_PLAN_ENV in message
        assert detail in message
        assert repr(document) in message

    def test_active_plan_rearms_when_env_changes(self, arm_faults):
        arm_faults([{"kind": "task-error", "at": 1}])
        first = active_fault_plan()
        assert [spec.kind for spec in first.specs] == ["task-error"]
        arm_faults([{"kind": "delay", "every": 2, "seconds": 0.1}])
        second = active_fault_plan()
        assert second is not first
        assert [spec.kind for spec in second.specs] == ["delay"]


# --------------------------------------------------------------------- #
# Retry policy and the in-process retry loop
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_jitter_is_deterministic_and_uniform(self):
        draws = {deterministic_jitter(f"job{i}", attempt)
                 for i in range(8) for attempt in (1, 2)}
        assert len(draws) == 16
        assert all(0.0 <= draw < 1.0 for draw in draws)
        assert deterministic_jitter("job0", 1) == deterministic_jitter("job0", 1)

    def test_delay_is_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.delay("some-task", attempt)
            assert base * 0.5 <= delay < base * 1.5
        assert policy.delay("a", 1) == policy.delay("a", 1)

    def test_invalid_policy_fields_raise(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        for timeout in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="task_timeout"):
                RetryPolicy(task_timeout=timeout)

    def test_transient_failure_is_retried_then_succeeds(self):
        attempts, sleeps = [], []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise OSError("transient hiccup")
            return "ok"

        policy = RetryPolicy(max_attempts=3, backoff_base=0.125)
        with metrics_run() as registry:
            [result] = retry_calls(policy, [(flaky, (), "flaky-task")],
                                   sleep=sleeps.append)
        assert result == "ok"
        assert len(attempts) == 2
        assert sleeps == [policy.delay("flaky-task", 1)]
        assert registry.counters["tasks.retried"] == 1

    def test_exhaustion_propagates_the_original_error(self):
        attempts = []

        def doomed():
            attempts.append(1)
            raise OSError("persistent failure")

        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        with pytest.raises(OSError, match="persistent failure"):
            retry_calls(policy, [(doomed, (), "doomed")], sleep=lambda _: None)
        assert len(attempts) == 3

    def test_non_retryable_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("a deterministic bug")

        with pytest.raises(ValueError, match="deterministic bug"):
            retry_calls(RetryPolicy(max_attempts=5), [(broken, (), "broken")])
        assert len(attempts) == 1

    def test_posthoc_timeout_counts_as_a_retryable_failure(self):
        ticks = iter([0.0, 10.0, 10.0, 10.2])
        sleeps = []
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, task_timeout=1.0)
        [result] = retry_calls(policy, [(lambda: "done", (), "slow")],
                               clock=lambda: next(ticks), sleep=sleeps.append)
        assert result == "done"
        assert len(sleeps) == 1

    def test_posthoc_timeout_exhaustion_raises_task_timeout(self):
        ticks = iter([0.0, 10.0])
        policy = RetryPolicy(max_attempts=1, task_timeout=1.0)
        with pytest.raises(TaskTimeoutError, match="over its 1 s budget"):
            retry_calls(policy, [(lambda: "done", (), "slow")],
                        clock=lambda: next(ticks))


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_counters_respect_point_and_match(self):
        plan = FaultPlan([FaultSpec(kind="task-error", point=POINT_TASK,
                                    at=2, match="alpha")])
        plan.fire(POINT_TASK, "beta")       # filtered out by match
        plan.fire("store.write", "alpha")   # wrong point
        plan.fire(POINT_TASK, "alpha-1")    # counter 1: not due yet
        with pytest.raises(OSError, match="injected task-error"):
            plan.fire(POINT_TASK, "alpha-2")

    def test_kill_worker_is_a_noop_in_the_driver(self):
        plan = FaultPlan([FaultSpec(kind="kill-worker", point=POINT_TASK,
                                    every=1)])
        with metrics_run() as registry:
            plan.fire(POINT_TASK, "driver-task")  # must not exit the test runner
        assert registry.counters["faults.injected"] == 1

    @pytest.mark.parametrize("workers", [None, 1, 2, 4],
                             ids=["serial", "1", "2", "4"])
    def test_plan_fires_on_the_same_call_keys_on_every_backend(
            self, arm_faults, cpus, monkeypatch, workers):
        reference = SerialBackend().run(job_batch())
        fired = []
        decide = FaultPlan.decide

        def recording_decide(plan, point, key=""):
            due = decide(plan, point, key)
            fired.extend((spec.kind, key) for spec in due)
            return due

        monkeypatch.setattr(FaultPlan, "decide", recording_decide)
        plan = arm_faults([
            {"kind": "task-error", "at": 2},
            {"kind": "task-error", "every": 3, "times": 2},
            {"kind": "delay", "every": 2, "seconds": 0.0, "match": "(4,2,1,2)"},
        ])
        backend = (SerialBackend() if workers is None
                   else multiprocess_backend(workers=workers))
        try:
            with metrics_run() as registry:
                survived = backend.run(job_batch())
        finally:
            backend.close()
        assert_fired(registry, plan)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        # Four whole-job calls on every backend, dispatched in rounds: all
        # four, then the failed ones in call order, then the last retry.
        keys = [f"{job.name}:{index}" for index, job in enumerate(job_batch())]
        assert fired == [
            ("task-error", keys[1]),
            ("task-error", keys[2]),
            ("delay", keys[3]),
            ("task-error", keys[2]),
        ]


# --------------------------------------------------------------------- #
# Serial backend resilience
# --------------------------------------------------------------------- #
class TestSerialResilience:
    def test_transient_task_fault_is_retried_transparently(self, arm_faults):
        [reference] = SerialBackend().run([small_job()])
        plan = arm_faults([{"kind": "task-error", "at": 1, "times": 1}])
        with metrics_run() as registry:
            [survived] = SerialBackend().run([small_job()])
        assert_fired(registry, plan)
        assert_bit_identical(reference, survived)
        assert registry.counters["faults.injected"] == 1
        assert registry.counters["tasks.retried"] == 1

    def test_planned_serial_groups_retry_too(self, arm_faults):
        jobs = job_batch()
        reference = SerialBackend().run(jobs)
        plan = arm_faults([{"kind": "task-error", "at": 1, "times": 1}])
        with metrics_run() as registry:
            survived = run_jobs(job_batch(), backend="serial")
        assert_fired(registry, plan)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["tasks.retried"] >= 1

    def test_retry_exhaustion_propagates_the_injected_error(self, arm_faults):
        plan = arm_faults([{"kind": "task-error", "every": 1}])
        backend = SerialBackend(
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0))
        with metrics_run() as registry:
            with pytest.raises(OSError, match="injected task-error"):
                backend.run([small_job()])
        assert_fired(registry, plan)


# --------------------------------------------------------------------- #
# Multiprocess backend resilience
# --------------------------------------------------------------------- #
class TestMultiprocessResilience:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("plan, cached", [
        (False, False), (True, False), (False, True), (True, True),
    ], ids=["plain", "planned", "cached", "planned-cached"])
    def test_killed_worker_recovers_bit_identically(self, arm_faults, cpus,
                                                    tmp_path, plan, cached,
                                                    workers):
        jobs = job_batch()
        reference = SerialBackend().run(jobs)
        fault_plan = arm_faults([{"kind": "kill-worker", "at": 2, "times": 1}])
        backend = multiprocess_backend(workers=workers)
        stack = PlannedBackend(backend) if plan else backend
        if cached:
            stack = CachingBackend(stack, tmp_path / "cache")
        try:
            with metrics_run() as registry:
                survived = stack.run(job_batch())
        finally:
            backend.close()
        assert_fired(registry, fault_plan)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["pool.rebuilds"] >= 1
        assert registry.counters["tasks.retried"] >= 1

    def test_stalled_task_is_redispatched_after_timeout(self, arm_faults):
        job = small_job()
        [reference] = SerialBackend().run([job])
        plan = arm_faults([{"kind": "delay", "at": 1, "seconds": 5.0, "times": 1}])
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, task_timeout=0.5)
        backend = multiprocess_backend(workers=1, retry_policy=policy)
        try:
            with metrics_run() as registry:
                [survived] = backend.run([small_job()])
        finally:
            backend.close()
        assert_fired(registry, plan)
        assert_bit_identical(reference, survived)
        assert registry.counters["pool.rebuilds"] >= 1

    def test_hopeless_pool_degrades_to_in_process_with_warning(self, arm_faults):
        jobs = job_batch()
        reference = SerialBackend().run(jobs)
        plan = arm_faults([{"kind": "kill-worker", "every": 1}])
        backend = multiprocess_backend(workers=1, max_rebuilds=2)
        try:
            with metrics_run() as registry:
                with pytest.warns(RuntimeWarning, match="degraded to in-process"):
                    survived = backend.run(job_batch())
        finally:
            backend.close()
        assert_fired(registry, plan)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["backend.degraded"] == 1
        assert registry.counters["pool.rebuilds"] == 2


# --------------------------------------------------------------------- #
# Store-write resilience
# --------------------------------------------------------------------- #
class TestStoreResilience:
    def test_write_failure_warns_once_and_stays_a_miss(self, arm_faults, tmp_path):
        plan = arm_faults([{"kind": "store-error", "every": 1}])
        store = ResultStore(tmp_path / "store")
        path = store.result_path("ab" * 32)
        with metrics_run() as registry:
            with pytest.warns(RuntimeWarning, match="stays a miss"):
                store.store(path, {"payload": 1})
        assert_fired(registry, plan)
        assert store.load(path) is None
        assert store.stats.write_errors == 1
        with warnings.catch_warnings():  # the second failure stays quiet
            warnings.simplefilter("error")
            store.store(store.result_path("cd" * 32), {"payload": 2})
        assert store.stats.write_errors == 2
        assert "2 writes skipped on I/O errors" in store.stats.describe()

    def test_cached_run_survives_write_faults_as_misses(self, arm_faults, tmp_path):
        [reference] = SerialBackend().run([small_job()])
        plan = arm_faults([{"kind": "store-error", "every": 1,
                            "match": str(tmp_path / "cache")}])
        backend = CachingBackend(SerialBackend(), tmp_path / "cache")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with metrics_run() as registry:
                [first] = backend.run([small_job()])
                [second] = backend.run([small_job()])  # nothing persisted: recompute
        assert_fired(registry, plan)
        assert_bit_identical(reference, first)
        assert_bit_identical(reference, second)
        assert backend.stats.hits == 0
        assert backend.stats.misses == 2
        assert backend.stats.write_errors >= 2

    def test_truncated_entry_is_recomputed_as_corruption(self, arm_faults, tmp_path):
        [reference] = SerialBackend().run([small_job()])
        plan = arm_faults([{"kind": "truncate", "at": 1}])
        backend = CachingBackend(SerialBackend(), tmp_path / "cache")
        with metrics_run() as registry:
            [cold] = backend.run([small_job()])       # written, then torn in half
            [warm] = backend.run([small_job()])       # corrupt -> miss -> recompute
        assert_fired(registry, plan)
        assert_bit_identical(reference, cold)
        assert_bit_identical(reference, warm)
        assert backend.stats.corrupt >= 1
        [rewarmed] = backend.run([small_job()])   # second write was clean
        assert_bit_identical(reference, rewarmed)
        assert backend.stats.hits >= 1


# --------------------------------------------------------------------- #
# Checkpointed sweeps
# --------------------------------------------------------------------- #
def small_sweep_spec(width=16, max_designs=2, length=64):
    return SweepSpec(
        entries=tuple(space_entries(width=width, max_designs=max_designs)),
        workloads=(WorkloadSpec(kind="uniform", length=length, width=width,
                                seed=1),),
        width=width)


class TestCheckpointing:
    def test_points_round_trip_through_journal_records(self):
        result = run_sweep(small_sweep_spec())
        for point in result.points:
            rebuilt = point_from_record(
                json.loads(json.dumps(point_to_record(point), sort_keys=True)))
            assert rebuilt == point

    def test_journal_identity_is_the_digest_list(self, tmp_path):
        same = SweepJournal.for_spec(tmp_path, ["a", "b"])
        again = SweepJournal.for_spec(tmp_path, ["a", "b"])
        other = SweepJournal.for_spec(tmp_path, ["a", "c"])
        assert same.path == again.path
        assert same.path != other.path

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        result = run_sweep(small_sweep_spec())
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("digest-1", result.points[:2])
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"format": 99, "digest": "old", "points": []}\n')
            handle.write('{"digest": "torn", "poi')  # the interrupted write
        loaded = journal.load()
        assert list(loaded) == ["digest-1"]
        assert loaded["digest-1"] == result.points[:2]

    def test_resume_without_checkpoint_dir_is_a_config_error(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        with pytest.raises(ConfigurationError, match=CHECKPOINT_ENV):
            require_checkpoint_dir(None, resume=True)
        with pytest.raises(ConfigurationError, match=CHECKPOINT_ENV):
            run_sweep(small_sweep_spec(), resume=True)

    def test_checkpoint_dir_resolves_from_the_environment(self, monkeypatch,
                                                          tmp_path):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path))
        assert require_checkpoint_dir(None, resume=True) == str(tmp_path)

    def test_checkpointed_sweep_matches_plain_and_full_resume_is_free(
            self, tmp_path):
        spec = small_sweep_spec()
        plain = run_sweep(spec)
        checkpointed = run_sweep(spec, checkpoint_dir=str(tmp_path),
                                 checkpoint_batch=2)
        assert checkpointed.points == plain.points
        assert checkpointed.resumed_jobs == 0
        with metrics_run() as registry:
            resumed = run_sweep(spec, checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.points == plain.points
        assert resumed.resumed_jobs == spec.job_count
        assert registry.counters.get("jobs.simulated", 0) == 0
        assert registry.counters["sweep.jobs_resumed"] == spec.job_count

    def test_interrupted_sweep_resumes_only_unfinished_jobs(self, monkeypatch,
                                                            tmp_path):
        import repro.explore.sweep as sweep_module
        spec = small_sweep_spec()
        plain = run_sweep(spec)

        real_run_jobs = sweep_module.run_jobs
        batches = []

        def interrupted(jobs, **kwargs):
            batches.append(len(jobs))
            if len(batches) == 2:
                raise RuntimeError("simulated interruption")
            return real_run_jobs(jobs, **kwargs)

        monkeypatch.setattr(sweep_module, "run_jobs", interrupted)
        with pytest.raises(RuntimeError, match="simulated interruption"):
            run_sweep(spec, checkpoint_dir=str(tmp_path), checkpoint_batch=1)
        monkeypatch.setattr(sweep_module, "run_jobs", real_run_jobs)

        with metrics_run() as registry:
            resumed = run_sweep(spec, checkpoint_dir=str(tmp_path), resume=True,
                                checkpoint_batch=1)
        assert resumed.resumed_jobs == 1
        assert registry.counters["jobs.simulated"] == spec.job_count - 1
        assert resumed.points == plain.points

    def test_fresh_run_discards_a_stale_journal(self, tmp_path):
        spec = small_sweep_spec()
        run_sweep(spec, checkpoint_dir=str(tmp_path))
        fresh = run_sweep(spec, checkpoint_dir=str(tmp_path))  # no resume
        assert fresh.resumed_jobs == 0


# --------------------------------------------------------------------- #
# CLI validation
# --------------------------------------------------------------------- #
class TestCLIValidation:
    def test_resume_requires_a_checkpoint_dir(self, monkeypatch, capsys):
        from repro.explore.cli import main
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        with pytest.raises(SystemExit):
            main(["--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, detail", [
        (["--max-retries", "-1"], "--max-retries must be non-negative"),
        (["--task-timeout", "0"], "--task-timeout must be positive"),
        (["--task-timeout", "nan"], "--task-timeout must be positive"),
    ])
    def test_resilience_knobs_are_validated(self, argv, detail, capsys):
        from repro.explore.cli import main
        with pytest.raises(SystemExit):
            main(argv)
        assert detail in capsys.readouterr().err


class TestCLIRetrySettings:
    """Retry, timeout and synthesis-cache flags hold for one run only."""

    EXPLORE = ["--width", "8", "--max-designs", "2", "--length", "16",
               "--backend", "serial", "--no-cache"]
    RUNNER = ["--scale", "0.02", "--simulator", "fast", "--backend", "serial",
              "--figures", "fig9", "--no-cache"]

    @pytest.mark.parametrize("cli, argv", [("repro.explore.cli", EXPLORE),
                                           ("repro.experiments.runner", RUNNER)],
                             ids=["explore", "runner"])
    def test_settings_do_not_leak_into_the_next_run(self, cli, argv, monkeypatch,
                                                    capsys, tmp_path):
        import importlib

        from repro.experiments.common import StudyConfig, shutdown_backends
        from repro.runtime.jobs import clear_design_cache
        from repro.runtime.synth_cache import (
            SYNTH_CACHE_ENV,
            SYNTH_CACHE_LIMIT_ENV,
            active_synth_cache,
            configure_synth_cache,
        )
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        monkeypatch.delenv(SYNTH_CACHE_ENV, raising=False)
        monkeypatch.delenv(SYNTH_CACHE_LIMIT_ENV, raising=False)
        main = importlib.import_module(cli).main
        backends, synth_caches = [], []
        runtime_backend = StudyConfig.runtime_backend

        def recording(config):
            backends.append(runtime_backend(config))
            synth_caches.append(active_synth_cache())
            return backends[-1]

        def policy(backend):
            while hasattr(backend, "inner"):
                backend = backend.inner
            return backend.retry_policy

        def where(synth_cache):
            return synth_cache.store.root, synth_cache.store.limit_bytes

        def run(*flags):
            clear_design_cache()  # a fresh process would synthesize again
            assert main(argv + list(flags)) == 0

        monkeypatch.setattr(StudyConfig, "runtime_backend", recording)
        try:
            run("--max-retries", "0", "--task-timeout", "30")
            assert policy(backends[-1]) == RetryPolicy(max_attempts=1, task_timeout=30.0)
            assert RETRIES_ENV not in os.environ
            assert TIMEOUT_ENV not in os.environ
            assert SerialBackend().retry_policy == RetryPolicy()
            run()
            assert policy(backends[-1]) == RetryPolicy()

            # --synth-cache-dir keeps the environment's budget, for its run only.
            flag_dir = tmp_path / "flag-synth"
            monkeypatch.setenv(SYNTH_CACHE_LIMIT_ENV, "64")
            run("--synth-cache-dir", str(flag_dir))
            assert where(synth_caches[-1]) == (flag_dir, 64 * 1024 * 1024)
            assert any(flag_dir.glob("*/*/result.pkl"))
            assert SYNTH_CACHE_ENV not in os.environ
            assert os.environ[SYNTH_CACHE_LIMIT_ENV] == "64"
            written = sorted(flag_dir.rglob("*"))
            run()
            assert synth_caches[-1] is None
            assert sorted(flag_dir.rglob("*")) == written
            assert active_synth_cache() is None

            # --no-synth-cache disables the environment's cache for its run only.
            env_dir = tmp_path / "env-synth"
            monkeypatch.setenv(SYNTH_CACHE_ENV, str(env_dir))
            run("--no-synth-cache")
            assert synth_caches[-1] is None
            assert not env_dir.exists()
            run()
            assert where(synth_caches[-1]) == (env_dir, 64 * 1024 * 1024)

            # A cache chosen in code holds for a run without synth flags,
            # and a flag replaces it for its run only.
            code_dir = tmp_path / "code-synth"
            configured = configure_synth_cache(code_dir)
            run()
            assert synth_caches[-1] is configured
            assert any(code_dir.glob("*/*/result.pkl"))
            run("--synth-cache-dir", str(flag_dir))
            assert where(synth_caches[-1]) == (flag_dir, 64 * 1024 * 1024)
            run("--no-synth-cache")
            assert synth_caches[-1] is None
            assert active_synth_cache() is configured

            # A malformed budget is rejected, not dropped by the flag.
            monkeypatch.setenv(SYNTH_CACHE_LIMIT_ENV, "nan")
            with pytest.raises(ConfigurationError, match=SYNTH_CACHE_LIMIT_ENV):
                main(argv + ["--synth-cache-dir", str(flag_dir)])
        finally:
            shutdown_backends()


# --------------------------------------------------------------------- #
# Acceptance: a faulted multi-design sweep is byte-identical and loses
# no jobs (ISSUE acceptance scenario).
# --------------------------------------------------------------------- #
class TestAcceptance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_faulted_multiprocess_sweep_matches_fault_free_serial(
            self, arm_faults, cpus, tmp_path, workers):
        spec = small_sweep_spec(max_designs=4)
        reference = run_sweep(spec)  # fault-free, serial

        cache_dir = tmp_path / "chaos-cache"
        plan = arm_faults([
            {"kind": "kill-worker", "at": 2, "times": 1},
            {"kind": "store-error", "every": 2, "match": str(cache_dir)},
        ])
        backend = multiprocess_backend(workers=workers)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with metrics_run() as registry:
                    faulted = run_sweep(spec, backend=backend,
                                        cache_dir=str(cache_dir))
        finally:
            backend.close()

        assert_fired(registry, plan)
        assert faulted.points == reference.points  # zero lost or wrong jobs
        assert len(faulted.points) == spec.point_count
        assert registry.counters["tasks.retried"] >= 1
        assert registry.counters["pool.rebuilds"] >= 1
        assert registry.counters["faults.injected"] >= 1
