"""Unit tests of the observability substrate (:mod:`repro.obs`).

Span nesting and attribute folding, the ``--timings`` footer and the
thread-safety of context-local tracing, the metrics registry, worker-spill
records and their driver-side merge, run-manifest round-trips and the
``repro-stats`` summaries — all without touching the synthesis or
simulation pipeline, so these tests are fast and dependency-free.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    Tracer,
    append_manifest,
    drain_spill_dir,
    load_manifests,
    metric_count,
    metric_observe,
    metrics_run,
    record_counter_deltas,
    resolve_telemetry_dir,
    span,
    spilled_call,
    telemetry_active,
    telemetry_run,
    trace_run,
)
from repro.obs.manifest import TELEMETRY_ENV
from repro.obs.stats_cli import main as stats_main
from repro.runtime.faultinject import FAULT_PLAN_ENV


@pytest.fixture(autouse=True)
def _isolated_telemetry_env(monkeypatch):
    """Shield these tests from a suite-wide $REPRO_TELEMETRY_DIR or
    $REPRO_FAULT_PLAN (CI legs)."""
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


class TestSpans:
    def test_spans_nest_into_paths(self):
        with trace_run() as tracer:
            with span("synthesize"):
                with span("synth.optimize"):
                    pass
            with span("simulate"):
                pass
            with span("simulate"):
                pass
        assert set(tracer.spans) == {"synthesize", "synthesize/synth.optimize",
                                     "simulate"}
        assert tracer.spans["simulate"].calls == 2
        assert tracer.spans["synthesize/synth.optimize"].name == "synth.optimize"
        for stats in tracer.spans.values():
            assert stats.wall_s >= 0.0
            assert stats.cpu_s >= 0.0

    def test_numeric_attrs_sum_others_keep_last(self):
        with trace_run() as tracer:
            with span("simulate", transitions=100, design="a"):
                pass
            with span("simulate", transitions=np.int64(28), design="b"):
                pass
        attrs = tracer.spans["simulate"].attrs
        assert attrs["transitions"] == 128
        assert isinstance(attrs["transitions"], int)  # numpy scalars cleaned
        assert attrs["design"] == "b"

    def test_span_is_noop_without_tracer(self):
        with span("simulate"):
            pass  # must not raise, and nothing to observe

    def test_tracers_stack(self):
        with trace_run() as outer:
            with span("score"):
                pass
            with trace_run() as inner:
                with span("simulate"):
                    pass
        assert set(outer.spans) == {"score", "simulate"}
        assert set(inner.spans) == {"simulate"}

    def test_phase_totals_and_attribution(self):
        tracer = Tracer()
        tracer.merge_span("synthesize", "synthesize", 1.0, 0.9, 2, {})
        tracer.merge_span("synthesize/synth.optimize", "synth.optimize",
                          0.6, 0.5, 2, {})
        tracer.merge_span("schedule.wait", "schedule.wait", 3.0, 0.0, 1, {})
        totals = tracer.phase_totals()
        assert totals["synthesize"]["calls"] == 2
        assert totals["synth.optimize"]["wall_s"] == pytest.approx(0.6)
        # Dotted names (sub-phases, scheduling wait) are not attributed.
        assert tracer.attributed_wall_s() == pytest.approx(1.0)


class TestTimingsFooter:
    def test_describe_puts_pipeline_phases_first(self):
        tracer = Tracer()
        tracer.merge_span("workload", "workload", 0.25, 0.25, 1, {})
        tracer.merge_span("schedule.wait", "schedule.wait", 5.0, 0.0, 1, {})
        tracer.merge_span("simulate", "simulate", 2.0, 1.9, 3, {})
        tracer.merge_span("ml.fit", "ml.fit", 0.5, 0.5, 1, {})
        tracer.merge_span("synthesize", "synthesize", 1.0, 0.9, 2, {})
        tracer.merge_span("synthesize/synth.optimize", "synth.optimize",
                          0.4, 0.4, 2, {})
        # Pipeline order first, then the other names sorted; dotted
        # names are listed but not attributed.
        assert tracer.describe() == (
            "synthesize 1.00 s / synth.optimize 0.40 s / simulate 2.00 s / "
            "schedule.wait 5.00 s / ml.fit 0.50 s / workload 0.25 s "
            "(attributed 3.25 s)")

    def test_describe_without_spans(self):
        assert Tracer().describe() == "no phases recorded"

    def test_trace_runs_are_thread_local(self):
        errors = []
        barrier = threading.Barrier(2)

        def worker(name):
            try:
                with trace_run() as tracer:
                    barrier.wait(timeout=5)
                    with span(name):
                        barrier.wait(timeout=5)
                    assert set(tracer.phase_totals()) == {name}, tracer.spans
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("synthesize", "simulate")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestMetrics:
    def test_counters_gauges_histograms(self):
        with metrics_run() as registry:
            metric_count("jobs.simulated", 3)
            metric_count("jobs.simulated")
            metric_observe("plan.group_size", 4)
            metric_observe("plan.group_size", 8)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["jobs.simulated"] == 4
        histogram = snapshot["histograms"]["plan.group_size"]
        assert histogram == {"count": 2, "total": 12.0, "min": 4.0,
                             "max": 8.0, "mean": 6.0}

    def test_metrics_are_noops_without_registry(self):
        metric_count("jobs.simulated")  # must not raise

    def test_merge_snapshot(self):
        first = MetricsRegistry()
        first.count("cache.hits", 2)
        first.observe("plan.group_size", 4)
        second = MetricsRegistry()
        second.count("cache.hits", 3)
        second.observe("plan.group_size", 10)
        second.merge_snapshot(first.snapshot())
        snapshot = second.snapshot()
        assert snapshot["counters"]["cache.hits"] == 5
        assert snapshot["histograms"]["plan.group_size"]["count"] == 2
        assert snapshot["histograms"]["plan.group_size"]["max"] == 10.0

    def test_record_counter_deltas_skips_zeroes(self):
        with metrics_run() as registry:
            record_counter_deltas("cache", {"hits": 2, "misses": 0})
        assert registry.snapshot()["counters"] == {"cache.hits": 2}


class TestSpill:
    def test_spilled_call_writes_record_and_drain_merges(self, tmp_path):
        def task(value):
            with span("simulate"):
                pass
            metric_count("jobs.simulated")
            return value * 2

        with trace_run() as tracer, metrics_run() as registry:
            assert telemetry_active()
            result = spilled_call(str(tmp_path), task, 21)
            assert result == 42
            offsets = {}
            assert drain_spill_dir(str(tmp_path), offsets) == 1
            # A second drain consumes nothing new (offsets advanced).
            assert drain_spill_dir(str(tmp_path), offsets) == 0
        assert tracer.spans["simulate"].calls == 1
        assert registry.snapshot()["counters"]["jobs.simulated"] == 1
        assert len(tracer.workers) == 1
        worker = next(iter(tracer.workers.values()))
        assert worker["tasks"] == 1
        assert worker["busy_s"] >= 0.0

    def test_spilled_call_isolates_worker_from_ambient_tracers(self, tmp_path):
        # The task runs in an empty context: the ambient tracer must not
        # observe the task's spans directly (only through the drain).
        def task():
            with span("simulate"):
                pass

        with trace_run() as tracer:
            spilled_call(str(tmp_path), task)
        assert "simulate" not in tracer.spans

    def test_drain_ignores_torn_trailing_line(self, tmp_path):
        path = tmp_path / "worker-123.jsonl"
        whole = json.dumps({"pid": 123, "busy_s": 0.5, "tasks": 1,
                            "spans": {}, "metrics": {}})
        path.write_text(whole + "\n" + '{"pid": 123, "busy')
        with trace_run() as tracer:
            assert drain_spill_dir(str(tmp_path), {}) == 1
        assert tracer.workers["123"]["busy_s"] == pytest.approx(0.5)

    def test_telemetry_active_reflects_context(self):
        assert not telemetry_active()
        with trace_run():
            assert telemetry_active()
        assert not telemetry_active()


class TestManifests:
    def test_manifest_roundtrip_schema(self, tmp_path):
        with telemetry_run(tmp_path, command="unit-test",
                           config={"width": 16}) as handle:
            with span("simulate"):
                pass
            metric_count("jobs.simulated", 2)
            handle.annotate(note="hello")
        assert handle.enabled
        assert handle.manifest_path is not None
        [manifest] = load_manifests(tmp_path)
        assert manifest == handle.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["command"] == "unit-test"
        assert manifest["config"] == {"width": 16}
        assert manifest["metrics"]["counters"]["jobs.simulated"] == 2
        assert manifest["phases"]["simulate"]["calls"] == 1
        assert manifest["note"] == "hello"
        assert manifest["elapsed_s"] > 0
        assert 0.0 <= manifest["attributed_fraction"]
        assert manifest["accounted_s"] >= manifest["attributed_s"]
        for key in ("run_id", "timestamp", "library_version", "host",
                    "spans", "workers"):
            assert key in manifest

    def test_nested_sessions_write_one_manifest(self, tmp_path):
        with telemetry_run(tmp_path, command="outer"):
            with telemetry_run(tmp_path, command="inner") as inner:
                with span("simulate"):
                    pass
            assert not inner.enabled
        manifests = load_manifests(tmp_path)
        assert [m["command"] for m in manifests] == ["outer"]
        # The inner block's spans were observed by the outer session.
        assert manifests[0]["phases"]["simulate"]["calls"] == 1

    def test_disabled_without_directory(self):
        with telemetry_run(None, command="nothing") as handle:
            pass
        assert not handle.enabled
        assert handle.manifest is None

    def test_inline_builds_manifest_without_directory(self):
        with telemetry_run(None, command="inline", inline=True) as handle:
            metric_count("jobs.simulated")
        assert handle.manifest is not None
        assert handle.manifest_path is None
        assert handle.manifest["metrics"]["counters"]["jobs.simulated"] == 1

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        assert resolve_telemetry_dir(None) == str(tmp_path)
        with telemetry_run(resolve_telemetry_dir(None), command="env-run"):
            pass
        assert [m["command"] for m in load_manifests(tmp_path)] == ["env-run"]

    def test_armed_plan_that_never_fired_is_warned(self, tmp_path, monkeypatch):
        plan = '[{"kind": "task-error", "at": 1000}]'
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        with telemetry_run(tmp_path, command="dead-plan"):
            pass
        with telemetry_run(tmp_path, command="live-plan"):
            metric_count("faults.injected")
        monkeypatch.delenv(FAULT_PLAN_ENV)
        with telemetry_run(tmp_path, command="no-plan"):
            pass
        dead, live, unarmed = load_manifests(tmp_path)
        [warning] = dead["warnings"]
        assert plan in warning and "injected no faults" in warning
        assert live["warnings"] == []
        assert unarmed["warnings"] == []

    def test_load_manifests_tolerates_garbage(self, tmp_path):
        append_manifest(tmp_path, {"schema": MANIFEST_SCHEMA, "command": "ok"})
        with open(tmp_path / "manifests.jsonl", "a") as handle:
            handle.write("not json\n")
        assert [m["command"] for m in load_manifests(tmp_path)] == ["ok"]
        assert load_manifests(tmp_path / "missing") == []


class TestStatsCli:
    def _write_runs(self, directory):
        with telemetry_run(directory, command="run_sweep"):
            with span("simulate"):
                pass
            metric_count("cache.hits", 3)
            metric_count("cache.misses", 1)
        with telemetry_run(directory, command="run_sweep"):
            with span("synthesize"):
                pass
            metric_count("cache.hits", 4)

    def test_stats_over_multiple_runs(self, tmp_path, capsys):
        self._write_runs(tmp_path)
        assert stats_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "Slowest phases" in out
        assert "hit rate" in out

    def test_stats_json_payload(self, tmp_path, capsys):
        self._write_runs(tmp_path)
        assert stats_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["runs"] == 2
        trend = payload["telemetry"]["cache_trend"]
        assert [row["hits"] for row in trend] == [3, 4]
        assert trend[0]["hit_rate"] == pytest.approx(0.75)

    def _write_faulted_runs(self, directory, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, '[{"kind": "kill-worker", "at": 9}]')
        with telemetry_run(directory, command="run_sweep"):
            metric_count("faults.injected", 2)
            metric_count("tasks.retried", 3)
            metric_count("pool.rebuilds", 1)
        with telemetry_run(directory, command="run_jobs"):
            metric_count("backend.degraded")

    def test_stats_failure_summary_text(self, tmp_path, capsys, monkeypatch):
        self._write_faulted_runs(tmp_path, monkeypatch)
        assert stats_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Failure handling across runs" in out
        for counter in ("faults.injected", "tasks.retried", "pool.rebuilds",
                        "backend.degraded"):
            assert counter in out
        assert "warning (run_jobs" in out and "injected no faults" in out

    def test_stats_failure_summary_json(self, tmp_path, capsys, monkeypatch):
        self._write_faulted_runs(tmp_path, monkeypatch)
        assert stats_main([str(tmp_path), "--json"]) == 0
        failures = json.loads(capsys.readouterr().out)["telemetry"]["failures"]
        assert failures["counters"] == {"faults.injected": 2, "tasks.retried": 3,
                                        "pool.rebuilds": 1, "backend.degraded": 1}
        [warning] = failures["warnings"]
        assert warning["command"] == "run_jobs"
        assert '"kill-worker"' in warning["warning"]

    def test_stats_requires_something_to_summarise(self, capsys):
        with pytest.raises(SystemExit):
            stats_main([])
