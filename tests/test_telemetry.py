"""Integration tests of runtime telemetry across the job pipeline.

The contract: worker-side phases recorded under the multiprocess
backend are merged back into the driver's ``--timings`` breakdown (with
the driver's blocked time reported as ``schedule.wait``); run manifests
are written by ``run_jobs``/``run_sweep``/the CLIs with nested sessions
suppressed to one record per run; and — the regression that matters —
enabling telemetry changes **zero result bytes**: characterizations,
sweep points and cache-entry payloads are bit-identical with tracing on
or off.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.explore.cli import main as explore_main
from repro.explore.space import DesignSpace
from repro.explore.sweep import SweepSpec, run_sweep, sweep_clock_plan
from repro.obs import load_manifests, telemetry_run, trace_run
from repro.obs.stats_cli import main as stats_main
from repro.runtime import (
    CharacterizationJob,
    MultiprocessBackend,
    SerialBackend,
    job_digest,
    run_jobs,
)
from repro.experiments.designs import exact_entry, isa_entry
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)


@pytest.fixture(autouse=True)
def _isolated_telemetry_env(monkeypatch):
    """Shield these tests from a suite-wide $REPRO_TELEMETRY_DIR (CI leg)."""
    from repro.obs.manifest import TELEMETRY_ENV
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)


def assert_bit_identical(reference, candidate):
    assert reference.name == candidate.name
    assert np.array_equal(reference.diamond_words, candidate.diamond_words)
    assert np.array_equal(reference.gold_words, candidate.gold_words)
    assert np.array_equal(reference.netlist_words, candidate.netlist_words)
    assert set(reference.timing_traces) == set(candidate.timing_traces)
    for clk, timing in reference.timing_traces.items():
        other = candidate.timing_traces[clk]
        assert np.array_equal(timing.sampled_words, other.sampled_words)
        assert np.array_equal(timing.settled_words, other.settled_words)


def make_job(quadruple=(4, 0, 0, 2), length=96, seed=11, **kwargs):
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator="fast", width=16, **kwargs)


def small_jobs():
    return [make_job((4, 0, 0, 2), seed=11), make_job((8, 0, 0, 4), seed=12)]


def small_spec(max_designs=3, length=64) -> SweepSpec:
    entries = DesignSpace(width=16).entries(max_designs=max_designs)
    return SweepSpec(entries=tuple(entries),
                     clock_plan=sweep_clock_plan((0.0, 0.10)),
                     workloads=(WorkloadSpec("uniform", length, width=16, seed=11),),
                     width=16)


def multiprocess_pool(workers=2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return MultiprocessBackend(workers=workers)


class TestTimingsMerge:
    def test_worker_phases_merged_into_timings(self):
        jobs = small_jobs()
        with trace_run() as serial_tracer:
            serial = SerialBackend().run(jobs)
        pool = multiprocess_pool()
        try:
            with trace_run() as mp_tracer:
                multiprocess = pool.run(jobs)
        finally:
            pool.close()
        for reference, candidate in zip(serial, multiprocess):
            assert_bit_identical(reference, candidate)
        serial_phases = serial_tracer.phase_totals()
        mp_phases = mp_tracer.phase_totals()
        # The worker's simulate phases (golden + timing per job) travelled
        # back through the spill files: same call counts as serial.
        assert mp_phases["simulate"]["calls"] == serial_phases["simulate"]["calls"]
        assert serial_phases["simulate"]["calls"] == 2 * len(jobs)
        # The driver's blocked-on-workers time is reported separately and
        # only under the multiprocess backend.
        assert "schedule.wait" in mp_phases
        assert "schedule.wait" not in serial_phases
        # Per-worker records were folded into the tracer.
        assert mp_tracer.workers
        worker = next(iter(mp_tracer.workers.values()))
        assert worker["tasks"] >= 1
        assert worker["busy_s"] > 0.0

    def test_planned_multiprocess_merges_worker_phases(self):
        spec = small_spec()
        with trace_run() as tracer:
            pool = multiprocess_pool()
            try:
                result = run_sweep(spec, backend=pool)
            finally:
                pool.close()
        assert result.points
        phases = tracer.phase_totals()
        assert phases["simulate"]["calls"] > 0
        assert "schedule.wait" in phases
        assert tracer.workers


class TestBitIdentity:
    def test_results_identical_with_telemetry_on(self, tmp_path):
        jobs = small_jobs()
        baseline = run_jobs(jobs, backend="serial")
        with telemetry_run(tmp_path / "telemetry", command="test"):
            observed = run_jobs(jobs, backend="serial")
        for reference, candidate in zip(baseline, observed):
            assert_bit_identical(reference, candidate)
        assert [job_digest(job) for job in jobs] == \
            [job_digest(job) for job in jobs]

    def test_sweep_points_identical_with_telemetry_on(self, tmp_path):
        spec = small_spec(max_designs=2)
        baseline = run_sweep(spec)
        observed = run_sweep(spec, telemetry_dir=str(tmp_path / "telemetry"))
        assert baseline.points == observed.points

    def test_cache_entry_bytes_identical_with_telemetry_on(self, tmp_path):
        jobs = small_jobs()
        run_jobs(jobs, backend="serial", cache_dir=str(tmp_path / "plain"))
        run_jobs(jobs, backend="serial", cache_dir=str(tmp_path / "traced"),
                 telemetry_dir=str(tmp_path / "telemetry"))

        def payload_bytes(root: Path) -> dict:
            return {path.relative_to(root): path.read_bytes()
                    for path in sorted(root.rglob("*.pkl"))}

        plain = payload_bytes(tmp_path / "plain")
        traced = payload_bytes(tmp_path / "traced")
        assert plain.keys() == traced.keys()
        assert plain
        for key in plain:
            assert plain[key] == traced[key], key


class TestManifests:
    def test_run_jobs_writes_manifest(self, tmp_path, monkeypatch):
        # The synthesize phase only runs without a warm synthesis cache
        # ($REPRO_SYNTH_CACHE is set suite-wide in the CI cache leg).
        monkeypatch.delenv("REPRO_SYNTH_CACHE", raising=False)
        jobs = small_jobs()
        run_jobs(jobs, backend="serial", telemetry_dir=str(tmp_path))
        [manifest] = load_manifests(tmp_path)
        assert manifest["command"] == "run_jobs"
        assert manifest["config"]["jobs"] == len(jobs)
        for phase_name in ("synthesize", "lower", "simulate"):
            assert manifest["phases"][phase_name]["calls"] > 0
        assert manifest["metrics"]["counters"]["jobs.simulated"] == len(jobs)
        assert manifest["workers"] == {}

    def test_multiprocess_sweep_manifest_accounts_for_wall(self, tmp_path):
        spec = small_spec()
        pool = multiprocess_pool()
        try:
            run_sweep(spec, backend=pool, telemetry_dir=str(tmp_path))
        finally:
            pool.close()
        [manifest] = load_manifests(tmp_path)
        assert manifest["command"] == "run_sweep"
        assert manifest["workers"], "expected per-worker spill records"
        for worker in manifest["workers"].values():
            assert worker["tasks"] >= 1
            assert worker["busy_s"] > 0.0
        assert manifest["metrics"]["counters"]["jobs.simulated"] > 0
        # Driver phases + merged worker phases + scheduling wait should
        # account for (nearly) the whole elapsed wall.
        assert manifest["accounted_fraction"] > 0.9
        assert "simulate" in manifest["phases"]
        assert "schedule.wait" in manifest["phases"]

    def test_nested_sessions_write_one_manifest(self, tmp_path):
        spec = small_spec(max_designs=2)
        with telemetry_run(tmp_path, command="outer"):
            run_sweep(spec, telemetry_dir=str(tmp_path))
        manifests = load_manifests(tmp_path)
        assert [m["command"] for m in manifests] == ["outer"]
        assert manifests[0]["phases"]["simulate"]["calls"] > 0

    def test_cache_counters_land_in_manifests(self, tmp_path):
        jobs = small_jobs()
        cache = str(tmp_path / "cache")
        run_jobs(jobs, backend="serial", cache_dir=cache,
                 telemetry_dir=str(tmp_path / "cold"))
        run_jobs(jobs, backend="serial", cache_dir=cache,
                 telemetry_dir=str(tmp_path / "warm"))
        [cold] = load_manifests(tmp_path / "cold")
        [warm] = load_manifests(tmp_path / "warm")
        assert cold["metrics"]["counters"]["cache.misses"] == len(jobs)
        assert "cache.hits" not in cold["metrics"]["counters"]
        assert warm["metrics"]["counters"]["cache.hits"] == len(jobs)
        assert "cache.misses" not in warm["metrics"]["counters"]


class TestCliIntegration:
    EXPLORE_ARGS = ["--width", "8", "--max-designs", "2", "--length", "48",
                    "--seed", "7"]

    def test_explore_json_embeds_manifest(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        assert explore_main(self.EXPLORE_ARGS +
                            ["--json", "--telemetry-dir", str(telemetry)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] == 8
        assert payload["frontier"]
        for row in payload["frontier"]:
            assert {"rank", "design", "cpr", "rms_re"} <= row.keys()
        assert payload["manifest"]["command"] == "repro-explore"
        # The same manifest also landed in the telemetry directory.
        [on_disk] = load_manifests(telemetry)
        assert on_disk == payload["manifest"]

    def test_explore_json_without_telemetry_dir(self, capsys):
        assert explore_main(self.EXPLORE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frontier"]
        assert payload["manifest"]["command"] == "repro-explore"

    def test_explore_text_output_unchanged_by_telemetry(self, tmp_path, capsys):
        assert explore_main(self.EXPLORE_ARGS) == 0
        plain = capsys.readouterr().out
        assert explore_main(self.EXPLORE_ARGS +
                            ["--telemetry-dir", str(tmp_path)]) == 0
        traced = capsys.readouterr().out
        assert plain == traced

    def test_stats_cli_renders_real_runs(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        cache = tmp_path / "cache"
        jobs = small_jobs()
        for _ in range(2):  # cold (all misses) then warm (all hits)
            run_jobs(jobs, backend="serial", cache_dir=str(cache),
                     telemetry_dir=str(telemetry))
        pool = multiprocess_pool()
        try:  # uncached, so the jobs actually reach the workers
            run_jobs(jobs, backend=pool, telemetry_dir=str(telemetry))
        finally:
            pool.close()
        assert stats_main([str(telemetry), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "3 run(s)" in out
        assert "Slowest phases" in out
        assert "hit-rate trend" in out
        assert "Worker utilisation" in out
        assert "entries" in out
