"""Tests of the execution runtime: jobs, backends, chunking, determinism.

The backbone guarantee of the runtime is that the multiprocess backend
is *bit-identical* to the serial one at any worker count, for every
simulator tier and engine, including ragged traces whose transition
count does not divide the chunk size.  These tests pin that down on
small 16-bit designs so the suite stays fast.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.compiled import WORD_BITS, transition_chunks
from repro.exceptions import ConfigurationError, SimulationError, WorkloadError
from repro.experiments.common import StudyConfig, characterize_design, characterize_designs
from repro.experiments.designs import exact_entry, isa_entry
from repro.ml.dataset import collect_bit_datasets
from repro.runtime import (
    BACKENDS,
    CachingBackend,
    CharacterizationJob,
    MultiprocessBackend,
    SerialBackend,
    SynthesisCache,
    active_synth_cache,
    execute_job,
    get_backend,
    run_jobs,
)
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", engine="auto",
              seed=11, **kwargs):
    """A quick 16-bit characterization job for backend tests."""
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, engine=engine, width=16, **kwargs)


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
        assert timing.output_width == other.output_width


class TestTransitionChunks:
    def test_word_aligned_cover(self):
        spans = transition_chunks(200, 64)
        assert spans == [(0, 64), (64, 128), (128, 192), (192, 200)]

    def test_chunk_size_rounds_up_to_word(self):
        spans = transition_chunks(200, 65)
        assert spans[0] == (0, 128)
        assert spans[-1][1] == 200
        assert all(start % WORD_BITS == 0 for start, _ in spans)

    def test_single_chunk(self):
        assert transition_chunks(63, 1000) == [(0, 63)]

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            transition_chunks(0, 64)
        with pytest.raises(SimulationError):
            transition_chunks(10, 0)


class TestJobValidation:
    def test_bad_simulator(self):
        with pytest.raises(ConfigurationError):
            small_job(simulator="spice")

    def test_bad_engine(self):
        with pytest.raises(ConfigurationError):
            small_job(engine="verilog")

    def test_needs_clock_periods(self):
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = uniform_workload(32, width=16, seed=0)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=(), width=16)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=(-1.0,), width=16)

    def test_needs_two_vectors(self):
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = uniform_workload(16, width=16, seed=0).slice(0, 1)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS, width=16)

    def test_unseeded_variation_rejected(self):
        from repro.synth.flow import SynthesisOptions
        with pytest.raises(ConfigurationError):
            small_job(synthesis=SynthesisOptions(variation_sigma=0.1))
        # a seeded draw synthesizes identically in every worker: accepted
        small_job(synthesis=SynthesisOptions(variation_sigma=0.1, variation_seed=3))

    def test_cache_key_ignores_trace(self):
        job = small_job(seed=1)
        assert job.cache_key() == job.with_trace(uniform_workload(64, width=16,
                                                                  seed=2)).cache_key()


class TestTraceSlicing:
    def test_slice_values(self):
        trace = uniform_workload(100, width=16, seed=3)
        chunk = trace.slice(10, 20)
        assert chunk.length == 10
        assert np.array_equal(chunk.a, trace.a[10:20])

    def test_slice_bounds_checked(self):
        trace = uniform_workload(16, width=16, seed=3)
        with pytest.raises(WorkloadError):
            trace.slice(4, 4)
        with pytest.raises(WorkloadError):
            trace.slice(0, 17)


class TestBackendDeterminism:
    """Serial and multiprocess results must match bit for bit."""

    @pytest.fixture(scope="class")
    def fast_job(self):
        # 200 vectors -> 199 transitions: ragged tail for any 64-aligned chunk.
        return small_job(length=200, collect_structural_stats=True)

    @pytest.fixture(scope="class")
    def serial_result(self, fast_job):
        return SerialBackend().run([fast_job])[0]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_sweep_bit_identical(self, fast_job, serial_result, workers):
        [result] = MultiprocessBackend(workers=workers,
                                       chunk_transitions=64).run([fast_job])
        assert_bit_identical(serial_result, result)
        assert result.structural_stats is not None
        assert np.array_equal(result.structural_stats.position_counts,
                              serial_result.structural_stats.position_counts)

    @pytest.mark.parametrize("length", [65, 130, 200])
    def test_ragged_trace_lengths(self, length):
        job = small_job(length=length, seed=length)
        serial = SerialBackend().run([job])[0]
        [parallel] = MultiprocessBackend(workers=2, chunk_transitions=64).run([job])
        assert_bit_identical(serial, parallel)

    def test_event_simulator_jobs(self):
        job = small_job(length=40, simulator="event")
        serial = SerialBackend().run([job])[0]
        [parallel] = MultiprocessBackend(workers=2, chunk_transitions=64).run([job])
        assert_bit_identical(serial, parallel)

    def test_reference_engine_jobs(self):
        job = small_job(length=96, engine="reference")
        serial = SerialBackend().run([job])[0]
        [parallel] = MultiprocessBackend(workers=2, chunk_transitions=64).run([job])
        assert_bit_identical(serial, parallel)

    def test_auto_engine_fallback_path(self, monkeypatch):
        # With the threshold-row budget forced to zero the packed timing
        # compiler always aborts, so engine="auto" falls back to the
        # dense reference path; backends must still agree bit for bit.
        # (Workers inherit the patch through fork; on platforms where
        # they do not, bit-exactness across engines keeps this valid.)
        from repro.circuit.compiled import PackedTimingProgram
        from repro.runtime.jobs import build_simulator, synthesize_job

        monkeypatch.setattr(PackedTimingProgram, "DEFAULT_ROWS_PER_GATE", 0)
        job = small_job(length=96, engine="auto")
        assert build_simulator("fast", synthesize_job(job),
                               engine="auto").engine == "reference"
        serial = SerialBackend().run([job])[0]
        [parallel] = MultiprocessBackend(workers=2, chunk_transitions=64).run([job])
        assert_bit_identical(serial, parallel)

    def test_batch_order_preserved(self):
        jobs = [small_job(length=80, quadruple=(4, 0, 0, 2)),
                small_job(length=80, quadruple=None),
                small_job(length=80, quadruple=(8, 2, 1, 2))]
        serial = SerialBackend().run(jobs)
        parallel = MultiprocessBackend(workers=2).run(jobs)
        assert [r.name for r in parallel] == [r.name for r in serial]
        for reference, candidate in zip(serial, parallel):
            assert_bit_identical(reference, candidate)


class TestBackendApi:
    def test_get_backend_names(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            backend = get_backend("multiprocess", workers=3)
        expected = min(3, os.cpu_count() or 1)
        assert isinstance(backend, MultiprocessBackend)
        assert backend.workers == expected
        assert backend.describe() == f"multiprocess[{expected}]"
        assert get_backend(backend) is backend

    def test_worker_clamp_warns(self):
        cpus = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="clamping"):
            backend = MultiprocessBackend(workers=cpus + 1)
        assert backend.workers == cpus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MultiprocessBackend(workers=cpus).workers == cpus
            assert MultiprocessBackend().workers == cpus

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            get_backend("gpu")
        assert set(BACKENDS) == {"serial", "multiprocess"}

    def test_invalid_worker_counts(self):
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(chunk_transitions=0)

    def test_empty_batch(self):
        assert MultiprocessBackend(workers=2).run([]) == []
        assert SerialBackend().run([]) == []

    def test_pool_persists_across_runs_and_closes(self):
        job = small_job(length=70)
        with MultiprocessBackend(workers=2) as backend:
            [first] = backend.run([job])
            pool = backend._pool
            assert pool is not None
            [second] = backend.run([job])
            assert backend._pool is pool  # warm pool reused between batches
            assert_bit_identical(first, second)
        assert backend._pool is None  # context exit shuts the pool down

    def test_run_jobs_convenience(self):
        job = small_job(length=70)
        [serial] = run_jobs([job])
        [parallel] = run_jobs([job], backend="multiprocess", workers=2)
        assert_bit_identical(serial, parallel)

    def test_run_jobs_backend_lifecycle(self):
        # A name-built backend is one-shot: its pool is closed on return.
        # A caller-supplied instance is left open for reuse.
        job = small_job(length=70)
        with MultiprocessBackend(workers=2) as backend:
            [first] = run_jobs([job], backend=backend)
            assert backend._pool is not None
            [second] = run_jobs([job], backend=backend)
            assert_bit_identical(first, second)

    def test_benchmark_hooks_resolve_on_their_owners(self):
        # The benchmark's traced run wraps every hook through
        # ``owner.__dict__``: a hook renamed away or only inherited would
        # break the traced run, so each must be defined on its own owner.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"
        spec = importlib.util.spec_from_file_location("perfbench_ledger", path)
        ledger = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ledger)
        for owner, name, _, _ in ledger._targets():
            assert name in vars(owner), \
                f"{owner.__name__}.{name} is not defined on {owner.__name__}"

    def test_execute_job_matches_characterize_design(self):
        config = StudyConfig(characterization_length=120, training_length=120,
                             evaluation_length=100, seed=9, simulator="fast",
                             width=16, backend="serial")
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = config.characterization_trace()
        direct = execute_job(config.job(entry, trace))
        wrapped = characterize_design(entry, trace, config)
        assert_bit_identical(direct, wrapped)


class TestStudyConfigRuntimeKnobs:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_TRACE_SCALE"):
            monkeypatch.delenv(name, raising=False)
        config = StudyConfig()
        assert config.engine == "auto"
        assert config.backend == "serial"
        assert config.workers is None
        assert config.trace_scale == 1.0

    def test_env_read_once_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BACKEND", "multiprocess")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        config = StudyConfig(characterization_length=200)
        assert config.trace_scale == 0.5
        assert config.backend == "multiprocess"
        assert config.workers == 2
        assert config.characterization_trace().length == 100
        # mutating the environment after construction changes nothing
        monkeypatch.setenv("REPRO_TRACE_SCALE", "2.0")
        assert config.trace_scale == 0.5
        assert config.characterization_trace().length == 100

    def test_explicit_trace_scale_field(self):
        config = StudyConfig(characterization_length=400, trace_scale=0.25)
        assert config.characterization_trace().length == 100
        assert config.scaled_length(64) == 16

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(engine="fpga")
        with pytest.raises(ConfigurationError):
            StudyConfig(backend="cluster")
        with pytest.raises(ConfigurationError):
            StudyConfig(trace_scale=0.0)
        with pytest.raises(ConfigurationError):
            StudyConfig(workers=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_rejected(self, value):
        with pytest.raises(ConfigurationError, match="trace_scale"):
            StudyConfig(trace_scale=value)
        with pytest.raises(ConfigurationError, match="cache_limit_mb"):
            StudyConfig(cache_limit_mb=value)
        with pytest.raises(ConfigurationError, match="trace_scale|factor"):
            StudyConfig().scaled_down(value)

    @pytest.mark.parametrize("name, field, build", [
        ("REPRO_TRACE_SCALE", "trace_scale", lambda root, value: StudyConfig()),
        ("REPRO_CACHE_LIMIT_MB", "cache_limit_mb", lambda root, value: StudyConfig()),
        ("REPRO_SYNTH_CACHE_LIMIT_MB", "REPRO_SYNTH_CACHE_LIMIT_MB",
         lambda root, value: active_synth_cache()),
        (None, "synthesis cache limit_mb",
         lambda root, value: SynthesisCache(root, limit_mb=float(value))),
        (None, "cache limit_mb",
         lambda root, value: CachingBackend(SerialBackend(), root, limit_mb=float(value))),
    ], ids=["REPRO_TRACE_SCALE-trace_scale", "REPRO_CACHE_LIMIT_MB-cache_limit_mb",
            "REPRO_SYNTH_CACHE_LIMIT_MB", "SynthesisCache", "CachingBackend"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_env_settings_rejected(self, monkeypatch, tmp_path, name, field,
                                              build, value):
        monkeypatch.setenv("REPRO_SYNTH_CACHE", str(tmp_path))
        if name is not None:
            monkeypatch.setenv(name, value)
        with pytest.raises(ConfigurationError, match=field):
            build(tmp_path, value)

    def test_runner_rejects_non_finite_scale(self):
        from repro.experiments.runner import main
        with pytest.raises(ConfigurationError, match="trace_scale"):
            main(["--scale", "nan", "--simulator", "fast", "--backend", "serial",
                  "--figures", "fig9", "--no-cache"])

    def test_config_backend_drives_characterization(self):
        config = StudyConfig(characterization_length=130, training_length=120,
                             evaluation_length=100, seed=4, simulator="fast", width=16,
                             backend="multiprocess", workers=2)
        entries = [isa_entry((4, 0, 0, 2), width=16), exact_entry(16)]
        trace = config.characterization_trace()
        parallel = characterize_designs(entries, trace, config)
        serial = characterize_designs(entries, trace,
                                      StudyConfig(characterization_length=130,
                                                  training_length=120,
                                                  evaluation_length=100, seed=4,
                                                  simulator="fast", width=16,
                                                  backend="serial"))
        for reference, candidate in zip(serial, parallel):
            assert_bit_identical(reference, candidate)


class TestDatasetCollection:
    def test_collect_bit_datasets_over_backends(self):
        job = small_job(length=100)
        [serial] = collect_bit_datasets([job])
        [parallel] = collect_bit_datasets([job], backend="multiprocess", workers=2)
        assert set(serial) == set(PERIODS)
        for clk in PERIODS:
            assert len(serial[clk]) == 17  # 16-bit adder -> 17 output bits
            for reference, candidate in zip(serial[clk], parallel[clk]):
                assert reference.bit == candidate.bit
                assert np.array_equal(reference.features, candidate.features)
                assert np.array_equal(reference.labels, candidate.labels)


class TestNetlistPickling:
    def test_round_trip_drops_caches_keeps_behaviour(self, synthesized_small_isa):
        netlist = synthesized_small_isa.netlist
        assert netlist.compiled() is not None  # warm the cache
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone._compiled_cache is None
        trace = uniform_workload(70, width=16, seed=21)
        operands = trace.as_operands()
        assert np.array_equal(netlist.compute_words(operands),
                              clone.compute_words(operands))
