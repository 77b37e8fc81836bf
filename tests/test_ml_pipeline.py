"""Tests for feature extraction, datasets, metrics and the bit-level timing model."""

import numpy as np
import pytest

from oracles import (
    PerBitTimingModel,
    per_bit_features,
    silver_from_errors_loop,
    tree_structure,
)
from repro.core.config import ISAConfig
from repro.core.isa import InexactSpeculativeAdder
from repro.exceptions import AnalysisError, ModelError
from repro.experiments.common import StudyConfig
from repro.experiments.designs import isa_entry
from repro.ml.dataset import build_bit_datasets, dataset_summary
from repro.ml.features import (
    build_feature_block,
    build_feature_matrix,
    feature_columns,
    feature_count,
    feature_names,
)
from repro.ml.metrics import LOG_FLOOR, abper, avpe, classification_summary, floored
from repro.ml.model import BitLevelTimingModel, TimingModelOptions, silver_from_errors
from repro.timing.errors import TimingErrorTrace
from repro.timing.fast_sim import FastTimingSimulator
from repro.workloads.generators import uniform_workload
from repro.workloads.traces import OperandTrace


class TestFeatures:
    def test_shapes_and_names(self):
        trace = uniform_workload(50, width=16, seed=0)
        gold = trace.a + trace.b
        features = build_feature_matrix(trace, gold, bit=3)
        assert features.shape == (49, feature_count(16))
        assert len(feature_names(16)) == feature_count(16)

    def test_output_bit_features_are_last_two_columns(self):
        trace = OperandTrace(np.array([1, 2, 3], dtype=np.uint64),
                             np.array([0, 0, 0], dtype=np.uint64), width=4)
        gold = trace.a + trace.b  # 1, 2, 3
        features = build_feature_matrix(trace, gold, bit=0)
        # bit 0 of gold: 1, 0, 1 -> previous = [1, 0], current = [0, 1]
        assert features[:, -2].tolist() == [1, 0]
        assert features[:, -1].tolist() == [0, 1]

    def test_length_mismatch_rejected(self):
        trace = uniform_workload(10, width=8, seed=0)
        with pytest.raises(ModelError):
            build_feature_matrix(trace, np.zeros(5, dtype=np.uint64), bit=0)

    def test_single_vector_trace_rejected(self):
        trace = OperandTrace(np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64),
                             width=8)
        with pytest.raises(ModelError):
            build_feature_matrix(trace, np.array([3], dtype=np.uint64), bit=0)

    def test_block_holds_every_bits_features(self):
        trace = uniform_workload(70, width=12, seed=3)
        gold = trace.a + trace.b
        block = build_feature_block(trace, gold, 13)
        assert block.shape == (69, 4 * 12 + 2 * 13)
        for bit in range(13):
            expected = per_bit_features(trace, gold, bit)
            assert np.array_equal(block[:, feature_columns(12, bit)], expected)
            assert np.array_equal(build_feature_matrix(trace, gold, bit), expected)

    def test_block_length_mismatch_rejected(self):
        trace = uniform_workload(10, width=8, seed=0)
        with pytest.raises(ModelError):
            build_feature_block(trace, np.zeros(9, dtype=np.uint64), 9)


class TestDatasets:
    def _setup(self):
        trace = uniform_workload(60, width=8, seed=1)
        gold = trace.a + trace.b
        # synthetic timing trace: bit 2 flips whenever operand bit 0 of A is set
        settled = gold[1:]
        flips = ((trace.a[1:] & np.uint64(1)) << np.uint64(2))
        sampled = settled ^ flips
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=sampled,
                                  settled_words=settled, output_width=9)
        return trace, gold, timing

    def test_one_dataset_per_bit(self):
        trace, gold, timing = self._setup()
        datasets = build_bit_datasets(trace, gold, timing)
        assert len(datasets) == 9
        assert all(dataset.samples == trace.transitions for dataset in datasets)

    def test_error_rates_match_injection(self):
        trace, gold, timing = self._setup()
        datasets = build_bit_datasets(trace, gold, timing)
        summary = dataset_summary(datasets)
        assert summary[2] > 0
        assert summary[5] == 0.0

    def test_datasets_are_slices_of_the_shared_block(self):
        trace, gold, timing = self._setup()
        errors = timing.error_bits()
        for dataset in build_bit_datasets(trace, gold, timing):
            assert np.array_equal(dataset.features, per_bit_features(trace, gold, dataset.bit))
            assert np.array_equal(dataset.labels, errors[:, dataset.bit])

    def test_transition_count_mismatch_rejected(self):
        trace, gold, timing = self._setup()
        short = uniform_workload(30, width=8, seed=2)
        with pytest.raises(ModelError):
            build_bit_datasets(short, short.a + short.b, timing)


class TestMetrics:
    def test_abper_counts_disagreements(self):
        predicted = np.array([[1, 1], [0, 1]])
        real = np.array([[1, 0], [0, 1]])
        assert abper(predicted, real) == pytest.approx(0.25)

    def test_abper_shape_mismatch(self):
        with pytest.raises(AnalysisError):
            abper(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_avpe_definition(self):
        predicted = np.array([10, 20, 30])
        real = np.array([10, 25, 30])
        assert avpe(predicted, real) == pytest.approx((0 + 5 / 25 + 0) / 3)

    def test_avpe_ignores_zero_real_values(self):
        assert avpe(np.array([1, 5]), np.array([0, 5])) == pytest.approx(0.0)

    def test_avpe_all_zero_rejected(self):
        with pytest.raises(AnalysisError):
            avpe(np.array([1]), np.array([0]))

    def test_floored(self):
        assert floored(0.0) == LOG_FLOOR
        assert floored(0.5) == 0.5

    def test_classification_summary(self):
        predicted = np.array([1, 1, 0, 0])
        real = np.array([1, 0, 1, 0])
        summary = classification_summary(predicted, real)
        assert summary["accuracy"] == pytest.approx(0.5)
        assert summary["precision"] == pytest.approx(0.5)
        assert summary["recall"] == pytest.approx(0.5)
        assert summary["error_rate"] == pytest.approx(0.5)


class TestSilverFromErrors:
    @pytest.mark.parametrize("bits", [1, 9, 17, 33, 63, 64])
    def test_word_mask_matches_the_per_bit_loop(self, bits):
        rng = np.random.default_rng(bits)
        top = np.uint64((1 << bits) - 1) if bits < 64 else np.uint64(2**64 - 1)
        gold = rng.integers(0, 2**63, size=300, dtype=np.uint64) * np.uint64(2)
        gold = (gold ^ rng.integers(0, 2, size=300, dtype=np.uint64)) & top
        for density in (0.0, 0.1, 0.5, 1.0):
            errors = (rng.random((299, bits)) < density).astype(np.uint8)
            assert np.array_equal(silver_from_errors(gold, errors),
                                  silver_from_errors_loop(gold, errors))

    def test_bit_62_of_a_63_bit_output(self):
        gold = np.array([0, 1 << 62, 0, (1 << 62) | 5], dtype=np.uint64)
        errors = np.zeros((3, 63), dtype=np.uint8)
        errors[:, 62] = 1
        errors[2, 0] = 1
        silver = silver_from_errors(gold, errors)
        assert silver.tolist() == [0, 1 << 62, 4]
        assert np.array_equal(silver, silver_from_errors_loop(gold, errors))

    def test_no_output_bits(self):
        gold = np.array([3, 5, 6], dtype=np.uint64)
        assert silver_from_errors(gold, np.zeros((2, 0), np.uint8)).tolist() == [5, 6]


def synthetic_timing(trace, gold, flips, output_width):
    """Timing trace whose latched words differ from the settled ones by ``flips``."""
    settled = gold[1:]
    return TimingErrorTrace(clock_period=1e-10, sampled_words=settled ^ flips,
                            settled_words=settled, output_width=output_width)


def assert_matches_per_bit_oracle(model, oracle, trace, gold):
    """Stacked trees, probabilities and error matrix equal the per-bit oracle's."""
    assert model.trained_bits == sorted(oracle.classifiers)
    classifier = model._classifier
    if classifier is None:
        assert not oracle.classifiers
    else:
        width = trace.width
        proba = classifier.predict_proba(build_feature_block(trace, gold, model.output_width))
        trees = classifier.n_estimators
        for index, bit in enumerate(model.trained_bits):
            single = oracle.classifiers[bit]
            columns = feature_columns(width, bit)
            for tree in range(trees):
                assert (tree_structure(classifier.forest_, index * trees + tree, columns)
                        == tree_structure(single.forest_, tree))
            assert np.array_equal(proba[:, index], oracle.predict_proba(trace, gold, bit))
    assert np.array_equal(model.predict_error_matrix(trace, gold),
                          oracle.predict_error_matrix(trace, gold))


class TestStackedModelMatchesPerBitOracle:
    """One stacked grow equals one forest per bit, bit for bit."""

    @pytest.fixture(scope="class")
    def characterized(self):
        config = StudyConfig(characterization_length=200, training_length=700,
                             evaluation_length=400, seed=7, simulator="fast",
                             backend="serial", cache_dir=None)
        entry = isa_entry((16, 2, 1, 6))
        training, evaluation = config.runtime_backend().run([
            config.job(entry, config.training_trace()),
            config.job(entry, config.evaluation_trace())])
        return config, training, evaluation

    def test_every_bit_of_a_figures_design_at_every_cpr(self, characterized):
        config, training, evaluation = characterized
        stacked_bits = []
        for period in config.clock_plan.periods:
            model = BitLevelTimingModel(design="d", clock_period=period,
                                        output_width=config.width + 1,
                                        options=config.model)
            model.fit(training.trace, training.gold_words, training.timing_trace(period))
            oracle = PerBitTimingModel(config.width + 1, config.model).fit(
                training.trace, training.gold_words, training.timing_trace(period))
            assert_matches_per_bit_oracle(model, oracle, evaluation.trace,
                                          evaluation.gold_words)
            stacked_bits.append(len(model.trained_bits))
        assert max(stacked_bits) >= 2

    def _trace(self):
        trace = uniform_workload(120, width=8, seed=9)
        return trace, trace.a + trace.b

    @pytest.mark.parametrize("options", [
        TimingModelOptions(n_estimators=3),
        TimingModelOptions(n_estimators=3, max_features=None),
        TimingModelOptions(n_estimators=3, class_weight="balanced"),
    ], ids=["sqrt", "all-features", "balanced"])
    @pytest.mark.parametrize("case", ["no-bits", "one-bit", "constant-one-bit", "many-bits"])
    def test_edge_cases(self, options, case):
        trace, gold = self._trace()
        zero = np.zeros(trace.transitions, dtype=np.uint64)
        a_bit0 = trace.a[1:] & np.uint64(1)
        b_bit1 = (trace.b[1:] >> np.uint64(1)) & np.uint64(1)
        flips = {
            "no-bits": zero,
            "one-bit": a_bit0 << np.uint64(2),
            "constant-one-bit": zero | np.uint64(1 << 3),
            "many-bits": (a_bit0 << np.uint64(2)) | (b_bit1 << np.uint64(5))
                         | ((a_bit0 & b_bit1) << np.uint64(8)) | np.uint64(1 << 3),
        }[case]
        timing = synthetic_timing(trace, gold, flips, 9)
        model = BitLevelTimingModel(design="d", clock_period=1e-10, output_width=9,
                                    options=options).fit(trace, gold, timing)
        oracle = PerBitTimingModel(9, options).fit(trace, gold, timing)
        probe = uniform_workload(60, width=8, seed=10)
        probe_gold = probe.a + probe.b
        assert_matches_per_bit_oracle(model, oracle, probe, probe_gold)
        assert_matches_per_bit_oracle(model, oracle, trace, gold)
        expected = {"no-bits": [], "one-bit": [2], "constant-one-bit": [],
                    "many-bits": [2, 5, 8]}[case]
        assert model.trained_bits == expected
        if case == "constant-one-bit":
            assert model.predict_error_matrix(probe, probe_gold)[:, 3].tolist() == [1] * 59


class TestBitLevelTimingModel:
    @pytest.fixture(scope="class")
    def trained_setup(self, request):
        """Train a model on a 16-bit ISA overclocked with the fast simulator."""
        from repro.synth.flow import synthesize
        config = ISAConfig(width=16, block_size=4, spec_size=0, correction=0, reduction=2)
        design = synthesize(config)
        adder = InexactSpeculativeAdder(config)
        train = uniform_workload(500, width=16, seed=11)
        test = uniform_workload(300, width=16, seed=12)
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        clock = design.critical_path_delay * 0.85
        train_timing = simulator.run_trace(train.as_operands(), clock)
        test_timing = simulator.run_trace(test.as_operands(), clock)
        model = BitLevelTimingModel(design=config.name, clock_period=clock, output_width=17,
                                    options=TimingModelOptions(n_estimators=4, max_depth=6))
        model.fit(train, adder.add_many(train.a, train.b), train_timing)
        return model, adder, test, test_timing

    def test_model_reports_fitted_state(self, trained_setup):
        model, _, _, _ = trained_setup
        assert model.is_fitted
        assert "BitLevelTimingModel" in model.describe()

    def test_prediction_shapes(self, trained_setup):
        model, adder, test, _ = trained_setup
        gold = adder.add_many(test.a, test.b)
        errors = model.predict_error_matrix(test, gold)
        assert errors.shape == (test.transitions, 17)
        classes = model.predict_timing_classes(test, gold)
        assert np.array_equal(classes, 1 - errors)
        silver = model.predict_silver(test, gold)
        assert silver.shape == (test.transitions,)

    def test_model_beats_or_matches_trivial_predictor(self, trained_setup):
        """The trained model's ABPER must not exceed the all-correct baseline's."""
        model, adder, test, test_timing = trained_setup
        gold = adder.add_many(test.a, test.b)
        metrics = model.evaluate(test, gold, test_timing)
        baseline = float(test_timing.error_bits().mean())
        assert metrics["abper"] <= baseline + 0.02
        assert metrics["avpe"] >= 0.0

    def test_unfitted_model_rejected(self):
        model = BitLevelTimingModel(design="x", clock_period=1e-10, output_width=5)
        trace = uniform_workload(10, width=4, seed=0)
        with pytest.raises(ModelError):
            model.predict_error_matrix(trace, trace.a + trace.b)

    def test_output_width_mismatch_rejected(self):
        model = BitLevelTimingModel(design="x", clock_period=1e-10, output_width=5)
        trace = uniform_workload(20, width=4, seed=0)
        gold = trace.a + trace.b
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=gold[1:],
                                  settled_words=gold[1:], output_width=6)
        with pytest.raises(ModelError):
            model.fit(trace, gold, timing)

    def test_error_free_training_gives_constant_model(self):
        trace = uniform_workload(40, width=8, seed=5)
        gold = trace.a + trace.b
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=gold[1:],
                                  settled_words=gold[1:], output_width=9)
        model = BitLevelTimingModel(design="clean", clock_period=1e-10, output_width=9)
        model.fit(trace, gold, timing)
        assert model.trained_bits == []
        predictions = model.predict_error_matrix(trace, gold)
        assert predictions.sum() == 0
        assert np.array_equal(model.predict_silver(trace, gold), gold[1:])

    def test_mismatched_inputs_rejected_by_a_constant_model(self):
        trace = uniform_workload(40, width=8, seed=5)
        gold = trace.a + trace.b
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=gold[1:],
                                  settled_words=gold[1:], output_width=9)
        model = BitLevelTimingModel(design="clean", clock_period=1e-10, output_width=9)
        model.fit(trace, gold, timing)
        shorter = uniform_workload(30, width=8, seed=6)
        wider = uniform_workload(40, width=12, seed=6)
        for other, other_gold in ((shorter, gold), (wider, gold)):
            with pytest.raises(ModelError):
                model.predict_error_matrix(other, other_gold)
            with pytest.raises(ModelError):
                model.predict_silver(other, other_gold)

    def test_mismatched_inputs_rejected_by_a_trained_model(self, trained_setup):
        model, adder, test, _ = trained_setup
        gold = adder.add_many(test.a, test.b)
        with pytest.raises(ModelError):
            model.predict_error_matrix(test, gold[:-1])
        narrow = uniform_workload(300, width=8, seed=12)
        with pytest.raises(ModelError):
            model.predict_error_matrix(narrow, gold)
