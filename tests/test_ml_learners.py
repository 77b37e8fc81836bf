"""Tests for the from-scratch random forests (one level-wise learner).

Tree-level properties are checked on the fitted flat node arrays; the
recursive per-node forests in ``oracles.py`` pin the learner's output
bit for bit wherever split sums are exact.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import RecursiveForestClassifier, RecursiveForestRegressor, tree_structure
from repro.exceptions import ModelError
from repro.ml.forest import RandomForestClassifier
from repro.ml.regress import RandomForestRegressor


def make_dataset(rule, samples=400, features=12, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(samples, features)).astype(np.uint8)
    y = rule(X).astype(np.uint8)
    return X, y


def single_tree(max_depth, **kwargs):
    """A one-tree forest seeing every feature: a plain CART tree on a bootstrap."""
    return RandomForestClassifier(n_estimators=1, max_depth=max_depth,
                                  max_features=None, seed=0, **kwargs)


class TestClassifierTrees:
    def test_learns_single_feature_rule(self):
        X, y = make_dataset(lambda X: X[:, 3])
        assert np.array_equal(single_tree(3).fit(X, y).predict(X), y)

    def test_learns_conjunction(self):
        X, y = make_dataset(lambda X: X[:, 0] & X[:, 5])
        assert (single_tree(4).fit(X, y).predict(X) == y).mean() > 0.98

    def test_learns_xor_with_enough_depth(self):
        """XOR has no single-feature gain, but sampling noise lets greedy CART split it."""
        X, y = make_dataset(lambda X: X[:, 0] ^ X[:, 1], samples=800, features=6)
        forest = single_tree(8, min_samples_split=4).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.9

    def test_pure_labels_give_single_leaf_trees(self):
        X = np.zeros((10, 4), dtype=np.uint8)
        forest = RandomForestClassifier(n_estimators=3, seed=0).fit(X, np.ones(10, np.uint8))
        assert forest.forest_.tree_depths().tolist() == [0, 0, 0]
        assert forest.forest_.tree_sizes().tolist() == [1, 1, 1]
        assert forest.predict(X).tolist() == [1] * 10

    def test_leaves_are_pure_when_a_feature_explains_the_labels(self):
        X, y = make_dataset(lambda X: X[:, 2] & X[:, 7])
        flat = RandomForestClassifier(n_estimators=4, max_depth=6, max_features=None,
                                      seed=1).fit(X, y).forest_
        leaves = flat.feature < 0
        assert set(flat.value[leaves].tolist()) <= {0.0, 1.0}
        # Internal nodes point at two distinct children; leaves at themselves.
        internal = np.flatnonzero(~leaves)
        assert np.all(flat.left[internal] != flat.right[internal])
        assert np.all(flat.left[leaves] == np.flatnonzero(leaves))

    def test_probability_output_range(self):
        X, y = make_dataset(lambda X: X[:, 0] | X[:, 1])
        probabilities = single_tree(2).fit(X, y).predict_proba(X)
        assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    def test_max_depth_respected(self, max_features):
        X, y = make_dataset(lambda X: X[:, 0] ^ X[:, 1] ^ X[:, 2], samples=800)
        forest = RandomForestClassifier(n_estimators=5, max_depth=2, min_samples_split=2,
                                        max_features=max_features, seed=0).fit(X, y)
        assert forest.forest_.tree_depths().max() <= 2

    def test_node_count_positive(self):
        X, y = make_dataset(lambda X: X[:, 2])
        assert single_tree(8).fit(X, y).forest_.tree_sizes()[0] >= 3

    def test_shape_errors(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().fit(np.zeros((3, 2), dtype=np.uint8),
                                         np.zeros(4, dtype=np.uint8))
        forest = RandomForestClassifier().fit(np.zeros((4, 2), dtype=np.uint8),
                                              np.array([0, 1, 0, 1], dtype=np.uint8))
        with pytest.raises(ModelError):
            forest.predict(np.zeros((2, 5), dtype=np.uint8))

    def test_bad_hyperparameters(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(max_depth=0)
        with pytest.raises(ModelError):
            RandomForestClassifier(min_samples_split=1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().fit(np.zeros((0, 3), dtype=np.uint8),
                                         np.zeros(0, dtype=np.uint8))


class TestRandomForest:
    def test_learns_majority_function(self):
        X, y = make_dataset(lambda X: ((X[:, 0] + X[:, 1] + X[:, 2]) >= 2), samples=600)
        forest = RandomForestClassifier(n_estimators=7, max_depth=5, seed=0).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95

    def test_deterministic_with_seed(self):
        X, y = make_dataset(lambda X: X[:, 0] & X[:, 4])
        first = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        second = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        assert np.allclose(first, second)

    def test_balanced_class_weight_improves_recall_on_rare_class(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(1500, 10)).astype(np.uint8)
        # rare positive class: only when three specific bits are set (12.5% of samples)
        y = (X[:, 0] & X[:, 1] & X[:, 2]).astype(np.uint8)
        plain = RandomForestClassifier(n_estimators=5, max_depth=3, seed=0).fit(X, y)
        balanced = RandomForestClassifier(n_estimators=5, max_depth=3, seed=0,
                                          class_weight="balanced").fit(X, y)
        positives = y == 1

        def recall(model):
            return float(np.mean(model.predict(X)[positives] == 1))

        assert recall(balanced) >= recall(plain) - 1e-9

    def test_describe_and_is_fitted(self):
        forest = RandomForestClassifier(n_estimators=2)
        assert not forest.is_fitted
        assert "not fitted" in forest.describe()
        X, y = make_dataset(lambda X: X[:, 1])
        forest.fit(X, y)
        assert forest.is_fitted
        assert "2 trees" in forest.describe()

    def test_unfitted_prediction_rejected(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().predict(np.zeros((1, 2), dtype=np.uint8))

    def test_bad_parameters(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(ModelError):
            RandomForestClassifier(class_weight="bogus")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=11))
    def test_single_feature_rules_always_learnable(self, feature):
        X, y = make_dataset(lambda X: X[:, feature], samples=300, seed=feature)
        forest = RandomForestClassifier(n_estimators=5, max_depth=4, seed=1).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.9


def _regress_dataset(func, samples=400, features=6, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(samples, features))
    y = func(X)
    if noise:
        y = y + rng.normal(0.0, noise, size=samples)
    return X, y


def _fit_and_predict_regressor(seed):
    """Module-level so ProcessPoolExecutor can pickle it (spawn-safe)."""
    X, y = _regress_dataset(lambda X: 3.0 * X[:, 0] - X[:, 2], seed=5)
    forest = RandomForestRegressor(n_estimators=6, max_depth=8, seed=seed).fit(X, y)
    return forest.predict(X[:50])


def _single_regression_tree(max_depth, **kwargs):
    return RandomForestRegressor(n_estimators=1, max_depth=max_depth, seed=0, **kwargs)


def _fit_and_predict_classifier(seed):
    """Module-level so ProcessPoolExecutor can pickle it (spawn-safe)."""
    X, y = make_dataset(lambda X: X[:, 1] & X[:, 4], seed=3)
    forest = RandomForestClassifier(n_estimators=6, seed=seed).fit(X, y)
    return forest.predict_proba(X[:50])


class TestRegressorTrees:
    def test_learns_step_function(self):
        X, y = _regress_dataset(lambda X: np.where(X[:, 1] > 0.5, 4.0, -1.0))
        forest = _single_regression_tree(2).fit(X, y)
        assert np.abs(forest.predict(X) - y).max() < 1e-9

    def test_learns_piecewise_surface(self):
        X, y = _regress_dataset(lambda X: np.sign(X[:, 0]) + 2.0 * np.sign(X[:, 3]))
        forest = _single_regression_tree(4).fit(X, y)
        assert np.abs(forest.predict(X) - y).mean() < 0.05

    def test_constant_target_is_single_leaf(self):
        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        forest = RandomForestRegressor(n_estimators=2, seed=0).fit(X, np.full(10, 2.5))
        assert forest.forest_.tree_depths().tolist() == [0, 0]
        assert forest.forest_.tree_sizes().tolist() == [1, 1]
        assert forest.predict(X).tolist() == [2.5] * 10

    @pytest.mark.parametrize("max_features", [None, "sqrt"])
    def test_max_depth_respected(self, max_features):
        X, y = _regress_dataset(lambda X: X[:, 0] * X[:, 1], samples=600)
        forest = RandomForestRegressor(n_estimators=3, max_depth=3, min_samples_split=2,
                                       max_features=max_features, seed=0).fit(X, y)
        assert forest.forest_.tree_depths().max() <= 3

    def test_threshold_is_the_midpoint_of_adjacent_present_values(self):
        X = np.repeat([0.0, 1.0, 4.0, 10.0], 25)[:, None]
        y = np.where(X[:, 0] >= 4.0, 5.0, 0.0)
        flat = RandomForestRegressor(n_estimators=3, max_depth=1, seed=0).fit(X, y).forest_
        assert flat.feature[:3].tolist() == [0, 0, 0]
        assert flat.threshold[:3].tolist() == [2.5, 2.5, 2.5]

    def test_unfitted_and_bad_shapes_rejected(self):
        with pytest.raises(ModelError):
            RandomForestRegressor().predict(np.zeros((1, 2)))
        with pytest.raises(ModelError):
            RandomForestRegressor(max_depth=0)
        with pytest.raises(ModelError):
            RandomForestRegressor().fit(np.zeros((3, 2)), np.zeros(4))
        forest = RandomForestRegressor().fit(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ModelError):
            forest.predict(np.zeros((2, 3)))


class TestOracleIdentity:
    """Bit-identity with the recursive per-node forests where sums are exact."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_classifier_matches_recursive_forest(self, seed):
        rng = np.random.default_rng(seed)
        samples, features = int(rng.integers(2, 300)), int(rng.integers(1, 16))
        X = rng.integers(0, 2, size=(samples, features)).astype(np.uint8)
        rule = rng.integers(0, features, size=2)
        y = ((X[:, rule[0]] & X[:, rule[1]]) | (rng.random(samples) < 0.1)).astype(np.uint8)
        params = dict(n_estimators=int(rng.integers(1, 6)),
                      max_depth=int(rng.integers(1, 9)),
                      min_samples_split=int(rng.integers(2, 10)), max_features=None,
                      class_weight=(None, "balanced")[seed % 2], seed=seed)
        expected = RecursiveForestClassifier(**params).fit(X, y).predict_proba(X)
        actual = RandomForestClassifier(**params).fit(X, y).predict_proba(X)
        assert np.array_equal(actual, expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_regressor_matches_recursive_forest_on_integer_targets(self, seed, continuous):
        rng = np.random.default_rng(seed)
        samples, features = int(rng.integers(2, 250)), int(rng.integers(1, 8))
        if continuous:      # many distinct values per column
            X = rng.uniform(-2.0, 2.0, size=(samples, features))
        else:               # the surrogate's few distinct values per column
            X = rng.integers(0, 9, size=(samples, features)) * 0.5
        y = rng.integers(-40, 400, size=samples).astype(np.float64)
        params = dict(n_estimators=int(rng.integers(1, 6)),
                      max_depth=int(rng.integers(1, 13)),
                      min_samples_split=int(rng.integers(2, 6)), seed=seed)
        probe = np.vstack([X, rng.uniform(-3.0, 5.0, size=(20, features))])
        expected = RecursiveForestRegressor(**params).fit(X, y).predict_all(probe)
        actual = RandomForestRegressor(**params).fit(X, y).predict_all(probe)
        assert np.array_equal(actual, expected)

    def test_classifier_deterministic_across_processes(self):
        from concurrent.futures import ProcessPoolExecutor

        local = _fit_and_predict_classifier(4)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_fit_and_predict_classifier, 4).result()
        assert np.array_equal(local, remote)


def forest_digest(flat):
    digest = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "value", "depth", "tree"):
        digest.update(np.ascontiguousarray(getattr(flat, name)).astype(np.float64).tobytes())
    return digest.hexdigest()[:16]


class TestMultiOutputFit:
    """A stacked fit grows each output's trees exactly as a one-output fit would."""

    def _data(self, seed=0, samples=300, features=14, outputs=4):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(samples, features)).astype(np.uint8)
        y = np.stack([(X[:, index] & X[:, index + 5]) | (rng.random(samples) < 0.05)
                      for index in range(outputs)], axis=1).astype(np.uint8)
        # Output o reads the 10 shared columns plus its own two.
        columns = np.stack([np.append(np.arange(10), [10 + index % 2, 12 + index % 2])
                            for index in range(outputs)])
        return X, y, columns

    @pytest.mark.parametrize("params", [
        dict(),
        dict(max_features=None),
        dict(max_features=5, class_weight="balanced"),
        dict(n_estimators=1, max_depth=2),
    ])
    def test_each_output_equals_its_one_output_forest(self, params):
        X, y, columns = self._data()
        params = dict(dict(n_estimators=4, max_depth=6), **params)
        seeds = [7, 8, 9, 10]
        stacked = RandomForestClassifier(seed=seeds, **params).fit(X, y, columns=columns)
        proba = stacked.predict_proba(X)
        assert proba.shape == (X.shape[0], 4)
        for output, seed in enumerate(seeds):
            single = RandomForestClassifier(seed=seed, **params).fit(
                X[:, columns[output]], y[:, output])
            for index in range(stacked.n_estimators):
                assert (tree_structure(stacked.forest_, output * stacked.n_estimators + index,
                                       columns[output])
                        == tree_structure(single.forest_, index))
            assert np.array_equal(proba[:, output],
                                  single.predict_proba(X[:, columns[output]]))
        assert np.array_equal(stacked.predict(X), (proba >= 0.5).astype(np.uint8))

    def test_one_column_label_matrix_keeps_its_axis(self):
        X, y, _ = self._data(outputs=1)
        forest = RandomForestClassifier(n_estimators=3, seed=[2]).fit(X, y)
        flat = RandomForestClassifier(n_estimators=3, seed=2).fit(X, y[:, 0])
        assert forest.predict_proba(X).shape == (X.shape[0], 1)
        assert np.array_equal(forest.predict_proba(X)[:, 0], flat.predict_proba(X))

    def test_bad_columns_and_seeds_rejected(self):
        X, y, columns = self._data()
        forest = RandomForestClassifier(n_estimators=2, seed=[1, 2, 3, 4])
        for bad in (columns[:3], columns[:, ::-1], columns + X.shape[1],
                    np.zeros((4, 0), dtype=int)):
            with pytest.raises(ModelError):
                forest.fit(X, y, columns=bad)
        with pytest.raises(ModelError):
            RandomForestClassifier(n_estimators=2, seed=[1, 2]).fit(X, y, columns=columns)
        with pytest.raises(ModelError):
            forest.fit(X, y[:, :0])


class TestPinnedForests:
    """The one-output learner's fitted arrays, pinned from before the stacked fit."""

    def _classifier_data(self):
        rng = np.random.default_rng(2017)
        X = rng.integers(0, 2, size=(600, 40)).astype(np.uint8)
        y = ((X[:, 3] & X[:, 17]) | (rng.random(600) < 0.05)).astype(np.uint8)
        return X, y, rng

    @pytest.mark.parametrize("params, expected", [
        (dict(), "ea6ad865ee0a2dec"),
        (dict(class_weight="balanced"), "0cc6fd97b45c0f1e"),
        (dict(max_features=None), "9c4a7ea76dee0584"),
    ])
    def test_classifier(self, params, expected):
        X, y, _ = self._classifier_data()
        forest = RandomForestClassifier(n_estimators=6, max_depth=8, seed=11, **params)
        assert forest_digest(forest.fit(X, y).forest_) == expected

    def test_regressor(self):
        _, _, rng = self._classifier_data()
        X = rng.integers(0, 9, size=(300, 5)).astype(np.float64)
        y = X[:, 0] * 0.37 + np.sin(X[:, 1]) + rng.normal(0, 0.1, 300)
        forest = RandomForestRegressor(n_estimators=8, seed=5).fit(X, y)
        assert forest_digest(forest.forest_) == "6597d6c9258af840"


class TestRandomForestRegressor:
    def test_monotone_round_trip(self):
        """Surrogate sanity: a smooth monotone target is recovered well
        enough that predicted ordering matches the true ordering."""
        X, y = _regress_dataset(lambda X: X[:, 0] + 0.5 * X[:, 1], samples=600,
                                noise=0.01, seed=2)
        forest = RandomForestRegressor(n_estimators=12, max_depth=10, seed=0).fit(X, y)
        grid = np.zeros((9, X.shape[1]))
        grid[:, 0] = np.linspace(-1.5, 1.5, 9)
        predicted = forest.predict(grid)
        assert np.all(np.diff(predicted) > -0.05)
        assert np.corrcoef(forest.predict(X), y)[0, 1] > 0.98

    def test_predict_std_higher_off_support(self):
        X, y = _regress_dataset(lambda X: np.where(X[:, 0] > 0, 5.0, -5.0),
                                samples=300, seed=3)
        forest = RandomForestRegressor(n_estimators=16, seed=1).fit(X, y)
        deep = np.zeros((1, X.shape[1])); deep[0, 0] = 1.5
        boundary = np.zeros((1, X.shape[1])); boundary[0, 0] = 0.0
        assert forest.predict_std(boundary)[0] >= forest.predict_std(deep)[0]

    def test_deterministic_with_seed(self):
        X, y = _regress_dataset(lambda X: X[:, 0] ** 2, seed=4)
        first = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X)
        second = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X)
        assert np.array_equal(first, second)
        different = RandomForestRegressor(n_estimators=5, seed=10).fit(X, y).predict(X)
        assert not np.array_equal(first, different)

    def test_deterministic_across_processes(self):
        """The adaptive explorer's warm-cache identity rests on this: the
        same seed must grow the same ensemble in any process."""
        from concurrent.futures import ProcessPoolExecutor

        local = _fit_and_predict_regressor(21)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_fit_and_predict_regressor, 21).result()
        assert np.array_equal(local, remote)

    def test_predict_all_shape_and_mean(self):
        X, y = _regress_dataset(lambda X: X[:, 1], samples=100)
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        stacked = forest.predict_all(X[:10])
        assert stacked.shape == (4, 10)
        assert np.allclose(stacked.mean(axis=0), forest.predict(X[:10]))

    def test_describe_and_is_fitted(self):
        forest = RandomForestRegressor(n_estimators=2)
        assert not forest.is_fitted
        assert "not fitted" in forest.describe()
        X, y = _regress_dataset(lambda X: X[:, 0], samples=50)
        forest.fit(X, y)
        assert forest.is_fitted
        assert "2 trees" in forest.describe()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ModelError):
            RandomForestRegressor(n_estimators=0)
        with pytest.raises(ModelError):
            RandomForestRegressor().fit(np.zeros((0, 2)), np.zeros(0))
