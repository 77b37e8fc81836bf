"""Reference implementations kept as test oracles.

* :class:`RecursiveForestClassifier` / :class:`RecursiveForestRegressor`
  are the per-node recursive CART forests the level-wise learner of
  :mod:`repro.ml.forest` replaced: one Python call per node, the
  candidate features evaluated with vectorised counts (Gini) or with a
  sorted-column prefix-sum scan (SSE).  They bag trees with exactly the
  library's seeding discipline, so wherever split sums are exact
  (0/1 labels, integer targets) and no feature subsampling is drawn
  (``max_features=None``) the library must reproduce their predictions
  bit for bit.
* :func:`all_pairs_nondominated_mask` is the blocked all-pairs dominance
  filter :func:`repro.explore.pareto.nondominated_mask` replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs


# --------------------------------------------------------------------- #
# Recursive trees
# --------------------------------------------------------------------- #
@dataclass
class _Node:
    prediction: float
    feature: int = -1
    threshold: float = 0.5
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None


def _predict(root: _Node, X: np.ndarray, right_of) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if indices.size == 0:
            continue
        if node.feature < 0:
            out[indices] = node.prediction
            continue
        right_mask = right_of(X[indices, node.feature], node)
        stack.append((node.left, indices[~right_mask]))
        stack.append((node.right, indices[right_mask]))
    return out


def _candidates(rng, max_features, n_features) -> np.ndarray:
    if max_features is None:
        return np.arange(n_features)
    if max_features == "sqrt":
        count = max(1, int(np.sqrt(n_features)))
    else:
        count = min(int(max_features), n_features)
    return rng.choice(n_features, size=count, replace=False)


def _gini_gain(X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray) -> np.ndarray:
    total = y.shape[0]
    positives = float(y.sum())
    parent_gini = 1.0 - (positives / total) ** 2 - ((total - positives) / total) ** 2

    ones_mask = X[:, feature_indices].astype(bool)
    count_right = ones_mask.sum(axis=0).astype(np.float64)
    count_left = total - count_right
    pos_right = (ones_mask & y[:, None].astype(bool)).sum(axis=0).astype(np.float64)
    pos_left = positives - pos_right

    def gini(count, positive):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(count > 0, positive / np.maximum(count, 1), 0.0)
            return 1.0 - p ** 2 - (1.0 - p) ** 2

    weighted = (count_left * gini(count_left, pos_left) +
                count_right * gini(count_right, pos_right)) / total
    gain = parent_gini - weighted
    gain[(count_left == 0) | (count_right == 0)] = -np.inf
    return gain


class DecisionTreeClassifier:
    """Binary CART classifier over 0/1 features, grown depth-first."""

    def __init__(self, max_depth=8, min_samples_split=8, max_features=None,
                 seed: SeedLike = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = ensure_rng(seed)

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        self.n_features_ = X.shape[1]
        self._root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth) -> _Node:
        prediction = float(y.mean())
        if (depth >= self.max_depth or y.shape[0] < self.min_samples_split
                or prediction in (0.0, 1.0)):
            return _Node(prediction=prediction)
        candidates = _candidates(self._rng, self.max_features, self.n_features_)
        gains = _gini_gain(X, y, candidates)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
            return _Node(prediction=prediction)
        feature = int(candidates[best])
        right_mask = X[:, feature].astype(bool)
        return _Node(prediction=prediction, feature=feature,
                     left=self._build(X[~right_mask], y[~right_mask], depth + 1),
                     right=self._build(X[right_mask], y[right_mask], depth + 1))

    def predict_proba(self, X) -> np.ndarray:
        return _predict(self._root, np.asarray(X, dtype=np.uint8),
                        lambda column, node: column.astype(bool))


def _best_threshold(column: np.ndarray, y: np.ndarray) -> tuple:
    order = np.argsort(column, kind="stable")
    sorted_x = column[order]
    sorted_y = y[order]
    boundaries = np.flatnonzero(sorted_x[1:] != sorted_x[:-1])
    if boundaries.size == 0:
        return np.inf, 0.0
    prefix_sum = np.cumsum(sorted_y)
    prefix_sq = np.cumsum(sorted_y * sorted_y)
    total_sum = prefix_sum[-1]
    total_sq = prefix_sq[-1]
    count = y.shape[0]
    left_count = (boundaries + 1).astype(np.float64)
    right_count = count - left_count
    left_sum = prefix_sum[boundaries]
    left_sq = prefix_sq[boundaries]
    sse = ((left_sq - left_sum * left_sum / left_count)
           + ((total_sq - left_sq)
              - (total_sum - left_sum) * (total_sum - left_sum) / right_count))
    best = int(np.argmin(sse))
    split = boundaries[best]
    return float(sse[best]), float(0.5 * (sorted_x[split] + sorted_x[split + 1]))


class DecisionTreeRegressor:
    """CART regression tree (variance reduction), grown depth-first."""

    def __init__(self, max_depth=12, min_samples_split=4, max_features=None,
                 seed: SeedLike = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = ensure_rng(seed)

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.n_features_ = X.shape[1]
        self._root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth) -> _Node:
        prediction = float(y.mean())
        if depth >= self.max_depth or y.shape[0] < self.min_samples_split:
            return _Node(prediction=prediction)
        parent_sse = float(np.sum((y - prediction) ** 2))
        if parent_sse <= 1e-12:
            return _Node(prediction=prediction)
        best_feature, best_sse, best_threshold = -1, np.inf, 0.0
        for feature in _candidates(self._rng, self.max_features, self.n_features_):
            sse, threshold = _best_threshold(X[:, feature], y)
            if sse < best_sse:
                best_feature, best_sse, best_threshold = int(feature), sse, threshold
        if best_feature < 0 or parent_sse - best_sse <= 1e-12:
            return _Node(prediction=prediction)
        right_mask = X[:, best_feature] > best_threshold
        return _Node(prediction=prediction, feature=best_feature, threshold=best_threshold,
                     left=self._build(X[~right_mask], y[~right_mask], depth + 1),
                     right=self._build(X[right_mask], y[right_mask], depth + 1))

    def predict(self, X) -> np.ndarray:
        return _predict(self._root, np.asarray(X, dtype=np.float64),
                        lambda column, node: column > node.threshold)


# --------------------------------------------------------------------- #
# Bagged forests (the library's seeding discipline)
# --------------------------------------------------------------------- #
class RecursiveForestClassifier:
    def __init__(self, n_estimators=10, max_depth=8, min_samples_split=8,
                 max_features="sqrt", class_weight=None, seed: SeedLike = None) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.class_weight = class_weight
        self.seed = seed

    def fit(self, X, y) -> "RecursiveForestClassifier":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        streams = spawn_rngs(self.seed, self.n_estimators * 2)
        self.trees_: List[DecisionTreeClassifier] = []
        for index in range(self.n_estimators):
            chosen = self._bootstrap(y, streams[2 * index])
            tree = DecisionTreeClassifier(self.max_depth, self.min_samples_split,
                                          self.max_features, seed=streams[2 * index + 1])
            self.trees_.append(tree.fit(X[chosen], y[chosen]))
        return self

    def _bootstrap(self, y, rng) -> np.ndarray:
        samples = y.shape[0]
        positives = np.flatnonzero(y == 1)
        negatives = np.flatnonzero(y == 0)
        if self.class_weight != "balanced" or positives.size == 0 or negatives.size == 0:
            return rng.integers(0, samples, size=samples)
        half = samples // 2
        return np.concatenate([rng.choice(positives, size=half, replace=True),
                               rng.choice(negatives, size=samples - half, replace=True)])

    def predict_proba(self, X) -> np.ndarray:
        accumulator = np.zeros(np.asarray(X).shape[0], dtype=np.float64)
        for tree in self.trees_:
            accumulator += tree.predict_proba(X)
        return accumulator / len(self.trees_)


class RecursiveForestRegressor:
    def __init__(self, n_estimators=24, max_depth=12, min_samples_split=4,
                 max_features=None, seed: SeedLike = None) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y) -> "RecursiveForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        streams = spawn_rngs(self.seed, self.n_estimators * 2)
        samples = X.shape[0]
        self.trees_: List[DecisionTreeRegressor] = []
        for index in range(self.n_estimators):
            chosen = streams[2 * index].integers(0, samples, size=samples)
            tree = DecisionTreeRegressor(self.max_depth, self.min_samples_split,
                                         self.max_features, seed=streams[2 * index + 1])
            self.trees_.append(tree.fit(X[chosen], y[chosen]))
        return self

    def predict_all(self, X) -> np.ndarray:
        return np.stack([tree.predict(X) for tree in self.trees_])


# --------------------------------------------------------------------- #
# All-pairs dominance filter
# --------------------------------------------------------------------- #
def all_pairs_nondominated_mask(values: np.ndarray) -> np.ndarray:
    """Weakly non-dominated rows, every row compared with every row."""
    values = np.asarray(values, dtype=np.float64)
    count = values.shape[0]
    mask = np.ones(count, dtype=bool)
    if count == 0:
        return mask
    block_rows = max(1, (4 << 20) // max(1, count * values.shape[1]))
    for start in range(0, count, block_rows):
        block = values[start:start + block_rows]
        no_worse = (values[None, :, :] <= block[:, None, :]).all(axis=2)
        strictly_better = (values[None, :, :] < block[:, None, :]).any(axis=2)
        mask[start:start + block_rows] = ~(no_worse & strictly_better).any(axis=1)
    return mask
