"""Random forests: one level-wise histogram learner for both tree models.

The paper predicts bit-level timing errors with Random Forest
Classification (RFC): bagged decision trees with per-split feature
subsampling, averaging the trees' probabilities — a balance between the
expressiveness of decision trees and their tendency to overfit (the
ablation benchmark compares forest sizes against a single tree).  The
adaptive explorer reuses the ensemble as a regression surrogate
(:mod:`repro.ml.regress`).  Both run on the one learner in this module
and differ only in the split criterion: Gini decrease on 0/1 labels,
summed-squared-error decrease on float targets.

* **Binning.** Each feature is binned once per fit, one bin per
  distinct value.  A split sends bins ``<= b`` left: the threshold
  midway between the two adjacent values present in the node, exactly
  the candidates of a per-node sorted scan.
* **Bootstrap.** A tree's bootstrap resample is a vector of per-row
  multiplicities; duplicated rows always route together, so a node is
  a weighted set of original rows.
* **Level-wise growth.** All trees grow together, one depth at a time.
  Per level, bincount passes over (node, feature, bin) keys build the
  open nodes' weighted histograms, a few features per pass so that
  temporaries stay O(live rows) within a fixed element budget; prefix
  sums over the bins score every boundary at once.  Stopping rules:
  ``max_depth``, ``min_samples_split``, pure nodes and a ``1e-12`` gain
  floor.  An exact tie goes to the lowest feature, then the lowest
  boundary.
* **Feature draws.** With ``max_features`` set, each tree draws the
  candidate features of a level's open nodes in one call, for those
  nodes in order — per tree per level, not per node depth-first.
* **Flat storage.** Trees are flat node arrays (feature, threshold,
  left, right, value); prediction walks all trees and rows together,
  one depth step at a time.

A master seed spawns two streams per tree (bootstrap, feature draws)
with :func:`repro.utils.rng.spawn_rngs`, so the same seed grows the
same ensemble bit for bit in any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.utils.rng import SeedLike, spawn_rngs

#: Element budget of one histogram pass: pairs x features gathered and
#: nodes x features x bins counted.
_PASS_BUDGET = 1 << 14

#: A split must decrease the impurity by more than this.
_MIN_GAIN = 1e-12


# --------------------------------------------------------------------- #
# Split criteria.  ``pair_stats`` names the per-pair statistics
# histogrammed per bin (weight first); ``summarize`` turns a level's
# node sums into (value, parent impurity, splittable); ``scores`` rates
# every boundary from the histograms and their prefix sums (maximised,
# -inf when invalid); ``gain`` is a node's impurity decrease at its best.
# --------------------------------------------------------------------- #
class Gini:
    """Gini decrease on 0/1 labels; node value = positive fraction."""

    @staticmethod
    def pair_stats(weight, target):
        return weight, weight * target

    @staticmethod
    def summarize(sums, slot, weight, target):
        count, positives = sums
        # Scalar float ``**`` (libm pow) rounds some squares differently
        # from NumPy's vectorised power; keep the per-node scalar form.
        parent = np.array([1.0 - (p / n) ** 2 - ((n - p) / n) ** 2
                           for p, n in zip(positives.tolist(), count.tolist())])
        return positives / count, parent, (positives > 0) & (positives < count)

    @staticmethod
    def scores(hist, cum, count, parent):
        total = count[:, None, None]
        count_left, pos_left = cum[0][..., :-1], cum[1][..., :-1]
        count_right, pos_right = total - count_left, cum[1][..., -1:] - pos_left

        def gini(count, positive):
            p = np.where(count > 0, positive / np.maximum(count, 1), 0.0)
            return 1.0 - p ** 2 - (1.0 - p) ** 2

        weighted = (count_left * gini(count_left, pos_left) +
                    count_right * gini(count_right, pos_right)) / total
        gain = parent[:, None, None] - weighted
        return np.where((hist[0][..., :-1] > 0) & (count_right > 0), gain, -np.inf)

    @staticmethod
    def gain(parent, best):
        return best


class SSE:
    """Summed-squared-error decrease on float targets; node value = mean."""

    @staticmethod
    def pair_stats(weight, target):
        return weight, weight * target, weight * (target * target)

    @staticmethod
    def summarize(sums, slot, weight, target):
        value = sums[1] / sums[0]
        sse = np.bincount(slot, weights=weight * (target - value[slot]) ** 2,
                          minlength=value.size)
        return value, sse, sse > _MIN_GAIN

    @staticmethod
    def scores(hist, cum, count, parent):
        left_count = cum[0][..., :-1]
        right_count = count[:, None, None] - left_count
        left_sum, left_sq = cum[1][..., :-1], cum[2][..., :-1]
        total_sum, total_sq = cum[1][..., -1:], cum[2][..., -1:]
        sse = ((left_sq - left_sum * left_sum / left_count)
               + ((total_sq - left_sq)
                  - (total_sum - left_sum) * (total_sum - left_sum) / right_count))
        return np.where((hist[0][..., :-1] > 0) & (right_count > 0), -sse, -np.inf)

    @staticmethod
    def gain(parent, best):
        return parent + best


# --------------------------------------------------------------------- #
# The learner
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FlatForest:
    """Fitted trees as flat node arrays; tree ``t``'s root is node ``t``.

    A leaf has ``feature == -1`` and ``left == right ==`` itself.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: np.ndarray
    tree: np.ndarray
    n_trees: int

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction for every row, shape ``(trees, rows)``.

        All (tree, row) pairs take one depth step at a time.  The walk
        carries doubled node ids, so ``2 * node + go_right`` indexes an
        interleaved (left, right) child table with one gather.
        """
        rows, columns = X.shape
        flat = np.ascontiguousarray(X).ravel()
        offset = np.tile(np.arange(rows) * columns, self.n_trees)
        feature = np.repeat(np.maximum(self.feature, 0), 2)
        threshold = np.repeat(self.threshold, 2)
        children = 2 * np.stack([self.left, self.right], axis=1).ravel()
        node = np.repeat(2 * np.arange(self.n_trees), rows)
        for _ in range(int(self.depth.max())):
            node = children[node + (flat[offset + feature[node]] > threshold[node])]
        return self.value[node // 2].reshape(self.n_trees, rows)

    def tree_depths(self) -> np.ndarray:
        """Depth of every tree (a lone root has depth 0)."""
        depths = np.zeros(self.n_trees, dtype=np.int64)
        np.maximum.at(depths, self.tree, self.depth)
        return depths

    def tree_sizes(self) -> np.ndarray:
        """Node count of every tree."""
        return np.bincount(self.tree, minlength=self.n_trees)


def _bin_features(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes ``(rows, features)``, bin values ``(features, widest)`` and bin counts.

    One bin per distinct value; a boolean matrix is its own code matrix.
    """
    if X.dtype == bool:
        return (X.view(np.uint8), np.tile([0.0, 1.0], (X.shape[1], 1)),
                np.full(X.shape[1], 2))
    values = [np.unique(column) for column in X.T]
    bins = np.array([column.size for column in values], dtype=np.intp)
    widest = int(bins.max(initial=1))
    codes = np.empty(X.shape, dtype=np.uint8 if widest <= 256 else np.int32)
    edges = np.zeros((X.shape[1], widest))
    for feature, column in enumerate(values):
        codes[:, feature] = np.searchsorted(column, X[:, feature])
        edges[feature, :column.size] = column
    return codes, edges, bins


def _best_splits(criterion, codes, bins, row, slot, stats, candidates, count, parent):
    """Best ``(score, feature, bin, next present bin)`` of every open node.

    ``slot`` maps each (tree, row) pair to its open node; ``candidates``
    is ``None`` (every feature) or a sorted ``(nodes, draws)`` matrix.
    A pass histograms up to :data:`_PASS_BUDGET` elements: a few
    candidate columns of one bin width (with every feature, runs of
    features of equal bin count, so nothing is padded) for a range of
    nodes.
    """
    nodes = count.size
    best = np.full(nodes, -np.inf)
    feature = np.full(nodes, np.iinfo(np.intp).max)
    split_bin, next_bin = np.zeros(nodes, np.intp), np.zeros(nodes, np.intp)
    if candidates is None:
        order = np.argsort(bins, kind="stable")
        sorted_bins, codes = bins[order], codes[:, order]
        starts = np.flatnonzero(np.diff(sorted_bins, prepend=-1))
        runs = zip(starts, np.append(starts[1:], order.size), sorted_bins[starts])
    else:
        runs = [(0, candidates.shape[1], int(bins.max()))]
        flat_codes, n_features = codes.ravel(), codes.shape[1]
    for first_column, last_column, width in runs:
        if width < 2:
            continue
        step = max(1, min(last_column - first_column,
                          _PASS_BUDGET // max(row.size, nodes * width)))
        group = max(1, _PASS_BUDGET // (step * width))
        for first in range(0, nodes, group):
            last = min(first + group, nodes)
            inside = slice(None) if group >= nodes else np.flatnonzero(
                (slot >= first) & (slot < last))
            local_row, local_slot = row[inside], slot[inside] - first
            local_stats = [stat[inside] for stat in stats]
            span = last - first
            for start in range(first_column, last_column, step):
                stop = min(start + step, last_column)
                columns = stop - start
                if candidates is None:
                    features = np.broadcast_to(order[start:stop], (span, columns))
                    pair_codes = codes[local_row, start:stop]
                else:
                    features = candidates[first:last, start:stop]
                    pair_codes = flat_codes[(local_row * n_features)[:, None]
                                            + features[local_slot]]
                key = ((local_slot * columns)[:, None] + np.arange(columns)) * width
                key = (key + pair_codes).ravel()
                hist = [np.bincount(key, weights=np.repeat(stat, columns),
                                    minlength=span * columns * width).reshape(span, columns, width)
                        for stat in local_stats]
                with np.errstate(divide="ignore", invalid="ignore"):
                    scores = criterion.scores(hist, [h.cumsum(axis=2) for h in hist],
                                              count[first:last], parent[first:last])
                scores = scores.reshape(span, -1)
                top = scores.argmax(axis=1)
                top_score = scores[np.arange(span), top]
                column, boundary = np.divmod(top, width - 1)
                top_feature = features[np.arange(span), column]
                # Columns are in feature order within a pass; across
                # passes an exact tie goes to the lower feature index.
                held = best[first:last]
                better = np.flatnonzero(
                    (top_score > held) | ((top_score == held) & (top_score > -np.inf)
                                          & (top_feature < feature[first:last])))
                present = ((hist[0][better, column[better]] > 0)
                           & (np.arange(width) > boundary[better, None]))
                target = better + first
                best[target] = top_score[better]
                feature[target] = top_feature[better]
                split_bin[target] = boundary[better]
                next_bin[target] = present.argmax(axis=1)
    return best, feature, split_bin, next_bin


def grow_forest(criterion, X: np.ndarray, y: np.ndarray, multiplicity: np.ndarray,
                max_depth: int, min_samples_split: int, max_features: object,
                rngs: Sequence[np.random.Generator]) -> FlatForest:
    """Grow ``len(multiplicity)`` trees level by level (see the module docstring).

    ``multiplicity[t, i]`` is how often row ``i`` is in tree ``t``'s
    bootstrap resample; ``rngs[t]`` draws tree ``t``'s candidate features.
    """
    codes, edges, bins = _bin_features(X)
    n_trees, n_features = multiplicity.shape[0], codes.shape[1]
    if max_features is None:
        draws = None
    elif max_features == "sqrt":
        draws = max(1, int(np.sqrt(n_features)))
    else:
        draws = min(int(max_features), n_features)
    # One entry per (tree, row) pair in a live node; stats[0] is the weight.
    slot, row = np.nonzero(multiplicity)
    target = y[row]
    stats = criterion.pair_stats(multiplicity[slot, row].astype(np.float64), target)
    level_tree, next_id = np.arange(n_trees), 0
    levels: List[tuple] = []
    while True:
        nodes = level_tree.size
        sums = [np.bincount(slot, weights=stat, minlength=nodes) for stat in stats]
        value, parent, impure = criterion.summarize(sums, slot, stats[0], target)
        count = sums[0]
        feature, threshold = np.full(nodes, -1), np.zeros(nodes)
        left = np.arange(next_id, next_id + nodes)
        right = left.copy()
        next_id += nodes
        levels.append((feature, threshold, left, right, value,
                       np.full(nodes, len(levels)), level_tree))
        if len(levels) > max_depth:
            break
        open_nodes = np.flatnonzero(impure & (count >= min_samples_split))
        if open_nodes.size == 0:
            break
        position = np.full(nodes, -1)
        position[open_nodes] = np.arange(open_nodes.size)
        keep = np.flatnonzero(position[slot] >= 0)
        row, target, slot, *stats = [pair[keep] for pair in (row, target, slot, *stats)]
        slot = position[slot]
        candidates = None
        if draws is not None:
            per_tree = np.bincount(level_tree[open_nodes], minlength=n_trees)
            candidates = np.sort(np.concatenate([
                np.argsort(rngs[index].random((per_tree[index], n_features)),
                           axis=1)[:, :draws]
                for index in np.flatnonzero(per_tree)]), axis=1)
        best, best_feature, split_bin, next_bin = _best_splits(
            criterion, codes, bins, row, slot, stats, candidates,
            count[open_nodes], parent[open_nodes])
        splits = np.flatnonzero(criterion.gain(parent[open_nodes], best) > _MIN_GAIN)
        if splits.size == 0:
            break
        best_feature, split_bin = best_feature[splits], split_bin[splits]
        chosen = open_nodes[splits]
        feature[chosen] = best_feature
        threshold[chosen] = 0.5 * (edges[best_feature, split_bin]
                                   + edges[best_feature, next_bin[splits]])
        left[chosen] = next_id + 2 * np.arange(splits.size)
        right[chosen] = left[chosen] + 1
        # Route the pairs of split nodes to their children.
        rank = np.full(open_nodes.size, -1)
        rank[splits] = np.arange(splits.size)
        keep = np.flatnonzero(rank[slot] >= 0)
        row, target, slot, *stats = [pair[keep] for pair in (row, target, slot, *stats)]
        slot = rank[slot]
        slot = 2 * slot + (codes[row, best_feature[slot]] > split_bin[slot])
        level_tree = np.repeat(level_tree[chosen], 2)
    return FlatForest(*[np.concatenate(parts) for parts in zip(*levels)], n_trees=n_trees)


class BaggedForest:
    """Hyper-parameters, fitting and summaries shared by both forests.

    The public ``fit``/``predict*`` methods live on each subclass.
    """

    def __init__(self, n_estimators: int, max_depth: int, min_samples_split: int,
                 max_features: object, seed: SeedLike) -> None:
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be at least 1, got {n_estimators}")
        if max_depth < 1:
            raise ModelError(f"max_depth must be at least 1, got {max_depth}")
        if min_samples_split < 2:
            raise ModelError(f"min_samples_split must be at least 2, got {min_samples_split}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.forest_: Optional[FlatForest] = None
        self.n_features_: Optional[int] = None

    def _grow(self, criterion, X: np.ndarray, y: np.ndarray,
              bootstrap: Callable[[np.random.Generator], np.ndarray]) -> None:
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ModelError(f"inconsistent shapes X{X.shape} y{y.shape}")
        if X.shape[0] == 0:
            raise ModelError("cannot fit a forest on an empty dataset")
        self.n_features_ = X.shape[1]
        streams = spawn_rngs(self.seed, self.n_estimators * 2)
        multiplicity = np.stack([np.bincount(bootstrap(streams[2 * index]),
                                             minlength=X.shape[0])
                                 for index in range(self.n_estimators)])
        self.forest_ = grow_forest(criterion, X, y, multiplicity, self.max_depth,
                                   self.min_samples_split, self.max_features,
                                   streams[1::2])

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        if self.forest_ is None:
            raise ModelError("this forest has not been fitted")
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ModelError(
                f"expected feature matrix with {self.n_features_} columns, got shape {X.shape}")
        return self.forest_.predict_values(X)

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self.forest_ is not None

    def describe(self) -> str:
        """Short human-readable summary of the fitted ensemble."""
        name = type(self).__name__
        if self.forest_ is None:
            return f"{name} (not fitted)"
        depths = self.forest_.tree_depths()
        return (f"{name}: {self.forest_.n_trees} trees, "
                f"depth {depths.min()}-{depths.max()}, "
                f"{int(np.mean(self.forest_.tree_sizes()))} nodes on average")


class RandomForestClassifier(BaggedForest):
    """Bagged CART classification trees on 0/1 features.

    ``max_features`` (candidate features per split: ``None`` for all, an
    int, or ``"sqrt"``, the classification default) decorrelates the
    trees; ``class_weight="balanced"`` resamples the minority class so
    rare timing errors are not drowned out.  Each tree receives
    independent streams derived from ``seed``.
    """

    def __init__(self, n_estimators: int = 10, max_depth: int = 8,
                 min_samples_split: int = 8, max_features: object = "sqrt",
                 class_weight: Optional[str] = None, seed: SeedLike = None) -> None:
        super().__init__(n_estimators, max_depth, min_samples_split, max_features, seed)
        if class_weight not in (None, "balanced"):
            raise ModelError(f"class_weight must be None or 'balanced', got {class_weight!r}")
        self.class_weight = class_weight

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on a 0/1 feature matrix and 0/1 labels."""
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        # Any nonzero feature value is a 1; a 0/1 matrix is viewed, not copied.
        binary = X.view(bool) if X.size == 0 or X.max() <= 1 else X != 0
        self._grow(Gini, binary, y, lambda rng: self._bootstrap_indices(y, rng))
        return self

    def _bootstrap_indices(self, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        samples = y.shape[0]
        positives = np.flatnonzero(y == 1)
        negatives = np.flatnonzero(y == 0)
        if self.class_weight != "balanced" or positives.size == 0 or negatives.size == 0:
            return rng.integers(0, samples, size=samples)
        half = samples // 2
        return np.concatenate([rng.choice(positives, size=half, replace=True),
                               rng.choice(negatives, size=samples - half, replace=True)])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean positive-class probability over the ensemble."""
        per_tree = self._tree_values(np.asarray(X, dtype=np.uint8))
        accumulator = np.zeros(per_tree.shape[1], dtype=np.float64)
        for values in per_tree:
            accumulator += values
        return accumulator / per_tree.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class (0/1) for every row of ``X``."""
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)
