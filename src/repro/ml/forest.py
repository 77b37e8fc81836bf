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

* **Outputs.** A classifier fit may stack several outputs (label
  columns): each output grows its own trees from its own seed, over its
  own columns of one shared feature matrix.  The bit-level timing model
  fits every output bit this way in one grow; a one-output fit is the
  case of a single output that sees every column.
* **Binning.** Each feature is binned once per fit, one bin per
  distinct value.  A split sends bins ``<= b`` left: the threshold
  midway between the two adjacent values present in the node, exactly
  the candidates of a per-node sorted scan.
* **Bootstrap.** A tree's bootstrap resample is a vector of per-row
  multiplicities; duplicated rows always route together, so a node is
  a weighted set of original rows.
* **Level-wise growth.** All trees of all outputs grow together, one
  depth at a time.  Per level, one weighted bincount of the (tree, row)
  pairs per candidate column builds the open nodes' (node, bin)
  histograms, so temporaries stay O(live pairs); prefix sums over the
  bins score every boundary at once.  Stopping rules: ``max_depth``,
  ``min_samples_split``, pure nodes and a ``1e-12`` gain floor.  An
  exact tie goes to the lowest feature, then the lowest boundary.
* **Feature draws.** With ``max_features`` set, each tree draws the
  candidate features of a level's open nodes in one call, for those
  nodes in order — per tree per level, not per node depth-first — over
  its output's own features.
* **Flat storage.** Trees are flat node arrays (feature, threshold,
  left, right, value); prediction walks all trees and rows together,
  one depth step at a time.

A seed spawns two streams per tree (bootstrap, feature draws) with
:func:`repro.utils.rng.spawn_rngs`, so the same seed grows the same
ensemble bit for bit in any process.  Weighted counts of 0/1 labels are
exact, so a stacked output's trees equal its one-output forest's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ModelError
from repro.utils.rng import SeedLike, spawn_rngs

#: Element budget of one histogram pass: layers x nodes x columns x bins.
_PASS_BUDGET = 1 << 16

#: A split must decrease the impurity by more than this.
_MIN_GAIN = 1e-12

#: The per-pair arrays of a grow: the row's offset into the flat codes,
#: the target, the open node and the bootstrap weight.
_START, _TARGET, _SLOT, _WEIGHT = range(4)


# --------------------------------------------------------------------- #
# Split criteria.  ``pair_stats`` names the per-pair statistics summed
# per node and per bin (weight first); ``layers`` gives each pair's
# histogram layer, the layer count and the weights counted per layer
# (both from a pair's weight and target), and ``layer_stats`` turns the
# layered histograms back into one histogram per statistic;
# ``summarize`` turns a level's node sums into (value, parent impurity,
# splittable); ``scores`` rates every boundary from the histograms and
# their prefix sums (maximised, -inf when invalid); ``gain`` is a node's
# impurity decrease at its best.
# --------------------------------------------------------------------- #
class Gini:
    """Gini decrease on 0/1 labels; node value = positive fraction."""

    @staticmethod
    def pair_stats(weight, target):
        return weight, weight * target

    @staticmethod
    def layers(weight, target):
        # A pair's label is its layer: one weighted count per column
        # gives the positives (layer 1) and, summed, the weights.
        return target > 0, 2, [weight]

    @staticmethod
    def layer_stats(hist):
        (by_label,) = hist
        return [by_label[0] + by_label[1], by_label[1]]

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
    def layers(weight, target):
        return 0, 1, list(SSE.pair_stats(weight, target))

    @staticmethod
    def layer_stats(hist):
        return [layered[0] for layered in hist]

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

        All (tree, row) pairs of a block of rows take one depth step at a
        time; blocks hold about :data:`_PASS_BUDGET` pairs.  The walk
        carries doubled node ids, so ``2 * node + go_right`` indexes an
        interleaved (left, right) child table with one gather.
        """
        rows, columns = X.shape
        flat = np.ascontiguousarray(X).ravel()
        feature = np.repeat(np.maximum(self.feature, 0), 2)
        threshold = np.repeat(self.threshold, 2)
        children = 2 * np.stack([self.left, self.right], axis=1).ravel()
        values = np.empty((self.n_trees, rows))
        block = max(1, _PASS_BUDGET // self.n_trees)
        for first in range(0, rows, block):
            last = min(first + block, rows)
            offset = np.tile(np.arange(first, last) * columns, self.n_trees)
            node = np.repeat(2 * np.arange(self.n_trees), last - first)
            for _ in range(int(self.depth.max())):
                node = children.take(node + (flat.take(offset + feature.take(node))
                                             > threshold.take(node)))
            values[:, first:last] = self.value[node // 2].reshape(self.n_trees, last - first)
        return values

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


def _best_splits(criterion, flat_codes, bins, start, slot, weight, target, candidates,
                 count, parent):
    """Best ``(score, feature, bin, next present bin)`` of every open node.

    Each (tree, row) pair has its row's offset ``start`` into the flat
    codes, its open node ``slot``, its ``weight`` and its ``target``;
    ``candidates`` is ``None`` (every feature) or a sorted
    ``(nodes, draws)`` matrix of feature indices.  A pass histograms
    every candidate column of a range of nodes, one bin width at a time
    (with every feature, runs of features of equal bin count, so nothing
    is padded): one weighted bincount of the pairs per column and layer
    weight, so temporaries stay O(pairs) and the histograms within
    :data:`_PASS_BUDGET`.
    """
    nodes = count.size
    best = np.full(nodes, -np.inf)
    feature = np.full(nodes, np.iinfo(np.intp).max)
    split_bin, next_bin = np.zeros(nodes, np.intp), np.zeros(nodes, np.intp)
    if candidates is None:
        order = np.argsort(bins, kind="stable")
        starts = np.flatnonzero(np.diff(bins[order], prepend=-1))
        runs = [(np.broadcast_to(order[low:high], (nodes, high - low)), int(bins[order[low]]))
                for low, high in zip(starts, np.append(starts[1:], order.size))]
    else:
        runs = [(candidates, int(bins.max()))]
    layer, layers, weights = criterion.layers(weight, target)
    for features, width in runs:
        if width < 2:
            continue
        columns = features.shape[1]
        group = max(1, _PASS_BUDGET // (layers * columns * width))
        for first in range(0, nodes, group):
            last = min(first + group, nodes)
            span = last - first
            if group >= nodes:
                local_slot, local_start, local_layer, local_weights = slot, start, layer, weights
            else:
                inside = np.flatnonzero((slot >= first) & (slot < last))
                local_slot, local_start = slot[inside] - first, start[inside]
                local_layer = layer if layers == 1 else layer[inside]
                local_weights = [pair_weight[inside] for pair_weight in weights]
            base = local_slot * width
            if layers > 1:
                base += local_layer * (span * width)
            node_features = features[first:last]
            layered = [np.empty((layers, span, columns, width)) for _ in weights]
            key = np.empty_like(local_slot)
            for column in range(columns):
                # Slots are in range; mode="raise" would buffer ``out``.
                node_features[:, column].take(local_slot, out=key, mode="clip")
                key += local_start
                np.add(base, flat_codes.take(key), out=key)
                for hist, pair_weight in zip(layered, local_weights):
                    hist[:, :, column] = np.bincount(
                        key, weights=pair_weight, minlength=layers * span * width
                    ).reshape(layers, span, width)
            hist = criterion.layer_stats(layered)
            with np.errstate(divide="ignore", invalid="ignore"):
                scores = criterion.scores(hist, [h.cumsum(axis=2) for h in hist],
                                          count[first:last], parent[first:last])
            scores = scores.reshape(span, -1)
            top = scores.argmax(axis=1)
            top_score = scores[np.arange(span), top]
            column, boundary = np.divmod(top, width - 1)
            top_feature = node_features[np.arange(span), column]
            # Columns are in feature order within a pass; across runs
            # an exact tie goes to the lower feature index.
            held = best[first:last]
            better = np.flatnonzero(
                (top_score > held) | ((top_score == held) & (top_score > -np.inf)
                                      & (top_feature < feature[first:last])))
            present = ((hist[0][better, column[better]] > 0)
                       & (np.arange(width) > boundary[better, None]))
            won = better + first
            best[won] = top_score[better]
            feature[won] = top_feature[better]
            split_bin[won] = boundary[better]
            next_bin[won] = present.argmax(axis=1)
    return best, feature, split_bin, next_bin


def _keep_pairs(pairs: list, slot: np.ndarray) -> None:
    """Move the pairs to the new node ``slot``, dropping those at ``-1``.

    The per-pair arrays are replaced one at a time, so at most one
    extra copy is alive.
    """
    keep = slot >= 0
    if not keep.all():
        pairs[_SLOT] = None
        for index, pair in enumerate(pairs):
            if pair is not None:
                pairs[index] = pair[keep]
        slot = slot[keep]
    pairs[_SLOT] = slot


def grow_forest(criterion, X: np.ndarray, y: np.ndarray, multiplicity: np.ndarray,
                max_depth: int, min_samples_split: int, max_features: object,
                rngs: Sequence[np.random.Generator],
                columns: Optional[np.ndarray] = None) -> FlatForest:
    """Grow ``len(multiplicity)`` trees level by level (see the module docstring).

    ``y`` is ``(outputs, rows)``: the trees are output-major, an equal
    number per output, and a tree learns its output's target row.
    ``multiplicity[t, i]`` is how often row ``i`` is in tree ``t``'s
    bootstrap resample; ``rngs[t]`` draws tree ``t``'s candidate
    features.  ``columns`` (``(outputs, local)``, increasing per row)
    restricts each output's trees to its own columns of ``X``; feature
    draws are made over those local features, and the fitted trees
    refer to columns of ``X``.  ``None`` gives every tree every column.
    """
    codes, edges, bins = _bin_features(X)
    n_trees = multiplicity.shape[0]
    tree_output = np.arange(n_trees) // (n_trees // y.shape[0])
    n_local = codes.shape[1] if columns is None else columns.shape[1]
    if max_features is None:
        draws = None
    elif max_features == "sqrt":
        draws = max(1, int(np.sqrt(n_local)))
    else:
        draws = min(int(max_features), n_local)
    # One entry per (tree, row) pair in a live node.
    slot, row = np.nonzero(multiplicity)
    weight = multiplicity[slot, row].astype(np.float64)
    target = y[tree_output[slot], row]
    row *= codes.shape[1]
    pairs = [row, target, slot, weight]
    del row, target, slot, weight
    flat_codes = codes.ravel()
    level_tree, next_id = np.arange(n_trees), 0
    levels: List[tuple] = []
    while True:
        nodes = level_tree.size
        sums = [np.bincount(pairs[_SLOT], weights=stat, minlength=nodes)
                for stat in criterion.pair_stats(pairs[_WEIGHT], pairs[_TARGET])]
        value, parent, impure = criterion.summarize(sums, pairs[_SLOT], pairs[_WEIGHT],
                                                    pairs[_TARGET])
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
        _keep_pairs(pairs, position.take(pairs[_SLOT]))
        candidates = None
        if draws is not None:
            per_tree = np.bincount(level_tree[open_nodes], minlength=n_trees)
            keys = np.concatenate([rngs[index].random((per_tree[index], n_local))
                                   for index in np.flatnonzero(per_tree)])
            candidates = np.sort(np.argsort(keys, axis=1)[:, :draws], axis=1)
        if columns is not None:
            # Increasing column maps keep local order, so a tie still goes
            # to the lowest local feature.
            node_columns = columns[tree_output[level_tree[open_nodes]]]
            candidates = (node_columns if candidates is None else
                          np.take_along_axis(node_columns, candidates, axis=1))
        best, best_feature, split_bin, next_bin = _best_splits(
            criterion, flat_codes, bins, pairs[_START], pairs[_SLOT], pairs[_WEIGHT],
            pairs[_TARGET], candidates, count[open_nodes], parent[open_nodes])
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
        _keep_pairs(pairs, rank.take(pairs[_SLOT]))
        slot = pairs[_SLOT]
        pairs[_SLOT] = 2 * slot + (flat_codes.take(pairs[_START] + best_feature.take(slot))
                                   > split_bin.take(slot))
        del slot
        level_tree = np.repeat(level_tree[chosen], 2)
    return FlatForest(*[np.concatenate(parts) for parts in zip(*levels)], n_trees=n_trees)


class BaggedForest:
    """Hyper-parameters, fitting and summaries shared by both forests.

    The public ``fit``/``predict*`` methods live on each subclass.
    ``seed`` is one seed, or a sequence with one per output of a
    multi-output fit.
    """

    def __init__(self, n_estimators: int, max_depth: int, min_samples_split: int,
                 max_features: object, seed: Union[SeedLike, Sequence[SeedLike]]) -> None:
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
        self.n_outputs_: Optional[int] = None

    def _grow(self, criterion, X: np.ndarray, y: np.ndarray, columns: Optional[np.ndarray],
              bootstrap: Callable[[np.ndarray, np.random.Generator], np.ndarray]) -> None:
        """Fit on ``y`` of shape ``(rows,)`` or ``(rows, outputs)``.

        Output ``o`` grows ``n_estimators`` trees from its own seed's
        streams (bootstrap, feature draws), resampled by
        ``bootstrap(y[:, o], stream)`` and restricted to ``columns[o]``.
        """
        if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0]:
            raise ModelError(f"inconsistent shapes X{X.shape} y{y.shape}")
        if X.shape[0] == 0:
            raise ModelError("cannot fit a forest on an empty dataset")
        targets = y[None] if y.ndim == 1 else y.T
        outputs = targets.shape[0]
        if outputs == 0:
            raise ModelError("cannot fit a forest on zero outputs")
        if columns is not None:
            columns = np.asarray(columns, dtype=np.intp)
            if (columns.ndim != 2 or columns.shape[0] != outputs or columns.shape[1] == 0
                    or columns.min() < 0 or columns.max() >= X.shape[1]
                    or np.any(np.diff(columns, axis=1) <= 0)):
                raise ModelError(f"columns must map each of the {outputs} outputs to "
                                 f"increasing columns of X{X.shape}, got {columns.shape}")
        seeds = self.seed if isinstance(self.seed, (list, tuple)) else [self.seed] * outputs
        if len(seeds) != outputs:
            raise ModelError(f"got {len(seeds)} seeds for {outputs} outputs")
        multiplicity = np.empty((outputs * self.n_estimators, X.shape[0]), dtype=np.int32)
        draw_streams = []
        for output, (target, seed) in enumerate(zip(targets, seeds)):
            streams = spawn_rngs(seed, self.n_estimators * 2)
            for index in range(self.n_estimators):
                multiplicity[output * self.n_estimators + index] = np.bincount(
                    bootstrap(target, streams[2 * index]), minlength=X.shape[0])
            draw_streams += streams[1::2]
        self.n_features_ = X.shape[1]
        self.n_outputs_ = None if y.ndim == 1 else outputs
        self.forest_ = grow_forest(criterion, X, targets, multiplicity,
                                   self.max_depth, self.min_samples_split,
                                   self.max_features, draw_streams, columns)

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

    def fit(self, X: np.ndarray, y: np.ndarray,
            columns: Optional[np.ndarray] = None) -> "RandomForestClassifier":
        """Fit the ensemble on a 0/1 feature matrix and 0/1 labels.

        ``y`` of shape ``(rows, outputs)`` fits one forest per output in
        a single grow; ``columns[o]`` (increasing column indices of
        ``X``) are output ``o``'s features, every column by default.
        Each output's trees equal a one-output fit on ``X[:, columns[o]]``
        with that output's seed.
        """
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        # Any nonzero feature value is a 1; a 0/1 matrix is viewed, not copied.
        binary = X.view(bool) if X.size == 0 or X.max() <= 1 else X != 0
        self._grow(Gini, binary, y, columns, self._bootstrap_indices)
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
        """Mean positive-class probability over each output's trees.

        Shape ``(rows,)`` after a one-output fit, else ``(rows, outputs)``.
        Each output's tree values are summed in tree order, so every
        output's probabilities equal its own one-output forest's.
        """
        per_tree = self._tree_values(np.asarray(X, dtype=np.uint8))
        per_tree = per_tree.reshape(-1, self.n_estimators, per_tree.shape[1])
        accumulator = np.zeros((per_tree.shape[0], per_tree.shape[2]), dtype=np.float64)
        for index in range(self.n_estimators):
            accumulator += per_tree[:, index]
        probability = accumulator / self.n_estimators
        return probability[0] if self.n_outputs_ is None else probability.T

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class (0/1) for every row (and output) of ``X``."""
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)
