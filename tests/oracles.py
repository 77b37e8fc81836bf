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
* :class:`PerBitTimingModel` is the bit-level timing model the stacked
  :class:`repro.ml.model.BitLevelTimingModel` replaced: per-bit
  feature matrices built bit by bit (:func:`per_bit_features`), one
  one-output forest fitted and walked per non-constant bit.  The
  stacked model must reproduce its trees, probabilities and error
  matrices bit for bit.  :func:`silver_from_errors_loop` is the per-bit
  flip loop the word-mask ``silver_from_errors`` replaced.
* :func:`all_pairs_nondominated_mask` is the blocked all-pairs dominance
  filter :func:`repro.explore.pareto.nondominated_mask` replaced.
* The ``*_reference`` synthesis kernels are the per-gate dict passes the
  levelised NumPy kernels of :mod:`repro.timing.sta`,
  :mod:`repro.synth.sizing` and :mod:`repro.synth.optimize` replaced:
  STA (arrival, required, slack, path gate counts), slack-driven sizing
  and the netlist-per-pass optimizer.  The library must match them
  exactly — same dict keys in the same order, bit-equal floats,
  gate-identical netlists — and :func:`reference_kernels` runs the
  whole synthesis flow on them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional
from unittest import mock

import numpy as np

from repro.circuit.library import TechnologyLibrary
from repro.circuit.netlist import CONST0, CONST1, Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import ModelError, TimingError
from repro.ml.forest import RandomForestClassifier
from repro.synth import flow
from repro.synth.optimize import _fresh_inverter_names, _Inverted, _simplify
from repro.synth.sizing import SizingOptions, SizingResult
from repro.timing import sta
from repro.utils.bitops import extract_bits_matrix
from repro.utils.rng import SeedLike, derive_seed, ensure_rng, spawn_rngs


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
# Per-bit timing model
# --------------------------------------------------------------------- #
def per_bit_features(trace, gold_words, bit: int) -> np.ndarray:
    """``{A[t], B[t], A[t-1], B[t-1], yRTL_n[t-1], yRTL_n[t]}`` of one bit."""
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    if gold_words.shape[0] != trace.length:
        raise ModelError("gold output length does not match trace length")
    a_bits = extract_bits_matrix(trace.a, trace.width)
    b_bits = extract_bits_matrix(trace.b, trace.width)
    gold_bit = ((gold_words >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)
    return np.hstack([a_bits[1:], b_bits[1:], a_bits[:-1], b_bits[:-1],
                      gold_bit[:-1, None], gold_bit[1:, None]]).astype(np.uint8)


class PerBitTimingModel:
    """One forest per non-constant output bit, seeded ``derive_seed(seed, bit)``."""

    def __init__(self, output_width: int, options) -> None:
        self.output_width = output_width
        self.options = options
        self.classifiers: Dict[int, RandomForestClassifier] = {}
        self.constant_bits: Dict[int, int] = {}

    def fit(self, trace, gold_words, timing_trace) -> "PerBitTimingModel":
        errors = timing_trace.error_bits()
        for bit in range(self.output_width):
            labels = errors[:, bit].astype(np.uint8)
            unique = np.unique(labels)
            if unique.size == 1:
                self.constant_bits[bit] = int(unique[0])
                continue
            options = self.options
            classifier = RandomForestClassifier(
                n_estimators=options.n_estimators, max_depth=options.max_depth,
                min_samples_split=options.min_samples_split,
                max_features=options.max_features, class_weight=options.class_weight,
                seed=derive_seed(options.seed, bit))
            self.classifiers[bit] = classifier.fit(
                per_bit_features(trace, gold_words, bit), labels)
        return self

    def predict_proba(self, trace, gold_words, bit: int) -> np.ndarray:
        return self.classifiers[bit].predict_proba(per_bit_features(trace, gold_words, bit))

    def predict_error_matrix(self, trace, gold_words) -> np.ndarray:
        predictions = np.zeros((trace.transitions, self.output_width), dtype=np.uint8)
        for bit in range(self.output_width):
            if bit in self.classifiers:
                predictions[:, bit] = self.classifiers[bit].predict(
                    per_bit_features(trace, gold_words, bit))
            else:
                predictions[:, bit] = self.constant_bits.get(bit, 0)
        return predictions


def tree_structure(flat, tree: int, columns: Optional[np.ndarray] = None):
    """Tree ``tree`` of a :class:`~repro.ml.forest.FlatForest` as nested tuples.

    A split is ``(feature, threshold, left, right)``, a leaf its value;
    with ``columns`` a feature is given as its position in ``columns``
    (a stacked output's local feature index).
    """
    def walk(node):
        if flat.feature[node] < 0:
            return flat.value[node]
        feature = int(flat.feature[node])
        if columns is not None:
            feature = int(np.searchsorted(columns, feature))
        return (feature, flat.threshold[node], walk(flat.left[node]), walk(flat.right[node]))
    return walk(tree)


def silver_from_errors_loop(gold_words, errors) -> np.ndarray:
    """Flip each toggling golden bit flagged as a timing error, one bit at a time."""
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    current = gold_words[1:]
    previous = gold_words[:-1]
    silver = current.copy()
    for bit in range(errors.shape[1]):
        weight = np.uint64(1 << bit)
        toggled = ((current ^ previous) >> np.uint64(bit)) & np.uint64(1)
        flip = (errors[:, bit].astype(np.uint64) & toggled).astype(bool)
        silver = np.where(flip, silver ^ weight, silver)
    return silver


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


# --------------------------------------------------------------------- #
# Static timing analysis, one gate at a time
# --------------------------------------------------------------------- #
def arrival_times_reference(netlist: Netlist,
                            annotation: DelayAnnotation) -> Dict[str, float]:
    """Latest arrival of every net (inputs and constants switch at 0)."""
    arrival: Dict[str, float] = {net: 0.0 for net in netlist.inputs}
    arrival[CONST0] = 0.0
    arrival[CONST1] = 0.0
    for gate in netlist.topological_order():
        delay = annotation.delay_of(gate.name)
        arrival[gate.output] = delay + max(arrival[net] for net in gate.inputs)
    return arrival


def required_times_reference(netlist: Netlist, annotation: DelayAnnotation,
                             clock_period: float) -> Dict[str, float]:
    """Latest allowed arrival of every net against ``clock_period``."""
    required: Dict[str, float] = {net: math.inf for net in netlist.nets}
    for net in netlist.outputs:
        required[net] = min(required[net], clock_period)
    for gate in reversed(netlist.topological_order()):
        delay = annotation.delay_of(gate.name)
        budget = required[gate.output] - delay
        for net in gate.inputs:
            if budget < required[net]:
                required[net] = budget
    return required


def gate_slacks_reference(netlist: Netlist, annotation: DelayAnnotation,
                          clock_period: float) -> Dict[str, float]:
    """Per-gate slack: required minus arrival at the gate's output."""
    arrival = arrival_times_reference(netlist, annotation)
    required = required_times_reference(netlist, annotation, clock_period)
    return {gate.name: required[gate.output] - arrival[gate.output]
            for gate in netlist.gates}


def path_gate_counts_reference(netlist: Netlist) -> Dict[str, int]:
    """Per-gate length of the longest input-to-output path through it."""
    forward: Dict[str, int] = {net: 0 for net in netlist.nets}
    for gate in netlist.topological_order():
        forward[gate.output] = 1 + max(forward[net] for net in gate.inputs)
    backward: Dict[str, int] = {net: 0 for net in netlist.nets}
    for gate in reversed(netlist.topological_order()):
        through = backward[gate.output] + 1
        for net in gate.inputs:
            if through > backward[net]:
                backward[net] = through
    return {gate.name: forward[gate.output] + backward[gate.output]
            for gate in netlist.gates}


def _critical_path_delay(netlist: Netlist, annotation: DelayAnnotation) -> float:
    """The critical path delay :func:`repro.timing.sta.analyze_timing` reports."""
    annotation.validate_against(netlist)
    if not netlist.outputs:
        raise TimingError(f"netlist {netlist.name!r} has no primary outputs")
    arrival = arrival_times_reference(netlist, annotation)
    return max(arrival[net] for net in netlist.outputs)


# --------------------------------------------------------------------- #
# Slack-driven sizing, one gate at a time
# --------------------------------------------------------------------- #
def size_to_constraint_reference(netlist: Netlist, library: TechnologyLibrary,
                                 options: SizingOptions,
                                 initial: Optional[DelayAnnotation] = None
                                 ) -> SizingResult:
    """Per-gate allocation and fix-up loops of the sizing heuristic."""
    annotation = (initial.copy() if initial is not None
                  else DelayAnnotation.nominal(netlist, library))
    annotation.clock_constraint = options.clock_constraint
    nominal_delay = _critical_path_delay(netlist, annotation)
    nominal_total = annotation.total_delay()

    bounds: Dict[str, tuple] = {}
    for gate in netlist.gates:
        timing = library.timing(gate.cell)
        bounds[gate.name] = (timing.min_delay, timing.max_delay)

    counts = path_gate_counts_reference(netlist)
    target = options.clock_constraint

    slacks = gate_slacks_reference(netlist, annotation, target)
    for gate in netlist.gates:
        slack = slacks[gate.name]
        share_count = max(counts[gate.name], 1)
        low, high = bounds[gate.name]
        delay = annotation.delay_of(gate.name)
        if slack > options.slack_tolerance:
            delay = min(delay + options.slack_utilization * slack / share_count, high)
        elif slack < -options.slack_tolerance:
            delay = max(delay + slack / share_count, low)
        annotation.set_delay(gate.name, delay)

    for _ in range(options.fixup_iterations):
        slacks = gate_slacks_reference(netlist, annotation, target)
        worst = min(slacks.values()) if slacks else 0.0
        if worst >= -options.slack_tolerance:
            break
        for gate in netlist.gates:
            slack = slacks[gate.name]
            if slack >= -options.slack_tolerance:
                continue
            low, _ = bounds[gate.name]
            share_count = max(counts[gate.name], 1)
            delay = annotation.delay_of(gate.name)
            annotation.set_delay(gate.name, max(delay + slack / share_count, low))

    sized_delay = _critical_path_delay(netlist, annotation)
    return SizingResult(
        annotation=annotation,
        nominal_critical_path=nominal_delay,
        sized_critical_path=sized_delay,
        clock_constraint=target,
        met_constraint=sized_delay <= target + options.slack_tolerance,
        nominal_total_delay=nominal_total,
        sized_total_delay=annotation.total_delay(),
    )


# --------------------------------------------------------------------- #
# Netlist-per-pass optimizer
# --------------------------------------------------------------------- #
def _resolve(net: str, alias: Dict[str, str]) -> str:
    """Resolve a net through the alias map, compressing the walked path."""
    root = net
    while root in alias:
        root = alias[root]
    while net != root:
        alias[net], net = root, alias[net]
    return root


def _const_of(net: str) -> Optional[int]:
    if net == CONST0:
        return 0
    if net == CONST1:
        return 1
    return None


def propagate_constants(netlist: Netlist) -> Netlist:
    """Fold constants and simplify gates, returning a new netlist."""
    alias: Dict[str, str] = {}
    new = Netlist(netlist.name)
    taken_nets = set(netlist.nets)
    taken_gates = {gate.name for gate in netlist.gates}
    for net in netlist.inputs:
        new.add_input(net)

    for gate in netlist.topological_order():
        resolved = [_resolve(net, alias) for net in gate.inputs]
        kind, payload = _simplify(gate.cell, resolved,
                                  [_const_of(net) for net in resolved])
        if kind == "const":
            alias[gate.output] = CONST1 if payload else CONST0
            continue
        if kind == "alias":
            alias[gate.output] = _resolve(str(payload), alias)
            continue
        cell_name, cell_inputs = payload
        final_inputs: List[str] = []
        for net in cell_inputs:
            if isinstance(net, _Inverted):
                inv_gate, inv_net = _fresh_inverter_names(
                    gate.name, gate.output, len(final_inputs),
                    taken_gates, taken_nets)
                inverted = new.add_gate(inv_gate, "INV", [net.net], inv_net)
                final_inputs.append(inverted.output)
            else:
                final_inputs.append(net)
        new.add_gate(gate.name, cell_name, final_inputs, gate.output)

    for net in netlist.outputs:
        new.add_output(_resolve(net, alias))
    for bus, nets in netlist.buses.items():
        new.register_bus(bus, [_resolve(net, alias) for net in nets])
    return new


def prune_unused(netlist: Netlist) -> Netlist:
    """Remove gates no primary output (transitively) depends on."""
    needed = set(netlist.outputs)
    for gate in reversed(netlist.topological_order()):
        if gate.output in needed:
            needed.update(gate.inputs)

    new = Netlist(netlist.name)
    for net in netlist.inputs:
        new.add_input(net)
    for gate in netlist.topological_order():
        if gate.output in needed:
            new.add_gate(gate.name, gate.cell, list(gate.inputs), gate.output)
    for net in netlist.outputs:
        new.add_output(net)
    for bus, nets in netlist.buses.items():
        new.register_bus(bus, list(nets))
    return new


def optimize_reference(netlist: Netlist, max_passes: int = 4) -> Netlist:
    """Constant propagation then pruning, until the netlist stops shrinking."""
    current = netlist
    for _ in range(max_passes):
        before = current.num_gates
        current = prune_unused(propagate_constants(current))
        if current.num_gates >= before:
            break
    return current


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the synthesis flow and STA reports on the oracle kernels.

    Swaps the optimizer and sizing step where :func:`repro.synth.flow.
    synthesize` looks them up, and the arrival-time pass behind
    :func:`repro.timing.sta.analyze_timing`, for the ``with`` block.
    """
    with mock.patch.object(flow, "optimize", optimize_reference), \
            mock.patch.object(flow, "size_to_constraint", size_to_constraint_reference), \
            mock.patch.object(sta, "arrival_times", arrival_times_reference):
        yield
