"""Per-bit timing-error prediction model (the paper's Fig. 3 flow).

:class:`BitLevelTimingModel` trains one random-forest binary classifier
per output bit of an adder, at one overclocked period, from a training
trace whose timing behaviour has been measured by gate-level simulation.
The forests of all bits whose training labels vary grow together: one
shared feature block per trace (the operand columns once, then each
bit's two gold columns) and one stacked
:meth:`~repro.ml.forest.RandomForestClassifier.fit`, in which each bit's
trees see only its own features and draw from its own seed, so they
equal a separate per-bit forest bit for bit.  At prediction time it
emits per-bit timing classes and deduces the predicted silver
(over-clocked) output word by flipping the golden bits it believes are
timing-erroneous — exactly how the paper converts timing-class vectors
into arithmetic values for the AVPE metric.
:func:`score_error_matrix` scores one prediction for both metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.ml.dataset import training_data
from repro.ml.features import build_feature_block, feature_columns
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import abper, avpe
from repro.timing.errors import TimingErrorTrace
from repro.utils.rng import derive_seed
from repro.workloads.traces import OperandTrace


@dataclass(frozen=True)
class TimingModelOptions:
    """Hyper-parameters of the per-bit random forests."""

    n_estimators: int = 8
    max_depth: int = 8
    min_samples_split: int = 8
    max_features: object = "sqrt"
    class_weight: Optional[str] = None
    seed: Optional[int] = 2017

    def make_classifier(self, bits: Sequence[int]) -> RandomForestClassifier:
        """The stacked classifier of ``bits``; bit ``b`` is seeded with ``derive_seed(seed, b)``."""
        return RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            class_weight=self.class_weight,
            seed=[derive_seed(self.seed, bit) for bit in bits],
        )


@dataclass
class BitLevelTimingModel:
    """One trained classifier per output bit for a (design, clock) pair.

    Bits whose training labels never vary need no classifier and predict
    their constant class; the others share one stacked forest.
    """

    design: str
    clock_period: float
    output_width: int
    options: TimingModelOptions = field(default_factory=TimingModelOptions)

    def __post_init__(self) -> None:
        self._classifier: Optional[RandomForestClassifier] = None
        self._trained = np.zeros(0, dtype=np.intp)
        self._constant = np.zeros(self.output_width, dtype=np.uint8)
        self._input_width: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, trace: OperandTrace, gold_words: np.ndarray,
            timing_trace: TimingErrorTrace) -> "BitLevelTimingModel":
        """Train every per-bit classifier from a measured training trace."""
        if timing_trace.output_width != self.output_width:
            raise ModelError(
                f"timing trace has {timing_trace.output_width} output bits, "
                f"model expects {self.output_width}")
        block, labels = training_data(trace, gold_words, timing_trace)
        lowest, highest = labels.min(axis=0), labels.max(axis=0)
        trained = np.flatnonzero(lowest != highest)
        classifier = None
        if trained.size:
            columns = np.stack([feature_columns(trace.width, bit) for bit in trained])
            classifier = self.options.make_classifier(trained.tolist())
            classifier.fit(block, labels[:, trained], columns=columns)
        # A bit that is always correct (or, pathologically, always wrong)
        # in training keeps that constant class.
        self._classifier = classifier
        self._trained = trained
        self._constant = np.where(lowest == highest, lowest, 0).astype(np.uint8)
        self._input_width = trace.width
        return self

    @property
    def is_fitted(self) -> bool:
        """True once the model has been trained."""
        return self._input_width is not None

    @property
    def trained_bits(self) -> List[int]:
        """Bits for which a real classifier (not a constant) was trained."""
        return self._trained.tolist()

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_error_matrix(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted timing-error flags, shape (transitions, output_width).

        The trace must have the training trace's operand width and
        ``gold_words`` one word per vector of it.
        """
        if not self.is_fitted:
            raise ModelError("the model must be fitted before predicting")
        if trace.width != self._input_width:
            raise ModelError(f"the model was trained on {self._input_width}-bit operands, "
                             f"got a {trace.width}-bit trace")
        block = build_feature_block(trace, gold_words, self.output_width)
        predictions = np.tile(self._constant, (trace.transitions, 1))
        if self._classifier is not None:
            predictions[:, self._trained] = self._classifier.predict(block)
        return predictions

    def predict_timing_classes(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted timing classes (1 = timing-correct) as used by ABPER."""
        return (1 - self.predict_error_matrix(trace, gold_words)).astype(np.uint8)

    def predict_silver(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted over-clocked output words (see :func:`silver_from_errors`)."""
        return silver_from_errors(gold_words, self.predict_error_matrix(trace, gold_words))

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, trace: OperandTrace, gold_words: np.ndarray,
                 timing_trace: TimingErrorTrace) -> Dict[str, float]:
        """ABPER and AVPE of the model on an evaluation trace."""
        return score_error_matrix(self.predict_error_matrix(trace, gold_words),
                                  gold_words, timing_trace)

    def describe(self) -> str:
        """Human-readable summary of the trained model."""
        trained = self._trained.size
        constant = self.output_width - trained if self.is_fitted else 0
        return (f"BitLevelTimingModel[{self.design} @ {self.clock_period * 1e12:.0f} ps]: "
                f"{trained} trained bits, {constant} constant bits")


def silver_from_errors(gold_words: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Over-clocked output words implied by predicted timing-error flags.

    A predicted timing error on bit ``n`` flips the golden bit, but only
    when the golden bit actually toggles between consecutive cycles — a
    latched stale value can only differ from the golden value in that
    case (the same observation the feature set encodes).  The flags are
    packed into one word mask per transition, so the flip is
    ``current ^ ((current ^ previous) & mask)``.
    """
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    current = gold_words[1:]
    previous = gold_words[:-1]
    flags = np.asarray(errors).astype(np.uint64) & np.uint64(1)
    mask = np.bitwise_or.reduce(flags << np.arange(flags.shape[1], dtype=np.uint64), axis=1)
    return current ^ ((current ^ previous) & mask)


def score_error_matrix(errors: np.ndarray, gold_words: np.ndarray,
                       timing_trace: TimingErrorTrace) -> Dict[str, float]:
    """ABPER and AVPE of one error-flag prediction against the measured trace."""
    return {
        "abper": abper((1 - errors).astype(np.uint8), timing_trace.timing_classes()),
        "avpe": avpe(silver_from_errors(gold_words, errors), timing_trace.sampled_words),
    }
