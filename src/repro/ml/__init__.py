"""Supervised-learning substrate for bit-level timing-error prediction.

The paper trains one binary classifier per output bit (a scikit-learn
random forest) on features derived from consecutive input vectors and the
RTL outputs, to predict whether that bit is timing-erroneous at a given
overclocked period.  Because this reproduction is fully self-contained,
the random forests are implemented from scratch on NumPy; the feature
construction, the per-bit model and the ABPER/AVPE evaluation metrics
mirror Sections III and IV-B of the paper.

Both forests run on one learner (:mod:`repro.ml.forest`).  It bins each
feature once per fit (one bin per distinct value), grows all trees of
an ensemble together one depth at a time from weighted (node, bin)
histograms of the bootstrap multiplicities, draws each tree's candidate
features once per level for that level's nodes in order, stores the
trees as flat node arrays and predicts with one depth-step walk over
all trees and rows.  :class:`BitLevelTimingModel` builds one feature
block per trace (:func:`build_feature_block`: the operand bits once,
then every output bit's two gold columns) and grows every output bit's
forest in one stacked fit over it.  :class:`RandomForestClassifier` splits 0/1 labels
by Gini decrease; :class:`RandomForestRegressor` (:mod:`repro.ml.regress`)
splits float targets by squared-error decrease — the surrogate the
adaptive design-space explorer uses to predict sweep scores straight
from quadruple features.
"""

from repro.ml.forest import RandomForestClassifier
from repro.ml.regress import RandomForestRegressor
from repro.ml.features import (
    FEATURE_DOC,
    build_feature_block,
    build_feature_matrix,
    feature_names,
)
from repro.ml.dataset import BitDataset, build_bit_datasets, collect_bit_datasets
from repro.ml.model import BitLevelTimingModel, TimingModelOptions
from repro.ml.metrics import abper, avpe, classification_summary

__all__ = [
    "RandomForestClassifier",
    "RandomForestRegressor",
    "FEATURE_DOC",
    "build_feature_block",
    "build_feature_matrix",
    "feature_names",
    "BitDataset",
    "build_bit_datasets",
    "collect_bit_datasets",
    "BitLevelTimingModel",
    "TimingModelOptions",
    "abper",
    "avpe",
    "classification_summary",
]
