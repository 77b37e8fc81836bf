"""Regression forests on numeric features.

The squared-error mode of the learner in :mod:`repro.ml.forest`, used
by the adaptive design-space explorer (:mod:`repro.explore.adaptive`)
as a cheap surrogate for simulation: quadruple-derived features of an
:class:`~repro.core.config.ISAConfig` predict the sweep's scoring axes
(joint RMS relative error, gate count, area proxy) directly.  Every
surrogate column has a few dozen distinct values at most, so binning
one bin per value keeps every split exact: ``x[feature] > threshold``
with the threshold midway between adjacent values present in the node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.forest import BaggedForest, SSE
from repro.utils.rng import SeedLike


class RandomForestRegressor(BaggedForest):
    """Bagged CART regression trees; predicts the mean over trees.

    :meth:`predict_std` exposes the tree-ensemble spread the adaptive
    explorer uses as its uncertainty signal.  ``max_features=None``
    (the default) keeps every split exact — with the surrogate's
    handful of features, bootstrap resampling alone decorrelates the
    trees.  Seeding matches
    :class:`~repro.ml.forest.RandomForestClassifier`.
    """

    def __init__(self, n_estimators: int = 24, max_depth: int = 12,
                 min_samples_split: int = 4, max_features: Optional[object] = None,
                 seed: SeedLike = None) -> None:
        super().__init__(n_estimators, max_depth, min_samples_split, max_features, seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble on a numeric feature matrix and float targets."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        samples = X.shape[0]
        self._grow(SSE, X, y, None, lambda _, rng: rng.integers(0, samples, size=samples))
        return self

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_estimators, rows)``."""
        return self._tree_values(np.asarray(X, dtype=np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over the ensemble."""
        return self.predict_all(X).mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Tree-ensemble spread (standard deviation) per row.

        The exploration signal of the adaptive search: rows where the
        bootstrap-decorrelated trees disagree are rows the training set
        constrains poorly.
        """
        return self.predict_all(X).std(axis=0)
