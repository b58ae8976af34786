"""Greedy stepwise feature selection driven by cross-validated MSE."""
from __future__ import annotations

import math

import numpy as np

from ..errors import Underdetermined
from ..numerics import CvFolds, cv_folds, cv_mse_sets
from ..panel import DesignMatrix
from .base import FeatureSet


def _cv_folds(design: DesignMatrix, folds: int) -> CvFolds:
    """Fold statistics for contiguous, time-respecting validation blocks."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    blocks = [b for b in np.array_split(np.arange(design.n), folds) if len(b)]
    return cv_folds(design.engine, blocks)


def cv_mse(design: DesignMatrix, feature_names, folds: int) -> float:
    """Mean out-of-block MSE of the linear base model on the given features.

    The base model always carries the intercept and the target's own lag;
    candidate features add their lag columns on top.
    """
    cols = [0] + design.feature_column_indices(feature_names)
    return float(cv_mse_sets(_cv_folds(design, folds), [cols])[0])


def sfs_select(
    design: DesignMatrix,
    direction: str = "forward",
    tol: float = 1e-8,
    max_features: int | None = None,
    folds: int = 5,
) -> FeatureSet:
    """Forward or backward stepwise search over the design's features.

    One loop serves both directions. Forward starts empty and each step may
    add one feature from outside the current set; backward starts full and
    each step may drop one from inside it. A step scores every candidate
    set in one ``cv_mse_sets`` call on fold Grams formed once per call and
    takes the first strict win in design order, so exact metric ties
    resolve to the lowest column index. Forward stops once the best gain falls below ``tol`` or
    ``max_features`` is reached; backward stops once no drop gains ``tol``,
    but keeps dropping while the set holds more than ``max_features``.
    Splits are contiguous blocks (``folds`` >= 2).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    names = list(design.feature_names)
    if max_features is None:
        max_features = len(names)
    if design.n <= max_features + 1:
        raise Underdetermined(f"{design.n} rows cannot support {max_features} features")
    cv = _cv_folds(design, folds)

    def scores(feature_sets) -> list[float]:
        """CV MSE of each feature set, with its columns in design order."""
        column_sets = [[0] + design.feature_column_indices(chosen) for chosen in feature_sets]
        return cv_mse_sets(cv, column_sets).tolist()

    forward = direction == "forward"
    current = set() if forward else set(names)
    current_mse = scores([current])[0]
    while not forward or len(current) < max_features:
        # forward toggles a feature outside the set in, backward one inside out
        candidates = [name for name in names if (name in current) != forward]
        if not candidates:
            break
        best_name, best_mse = None, math.inf
        for name, mse in zip(candidates, scores([current ^ {n} for n in candidates])):
            if mse < best_mse:
                best_name, best_mse = name, mse
        gain = current_mse - best_mse
        # the two stop rules differ only when gain or tol is NaN
        stops = gain < tol if forward else not gain >= tol
        over_cap = len(current) > max_features  # never true going forward
        if best_name is None or (stops and not over_cap):
            break
        current ^= {best_name}
        current_mse = best_mse
    return FeatureSet(frozenset(current))
