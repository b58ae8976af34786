"""Multivariate lag-based causality selection via nested-model F tests."""
from __future__ import annotations

from ..numerics import f_test_nested, nested_rss
from ..panel import DesignMatrix
from .base import FeatureSet


def granger_select(design: DesignMatrix, alpha: float = 0.05) -> FeatureSet:
    """Select features whose joint lag block improves the full model.

    For each feature the full model (target lag plus all feature lags) is
    compared against the model with that feature's p lags removed; the
    feature is kept when the F test rejects at level alpha. All restricted
    fits come from one factorization of the full design (``nested_rss``,
    which raises Underdetermined when the rows do not exceed the
    regressors). Diagnostics carry every (F, p) pair.
    """
    n, k_cols = design.X.shape
    k_full = k_cols + 1  # intercept counted
    rss_full, rss_restricted = nested_rss(design.X, design.y, list(design.blocks.values()))
    diagnostics = {}
    selected = set()
    for (name, block), rss in zip(design.blocks.items(), rss_restricted):
        test = f_test_nested(float(rss), rss_full, q=len(block), n=n, k_full=k_full)
        diagnostics[name] = (test.statistic, test.p_value)
        if test.p_value < alpha:
            selected.add(name)
    return FeatureSet(frozenset(selected), diagnostics, "granger")
