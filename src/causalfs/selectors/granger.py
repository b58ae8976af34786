"""Multivariate lag-based causality selection via nested-model F tests."""
from __future__ import annotations

from ..numerics import f_test_nested, nested_rss
from ..panel import DesignMatrix
from .base import FeatureSet


def granger_select(design: DesignMatrix, alpha: float = 0.05) -> FeatureSet:
    """Select features whose joint lag block improves the full model.

    For each feature the full model (target lag plus all feature lags) is
    compared against the model with that feature's p lags removed; the
    feature is kept when the F test rejects at level alpha. Every
    restricted RSS comes from the full design at once (``nested_rss``: the
    one Gram behind the one condition guard, the SVD Wald form past it, and
    ``ols_fit`` refits where the design is rank-deficient; Underdetermined
    when the rows do not exceed the regressors), and one ``f_test_nested``
    call scores every block. ``p_values`` holds every block's F-test p.
    """
    n, k_cols = design.X.shape
    blocks = list(design.blocks.values())
    rss_full, rss_restricted = nested_rss(design.engine, blocks)
    test = f_test_nested(rss_restricted, rss_full, q=[len(b) for b in blocks], n=n,
                         k_full=k_cols + 1)  # intercept counted
    p_values = dict(zip(design.blocks, test.p_value.tolist()))
    return FeatureSet(frozenset(name for name, p in p_values.items() if p < alpha), p_values)
