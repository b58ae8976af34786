"""Invariance-based subset selection across environments.

Every candidate predictor subset is accepted when the pooled-regression
residuals look identically distributed across environments (equal means by
a Chow-style F test, equal variances by Bartlett's test, combined with
Bonferroni). The reported set is the intersection of all accepted subsets,
and empty when nothing is accepted: the data then rejected the invariance
premise itself.

The fits of all subsets of one size come from the one Gram of [1, X, y] per
window (``numerics.subset_residuals``: a stacked solve of the systems that
pass the one condition guard, a scaled condition number of at most 1e6,
one refinement step, and a least-squares refit past it), and both tests
run over all of their residual rows at once. Each p-value agrees with a
per-subset ``ols_fit`` within 1e-10 relative on designs that pass it.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from ..errors import Insufficient, NeedEnvironments
from ..numerics import chunk_slices, f_sf, subset_residuals
from ..panel import DesignMatrix
from .base import Environment, FeatureSet


def halves_environments(n: int) -> list[Environment]:
    """Default environment split: first and second half of the window."""
    idx = np.arange(n)
    return [
        Environment("first-half", idx[: n // 2]),
        Environment("second-half", idx[n // 2 :]),
    ]


def _check_partition(environments, n: int) -> None:
    """ValueError unless the environments' rows are a permutation of range(n)."""
    rows = np.concatenate([env.rows for env in environments])
    if not np.array_equal(np.sort(rows), np.arange(n)):
        raise ValueError(f"environments must partition the {n} rows 0..{n - 1}")


def residual_invariance_p(residuals: np.ndarray, environments) -> float | np.ndarray:
    """Bonferroni-combined p-value of mean and variance equality.

    ``residuals`` is one residual vector (a float is returned) or a 2-D
    array with one per row (an array of p-values is returned, one per row).
    The environments must partition the residual columns (ValueError
    otherwise); an environment with fewer than 2 rows raises Insufficient.
    """
    from scipy.special import gammaincc

    if len(environments) < 2:
        raise NeedEnvironments("invariance testing needs >= 2 environments")
    R = np.asarray(residuals, dtype=float)
    R2 = R.reshape(-1, R.shape[-1])
    _check_partition(environments, R2.shape[1])
    for env in environments:
        if len(env) < 2:
            raise Insufficient(f"environment {env.label!r} has {len(env)} rows; need >= 2")
    sizes = np.array([len(env) for env in environments])
    e, n = len(sizes), int(sizes.sum())
    grand = R2.mean(axis=1)
    means = np.empty((len(R2), e))
    ss = np.empty((len(R2), e))  # within-environment sums of squares
    for j, env in enumerate(environments):
        g = R2[:, env.rows]
        means[:, j] = g.mean(axis=1)
        ss[:, j] = ((g - means[:, j, None]) ** 2).sum(axis=1)
    between = (sizes * (means - grand[:, None]) ** 2).sum(axis=1)
    within = ss.sum(axis=1)
    # F test of equal means (upper tail of F(e - 1, n - e))
    p_mean = np.where(between <= 0.0, 1.0, 0.0)
    ok = within > 0.0
    f_stat = (between[ok] / (e - 1)) / (within[ok] / (n - e))
    p_mean[ok] = f_sf(f_stat, e - 1, n - e)
    # Bartlett's test of equal variances (upper tail of chi2(e - 1))
    variances = ss / (sizes - 1)
    p_var = np.where(variances.max(axis=1) <= 0.0, 1.0, 0.0)
    ok = variances.min(axis=1) > 0.0
    pooled = within[ok] / (n - e)
    stat = (n - e) * np.log(pooled) - ((sizes - 1) * np.log(variances[ok])).sum(axis=1)
    correction = 1.0 + ((1.0 / (sizes - 1)).sum() - 1.0 / (n - e)) / (3.0 * (e - 1))
    p_var[ok] = gammaincc((e - 1) / 2.0, np.maximum(stat / correction, 0.0) / 2.0)
    p = np.minimum(1.0, 2.0 * np.minimum(p_mean, p_var))
    return float(p[0]) if R.ndim == 1 else p


def seqicp_select(
    design: DesignMatrix,
    environments: list[Environment] | None = None,
    alpha: float = 0.05,
    max_subset_size: int = 2,
) -> FeatureSet:
    """Intersection of all predictor subsets with invariant residuals.

    Subsets range over the design's feature names up to ``max_subset_size``
    (the empty set included); each one is fitted by pooled OLS on all of its
    lags plus the target's own lag and an intercept -- conditioning on the
    target's past is what keeps residuals serially clean, so invariance is
    judged on the feature subset alone. The output set is contained in
    every accepted subset by construction.
    """
    if environments is None:
        environments = halves_environments(design.n)
    if len(environments) < 2:
        raise NeedEnvironments("invariance testing needs >= 2 environments")
    _check_partition(environments, design.n)
    names = design.feature_names
    largest = min(max_subset_size, len(names))
    max_cols = 2 + design.p * largest  # intercept + target lag + subset
    for env in environments:
        if len(env) <= max_cols + 1:
            raise Insufficient(
                f"environment {env.label!r} has {len(env)} rows for up to "
                f"{max_cols} regressors"
            )
    accepted: list[frozenset[str]] = []
    for size in range(largest + 1):
        subsets = list(combinations(names, size))
        column_sets = [
            [0] + design.feature_column_indices(subset) for subset in subsets
        ]
        # per subset: n residuals and the n x k columns of [1, X_S] they come from
        for part in chunk_slices(len(subsets), design.n * (len(column_sets[0]) + 2)):
            residuals = subset_residuals(design.engine, column_sets[part])
            p_values = residual_invariance_p(residuals, environments).tolist()
            accepted += [frozenset(s) for s, p in zip(subsets[part], p_values) if p > alpha]
    return FeatureSet(frozenset.intersection(*accepted) if accepted else frozenset())
