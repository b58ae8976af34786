"""Lag-structure estimation plus ICA-based instantaneous causal ordering.

The pipeline follows four steps: a correlation-guided cluster pre-filter to
keep the covariate count below the observation count, an equation-wise
least-squares fit of the lag structure, ICA on the residuals, and recovery
of the instantaneous effects matrix by permutation search on the unmixing
matrix. Non-Gaussian noise is what makes the ordering identifiable.
The instantaneous matrix A0 and the lag matrices A_tau (row = effect, as in
the method's paper) are returned transposed, as a ``DynamicGraph``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from ..errors import TooManyCovariates
from ..numerics import centre, fastica, kmeans, ols_fit, pearson_tests, standardize
from ..panel import AlignedPanel, stack_lags
from .base import DynamicGraph, FeatureSet


@dataclass(frozen=True)
class VarLingamResult:
    """Full estimation output; ``variable_names[0]`` is the target."""

    graph: DynamicGraph  # S = A0.T, W_tau = A_tau.T

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self.graph.variable_names

    @cached_property
    def causal_order(self) -> tuple[str, ...]:
        """Reporting only, so the order search runs on first access."""
        return tuple(self.variable_names[i] for i in _causal_order(self.graph.S.T))


def cluster_prefilter(panel: AlignedPanel, k_clusters: int, seed: int = 0) -> tuple[str, ...]:
    """The names of one representative feature per k-means cluster of
    standardized series, in column order.

    Within each cluster the feature with the strongest absolute correlation
    with the target survives; ties resolve to the lowest column index. A
    constant feature, or a constant target, correlates 0.
    """
    if k_clusters >= panel.n_features:
        return panel.feature_names
    r, _, ok = pearson_tests(centre(panel.features).T, centre(panel.target))
    strength = np.abs(np.where(ok, r, 0.0)).tolist()
    result = kmeans(standardize(panel.features).T, k_clusters, seed=seed)
    kept = []
    for c in range(k_clusters):
        members = [j for j in range(panel.n_features) if result.assignments[j] == c]
        if not members:
            continue
        kept.append(max(members, key=lambda j: (strength[j], -j)))
    kept.sort()
    return tuple(panel.feature_names[j] for j in kept)


def _permute_unit_diagonal(W: np.ndarray) -> np.ndarray:
    """Row-permute W to maximize the diagonal, then scale rows to unit diag."""
    from scipy.optimize import linear_sum_assignment

    cost = 1.0 / np.maximum(np.abs(W), 1e-12)
    rows, cols = linear_sum_assignment(cost)
    permuted = np.empty_like(W)
    permuted[cols] = W[rows]
    return permuted / np.diag(permuted)[:, None]


def _causal_order(B0: np.ndarray) -> tuple[int, ...]:
    """Permutation making B0 (row = effect) closest to strictly lower
    triangular; exhaustive for up to 8 variables, greedy beyond."""
    m = B0.shape[0]
    if m <= 8:
        best, best_score = None, math.inf
        for perm in permutations(range(m)):
            score = sum(
                B0[perm[a], perm[b]] ** 2 for a in range(m) for b in range(a + 1, m)
            )
            if score < best_score:
                best, best_score = perm, score
        return best
    # greedy: repeatedly take the row with the least unexplained mass
    remaining = list(range(m))
    order = []
    while remaining:
        scores = [
            sum(B0[i, j] ** 2 for j in remaining if j != i) for i in remaining
        ]
        pick = remaining[int(np.argmin(scores))]
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)


def varlingam_fit(
    panel: AlignedPanel,
    p: int = 1,
    k_clusters: int | None = None,
    seed: int = 0,
) -> VarLingamResult:
    """Estimate instantaneous and lagged effect matrices on [target, features].

    Requires more observations than covariates after the pre-filter (pass
    ``k_clusters`` to shrink a wide panel first). The matrices come back as
    ``VarLingamResult.graph`` over the kept variables; selection reads only
    the edges into the target (column 0); the ICA causal order is
    reporting-only and is computed on first access of
    ``VarLingamResult.causal_order``.
    """
    if k_clusters is None:
        k_clusters = panel.n_features  # every feature is kept
    kept = cluster_prefilter(panel, k_clusters, seed=seed)
    names = (panel.target_name, *kept)
    m = len(names)
    T = len(panel)
    if T - p <= p * m + 1:
        raise TooManyCovariates(
            f"{T - p} usable rows for {p * m} lag regressors; "
            "reduce k_clusters or the lag order"
        )
    X = panel.data.take([0, *(panel.names.index(name) for name in kept)], axis=1)
    # step 1: equation-wise least squares for the lag structure
    current, lagged_X = stack_lags(X, p)
    resid = np.empty((T - p, m))
    B = np.zeros((p, m, m))  # B[tau - 1][i, j]: var i at lag tau -> var j
    for j in range(m):
        fit = ols_fit(lagged_X, current[:, j])
        resid[:, j] = fit.residuals
        B[:, :, j] = fit.beta[1:].reshape(p, m)  # in the links' lag-major order
    # step 2: ICA separates the residuals into independent shocks
    ica = fastica(resid, seed=seed)
    # step 3: instantaneous matrix from the permuted, rescaled unmixing
    W_tilde = _permute_unit_diagonal(ica.unmixing)
    A0 = np.eye(m) - W_tilde
    np.fill_diagonal(A0, 0.0)
    # step 4: lag matrices A_tau = (I - A0) B_tau', instantaneous effects removed
    W = tuple(((np.eye(m) - A0) @ B[tau].T).T for tau in range(p))
    return VarLingamResult(DynamicGraph(S=A0.T, W=W, variable_names=names))


def varlingam_select(
    panel: AlignedPanel,
    p: int = 1,
    k_clusters: int | None = None,
    edge_threshold: float = 0.05,
    seed: int = 0,
    use_instantaneous: bool = True,
    use_lagged: bool = True,
) -> FeatureSet:
    """Select features with an effect on the target above ``edge_threshold``
    in the instantaneous matrix or any lag matrix (switchable per kind)."""
    result = varlingam_fit(panel, p=p, k_clusters=k_clusters, seed=seed)
    weights = result.graph.in_weights(panel.target_name, use_instantaneous, use_lagged)
    return FeatureSet(frozenset(n for n, w in weights.items() if w > edge_threshold))
