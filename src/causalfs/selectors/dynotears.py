"""Dynamic structure learning as continuous optimization.

Solves, over the instantaneous matrix S and stacked lag matrices W,

    min (1/2T) ||X - X S - X_lag W||_F^2 + lambda_s ||S||_1 + lambda_w ||W||_1
    s.t. h(S) = 0,

with the smooth acyclicity function handled by an augmented Lagrangian and
L1 terms by positive/negative part splitting, so the inner problem stays
smooth and box-constrained (L-BFGS-B).
"""
from __future__ import annotations

import warnings

import numpy as np

from ..errors import NotAcyclic
from ..numerics import acyclicity, lbfgsb, standardize
from ..panel import AlignedPanel, stack_lags
from .base import DynamicGraph, FeatureSet

# the augmented Lagrangian gives up once its penalty weight rho reaches
# RHO_MAX, after at most MAX_OUTER dual updates
RHO_MAX = 1e16
MAX_OUTER = 100


def objective_terms(
    S: np.ndarray, W: np.ndarray, X: np.ndarray, X_lag: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Reconstruction loss (1/2T)||X - XS - X_lag W||_F^2 and its gradients."""
    T = X.shape[0]
    M = X - X @ S - X_lag @ W
    loss = 0.5 / T * float((M * M).sum())
    g_S = -(X.T @ M) / T
    g_W = -(X_lag.T @ M) / T
    return loss, g_S, g_W


def dynotears_fit(
    panel: AlignedPanel,
    p: int = 1,
    lambda_w: float = 0.1,
    lambda_s: float = 0.1,
    h_tol: float = 1e-8,
    w_threshold: float = 0.05,
) -> DynamicGraph:
    """Fit S and W on [target, features], standardized internally.

    Entries below ``w_threshold`` in magnitude are zeroed after optimization
    and the diagonal of S is forced to zero. Raises NotAcyclic (carrying the
    best iterate) when the constraint cannot be met before ``RHO_MAX``.
    """
    m = len(panel.names)
    T = len(panel)
    if T <= p * m:
        warnings.warn(
            f"{T} rows is small for {p * m} lagged coefficients; "
            "estimates may be unstable",
            UserWarning,
            stacklevel=2,
        )
    X, X_lag = stack_lags(standardize(panel.data), p)
    n_s = m * m
    n_w = p * m * m

    def unpack(vec):
        s = (vec[:n_s] - vec[n_s : 2 * n_s]).reshape(m, m)
        w = (vec[2 * n_s : 2 * n_s + n_w] - vec[2 * n_s + n_w :]).reshape(p * m, m)
        return s, w

    def make_func(rho, alpha):
        def func(vec):
            S, W = unpack(vec)
            loss, g_S, g_W = objective_terms(S, W, X, X_lag)
            h, g_h = acyclicity(S)
            obj = (
                loss
                + 0.5 * rho * h * h
                + alpha * h
                + lambda_s * vec[: 2 * n_s].sum()
                + lambda_w * vec[2 * n_s :].sum()
            )
            g_S_smooth = (g_S + (rho * h + alpha) * g_h).ravel()
            g_W_smooth = g_W.ravel()
            grad = np.concatenate(
                [
                    g_S_smooth + lambda_s,
                    -g_S_smooth + lambda_s,
                    g_W_smooth + lambda_w,
                    -g_W_smooth + lambda_w,
                ]
            )
            return obj, grad

        return func

    # every part is nonnegative; the diagonal of S is pinned to zero in both
    lower = np.zeros(2 * n_s + 2 * n_w)
    upper = np.full(lower.shape, np.inf)
    upper[: 2 * n_s][np.tile(np.eye(m, dtype=bool).ravel(), 2)] = 0.0

    vec = np.zeros(2 * n_s + 2 * n_w)
    rho, alpha, h = 1.0, 0.0, np.inf
    for _ in range(MAX_OUTER):
        while True:
            vec_new, _ = lbfgsb(make_func(rho, alpha), vec, lower, upper)
            h_new, _ = acyclicity(unpack(vec_new)[0])
            if h_new > 0.25 * h and rho < RHO_MAX:
                rho *= 10
                continue
            break
        vec, h = vec_new, h_new
        alpha += rho * h
        if h <= h_tol or rho >= RHO_MAX:
            break

    S_est, W_est = unpack(vec)
    S_est[np.abs(S_est) < w_threshold] = 0.0
    np.fill_diagonal(S_est, 0.0)
    W_est[np.abs(W_est) < w_threshold] = 0.0
    W_list = tuple(W_est[tau * m : (tau + 1) * m] for tau in range(p))
    graph = DynamicGraph(S=S_est, W=W_list, variable_names=panel.names)
    if h > h_tol:
        raise NotAcyclic(
            f"h={h:.3e} above tolerance {h_tol:.1e} at rho={rho:.0e}", graph=graph
        )
    return graph


def dynotears_select(graph: DynamicGraph, target_name: str) -> FeatureSet:
    """Features with a surviving edge into the target, at any lag or
    instantaneously; edges leaving the target do not count."""
    weights = graph.in_weights(target_name)
    return FeatureSet(frozenset(n for n, w in weights.items() if w > 0.0))
