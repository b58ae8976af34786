import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalfs.errors import RankDeficientWarning
from causalfs.numerics import ols_fit
from causalfs.panel import build_design
from causalfs.selectors import cv_mse, sfs_select

from conftest import make_panel


def naive_cv_mse(design, names, folds):
    """cv_mse recomputed from scratch: one np.linalg.lstsq refit per fold."""
    cols = [0] + [
        i for i, (nm, _) in enumerate(design.columns) if nm in set(names)
    ]
    X = design.X[:, cols]
    y = design.y
    blocks = np.array_split(np.arange(len(y)), folds)
    losses = []
    for block in blocks:
        train = np.setdiff1d(np.arange(len(y)), block)
        A = np.column_stack([np.ones(len(train)), X[train]])
        beta, *_ = np.linalg.lstsq(A, y[train], rcond=None)
        Av = np.column_stack([np.ones(len(block)), X[block]])
        losses.append(float(((y[block] - Av @ beta) ** 2).mean()))
    return float(np.mean(losses))


def naive_forward_path(design, folds, tol, max_features):
    """Independent greedy oracle: exhaustive candidate scan per step using
    only the public cv_mse helper signature recomputed from scratch."""

    def block_mse(names):
        return naive_cv_mse(design, names, folds)

    path = []
    current = []
    current_mse = block_mse(current)
    names = list(design.feature_names)
    while len(current) < max_features:
        scores = []
        for name in names:
            if name in current:
                continue
            scores.append((block_mse(current + [name]), names.index(name), name))
        if not scores:
            break
        best_mse, _, best_name = min(scores)
        if current_mse - best_mse < tol:
            break
        current.append(best_name)
        path.append(best_name)
        current_mse = best_mse
    return path, set(current)


def naive_backward_path(design, folds, tol, max_features):
    """Independent backward oracle: drop the feature whose removal gives the
    lowest naive CV MSE (ties to the lowest column), while that improves by
    at least ``tol`` or more than ``max_features`` features remain."""
    names = list(design.feature_names)
    current = list(names)
    current_mse = naive_cv_mse(design, current, folds)
    path = []
    while current:
        best_mse, _, best_name = min(
            (naive_cv_mse(design, [n for n in current if n != name], folds),
             names.index(name), name)
            for name in current
        )
        if current_mse - best_mse < tol and len(current) <= max_features:
            break
        current.remove(best_name)
        path.append(best_name)
        current_mse = best_mse
    return path, set(current)


def test_forward_matches_exhaustive_greedy_oracle(rng):
    n = 120
    feats = rng.normal(size=(n, 4))
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = 1.2 * feats[:-1, 0] - 0.8 * feats[:-1, 2] + 0.3 * rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 1)
    fs = sfs_select(design, direction="forward", tol=1e-8, folds=5)
    _, oracle_set = naive_forward_path(design, folds=5, tol=1e-8, max_features=4)
    assert set(fs.selected) == oracle_set


def test_perfect_feature_selected_first_then_stop(rng):
    n = 60
    feats = rng.normal(size=(n, 3))
    # feature X2 equals the target's next value exactly, lag-aligned
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = feats[:-1, 1]
    design = build_design(make_panel(y, feats), 1)
    fs = sfs_select(design, direction="forward", tol=1e-10, folds=4)
    assert set(fs.selected) == {"X2"}
    assert cv_mse(design, ["X2"], 4) == pytest.approx(0.0, abs=1e-18)


def test_infinite_tol_gives_empty_set(rng):
    n = 50
    design = build_design(make_panel(rng.normal(size=n), rng.normal(size=(n, 3))), 1)
    fs = sfs_select(design, direction="forward", tol=math.inf)
    assert fs.selected == frozenset()


def test_backward_removes_pure_noise(rng):
    n = 240
    feats = rng.normal(size=(n, 4))
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = 1.5 * feats[:-1, 0] + 0.2 * rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 1)
    fs = sfs_select(design, direction="backward", tol=0.0, folds=5)
    assert "X1" in fs.selected


def test_max_features_cap(rng):
    n = 100
    feats = rng.normal(size=(n, 4))
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = feats[:-1].sum(axis=1) + 0.1 * rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 1)
    fs = sfs_select(design, direction="forward", tol=1e-8, max_features=2)
    assert len(fs.selected) == 2


def test_deterministic(rng):
    n = 90
    feats = rng.normal(size=(n, 4))
    y = rng.normal(size=n)
    design = build_design(make_panel(y, feats), 1)
    a = sfs_select(design, direction="forward", tol=1e-8)
    b = sfs_select(design, direction="forward", tol=1e-8)
    assert a.selected == b.selected


def lagged_panel(rng, n, d, noise=0.5):
    """Panel whose target loads on a random subset of the lagged features."""
    feats = rng.normal(size=(n, d))
    beta = rng.normal(size=d) * (rng.random(d) < 0.6)
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = feats[:-1] @ beta + noise * rng.normal(size=n - 1)
    return make_panel(y, feats)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("collinear", [False, True], ids=["random", "cond1e6"])
def test_cv_mse_matches_per_fold_lstsq_refits(rng, p, collinear):
    n, d = 90, 4
    feats = rng.normal(size=(n, d))
    if collinear:  # X4 nearly copies X3, so its lags nearly copy X3's
        feats[:, 3] = feats[:, 2] + 2e-6 * rng.normal(size=n)
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = feats[:-1, 0] - 0.5 * feats[:-1, 2] + 0.4 * rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), p)
    if collinear:
        A = np.column_stack([np.ones(design.n), design.X])
        assert 1e5 < np.linalg.cond(A) < 1e7
    names = list(design.feature_names)
    for subset in ([], ["X1"], ["X3", "X4"], ["X1", "X2", "X4"], names):
        for folds in (2, 5):
            assert cv_mse(design, subset, folds) == pytest.approx(
                naive_cv_mse(design, subset, folds), rel=1e-10
            )


def test_duplicated_feature_warns_and_equals_ols_fit_path(rng):
    n = 70
    feats = rng.normal(size=(n, 3))
    feats[:, 2] = feats[:, 1]  # X3 is an exact copy of X2
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = feats[:-1, 1] + 0.3 * rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 1)
    with pytest.warns(RankDeficientWarning):
        got = cv_mse(design, ["X2", "X3"], 5)
    X = design.X[:, [0, 2, 3]]
    losses = []
    with pytest.warns(RankDeficientWarning):
        for block in np.array_split(np.arange(design.n), 5):
            train = np.setdiff1d(np.arange(design.n), block)
            fit = ols_fit(X[train], design.y[train])
            pred = np.column_stack([np.ones(len(block)), X[block]]) @ fit.beta
            losses.append(float(((design.y[block] - pred) ** 2).mean()))
    assert got == float(np.mean(losses))


@pytest.mark.parametrize("p", [1, 2])
def test_backward_matches_naive_oracle(rng, p):
    for _ in range(4):
        design = build_design(lagged_panel(rng, 100, 5), p)
        fs = sfs_select(design, direction="backward", tol=1e-8, folds=5)
        _, oracle_set = naive_backward_path(design, folds=5, tol=1e-8, max_features=5)
        assert set(fs.selected) == oracle_set


def test_backward_cap_forces_removals(rng):
    design = build_design(lagged_panel(rng, 100, 5), 1)
    fs = sfs_select(design, direction="backward", tol=math.inf, max_features=2)
    _, oracle_set = naive_backward_path(design, folds=5, tol=math.inf, max_features=2)
    assert len(fs.selected) == 2
    assert set(fs.selected) == oracle_set


@pytest.mark.parametrize("folds", [1, 0, -3])
def test_fewer_than_two_folds_rejected(rng, folds):
    design = build_design(lagged_panel(rng, 50, 3), 1)
    with pytest.raises(ValueError, match="folds"):
        sfs_select(design, folds=folds)
    with pytest.raises(ValueError, match="folds"):
        cv_mse(design, ["X1"], folds)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    p=st.sampled_from([1, 2]),
    folds=st.integers(2, 5),
    n=st.integers(40, 90),
    cap=st.integers(1, 5),
)
def test_selections_equal_naive_lstsq_oracle(seed, d, p, folds, n, cap):
    rng = np.random.default_rng(seed)
    design = build_design(lagged_panel(rng, n, d), p)
    max_features = min(cap, d)
    forward = sfs_select(design, "forward", tol=1e-8, max_features=max_features,
                         folds=folds)
    _, oracle = naive_forward_path(design, folds, 1e-8, max_features)
    assert set(forward.selected) == oracle
    backward = sfs_select(design, "backward", tol=1e-8, max_features=max_features,
                          folds=folds)
    _, oracle = naive_backward_path(design, folds, 1e-8, max_features)
    assert set(backward.selected) == oracle
