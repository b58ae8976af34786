import numpy as np
import pytest

from causalfs.errors import TooManyCovariates
from causalfs.selectors import cluster_prefilter, varlingam_fit, varlingam_select
from causalfs.synthlab import SvarSpec, generate_svar, simulate_svar

from conftest import make_panel


def chain_panel(seed, n=2000):
    # instantaneous chain X1 -> X2 -> Y with uniform noise and mild AR
    S = np.zeros((3, 3))
    S[1, 2] = 0.8  # X1 -> X2
    S[2, 0] = 0.9  # X2 -> Y
    W = [np.diag([0.3, 0.3, 0.3])]
    return simulate_svar(S, W, n=n, noise="uniform", seed=seed)


def test_chain_recovers_order_and_parent():
    ok_order = 0
    ok_set = 0
    for seed in range(40):
        panel, _ = chain_panel(seed)
        res = varlingam_fit(panel, p=1, seed=seed)
        if res.causal_order == ("X1", "X2", "Y"):
            ok_order += 1
        fs = varlingam_select(panel, p=1, seed=seed, edge_threshold=0.1)
        if set(fs.selected) == {"X2"}:
            ok_set += 1
    assert ok_order >= 36  # 90%
    assert ok_set >= 36


def test_identity_prefilter_when_k_equals_d(rng):
    panel = make_panel(rng.normal(size=50), rng.normal(size=(50, 4)))
    kept, _ = cluster_prefilter(panel, k_clusters=4, seed=0)
    assert kept == panel.feature_names


def test_prefilter_keeps_strongest_per_cluster(rng):
    n = 300
    base = rng.normal(size=n)
    # two tight clusters of features; X2 and X3 track the target best
    target = np.concatenate([[0.0], base[:-1]])
    f1 = base + 2.0 * rng.normal(size=n)
    f2 = base + 0.1 * rng.normal(size=n)
    other = rng.normal(size=n)
    f3 = other + 0.1 * rng.normal(size=n)
    f4 = other + 2.0 * rng.normal(size=n)
    target = base  # correlate with the base cluster directly
    panel = make_panel(target, np.column_stack([f1, f2, f3, f4]))
    kept, corr = cluster_prefilter(panel, k_clusters=2, seed=1)
    assert len(kept) == 2
    assert "X2" in kept  # strongest within the base cluster


def test_constant_feature_scores_zero_and_is_never_kept(rng):
    # the constant column comes first, so a tie with it would keep it
    n = 200
    target = rng.uniform(-1, 1, size=n)
    weak = 0.1 * target + rng.uniform(-1, 1, size=n)
    panel = make_panel(target, np.column_stack([np.full(n, 3.0), weak]))
    kept, corr = cluster_prefilter(panel, k_clusters=1, seed=0)
    assert corr["X1"] == 0.0
    assert kept == ("X2",)
    fs = varlingam_select(panel, p=1, k_clusters=1, seed=0)
    assert "X1" not in fs.selected


def test_no_dependence_mostly_empty():
    empty = 0
    for seed in range(50):
        panel, _ = generate_svar(
            SvarSpec(d=4, p=1, n=800, edge_density=0.0, ar_coeff=0.3,
                     noise="uniform", instantaneous=False, seed=seed,
                     target_parents=0)
        )
        fs = varlingam_select(panel, p=1, seed=seed, edge_threshold=0.1)
        if not fs.selected:
            empty += 1
    assert empty >= 45  # >= 90%


def test_too_many_covariates(rng):
    panel = make_panel(rng.normal(size=12), rng.normal(size=(12, 20)))
    with pytest.raises(TooManyCovariates):
        varlingam_fit(panel, p=1)


def test_diagnostics_cover_dropped_features(rng):
    n = 400
    feats = rng.uniform(-1, 1, size=(n, 6))
    y = rng.uniform(-1, 1, size=n)
    panel = make_panel(y, feats)
    fs = varlingam_select(panel, p=1, k_clusters=3, seed=0)
    assert set(fs.diagnostics) == set(panel.feature_names)


def test_deterministic_given_seed():
    panel, _ = chain_panel(4, n=600)
    a = varlingam_select(panel, p=1, seed=12)
    b = varlingam_select(panel, p=1, seed=12)
    assert a.selected == b.selected
    assert a.diagnostics == b.diagnostics


def test_instantaneous_and_lagged_switches():
    # lag-only dependence: with instantaneous edges disabled the lagged
    # channel must still find it, and vice versa must not
    S = np.zeros((3, 3))
    W = [np.diag([0.2, 0.3, 0.3])]
    W[0][1, 0] = 1.0  # X1 -> Y at lag 1
    panel, _ = simulate_svar(S, W, n=3000, noise="uniform", seed=5)
    lagged_only = varlingam_select(panel, p=1, seed=5, edge_threshold=0.3,
                                   use_instantaneous=False, use_lagged=True)
    instant_only = varlingam_select(panel, p=1, seed=5, edge_threshold=0.3,
                                    use_instantaneous=True, use_lagged=False)
    assert "X1" in lagged_only.selected
    assert "X1" not in instant_only.selected
