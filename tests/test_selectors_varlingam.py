from itertools import permutations

import numpy as np
import pytest

from causalfs.backtest import BacktestConfig, run_backtest
from causalfs.errors import TooManyCovariates
from causalfs.ingest import RegimeCalendar
from causalfs.selectors import (
    cluster_prefilter,
    Step,
    make_selector,
    varlingam_fit,
    varlingam_select,
)
from causalfs.selectors import varlingam as varlingam_mod
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


@pytest.mark.parametrize("seed", range(3))
def test_graph_rows_are_causes(seed):
    # lag-only chain X1 -> Y -> X2; a graph in the effect-row orientation
    # would put each 0.8 in the transposed cell and miss by 0.8
    W = np.zeros((3, 3))
    W[1, 0] = 0.8  # X1 -> Y
    W[0, 2] = 0.8  # Y -> X2
    panel, _ = simulate_svar(np.zeros((3, 3)), [W], n=2000, noise="laplace", seed=seed)
    graph = varlingam_fit(panel, p=1, seed=seed).graph
    assert graph.variable_names == ("Y", "X1", "X2")
    assert np.abs(graph.W[0] - W).max() <= 0.2


def test_identity_prefilter_when_k_equals_d(rng):
    panel = make_panel(rng.normal(size=50), rng.normal(size=(50, 4)))
    kept = cluster_prefilter(panel, k_clusters=4, seed=0)
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
    kept = cluster_prefilter(panel, k_clusters=2, seed=1)
    assert len(kept) == 2
    assert "X2" in kept  # strongest within the base cluster


def _assert_constant_feature_scores_zero(rng, value):
    # the constant column comes first, so a tie with it would keep it
    n = 200
    target = rng.uniform(-1, 1, size=n)
    weak = 0.1 * target + rng.uniform(-1, 1, size=n)
    panel = make_panel(target, np.column_stack([np.full(n, value), weak]))
    assert cluster_prefilter(panel, k_clusters=1, seed=0) == ("X2",)
    fs = varlingam_select(panel, p=1, k_clusters=1, seed=0)
    assert "X1" not in fs.selected


def test_constant_feature_scores_zero_and_is_never_kept(rng):
    _assert_constant_feature_scores_zero(rng, 3.0)


def test_constant_feature_with_rounded_mean_scores_zero(rng):
    _assert_constant_feature_scores_zero(rng, 0.3)  # the mean of 200 0.3s rounds


def test_constant_feature_does_not_take_a_cluster():
    # standardised, a constant 0.07 column used to read -0.99 in every row
    # (its mean rounds), won a k-means cluster and left FastICA a singular
    # covariance; centred, it is all zeros and joins a cluster of weak series
    base = generate_svar(SvarSpec(d=8, n=70, instantaneous=False, target_parents=3,
                                  ar_coeff=0.3, seed=2))[0]
    panel = make_panel(base.target, np.column_stack([base.features, np.full(70, 0.07)]))
    assert "X8" not in cluster_prefilter(panel.head(60), k_clusters=4, seed=2)
    fs = varlingam_select(panel.head(60), p=1, k_clusters=4, seed=2)
    assert "X8" not in fs.selected


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


def test_prefiltered_features_are_never_selected(rng):
    n = 400
    feats = rng.uniform(-1, 1, size=(n, 6))
    y = rng.uniform(-1, 1, size=n)
    panel = make_panel(y, feats)
    kept = cluster_prefilter(panel, k_clusters=3, seed=0)
    assert len(kept) <= 3
    fs = varlingam_select(panel, p=1, k_clusters=3, seed=0, edge_threshold=0.0)
    assert fs.selected <= set(kept) and fs.p_values == {}


def test_deterministic_given_seed():
    panel, _ = chain_panel(4, n=600)
    a = varlingam_select(panel, p=1, seed=12)
    b = varlingam_select(panel, p=1, seed=12)
    assert a.selected == b.selected


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


def laplace_panel(d, n, seed):
    panel, _ = generate_svar(
        SvarSpec(d=d, p=1, n=n, edge_density=0.3, seed=seed, noise="laplace")
    )
    return panel


def test_causal_order_never_computed_during_selection(monkeypatch):
    panel = laplace_panel(8, 300, seed=3)  # m = 8: the exhaustive branch
    cal = RegimeCalendar(())
    cfg = BacktestConfig(window=290, selector_id="varlingam", seed=2)
    direct = varlingam_select(panel, p=1, seed=7)
    registry = make_selector("varlingam", {})(Step(panel, 1, 7, cal))
    ledger = run_backtest(panel, cal, cfg)

    def boom(B0):
        raise AssertionError("causal order computed during selection")

    monkeypatch.setattr(varlingam_mod, "_causal_order", boom)
    for got, want in [
        (varlingam_select(panel, p=1, seed=7), direct),
        (make_selector("varlingam", {})(Step(panel, 1, 7, cal)), registry),
    ]:
        assert got.selected == want.selected
    assert run_backtest(panel, cal, cfg).records == ledger.records


def brute_force_order(B0):
    """Lexicographically first permutation with the least upper-triangle mass."""
    m = B0.shape[0]
    perms = np.array(list(permutations(range(m))))
    a, b = np.triu_indices(m, k=1)
    scores = (B0[perms[:, a], perms[:, b]] ** 2).sum(axis=1)
    return tuple(int(i) for i in perms[np.argmin(scores)])


@pytest.mark.parametrize("sparse_dag", [False, True])
def test_exhaustive_order_matches_brute_force(rng, sparse_dag):
    A0 = rng.normal(size=(8, 8))
    if sparse_dag:
        # a relabelled sparse DAG: many orders score exactly 0, a tie to break
        A0 = np.tril(A0 * (rng.uniform(size=(8, 8)) < 0.3), -1)
        relabel = rng.permutation(8)
        A0 = A0[np.ix_(relabel, relabel)]
    np.fill_diagonal(A0, 0.0)
    assert varlingam_mod._causal_order(A0) == brute_force_order(A0)


def test_greedy_order_names_every_variable_once():
    res = varlingam_fit(laplace_panel(9, 300, seed=5), p=1, seed=0)  # m = 9
    assert len(res.variable_names) == 9
    assert sorted(res.causal_order) == sorted(res.variable_names)


def test_causal_order_is_cached(monkeypatch):
    res = varlingam_fit(chain_panel(1, n=400)[0], p=1, seed=1)
    calls = []
    original = varlingam_mod._causal_order

    def counting(B0):
        calls.append(1)
        return original(B0)

    monkeypatch.setattr(varlingam_mod, "_causal_order", counting)
    first = res.causal_order
    assert res.causal_order is first
    assert len(calls) == 1
