import numpy as np
import pytest

import causalfs.selectors.dynotears as dynotears_module
from causalfs.errors import BadName
from causalfs.numerics import acyclicity, standardize
from causalfs.selectors import DynamicGraph, dynotears_fit, dynotears_select
from causalfs.panel import stack_lags
from causalfs.selectors.dynotears import objective_terms
from causalfs.synthlab import SvarSpec, generate_svar, score_graph_edges

from conftest import make_panel


def test_recovers_known_sparse_graph():
    scores = []
    for seed in range(10):
        panel, truth = generate_svar(
            SvarSpec(d=5, p=1, n=500, edge_density=0.25, seed=seed)
        )
        graph = dynotears_fit(panel, p=1)
        assert acyclicity(graph.S)[0] <= 1e-8
        scores.append(score_graph_edges(graph, truth).f1)
    assert float(np.mean(scores)) >= 0.8


def test_heavy_regularization_empties_graph(rng):
    panel, _ = generate_svar(SvarSpec(d=4, p=1, n=300, edge_density=0.3, seed=1))
    graph = dynotears_fit(panel, p=1, lambda_s=1e3, lambda_w=1e3)
    assert not graph.S.any()
    assert not any(w.any() for w in graph.W)


def test_objective_gradient_matches_finite_differences(rng):
    panel, _ = generate_svar(SvarSpec(d=4, p=2, n=200, edge_density=0.3, seed=3))
    data = standardize(np.column_stack([panel.target, panel.features]))
    X, X_lag = stack_lags(data, 2)
    m = 4
    for _ in range(3):
        S = rng.normal(size=(m, m)) * 0.3
        W = rng.normal(size=(2 * m, m)) * 0.3
        _, g_S, g_W = objective_terms(S, W, X, X_lag)
        eps = 1e-6

        def loss_at(Sv, Wv):
            return objective_terms(Sv, Wv, X, X_lag)[0]

        for idx in [(0, 1), (2, 3), (3, 0)]:
            Sp, Sm = S.copy(), S.copy()
            Sp[idx] += eps
            Sm[idx] -= eps
            fd = (loss_at(Sp, W) - loss_at(Sm, W)) / (2 * eps)
            assert g_S[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)
        for idx in [(0, 0), (5, 2), (7, 3)]:
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += eps
            Wm[idx] -= eps
            fd = (loss_at(S, Wp) - loss_at(S, Wm)) / (2 * eps)
            assert g_W[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_fitted_instantaneous_matrix_is_dag():
    panel, _ = generate_svar(SvarSpec(d=5, p=1, n=400, edge_density=0.35, seed=9))
    graph = dynotears_fit(panel, p=1)
    h, _ = acyclicity(graph.S)
    assert h <= 1e-8
    assert np.all(np.diag(graph.S) == 0.0)


class TestSelect:
    def graph(self, S, W, names=("Y", "X1", "X2")):
        return DynamicGraph(S=S, W=(W,), variable_names=names)

    def test_single_incoming_edge(self):
        S = np.zeros((3, 3))
        W = np.zeros((3, 3))
        W[1, 0] = 0.5  # X1 -> Y at lag 1
        fs = dynotears_select(self.graph(S, W), "Y")
        assert fs.selected == frozenset({"X1"})

    def test_outgoing_edges_do_not_count(self):
        S = np.zeros((3, 3))
        S[0, 1] = 0.7  # Y -> X1
        W = np.zeros((3, 3))
        W[0, 2] = 0.4  # Y -> X2 lagged
        fs = dynotears_select(self.graph(S, W), "Y")
        assert fs.selected == frozenset()

    def test_matches_incoming_edge_enumeration(self, rng):
        for _ in range(20):
            S = np.where(rng.random((4, 4)) < 0.4, rng.normal(size=(4, 4)), 0.0)
            np.fill_diagonal(S, 0.0)
            W = np.where(rng.random((4, 4)) < 0.4, rng.normal(size=(4, 4)), 0.0)
            names = ("Y", "X1", "X2", "X3")
            graph = DynamicGraph(S=S, W=(W,), variable_names=names)
            fs = dynotears_select(graph, "Y")
            oracle = {
                names[i]
                for i in range(1, 4)
                if S[i, 0] != 0 or W[i, 0] != 0
            }
            assert set(fs.selected) == oracle

    def test_unknown_target(self):
        g = self.graph(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(BadName):
            dynotears_select(g, "NOPE")


def test_unreachable_constraint_raises_with_best_iterate(monkeypatch):
    # starve the penalty schedule so the constraint cannot be enforced
    from causalfs.errors import NotAcyclic

    monkeypatch.setattr(dynotears_module, "RHO_MAX", 1e-6)
    rng = np.random.default_rng(0)
    n = 400
    a = rng.normal(size=n)
    b = 0.9 * a + 0.1 * rng.normal(size=n)  # strong mutual dependence
    panel = make_panel(a, b[:, None])
    try:
        dynotears_fit(panel, p=1, lambda_s=0.0, lambda_w=0.0, h_tol=1e-12)
    except NotAcyclic as exc:
        assert exc.graph is not None
        assert exc.graph.S.shape == (2, 2)
    else:
        pytest.fail("expected NotAcyclic when rho cannot grow")


def test_deterministic_fit():
    panel, _ = generate_svar(SvarSpec(d=4, p=1, n=250, edge_density=0.3, seed=6))
    g1 = dynotears_fit(panel, p=1)
    g2 = dynotears_fit(panel, p=1)
    np.testing.assert_array_equal(g1.S, g2.S)
    np.testing.assert_array_equal(g1.W[0], g2.W[0])


def test_small_sample_warns(rng):
    panel = make_panel(rng.normal(size=6), rng.normal(size=(6, 6)))
    with pytest.warns(UserWarning, match="small"):
        dynotears_fit(panel, p=1, lambda_s=1.0, lambda_w=1.0)
