import re

import numpy as np
import pytest

from causalfs.errors import GenerationFailed
from causalfs.ingest import (
    load_prices,
    parse_fredmd,
    parse_groups,
    prices_to_returns,
    transform_panel,
)
from causalfs.numerics import acyclicity
from causalfs.panel import AlignedPanel, MonthStamp, align_and_shift
from causalfs.selectors.base import DynamicGraph, FeatureSet
from causalfs.synthlab import (
    BURN_IN,
    EnvShift,
    _draw_graph,
    SvarSpec,
    export_fredmd,
    generate_svar,
    score_graph_edges,
    score_recovery,
    simulate_svar,
)


def fs(names):
    return FeatureSet(frozenset(names))


class TestGeneration:
    def test_same_seed_identical_panels(self):
        spec = SvarSpec(d=5, p=2, n=100, edge_density=0.3, seed=42)
        p1, t1 = generate_svar(spec)
        p2, t2 = generate_svar(spec)
        np.testing.assert_array_equal(p1.target, p2.target)
        np.testing.assert_array_equal(p1.features, p2.features)
        np.testing.assert_array_equal(t1.S, t2.S)

    def test_density_zero_gives_independent_noise(self):
        panel, truth = generate_svar(
            SvarSpec(d=4, p=1, n=4000, edge_density=0.0, seed=0,
                     instantaneous=False)
        )
        assert not truth.S.any()
        assert not truth.W[0].any()
        C = np.corrcoef(np.column_stack([panel.target, panel.features]).T)
        off = C - np.diag(np.diag(C))
        assert np.max(np.abs(off)) < 0.08  # pure sampling noise at n=4000

    def test_var1_autocovariance_matches_lyapunov_oracle(self):
        # chain with known W; solve the discrete Lyapunov equation directly
        d = 3
        S = np.zeros((d, d))
        W = np.zeros((d, d))
        W[0, 0], W[1, 1], W[2, 2] = 0.5, 0.4, 0.3
        W[1, 0] = 0.6  # X1 -> Y
        panel, _ = simulate_svar(S, [W], n=10000, seed=13)
        X = np.column_stack([panel.target, panel.features])
        sample_cov = np.cov(X.T, ddof=1)
        # x_t = A x_{t-1} + e, A = W^T here (dest-row), Sigma solves
        # Sigma = A Sigma A^T + I
        A = W.T
        Sigma = np.eye(d)
        for _ in range(500):
            Sigma = A @ Sigma @ A.T + np.eye(d)
        assert np.max(np.abs(sample_cov - Sigma)) < 0.15

    def test_instantaneous_truth_is_acyclic(self):
        for seed in range(20):
            _, truth = generate_svar(
                SvarSpec(d=6, p=1, n=50, edge_density=0.5, seed=seed)
            )
            h, _ = acyclicity(truth.S)
            assert h <= 1e-10

    def test_target_parents_pinned(self):
        for seed in range(10):
            _, truth = generate_svar(
                SvarSpec(d=8, p=1, n=50, edge_density=0.3, seed=seed,
                         instantaneous=False, target_parents=3)
            )
            assert len(truth.parents_of("Y")) == 3

    def test_environment_shift_moves_mean(self):
        spec = SvarSpec(
            d=3, p=1, n=600, edge_density=0.0, ar_coeff=0.2, seed=4,
            instantaneous=False,
            environment_shifts=(EnvShift("X1", start_row=300, mean=5.0),),
        )
        panel, _ = generate_svar(spec)
        x1 = panel.data[:, panel.names.index("X1")]
        assert abs(x1[:300].mean()) < 0.5
        assert abs(x1[300:].mean() - 5.0 / (1 - 0.2)) < 0.5

    def test_shifts_do_not_change_graph_or_base_noise(self):
        base = SvarSpec(d=4, p=1, n=200, edge_density=0.3, seed=17)
        shifted = SvarSpec(
            d=4, p=1, n=200, edge_density=0.3, seed=17,
            environment_shifts=(EnvShift("X1", start_row=100, mean=2.0),),
        )
        p1, t1 = generate_svar(base)
        p2, t2 = generate_svar(shifted)
        np.testing.assert_array_equal(t1.S, t2.S)
        np.testing.assert_array_equal(t1.W[0], t2.W[0])
        np.testing.assert_array_equal(p1.target[:50], p2.target[:50])

    @pytest.mark.parametrize("kwargs", [
        {"d": 1}, {"p": 0}, {"n": 0}, {"noise": "cauchy"},
        {"target_parents": -1}, {"target_parents": 4},
        {"environment_shifts": (EnvShift("X9", start_row=10),)},
        {"environment_shifts": (EnvShift("X1", start_row=100),)},
        {"environment_shifts": (EnvShift("X1", start_row=-1),)},
        {"seed": -1},
    ], ids=["d-one", "p-zero", "n-zero", "noise-unknown", "target-parents-negative",
            "target-parents-above-features", "shift-unknown-variable",
            "shift-start-past-end", "shift-start-negative", "seed-negative"])
    def test_spec_rejects_what_cannot_be_generated(self, kwargs):
        with pytest.raises(ValueError):
            SvarSpec(**{"d": 4, "n": 100, **kwargs})

    def test_simulate_takes_a_generator_as_its_seed(self):
        S, W = np.zeros((3, 3)), [np.eye(3) * 0.5]
        by_int, _ = simulate_svar(S, W, n=30, seed=11)
        by_generator, _ = simulate_svar(S, W, n=30, seed=np.random.default_rng(11))
        np.testing.assert_array_equal(by_generator.features, by_int.features)
        np.testing.assert_array_equal(by_generator.target, by_int.target)

    def test_spec_accepts_its_bounds(self):
        spec = SvarSpec(d=4, n=100, target_parents=0,
                        environment_shifts=[EnvShift("Y", 0), EnvShift("X3", 99)])
        assert len(spec.environment_shifts) == 2
        SvarSpec(d=4, n=100, target_parents=3)

    @pytest.mark.parametrize("shift", [
        EnvShift("X9", start_row=10), EnvShift("X1", start_row=50),
        EnvShift("X1", start_row=500), EnvShift("X1", start_row=-1),
    ], ids=["unknown-variable", "start-at-end", "start-past-end", "start-negative"])
    def test_explicit_graph_rejects_shifts_that_cannot_apply(self, shift):
        with pytest.raises(ValueError, match=re.escape(str(shift))):
            simulate_svar(np.zeros((3, 3)), [np.eye(3) * 0.5], n=50, seed=0,
                          environment_shifts=(shift,))

    @pytest.mark.parametrize("kwargs, named", [
        ({"S": [[0, .5], [.5, 0]]}, "cycle"),
        ({"S": [[0, 1], [1, 0]]}, "cycle"),
        ({"S": [[.5, 0], [0, 0]]}, "cycle"),
        ({"W": [np.eye(3) * .5]}, "W_1 has shape (3, 3)"),
        ({"W": []}, "at least one lag matrix"),
        ({"S": np.zeros((2, 3))}, "square"),
        ({"S": [[0, np.nan], [0, 0]]}, "finite"),
        ({"n": 0}, "n must be an integer >= 1"),
        ({"n": -300}, "n must be an integer >= 1"),
        ({"n": 5.0}, "n must be an integer >= 1"),
        ({"noise": "cauchy"}, "unknown noise family 'cauchy'"),
        ({"names": ("Y",)}, "2 unique names"),
        ({"names": ("Y", "Y")}, "2 unique names"),
    ], ids=["two-cycle", "singular-cycle", "self-loop", "W-shape", "W-empty",
            "S-not-square", "S-nan", "n-zero", "n-negative", "n-float",
            "noise-unknown", "names-short", "names-repeated"])
    def test_explicit_inputs_rejected_before_noise_is_drawn(self, kwargs, named):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(named)):
            simulate_svar(**{"S": np.zeros((2, 2)), "W": [np.eye(2) * .5], "n": 50,
                             "seed": rng, **kwargs})
        assert rng.bit_generator.state == state

    def test_explosive_explicit_graph_fails(self):
        W = np.eye(3) * 1.5
        with pytest.raises(GenerationFailed):
            simulate_svar(np.zeros((3, 3)), [W], n=50, seed=0)

    def test_noise_families(self):
        for family in ("gaussian", "uniform", "laplace"):
            panel, _ = generate_svar(
                SvarSpec(d=3, p=1, n=5000, edge_density=0.0, seed=1,
                         noise=family, instantaneous=False)
            )
            assert abs(panel.target.std(ddof=1) - 1.0) < 0.1


class TestScoring:
    def graph(self, parents):
        d = 4
        names = ("Y", "X1", "X2", "X3")
        W = np.zeros((d, d))
        for name in parents:
            W[names.index(name), 0] = 0.5
        return DynamicGraph(S=np.zeros((d, d)), W=(W,), variable_names=names)

    def test_exact_match(self):
        truth = self.graph(["X1", "X2"])
        score = score_recovery(fs(["X1", "X2"]), truth)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_selection_vacuous_precision(self):
        truth = self.graph(["X1"])
        score = score_recovery(fs([]), truth)
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_random_case_matches_set_arithmetic(self, rng):
        names = ["X1", "X2", "X3"]
        for _ in range(25):
            true_set = {n for n in names if rng.random() < 0.5}
            sel_set = {n for n in names if rng.random() < 0.5}
            truth = self.graph(sorted(true_set))
            score = score_recovery(fs(sorted(sel_set)), truth)
            hits = len(true_set & sel_set)
            precision = hits / len(sel_set) if sel_set else 1.0
            recall = hits / len(true_set) if true_set else 1.0
            assert score.precision == pytest.approx(precision)
            assert score.recall == pytest.approx(recall)

    def test_edge_scoring(self):
        est = self.graph(["X1", "X2"])
        truth = self.graph(["X1", "X3"])
        score = score_graph_edges(est, truth)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)


class TestExportRoundTrip:
    def test_ingest_schema_round_trip(self):
        panel, _ = generate_svar(
            SvarSpec(d=4, p=1, n=120, edge_density=0.2, seed=6)
        )
        # exported target is a price path; returns come back in percent
        fredmd_csv, groups_csv, prices_csv = export_fredmd(panel)
        raw, tcodes, _ = parse_fredmd(fredmd_csv, parse_groups(groups_csv))
        transformed = transform_panel(raw, tcodes)
        returns = prices_to_returns(load_prices(prices_csv))
        back = align_and_shift(returns, transformed, shift_months=0, target_name="Y")
        assert back.dates == panel.dates
        np.testing.assert_allclose(back.features, panel.features, rtol=1e-9)
        np.testing.assert_allclose(back.target, panel.target, rtol=1e-7, atol=1e-9)

    def test_names_needing_quotes_round_trip(self):
        panel, _ = generate_svar(SvarSpec(d=3, p=1, n=30, seed=6))
        names = ("A,B", 'say "C"')
        panel = AlignedPanel(panel.dates, panel.data, ("Y", *names))
        fredmd_csv, groups_csv, _ = export_fredmd(panel)
        raw, _, groups = parse_fredmd(fredmd_csv, parse_groups(groups_csv))
        assert raw.names == names and tuple(groups) == names
        assert raw.values.tolist() == panel.features.tolist()

    def test_prices_csv_holds_each_price_as_its_repr(self):
        panel, _ = generate_svar(SvarSpec(d=3, p=1, n=30, seed=6))
        lines = export_fredmd(panel)[2].splitlines()
        prices = 100.0 * np.cumprod(1.0 + panel.target / 100.0)
        assert lines[:2] == ["date,close", f"{panel.dates[0].plus(-1)}-28,100.0"]
        assert lines[2:] == [f"{d}-28,{v!r}" for d, v in zip(panel.dates, prices.tolist())]

    def test_export_writes_each_value_as_its_repr(self):
        # every cell is repr(float(v)), the shortest text that reads back as v
        panel, _ = generate_svar(SvarSpec(d=6, p=1, n=30, noise="laplace", seed=8))
        features = np.array(panel.features)
        features[0, :3] = [-0.0, 1e-300, 123456789.0]
        panel = AlignedPanel(panel.dates, np.column_stack([panel.target, features]), panel.names)
        rows = export_fredmd(panel)[0].splitlines()[2:]
        assert len(rows) == len(panel)
        for d, row, text in zip(panel.dates, panel.features, rows):
            assert text == f"{d.month}/1/{d.year}," + ",".join(repr(float(v)) for v in row)
        assert rows[0].split(",")[1:4] == ["-0.0", "1e-300", "123456789.0"]


def _oracle_recursion(S, W, n, noise, rng, names, shifts):
    """The plain row-by-row simulation: a fresh drive vector and one
    temporary product per lag and row, then one product with the inverse.
    The optimised loop must match it bit for bit."""
    d = S.shape[0]
    p = len(W)
    inv = np.linalg.inv(np.eye(d) - S)
    total = n + BURN_IN
    if noise == "gaussian":
        eps = rng.standard_normal((total, d))
    elif noise == "uniform":
        eps = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(total, d))
    else:
        eps = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(total, d))
    for shift in shifts:
        j = names.index(shift.variable)
        start = BURN_IN + shift.start_row
        eps[start:, j] = shift.mean + shift.scale * eps[start:, j]
    X = np.zeros((total, d))
    for t in range(total):
        drive = eps[t].copy()
        for tau in range(1, p + 1):
            if t - tau >= 0:
                drive += X[t - tau] @ W[tau - 1]
        X[t] = drive @ inv
    return X[BURN_IN:]


def _oracle_generate(spec):
    """generate_svar computed plainly: its own inverse of I - S for every
    spectral radius, then the row loop above."""
    def radius(S, W):
        d, p = S.shape[0], len(W)
        inv = np.linalg.inv(np.eye(d) - S)
        comp = np.zeros((d * p, d * p))
        for tau, w in enumerate(W):
            comp[:d, tau * d : (tau + 1) * d] = (w @ inv).T
        if p > 1:
            comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
        return float(np.max(np.abs(np.linalg.eigvals(comp))))

    rng = np.random.default_rng(spec.seed)
    S, W = _draw_graph(spec, rng)
    for _ in range(20):
        rho = radius(S, W)
        if rho < 0.95:
            break
        W = [w * (0.9 / rho) for w in W]
    names = ("Y", *[f"X{i}" for i in range(1, spec.d)])
    X = _oracle_recursion(S, W, spec.n, spec.noise, rng, names, spec.environment_shifts)
    return X, W


def _assert_dates(panel):
    start = MonthStamp(2000, 1)
    assert panel.dates == tuple(start.plus(i) for i in range(len(panel)))


class TestSimulationMatchesRowLoopOracle:
    """Bytes, not a tolerance: a stored digest would pin one BLAS build,
    while the oracle runs on the same one as the code under test."""

    @pytest.mark.parametrize("n", [1, 3, 500])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("noise", ["gaussian", "uniform", "laplace"])
    def test_generated_panel(self, noise, p, n):
        for instantaneous in (True, False):
            for shifts in ((), (EnvShift("X2", n // 2, mean=1.5, scale=2.0),)):
                spec = SvarSpec(d=5, p=p, n=n, edge_density=0.4, noise=noise,
                                instantaneous=instantaneous, environment_shifts=shifts,
                                seed=7 * p + n)
                panel, truth = generate_svar(spec)
                expected, W = _oracle_generate(spec)
                assert [w.tobytes() for w in truth.W] == [w.tobytes() for w in W]
                assert panel.data.tobytes() == expected.tobytes()
                _assert_dates(panel)

    @pytest.mark.parametrize("p", [1, 3])
    def test_explicit_graph_continues_a_generator(self, p):
        spec = SvarSpec(d=4, p=p, n=40, edge_density=0.5, seed=2)
        _, truth = generate_svar(spec)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for n in (40, 1, 25):
            panel, _ = simulate_svar(truth.S, truth.W, n=n, noise="laplace", seed=ours)
            expected = _oracle_recursion(truth.S, truth.W, n, "laplace", theirs,
                                         panel.names, ())
            assert panel.data.tobytes() == expected.tobytes()
            _assert_dates(panel)

    def test_backtest_wide_spec(self):
        spec = SvarSpec(d=121, p=1, n=170, edge_density=0.02, instantaneous=False,
                        target_parents=3, ar_coeff=0.3, seed=5)
        panel, _ = generate_svar(spec)
        expected, _ = _oracle_generate(spec)
        assert panel.data.tobytes() == expected.tobytes()
        _assert_dates(panel)
