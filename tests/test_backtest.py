import ast
import dataclasses
import inspect
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalfs
import causalfs.selectors as selectors_module
from causalfs.backtest import (
    BacktestConfig,
    BacktestLedger,
    LedgerRecord,
    config_hash,
    fit_forecast_model,
    ledger_from_csv,
    ledger_to_csv,
    run_backtest,
    run_manifest,
    step_seed,
)
from causalfs.errors import BadName, InsufficientHistory, MalformedCsv, ShapeError
from causalfs.ingest import Regime, RegimeCalendar, load_calendar
from causalfs.numerics import ols_fit
from causalfs.panel import MonthStamp, build_design
from causalfs.selectors import (
    SELECTOR_IDS,
    SELECTORS,
    Environment,
    Step,
    dynotears_fit,
    dynotears_select,
    granger_select,
    make_selector,
    pcmci_select,
    selector_params,
    seqicp_select,
    sfs_select,
    varlingam_select,
)
from causalfs.synthlab import SvarSpec, generate_svar

from conftest import csv_floats, csv_names, make_panel

EMPTY_CAL = RegimeCalendar(())


class TestForecastNext:
    def test_zero_regressors_returns_intercept(self, rng):
        X = rng.normal(size=(10, 0))
        fit = ols_fit(X, np.full(10, 3.25))
        assert fit.predict(np.array([])) == pytest.approx(3.25)

    def test_zero_slopes_return_intercept(self, rng):
        y = np.full(12, 2.0)
        X = rng.normal(size=(12, 2))
        fit = ols_fit(X, y)
        assert fit.predict(rng.normal(size=2)) == pytest.approx(2.0)

    def test_matches_manual_dot_product(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        fit = ols_fit(X, y)
        x_new = rng.normal(size=3)
        oracle = fit.beta[0] + float(fit.beta[1:] @ x_new)
        assert fit.predict(x_new) == pytest.approx(oracle, rel=1e-12)

    def test_length_mismatch(self, rng):
        fit = ols_fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ShapeError):
            fit.predict(np.ones(3))


class TestFitForecastModel:
    @pytest.mark.parametrize("p", [1, 2])
    def test_shuffled_selection_matches_lstsq(self, rng, p):
        T = 40
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 4)))
        selected = ("X3", "X1", "X4")
        fit, regressors = fit_forecast_model(panel, p, selected)

        # independent fit on [1, y_{t-1}, lags 1..p of each selected feature]
        cols = [np.ones(T - p), panel.target[p - 1 : T - 1]]
        x_new = [1.0, panel.target[T - 1]]
        for name in selected:
            x = panel.data[:, panel.names.index(name)]
            cols.extend(x[p - lag : T - lag] for lag in range(1, p + 1))
            x_new.extend(x[T - lag] for lag in range(1, p + 1))
        beta = np.linalg.lstsq(np.column_stack(cols), panel.target[p:], rcond=None)[0]
        oracle = float(beta @ np.array(x_new))
        assert fit.predict(regressors) == pytest.approx(oracle, rel=1e-12)

    def test_insufficient_history(self, rng):
        panel = make_panel(rng.normal(size=3), rng.normal(size=(3, 2)))
        with pytest.raises(InsufficientHistory):
            fit_forecast_model(panel, 2, ("X1",))

    @pytest.mark.parametrize("p", [1, 2])
    def test_every_feature_in_order_fits_the_design(self, rng, p):
        # one layout: the forecast model on all features is the design's fit, bit for bit
        panel = make_panel(rng.normal(size=30), rng.normal(size=(30, 3)))
        design = build_design(panel, p)
        fit, _ = fit_forecast_model(panel, p, panel.feature_names)
        assert fit.beta.tolist() == ols_fit(design.X, design.y).beta.tolist()

    @pytest.mark.parametrize("p", [1, 2])
    def test_narrow_stack_matches_the_full_width_one(self, rng, p):
        # the fit stacks only the selected columns; the same lags read by index
        # arithmetic from the full-width data give the same regressors and beta bit for bit
        T, d = 70, 120
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, d)))
        selected = ("X97", "X4", "X58")
        fit, regressors = fit_forecast_model(panel, p, selected)

        data = np.column_stack([panel.target, panel.features])
        links = [(0, 1), *((1 + panel.feature_names.index(name), lag)
                           for name in selected for lag in range(1, p + 1))]
        rows = np.array([[data[t - lag, var] for var, lag in links] for t in range(p, T + 1)])
        full = ols_fit(rows[:-1], panel.target[p:T])
        assert regressors.tolist() == rows[-1].tolist()
        assert fit.beta.tolist() == full.beta.tolist()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_next_step_regressors_are_the_designs_lags_at_T(self, rng, p):
        # the design's (name, lag) layout over the target and the selected
        # features, in selected order, read at time T: data[T - lag, var]
        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 5)))
        selected = ("X4", "X1", "X5")
        _, regressors = fit_forecast_model(panel, p, selected)

        columns = build_design(panel, p).columns
        layout = [c for name in (panel.target_name, *selected) for c in columns if c[0] == name]
        series = {name: panel.data[:, j] for j, name in enumerate(panel.names)}
        assert regressors.tolist() == [series[name][T - lag] for name, lag in layout]


def _config(**kw):
    base = dict(window=10, p=1, selector_id="granger",
                selector_params={"alpha": 0.05}, seed=1)
    base.update(kw)
    return BacktestConfig(**base)


class TestRunBacktest:
    def test_record_count_T_minus_w(self, rng):
        T, w = 17, 15
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 2)))
        ledger = run_backtest(panel, EMPTY_CAL, _config(window=w))
        assert len(ledger) == T - w == 2

    def test_noiseless_relation_is_learned_exactly(self, rng):
        # Y_{t+1} = 2 * X1_t with a forced single-feature selection
        T = 40
        x = rng.normal(size=T)
        y = np.empty(T)
        y[0] = 0.0
        y[1:] = 2.0 * x[:-1]
        panel = make_panel(y, np.column_stack([x, rng.normal(size=T)]))

        ledger = run_backtest(
            panel, EMPTY_CAL,
            _config(window=10, selector_id="sfs",
                    selector_params={"tol": 1e-12, "max_features": 1}),
        )
        errors = np.abs(ledger.y_true - ledger.y_pred)
        assert np.all(errors <= 1e-8)

    def test_matches_independent_loop_oracle(self):
        panel, _ = generate_svar(
            SvarSpec(d=4, p=1, n=60, edge_density=0.3, seed=8, instantaneous=False)
        )
        cfg = _config(window=25, selector_id="granger",
                      selector_params={"alpha": 0.1}, seed=5)
        ledger = run_backtest(panel, EMPTY_CAL, cfg)

        # naive reimplementation: select + fit + predict per step
        selector = make_selector("granger", {"alpha": 0.1})
        preds = []
        for j in range(25, len(panel)):
            window = panel.head(j)
            fs = selector(Step(window, 1, step_seed(5, j)))
            chosen = tuple(n for n in panel.feature_names if n in fs.selected)
            design = build_design(window, 1)
            cols = [0] + design.feature_column_indices(chosen)
            fit = ols_fit(design.X[:, cols], design.y)
            regressors = [window.target[-1]]
            for name in chosen:
                k = panel.feature_names.index(name)
                regressors.append(window.features[-1, k])
            preds.append(fit.beta[0] + float(fit.beta[1:] @ np.array(regressors)))
        np.testing.assert_array_equal(ledger.y_pred, np.array(preds))

    def test_no_lookahead_recompute_prior_data_only(self):
        panel, _ = generate_svar(
            SvarSpec(d=4, p=1, n=50, edge_density=0.3, seed=2, instantaneous=False)
        )
        cfg = _config(window=20, seed=11)
        ledger = run_backtest(panel, EMPTY_CAL, cfg)
        date_to_row = {d: i for i, d in enumerate(panel.dates)}
        for rec in ledger.records:
            j = date_to_row[rec.date]
            window = panel.head(j)  # rows strictly before the record date
            fit, regressors = fit_forecast_model(window, 1, rec.selected)
            assert fit.predict(regressors) == rec.y_pred

    def test_empty_selection_falls_back_to_target_lag(self, rng):
        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 2)))
        cfg = _config(window=12, selector_id="sfs",
                      selector_params={"tol": 1e300})  # no gain reaches it; inf is rejected
        ledger = run_backtest(panel, EMPTY_CAL, cfg)
        assert len(ledger) == T - 12
        assert all(rec.selected == () for rec in ledger.records)
        assert np.isfinite(ledger.y_pred).all()

    def test_selector_failure_uses_fallback(self, rng, caplog):
        # varlingam cannot run with more covariates than observations:
        # every step fails, the engine must keep predicting regardless
        T = 26
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 30)))
        cfg = _config(window=12, selector_id="varlingam", selector_params={})
        ledger = run_backtest(panel, EMPTY_CAL, cfg)
        assert len(ledger) == T - 12
        assert all(rec.selected == () for rec in ledger.records)

    def test_fallback_log_names_error_class(self, rng, caplog):
        # 12-row windows cannot hold granger's 32 regressors
        T = 14
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 30)))
        with caplog.at_level("WARNING", logger="causalfs.backtest"):
            run_backtest(panel, EMPTY_CAL, _config(window=12))
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert all("(Underdetermined: " in m and "falling back" in m
                   for m in messages)

    def test_programming_error_in_selector_propagates(self, rng, caplog,
                                                      monkeypatch):
        import causalfs.backtest as bt

        def broken(step):
            raise TypeError("bug inside a selector")

        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 2)))
        monkeypatch.setattr(bt, "make_selector", lambda sid, params: broken)
        with caplog.at_level("WARNING", logger="causalfs.backtest"):
            with pytest.raises(TypeError, match="bug inside a selector"):
                run_backtest(panel, EMPTY_CAL, _config(window=20))
        assert not any("falling back" in r.getMessage() for r in caplog.records)

    def test_reselect_cadence(self, rng):
        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 2)))
        calls = []

        import causalfs.backtest as bt

        real = make_selector("granger", {})

        def counting(step):
            calls.append(len(step.panel))
            return real(step)

        orig = bt.make_selector
        bt.make_selector = lambda sid, params: counting
        try:
            run_backtest(panel, EMPTY_CAL, _config(window=20, reselect_every=4))
        finally:
            bt.make_selector = orig
        assert calls == [20, 24, 28]

    def test_hard_error_aborts_with_partial_ledger(self, rng):
        from causalfs.errors import BacktestAborted
        from causalfs.selectors.base import FeatureSet

        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 30)))

        # selection outgrows the window midway: steps before that succeed,
        # then the forecast fit becomes underdetermined and must abort
        def greedy(step):
            names = step.panel.feature_names
            k = 2 if len(step.panel) < 24 else len(names)
            sel = names[:k]
            return FeatureSet(frozenset(sel))

        import causalfs.backtest as bt

        orig = bt.make_selector
        bt.make_selector = lambda sid, params: greedy
        try:
            with pytest.raises(BacktestAborted) as excinfo:
                run_backtest(panel, EMPTY_CAL, _config(window=20))
        finally:
            bt.make_selector = orig
        partial = excinfo.value.partial
        assert partial is not None
        assert 0 < len(partial) < T - 20

    def test_regime_labels_recorded(self, rng):
        T = 20
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 2)))
        crisis_month = panel.dates[16]
        cal = load_calendar(f"{crisis_month}..{crisis_month}\n")
        ledger = run_backtest(panel, cal, _config(window=15))
        by_date = {r.date: r.regime for r in ledger.records}
        assert by_date[crisis_month] is Regime.CRISIS
        assert sum(r is Regime.CRISIS for r in by_date.values()) == 1


class TestSerialization:
    def _ledger(self):
        records = (
            LedgerRecord(
                date=__import__("causalfs").MonthStamp(2020, 1),
                y_true=1.5, y_pred=-0.25, selected=("A", "B"),
                regime=Regime.NORMAL,
            ),
            LedgerRecord(
                date=__import__("causalfs").MonthStamp(2020, 2),
                y_true=-2.0, y_pred=0.125, selected=(),
                regime=Regime.CRISIS,
            ),
        )
        return BacktestLedger(records, {"selector_id": "granger", "seed": 3})

    def test_csv_round_trip(self):
        ledger = self._ledger()
        back = ledger_from_csv(ledger_to_csv(ledger))
        assert back.records == ledger.records

    @given(
        st.integers(1900 * 12, 2100 * 12),
        st.lists(
            st.tuples(csv_floats, csv_floats, st.sampled_from(Regime),
                      st.lists(csv_names, max_size=4).map(tuple)),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_csv_round_trip_is_exact(self, start, rows):
        first = MonthStamp(start // 12, start % 12 + 1)
        records = tuple(
            LedgerRecord(first.plus(i), y_true, y_pred, selected, regime)
            for i, (y_true, y_pred, regime, selected) in enumerate(rows)
        )
        back = ledger_from_csv(ledger_to_csv(BacktestLedger(records, {})))
        assert [(r.date, r.regime, r.selected) for r in back.records] == [
            (r.date, r.regime, r.selected) for r in records
        ]
        np.testing.assert_array_equal(
            np.array([[r.y_true, r.y_pred] for r in back.records]).view(np.int64),
            np.array([[r.y_true, r.y_pred] for r in records]).view(np.int64),
        )

    @pytest.mark.parametrize("months, message", [
        (("2020-01", "2020-02", "2020-02"), "row '2020-02': expected month 2020-03 after 2020-02, "
                                            "got 2020-02"),
        (("2020-01", "2020-03", "2020-04"), "row '2020-03': expected month 2020-02 after 2020-01, "
                                            "got 2020-03"),
        (("2020-12", "2021-01", "2020-11"), "row '2020-11': expected month 2021-02 after 2021-01, "
                                            "got 2020-11"),
    ], ids=["repeated", "skipped", "backwards"])
    def test_csv_months_out_of_step_rejected_naming_the_row(self, months, message):
        # a ledger holds one row per month, in order, as run_backtest wrote it
        text = "date,y_true,y_pred,regime,selected\n" + "".join(
            f"{m},1.0,0.5,normal,X1\n" for m in months)
        with pytest.raises(MalformedCsv) as exc:
            ledger_from_csv(text)
        assert str(exc.value) == message

    def test_manifest_hash_stable(self):
        ledger = self._ledger()
        m1 = run_manifest(ledger)
        m2 = run_manifest(ledger)
        assert m1 == m2
        assert m1["config_sha256"] == config_hash(ledger.config)
        assert m1["n_records"] == 2

    def test_step_seed_stable(self):
        assert step_seed(7, 60) == step_seed(7, 60)
        assert step_seed(7, 60) != step_seed(7, 61)
        assert step_seed(8, 60) != step_seed(7, 60)


class TestConfigValidation:
    def test_window_must_exceed_p_plus_two(self):
        with pytest.raises(ValueError):
            BacktestConfig(window=3, p=1)

    def test_reselect_every_positive(self):
        with pytest.raises(ValueError):
            BacktestConfig(window=10, reselect_every=0)

    @pytest.mark.parametrize("p", [0, -1])
    def test_lag_order_at_least_one(self, p):
        with pytest.raises(ValueError, match="lag order"):
            BacktestConfig(window=10, p=p)

    def test_negative_seed_rejected_at_construction(self):
        # not at the first step, as numpy's bare error from step_seed
        with pytest.raises(ValueError, match="seed must be >= 0"):
            BacktestConfig(window=10, seed=-1)
        assert BacktestConfig(window=10, seed=0).seed == 0


# each selector called directly, with every default left to its signature
DIRECT = {
    "granger": lambda panel, seed: granger_select(build_design(panel, 1)),
    "seqicp": lambda panel, seed: seqicp_select(build_design(panel, 1)),
    "varlingam": lambda panel, seed: varlingam_select(panel, p=1, seed=seed),
    "dynotears": lambda panel, seed: dynotears_select(
        dynotears_fit(panel, p=1), panel.target_name),
    "pcmci": lambda panel, seed: pcmci_select(panel, p=1),
    "sfs": lambda panel, seed: sfs_select(build_design(panel, 1)),
}


class TestSelectorRegistry:
    @pytest.fixture(scope="class")
    def panel(self):
        panel, _ = generate_svar(
            SvarSpec(d=4, p=1, n=80, edge_density=0.3, seed=4,
                     instantaneous=False, noise="laplace")
        )
        return panel

    def test_registry_covers_every_selector(self):
        assert set(SELECTOR_IDS) == set(DIRECT)

    @pytest.mark.parametrize("sid", sorted(DIRECT))
    def test_empty_params_use_signature_defaults(self, panel, sid):
        got = make_selector(sid, {})(Step(panel, 1, 9, EMPTY_CAL))
        np.testing.assert_equal(vars(got), vars(DIRECT[sid](panel, 9)))

    def test_one_selector_call_contract(self):
        # every adapter takes one Step (and the params a config sets), and
        # the one lag-design build in src/ is Step.design's
        for sid, (adapter, _) in SELECTORS.items():
            *named, rest = inspect.signature(adapter).parameters.values()
            assert [p.name for p in named if p.default is p.empty] == ["step"], sid
            assert rest.kind is inspect.Parameter.VAR_KEYWORD, sid
        selector = make_selector("granger", {"alpha": 0.1})
        assert (selector.func, selector.args, selector.keywords) == (
            SELECTORS["granger"][0], (), {"alpha": 0.1})
        src = Path(causalfs.__file__).resolve().parent
        sites = []

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}" if where else node.name
                if node.name == "build_design":
                    sites.append((path.name, where, "def"))
            if isinstance(node, ast.Call) and "build_design" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                sites.append((path.name, where, "call"))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(src.rglob("*.py")):
            visit(ast.parse(path.read_text()), "")
        assert sites == [("panel.py", "build_design", "def"), ("base.py", "Step.design", "call")]

    @pytest.mark.parametrize("sid, params", [
        pytest.param("nope", {}, id="unknown-selector"),
        pytest.param("pcmci", {"alpah": 0.1}, id="unknown-key"),
        pytest.param("granger", {"alpha": "high"}, id="ill-typed"),
        pytest.param("seqicp", {"environments": "calender"}, id="bad-environments"),
        pytest.param("sfs", {"direction": "sideways"}, id="bad-direction"),
        pytest.param("sfs", {"folds": 2.7}, id="int-given-float"),
        pytest.param("sfs", {"max_features": True}, id="int-given-bool"),
        pytest.param("sfs", {"tol": "1e-6"}, id="float-given-string"),
        pytest.param("varlingam", {"use_lagged": 0}, id="bool-given-int"),
        pytest.param("varlingam", {"use_lagged": "false"}, id="bool-given-string"),
        pytest.param("seqicp", {"environments": 1}, id="choice-given-int"),
        pytest.param("granger", {"alpha": 1.0}, id="alpha-one"),
        pytest.param("varlingam", {"k_clusters": 0}, id="k-clusters-zero"),
        pytest.param("dynotears", {"h_tol": -1e-8}, id="h-tol-negative"),
        pytest.param("dynotears", {"lambda_w": -0.1}, id="lambda-w-negative"),
        pytest.param("dynotears", {"lambda_s": -1.0}, id="lambda-s-negative"),
        pytest.param("sfs", {"max_features": -1}, id="max-features-negative"),
        pytest.param("pcmci", [("alpha", 0.1)], id="not-a-table"),
    ])
    def test_bad_params_rejected_before_any_call(self, sid, params):
        with pytest.raises(BadName):
            make_selector(sid, params)

    def test_params_coerced_without_conversion(self):
        got = selector_params("sfs", {"tol": 1, "max_features": 3, "folds": 2,
                                      "direction": "backward"})
        assert got == {"tol": 1.0, "max_features": 3, "folds": 2, "direction": "backward"}
        assert type(got["tol"]) is float
        assert selector_params("varlingam", {"use_lagged": False, "k_clusters": 1}) == {
            "use_lagged": False, "k_clusters": 1}
        assert selector_params("pcmci", {"max_cond_dim": 0}) == {"max_cond_dim": 0}
        assert selector_params("sfs", {"max_features": 0}) == {"max_features": 0}
        assert selector_params("dynotears", {"lambda_w": 0, "lambda_s": 0.0}) == {
            "lambda_w": 0.0, "lambda_s": 0.0}

    def test_seqicp_calendar_environments(self, panel):
        design = build_design(panel, 1)
        crisis = design.dates[30:55]
        cal = load_calendar(f"{crisis[0]}..{crisis[-1]}\n")
        rows = np.arange(design.n)
        envs = [Environment("normal", np.setdiff1d(rows, rows[30:55])),
                Environment("crisis", rows[30:55])]
        selector = make_selector("seqicp", {"environments": "calendar"})
        with mock.patch.object(selectors_module, "seqicp_select", wraps=seqicp_select) as spy:
            got = selector(Step(panel, 1, 0, cal))
        np.testing.assert_equal(vars(got), vars(seqicp_select(design, envs)))
        # the calendar's regimes, not the window's halves, were tested
        [(_, passed), _] = spy.call_args
        assert [(e.label, e.rows.tolist()) for e in passed] == [
            (e.label, e.rows.tolist()) for e in envs]

    def test_seqicp_single_regime_calendar_falls_back_to_halves(self, panel):
        design = build_design(panel, 1)
        selector = make_selector("seqicp", {"environments": "calendar"})
        for cal in (EMPTY_CAL, load_calendar(f"{design.dates[0]}..{design.dates[-1]}\n")):
            np.testing.assert_equal(vars(selector(Step(panel, 1, 0, cal))),
                                    vars(seqicp_select(design)))

    def test_seqicp_short_regime_falls_back_to_halves(self, caplog):
        # windows ending 2005-01..2005-03 hold 3 to 5 crisis rows: too few
        # for seqicp_select's row check, so they test the halves instead of
        # raising Insufficient and reusing last month's set
        panel = generate_svar(SvarSpec(d=6, n=100, seed=3, instantaneous=False,
                                       target_parents=2, ar_coeff=0.3))[0]
        cal = load_calendar("2004-10..2005-12\n")
        params = {"environments": "calendar"}
        config = BacktestConfig(window=60, selector_id="seqicp", selector_params=params)
        with caplog.at_level("WARNING", logger="causalfs.backtest"):
            run_backtest(panel, cal, config)
        assert not any("falling back" in r.getMessage() for r in caplog.records)
        selector = make_selector("seqicp", params)
        for month in ("2005-01", "2005-02", "2005-03"):
            window = panel.head(panel.dates.index(MonthStamp.parse(month)))
            np.testing.assert_equal(vars(selector(Step(window, 1, 0, cal))),
                                    vars(seqicp_select(build_design(window, 1))))


class TestNoLookAheadEverySelector:
    # rows from k on are replaced by fresh noise: the selections and records
    # dated before month k, and the selection and forecast for month k, may
    # read only rows before k, so they must come out bit-identical

    @staticmethod
    def run(panel, cfg):
        """The ledger records, and each step's selection (None if it raised)."""
        import causalfs.backtest as bt

        calls, real = [], make_selector

        def recording(sid, params):
            selector = real(sid, params)

            def recorded(step):
                calls.append(None)
                fs = selector(step)
                calls[-1] = vars(fs)
                return fs

            return recorded

        with mock.patch.object(bt, "make_selector", recording):
            return run_backtest(panel, EMPTY_CAL, cfg).records, calls

    def assert_past_unchanged(self, panel, k, cfg):
        n, d = len(panel), panel.n_features + 1
        rng = np.random.default_rng(k)
        target, features = panel.target.copy(), panel.features.copy()
        target[k:] = rng.normal(size=n - k)
        features[k:] = rng.normal(size=(n - k, d - 1))
        future = dataclasses.replace(panel, data=np.column_stack([target, features]))
        before, selections_before = self.run(panel, cfg)
        after, selections_after = self.run(future, cfg)
        at_k = k - cfg.window
        np.testing.assert_equal(selections_after[:at_k + 1], selections_before[:at_k + 1])
        assert after[:at_k] == before[:at_k]
        assert (after[at_k].y_pred, after[at_k].selected) == (
            before[at_k].y_pred, before[at_k].selected)
        assert after[at_k + 1:] != before[at_k + 1:]  # the overwrite reached the loop

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("sid", SELECTOR_IDS)
    def test_overwritten_future_never_changes_the_past(self, sid, p):
        # DYNOTEARS gets a smaller panel to keep its per-step fits short
        d, n, window, k = (3, 30, 24, 27) if sid == "dynotears" else (4, 40, 25, 32)
        panel, _ = generate_svar(SvarSpec(d=d, p=1, n=n, target_parents=2, seed=5,
                                          noise="laplace", instantaneous=False))
        self.assert_past_unchanged(
            panel, k, _config(window=window, p=p, selector_id=sid, selector_params={}))

    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(2, 5),
        p=st.sampled_from([1, 2]),
        window=st.integers(20, 30),
        offset=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_overwritten_future_never_changes_the_past_on_generated_panels(
        self, seed, d, p, window, offset
    ):
        # DYNOTEARS and VARLiNGAM keep the fixed panels above: their per-step
        # fits would make each example slow
        panel, _ = generate_svar(SvarSpec(d=d, p=1, n=window + 8, target_parents=1,
                                          seed=seed, noise="laplace", instantaneous=False))
        for sid in ("granger", "seqicp", "sfs", "pcmci"):
            self.assert_past_unchanged(panel, window + offset, _config(
                window=window, p=p, selector_id=sid, selector_params={}))
