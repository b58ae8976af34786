import ast
import dataclasses
import inspect
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalfs
import causalfs.numerics as numerics
import causalfs.selectors as selectors_module
from causalfs.backtest import (
    BacktestConfig,
    BacktestLedger,
    LedgerRecord,
    config_hash,
    fit_forecast_model,
    forecast_block,
    ledger_from_csv,
    ledger_to_csv,
    run_backtest,
    run_manifest,
    step_seed,
)
from causalfs.errors import (
    BacktestAborted,
    BadName,
    InsufficientHistory,
    MalformedCsv,
    RankDeficientWarning,
    ShapeError,
)
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


# a forecast solves the normal equations, and an independent lstsq fit of
# the same design agrees to this tolerance, relative to the largest forecast
FORECAST_REL = 1e-10


def assert_forecasts_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= FORECAST_REL * np.abs(want).max()


def lstsq_forecasts(panel, p, selected, months):
    """The oracle: per month j, lstsq of y_t on [1, y_{t-1}, lags 1..p of each
    selected feature] over t = p..j-1, read at the same lags at t = j."""
    preds = []
    for j in months:
        cols = [np.ones(j - p), panel.target[p - 1 : j - 1]]
        x_new = [1.0, panel.target[j - 1]]
        for name in selected:
            x = panel.data[:, panel.names.index(name)]
            cols.extend(x[p - lag : j - lag] for lag in range(1, p + 1))
            x_new.extend(x[j - lag] for lag in range(1, p + 1))
        beta = np.linalg.lstsq(np.column_stack(cols), panel.target[p:j], rcond=None)[0]
        preds.append(float(beta @ np.array(x_new)))
    return np.array(preds)


def one_month_forecasts(panel, p, selected, months):
    """Each month's forecast from a one-month call on the rows before it."""
    return np.array([fit_forecast_model(panel.head(j), p, selected, [j])[0] for j in months])


class TestFitForecastModel:
    @pytest.mark.parametrize("p", [1, 2])
    def test_shuffled_selection_matches_lstsq(self, rng, p):
        T = 40
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 4)))
        selected = ("X3", "X1", "X4")
        months = range(15, T + 1)
        got = fit_forecast_model(panel, p, selected, months)
        assert_forecasts_close(got, lstsq_forecasts(panel, p, selected, months))

    def test_insufficient_history(self, rng):
        panel = make_panel(rng.normal(size=3), rng.normal(size=(3, 2)))
        with pytest.raises(InsufficientHistory):
            fit_forecast_model(panel, 2, ("X1",), [3])

    @pytest.mark.parametrize("p", [1, 2])
    def test_every_feature_in_order_fits_the_design(self, rng, p):
        # one layout: the forecast's block on all features is the design's, bit for bit
        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 3)))
        design = build_design(panel, p)
        block, regressors = forecast_block(panel, p, panel.feature_names, [T])
        assert block.Z.tobytes() == design.engine.Z.tobytes()
        got = fit_forecast_model(panel, p, panel.feature_names, [T])
        assert_forecasts_close(got, [ols_fit(design.X, design.y).predict(regressors[0])])

    @pytest.mark.parametrize("p", [1, 2])
    def test_narrow_stack_matches_the_full_width_one(self, rng, p):
        # the block stacks only the selected columns; the same lags read by index
        # arithmetic from the full-width data give the same rows bit for bit
        T, d = 70, 120
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, d)))
        selected = ("X97", "X4", "X58")
        months = [60, 66, T]
        block, regressors = forecast_block(panel, p, selected, months)

        data = np.column_stack([panel.target, panel.features])
        links = [(0, 1), *((1 + panel.feature_names.index(name), lag)
                           for name in selected for lag in range(1, p + 1))]
        rows = np.array([[data[t - lag, var] for var, lag in links] for t in range(p, T + 1)])
        assert block.Z[:, 1:-1].tolist() == rows[:-1].tolist()
        assert block.Z[:, -1].tolist() == panel.target[p:T].tolist()
        assert regressors.tolist() == rows[np.array(months) - p].tolist()
        want = [ols_fit(rows[: j - p], panel.target[p:j]).predict(rows[j - p]) for j in months]
        assert_forecasts_close(fit_forecast_model(panel, p, selected, months), want)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_next_step_regressors_are_the_designs_lags_at_T(self, rng, p):
        # the design's (name, lag) layout over the target and the selected
        # features, in selected order, read at each month j: data[j - lag, var]
        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 5)))
        selected = ("X4", "X1", "X5")
        months = [20, 27, T]
        _, regressors = forecast_block(panel, p, selected, months)

        columns = build_design(panel, p).columns
        layout = [c for name in (panel.target_name, *selected) for c in columns if c[0] == name]
        series = {name: panel.data[:, j] for j, name in enumerate(panel.names)}
        assert regressors.tolist() == [
            [series[name][j - lag] for name, lag in layout] for j in months]

    def test_stack_larger_than_one_chunk_gives_the_one_month_bytes(self, rng, monkeypatch):
        T, p = 60, 2
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 6)))
        selected = ("X5", "X2", "X6")
        k = 2 + p * len(selected)
        monkeypatch.setattr(numerics, "_CV_CHUNK_ENTRIES", 3 * (k + 1) ** 2)
        months = range(20, T + 1)
        assert len(numerics.chunk_slices(len(months), (k + 1) ** 2)) == 14
        got = fit_forecast_model(panel, p, selected, months)
        assert got.tobytes() == one_month_forecasts(panel, p, selected, months).tobytes()

    @pytest.mark.parametrize("case", ["near-copy", "rank-deficient-copy", "constant"])
    def test_guard_failing_months_match_ols_fit_bit_for_bit(self, rng, case):
        # each such month is refit by ols_fit: its bits, and one
        # RankDeficientWarning per month whose rank falls short
        T = 40
        x = rng.normal(size=T)
        second = {"near-copy": x + 1e-9 * rng.normal(size=T),
                  "rank-deficient-copy": 3.0 * x,
                  "constant": np.full(T, 0.07)}[case]
        panel = make_panel(rng.normal(size=T), np.column_stack([x, second, rng.normal(size=T)]))
        selected, months = ("X1", "X2", "X3"), range(12, T + 1)
        block, regressors = forecast_block(panel, 1, selected, months)
        with warnings.catch_warnings(record=True) as oracle_warnings:
            warnings.simplefilter("always")
            fits = [ols_fit(block.Z[: j - 1, 1:-1], block.Z[: j - 1, -1]) for j in months]
        want = np.array([fit.predict(x_new) for fit, x_new in zip(fits, regressors)])
        with mock.patch.object(numerics, "ols_fit", wraps=ols_fit) as refit:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = fit_forecast_model(panel, 1, selected, months)
        assert refit.call_count == len(months)  # every month failed the guard
        assert got.tobytes() == want.tobytes()
        deficient = sum(fit.rank < fit.k for fit in fits)
        assert deficient == (0 if case == "near-copy" else len(months))
        assert [w.category for w in caught] == [RankDeficientWarning] * deficient
        assert len(oracle_warnings) == deficient


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
        assert_forecasts_close(ledger.y_pred, preds)

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
            assert fit_forecast_model(window, 1, rec.selected, [j])[0] == rec.y_pred

    @pytest.mark.parametrize("reselect_every", [1, 5])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("sid", SELECTOR_IDS)
    def test_every_month_equals_its_one_month_recompute(self, sid, p, reselect_every):
        # a run's forecasts come from one block, yet each is its month's own fit
        d, n, window = (3, 32, 24) if sid == "dynotears" else (4, 40, 25)
        panel, _ = generate_svar(SvarSpec(d=d, p=1, n=n, target_parents=2, seed=5,
                                          noise="laplace", instantaneous=False))
        cfg = _config(window=window, p=p, selector_id=sid, selector_params={},
                      reselect_every=reselect_every)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # FastICA's NotConvergedWarning
            ledger = run_backtest(panel, EMPTY_CAL, cfg)
        months = [panel.dates.index(rec.date) for rec in ledger.records]
        assert months == list(range(window, n))
        for j, rec in zip(months, ledger.records):
            assert fit_forecast_model(panel.head(j), p, rec.selected, [j])[0] == rec.y_pred

    def test_selection_too_wide_for_the_first_window_aborts_there(self, rng):
        # 30 features at lag 1 need 32 regressors; the first window's 19 rows
        # cannot hold them, so the run aborts as it opens, before a second call
        from causalfs.selectors.base import FeatureSet

        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 30)))
        calls = []

        def everything(step):
            calls.append(len(step.panel))
            return FeatureSet(frozenset(step.panel.feature_names))

        import causalfs.backtest as bt

        with mock.patch.object(bt, "make_selector", lambda sid, params: everything):
            with pytest.raises(BacktestAborted) as excinfo:
                run_backtest(panel, EMPTY_CAL, _config(window=20))
        assert str(excinfo.value) == f"hard error at {panel.dates[20]}: 19 rows for 32 regressors"
        assert len(excinfo.value.partial) == 0
        assert calls == [20]

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

    def test_fit_error_inside_a_run_aborts_at_its_own_month(self, rng, monkeypatch):
        # one selection for all ten months: a fit error at the fourth keeps the
        # three records before it, though the run is forecast at its close
        import causalfs.backtest as bt
        from causalfs.selectors.base import FeatureSet

        T = 30
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, 3)))
        monkeypatch.setattr(bt, "make_selector",
                            lambda sid, params: lambda step: FeatureSet(frozenset({"X2"})))
        cfg = _config(window=20, reselect_every=5)
        full = run_backtest(panel, EMPTY_CAL, cfg)
        fit, runs = bt.fit_forecast_model, []

        def failing(panel, p, selected, months):
            runs.append(list(months))
            if 23 in months:
                raise np.linalg.LinAlgError("SVD did not converge")
            return fit(panel, p, selected, months)

        monkeypatch.setattr(bt, "fit_forecast_model", failing)
        with pytest.raises(BacktestAborted) as excinfo:
            run_backtest(panel, EMPTY_CAL, cfg)
        assert runs == [list(range(20, 30)), [20], [21], [22], [23]]
        assert str(excinfo.value) == f"hard error at {panel.dates[23]}: SVD did not converge"
        assert excinfo.value.partial.records == full.records[:3]

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
