import math

import numpy as np
import pytest

from causalfs.backtest import BacktestLedger, LedgerRecord
from causalfs.errors import Insufficient, Misaligned, WindowTooLong
from causalfs.evaluation import (
    combine_portfolios,
    mae_increase_pct,
    portfolio_metrics,
    regime_metrics,
    rolling_mae,
    rolling_rmse,
    selection_stability,
    stability_to_csv,
    strategy_returns,
)
from causalfs.ingest import Regime, RegimeCalendar, load_calendar
from causalfs.panel import MonthlySeries, MonthStamp

from conftest import month_range

EMPTY_CAL = RegimeCalendar(())


def ledger_from(y_true, y_pred, selected=None, start="2010-01"):
    dates = month_range(start, len(y_true))
    selected = selected or [() for _ in y_true]
    records = tuple(
        LedgerRecord(date=d, y_true=float(t), y_pred=float(p),
                     selected=tuple(s), regime=Regime.NORMAL)
        for d, t, p, s in zip(dates, y_true, y_pred, selected)
    )
    return BacktestLedger(records, {})


class TestRolling:
    def test_constant_error(self):
        ledger = ledger_from(np.full(10, 2.0), np.full(10, 0.5))
        _, rmse = rolling_rmse(ledger, 4)
        np.testing.assert_allclose(rmse, 1.5)
        _, mae = rolling_mae(ledger, 4)
        np.testing.assert_allclose(mae, 1.5)

    def test_h_one_is_absolute_error(self, rng):
        y_true = rng.normal(size=8)
        y_pred = rng.normal(size=8)
        ledger = ledger_from(y_true, y_pred)
        _, vals = rolling_rmse(ledger, 1)
        np.testing.assert_allclose(vals, np.abs(y_true - y_pred), rtol=1e-12)

    def test_matches_bruteforce_windows(self, rng):
        y_true = rng.normal(size=40)
        y_pred = rng.normal(size=40)
        ledger = ledger_from(y_true, y_pred)
        h = 12
        dates, vals = rolling_rmse(ledger, h)
        err = y_true - y_pred
        for k, (d, v) in enumerate(zip(dates, vals)):
            i = k + h - 1
            oracle = math.sqrt(np.mean(err[i - h + 1 : i + 1] ** 2))
            assert v == pytest.approx(oracle, abs=1e-12)
        assert len(dates) == 40 - h + 1

    def test_window_equal_length_is_whole_sample(self, rng):
        y_true = rng.normal(size=15)
        y_pred = rng.normal(size=15)
        ledger = ledger_from(y_true, y_pred)
        _, vals = rolling_rmse(ledger, 15)
        whole = math.sqrt(np.mean((y_true - y_pred) ** 2))
        assert len(vals) == 1
        assert vals[0] == pytest.approx(whole, abs=1e-12)

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            rolling_rmse(ledger_from([1.0], [0.0]), 2)


class TestRegimeMetrics:
    def test_table_arithmetic_frozen_values(self):
        def increase(normal, crisis):
            return mae_increase_pct(
                {Regime.NORMAL: {"mae": normal}, Regime.CRISIS: {"mae": crisis}})

        assert increase(3.39, 4.80) == pytest.approx(41.59, abs=0.05)
        assert increase(3.52, 4.98) == pytest.approx(41.48, abs=0.05)
        assert increase(3.19, 4.52) == pytest.approx(41.69, abs=0.05)

    def test_split_and_increase(self):
        # 3 normal months with |err| 1, then 2 crisis months with |err| 3
        y_true = np.array([1.0, 1, 1, 3, 3])
        y_pred = np.zeros(5)
        ledger = ledger_from(y_true, y_pred, start="2011-01")
        cal = load_calendar("2011-04..2011-05\n")
        report = regime_metrics(ledger, cal)
        assert report[Regime.NORMAL]["mae"] == pytest.approx(1.0)
        assert report[Regime.CRISIS]["mae"] == pytest.approx(3.0)
        assert mae_increase_pct(report) == pytest.approx(200.0)

    def test_single_regime_flags_increase_undefined(self):
        ledger = ledger_from([1.0, 2.0], [0.0, 0.0])
        report = regime_metrics(ledger, EMPTY_CAL)
        assert mae_increase_pct(report) is None
        assert report.get(Regime.CRISIS) is None

    def test_pooled_consistency_invariant(self, rng):
        y_true = rng.normal(size=30)
        y_pred = rng.normal(size=30)
        ledger = ledger_from(y_true, y_pred, start="2007-01")
        cal = load_calendar("2007-07..2008-03\n")
        report = regime_metrics(ledger, cal)
        total = 0.0
        count = 0
        for stats in report.values():
            total += stats["mae"] * stats["count"]
            count += stats["count"]
        pooled = np.abs(y_true - y_pred).mean()
        assert total / count == pytest.approx(pooled, abs=1e-10)


class TestStrategy:
    def test_sign_rule(self):
        ledger = ledger_from([-1.0, -1.0, 2.0], [2.0, -2.0, 0.0])
        series = strategy_returns(ledger)
        np.testing.assert_allclose(series.values, [-1.0, 1.0, 0.0])

    def test_all_correct_signs_cumulate_absolute_returns(self, rng):
        y_true = rng.normal(size=25)
        y_pred = np.sign(y_true) * rng.uniform(0.5, 2.0, size=25)
        series = strategy_returns(ledger_from(y_true, y_pred))
        assert series.values.sum() == pytest.approx(np.abs(y_true).sum(), rel=1e-12)

    def test_position_magnitude_matches_return(self, rng):
        y_true = rng.normal(size=10)
        y_pred = rng.normal(size=10)
        series = strategy_returns(ledger_from(y_true, y_pred))
        nz = y_pred != 0
        np.testing.assert_allclose(
            np.abs(series.values[nz]), np.abs(y_true[nz]), rtol=1e-12
        )


class TestPortfolioMetrics:
    def series(self, returns, start="2015-01"):
        r = np.asarray(returns, dtype=float)
        return MonthlySeries(month_range(start, len(r)), r)

    def test_alternating_returns_zero_mean(self):
        series = self.series([1.0, -1.0] * 12)
        stats = portfolio_metrics(series, EMPTY_CAL)[Regime.NORMAL]
        assert stats["er"] == pytest.approx(0.0)
        assert stats["sharpe"] == pytest.approx(0.0)

    def test_all_positive_flags_sortino_undefined(self):
        series = self.series([1.0, 2.0, 0.5, 1.5])
        stats = portfolio_metrics(series, EMPTY_CAL)[Regime.NORMAL]
        assert stats["sortino"] is None
        assert stats["sharpe"] is not None

    def test_matches_direct_formula_recomputation(self, rng):
        r = rng.normal(size=120)
        series = self.series(r)
        stats = portfolio_metrics(series, EMPTY_CAL)[Regime.NORMAL]
        mean = r.mean()
        er = 12 * mean
        sharpe = mean / r.std(ddof=1) * math.sqrt(12)
        sortino = mean / math.sqrt(np.mean(np.minimum(r, 0.0) ** 2)) * math.sqrt(12)
        assert stats["er"] == pytest.approx(er, abs=1e-10)
        assert stats["sharpe"] == pytest.approx(sharpe, abs=1e-10)
        assert stats["sortino"] == pytest.approx(sortino, abs=1e-10)

    @pytest.mark.parametrize("returns", [[0.1] * 3, [0.7] * 12], ids=["0.1x3", "0.7x12"])
    def test_constant_returns_have_no_sharpe(self, returns):
        # their std rounds to 1.7e-17 and 1.2e-16, which gave Sharpes of ~1e16
        assert np.asarray(returns).std(ddof=1) > 0.0
        stats = portfolio_metrics(self.series(returns), EMPTY_CAL)[Regime.NORMAL]
        assert stats["sharpe"] is None
        assert stats["er"] == pytest.approx(12 * returns[0])

    def test_insufficient(self):
        with pytest.raises(Insufficient):
            portfolio_metrics(self.series([1.0]), EMPTY_CAL)

    def test_regime_split(self, rng):
        r = rng.normal(size=24)
        series = self.series(r, start="2020-01")
        cal = load_calendar("2020-03..2020-08\n")
        stats = portfolio_metrics(series, cal)
        assert stats[Regime.CRISIS]["er"] == pytest.approx(12 * r[2:8].mean())
        normal = np.concatenate([r[:2], r[8:]])
        assert stats[Regime.NORMAL]["er"] == pytest.approx(12 * normal.mean())


class TestCombine:
    def series(self, returns, start="2015-01"):
        r = np.asarray(returns, dtype=float)
        return MonthlySeries(month_range(start, len(r)), r)

    def test_self_combination_identity(self, rng):
        x = self.series(rng.normal(size=10))
        combo = combine_portfolios(x, x, 0.5)
        np.testing.assert_allclose(combo.values, x.values)

    def test_weight_one_returns_first(self, rng):
        a = self.series(rng.normal(size=10))
        b = self.series(rng.normal(size=10))
        combo = combine_portfolios(a, b, 1.0)
        np.testing.assert_allclose(combo.values, a.values)

    def test_elementwise_average_oracle(self, rng):
        a = self.series(rng.normal(size=14))
        b = self.series(rng.normal(size=14))
        combo = combine_portfolios(a, b, 0.25)
        np.testing.assert_allclose(
            combo.values, 0.25 * a.values + 0.75 * b.values, rtol=1e-12
        )

    def test_expected_return_combines_linearly(self, rng):
        a = self.series(rng.normal(size=36))
        b = self.series(rng.normal(size=36))
        w = 0.5
        combo = combine_portfolios(a, b, w)
        er = lambda s: portfolio_metrics(s, EMPTY_CAL)[Regime.NORMAL]["er"]
        assert er(combo) == pytest.approx(w * er(a) + (1 - w) * er(b), abs=1e-10)

    def test_date_mismatch(self, rng):
        a = self.series(rng.normal(size=10), start="2015-01")
        b = self.series(rng.normal(size=10), start="2015-02")
        with pytest.raises(Misaligned):
            combine_portfolios(a, b)


class TestStability:
    def test_constant_selection_constant_matrix(self):
        ledger = ledger_from(
            np.ones(5), np.ones(5), selected=[("A", "B")] * 5
        )
        names, matrix = selection_stability(ledger)
        assert names == ("A", "B")
        np.testing.assert_array_equal(matrix, np.ones((5, 2), dtype=int))

    def test_never_selected_feature_absent(self):
        ledger = ledger_from(
            np.ones(3), np.ones(3), selected=[("A",), (), ("A",)]
        )
        names, matrix = selection_stability(ledger)
        assert names == ("A",)
        np.testing.assert_array_equal(matrix[:, 0], [1, 0, 1])

    def test_matches_membership_recheck(self, rng):
        pool = ["A", "B", "C", "D"]
        selected = [
            tuple(x for x in pool if rng.random() < 0.4) for _ in range(12)
        ]
        ledger = ledger_from(rng.normal(size=12), rng.normal(size=12),
                             selected=selected)
        names, matrix = selection_stability(ledger)
        for i, sel in enumerate(selected):
            for j, name in enumerate(names):
                assert matrix[i, j] == int(name in sel)

    def test_csv_shape(self):
        ledger = ledger_from(np.ones(3), np.ones(3), selected=[("A",), ("B",), ()])
        text = stability_to_csv(ledger)
        lines = text.strip().splitlines()
        assert lines[0] == "date,A,B"
        assert len(lines) == 4
