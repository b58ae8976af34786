"""Statistical and economic evaluation of backtest ledgers.

Conventions, stated once: returns are monthly and in percent, annualization
uses sqrt(12) with a zero risk-free rate, the Sortino denominator is the
root mean square of the negative returns (target 0), and a zero forecast
maps to a flat position. Every per-regime figure comes from ``by_regime``,
whose ``RegimeCalendar.split`` is the one rule for which month is normal or
crisis, over the columns declared once in ``ERROR_COLUMNS`` and
``BOOK_COLUMNS``; ``scores_to_csv`` and ``scores_to_json`` write them.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .backtest import BacktestLedger
from .errors import Insufficient, Misaligned, WindowTooLong
from .ingest import Regime, RegimeCalendar, to_csv
from .numerics import centre
from .panel import MonthlySeries

ANNUALIZATION = math.sqrt(12.0)


def _mae(errors: np.ndarray) -> float:
    return float(np.abs(errors).mean())


def _rmse(errors: np.ndarray) -> float:
    return math.sqrt(float((errors * errors).mean()))


def _sharpe(returns: np.ndarray) -> float | None:
    std = float(returns.std(ddof=1)) if centre(returns).any() else 0.0  # all equal: no spread
    return float(returns.mean()) / std * ANNUALIZATION if std > 0 else None


def _sortino(returns: np.ndarray) -> float | None:
    downside = math.sqrt(float((np.minimum(returns, 0.0) ** 2).mean()))
    return float(returns.mean()) / downside * ANNUALIZATION if downside > 0 else None


# name -> (the figure of one regime's values, the fewest months it needs);
# a figure is None where it is undefined (a zero denominator)
ERROR_COLUMNS = {"mae": (_mae, 1), "rmse": (_rmse, 1)}
BOOK_COLUMNS = {
    "er": (lambda returns: 12.0 * float(returns.mean()), 2),
    "sharpe": (_sharpe, 2),
    "sortino": (_sortino, 2),
}


def by_regime(dates, values: np.ndarray, calendar: RegimeCalendar, columns) -> dict:
    """``{regime: {"count": months, name: figure}}`` for each regime with
    months, normal then crisis, over ``columns`` (``ERROR_COLUMNS`` or
    ``BOOK_COLUMNS``); a figure is None where the regime has fewer months
    than its column needs."""
    return {
        regime: {"count": len(rows), **{
            name: figure(values[rows]) if len(rows) >= need else None
            for name, (figure, need) in columns.items()
        }}
        for regime, rows in calendar.split(dates).items()
        if len(rows)
    }


def rolling_rmse(ledger: BacktestLedger, h: int = 12):
    """Trailing-window RMSE; one value per record from the h-th onward."""
    return _rolling(ledger, h, _rmse)


def rolling_mae(ledger: BacktestLedger, h: int = 12):
    return _rolling(ledger, h, _mae)


def _rolling(ledger, h, fn):
    if h < 1:
        raise ValueError("window h must be >= 1")
    n = len(ledger)
    if h > n:
        raise WindowTooLong(f"window {h} exceeds {n} records")
    errors = ledger.errors
    dates = ledger.dates
    out_dates = []
    values = []
    for i in range(h - 1, n):
        out_dates.append(dates[i])
        values.append(fn(errors[i - h + 1 : i + 1]))
    return tuple(out_dates), np.array(values)


def regime_metrics(ledger: BacktestLedger, calendar: RegimeCalendar) -> dict:
    """MAE and RMSE by regime: ``by_regime`` of the forecast errors over
    ``ERROR_COLUMNS``. A regime without records is absent."""
    if len(ledger) == 0:
        raise Insufficient("empty ledger")
    return by_regime(ledger.dates, ledger.errors, calendar, ERROR_COLUMNS)


def mae_increase_pct(errors: dict) -> float | None:
    """The Crisis/Normal-1 column, in percent, of ``regime_metrics``'s
    mapping; None when either regime is absent or the normal MAE is 0."""
    normal, crisis = errors.get(Regime.NORMAL), errors.get(Regime.CRISIS)
    if normal is None or crisis is None or normal["mae"] == 0.0:
        return None
    return (crisis["mae"] / normal["mae"] - 1.0) * 100.0


def strategy_returns(ledger: BacktestLedger) -> MonthlySeries:
    """Long when the forecast is positive, short when negative, flat at zero."""
    if len(ledger) == 0:
        raise Insufficient("empty ledger")
    return MonthlySeries(ledger.dates, np.sign(ledger.y_pred) * ledger.y_true)


def portfolio_metrics(series: MonthlySeries, calendar: RegimeCalendar) -> dict:
    """Annualized E[R], Sharpe and Sortino by regime: ``by_regime`` of the
    returns over ``BOOK_COLUMNS``. A regime of one month has its count and
    None figures; a series shorter than two months raises Insufficient."""
    if len(series) < 2:
        raise Insufficient("need at least two strategy returns")
    return by_regime(series.dates, series.values, calendar, BOOK_COLUMNS)


def combine_portfolios(
    a: MonthlySeries, b: MonthlySeries, weight_a: float = 0.5
) -> MonthlySeries:
    """Weighted book of two strategies over identical dates."""
    if a.dates != b.dates:
        raise Misaligned("strategy series cover different dates")
    w = float(weight_a)
    return MonthlySeries(a.dates, w * a.values + (1.0 - w) * b.values)


def selection_stability(ledger: BacktestLedger) -> tuple[tuple[str, ...], np.ndarray]:
    """Month-by-feature selection matrix over the ever-selected features.

    Returns (feature_names, matrix) with matrix[t, j] = 1 when feature j was
    in that month's selected set; features never selected have no column.
    """
    ever: list[str] = []
    for r in ledger.records:
        for name in r.selected:
            if name not in ever:
                ever.append(name)
    matrix = np.zeros((len(ledger), len(ever)), dtype=int)
    for i, r in enumerate(ledger.records):
        chosen = set(r.selected)
        for j, name in enumerate(ever):
            if name in chosen:
                matrix[i, j] = 1
    return tuple(ever), matrix


# --- CSV emitters (plot-ready; rendering is external) ---

def stability_to_csv(ledger: BacktestLedger) -> str:
    names, matrix = selection_stability(ledger)
    return to_csv(
        ["date", *names],
        ([r.date, *row] for r, row in zip(ledger.records, matrix.tolist())),
    )


def series_to_csv(dates, values) -> str:
    return to_csv(["date", "value"], zip(dates, np.asarray(values, dtype=float).tolist()))


def scores_to_csv(scores: dict, part: str, columns, extra=()) -> str:
    """CSV of a row per model in ``scores`` that has ``part``, a ``by_regime``
    mapping: a cell per column and regime, headed ``{name}_{regime}``
    (``mae_normal``, ``mae_crisis``, ...), then the model's ``extra``
    figures. A cell is rounded to 10 digits, and blank where its regime or
    figure is missing or None."""
    def cell(value):
        return None if value is None else round(float(value), 10)

    header = [f"{name}_{regime}" for name in columns for regime in Regime]
    rows = (
        [model,
         *(cell(score[part].get(regime, {}).get(name)) for name in columns for regime in Regime),
         *(cell(score[key]) for key in extra)]
        for model, score in scores.items() if part in score
    )
    return to_csv(["model", *header, *extra], rows)


def scores_to_json(scores: dict) -> str:
    """``scores`` as JSON text, unrounded, every key (a Regime too) by name."""
    def named(value):
        return {str(k): named(v) for k, v in value.items()} if isinstance(value, dict) else value

    return json.dumps(named(scores), indent=2, sort_keys=True) + "\n"
