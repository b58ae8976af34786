"""Statistical and economic evaluation of backtest ledgers.

Conventions, stated once: returns are monthly and in percent, annualization
uses sqrt(12) with a zero risk-free rate, the Sortino denominator is the
root mean square of the negative returns (target 0), and a zero forecast
maps to a flat position. Every per-regime figure takes its months from
``RegimeCalendar.split``, the one rule for which month is normal or crisis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backtest import BacktestLedger
from .errors import Insufficient, Misaligned, WindowTooLong
from .ingest import Regime, RegimeCalendar, to_csv
from .numerics import centre
from .panel import MonthStamp

ANNUALIZATION = math.sqrt(12.0)


@dataclass(frozen=True)
class RegimeErrors:
    mae: float
    rmse: float
    count: int


@dataclass(frozen=True)
class MetricsReport:
    """Per-regime error metrics plus the crisis-over-normal MAE increase
    in percent (None whenever one of the regimes is empty)."""

    per_regime: dict[Regime, RegimeErrors]
    mae_increase_pct: float | None


@dataclass(frozen=True)
class StrategySeries:
    """Monthly strategy returns: a sign-rule book's (position -1/0/+1 times
    the realised return) or a weighted combination of two books'."""

    dates: tuple[MonthStamp, ...]
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float).copy()
        if len(self.dates) != len(returns):
            raise ValueError("dates and returns must share length")
        returns.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "returns", returns)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class PortfolioStats:
    """Annualized mean return, Sharpe, Sortino; None marks an undefined
    metric (zero denominator)."""

    expected_return: float
    sharpe: float | None
    sortino: float | None


def _mae(errors: np.ndarray) -> float:
    return float(np.abs(errors).mean())


def _rmse(errors: np.ndarray) -> float:
    return math.sqrt(float((errors * errors).mean()))


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


def regime_metrics(ledger: BacktestLedger, calendar: RegimeCalendar) -> MetricsReport:
    """MAE/RMSE split by regime, with the crisis-over-normal MAE increase.

    The increase is ``mae_increase_pct`` and is flagged None when either
    regime has no records or the normal MAE is 0.
    """
    if len(ledger) == 0:
        raise Insufficient("empty ledger")
    errors = ledger.errors
    per_regime = {}
    for regime, rows in calendar.split(ledger.dates).items():
        if len(rows):
            e = errors[rows]
            per_regime[regime] = RegimeErrors(mae=_mae(e), rmse=_rmse(e), count=len(e))
    normal = per_regime.get(Regime.NORMAL)
    crisis = per_regime.get(Regime.CRISIS)
    if normal is None or crisis is None or normal.mae == 0.0:
        increase = None
    else:
        increase = mae_increase_pct(normal.mae, crisis.mae)
    return MetricsReport(per_regime, increase)


def mae_increase_pct(normal_mae: float, crisis_mae: float) -> float:
    """The Crisis/Normal-1 column, in percent."""
    return (crisis_mae / normal_mae - 1.0) * 100.0


def strategy_returns(ledger: BacktestLedger) -> StrategySeries:
    """Long when the forecast is positive, short when negative, flat at zero."""
    if len(ledger) == 0:
        raise Insufficient("empty ledger")
    return StrategySeries(dates=ledger.dates, returns=np.sign(ledger.y_pred) * ledger.y_true)


def _stats(returns: np.ndarray) -> PortfolioStats:
    mean = float(returns.mean())
    expected = 12.0 * mean
    std = float(returns.std(ddof=1)) if centre(returns).any() else 0.0  # all equal: no spread
    sharpe = mean / std * ANNUALIZATION if std > 0 else None
    downside = math.sqrt(float((np.minimum(returns, 0.0) ** 2).mean()))
    sortino = mean / downside * ANNUALIZATION if downside > 0 else None
    return PortfolioStats(expected, sharpe, sortino)


def portfolio_metrics(
    series: StrategySeries, calendar: RegimeCalendar
) -> dict[Regime, PortfolioStats]:
    """Annualized E[R], Sharpe, Sortino per regime.

    Regimes with fewer than two observations are omitted; an entirely
    too-short series raises Insufficient.
    """
    if len(series) < 2:
        raise Insufficient("need at least two strategy returns")
    return {
        regime: _stats(series.returns[rows])
        for regime, rows in calendar.split(series.dates).items()
        if len(rows) >= 2
    }


def combine_portfolios(
    a: StrategySeries, b: StrategySeries, weight_a: float = 0.5
) -> StrategySeries:
    """Weighted book of two strategies over identical dates."""
    if a.dates != b.dates:
        raise Misaligned("strategy series cover different dates")
    w = float(weight_a)
    return StrategySeries(dates=a.dates, returns=w * a.returns + (1.0 - w) * b.returns)


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
