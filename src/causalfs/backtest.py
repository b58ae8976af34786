"""Fixed-start expanding-window forecasting loop.

Each month the engine re-selects features on the window seen so far (or
reuses the last set, on a configurable cadence), fits OLS of next-month
target on [intercept, target lag, selected feature lags], predicts one step
ahead, and appends to the ledger. Selection and fitting only ever see rows
strictly before the predicted month.
"""
from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BacktestAborted,
    CausalfsError,
    InsufficientHistory,
    MalformedCsv,
    Underdetermined,
)
from .ingest import Regime, RegimeCalendar, csv_rows, parse_rows, to_csv
from .numerics import SubsetGram, prefix_betas, subset_gram
from .panel import AlignedPanel, MonthStamp, design_columns, first_gap, stack_lags
from .selectors import FeatureSet, Step, make_selector

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BacktestConfig:
    window: int = 60
    p: int = 1
    selector_id: str = "granger"
    selector_params: dict = field(default_factory=dict)
    reselect_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        if self.window <= self.p + 2:
            raise ValueError("window must exceed p + 2")
        if self.reselect_every < 1:
            raise ValueError("reselect_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LedgerRecord:
    date: MonthStamp
    y_true: float
    y_pred: float
    selected: tuple[str, ...]
    regime: Regime


@dataclass(frozen=True)
class BacktestLedger:
    records: tuple[LedgerRecord, ...]
    config: dict

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dates(self) -> tuple[MonthStamp, ...]:
        return tuple(r.date for r in self.records)

    @property
    def y_true(self) -> np.ndarray:
        return np.array([r.y_true for r in self.records])

    @property
    def y_pred(self) -> np.ndarray:
        return np.array([r.y_pred for r in self.records])

    @property
    def errors(self) -> np.ndarray:
        return self.y_true - self.y_pred


def step_seed(seed: int, step: int) -> int:
    """Per-step selector seed, stable across platforms and rerun order."""
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])


def _check_forecast_rows(month: int, p: int, width: int) -> None:
    """Raise what the forecast fit for row ``month`` on ``width`` selected
    features would: InsufficientHistory unless more than p + 1 rows come
    before it, Underdetermined unless its month - p rows exceed its
    2 + p * width regressors, the intercept included."""
    if month <= p + 1:
        raise InsufficientHistory(f"need more than p+1={p + 1} rows, have {month}")
    n, k = month - p, 2 + p * width
    if n <= k:
        raise Underdetermined(f"{n} rows for {k} regressors")


def forecast_block(
    panel: AlignedPanel, p: int, selected: tuple[str, ...], months
) -> tuple[SubsetGram, np.ndarray]:
    """The forecast's block Z = [1 | target lag | selected lags | y] over the
    rows before the last of ``months``, in the ``design_columns`` layout of
    the target and the selected features, in ``selected`` order, and each
    month's next-step regressors: the same lags at that month, the rows
    month - 1 down to month - p, lag-major as ``stack_lags`` lays them out.
    Only those columns are stacked, so the cost does not grow with the
    panel's width."""
    months = np.asarray(months, dtype=int)
    data = panel.data[: months[-1]].take(
        [0, *(panel.names.index(name) for name in selected)], axis=1)
    layout = design_columns(data.shape[1], p)
    y, lagged = stack_lags(data, p)
    lags = data[np.subtract.outer(months, np.arange(1, p + 1))].reshape(len(months), -1)
    # take returns C order: a regressor row is one contiguous vector whatever the run's length
    return subset_gram(lagged[:, layout], y[:, 0]), lags.take(layout, axis=1)


def fit_forecast_model(
    panel: AlignedPanel, p: int, selected: tuple[str, ...], months
) -> np.ndarray:
    """One-step forecasts of the target at each row index in ``months``
    (ascending, each at most ``len(panel)``): the OLS fit of y_t on the
    ``forecast_block`` layout over the rows before that month, read at its
    next-step regressors. One block serves every month, and each month's
    beta comes from ``prefix_betas``, so a forecast depends only on its own
    rows and a one-month call gives the same bits."""
    months = np.asarray(months, dtype=int)
    _check_forecast_rows(months[0], p, len(selected))
    sg, regressors = forecast_block(panel, p, selected, months)
    betas = prefix_betas(sg, months - p)
    return np.array([beta[0] + beta[1:] @ x for beta, x in zip(betas, regressors)])


def run_backtest(
    panel: AlignedPanel, calendar: RegimeCalendar, config: BacktestConfig
) -> BacktestLedger:
    """Produce one out-of-sample record per month after the initial window.

    A selector that raises ``CausalfsError`` or ``numpy.linalg.LinAlgError``
    falls back to the previous FeatureSet -- or to no features at the
    start -- with a logged warning naming the error class; an empty
    selection degrades the model to intercept plus target lag. Any other
    exception from a selector is a programming error and propagates. A
    panel of at most ``window + 1`` months raises InsufficientHistory
    before any selector call.

    Consecutive months that share one selection form a run, opened at a
    reselect month whose selection differs from the open run's, and
    ``fit_forecast_model`` forecasts each run in one call when the next
    opens. A forecast fit that raises either of those errors aborts with
    the ledger before its month: an underdetermined one when its run
    opens, before the next selector call, and any other at its own month,
    after the selector calls of that run's later reselect months.
    """
    T = len(panel)
    w = config.window
    if T <= w + 1:
        raise InsufficientHistory(f"panel length {T} must exceed window+1={w + 1}")
    selector = make_selector(config.selector_id, config.selector_params)
    records = []

    def aborted(j, exc):
        return BacktestAborted(
            f"hard error at {panel.dates[j]}: {exc}",
            partial=BacktestLedger(tuple(records), config.snapshot()),
            cause=exc,
        )

    def forecasts(run, selected):
        """The run's forecasts from one call; if it raises, month by month (the
        same bits), so that the month that raises aborts after every record
        before it."""
        try:
            yield from fit_forecast_model(panel, config.p, selected, run)
            return
        except (CausalfsError, np.linalg.LinAlgError):
            pass
        for j in run:
            try:
                yield fit_forecast_model(panel, config.p, selected, [j])[0]
            except (CausalfsError, np.linalg.LinAlgError) as exc:
                raise aborted(j, exc) from exc

    def forecast(run, selected):
        for j, y_pred in zip(run, forecasts(run, selected)):
            records.append(
                LedgerRecord(
                    date=panel.dates[j],
                    y_true=float(panel.target[j]),
                    y_pred=float(y_pred),
                    selected=selected,
                    regime=calendar.classify(panel.dates[j]),
                )
            )

    last_fs = FeatureSet(frozenset())
    run, selected = [], None
    for j in range(w, T):
        if (j - w) % config.reselect_every == 0:
            try:
                step = Step(panel.head(j), config.p, step_seed(config.seed, j), calendar)
                last_fs = selector(step)
            except (CausalfsError, np.linalg.LinAlgError) as exc:
                log.warning(
                    "%s failed at %s (%s: %s); falling back",
                    config.selector_id, panel.dates[j], type(exc).__name__, exc,
                )
            if (chosen := last_fs.ordered(panel.feature_names)) != selected:
                if run:
                    forecast(run, selected)
                run, selected = [], chosen
                try:
                    _check_forecast_rows(j, config.p, len(selected))
                except CausalfsError as exc:
                    raise aborted(j, exc) from exc
        run.append(j)
    forecast(run, selected)
    return BacktestLedger(tuple(records), config.snapshot())


# --- serialization ---

_LEDGER_HEADER = ["date", "y_true", "y_pred", "regime", "selected"]


def ledger_to_csv(ledger: BacktestLedger) -> str:
    return to_csv(
        _LEDGER_HEADER,
        ([r.date, r.y_true, r.y_pred, r.regime, ";".join(r.selected)] for r in ledger.records),
    )


def _ledger_record(row: list[str]) -> LedgerRecord:
    date, y_true, y_pred, regime, selected = row
    return LedgerRecord(
        date=MonthStamp.parse(date),
        y_true=float(y_true),
        y_pred=float(y_pred),
        selected=tuple(s for s in selected.split(";") if s),
        regime=Regime(regime),
    )


def ledger_from_csv(text: str) -> BacktestLedger:
    """A ledger's CSV: a MalformedCsv names the first row whose month does
    not follow the month above it."""
    rows = csv_rows(text)
    if not rows or rows[0] != _LEDGER_HEADER:
        raise MalformedCsv("not a ledger CSV")
    ledger = BacktestLedger(tuple(parse_rows(rows[1:], _ledger_record)), {})
    if (i := first_gap(ledger.dates)) is not None:
        a, b = ledger.dates[i : i + 2]
        raise MalformedCsv(f"row {rows[i + 2][0].strip()!r}: expected month {a.plus(1)} "
                           f"after {a}, got {b}")
    return ledger


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_manifest(ledger: BacktestLedger) -> dict:
    return {
        "config": ledger.config,
        "config_sha256": config_hash(ledger.config),
        "n_records": len(ledger),
        "first_date": str(ledger.records[0].date) if ledger.records else None,
        "last_date": str(ledger.records[-1].date) if ledger.records else None,
    }
