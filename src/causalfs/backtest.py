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

from .errors import BacktestAborted, CausalfsError, InsufficientHistory, MalformedCsv
from .ingest import Regime, RegimeCalendar, csv_rows, parse_rows, to_csv
from .numerics import OlsFit, ols_fit
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


def fit_forecast_model(
    panel: AlignedPanel, p: int, selected: tuple[str, ...]
) -> tuple[OlsFit, np.ndarray]:
    """Fit the forecasting OLS of y_t on the ``design_columns`` layout of the
    target and the selected features, in ``selected`` order, and read the
    next-step regressor vector as the same lags at time T: the rows T - 1
    down to T - p, lag-major as ``stack_lags`` lays them out. Only those
    columns are stacked, so the cost does not grow with the panel's width."""
    T = len(panel)
    if T <= p + 1:
        raise InsufficientHistory(f"need more than p+1={p + 1} rows, have {T}")
    data = panel.data.take([0, *(panel.names.index(name) for name in selected)], axis=1)
    layout = design_columns(data.shape[1], p)
    _, lagged = stack_lags(data, p)
    return ols_fit(lagged[:, layout], panel.target[p:T]), data[T - p :][::-1].ravel()[layout]


def run_backtest(
    panel: AlignedPanel, calendar: RegimeCalendar, config: BacktestConfig
) -> BacktestLedger:
    """Produce one out-of-sample record per month after the initial window.

    A selector that raises ``CausalfsError`` or ``numpy.linalg.LinAlgError``
    falls back to the previous FeatureSet -- or to no features at the
    start -- with a logged warning naming the error class; an empty
    selection degrades the model to intercept plus target lag. Any other
    exception from a selector is a programming error and propagates; a
    forecast fit that raises either of those errors aborts with the partial
    ledger. A panel of at most ``window + 1`` months raises
    InsufficientHistory before any selector call.
    """
    T = len(panel)
    w = config.window
    if T <= w + 1:
        raise InsufficientHistory(f"panel length {T} must exceed window+1={w + 1}")
    selector = make_selector(config.selector_id, config.selector_params)
    records = []
    last_fs = FeatureSet(frozenset())
    for j in range(w, T):
        window = panel.head(j)
        if (j - w) % config.reselect_every == 0:
            try:
                last_fs = selector(Step(window, config.p, step_seed(config.seed, j), calendar))
            except (CausalfsError, np.linalg.LinAlgError) as exc:
                log.warning(
                    "%s failed at %s (%s: %s); falling back",
                    config.selector_id, panel.dates[j], type(exc).__name__, exc,
                )
        selected = last_fs.ordered(panel.feature_names)
        date = panel.dates[j]
        try:
            fit, regressors = fit_forecast_model(window, config.p, selected)
            y_pred = fit.predict(regressors)
        except (CausalfsError, np.linalg.LinAlgError) as exc:
            raise BacktestAborted(
                f"hard error at {date}: {exc}",
                partial=BacktestLedger(tuple(records), config.snapshot()),
                cause=exc,
            ) from exc
        records.append(
            LedgerRecord(
                date=date,
                y_true=float(panel.target[j]),
                y_pred=float(y_pred),
                selected=selected,
                regime=calendar.classify(date),
            )
        )
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
