"""Date-indexed monthly panels, lag construction, and look-ahead-safe alignment.

Everything downstream (selectors, backtest) consumes the two container types
built here: :class:`AlignedPanel` for raw series and :class:`DesignMatrix`
for lag-augmented regressions. Both are immutable after construction and
reject NaN, so look-ahead reasoning stays simple.

The lag rule: a lag >= 1 at time t reads only rows < t. :func:`stack_lags`
is the one reader of lags: every variable at lags 1..p as row slices that end
before the row they sit beside. PCMCI, VARLiNGAM and DYNOTEARS read all of
it; the design and the forecast's regressors read the columns that
:func:`design_columns` lists.
"""
from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateDate,
    InsufficientHistory,
    NoOverlap,
    NonContiguous,
)

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month. Totally ordered; arithmetic rolls the year."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def plus(self, months: int) -> "MonthStamp":
        total = self.year * 12 + (self.month - 1) + months
        return MonthStamp(total // 12, total % 12 + 1)

    def index(self) -> int:
        """Months since year 0; differences give month counts."""
        return self.year * 12 + self.month - 1

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        m = _MONTH_RE.match(text.strip())
        if m is None:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def _store_month_ordered(series, dates: tuple, values: np.ndarray) -> None:
    """Set ``series.dates`` and ``series.values`` to ``dates`` and the rows of
    ``values``, stable-sorted by month, the rows as a read-only copy. Raises
    DuplicateDate if a month repeats."""
    seen = set()
    for d in dates:
        if d in seen:
            raise DuplicateDate(f"month {d} appears twice")
        seen.add(d)
    order = np.argsort([d.index() for d in dates], kind="stable")
    values = values[order]
    values.setflags(write=False)
    object.__setattr__(series, "dates", tuple(dates[i] for i in order))
    object.__setattr__(series, "values", values)


@dataclass(frozen=True)
class MonthlySeries:
    """A single dated series. NaN allowed (resolved later by alignment)."""

    dates: tuple[MonthStamp, ...]
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(dates) != values.shape[0]:
            raise ValueError("dates and values must be equal-length 1-d")
        _store_month_ordered(self, dates, values)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class MonthlyPanel:
    """Several dated series sharing one date column. NaN allowed."""

    dates: tuple[MonthStamp, ...]
    values: np.ndarray  # T x d
    names: tuple[str, ...]

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.asarray(self.values, dtype=float)
        names = tuple(self.names)
        if values.ndim != 2:
            raise ValueError("values must be 2-d (T x d)")
        if values.shape != (len(dates), len(names)):
            raise ValueError("shape mismatch between dates, names, values")
        _store_month_ordered(self, dates, values)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class AlignedPanel:
    """Post-shift, post-join panel of target plus features.

    Invariants enforced at construction: dates strictly increasing with no
    gaps, equal row counts, and no NaN or inf anywhere. The target is in
    whatever unit its source used: percent returns from ``causalfs ingest``,
    raw SVAR draws from ``synthlab``.
    """

    dates: tuple[MonthStamp, ...]
    target: np.ndarray
    features: np.ndarray  # T x d
    feature_names: tuple[str, ...]
    target_name: str = "TARGET"

    def __post_init__(self):
        dates = tuple(self.dates)
        target = np.asarray(self.target, dtype=float).copy()
        features = np.asarray(self.features, dtype=float).copy()
        names = tuple(self.feature_names)
        if features.ndim != 2:
            raise ValueError("features must be 2-d (T x d)")
        if not (len(dates) == target.shape[0] == features.shape[0]):
            raise ValueError("dates, target, features must share row count")
        if features.shape[1] != len(names):
            raise ValueError("one name per feature column required")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if self.target_name in names:
            raise ValueError("target name collides with a feature name")
        months = [d.index() for d in dates]  # consecutive months differ by 1
        for i, (a, b) in enumerate(zip(months, months[1:])):
            if b != a + 1:
                raise NonContiguous(f"gap or disorder between {dates[i]} and {dates[i + 1]}")
        if len(dates) == 0:
            raise NoOverlap("empty panel")
        if not (np.isfinite(target).all() and np.isfinite(features).all()):
            raise ValueError("NaN and inf forbidden in an aligned panel")
        target.setflags(write=False)
        features.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "feature_names", names)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def head(self, n: int) -> "AlignedPanel":
        """First ``n`` rows; the training window view used by the backtest.

        A row prefix of a checked panel meets every construction invariant,
        so the view skips the checks and shares the read-only arrays.
        """
        if not 1 <= n <= len(self):
            raise ValueError(f"head({n}) outside 1..{len(self)}")
        view = copy.copy(self)
        object.__setattr__(view, "dates", self.dates[:n])
        object.__setattr__(view, "target", self.target[:n])
        object.__setattr__(view, "features", self.features[:n])
        return view

    def column(self, name: str) -> np.ndarray:
        return self.features[:, self.feature_names.index(name)]


@dataclass(frozen=True)
class DesignMatrix:
    """Lag-augmented regression design with column provenance.

    Columns follow :func:`design_columns`. Every regressor in the row for
    date t is a panel value stamped strictly before t.
    """

    dates: tuple[MonthStamp, ...]
    y: np.ndarray
    X: np.ndarray
    columns: tuple[tuple[str, int], ...]  # (source_name, lag)
    target_name: str
    p: int = 1

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).copy()
        X = np.asarray(self.X, dtype=float).copy()
        if X.shape != (len(self.dates), len(self.columns)) or y.shape[0] != X.shape[0]:
            raise ValueError("design shape mismatch")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @cached_property
    def blocks(self) -> dict[str, tuple[int, ...]]:
        """Each feature's design columns; the target's own lag is in none."""
        blocks: dict[str, list[int]] = {}
        for i, (name, _) in enumerate(self.columns):
            if name != self.target_name:
                blocks.setdefault(name, []).append(i)
        return {name: tuple(cols) for name, cols in blocks.items()}

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.blocks)

    def feature_column_indices(self, names) -> list[int]:
        """Design column indices holding any lag of the given features."""
        return sorted(i for name in set(names) for i in self.blocks.get(name, ()))

    @property
    def n(self) -> int:
        return self.X.shape[0]


def align_and_shift(
    target: MonthlySeries,
    features: MonthlyPanel,
    shift_months: int = 1,
    target_name: str = "TARGET",
) -> AlignedPanel:
    """Re-stamp features forward and inner-join them with the target.

    A feature row originally stamped month m is treated as information for
    month m + shift_months, then joined with the target on month. Rows
    carrying any NaN are dropped; the surviving dates must be contiguous.
    The result carries the joined values, the features' names and
    ``target_name``; the target keeps the unit it came in.

    Raises NoOverlap if the join is empty and DuplicateDate if either input
    repeats a month (checked at input construction).
    """
    if shift_months < 0:
        raise ValueError("shift_months must be >= 0")
    feat_by_month = {
        d.plus(shift_months): i for i, d in enumerate(features.dates)
    }
    rows = []
    months = []
    tvals = []
    for i, d in enumerate(target.dates):
        j = feat_by_month.get(d)
        if j is None:
            continue
        trow = target.values[i]
        frow = features.values[j]
        if np.isnan(trow) or np.isnan(frow).any():
            continue
        months.append(d)
        tvals.append(trow)
        rows.append(frow)
    if not months:
        raise NoOverlap("no month with complete target and feature data")
    return AlignedPanel(
        dates=tuple(months),
        target=np.array(tvals),
        features=np.vstack(rows),
        feature_names=features.names,
        target_name=target_name,
    )


def stack_lags(data: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a VAR(p) regression: ``data[p:]`` and, row for row, every
    variable at lags 1..p, lag-major (column (tau - 1) * m + j holds variable
    j at lag tau). Raises ValueError for p < 1 and InsufficientHistory unless
    ``data`` has more than p rows."""
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    if len(data) <= p:
        raise InsufficientHistory(f"lag order p={p} needs more than {p} rows, have {len(data)}")
    return data[p:], np.hstack([data[p - tau : len(data) - tau] for tau in range(1, p + 1)])


def design_columns(m: int, p: int) -> list[int]:
    """The design's layout as columns of ``stack_lags`` over m variables,
    [target, features...]: the target at lag 1, then each feature's lags
    1..p as one block."""
    return [0, *((lag - 1) * m + j for j in range(1, m) for lag in range(1, p + 1))]


def build_design(panel: AlignedPanel, p: int = 1) -> DesignMatrix:
    """Build the lag-p design: y_t on [Y_{t-1}, X_{i,t-1..t-p} for all i].

    The first p panel rows are consumed as history only, so the result has
    exactly T - p rows.
    """
    _, lagged = stack_lags(np.column_stack([panel.target, panel.features]), p)
    T = len(panel)
    if T <= p + 1:
        raise InsufficientHistory(f"need more than p+1={p + 1} rows, have {T}")
    names = (panel.target_name, *panel.feature_names)
    cols = design_columns(len(names), p)
    return DesignMatrix(
        dates=panel.dates[p:T],
        y=panel.target[p:T],
        X=lagged if p == 1 else lagged[:, cols],  # p = 1 lists every column in order: no copy
        columns=tuple((names[c % len(names)], c // len(names) + 1) for c in cols),
        target_name=panel.target_name,
        p=p,
    )
