"""Date-indexed monthly panels, lag construction, and look-ahead-safe alignment.

Everything downstream (selectors, backtest) consumes the two container types
built here: :class:`AlignedPanel` for raw series, stored once as one
[target | features] block that readers take whole or gather columns of (with
``take``, which returns C order), and :class:`DesignMatrix` for lag-augmented
regressions. Both are immutable after construction and reject NaN, so
look-ahead reasoning stays simple.

The lag rule: a lag >= 1 at time t reads only rows < t. :func:`stack_lags`
is the one reader of lags: every variable at lags 1..p as row slices that end
before the row they sit beside. PCMCI, VARLiNGAM and DYNOTEARS read all of
it; the design and the forecast's regressors read the columns that
:func:`design_columns` lists.
"""
from __future__ import annotations

import copy
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateDate,
    InsufficientHistory,
    NoOverlap,
    NonContiguous,
)
from .numerics import SubsetGram, subset_gram

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


def first_gap(dates) -> int | None:
    """The index of the first pair of ``dates`` whose second month is not the
    first plus one (a gap, a repeat or a step back), else None: the one
    contiguity rule of panels, input files and ledgers."""
    months = [d.index() for d in dates]
    return next((i for i, (a, b) in enumerate(zip(months, months[1:])) if b != a + 1), None)


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
    """A single dated series (prices, returns, a strategy book), read-only.
    NaN allowed (resolved later by alignment)."""

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
    """Post-shift, post-join panel: one T x m block ``data`` holding the
    target in column 0 and the features in columns 1.., named in that order
    by ``names``.

    Invariants enforced at construction: dates strictly increasing with no
    gaps, one unique name per column, and no NaN or inf anywhere. The target
    is in whatever unit its source used: percent returns from ``causalfs
    ingest``, raw SVAR draws from ``synthlab``.
    """

    dates: tuple[MonthStamp, ...]
    data: np.ndarray  # T x m: [target | features]
    names: tuple[str, ...]  # names[0] is the target's

    def __post_init__(self):
        dates = tuple(self.dates)
        data = np.asarray(self.data, dtype=float).copy()
        names = tuple(self.names)
        if data.ndim != 2 or data.shape != (len(dates), len(names)) or not names:
            raise ValueError("data must be T x m: one date per row, one name per column")
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if (i := first_gap(dates)) is not None:
            raise NonContiguous(f"gap or disorder between {dates[i]} and {dates[i + 1]}")
        if len(dates) == 0:
            raise NoOverlap("empty panel")
        if not np.isfinite(data).all():
            raise ValueError("NaN and inf forbidden in an aligned panel")
        data.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def target(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def features(self) -> np.ndarray:
        return self.data[:, 1:]

    @property
    def target_name(self) -> str:
        return self.names[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.names[1:]

    @property
    def n_features(self) -> int:
        return len(self.names) - 1

    def head(self, n: int) -> "AlignedPanel":
        """First ``n`` rows; the training window view used by the backtest.

        A row prefix of a checked panel meets every construction invariant,
        so the view skips the checks and shares the read-only block.
        """
        if not 1 <= n <= len(self):
            raise ValueError(f"head({n}) outside 1..{len(self)}")
        view = copy.copy(self)
        object.__setattr__(view, "dates", self.dates[:n])
        object.__setattr__(view, "data", self.data[:n])
        return view


@dataclass(frozen=True)
class DesignMatrix:
    """Lag-augmented regression design over a panel's ``names``.

    Columns follow :func:`design_columns` at lag order ``p``. Every
    regressor in the row for date t is a panel value stamped strictly
    before t. ``X`` and ``y`` are read-only views of ``engine.Z`` = [1, X, y].
    """

    dates: tuple[MonthStamp, ...]
    engine: SubsetGram
    names: tuple[str, ...]  # the panel's, target first
    p: int = 1

    @property
    def X(self) -> np.ndarray:
        return self.engine.Z[:, 1:-1]

    @property
    def y(self) -> np.ndarray:
        return self.engine.Z[:, -1]

    @cached_property
    def columns(self) -> tuple[tuple[str, int], ...]:
        """Each design column's (source_name, lag)."""
        return _design_layout(self.names, self.p)[0]

    @cached_property
    def blocks(self) -> Mapping[str, tuple[int, ...]]:
        """Each feature's design columns, read-only; the target's own lag is
        in none."""
        return _design_layout(self.names, self.p)[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.blocks)

    def feature_column_indices(self, names) -> list[int]:
        """Design column indices holding any lag of the given features."""
        return sorted(i for name in set(names) for i in self.blocks.get(name, ()))

    @property
    def n(self) -> int:
        return len(self.engine.Z)


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
    feat_by_month = {d.plus(shift_months): i for i, d in enumerate(features.dates)}
    rows = np.array([i for i, d in enumerate(target.dates) if d in feat_by_month], dtype=int)
    feat_rows = np.array([feat_by_month[target.dates[i]] for i in rows], dtype=int)
    data = np.column_stack([target.values[rows], features.values[feat_rows]])
    complete = ~np.isnan(data).any(axis=1)
    if not complete.any():
        raise NoOverlap("no month with complete target and feature data")
    return AlignedPanel(
        dates=tuple(target.dates[i] for i in rows[complete]),
        data=data[complete],
        names=(target_name, *features.names),
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


@lru_cache(maxsize=16)
def _design_layout(names: tuple[str, ...], p: int):
    """A design's ``columns`` and ``blocks`` over ``names`` at lag order
    ``p``, built once per pair from :func:`design_columns` and shared by
    every window's design, so both are read-only."""
    m = len(names)
    columns = tuple((names[c % m], c // m + 1) for c in design_columns(m, p))
    blocks: dict[str, list[int]] = {}
    for i, (name, _) in enumerate(columns):
        if name != names[0]:
            blocks.setdefault(name, []).append(i)
    return columns, MappingProxyType({name: tuple(cols) for name, cols in blocks.items()})


def build_design(panel: AlignedPanel, p: int = 1) -> DesignMatrix:
    """Build the lag-p design: y_t on [Y_{t-1}, X_{i,t-1..t-p} for all i].

    The first p panel rows are consumed as history only, so the result has
    exactly T - p rows, stacked once into the design's engine block.
    """
    _, lagged = stack_lags(panel.data, p)
    T = len(panel)
    if T <= p + 1:
        raise InsufficientHistory(f"need more than p+1={p + 1} rows, have {T}")
    # p = 1 lists every column in order: no gather
    X = lagged if p == 1 else lagged.take(design_columns(len(panel.names), p), axis=1)
    return DesignMatrix(panel.dates[p:T], subset_gram(X, panel.target[p:]), panel.names, p)
