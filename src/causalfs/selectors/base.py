"""Shared selector input and output types."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import BadName
from ..ingest import RegimeCalendar
from ..panel import AlignedPanel, DesignMatrix, build_design


@dataclass(frozen=True)
class Step:
    """One selector call's input. ``design`` is the window's lag design,
    built on first read and shared by every adapter that reads it."""

    panel: AlignedPanel
    p: int
    seed: int = 0
    calendar: RegimeCalendar = RegimeCalendar(())

    @cached_property
    def design(self) -> DesignMatrix:
        return build_design(self.panel, self.p)


@dataclass(frozen=True)
class FeatureSet:
    """Outcome of one selector run.

    ``selected`` is a subset of the candidate feature names. ``p_values``
    maps each feature a selector tested on its own to the p-value that
    decided it; a selector that tests no single feature leaves it empty.
    """

    selected: frozenset[str]
    p_values: dict[str, float] = field(default_factory=dict)

    def ordered(self, all_names) -> tuple[str, ...]:
        """Selected names in the panel's column order (deterministic output)."""
        return tuple(n for n in all_names if n in self.selected)

    def __len__(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class Environment:
    """A labelled block of design rows used by invariance testing."""

    label: str
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=int).copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class DynamicGraph:
    """Instantaneous matrix S and lag matrices W of a structural VAR.

    ``S[i, j]`` and ``W[tau - 1][i, j]`` weigh the edge from variable i (at
    lag 0, resp. tau) into variable j: the row is the cause, the column the
    effect. DYNOTEARS and VARLiNGAM return this type, and the synthetic lab
    uses it for the truth. ``numerics.acyclicity(S)`` measures how far S is
    from a DAG.
    """

    S: np.ndarray
    W: tuple[np.ndarray, ...]
    variable_names: tuple[str, ...]

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float).copy()
        W = tuple(np.asarray(w, dtype=float).copy() for w in self.W)
        d = len(self.variable_names)
        if S.shape != (d, d) or any(w.shape != (d, d) for w in W):
            raise ValueError("S and every W_tau must be d x d")
        S.setflags(write=False)
        for w in W:
            w.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))

    def index_of(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise BadName(f"unknown variable {name!r}")

    def in_weights(
        self, name: str, instantaneous: bool = True, lagged: bool = True
    ) -> dict[str, float]:
        """Every other variable's largest absolute edge weight into ``name``,
        over S and/or every W_tau; 0.0 where it has no such edge."""
        j = self.index_of(name)
        kinds = ((self.S,) if instantaneous else ()) + (self.W if lagged else ())
        return {
            src: max([0.0] + [abs(M[i, j]) for M in kinds])
            for i, src in enumerate(self.variable_names)
            if src != name
        }

    def parents_of(self, name: str) -> frozenset[str]:
        """Names with any nonzero edge into ``name`` (instantaneous or lagged)."""
        return frozenset(src for src, w in self.in_weights(name).items() if w > 0.0)
