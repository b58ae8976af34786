"""Two-stage lagged causal discovery with autocorrelation-safe link tests.

Stage one runs a condition-selection pass per variable: every lagged
candidate is tested against the strongest few other candidates, weak links
are dropped, and at most ``max_parents_stage1`` survive. Stage two retests
each surviving link into the target while conditioning on the remaining
parents of the target plus the time-shifted parents of the source, which is
what keeps false-positive rates near the nominal level on autocorrelated
series.
"""
from __future__ import annotations

import heapq
import warnings
from functools import cached_property

import numpy as np

from ..errors import SkippedTestWarning, Underdetermined
from ..numerics import gram_partial_correlation, partial_correlation
from ..panel import AlignedPanel, lag_rows
from .base import FeatureSet

Link = tuple[int, int]  # (variable index, lag >= 1)


class _LagView:
    """Aligned lagged value columns over a fixed evaluation window."""

    def __init__(self, data: np.ndarray, max_lag: int):
        self.data = data
        self.max_lag = max_lag
        self.rows = data.shape[0] - max_lag

    def col(self, var: int, lag: int) -> np.ndarray:
        return self.matrix([(var, lag)])[:, 0]

    def matrix(self, links) -> np.ndarray:
        return lag_rows(self.data, links, range(self.max_lag, len(self.data)))

    @cached_property
    def centred(self) -> np.ndarray:
        """``centred[lag, var]`` is ``col(var, lag)`` minus its mean."""
        m = self.data.shape[1]
        # each lag's rows x vars block: the means below sum a column's rows in order
        blocks = [self.matrix([(v, lag) for v in range(m)]) for lag in range(self.max_lag + 1)]
        cols = np.stack(blocks).transpose(0, 2, 1)
        centred = cols - cols.mean(axis=2, keepdims=True)
        # a constant column whose mean rounds would keep a tiny constant;
        # zeroed, its tests go through partial_correlation as they always did
        centred[(cols == cols[..., :1]).all(axis=2)] = 0.0
        return centred

    def centred_cols(self, links) -> np.ndarray:
        """The centred columns of ``links``, one per row."""
        return self.centred[[lag for _, lag in links], [v for v, _ in links]]


def _parcorr_by_ols(view, x_link, y_var, cond_links):
    """The CI test from least-squares residuals; None if it was skipped."""
    Z = view.matrix(cond_links)
    try:
        return partial_correlation(
            view.col(*x_link), view.col(y_var, 0), Z if Z.shape[1] else None
        )
    except Underdetermined:
        warnings.warn(
            "conditioning set too large for the sample; link retained",
            SkippedTestWarning,
            stacklevel=3,
        )
        return None


def _parcorr_or_none(view, x_link, y_var, cond_links):
    """Run the CI test; None means it was skipped (too little data)."""
    if view.rows <= len(cond_links) + 3:
        warnings.warn(
            f"skipping test with {len(cond_links)} conditions on {view.rows} rows",
            SkippedTestWarning,
            stacklevel=3,
        )
        return None
    M = view.centred_cols([x_link, (y_var, 0), *cond_links])
    r, p, ok = gram_partial_correlation((M @ M.T)[None], view.rows)
    if ok[0]:
        return float(r[0]), float(p[0])
    return _parcorr_by_ols(view, x_link, y_var, cond_links)


def _unconditional_tests(view, j, links):
    """Level q = 0 for variable j: (r, p) of each link against j alone,
    from one batch. Needs view.rows > 3."""
    X = view.centred_cols(links)
    y = view.centred[0, j]
    G = np.empty((len(links), 2, 2))
    G[:, 0, 0] = np.einsum("ij,ij->i", X, X)
    G[:, 1, 1] = y @ y
    G[:, 0, 1] = G[:, 1, 0] = X @ y
    r, p, ok = gram_partial_correlation(G, view.rows)
    results = list(zip(r.tolist(), p.tolist()))
    for i in np.flatnonzero(~ok):  # a zero-variance column, decided as before
        results[i] = _parcorr_by_ols(view, links[i], j, [])
    return results


def _condition_select(
    view: _LagView,
    j: int,
    candidates: list[Link],
    alpha: float,
    max_cond_dim: int,
    max_parents: int,
):
    """Stage-one parent screening for variable j (PC-stable style)."""
    strength = {link: np.inf for link in candidates}  # min |r| seen so far
    pval = {link: 0.0 for link in candidates}
    parents = list(candidates)

    def strongest_first(o):
        return -strength[o] if np.isfinite(strength[o]) else 0.0

    for q in range(max_cond_dim + 1):
        if len(parents) - 1 < q:
            break
        if q == 0 and view.rows > 3:  # else every test below is skipped
            results = zip(parents, _unconditional_tests(view, j, parents))
        else:
            # lazy, so each link's conditions see the strengths updated so
            # far; nsmallest equals sorted(...)[:q], ties in parents order
            results = (
                (link, _parcorr_or_none(view, link, j, heapq.nsmallest(
                    q, (o for o in parents if o != link), key=strongest_first)))
                for link in parents
            )
        removed = set()
        for link, result in results:
            if result is None:
                continue  # conservative: keep the link untested
            r, p = result
            strength[link] = min(strength[link], abs(r))
            pval[link] = max(pval[link], p)
            if p >= alpha:
                removed.add(link)
        kept = (o for o in parents if o not in removed)
        parents = sorted(kept, key=lambda o: (-strength[o], o))[:max_parents]
    return parents, strength, pval


def pcmci_select(
    panel: AlignedPanel,
    p: int = 1,
    alpha: float = 0.05,
    max_cond_dim: int = 3,
    max_parents_stage1: int = 10,
) -> FeatureSet:
    """Select features with a link into the target that survives both stages.

    ``p`` is the maximum lag tested. The momentary tests in stage two need
    values up to lag 2p, so the panel must be comfortably longer than that.
    The target's own lags participate in conditioning but are never reported
    as selected features.
    """
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    names = (panel.target_name, *panel.feature_names)
    data = np.column_stack([panel.target, panel.features])
    m = data.shape[1]
    candidates: list[Link] = [(i, tau) for i in range(m) for tau in range(1, p + 1)]

    # stage-one screening for the target and, lazily, for the source of
    # every surviving link (the only parent sets stage two ever conditions on)
    stage1_view = _LagView(data, p)

    def screen(j):
        return _condition_select(
            stage1_view, j, list(candidates), alpha, max_cond_dim,
            max_parents_stage1,
        )

    parents: dict[int, list[Link]] = {}
    stat1: dict[int, dict] = {}
    pval1: dict[int, dict] = {}
    parents[0], stat1[0], pval1[0] = screen(0)
    for i in sorted({link[0] for link in parents[0]}):
        if i not in parents:
            parents[i], stat1[i], pval1[i] = screen(i)

    # stage two: momentary tests for links into the target (variable 0)
    mci_view = _LagView(data, 2 * p)
    best_stat = {name: 0.0 for name in panel.feature_names}
    best_p = {name: 1.0 for name in panel.feature_names}
    selected = set()
    for link in parents[0]:
        i, tau = link
        if i == 0:
            continue  # own target lag: conditioning only, never a feature
        # the target's other parents, then the source's parents shifted by tau
        cond = [*parents[0], *((k, lag + tau) for k, lag in parents[i])]
        cond_unique = [c for c in dict.fromkeys(cond) if c != link]
        result = _parcorr_or_none(mci_view, link, 0, cond_unique)
        if result is None:
            r, pv = stat1[0].get(link, 0.0), 0.0  # retained conservatively
            r = 0.0 if not np.isfinite(r) else r
        else:
            r, pv = result
        name = names[i]
        if abs(r) > abs(best_stat[name]):
            best_stat[name] = r
        best_p[name] = min(best_p[name], pv)
        if pv < alpha:
            selected.add(name)

    diagnostics = {}
    linked = {i for i, _ in parents[0]}
    for i, name in enumerate(panel.feature_names, start=1):
        if i in linked:
            diagnostics[name] = (best_stat[name], best_p[name])
        else:
            # removed in stage one: report its screening record
            lags = [(i, tau) for tau in range(1, p + 1)]
            stats = [stat1[0][link] for link in lags if np.isfinite(stat1[0][link])]
            diagnostics[name] = (
                max(stats, default=0.0),
                min(pval1[0][link] for link in lags),
            )
    return FeatureSet(frozenset(selected), diagnostics, "pcmci")
