"""Two-stage lagged causal discovery with autocorrelation-safe link tests.

Stage one runs a condition-selection pass per variable: every lagged
candidate is tested against the strongest few other candidates, weak links
are dropped, and at most ``max_parents_stage1`` survive. Stage two retests
each surviving link into the target while conditioning on the remaining
parents of the target plus the time-shifted parents of the source, which is
what keeps false-positive rates near the nominal level on autocorrelated
series.

Every CI test goes through ``_ci_tests``: a test with q conditions on at
most q + 3 rows is skipped (stage one keeps the link, stage two leaves it
unselected). The rest read centred lag columns. A test whose x or y column
is constant carries no evidence and reads (r, p) = (0, 1) at every q, so
stage one's first level drops a constant feature at any alpha <= 1. Other
tests take r and p from ``pearson_tests`` at q = 0 and from the Gram of the
columns at q > 0, or from ``partial_correlation`` on the same columns where
the Gram is ill-conditioned (as a constant conditioning column makes it).
"""
from __future__ import annotations

import heapq
import warnings
from functools import cached_property

import numpy as np

from ..errors import SkippedTestWarning
from ..numerics import centre, gram_partial_correlation, partial_correlation, pearson_tests
from ..panel import AlignedPanel, stack_lags
from .base import FeatureSet

Link = tuple[int, int]  # (variable index, lag >= 1)

# (r, p) of a test whose x or y column is constant in the view
_NO_EVIDENCE = (0.0, 1.0)


class _LagView:
    """Aligned lagged value columns over a fixed evaluation window."""

    def __init__(self, data: np.ndarray, max_lag: int):
        self.data = data
        self.max_lag = max_lag
        self.rows = data.shape[0] - max_lag

    @cached_property
    def centred(self) -> np.ndarray:
        """``centred[lag, var]`` is the centred column of ``(var, lag)``: the
        window's rows, then ``stack_lags``'s lags 1..max_lag, lag-major."""
        # column-major, so each column's mean is one contiguous sum that does
        # not depend on how many other columns the panel holds
        cols = centre(np.asfortranarray(np.hstack(stack_lags(self.data, self.max_lag))))
        return cols.reshape(self.rows, self.max_lag + 1, self.data.shape[1]).transpose(1, 2, 0)

    def centred_cols(self, links) -> np.ndarray:
        """The centred columns of ``links``, one per row."""
        return self.centred[[lag for _, lag in links], [v for v, _ in links]]


def _ci_tests(view, x_links, y_var, cond_links):
    """(r, p) of each link in ``x_links`` against ``(y_var, 0)`` given
    ``cond_links``, or None for a test skipped for lack of rows."""
    q = len(cond_links)
    if view.rows <= q + 3:
        for _ in x_links:
            warnings.warn(
                f"skipping test with {q} conditions on {view.rows} rows",
                SkippedTestWarning,
                stacklevel=3,
            )
        return [None] * len(x_links)
    if q == 0:  # stage one's q = 0 level passes all its links at once
        r, p, ok = pearson_tests(view.centred_cols(x_links), view.centred[0, y_var])
        # ok is False exactly where the x or y column is constant
        return [(ri, pi) if good else _NO_EVIDENCE
                for ri, pi, good in zip(r.tolist(), p.tolist(), ok.tolist())]
    [x_link] = x_links  # a test with conditions is always passed on its own
    M = view.centred_cols([x_link, (y_var, 0), *cond_links])
    if not M[:2].any(axis=1).all():  # centred, a constant column is exact zeros
        return [_NO_EVIDENCE]
    r, p, ok = gram_partial_correlation((M @ M.T)[None], view.rows)
    if not ok[0]:
        return [partial_correlation(M[0], M[1], M[2:].T)]
    return [(r.item(), p.item())]


def _condition_select(
    view: _LagView,
    j: int,
    candidates: list[Link],
    alpha: float,
    max_cond_dim: int,
    max_parents: int,
):
    """Stage-one parent screening for variable j (PC-stable style): the
    surviving links, strongest first."""
    strength = {link: np.inf for link in candidates}  # min |r| seen so far
    parents = list(candidates)

    def strongest_first(o):
        return -strength[o] if np.isfinite(strength[o]) else 0.0

    for q in range(max_cond_dim + 1):
        if len(parents) - 1 < q:
            break
        if q == 0:
            results = zip(parents, _ci_tests(view, parents, j, []))
        else:
            # lazy, so each link's conditions see the strengths updated so
            # far; nsmallest equals sorted(...)[:q], ties in parents order
            results = (
                (link, *_ci_tests(view, [link], j, heapq.nsmallest(
                    q, (o for o in parents if o != link), key=strongest_first)))
                for link in parents
            )
        removed = set()
        for link, result in results:
            if result is None:
                continue  # conservative: keep the link untested
            r, p = result
            strength[link] = min(strength[link], abs(r))
            if p >= alpha:
                removed.add(link)
        kept = (o for o in parents if o not in removed)
        parents = sorted(kept, key=lambda o: (-strength[o], o))[:max_parents]
    return parents


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
    as selected features. ``p_values`` holds, for each feature with a tested
    stage-two link, the smallest momentary-test p over its lags.
    """
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    names, data = panel.names, panel.data
    m = len(names)
    candidates: list[Link] = [(i, tau) for i in range(m) for tau in range(1, p + 1)]

    # stage-one screening for the target, then for the source of every
    # surviving link: the only parent sets stage two ever conditions on
    stage1_view = _LagView(data, p)

    def screen(j):
        return _condition_select(
            stage1_view, j, list(candidates), alpha, max_cond_dim,
            max_parents_stage1,
        )

    parents = screen(0)
    source_parents = {i: screen(i) for i in sorted({i for i, _ in parents} - {0})}

    # stage two: momentary tests for links into the target (variable 0)
    mci_view = _LagView(data, 2 * p)
    p_values = {}  # the smallest p over each feature's tested lags
    for link in parents:
        i, tau = link
        if i == 0:
            continue  # own target lag: conditioning only, never a feature
        # the target's other parents, then the source's parents shifted by tau
        cond = [*parents, *((k, lag + tau) for k, lag in source_parents[i])]
        cond_unique = [c for c in dict.fromkeys(cond) if c != link]
        [result] = _ci_tests(mci_view, [link], 0, cond_unique)
        if result is None:
            continue  # untested: never selected
        p_values[names[i]] = min(p_values.get(names[i], 1.0), result[1])
    return FeatureSet(frozenset(n for n, pv in p_values.items() if pv < alpha), p_values)
