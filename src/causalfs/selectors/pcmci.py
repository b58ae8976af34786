"""Two-stage lagged causal discovery with autocorrelation-safe link tests.

Stage one runs a condition-selection pass per variable: every lagged
candidate is tested against the strongest few other candidates, weak links
are dropped, and at most ``max_parents_stage1`` survive. Stage two retests
each surviving link into the target while conditioning on the remaining
parents of the target plus the time-shifted parents of the source, which is
what keeps false-positive rates near the nominal level on autocorrelated
series.

Every CI test goes through ``_ci_tests``, which takes a batch of tests: a
test with q conditions on at most q + 3 rows is skipped (stage one keeps
the link, stage two leaves it unselected). The rest read centred lag
columns. A test whose x or y column is constant carries no evidence and
reads (r, p) = (0, 1) at every q, so stage one's first level drops a
constant feature at any alpha <= 1. Other tests take r and p from
``pearson_tests`` at q = 0 and, at q > 0, from their (q + 2)-square block
of one Gram, one ``gram_partial_correlation`` call per conditioning size,
or from ``partial_correlation`` on the same columns where the block fails
the one condition guard (as a constant conditioning column makes it).

A screen forms its Gram once, after its q = 0 level, over the centred
columns of ``(j, 0)`` and the links that level kept; later levels only drop
links, so every test of the screen reads that Gram. Stage one follows
PC1's published rule (Runge et al. 2019): at level q, each link is
conditioned on the first q other links in the order the previous level
left, strongest first, ties by link. No test of a level depends on
another, so each level is one batch. Stage two's tests are independent
too: they read one Gram over the union of their columns.
"""
from __future__ import annotations

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


class _Gram:
    """The Gram of the centred columns of ``links``, read block by block."""

    def __init__(self, view: _LagView, links):
        self.index = {link: i for i, link in enumerate(dict.fromkeys(links))}
        self.cols = view.centred_cols(list(self.index))
        self.G = self.cols @ self.cols.T
        self.live = self.cols.any(axis=1).tolist()  # centred, a constant column is exact zeros


def _ci_tests(view, x_links, y_var, cond_sets, gram=None):
    """(r, p) of each ``x_links[i]`` against ``(y_var, 0)`` given
    ``cond_sets[i]``, or None for a test skipped for lack of rows. Tests
    with conditions read their blocks of ``gram``, by default one Gram over
    the columns of every test."""
    results = [None] * len(x_links)
    by_q = {}
    for i, cond in enumerate(cond_sets):
        q = len(cond)
        if view.rows <= q + 3:
            warnings.warn(
                f"skipping test with {q} conditions on {view.rows} rows",
                SkippedTestWarning,
                stacklevel=3,
            )
        else:
            by_q.setdefault(q, []).append(i)
    for q, tests in sorted(by_q.items()):
        if q == 0:
            r, p, ok = pearson_tests(
                view.centred_cols([x_links[i] for i in tests]), view.centred[0, y_var])
            # ok is False exactly where the x or y column is constant
            for i, ri, pi, good in zip(tests, r.tolist(), p.tolist(), ok.tolist()):
                results[i] = (ri, pi) if good else _NO_EVIDENCE
            continue
        if gram is None:
            gram = _Gram(view, [(y_var, 0), *x_links, *(c for cond in cond_sets for c in cond)])
        at = gram.index
        rows = {}  # test -> its Gram indices [x, y, Z]
        for i in tests:
            row = [at[x_links[i]], at[y_var, 0], *(at[c] for c in cond_sets[i])]
            if gram.live[row[0]] and gram.live[row[1]]:
                rows[i] = row
            else:
                results[i] = _NO_EVIDENCE
        if not rows:
            continue
        idx = np.array(list(rows.values()))
        r, p, ok = gram_partial_correlation(gram.G[idx[:, :, None], idx[:, None, :]], view.rows)
        for i, row, ri, pi, good in zip(rows, idx, r.tolist(), p.tolist(), ok.tolist()):
            if good:
                results[i] = (ri, pi)
            else:
                M = gram.cols[row]
                results[i] = partial_correlation(M[0], M[1], M[2:].T)
    return results


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
    gram = None
    for q in range(max_cond_dim + 1):
        if len(parents) - 1 < q:
            break
        if q > 0 and gram is None:
            gram = _Gram(view, [(j, 0), *parents])
        # the first q other links in the order the previous level left
        conds = [[o for o in parents[:q + 1] if o != link][:q] for link in parents]
        removed = set()
        for link, result in zip(parents, _ci_tests(view, parents, j, conds, gram)):
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
    x_links, cond_sets = [], []
    for link in parents:
        i, tau = link
        if i == 0:
            continue  # own target lag: conditioning only, never a feature
        # the target's other parents, then the source's parents shifted by tau
        cond = [*parents, *((k, lag + tau) for k, lag in source_parents[i])]
        x_links.append(link)
        cond_sets.append([c for c in dict.fromkeys(cond) if c != link])
    results = _ci_tests(_LagView(data, 2 * p), x_links, 0, cond_sets)
    p_values = {}  # the smallest p over each feature's tested lags
    for (i, _), result in zip(x_links, results):
        if result is not None:  # an untested link is never selected
            p_values[names[i]] = min(p_values.get(names[i], 1.0), result[1])
    return FeatureSet(frozenset(n for n, pv in p_values.items() if pv < alpha), p_values)
