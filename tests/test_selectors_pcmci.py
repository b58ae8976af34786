import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalfs.selectors.pcmci as pcmci_module
from causalfs.errors import (
    DegenerateInput,
    RankDeficientWarning,
    SkippedTestWarning,
    Underdetermined,
)
from causalfs.numerics import partial_correlation
from causalfs.selectors import pcmci_select
from causalfs.selectors.pcmci import _ci_tests, _condition_select, _LagView
from causalfs.synthlab import SvarSpec, generate_svar

from conftest import make_panel


def test_single_link_detected():
    hits = 0
    for seed in range(50):
        panel, truth = generate_svar(
            SvarSpec(d=6, p=1, n=500, edge_density=0.0, target_parents=1,
                     ar_coeff=0.5, instantaneous=False, seed=seed)
        )
        parent = next(iter(truth.parents_of("Y")))
        fs = pcmci_select(panel, p=1, alpha=0.05)
        if parent in fs.selected:
            hits += 1
    assert hits >= 45  # 90%


def test_false_positive_rate_on_independent_ar1():
    false_links = 0
    possible = 0
    for seed in range(100):
        panel, _ = generate_svar(
            SvarSpec(d=6, p=1, n=500, edge_density=0.0, ar_coeff=0.5,
                     instantaneous=False, seed=1000 + seed)
        )
        fs = pcmci_select(panel, p=1, alpha=0.05)
        false_links += len(fs.selected)
        possible += 5
    assert false_links / possible <= 0.07


def test_zero_lag_order_rejected(rng):
    panel = make_panel(rng.normal(size=50), rng.normal(size=(50, 2)))
    with pytest.raises(ValueError):
        pcmci_select(panel, p=0)


def test_never_selects_target_lag(rng):
    n = 300
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.8 * y[t - 1] + rng.normal()
    panel = make_panel(y, rng.normal(size=(n, 3)))
    fs = pcmci_select(panel, p=2, alpha=0.05)
    assert "Y" not in fs.selected
    assert set(fs.p_values) <= {"X1", "X2", "X3"}


def test_conditioning_set_truncation_warns(rng):
    # tiny sample with a large requested conditioning dimension
    n = 9
    panel = make_panel(rng.normal(size=n), rng.normal(size=(n, 6)))
    with pytest.warns(SkippedTestWarning):
        pcmci_select(panel, p=1, alpha=0.99, max_cond_dim=6,
                     max_parents_stage1=12)


def test_stage1_cap_respected():
    panel, _ = generate_svar(
        SvarSpec(d=8, p=2, n=300, edge_density=0.3, seed=4, instantaneous=False)
    )
    fs = pcmci_select(panel, p=2, alpha=0.3, max_parents_stage1=3)
    # at most 3 surviving stage-1 links means at most 3 selectable features
    assert len(fs.selected) <= 3


def test_deterministic(rng):
    panel, _ = generate_svar(
        SvarSpec(d=5, p=1, n=400, edge_density=0.2, seed=21, instantaneous=False)
    )
    a = pcmci_select(panel, p=1, alpha=0.05)
    b = pcmci_select(panel, p=1, alpha=0.05)
    assert a.selected == b.selected
    assert a.p_values == b.p_values


# --- oracle: PC1 as published, one partial_correlation per CI test ---

def _raw_lag_columns(view, links):
    # data[t - lag, var] for each row t past max_lag (rows) and link (var, lag) (columns)
    var, lag = np.array(links, dtype=int).reshape(-1, 2).T
    t = np.arange(view.max_lag, len(view.data))[:, None]
    return view.data[t - lag, var]


def _oracle_parcorr(view, x_link, y_var, cond_links):
    Z = _raw_lag_columns(view, cond_links)
    if view.rows <= Z.shape[1] + 3:
        return None
    x, y = _raw_lag_columns(view, [x_link, (y_var, 0)]).T
    if (x == x[0]).all() or (y == y[0]).all():
        return 0.0, 1.0  # a constant column carries no evidence
    try:
        return partial_correlation(x, y, Z if Z.shape[1] else None)
    except Underdetermined:
        return None


def _oracle_condition_select(view, j, candidates, alpha, max_cond_dim, max_parents):
    # PC1's pseudo-code (Runge et al. 2019, supplementary): at level q, test
    # each parent given the first q other parents of the list sorted at the
    # end of level q - 1; remove the weak ones and sort only after the level
    strength = {link: np.inf for link in candidates}
    parents = list(candidates)
    for q in range(max_cond_dim + 1):
        if len(parents) - 1 < q:
            break
        removed = []
        for link in parents:
            others = [o for o in parents if o != link]
            result = _oracle_parcorr(view, link, j, others[:q])
            if result is None:
                continue
            r, p = result
            strength[link] = min(strength[link], abs(r))
            if p >= alpha:
                removed.append(link)
        for link in removed:
            parents.remove(link)
        parents.sort(key=lambda o: (-strength[o], o))
        parents = parents[:max_parents]
    return parents, strength


def _oracle_pcmci(panel, p, alpha, max_cond_dim, max_parents_stage1):
    """Stage-one parents and strengths of every screened variable, and the
    smallest stage-two p of each feature with a tested link."""
    names = (panel.target_name, *panel.feature_names)
    data = np.column_stack([panel.target, panel.features])
    candidates = [(i, tau) for i in range(data.shape[1]) for tau in range(1, p + 1)]
    view = _LagView(data, p)
    stage1 = {0: _oracle_condition_select(view, 0, candidates, alpha, max_cond_dim,
                                          max_parents_stage1)}
    for i in sorted({link[0] for link in stage1[0][0]}):
        if i not in stage1:
            stage1[i] = _oracle_condition_select(view, i, candidates, alpha, max_cond_dim,
                                                 max_parents_stage1)
    parents0 = stage1[0][0]
    mci_view = _LagView(data, 2 * p)
    p_values = {}
    for link in parents0:
        i, tau = link
        if i == 0:
            continue
        cond = [c for c in parents0 if c != link]
        cond += [(k, lag + tau) for k, lag in stage1[i][0]]
        cond = [c for c in dict.fromkeys(cond) if c != link]
        result = _oracle_parcorr(mci_view, link, 0, cond)
        if result is None:
            continue
        p_values.setdefault(names[i], []).append(result[1])
    return stage1, {name: min(ps) for name, ps in p_values.items()}


# r and p of the Gram path may differ from the oracle's least-squares
# residuals by rounding amplified by the scaled Gram's condition number,
# which is at most numerics._GRAM_COND_MAX there
TOL = 1e-10


def _assert_close_records(got, want):
    assert got.keys() == want.keys()
    for key in want:
        g, w = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL, err_msg=str(key))


def assert_matches_oracle(panel, p, alpha=0.05, max_cond_dim=3, max_parents_stage1=10):
    stage1, p_values = _oracle_pcmci(panel, p, alpha, max_cond_dim, max_parents_stage1)
    data = np.column_stack([panel.target, panel.features])
    candidates = [(i, tau) for i in range(data.shape[1]) for tau in range(1, p + 1)]
    view = _LagView(data, p)
    for j, (parents, _) in stage1.items():
        assert _condition_select(view, j, list(candidates), alpha, max_cond_dim,
                                 max_parents_stage1) == parents
    fs = pcmci_select(panel, p=p, alpha=alpha, max_cond_dim=max_cond_dim,
                      max_parents_stage1=max_parents_stage1)
    # keys: exactly the features with a tested stage-two link
    _assert_close_records(fs.p_values, p_values)
    assert fs.selected == {name for name, pv in fs.p_values.items() if pv < alpha}
    return stage1


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("max_cond_dim", [0, 1, 2, 3])
@pytest.mark.parametrize("max_parents_stage1", [3, 10])
def test_matches_resort_oracle(p, max_cond_dim, max_parents_stage1):
    for seed in range(3):
        panel, _ = generate_svar(SvarSpec(
            d=8, p=p, n=120, edge_density=0.3, target_parents=3, ar_coeff=0.3,
            instantaneous=False, seed=100 * p + seed))
        assert_matches_oracle(panel, p, alpha=0.2, max_cond_dim=max_cond_dim,
                              max_parents_stage1=max_parents_stage1)


def test_matches_oracle_on_skipped_tests(rng):
    # 9 rows: levels with many conditions are skipped, strengths stay inf
    panel = make_panel(rng.normal(size=9), rng.normal(size=(9, 6)))
    with pytest.warns(SkippedTestWarning):
        assert_matches_oracle(panel, 1, alpha=0.99, max_cond_dim=6,
                              max_parents_stage1=12)


def test_too_few_rows_skip_every_unconditional_test(rng):
    # 4 rows at p = 1 leave 3 usable rows: each q = 0 test is skipped with one
    # warning, so no link is removed
    panel = make_panel(rng.normal(size=4), rng.normal(size=(4, 3)))
    view = _LagView(np.column_stack([panel.target, panel.features]), 1)
    candidates = [(i, 1) for i in range(4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parents = _condition_select(view, 0, candidates, 0.05, 0, 10)
    assert [(w.category, str(w.message)) for w in caught] == [
        (SkippedTestWarning, "skipping test with 0 conditions on 3 rows")] * len(candidates)
    assert parents == candidates
    # the momentary tests are skipped too, and an untested link is never
    # selected: no feature has a p-value
    with pytest.warns(SkippedTestWarning):
        fs = pcmci_select(panel, p=1)
    assert fs.selected == set()
    assert fs.p_values == {}
    with pytest.warns(SkippedTestWarning):
        assert_matches_oracle(panel, 1)


def test_tied_strengths_keep_parent_order():
    # integer columns whose window sums are 0 make every q = 0 statistic
    # exact, so X1 and X2, which differ by one swap of rows with equal y,
    # tie exactly in strength; X3 is stronger, so at q = 1 the tie decides
    # what X3 is conditioned on, while X1 and X2 are conditioned on X3
    y = np.tile([3.0, -3.0, 1.0, -1.0, 0.0], 8)
    a = y + np.tile([1.0, -1.0], 20)
    b = a.copy()
    b[[0, 5]] = b[[5, 0]]  # y[0] == y[5], a[0] != a[5]
    c = 2.0 * y + np.tile([1.0, 0.0, -1.0, 0.0], 10)
    noise = np.random.default_rng(3).normal(size=(41, 2))
    features = np.column_stack([np.append(v, 0.0) for v in (a, b, c)] + [noise])
    panel = make_panel(np.append(0.0, y), features)
    view = _LagView(np.column_stack([panel.target, panel.features]), 1)
    _, strength = _oracle_condition_select(view, 0, [(i, 1) for i in range(6)], 0.5, 0, 10)
    assert strength[(1, 1)] == strength[(2, 1)] < strength[(3, 1)]
    for max_cond_dim in (0, 1, 2):
        for max_parents in (1, 2, 3):
            stage1 = assert_matches_oracle(panel, 1, alpha=0.5, max_cond_dim=max_cond_dim,
                                           max_parents_stage1=max_parents)
            if max_cond_dim == 0:
                assert stage1[0][0][:3] == [(3, 1), (1, 1), (2, 1)][:max_parents]


def _reorder_lab():
    # the first links of stage one's q = 1 level lower strengths that would
    # reorder the conditions of the links after them, were they re-ranked
    # within the level
    panel, _ = generate_svar(SvarSpec(
        d=8, p=1, n=120, edge_density=0.3, target_parents=3, ar_coeff=0.3,
        instantaneous=False, seed=1))
    return panel, _LagView(panel.data, 1), [(i, 1) for i in range(panel.data.shape[1])]


def _spy(monkeypatch, name, record):
    original = getattr(pcmci_module, name)

    def spy(*args, **kwargs):
        return record(original, *args, **kwargs)

    monkeypatch.setattr(pcmci_module, name, spy)


def test_level_conditions_are_the_first_q_of_the_previous_order(monkeypatch):
    panel, view, candidates = _reorder_lab()
    levels = []  # (x links, conditions, results) of each _ci_tests call

    def record(original, view, x_links, y_var, cond_sets, gram=None):
        results = original(view, x_links, y_var, cond_sets, gram)
        levels.append((list(x_links), [list(c) for c in cond_sets], results))
        return results

    _spy(monkeypatch, "_ci_tests", record)
    parents = _condition_select(view, 0, candidates, 0.2, 3, 10)
    strength = dict.fromkeys(candidates, np.inf)
    order = list(candidates)
    lazy_differs = False  # would re-ranking within a level change a condition?
    for q, (x_links, cond_sets, results) in enumerate(levels):
        assert x_links == order
        assert cond_sets == [[o for o in order if o != link][:q] for link in order]
        for link, cond, (r, _) in zip(order, cond_sets, results):
            lazy = sorted(order, key=lambda o: -strength[o] if np.isfinite(strength[o]) else 0.0)
            lazy_differs |= [o for o in lazy if o != link][:q] != cond
            strength[link] = min(strength[link], abs(r))
        kept = (o for o, (_, p) in zip(order, results) if p < 0.2)
        order = sorted(kept, key=lambda o: (-strength[o], o))[:10]
    assert len(levels) == 4
    assert lazy_differs
    assert parents == order
    monkeypatch.undo()
    assert_matches_oracle(panel, 1, alpha=0.2)


def test_one_kernel_call_per_stage_one_level(monkeypatch):
    # each level's links, all testable here, go through one _ci_tests call
    # and one kernel call; no link is tested on its own
    _, view, candidates = _reorder_lab()
    kernels, levels = [], []  # (kernel, tests); (links, q, kernel calls made)

    def record_kernel(original, X, *args):
        kernels.append((original.__name__, len(X)))
        return original(X, *args)

    def record_tests(original, view, x_links, y_var, cond_sets, gram=None):
        start = len(kernels)
        results = original(view, x_links, y_var, cond_sets, gram)
        levels.append((len(x_links), len(cond_sets[0]), kernels[start:]))
        return results

    for name in ("pearson_tests", "gram_partial_correlation"):
        _spy(monkeypatch, name, record_kernel)
    _spy(monkeypatch, "_ci_tests", record_tests)
    _condition_select(view, 0, candidates, 0.2, 3, 10)
    assert [(n, q) for n, q, _ in levels] == [(8, 0), (7, 1), (7, 2), (6, 3)]
    for n, q, calls in levels:
        assert calls == [("gram_partial_correlation" if q else "pearson_tests", n)]


def test_near_collinear_conditioning_takes_fallback(rng, monkeypatch):
    n = 200
    x1 = rng.normal(size=n)
    features = np.column_stack([x1, x1 + 1e-5 * rng.normal(size=n), rng.normal(size=n)])
    y = np.zeros(n)
    y[1:] = 0.6 * x1[:-1] + rng.normal(size=n - 1)
    panel = make_panel(y, features)
    calls = []
    original = pcmci_module.partial_correlation

    def counted(x, y, Z=None):
        calls.append(0 if Z is None else np.asarray(Z).shape[1])
        return original(x, y, Z)

    monkeypatch.setattr(pcmci_module, "partial_correlation", counted)
    assert_matches_oracle(panel, 1, alpha=0.05)
    assert calls and min(calls) >= 1  # only conditional tests fall back


@pytest.mark.parametrize("value", [0.0, 0.25])
def test_zero_variance_column_reads_no_evidence(rng, value):
    features = rng.normal(size=(60, 3))
    features[:, 1] = value
    panel = make_panel(rng.normal(size=60), features)
    fs = pcmci_select(panel, p=1)
    assert "X2" not in fs.p_values  # dropped in stage one, never tested in stage two
    without = pcmci_select(make_panel(panel.target, features[:, [0, 2]], ("X1", "X3")), p=1)
    assert fs.selected == without.selected
    _assert_close_records(fs.p_values, without.p_values)


def test_constant_column_with_rounded_mean_matches_oracle(rng):
    # the mean of 0.1s is not exactly 0.1, yet the column is constant: both
    # paths read it as no evidence, also at an alpha that keeps it as a
    # condition of every other test
    features = rng.normal(size=(60, 3))
    features[:, 1] = 0.1
    panel = make_panel(rng.normal(size=60), features)
    assert_matches_oracle(panel, 1, alpha=0.5)
    with pytest.warns(RankDeficientWarning):  # the column as a condition
        assert_matches_oracle(panel, 1, alpha=2.0)


def test_constant_x_or_y_reads_no_evidence_with_conditions(rng):
    data = rng.normal(size=(30, 3))
    data[:, 1] = 0.0
    view = _LagView(data, 1)
    assert _ci_tests(view, [(1, 1)], 0, [[(2, 1)]]) == [(0.0, 1.0)]
    assert _ci_tests(view, [(2, 1)], 1, [[(0, 1)]]) == [(0.0, 1.0)]


def test_constant_feature_changes_no_other_selection():
    # 16 labs with a constant column inserted first, in the middle or last:
    # every window selects and reports exactly as it does without the
    # column, which stage one drops untested in stage two; no other link's
    # p may depend on how many columns the panel holds
    for seed in range(16):
        base, _ = generate_svar(SvarSpec(d=8, n=70, seed=seed))
        for at in (0, 3, 7):
            features = np.insert(base.features, at, 0.07, axis=1)
            names = (*base.feature_names[:at], "C", *base.feature_names[at:])
            wide = make_panel(base.target, features, names)
            for n in (20, 40, 70):
                for p in (1, 2):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", SkippedTestWarning)
                        want = pcmci_select(base.head(n), p=p)
                        got = pcmci_select(wide.head(n), p=p)
                    assert got.selected == want.selected
                    assert got.p_values == want.p_values, (seed, at, n, p)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 7),
    p=st.sampled_from([1, 2]),
    n=st.integers(12, 120),
    alpha=st.sampled_from([0.05, 0.2, 0.5]),
    max_cond_dim=st.integers(0, 3),
    max_parents_stage1=st.sampled_from([3, 10]),
)
def test_matches_oracle_property(seed, d, p, n, alpha, max_cond_dim, max_parents_stage1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    for t in range(1, n):
        x[t, :2] += 0.5 * x[t - 1, 1::-1]  # a lagged link each way
    panel = make_panel(x[:, 0], x[:, 1:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SkippedTestWarning)
        assert_matches_oracle(panel, p, alpha, max_cond_dim, max_parents_stage1)
