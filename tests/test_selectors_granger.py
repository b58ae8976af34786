import warnings

import numpy as np
import pytest

from causalfs.errors import RankDeficientWarning, Underdetermined
from causalfs.numerics import _GRAM_COND_MAX, f_sf, f_test_nested, nested_rss, ols_fit
from causalfs.panel import build_design
from causalfs.selectors import granger_select
from causalfs.synthlab import SvarSpec, generate_svar

from conftest import make_panel, near_copy_panel


def test_wide_window_with_too_few_rows_raises_before_forming_the_gram(rng):
    # width 121 (the target's lag and 120 features) on 100 rows
    panel = make_panel(rng.normal(size=101), rng.normal(size=(101, 120)))
    design = build_design(panel, 1)
    assert design.X.shape == (100, 121)
    with pytest.raises(Underdetermined, match="100 rows for 122 regressors"):
        granger_select(design)
    assert "gram" not in vars(design.engine)


def test_detects_single_lagged_driver():
    # Y_t = 0.8 X1_{t-1} + eps, X2 pure noise
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 500
        x1 = rng.normal(size=n + 1)
        x2 = rng.normal(size=n + 1)
        y = np.empty(n + 1)
        y[0] = rng.normal()
        y[1:] = 0.8 * x1[:-1] + rng.normal(size=n)
        panel = make_panel(y, np.column_stack([x1, x2]))
        fs = granger_select(build_design(panel, 1), alpha=0.05)
        if "X1" in fs.selected and "X2" not in fs.selected:
            hits += 1
    assert hits >= 95


def test_false_positive_calibration_on_noise():
    counts = []
    for seed in range(200):
        panel, _ = generate_svar(
            SvarSpec(d=11, p=1, n=300, edge_density=0.0, instantaneous=False,
                     seed=seed)
        )
        fs = granger_select(build_design(panel, 1), alpha=0.05)
        counts.append(len(fs.selected))
    mean_selected = float(np.mean(counts))
    assert abs(mean_selected - 0.5) <= 0.2  # 10 features x alpha 0.05


def test_duplicated_column_warns_but_selects(rng):
    n = 200
    x = rng.normal(size=n)
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = 1.0 * x[:-1] + 0.1 * rng.normal(size=n - 1)
    panel = make_panel(y, np.column_stack([x, x]), names=("A", "A_copy"))
    with pytest.warns(RankDeficientWarning):
        fs = granger_select(build_design(panel, 1), alpha=0.05)
    assert set(fs.p_values) == {"A", "A_copy"}


def test_scaling_invariance_of_statistic(rng):
    n = 300
    feats = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    base = build_design(make_panel(y, feats), 1)
    scaled = feats.copy()
    scaled[:, 1] *= 1234.5
    resc = build_design(make_panel(y, scaled), 1)
    base_f, resc_f = _nested_f_tests(base), _nested_f_tests(resc)
    base_p = granger_select(base, alpha=0.05).p_values
    resc_p = granger_select(resc, alpha=0.05).p_values
    for name in ("X1", "X2", "X3"):
        assert base_f[name][0] == pytest.approx(resc_f[name][0], abs=1e-8, rel=1e-8)
        assert base_p[name] == pytest.approx(resc_p[name], abs=1e-8, rel=1e-8)


def test_never_selects_target_lag(rng):
    n = 250
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.9 * y[t - 1] + rng.normal()
    panel = make_panel(y, rng.normal(size=(n, 2)))
    fs = granger_select(build_design(panel, 1), alpha=0.05)
    assert "Y" not in fs.selected
    assert set(fs.p_values) == {"X1", "X2"}


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
def test_p_values_key_every_feature_and_decide_selection(rng, alpha):
    n = 120
    feats = rng.normal(size=(n, 6))
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = 0.3 * feats[:-1, 0] + 0.2 * feats[:-1, 3] + rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 2)
    fs = granger_select(design, alpha=alpha)
    assert tuple(fs.p_values) == design.feature_names
    assert fs.selected == {name for name, p in fs.p_values.items() if p < alpha}
    assert fs.p_values == {name: p for name, (_, p) in _nested_f_tests(design).items()}


def test_joint_lag_block_q_equals_p(rng):
    # with p=2 the restricted model drops both lags of the feature
    n = 300
    x = rng.normal(size=n)
    y = np.empty(n)
    y[:2] = 0.0
    y[2:] = 0.5 * x[:-2] + rng.normal(size=n - 2)  # only lag 2 matters
    panel = make_panel(y, x)
    fs = granger_select(build_design(panel, 2), alpha=0.01)
    assert "X1" in fs.selected


def _nested_f_tests(design):
    """(F, p) per feature from ``f_test_nested`` on ``nested_rss``, the two
    calls ``granger_select`` makes."""
    n, k_cols = design.X.shape
    blocks = list(design.blocks.values())
    rss_full, rss_restricted = nested_rss(design.engine, blocks)
    test = f_test_nested(rss_restricted, rss_full, q=[len(b) for b in blocks], n=n,
                         k_full=k_cols + 1)
    return dict(zip(design.blocks, zip(test.statistic.tolist(), test.p_value.tolist())))


def _refit_f_tests(design, fit_rss):
    """(F, p) per feature from refitting the model without its lag block."""
    n, k_cols = design.X.shape
    full = fit_rss(design.X, design.y)
    out = {}
    for name in design.feature_names:
        drop = design.feature_column_indices([name])
        keep = [i for i in range(k_cols) if i not in drop]
        test = f_test_nested(fit_rss(design.X[:, keep], design.y), full,
                             q=len(drop), n=n, k_full=k_cols + 1)
        out[name] = (test.statistic, test.p_value)
    return out


def _lstsq_rss(X, y):
    A = np.column_stack([np.ones(len(y)), X])
    resid = y - A @ np.linalg.lstsq(A, y, rcond=None)[0]
    return float(resid @ resid)


@pytest.mark.parametrize("p", [1, 2])
def test_matches_per_feature_lstsq_refits(rng, p):
    n, d = 150, 8
    feats = rng.normal(size=(n, d))
    y = np.empty(n)
    y[:p] = 0.0
    y[p:] = 0.3 * feats[:-p, 0] - 0.25 * feats[:-p, 1] + rng.normal(size=n - p)
    design = build_design(make_panel(y, feats), p)
    oracle = _refit_f_tests(design, _lstsq_rss)
    got = _nested_f_tests(design)
    fs = granger_select(design, alpha=0.05)
    for name, (stat, pval) in oracle.items():
        assert got[name][0] == pytest.approx(stat, rel=1e-9)
        assert fs.p_values[name] == pytest.approx(pval, rel=1e-9)
    assert fs.selected == {name for name, (_, pv) in oracle.items() if pv < 0.05}


@pytest.mark.parametrize("p", [1, 2])
def test_near_collinear_full_rank_design_matches_refits(rng, p):
    n, d = 150, 8
    feats = rng.normal(size=(n, d))
    feats[:, -1] = feats[:, -2] + 2e-6 * rng.normal(size=n)  # X8 nearly X7
    y = np.empty(n)
    y[:p] = 0.0
    y[p:] = 0.3 * feats[:-p, 0] - 0.25 * feats[:-p, 1] + rng.normal(size=n - p)
    design = build_design(make_panel(y, feats), p)
    assert 1e5 < np.linalg.cond(np.column_stack([np.ones(design.n), design.X])) < 1e7
    oracle = _refit_f_tests(design, _lstsq_rss)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficientWarning)
        fs = granger_select(design, alpha=0.05)
        got = _nested_f_tests(design)
    # F is a difference of two RSS values, which a float64 refit holds only
    # to ~1e-9 of the RSS at cond 1e6 (it drifts ~6e-9 from the exact F on
    # the smallest statistics here). So the refit is matched to 1e-9 of the
    # restricted RSS: F to 1e-9 * (F + df2 / q), p within the matching band.
    df2 = design.n - design.X.shape[1] - 1
    for name, (stat, _) in oracle.items():
        tol = 1e-9 * (stat + df2 / p)
        got_stat, got_p = got[name][0], fs.p_values[name]
        assert abs(got_stat - stat) <= tol
        assert f_sf(stat + tol, p, df2) <= got_p <= f_sf(stat - tol, p, df2)
    assert fs.selected == {name for name, (_, pv) in oracle.items() if pv < 0.05}


def test_exactly_collinear_design_refits_bit_for_bit(rng):
    n = 200
    feats = rng.normal(size=(n, 3))
    feats[:, 2] = feats[:, 1]
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = 0.5 * feats[:-1, 0] + rng.normal(size=n - 1)
    design = build_design(make_panel(y, feats), 2)
    with pytest.warns(RankDeficientWarning):
        fs = granger_select(design, alpha=0.05)
    with pytest.warns(RankDeficientWarning):
        got = _nested_f_tests(design)
    with pytest.warns(RankDeficientWarning):
        oracle = _refit_f_tests(design, lambda X, y: ols_fit(X, y).rss)
    assert got == oracle
    assert fs.p_values == {name: p for name, (_, p) in oracle.items()}


def _svd_spy(monkeypatch):
    """A list that gains one entry per ``np.linalg.svd`` call."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    return calls


def _scaled_gram_cond(design):
    A = np.column_stack([np.ones(design.n), design.X])
    G = A.T @ A
    scale = np.sqrt(np.diag(G))
    w = np.linalg.eigvalsh(G / scale[:, None] / scale)
    return w[-1] / w[0]


@pytest.mark.parametrize("sigma, cond_range, svd_calls", [
    (2.0e-3, (0.8 * _GRAM_COND_MAX, _GRAM_COND_MAX), 0),
    (1.8e-3, (_GRAM_COND_MAX, 1.25 * _GRAM_COND_MAX), 1),
], ids=["below-cap", "above-cap"])
def test_both_sides_of_the_gram_guard_match_refits(monkeypatch, sigma, cond_range, svd_calls):
    design = build_design(near_copy_panel(sigma), 1)
    assert cond_range[0] < _scaled_gram_cond(design) < cond_range[1]
    oracle = _refit_f_tests(design, _lstsq_rss)
    calls = _svd_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficientWarning)
        fs = granger_select(design, alpha=0.05)
    assert len(calls) == svd_calls
    got = _nested_f_tests(design)
    # the refit band of test_near_collinear_full_rank_design_matches_refits
    df2 = design.n - design.X.shape[1] - 1
    for name, (stat, _) in oracle.items():
        tol = 1e-9 * (stat + df2)
        assert abs(got[name][0] - stat) <= tol
        assert f_sf(stat + tol, 1, df2) <= fs.p_values[name] <= f_sf(stat - tol, 1, df2)
    assert fs.selected == {name for name, (_, pv) in oracle.items() if pv < 0.05}


# near-square: rows = regressors + 9, the shape of a width-120 backtest's
# first Granger month (131 rows for 122 regressors)
@pytest.mark.parametrize("n, d, p, dof", [(150, 6, 3, 127), (52, 40, 1, 9)],
                         ids=["q3-blocks", "near-square"])
def test_q_by_q_blocks_and_near_square_designs_match_refits(rng, monkeypatch, n, d, p, dof):
    feats = rng.normal(size=(n, d))
    y = np.empty(n)
    y[:p] = 0.0
    y[p:] = 0.4 * feats[:-p, 0] - 0.3 * feats[:-p, 1] + rng.normal(size=n - p)
    design = build_design(make_panel(y, feats), p)
    assert design.n - design.X.shape[1] - 1 == dof
    oracle = _refit_f_tests(design, _lstsq_rss)
    calls = _svd_spy(monkeypatch)
    fs = granger_select(design, alpha=0.05)
    got = _nested_f_tests(design)
    assert calls == []
    for name, (stat, pval) in oracle.items():
        assert got[name][0] == pytest.approx(stat, rel=1e-9)
        assert fs.p_values[name] == pytest.approx(pval, rel=1e-9)
    assert fs.selected == {name for name, (_, pv) in oracle.items() if pv < 0.05}
