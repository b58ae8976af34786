import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from causalfs.errors import Insufficient, NeedEnvironments, RankDeficientWarning
from causalfs.numerics import ols_fit, subset_gram, subset_residuals
from causalfs.panel import AlignedPanel, build_design
from causalfs.selectors import halves_environments, residual_invariance_p, seqicp_select
from causalfs.selectors.base import Environment
from causalfs.synthlab import EnvShift, simulate_svar
from conftest import month_range, per_subset_p_values


def chain_fixture(seed, shift_variable="X2", n=800):
    # X2 -> X1 -> Y (all lag 1); shifting X2 perturbs the parent's marginal
    d = 4
    S = np.zeros((d, d))
    W = np.diag([0.3, 0.3, 0.3, 0.3])
    W[1, 0] = 1.5  # X1 -> Y
    W[2, 1] = 1.0  # X2 -> X1
    shifts = (
        (EnvShift(shift_variable, start_row=n // 2, mean=2.0, scale=1.5),)
        if shift_variable
        else ()
    )
    return simulate_svar(S, [W], n=n, seed=seed, environment_shifts=shifts)


def test_identifies_invariant_parent():
    exact = 0
    for seed in range(100):
        panel, _ = chain_fixture(seed)
        design = build_design(panel, 1)
        fs = seqicp_select(design, halves_environments(design.n),
                           alpha=0.05, max_subset_size=2)
        if set(fs.selected) == {"X1"}:
            exact += 1
    assert exact >= 90


def test_direct_target_intervention_rejects_every_subset():
    for seed in range(5):
        panel, _ = chain_fixture(seed, shift_variable="Y")
        design = build_design(panel, 1)
        envs = halves_environments(design.n)
        fs = seqicp_select(design, envs, alpha=0.05, max_subset_size=2)
        assert fs.selected == frozenset()
        assert all(p <= 0.05 for p in per_subset_p_values(design, envs, 2).values())


def test_identical_environments_intersection_set_algebra():
    panel, _ = chain_fixture(11, shift_variable=None)
    design = build_design(panel, 1)
    envs = halves_environments(design.n)
    fs = seqicp_select(design, envs, alpha=0.05, max_subset_size=2)
    # with no shift everything is invariant: accepted sets abound, and the
    # intersection must sit inside every accepted subset -- notably the empty one
    assert per_subset_p_values(design, envs, 2)[()] > 0.05
    assert fs.selected == frozenset()


def test_output_contained_in_every_accepted_subset():
    # defining property of the intersection, checked by reimplementing the
    # accept loop with the module's own invariance oracle
    from itertools import combinations

    from causalfs.numerics import ols_fit
    from causalfs.selectors.seqicp import residual_invariance_p

    panel, _ = chain_fixture(3)
    design = build_design(panel, 1)
    envs = halves_environments(design.n)
    fs = seqicp_select(design, envs, alpha=0.05, max_subset_size=2)
    names = design.feature_names
    for size in range(0, 3):
        for subset in combinations(names, size):
            cols = [0] + design.feature_column_indices(subset)
            fit = ols_fit(design.X[:, cols], design.y)
            p = residual_invariance_p(fit.residuals, envs)
            if p > 0.05:
                assert fs.selected <= frozenset(subset)


def test_single_environment_rejected():
    panel, _ = chain_fixture(1)
    design = build_design(panel, 1)
    with pytest.raises(NeedEnvironments):
        seqicp_select(design, [Environment("only", np.arange(design.n))])


def test_environments_must_partition():
    panel, _ = chain_fixture(2)
    design = build_design(panel, 1)
    bad = [
        Environment("a", np.arange(0, 100)),
        Environment("b", np.arange(50, design.n)),  # overlap
    ]
    with pytest.raises(ValueError):
        seqicp_select(design, bad)


def test_environment_rows_out_of_range_rejected():
    # rows 1..n: n distinct rows, but row n does not exist
    panel, _ = chain_fixture(2)
    design = build_design(panel, 1)
    n = design.n
    bad = [Environment("a", np.arange(1, n // 2)), Environment("b", np.arange(n // 2, n + 1))]
    with pytest.raises(ValueError, match="partition"):
        seqicp_select(design, bad)


def test_subset_size_above_feature_count_is_capped():
    # 3 features: sizes above 3 add no subset, so they must not add regressors
    # to the feasibility guard either (15-row environments, 2 lags)
    rng = np.random.default_rng(0)
    panel = AlignedPanel(month_range("2000-01", 32),
                         np.column_stack([rng.normal(size=32), rng.normal(size=(32, 3))]),
                         ("Y", "X1", "X2", "X3"))
    design = build_design(panel, 2)
    assert seqicp_select(design, max_subset_size=9) == seqicp_select(design, max_subset_size=3)


def thirds_environments(n):
    # three calendar-like regimes: a middle block between two outer ones
    idx = np.arange(n)
    return [Environment("normal", np.r_[idx[: n // 3], idx[2 * n // 3 :]]),
            Environment("crisis", idx[n // 3 : n // 2]),
            Environment("recovery", idx[n // 2 : 2 * n // 3])]


def batched_p_values(design, envs, max_subset_size):
    # the batched path: one residual call and one test call per subset size
    gram = subset_gram(design.X, design.y)
    p_values = {}
    for size in range(max_subset_size + 1):
        subsets = list(combinations(design.feature_names, size))
        sets = [[0] + design.feature_column_indices(s) for s in subsets]
        p_values.update(zip(subsets, residual_invariance_p(subset_residuals(gram, sets), envs)))
    return p_values


def assert_selects_as_per_subset(fs, p_values, alpha):
    accepted = [frozenset(s) for s, p in p_values.items() if p > alpha]
    assert fs.selected == (frozenset.intersection(*accepted) if accepted else frozenset())


class TestResidualInvariance:
    @pytest.mark.parametrize("make_envs", [halves_environments, thirds_environments],
                             ids=["halves", "three-calendar"])
    def test_batched_rows_equal_one_dimensional_calls(self, make_envs):
        rng = np.random.default_rng(5)
        n = 90
        R = rng.normal(size=(25, n)) * rng.uniform(0.1, 10, size=(25, 1))
        R[::2, n // 2 :] = 1.5 * R[::2, n // 2 :] + 0.4  # shifted rows
        R[3] = 0.0  # zero variance everywhere: p = 1
        envs = make_envs(n)
        batched = residual_invariance_p(R, envs)
        assert batched.shape == (25,)
        for row, p in zip(R, batched):
            single = residual_invariance_p(row, envs)
            assert isinstance(single, float)
            np.testing.assert_allclose(p, single, rtol=1e-12, atol=0)
            if row.any():  # the textbook tests, Bonferroni-combined
                groups = [row[env.rows] for env in envs]
                oracle = min(1.0, 2 * min(stats.f_oneway(*groups).pvalue,
                                          stats.bartlett(*groups).pvalue))
                np.testing.assert_allclose(single, oracle, rtol=1e-9)
        assert batched[3] == 1.0

    @pytest.mark.parametrize("rows", [
        (np.arange(0, 15), np.arange(15, 30)),  # rows 30-39 in no environment
        (np.arange(0, 20), np.arange(15, 40)),  # rows 15-19 in both
        (np.arange(1, 20), np.arange(20, 41)),  # row 40 out of range, row 0 missing
    ], ids=["uncovered", "overlap", "out-of-range"])
    def test_environments_must_partition_the_residuals(self, rows):
        r = np.random.default_rng(1).normal(size=40)
        r[30:] += 5.0
        envs = [Environment("a", rows[0]), Environment("b", rows[1])]
        for residuals in (r, np.vstack([r, r])):
            with pytest.raises(ValueError, match="partition"):
                residual_invariance_p(residuals, envs)

    @pytest.mark.parametrize("sizes", [(9, 1), (10, 0)], ids=["one-row", "empty"])
    def test_environment_below_two_rows_is_insufficient(self, sizes):
        residuals = np.random.default_rng(0).normal(size=sum(sizes))
        envs = [Environment("big", np.arange(sizes[0])),
                Environment("tiny", np.arange(sizes[0], sum(sizes)))]
        for r in (residuals, np.vstack([residuals, residuals])):
            with pytest.raises(Insufficient, match="'tiny'"):
                residual_invariance_p(r, envs)


class TestBatchedFits:
    @pytest.mark.parametrize("seed", range(6))
    def test_p_values_match_per_subset_ols_fit(self, seed):
        panel, _ = chain_fixture(seed, n=61 + 40 * (seed % 3))
        design = build_design(panel, 1 + seed % 2)
        for envs in (halves_environments(design.n), thirds_environments(design.n)):
            expected = per_subset_p_values(design, envs, 2)
            got = batched_p_values(design, envs, 2)
            assert got.keys() == expected.keys()
            for subset, p in expected.items():
                np.testing.assert_allclose(got[subset], p, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("seed", [684, 889, 1264])
    def test_near_collinear_p_value_within_tolerance(self, seed):
        # scaled Gram condition numbers of 6e5-7e5, just below the cutoff:
        # without the refinement step these p-values moved by 1.2e-10 to 2.9e-10
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3)) + rng.uniform(-1, 1, size=3)
        X[:, 2] = X[:, 1] + 10.0 ** rng.uniform(-3.5, -2) * rng.normal(size=60)
        y = 0.5 * X[:, 0] + rng.normal(size=60)
        y[30:] *= rng.uniform(0.5, 2)
        A = np.column_stack([np.ones(60), X])
        scale = np.sqrt((A * A).sum(axis=0))
        assert 5e5 < np.linalg.cond(A.T @ A / np.outer(scale, scale)) < 1e6
        envs = halves_environments(60)
        got = residual_invariance_p(subset_residuals(subset_gram(X, y), [[0, 1, 2]]), envs)
        expected = residual_invariance_p(ols_fit(X, y).residuals, envs)
        np.testing.assert_allclose(got[0], expected, rtol=1e-10, atol=0)

    def test_duplicated_feature_warns_through_fallback(self):
        base, _ = chain_fixture(4, n=120)
        data = np.column_stack([base.data, base.features[:, 0]])
        panel = AlignedPanel(base.dates, data, (*base.names, "X1copy"))
        design = build_design(panel, 1)
        envs = halves_environments(design.n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientWarning)
            expected = per_subset_p_values(design, envs, 2)
        with pytest.warns(RankDeficientWarning):
            fs = seqicp_select(design, envs, alpha=0.05, max_subset_size=2)
        assert_selects_as_per_subset(fs, expected, 0.05)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 90),
           d=st.integers(1, 4), p=st.integers(1, 2), three=st.booleans(),
           max_subset_size=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_selection_matches_per_subset_path(self, seed, n, d, p, three, max_subset_size):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        y = 0.5 * np.r_[0.0, x[:-1, 0]] + rng.normal(size=n)
        y[n // 2 :] *= rng.uniform(0.5, 2.0)  # a variance shift, sometimes detected
        panel = AlignedPanel(month_range("2000-01", n), np.column_stack([y, x]),
                             ("Y", *(f"X{i}" for i in range(d))))
        design = build_design(panel, p)
        envs = (thirds_environments if three else halves_environments)(design.n)
        if min(len(e) for e in envs) <= 2 + p * min(max_subset_size, d) + 1:
            with pytest.raises(Insufficient):
                seqicp_select(design, envs, max_subset_size=max_subset_size)
            return
        expected = per_subset_p_values(design, envs, max_subset_size)
        fs = seqicp_select(design, envs, alpha=0.05, max_subset_size=max_subset_size)
        if all(abs(q - 0.05) > 1e-9 for q in expected.values()):
            assert_selects_as_per_subset(fs, expected, 0.05)


def test_wide_call_memory_is_bounded():
    # 120 features, all 7140 pairs: their residuals together are 11 MB
    rng = np.random.default_rng(2)
    n, d = 200, 120
    panel = AlignedPanel(month_range("2000-01", n + 1),
                         np.column_stack([rng.normal(size=n + 1), rng.normal(size=(n + 1, d))]),
                         ("Y", *(f"X{i}" for i in range(d))))
    design = build_design(panel, 1)
    tracemalloc.start()
    try:
        seqicp_select(design, max_subset_size=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6  # about 60 MB unchunked
