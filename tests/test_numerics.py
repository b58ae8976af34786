import ast
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import causalfs
from causalfs.errors import (
    BadK,
    DegenerateInput,
    NotConvergedWarning,
    RankDeficientWarning,
    Underdetermined,
)
from causalfs import numerics
from causalfs.panel import build_design
from causalfs.selectors import pcmci as pcmci_module
from causalfs.selectors.granger import granger_select
from causalfs.selectors import varlingam as varlingam_module
from causalfs.selectors.pcmci import _ci_tests, _LagView
from causalfs.selectors.varlingam import varlingam_fit
from causalfs.synthlab import SvarSpec, generate_svar
from causalfs.numerics import (
    _ScaledSystems,
    _correlation_p,
    acyclicity,
    centre,
    cv_folds,
    cv_mse_sets,
    f_sf,
    f_test_nested,
    fastica,
    gram_partial_correlation,
    kmeans,
    nested_rss,
    ols_fit,
    partial_correlation,
    pearson_tests,
    standardize,
    subset_gram,
    subset_residuals,
)

from conftest import assert_lbfgsb_matches_minimize, make_panel, near_copy_panel

# frozen from an independent quadrature of the F(2, 17) density over [1.7, inf)
F_SF_1P7_2_17 = 0.21230460218830446


class TestOls:
    def test_exact_fit(self):
        fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(fit.beta, [0.0, 2.0], atol=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)

    def test_constant_target_with_intercept(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        fit = ols_fit(X, np.full(20, 7.5))
        np.testing.assert_allclose(fit.beta, [7.5, 0, 0, 0], atol=1e-10)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations_oracle(self, rng):
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        A = np.column_stack([np.ones(30), X])
        oracle = np.linalg.solve(A.T @ A, A.T @ y)
        fit = ols_fit(X, y)
        np.testing.assert_allclose(fit.beta, oracle, rtol=1e-8)

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            ols_fit(np.eye(3), np.ones(3))

    def test_rank_deficiency_warns_minimum_norm(self, rng):
        x = rng.normal(size=20)
        X = np.column_stack([x, x])  # duplicated column
        with pytest.warns(RankDeficientWarning):
            fit = ols_fit(X, 3 * x)
        assert fit.rank < fit.k
        # minimum-norm solution splits the coefficient across the twins
        np.testing.assert_allclose(fit.beta, [0.0, 1.5, 1.5], rtol=1e-8, atol=1e-12)

    def test_residuals_orthogonal_to_regressors(self, rng):
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        fit = ols_fit(X, y)
        A = np.column_stack([np.ones(40), X])
        bound = 1e-8 * np.linalg.norm(y)
        assert np.all(np.abs(A.T @ fit.residuals) < bound)

    def test_projection_idempotence(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        fit = ols_fit(X, y)
        fitted = y - fit.residuals
        refit = ols_fit(X, fitted)
        np.testing.assert_allclose(refit.beta, fit.beta, atol=1e-10)


def _lstsq_rss(A, y):
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ beta
    return float(resid @ resid)


def _wide_design():
    """The lag-1 design of a panel of 120 features sharing one factor:
    150 rows and 121 columns, well inside the guard's cap."""
    rng = np.random.default_rng(37)
    common = rng.normal(size=(151, 1))
    feats = rng.normal(size=(151, 120)) + 0.8 * common
    y = np.zeros(151)
    y[1:] = feats[:-1, :3] @ np.array([0.5, -1.0, 0.3]) + rng.normal(size=150)
    return build_design(make_panel(y, feats), 1)


class TestNestedRss:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("collinear", [False, True], ids=["random", "cond1e6"])
    def test_matches_per_block_lstsq_oracle(self, rng, p, collinear):
        n, n_blocks = 90, 6
        X = rng.normal(size=(n, 1 + p * n_blocks))
        if collinear:  # the last column nearly copies the one before
            X[:, -1] = X[:, -2] + 2e-6 * rng.normal(size=n)
        y = X[:, :3] @ np.array([0.5, -1.0, 0.3]) + rng.normal(size=n)
        blocks = [list(range(1 + b * p, 1 + (b + 1) * p)) for b in range(n_blocks)]
        A = np.column_stack([np.ones(n), X])
        if collinear:
            assert 1e5 < np.linalg.cond(A) < 1e7
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            rss_full, restricted = nested_rss(subset_gram(X, y), blocks)
        assert rss_full == pytest.approx(_lstsq_rss(A, y), rel=1e-9)
        oracle = [_lstsq_rss(np.delete(A, [1 + c for c in b], axis=1), y)
                  for b in blocks]
        np.testing.assert_allclose(restricted, oracle, rtol=1e-9)

    def test_blocks_of_mixed_widths_match_lstsq_oracle(self, rng):
        n = 80
        X = rng.normal(size=(n, 7))
        y = X[:, :3] @ np.array([0.5, -1.0, 0.3]) + rng.normal(size=n)
        blocks = [[0], [1, 2], [3, 4, 5], [6], [5, 2]]
        A = np.column_stack([np.ones(n), X])
        rss_full, restricted = nested_rss(subset_gram(X, y), blocks)
        assert rss_full == pytest.approx(_lstsq_rss(A, y), rel=1e-9)
        oracle = [_lstsq_rss(np.delete(A, [1 + c for c in b], axis=1), y)
                  for b in blocks]
        np.testing.assert_allclose(restricted, oracle, rtol=1e-9)

    def test_rank_deficient_design_refits_each_block(self, rng):
        n = 60
        X = rng.normal(size=(n, 4))
        X[:, 3] = X[:, 2]  # exact copy
        y = X[:, 0] + rng.normal(size=n)
        blocks = [[0], [1], [2], [3]]
        with pytest.warns(RankDeficientWarning):
            rss_full, restricted = nested_rss(subset_gram(X, y), blocks)
        with pytest.warns(RankDeficientWarning):
            oracle = [ols_fit(X[:, [i for i in range(4) if i not in block]], y).rss
                      for block in blocks]
            assert rss_full == ols_fit(X, y).rss
        assert restricted.tolist() == oracle

    def test_underdetermined(self, rng):
        with pytest.raises(Underdetermined):
            nested_rss(subset_gram(rng.normal(size=(5, 4)), rng.normal(size=5)), [[0]])

    @pytest.mark.parametrize("q", [1, 2])
    def test_wide_design_matches_refits_and_the_svd_form(self, monkeypatch, q):
        # the Wald gaps from the triangular factor, against a refit of every
        # restricted model and against the SVD Wald form the guard falls
        # back to (forced by a cap of 1, which no Gram passes)
        design = _wide_design()
        X, y = design.X, design.y
        A = np.column_stack([np.ones(design.n), X])
        columns = list(range(X.shape[1]))
        blocks = [columns[i:i + q] for i in range(0, len(columns) - q + 1, q)]
        assert _ScaledSystems(design.engine.gram[:-1, :-1]).ok
        rss_full, restricted = nested_rss(design.engine, blocks)
        assert rss_full == pytest.approx(_lstsq_rss(A, y), rel=1e-10)
        oracle = [_lstsq_rss(np.delete(A, [1 + c for c in b], axis=1), y) for b in blocks]
        np.testing.assert_allclose(restricted, oracle, rtol=1e-10)
        monkeypatch.setattr(numerics, "_GRAM_COND_MAX", 1.0)
        assert not _ScaledSystems(design.engine.gram[:-1, :-1]).ok
        svd_full, svd_restricted = nested_rss(design.engine, blocks)
        assert rss_full == pytest.approx(svd_full, rel=1e-12)
        np.testing.assert_allclose(restricted, svd_restricted, rtol=1e-12)

    def test_granger_select_does_not_invert(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", mock.Mock(side_effect=AssertionError("inverted")))
        assert {"X1", "X2"} <= granger_select(_wide_design()).selected


def _lstsq_cv_mse(X, y, cols, blocks):
    """Mean out-of-block MSE from one np.linalg.lstsq refit per fold."""
    losses = []
    for block in blocks:
        train = np.setdiff1d(np.arange(len(y)), block)
        beta = np.linalg.lstsq(
            np.column_stack([np.ones(len(train)), X[train][:, cols]]), y[train], rcond=None
        )[0]
        pred = np.column_stack([np.ones(len(block)), X[block][:, cols]]) @ beta
        losses.append(float(((y[block] - pred) ** 2).mean()))
    return float(np.mean(losses))


def _no_ols_fit(*args, **kwargs):
    raise AssertionError("ols_fit called on a well-conditioned fold")


class TestCvMseSets:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("collinear", [False, True], ids=["random", "cond1e6"])
    def test_matches_per_fold_lstsq_oracle(self, rng, p, collinear):
        n, n_blocks = 90, 4
        X = rng.normal(size=(n, 1 + p * n_blocks))
        if collinear:  # the last column nearly copies the one before
            X[:, -1] = X[:, -2] + 2e-6 * rng.normal(size=n)
            assert 1e5 < np.linalg.cond(np.column_stack([np.ones(n), X])) < 1e7
        y = X[:, :3] @ np.array([0.5, -1.0, 0.3]) + rng.normal(size=n)
        blocks = np.array_split(np.arange(n), 5)
        sets = [[0] + [c for b in range(n_blocks) if b != drop
                       for c in range(1 + b * p, 1 + (b + 1) * p)]
                for drop in range(n_blocks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            got = cv_mse_sets(cv_folds(subset_gram(X, y), blocks), sets)
        oracle = [_lstsq_cv_mse(X, y, s, blocks) for s in sets]
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_moderate_conditioning_stays_on_the_gram_path(self, rng, monkeypatch):
        n = 80
        X = rng.normal(size=(n, 4))
        X[:, 3] = X[:, 2] + 1e-2 * rng.normal(size=n)  # scaled Gram cond ~1e4
        y = X @ np.array([0.5, -1.0, 0.3, 0.2]) + rng.normal(size=n)
        blocks = np.array_split(np.arange(n), 5)
        sets = [[0, 2, 3], [1, 2, 3], [0, 1, 3]]
        monkeypatch.setattr(numerics, "ols_fit", _no_ols_fit)
        got = cv_mse_sets(cv_folds(subset_gram(X, y), blocks), sets)
        oracle = [_lstsq_cv_mse(X, y, s, blocks) for s in sets]
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_ill_conditioned_folds_refit_with_ols_fit(self, rng, monkeypatch):
        n = 60
        X = rng.normal(size=(n, 3))
        X[:, 2] = X[:, 1] + 2e-6 * rng.normal(size=n)
        y = X[:, 0] + rng.normal(size=n)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ols_fit(*args, **kwargs)

        monkeypatch.setattr(numerics, "ols_fit", counting)
        cv_mse_sets(cv_folds(subset_gram(X, y), np.array_split(np.arange(n), 4)), [[0, 1], [1, 2]])
        assert len(calls) == 4  # every fold of the collinear set, none of the other

    def test_exact_duplicate_warns_and_equals_ols_fit_path(self, rng):
        n = 60
        X = rng.normal(size=(n, 3))
        X[:, 2] = X[:, 1]  # exact copy
        y = X[:, 0] + rng.normal(size=n)
        blocks = np.array_split(np.arange(n), 5)
        with pytest.warns(RankDeficientWarning):
            got = cv_mse_sets(cv_folds(subset_gram(X, y), blocks), [[0, 1, 2]])
        losses = []
        with pytest.warns(RankDeficientWarning):
            for block in blocks:
                train = np.setdiff1d(np.arange(n), block)
                fit = ols_fit(X[train], y[train])
                pred = np.column_stack([np.ones(len(block)), X[block]]) @ fit.beta
                losses.append(float(((y[block] - pred) ** 2).mean()))
        assert got.tolist() == [float(np.mean(losses))]

    def test_chunked_stacks_match_one_stack(self, rng, monkeypatch):
        n = 70
        X = rng.normal(size=(n, 6))
        y = X[:, 0] + rng.normal(size=n)
        cv = cv_folds(subset_gram(X, y), np.array_split(np.arange(n), 5))
        sets = [[c for c in range(6) if c != drop] for drop in range(6)]
        whole = cv_mse_sets(cv, sets)
        monkeypatch.setattr(numerics, "_CV_CHUNK_ENTRIES", 1)  # one set per chunk
        np.testing.assert_allclose(cv_mse_sets(cv, sets), whole, rtol=1e-14)

    def test_wide_backward_step_memory_is_bounded(self, rng):
        n, width = 200, 121
        X = rng.normal(size=(n, width))
        y = X[:, 0] + rng.normal(size=n)
        cv = cv_folds(subset_gram(X, y), np.array_split(np.arange(n), 5))
        sets = [[c for c in range(width) if c != drop] for drop in range(1, width)]
        tracemalloc.start()
        try:
            cv_mse_sets(cv, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 120 candidates x 5 folds x 121 x 121 stacked at once is ~70 MB
        assert peak < 20e6

    def test_underdetermined_fold_scores_inf(self, rng):
        X = rng.normal(size=(10, 6))
        cv = cv_folds(subset_gram(X, rng.normal(size=10)), np.array_split(np.arange(10), 2))
        assert cv_mse_sets(cv, [[0, 1, 2, 3], [1, 2, 3, 4]]).tolist() == [math.inf] * 2


class TestSubsetResiduals:
    @pytest.mark.parametrize("collinear", [False, True], ids=["random", "cond1e5"])
    def test_matches_ols_fit_residuals(self, rng, monkeypatch, collinear):
        n = 60
        X = rng.normal(size=(n, 5)) + 1.0
        if collinear:
            X[:, 4] = X[:, 3] + 1e-2 * rng.normal(size=n)
        y = X[:, :2] @ np.array([0.5, -1.0]) + rng.normal(size=n)
        sets = [[0, a, b] for a in range(1, 5) for b in range(a + 1, 5)]
        oracle = [ols_fit(X[:, s], y).residuals for s in sets]
        monkeypatch.setattr(numerics, "ols_fit", _no_ols_fit)  # all on the Gram path
        got = subset_residuals(subset_gram(X, y), sets)
        assert got.shape == (len(sets), n)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10 * np.linalg.norm(y))

    def test_exact_duplicate_warns_and_equals_ols_fit(self, rng):
        n = 40
        X = rng.normal(size=(n, 3))
        X[:, 2] = X[:, 1]
        y = X[:, 0] + rng.normal(size=n)
        sets = [[0, 1], [1, 2], [0, 2]]
        with pytest.warns(RankDeficientWarning):
            got = subset_residuals(subset_gram(X, y), sets)
        with pytest.warns(RankDeficientWarning):
            refit = ols_fit(X[:, [1, 2]], y).residuals
        assert got[1].tolist() == refit.tolist()
        np.testing.assert_allclose(got[0], ols_fit(X[:, [0, 1]], y).residuals, atol=1e-12)

    def test_underdetermined(self, rng):
        X = rng.normal(size=(4, 4))
        with pytest.raises(Underdetermined):
            subset_residuals(subset_gram(X, rng.normal(size=4)), [[0, 1, 2]])


class TestFTest:
    def test_equal_rss_gives_p_one(self):
        res = f_test_nested(10.0, 10.0, q=2, n=20, k_full=3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_against_quadrature_oracle(self):
        res = f_test_nested(12.0, 10.0, q=2, n=20, k_full=3)
        assert res.statistic == pytest.approx(1.7, rel=1e-12)
        assert res.p_value == pytest.approx(F_SF_1P7_2_17, rel=1e-8)

    def test_monotone_in_restricted_rss(self):
        stats = [
            f_test_nested(rss_r, 10.0, q=2, n=20, k_full=3).statistic
            for rss_r in (10.5, 11.0, 12.0, 20.0)
        ]
        assert all(a < b for a, b in zip(stats, stats[1:]))

    def test_negative_gap_clamped(self):
        res = f_test_nested(9.0, 10.0, q=1, n=20, k_full=3)
        assert res.statistic == 0.0

    def test_perfect_full_fit(self):
        res = f_test_nested(5.0, 0.0, q=1, n=20, k_full=3)
        assert math.isinf(res.statistic)
        assert res.p_value == 0.0

    def test_arrays_match_scalar_calls_bit_for_bit(self):
        # rss_full = 0 (both branches), negative gaps (clamped), zero gaps, q 1 and 2
        restricted = np.array([0.0, 1e-300, 2.0, 9.0, 10.0, 10.5, 12.0, 40.0])
        for rss_full in (0.0, 3.7, 10.0):
            for q in (1, 2, np.resize([1, 2], len(restricted))):
                got = f_test_nested(restricted, rss_full, q=q, n=20, k_full=3)
                q_each = np.broadcast_to(q, restricted.shape).tolist()
                for i, (rss, qi) in enumerate(zip(restricted.tolist(), q_each)):
                    want = f_test_nested(rss, rss_full, q=qi, n=20, k_full=3)
                    assert float(got.statistic[i]).hex() == want.statistic.hex()
                    assert float(got.p_value[i]).hex() == want.p_value.hex()
                    assert type(want.statistic) is float and type(want.p_value) is float

    def test_null_pvalues_uniform_ks(self):
        # simulate true-null nested Gaussian models; KS vs uniform
        rng = np.random.default_rng(77)
        n, k_extra = 40, 2
        pvals = []
        for _ in range(1000):
            X = rng.normal(size=(n, 3))
            y = X[:, 0] + rng.normal(size=n)  # extra columns truly irrelevant
            full = ols_fit(X, y)
            restricted = ols_fit(X[:, :1], y)
            pvals.append(
                f_test_nested(restricted.rss, full.rss, q=k_extra, n=n,
                              k_full=4).p_value
            )
        pvals = np.sort(pvals)
        grid = (np.arange(1, 1001)) / 1000.0
        ks = np.max(np.abs(pvals - grid))
        assert ks < 1.63 / math.sqrt(1000)  # 1% critical value


class TestCorrelation:
    def test_p_is_the_t_transform_bit_for_bit(self):
        # the two-sided t-test p-value, written out as before it became the F(1, dof) tail
        from scipy.special import betainc

        r = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.nan, 1e-8, 0.999999, -0.5],
                            np.linspace(-1.0, 1.0, 41)])
        for dof in (1, 2, 3, 7, 58, 197, 600):
            with np.errstate(divide="ignore"):
                t = r * np.sqrt(dof / (1.0 - r * r))
            want = np.minimum(betainc(dof / 2.0, 0.5, dof / (dof + t * t)), 1.0)
            got = _correlation_p(r, dof)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    @staticmethod
    def pearson(x, y):
        """One Pearson test of x against y: r, p and ok as scalars."""
        r, p, ok = pearson_tests(centre(x)[None], centre(y))
        return r[0], p[0], ok[0]

    def test_perfect_and_anti(self, rng):
        x = rng.normal(size=30)
        assert self.pearson(x, x)[0] == pytest.approx(1.0)
        assert self.pearson(x, -x)[0] == pytest.approx(-1.0)

    def test_perfect_correlation_has_p_zero(self, rng):
        x = rng.normal(size=30)
        r, p, ok = self.pearson(x, x)
        assert ok and (r, p) == partial_correlation(x, x) == (1.0, 0.0)

    def test_matches_covariance_formula(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        xc, yc = x - x.mean(), y - y.mean()
        oracle = (xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc))
        assert self.pearson(x, y)[0] == pytest.approx(oracle, abs=1e-12)

    def test_batched_rows_match_single_tests(self, rng):
        X, y = rng.normal(size=(7, 40)), rng.normal(size=40)
        X[2] = 0.3 * y + X[2]
        r, p, ok = pearson_tests(centre(X.T).T, centre(y))
        assert ok.all()
        for i in range(7):
            np.testing.assert_allclose([r[i], p[i]], self.pearson(X[i], y)[:2], rtol=1e-13)
        # the p-value reads n - 2 - conditions degrees of freedom
        assert pearson_tests(centre(X.T).T, centre(y), 3)[1].tolist() == _correlation_p(r, 35).tolist()

    def test_zero_variance(self):
        for x, y in ((np.ones(10), np.arange(10.0)), (np.arange(10.0), np.ones(10))):
            r, p, ok = self.pearson(x, y)
            assert not ok and np.isnan(r) and np.isnan(p)
            with pytest.raises(DegenerateInput):
                partial_correlation(x, y)

    def test_constant_with_rounded_mean(self):
        # the mean of 60 0.1s rounds, so x - mean(x) is a tiny nonzero constant
        for x, y in ((np.full(60, 0.1), np.arange(60.0)), (np.arange(60.0), np.full(60, 0.1))):
            assert not self.pearson(x, y)[2]
            with pytest.raises(DegenerateInput):
                partial_correlation(x, y)


class TestCentre:
    def test_constant_columns_centre_to_exact_zeros(self, rng):
        X = np.column_stack([np.full(60, 0.07), rng.normal(size=60), np.full(60, 0.1)])
        assert (0.07 - np.full(60, 0.07).mean()) != 0.0  # the mean rounds
        got = centre(X)
        assert (got[:, [0, 2]] == 0.0).all()
        assert got[:, 1].tolist() == (X[:, 1] - X[:, 1].mean()).tolist()
        assert (centre(np.full(60, 0.07)) == 0.0).all()

    def test_other_columns_keep_the_plain_arithmetic(self, rng):
        # bit for bit: DYNOTEARS and FastICA amplify any change in the last bit
        X = rng.normal(size=(45, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
        assert centre(X).tolist() == (X - X.mean(axis=0)).tolist()
        x = X[:, 0]
        assert centre(x).tolist() == (x - x.mean()).tolist()

    def test_standardize_constant_column_is_zeros(self):
        assert (standardize(np.full((60, 1), 0.07)) == 0.0).all()
        assert (standardize(np.full((60, 1), 3.0)) == 0.0).all()


class TestPartialCorrelation:
    def test_empty_conditioning_reduces_to_pearson(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        r, _ = partial_correlation(x, y, None)
        assert r == pytest.approx(TestCorrelation.pearson(x, y)[0], abs=1e-12)

    def test_exact_linear_dependence_degenerates(self, rng):
        Z = rng.normal(size=(30, 2))
        y = Z @ np.array([1.0, -2.0])
        x = rng.normal(size=30)
        with pytest.raises(DegenerateInput):
            partial_correlation(x, y, Z)

    def test_known_partial_correlation_monte_carlo(self):
        # X = Z + e1, Y = Z + e2 with Var chosen so rho_xy.z = 0.5
        # residual corr = Cov(e1,e2)/sqrt(Var e1 Var e2); draw correlated e
        rho = 0.5
        estimates = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = 400
            z = rng.normal(size=n)
            cov = np.array([[1.0, rho], [rho, 1.0]])
            e = rng.multivariate_normal([0, 0], cov, size=n)
            x = 2.0 * z + e[:, 0]
            y = -1.0 * z + e[:, 1]
            r, _ = partial_correlation(x, y, z[:, None])
            estimates.append(r)
        mean_est = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean_est - rho) < 3 * se + 1e-3


class TestGramPartialCorrelation:
    @staticmethod
    def grams(columns):
        M = np.asarray(columns, dtype=float)
        M = M - M.mean(axis=-1, keepdims=True)
        return M @ np.swapaxes(M, -1, -2)

    @pytest.mark.parametrize("nz", [0, 1, 3])
    def test_matches_partial_correlation(self, rng, nz):
        n = 50
        cols = rng.normal(size=(6, 2 + nz, n))
        cols[:, 1] += 0.4 * cols[:, 0]
        r, p, ok = gram_partial_correlation(self.grams(cols), n)
        assert ok.all()
        for i, c in enumerate(cols):
            want = partial_correlation(c[0], c[1], c[2:].T if nz else None)
            np.testing.assert_allclose([r[i], p[i]], want, rtol=0, atol=1e-12)

    def test_zero_variance_or_ill_conditioned_left_to_caller(self, rng):
        n = 40
        x, y, z = rng.normal(size=(3, n))
        stack = [[x, y, z], [x, y, np.zeros(n)], [x, y, x + 1e-6 * z], [x, y, z]]
        r, p, ok = gram_partial_correlation(self.grams(stack), n)
        assert ok.tolist() == [True, False, False, True]
        assert np.isnan(r[1:3]).all() and np.isnan(p[1:3]).all()
        assert (r[0], p[0]) == (r[3], p[3])
        r, p, ok = gram_partial_correlation(self.grams([[x, np.zeros(n)]]), n)
        assert not ok[0] and np.isnan(r[0])


def _scaled_cond(G):
    s = np.sqrt(np.diag(G))
    w = np.linalg.eigvalsh(G / s[:, None] / s)
    return w[-1] / w[0]


def _lstsq_beta(A, y):
    return np.linalg.lstsq(A, y, rcond=None)[0]


@pytest.mark.parametrize("sigma, above", [(2.0e-3, False), (1.8e-3, True)],
                         ids=["below-cap", "above-cap"])
def test_every_gram_consumer_switches_at_the_same_cap(monkeypatch, sigma, above):
    # Granger's nested_rss, seqicp's subset_residuals, sfs's cv_mse_sets and
    # PCMCI's _ci_tests, each on all lag-1 columns of the near-copy panel:
    # every system sits just below or just above the cap, and each consumer
    # takes its least-squares path exactly above it
    panel = near_copy_panel(sigma)
    design = build_design(panel, 1)
    X, y, n = design.X, design.y, design.n
    A = np.column_stack([np.ones(n), X])
    every = list(range(X.shape[1]))
    blocks = np.array_split(np.arange(n), 3)
    trains = [np.setdiff1d(np.arange(n), block) for block in blocks]
    view = _LagView(panel.data, 1)
    m = panel.data.shape[1]
    links = [(m - 1, 1), (0, 0), *((v, 1) for v in range(m - 1))]  # x: the copy
    M = view.centred_cols(links)
    conds = [_scaled_cond(A.T @ A), *(_scaled_cond(A[t].T @ A[t]) for t in trains),
             _scaled_cond(M @ M.T)]
    low, high = (1.0, 1.25) if above else (0.8, 1.0)
    assert all(low * numerics._GRAM_COND_MAX < c < high * numerics._GRAM_COND_MAX
               for c in conds)

    calls = {"svd": 0, "ols_fit": 0, "partial_correlation": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(numerics, "ols_fit", spy("ols_fit", ols_fit))
    monkeypatch.setattr(pcmci_module, "partial_correlation",
                        spy("partial_correlation", partial_correlation))
    taken = {}

    def counting(consumer, fn, *args):
        before = dict(calls)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            result = fn(*args)
        taken[consumer] = {k: calls[k] - before[k] for k in calls if calls[k] > before[k]}
        return result

    rss_full, restricted = counting("nested_rss", nested_rss, subset_gram(X, y), [[j] for j in every])
    residuals = counting("subset_residuals", subset_residuals, subset_gram(X, y), [every])
    mse = counting("cv_mse_sets", cv_mse_sets, cv_folds(subset_gram(X, y), blocks), [every])
    (r, p), = counting("_ci_tests", _ci_tests, view, [links[0]], 0, [links[2:]])
    fallbacks = {"nested_rss": {"svd": 1}, "subset_residuals": {"ols_fit": 1},
                 "cv_mse_sets": {"ols_fit": len(blocks)},
                 "_ci_tests": {"partial_correlation": 1, "ols_fit": 2}}
    assert taken == (fallbacks if above else {name: {} for name in fallbacks})

    # each result within its oracle band: TestNestedRss, TestSubsetResiduals,
    # TestCvMseSets and PCMCI's _oracle_condition_select
    oracle = y - A @ _lstsq_beta(A, y)
    assert rss_full == pytest.approx(oracle @ oracle, rel=1e-9)
    for j, got in zip(every, restricted):
        B = np.delete(A, j + 1, axis=1)
        resid = y - B @ _lstsq_beta(B, y)
        assert got == pytest.approx(resid @ resid, rel=1e-9)
    np.testing.assert_allclose(residuals[0], oracle, rtol=0, atol=1e-10 * np.linalg.norm(y))
    losses = [float(((y[b] - A[b] @ _lstsq_beta(A[t], y[t])) ** 2).mean())
              for b, t in zip(blocks, trains)]
    assert mse[0] == pytest.approx(np.mean(losses), rel=1e-10)
    rx, ry = (M[i] - M[2:].T @ _lstsq_beta(M[2:].T, M[i]) for i in (0, 1))
    want = rx @ ry / np.sqrt((rx @ rx) * (ry @ ry))
    np.testing.assert_allclose([r, p], [want, _correlation_p(want, view.rows - len(links))],
                               rtol=0, atol=1e-10)



def _eigvalsh_guard(G):
    """The guard's rule: the scaled Gram's eigenvalues against the cap."""
    scale = np.sqrt(np.diagonal(G, axis1=-2, axis2=-1))
    scale[scale == 0.0] = 1.0
    w = np.linalg.eigvalsh(G / scale[..., :, None] / scale[..., None, :])
    return w[..., 0] > w[..., -1] / numerics._GRAM_COND_MAX


def _gram_of_cond(rng, k, cond):
    """A k x k Gram with eigenvalues from 1 down to 1/cond, rows scaled apart."""
    Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    d = np.exp(rng.uniform(-3.0, 3.0, size=k))
    return d[:, None] * (Q * np.logspace(0, -np.log10(cond), k)) @ Q.T * d


class TestGuardCertificate:
    # the Cholesky certificate decides the mask the eigenvalue rule gives
    @pytest.mark.parametrize("k", [2, 5, 13, 40])
    def test_mask_is_the_eigenvalue_rule_across_the_cap(self, rng, k):
        conds = np.logspace(3, 8, 21)
        G = np.stack([_gram_of_cond(rng, k, c) for c in conds])
        ok = _ScaledSystems(G).ok
        np.testing.assert_array_equal(ok, _eigvalsh_guard(G))
        assert ok[:2].all() and not ok[-2:].any()
        # one system at a time, first certified by its inverse factor
        np.testing.assert_array_equal([_ScaledSystems(g).ok for g in G], ok)

    def test_well_conditioned_stack_is_certified_without_eigenvalues(self, rng, monkeypatch):
        G = np.stack([_gram_of_cond(rng, 13, c) for c in np.logspace(0, 5, 55)])
        monkeypatch.setattr(np.linalg, "eigvalsh", mock.Mock(side_effect=AssertionError))
        assert _ScaledSystems(G).ok.all()

    def test_one_failing_member_leaves_the_others_ok(self, rng):
        G = np.stack([_gram_of_cond(rng, 6, c) for c in (1e2, 1e4, 1e7, 1e3)])
        np.testing.assert_array_equal(_ScaledSystems(G).ok, [True, True, False, True])

    def test_zero_row_fails(self, rng):
        G = _gram_of_cond(rng, 5, 10.0)
        G[2] = G[:, 2] = 0.0
        stack = np.stack([G, _gram_of_cond(rng, 5, 10.0)])
        np.testing.assert_array_equal(_ScaledSystems(stack).ok, [False, True])
        assert not _ScaledSystems(G).ok

    @pytest.mark.parametrize("cond, ok", [(1e3, True), (1e8, False)])
    def test_single_system(self, rng, cond, ok):
        G = _gram_of_cond(rng, 7, cond)
        got = _ScaledSystems(G).ok
        assert got.shape == () and bool(got) is ok and got == _eigvalsh_guard(G)

    def test_certified_single_system_factors_once(self, rng, monkeypatch):
        # the factor that certifies Granger's Gram is the one its Wald gaps
        # read, bit for bit the inverse of the Cholesky factor of the
        # unit-diagonal Gram
        from scipy.linalg.lapack import dtrtri

        G = _gram_of_cond(rng, 13, 1e3)
        factor = mock.Mock(wraps=np.linalg.cholesky)
        monkeypatch.setattr(np.linalg, "cholesky", factor)
        monkeypatch.setattr(np.linalg, "eigvalsh", mock.Mock(side_effect=AssertionError))
        systems = _ScaledSystems(G)
        R = systems.inverse_factor()
        assert systems.ok and factor.call_count == 1
        R_t, _ = dtrtri(np.linalg.cholesky(systems.G).T, lower=0)
        np.testing.assert_array_equal(R, R_t.T / systems.scale)
        design = _wide_design()
        factor.reset_mock()
        nested_rss(design.engine, [[j] for j in range(design.X.shape[1])])
        assert factor.call_count == 1

    def test_single_system_without_a_factor_fails(self):
        systems = _ScaledSystems(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        assert not systems.ok
        with pytest.raises(np.linalg.LinAlgError):
            systems.inverse_factor()


class TestKMeans:
    def test_separated_clouds(self, rng):
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2)) + 100.0
        pts = np.vstack([a, b])
        res = kmeans(pts, 2, seed=0)
        first, second = res.assignments[:20], res.assignments[20:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(6, 2)) * 10
        res = kmeans(pts, 6, seed=3)
        assert sorted(res.assignments.tolist()) == list(range(6))
        assert res.inertia == pytest.approx(0.0, abs=1e-18)

    def test_objective_non_increasing(self, rng):
        pts = rng.normal(size=(60, 3))
        res = kmeans(pts, 4, seed=1)
        # independent recomputation happens inside the history; verify order
        assert all(
            a >= b - 1e-12
            for a, b in zip(res.objective_history, res.objective_history[1:])
        )

    def test_history_matches_recomputed_objective(self, rng):
        pts = rng.normal(size=(30, 2))
        res = kmeans(pts, 3, seed=5)
        recomputed = float(
            ((pts - res.centroids[res.assignments]) ** 2).sum()
        )
        assert res.objective_history[-1] == pytest.approx(recomputed, rel=1e-12)

    def test_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(40, 2))
        a = kmeans(pts, 3, seed=9)
        b = kmeans(pts, 3, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    @pytest.mark.parametrize("points, k", [
        (np.ones((6, 2)), 3),
        (np.repeat([[0.0, 0.0], [1.0, 0.0]], [5, 2], axis=0), 4),
        (np.zeros((5, 3)), 5),
    ])
    def test_tied_points_fill_every_cluster(self, points, k):
        # with every distance tied, the farthest point can be the sole member
        # of a cluster just repaired; taking it would leave an empty cluster,
        # a NaN centroid and a "Mean of empty slice" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = kmeans(points, k, seed=0)
        assert np.bincount(res.assignments, minlength=k).min() >= 1
        assert np.isfinite(res.centroids).all()
        history = res.objective_history
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert len(history) < 300  # converged

    def test_bad_k(self):
        with pytest.raises(BadK):
            kmeans(np.zeros((3, 2)), 4, seed=0)


class TestFastIca:
    def test_recovers_mixed_uniform_sources(self):
        rng = np.random.default_rng(42)
        n = 5000
        sources = rng.uniform(-1, 1, size=(n, 2))
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        X = sources @ A.T
        res = fastica(X, seed=0)
        assert res.converged
        # each recovered source matches a true one up to permutation/sign
        corr = np.corrcoef(res.sources.T, sources.T)[:2, 2:]
        best = np.abs(corr).max(axis=1)
        assert np.all(best >= 0.95)

    def test_whiteness_of_sources(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(5000, 3)) @ rng.normal(size=(3, 3))
        res = fastica(X, seed=1)
        C = (res.sources.T @ (res.sources - res.sources.mean(0))) / (len(X) - 1)
        assert np.max(np.abs(C - np.eye(3))) < 1e-4

    def test_gaussian_sources_still_white(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4000, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            res = fastica(X, seed=2, max_iter=200)
        C = np.cov(res.sources.T, ddof=1)
        assert np.max(np.abs(C - np.eye(2))) < 1e-6

    def test_identity_mixing_recovered_as_signed_permutation(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(6000, 2))
        res = fastica(X, seed=3)
        # unmixing o mixing = unmixing here; should be near a signed permutation
        M = np.abs(res.unmixing) / np.abs(res.unmixing).max(axis=1, keepdims=True)
        for row in M:
            assert sorted(row)[-1] == pytest.approx(1.0)
            assert sorted(row)[-2] < 0.1

    def test_nonconvergence_warns(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(500, 3))
        with pytest.warns(NotConvergedWarning):
            fastica(X, seed=0, max_iter=2)

    def test_cap_below_one_rejected_before_whitening(self):
        X = np.random.default_rng(13).normal(size=(50, 3))
        for cap in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                fastica(X, max_iter=cap)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_whitening(self, bad):
        X = np.random.default_rng(13).normal(size=(50, 3))
        X[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fastica(X)

    def test_no_warning_but_the_cap(self):
        """Only the cap warns: a deprecated call in the loop (say a
        positional ``out`` to np.maximum) would warn on every iteration."""
        spec = SvarSpec(d=8, p=1, n=500, noise="laplace", instantaneous=True,
                        target_parents=3, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            warnings.simplefilter("always", NotConvergedWarning)
            panel, _ = generate_svar(spec)
            for cap in (1, 3):
                assert not fastica(panel.data, seed=0, max_iter=cap).converged
        assert [w.category for w in caught] == [NotConvergedWarning] * 2


def _oracle_sym_decorrelate(W):
    vals, vecs = np.linalg.eigh(W @ W.T)
    vals = np.clip(vals, 1e-12, None)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ W


def _oracle_fastica(X, seed=0, max_iter=500, tol=1e-5):
    """The fixed-point loop written plainly, one fresh array per step; the
    buffered loop in ``fastica`` must match it bit for bit."""
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    Xc = centre(X)
    cov = (Xc.T @ Xc) / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    K = vecs[:, order] / np.sqrt(vals)
    Z = Xc @ K
    rng = np.random.default_rng(seed)
    W = _oracle_sym_decorrelate(rng.standard_normal((m, m)))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        U = Z @ W.T
        G = np.tanh(U)
        g_prime = 1.0 - G * G
        W_new = _oracle_sym_decorrelate((G.T @ Z) / n - g_prime.mean(axis=0)[:, None] * W)
        delta = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0)))
        W = W_new
        if delta < tol:
            converged = True
            break
    return W @ K.T, Z @ W.T, converged, it


def _ica_inputs(monkeypatch, panel, heads, seed):
    """The residuals VARLiNGAM hands FastICA on each head of ``panel``, as
    in a backtest with ``k_clusters=8``."""
    captured = []
    real = varlingam_module.fastica

    def capture(X, seed=0):
        captured.append(np.array(X))
        return real(X, seed=seed)

    monkeypatch.setattr(varlingam_module, "fastica", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        for T in heads:
            varlingam_fit(panel.head(T), k_clusters=8, seed=seed)
    monkeypatch.undo()
    return captured


class TestFastIcaMatchesPlainLoopOracle:
    """Bytes, not a tolerance, as for the lab's row loop: the oracle runs
    on the same BLAS build as the code under test."""

    @staticmethod
    def _assert_matches(X, seed, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            got = fastica(X, seed=seed, **kwargs)
            unmixing, sources, converged, n_iter = _oracle_fastica(X, seed, **kwargs)
        assert got.unmixing.tobytes() == unmixing.tobytes()
        assert got.sources.tobytes() == sources.tobytes()
        assert (got.converged, got.n_iter) == (converged, n_iter)
        return got

    def test_backtest_small_windows(self, monkeypatch):
        panel, _ = generate_svar(SvarSpec(d=12, p=1, n=70, noise="gaussian",
                                          instantaneous=False, target_parents=3,
                                          ar_coeff=0.3, seed=3))
        inputs = _ica_inputs(monkeypatch, panel, range(60, 70), seed=3)
        assert [X.shape for X in inputs] == [(n, 9) for n in range(59, 69)]
        for X in inputs:
            self._assert_matches(X, seed=3)

    def test_backtest_wide_windows(self, monkeypatch):
        panel, _ = generate_svar(SvarSpec(d=121, p=1, n=170, edge_density=0.02,
                                          instantaneous=False, target_parents=3,
                                          ar_coeff=0.3, seed=5))
        inputs = _ica_inputs(monkeypatch, panel, (60, 132, 169), seed=5)
        assert [X.shape for X in inputs] == [(59, 9), (131, 9), (168, 9)]
        for X in inputs:
            self._assert_matches(X, seed=5)

    def test_validate_sweep_lab_converges(self):
        panel, _ = generate_svar(SvarSpec(d=8, p=1, n=500, noise="laplace",
                                          instantaneous=True, target_parents=3, seed=0))
        assert self._assert_matches(panel.data, seed=0).converged

    def test_two_sources(self):
        X = np.random.default_rng(21).laplace(size=(300, 2)) @ np.array([[1.0, 0.4], [0.3, 1.0]])
        assert self._assert_matches(X, seed=4).converged

    def test_capped_run(self):
        X = np.random.default_rng(22).normal(size=(64, 9))
        assert self._assert_matches(X, seed=1, max_iter=3).n_iter == 3

    def test_memory_order_of_the_input(self):
        X = np.random.default_rng(23).laplace(size=(61, 9))
        for ordered in (np.ascontiguousarray(X), np.asfortranarray(X)):
            self._assert_matches(ordered, seed=2)


class TestLbfgsb:
    def test_lower_bounds_only(self, rng, setulb_calls):
        # a convex quadratic over x >= 0 with about half the bounds active
        n = 40
        B = rng.normal(size=(n, n))
        H, b = B @ B.T / n + 0.1 * np.eye(n), rng.normal(size=n)

        def fun(x):
            Hx = H @ x
            return 0.5 * float(x @ Hx) - float(b @ x), Hx - b

        sol = assert_lbfgsb_matches_minimize(fun, np.ones(n), np.zeros(n), np.full(n, np.inf),
                                             setulb_calls)
        assert 0 < (sol.x == 0.0).sum() < n

    def test_start_outside_a_mixed_box(self, setulb_calls):
        # a chained Rosenbrock function with free, lower-only, upper-only,
        # two-sided and fixed coordinates, started outside the box
        n = 10

        def fun(x):
            d1, d0 = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
            g = np.zeros(n)
            g[:-1] = -400.0 * x[:-1] * d1 - 2.0 * d0
            g[1:] += 200.0 * d1
            return float(100.0 * d1 @ d1 + d0 @ d0), g

        inf = np.inf
        lower = np.array([-inf, 0.5, -inf, -1.0, 0.2, -inf, 0.0, -2.0, -inf, 0.3])
        upper = np.array([inf, inf, 0.8, 1.0, 0.2, inf, 2.0, -1.5, 0.9, inf])
        x0 = np.array([3.0, -1.0, 2.0, 5.0, 0.0, -1.2, -3.0, 0.0, 1.0, 0.0])
        sol = assert_lbfgsb_matches_minimize(fun, x0, lower, upper, setulb_calls)
        assert sol.nit > 10 and sol.x[4] == 0.2

    def test_rejects_a_routine_it_was_not_written_for(self, monkeypatch):
        import scipy
        from scipy.optimize import _lbfgsb

        def setulb(*args):
            """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,csave,lsave,isave,dsave,maxls)"""
            raise AssertionError("called")

        monkeypatch.setattr(_lbfgsb, "setulb", setulb)
        with pytest.raises(RuntimeError, match=f"scipy {scipy.__version__}: .*scipy >= 1.15"):
            numerics.lbfgsb(lambda x: (0.0, np.zeros(1)), np.zeros(1), np.zeros(1), np.ones(1))

    def test_rejects_bounds_that_do_not_fit(self):
        with pytest.raises(ValueError, match="shapes"):
            numerics.lbfgsb(None, np.zeros(3), np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="greater"):
            numerics.lbfgsb(None, np.zeros(2), np.ones(2), np.zeros(2))


class TestAcyclicity:
    def test_zero_matrix(self):
        h, grad = acyclicity(np.zeros((4, 4)))
        assert h == 0.0
        np.testing.assert_array_equal(grad, np.zeros((4, 4)))

    def test_upper_triangular_is_dag(self, rng):
        S = np.triu(rng.normal(size=(5, 5)), k=1)
        h, _ = acyclicity(S)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_two_cycle_closed_form(self):
        # S = [[0, a], [b, 0]] gives h = 2 cosh(ab) - 2
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        h, _ = acyclicity(S)
        assert h == pytest.approx(2.0 * math.cosh(1.0) - 2.0, rel=1e-10)
        a, b = 0.7, -0.4
        h2, _ = acyclicity(np.array([[0.0, a], [b, 0.0]]))
        assert h2 == pytest.approx(2.0 * math.cosh(a * b) - 2.0, rel=1e-10)

    def test_gradient_matches_central_differences(self, rng):
        for _ in range(5):
            S = rng.normal(size=(5, 5)) * 0.5
            _, grad = acyclicity(S)
            eps = 1e-5
            for i in range(5):
                for j in range(5):
                    Sp, Sm = S.copy(), S.copy()
                    Sp[i, j] += eps
                    Sm[i, j] -= eps
                    fd = (acyclicity(Sp)[0] - acyclicity(Sm)[0]) / (2 * eps)
                    assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestFSf:
    def test_tail_limits(self):
        assert f_sf(0.0, 3, 10) == 1.0
        assert f_sf(math.inf, 3, 10) == 0.0
        assert 0.0 < f_sf(2.0, 3, 10) < 1.0

    def test_elementwise(self):
        x, df1 = np.array([0.0, 2.0, 2.0, math.inf]), np.array([3, 3, 1, 3])
        got = f_sf(x, df1, 10)
        assert got.tolist() == [f_sf(v, d, 10) for v, d in zip(x.tolist(), df1.tolist())]


def test_betainc_only_in_numerics():
    # every p-value's tail comes from f_sf: no module but numerics writes one out
    src = Path(causalfs.__file__).resolve().parent
    users = [str(p.relative_to(src)) for p in sorted(src.rglob("*.py"))
             if "betainc" in p.read_text()]
    assert users == ["numerics.py"]


def _rule_sites(tree):
    """(function, rule) for each column-mean subtraction ``a - b.mean()``,
    all-equal test ``a == a[...]`` and division by the square root of a
    product in ``tree``, named by the innermost enclosing function."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            right = node.right
            if isinstance(right, ast.Call) and getattr(right.func, "attr", None) == "mean":
                sites.append((where, "centring"))
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
            other = node.comparators[0]
            if isinstance(other, ast.Subscript) and ast.dump(other.value) == ast.dump(node.left):
                sites.append((where, "constant"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            root = node.right
            name = getattr(getattr(root, "func", None), "attr", getattr(getattr(root, "func", None), "id", None))
            if name == "sqrt" and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                                      for n in ast.walk(root)):
                sites.append((where, "ratio"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sites


def test_one_centring_rule_and_one_pearson_formula():
    # centring and the constant-column rule live in numerics.centre, the
    # Pearson ratio x'y / sqrt(x'x y'y) in numerics.pearson_tests; the only
    # other ratio is the precision-matrix form -P01 / sqrt(P00 P11) of the
    # conditional tests, once
    src = Path(causalfs.__file__).resolve().parent
    sites = [(str(p.relative_to(src)), *site) for p in sorted(src.rglob("*.py"))
             for site in _rule_sites(ast.parse(p.read_text()))]
    assert sorted(sites) == [
        ("numerics.py", "centre", "centring"),
        ("numerics.py", "centre", "constant"),
        ("numerics.py", "gram_partial_correlation", "ratio"),
        ("numerics.py", "pearson_tests", "ratio"),
    ]
    assert not hasattr(numerics, "pearson") and not hasattr(causalfs, "pearson")


def test_rule_scan_finds_the_old_copies():
    # the scan above sees each shape it forbids
    old = """
def pearson(x, y):
    xc = x - x.mean()
    if (x == x[0]).all():
        raise ValueError
    return (xc @ yc) / math.sqrt(sx * sy)

def gram(G, d, ok):
    return G[:, 0, 1] / np.sqrt(np.where(ok, d[:, 0] * d[:, 1], 1.0))
"""
    assert _rule_sites(ast.parse(old)) == [
        ("pearson", "centring"), ("pearson", "constant"), ("pearson", "ratio"), ("gram", "ratio")]


def _engine_sites(tree):
    """(function, part) for each read of the condition cap, of eigvalsh, eigh
    and ols_fit, and for each self-product M'M or M M' (``@`` or
    ``np.dot``) in ``tree``, named by the innermost enclosing function (as
    ``Class.method`` for a method)."""
    sites = []

    def untransposed(node):
        return ast.dump(node.value) if isinstance(node, ast.Attribute) and node.attr == "T" else None

    def self_product(a, b):
        return ast.dump(a) == untransposed(b) or untransposed(a) == ast.dump(b)

    def visit(node, where, cls):
        if isinstance(node, ast.ClassDef):
            where, cls = node.name, node.name
        elif isinstance(node, ast.FunctionDef):
            where, cls = f"{cls}.{node.name}" if cls else node.name, None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            part = {"_GRAM_COND_MAX": "cap", "ols_fit": "ols_fit"}.get(node.id)
            if part:
                sites.append((where, part))
        if isinstance(node, ast.Attribute) and node.attr in ("eigvalsh", "eigh"):
            sites.append((where, node.attr))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if self_product(node.left, node.right):
                sites.append((where, "gram"))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dot":
            if len(node.args) >= 2 and self_product(*node.args[:2]):
                sites.append((where, "gram"))
        for child in ast.iter_child_nodes(node):
            visit(child, where, cls)

    visit(tree, "<module>", None)
    return sites


def test_one_normal_equations_engine():
    # one guard: the 1e6 cap and its eigvalsh live in _ScaledSystems, and
    # eigh only in FastICA; one Gram formation: the design's Gram is formed
    # in SubsetGram.gram, and the other self-products in src/ are FastICA's
    # whitening covariance and decorrelation and PCMCI's Gram of centred lag
    # columns; one refit: in numerics, a system past the guard is refit in
    # _refit_residuals, a forecast's in prefix_betas, a rank-deficient
    # Granger design in nested_rss, and a PCMCI test in partial_correlation
    src = Path(causalfs.__file__).resolve().parent
    sites = sorted((str(p.relative_to(src)), *site) for p in sorted(src.rglob("*.py"))
                   for site in _engine_sites(ast.parse(p.read_text()))
                   if site[1] != "ols_fit" or p.name == "numerics.py")
    assert sites == [
        ("numerics.py", "SubsetGram.gram", "gram"),
        ("numerics.py", "_ScaledSystems.__init__", "cap"),
        ("numerics.py", "_ScaledSystems.__init__", "eigvalsh"),
        ("numerics.py", "_refit_residuals", "ols_fit"),
        ("numerics.py", "_sym_decorrelate", "eigh"),
        ("numerics.py", "_sym_decorrelate", "gram"),
        ("numerics.py", "fastica", "eigh"),
        ("numerics.py", "fastica", "gram"),
        ("numerics.py", "nested_rss", "ols_fit"),
        ("numerics.py", "nested_rss", "ols_fit"),
        ("numerics.py", "partial_correlation", "ols_fit"),
        ("numerics.py", "partial_correlation", "ols_fit"),
        ("numerics.py", "prefix_betas", "ols_fit"),
        ("selectors/pcmci.py", "_Gram.__init__", "gram"),
    ]


def test_engine_scan_finds_the_old_copies():
    # the scan above sees a second Gram formation, a second guard with its
    # own eigh, and the refits that _refit_residuals replaced
    old = """
def nested_rss(X, y):
    A = np.column_stack([np.ones(len(y)), X])
    systems = _ScaledSystems(A.T @ A)

def gram_partial_correlation(G, n):
    w, V = np.linalg.eigh(G)
    ok = w[:, 0] > w[:, -1] / _GRAM_COND_MAX

def _ols_fold_mse(cv, f, columns):
    fit = ols_fit(X[train], cv.y[train])

class _Gram:
    def __init__(self, cols):
        self.G = np.dot(cols, cols.T)
"""
    assert _engine_sites(ast.parse(old)) == [
        ("nested_rss", "gram"), ("gram_partial_correlation", "eigh"),
        ("gram_partial_correlation", "cap"), ("_ols_fold_mse", "ols_fit"),
        ("_Gram.__init__", "gram")]


# what one function in pcmci.py must hold: the skip warning, both kernels
# and the fallback
_PCMCI_TEST_PARTS = ("SkippedTestWarning", "pearson_tests", "gram_partial_correlation",
                     "partial_correlation")


def _readers(tree, names):
    """name -> the innermost enclosing functions in ``tree`` that read it."""
    found = {name: set() for name in names}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id in found:
            found[node.id].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_one_pcmci_function_issues_every_test():
    # PCMCI's skip rule, its two kernels and its fallback live in one
    # function, so a hook on every CI test (a warning count, another
    # variance estimate) has one place to go
    path = Path(causalfs.__file__).resolve().parent / "selectors" / "pcmci.py"
    found = _readers(ast.parse(path.read_text()), _PCMCI_TEST_PARTS)
    assert found == {name: {"_ci_tests"} for name in _PCMCI_TEST_PARTS}
    # the scan sees a second function that issues tests
    split = """
def level(view):
    warnings.warn("skipping", SkippedTestWarning)
    return pearson_tests(x, y)

def single(view):
    return gram_partial_correlation(G, n) or partial_correlation(x, y, Z)
"""
    assert _readers(ast.parse(split), _PCMCI_TEST_PARTS) == {
        "SkippedTestWarning": {"level"}, "pearson_tests": {"level"},
        "gram_partial_correlation": {"single"}, "partial_correlation": {"single"}}
