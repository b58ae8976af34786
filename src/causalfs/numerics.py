"""Statistical and optimization kernels shared by all selectors.

Least squares behind Granger, seqICP, SFS, PCMCI and the backtest's
forecasts is one normal-equations engine: one block Z = [1, X, y] per
design (``subset_gram``; Z'Z on first read), one condition guard
(``_ScaledSystems``, which also reads PCMCI's Grams of centred columns) and
one refit of a subset or fold past it (``_refit_residuals``); past it,
Granger takes the SVD Wald form, PCMCI ``partial_correlation`` and a
forecast's fit (``prefix_betas``) ``ols_fit``. k-means and FastICA are
implemented here because the selectors depend on their exact seeding,
repair, and convergence behaviour being reproducible. ``lbfgsb`` drives
scipy's L-BFGS-B routine for DYNOTEARS without ``scipy.optimize.minimize``'s
per-call wrapping. scipy is imported inside the functions that call it, so a
command that never calls them does not load it.

``f_sf`` is the package's one F tail, read by the nested F test, the
correlation tests (as the F(1, dof) tail of t^2) and seqICP's equal-mean
test; ``standardize`` is its one column standardisation.

``centre`` is the one centring rule: each column minus its mean, except
that a column whose entries are all equal becomes exact zeros (its mean
may round).
``pearson_tests`` is the one Pearson formula, r = x'y / sqrt(x'x y'y) over
centred rows, with its t-test p-value; PCMCI's unconditional tests,
VARLiNGAM's pre-filter and ``partial_correlation`` all read it.

``fastica``'s fixed-point loop is pinned byte for byte to a plain
one-array-per-step copy kept in the tests: FastICA on backtest residuals
moves selections on 1e-14 perturbations, so the loop may only cut numpy's
per-call overhead (``np.dot`` for ``@``, ``out=`` buffers), never the
arithmetic, its order or its operands' memory layouts.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadK,
    DegenerateInput,
    NotConvergedWarning,
    RankDeficientWarning,
    Underdetermined,
)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of y on [1, X]: ``beta[0]`` is the intercept and
    ``k`` counts it among the columns."""

    beta: np.ndarray
    residuals: np.ndarray
    rss: float
    n: int
    k: int
    rank: int

    def predict(self, regressors: np.ndarray) -> float:
        """The fit at one row of X: intercept plus slopes @ ``regressors``."""
        x = np.asarray(regressors, dtype=float).ravel()
        if x.shape[0] != self.k - 1:
            from .errors import ShapeError

            raise ShapeError(f"expected {self.k - 1} regressors, got {x.shape[0]}")
        return float(self.beta[0] + self.beta[1:] @ x)


@dataclass(frozen=True)
class FTestResult:
    """One F test, or one per element when ``f_test_nested`` got arrays."""

    statistic: float | np.ndarray
    p_value: float | np.ndarray


def ols_fit(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """Minimum-norm least squares of y on [1, X] via SVD.

    Requires strictly more rows than columns, the intercept included. Rank
    deficiency is not an error (macro panels are collinear in practice):
    the minimum-norm solution is returned and a RankDeficientWarning issued.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != y.shape[0]:
        raise ValueError("rows(X) must equal len(y)")
    A = np.column_stack([np.ones(len(y)), X])
    n, k = A.shape
    if n <= k:
        raise Underdetermined(f"{n} rows for {k} regressors")
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < k:
        warnings.warn(
            f"rank {rank} < {k} columns; minimum-norm solution returned",
            RankDeficientWarning,
            stacklevel=2,
        )
    residuals = y - A @ beta
    return OlsFit(
        beta=beta,
        residuals=residuals,
        rss=float(residuals @ residuals),
        n=n,
        k=k,
        rank=int(rank),
    )


def nested_rss(sg: SubsetGram, blocks) -> tuple[float, np.ndarray]:
    """RSS of y on [1, X], and the RSS with each column block of X dropped,
    for ``sg``'s Z = [1, X, y]; Underdetermined unless rows exceed regressors.

    ``blocks`` holds lists of column indices into X. Every restricted RSS
    is the full RSS plus a Wald gap: dropping block B adds
    beta_B' (C_BB)^-1 beta_B, where C = (A'A)^-1 and A = [1, X].

    A'A and A'y are blocks of ``sg.gram``, Z'Z. Where A'A passes the
    ``_ScaledSystems`` guard, C is read through its ``inverse_factor`` R,
    C = R'R, and never formed: beta = R'(R A'y), the full RSS comes from the
    residuals y - A beta (not from the Gram, which would cancel), a
    one-column block's gap is beta_j^2 / ||R[:, j]||^2, and a q-column
    block's C_BB = R[:, B]' R[:, B] is solved, all blocks of one width in
    one stack. See _GRAM_COND_MAX for how far p moves against the SVD form
    below.

    A design that fails the guard takes one SVD A = U S V'. With
    W = V S^-1, C = W W' and beta = W U'y, so a block's gap is the squared
    norm of U'y projected onto the row space of W_B, which a QR of W_B'
    gives without squaring its condition number. Full rank there uses
    lstsq's own cutoff, s_min > eps * max(n, k) * s_max. Below it the full
    and restricted models are refit one by one with ``ols_fit``, the only
    path valid for a rank-deficient design, which warns
    RankDeficientWarning.
    """
    if len(sg.Z) < sg.Z.shape[1]:  # before the Gram is formed
        raise Underdetermined(f"{len(sg.Z)} rows for {sg.Z.shape[1] - 1} regressors")
    A, X, y = sg.Z[:, :-1], sg.Z[:, 1:-1], sg.Z[:, -1]
    systems = _ScaledSystems(sg.gram[:-1, :-1])
    if systems.ok:
        R = systems.inverse_factor()  # C = R'R
        beta = R.T @ (R @ sg.gram[:-1, -1])
        residuals = y - A @ beta
        rss_full = float(residuals @ residuals)
        gaps = np.empty(len(blocks))
        for q in set(map(len, blocks)):  # one stack per block width
            members = [i for i, block in enumerate(blocks) if len(block) == q]
            rows = np.array([blocks[i] for i in members], dtype=int).reshape(-1, q) + 1
            b = beta[rows]  # members x q; column 0 of A is the intercept
            if q == 1:
                gaps[members] = b[:, 0] ** 2 / np.einsum("ij,ij->j", R, R)[rows[:, 0]]
            else:
                R_B = R[:, rows]  # k x members x q
                C_BB = np.einsum("imq,imr->mqr", R_B, R_B)
                solved = np.linalg.solve(C_BB, b[..., None])
                gaps[members] = np.einsum("bq,bq->b", b, solved[..., 0])
        return rss_full, rss_full + gaps
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= np.finfo(float).eps * max(A.shape) * s[0]:
        rss_full = ols_fit(X, y).rss
        restricted = [ols_fit(np.delete(X, b, axis=1), y).rss for b in blocks]
        return rss_full, np.array(restricted)
    W = Vt.T / s
    c = U.T @ y
    residuals = y - A @ (W @ c)
    rss_full = float(residuals @ residuals)
    gaps = np.empty(len(blocks))
    for i, block in enumerate(blocks):
        rows = np.asarray(block, dtype=int) + 1  # column 0 of A is the intercept
        if len(rows) == 1:
            w = W[rows[0]]
            gaps[i] = (w @ c) ** 2 / (w @ w)
        else:
            q = np.linalg.qr(W[rows].T)[0].T @ c
            gaps[i] = q @ q
    return rss_full, rss_full + gaps


# A Gram whose unit-diagonal scaling has a condition number above this fails
# the one guard, _ScaledSystems: sfs folds and seqicp subsets are refit by
# _refit_residuals, PCMCI tests go to partial_correlation, and Granger's
# block tests (nested_rss) take the SVD Wald form. Forming the Gram squares
# the design's condition number, and the normal equations lose about
# cond * eps. Against the least-squares path, on random designs with one
# near-copied column: sfs out-of-block MSE (80 rows) moved by up to 1.5e-11
# relative at cond 1e5-1e6, 1.5e-10 at 1e6-1e7 and 1.3e-8 at 1e8-1e9;
# seqicp p-values (60 rows, with the refinement step of subset_residuals)
# by 1.6e-13 relative at 1e4-1e5 and 5.0e-12 at 1e5-1e6 (2.8e-10 there
# without the step); PCMCI r (100 rows, 1 to 5 conditioning columns, one a
# noisy copy of x) by 3.4e-14 at 1e2-1e3, 3.9e-12 at 1e4-1e5, 3.7e-11
# (p by 9.3e-11) at 1e5-1e6 and 3.2e-9 at 1e7-1e8; Granger p-values, whose
# Wald gaps come from the triangular factor of the inverse
# (_ScaledSystems.inverse_factor), against the SVD Wald form by at most
# 1.8e-12 relative over the 1,120 Granger designs of the three benchmark
# workloads at two seeds (scaled Gram condition up to 5.5e4, median 30),
# with no selection moved at 0.05;
# backtest forecasts (prefix_betas) against a per-month SVD by at most
# 1.9e-14 of their backtest's largest |y_pred| (9.3e-12 relative at a
# forecast of 3.5e-4) over the 696 backtests of both backtest workloads at
# seeds 0 and 4099. The guard is decided by a Cholesky certificate: for
# one system, the inverse factor Granger reads; else, or where that misses,
# a factor of the scaled G - (2k/cap) I proves the condition below the cap,
# and only a stack neither certifies is decided by eigvalsh, so the mask is
# the eigenvalue rule's.
_GRAM_COND_MAX = 1e6
# Cap on the float64 entries of one chunk of stacked systems or residuals
# (2 MB), so a backward step at width 120 does not stack all its
# candidates x folds x k x k at once (about 70 MB).
_CV_CHUNK_ENTRIES = 2**18


def chunk_slices(count: int, entries_each: int) -> list[slice]:
    """Slices of range(count) whose items hold at most _CV_CHUNK_ENTRIES
    float64 entries together, at least one item per slice."""
    step = max(1, _CV_CHUNK_ENTRIES // entries_each)
    return [slice(start, start + step) for start in range(0, count, step)]


class _ScaledSystems:
    """Stacked normal equations G beta = rhs (G is ... x k x k), read through
    G scaled to unit diagonal. ``ok`` is False where the scaled condition
    number is above _GRAM_COND_MAX, as a zero row always makes it; there
    ``solve`` gives beta 0 and ``inverse`` nan, and the caller refits.
    ``inverse_factor`` gives, for one system that passes, a triangular R
    with G^-1 = R'R: Granger's Wald gaps read it in place of ``inverse``.

    One system (Granger's) is first certified by the factor of its inverse
    that ``inverse_factor`` returns, so a certified Granger call factors
    its Gram once. A stack, or a system that certificate misses, is
    certified by one Cholesky factor of the shifted stack (the whole guard
    at k = 122: about 0.14 ms, against 0.65 ms with eigvalsh, on a 2-core
    VM); only a stack neither certifies pays for its eigenvalues, and the
    mask is the one they give."""

    def __init__(self, G: np.ndarray):
        scale = np.sqrt(np.diagonal(G, axis1=-2, axis2=-1))
        scale[scale == 0.0] = 1.0
        self.scale = scale
        self.G = G / scale[..., :, None] / scale[..., None, :]
        cap, k = _GRAM_COND_MAX, G.shape[-1]
        self._unit_factor, certified = None, False
        if G.ndim == 2:
            # one system: the factor inverse_factor reads certifies it too,
            # as lambda_max <= trace = k and 1/lambda_min <= tr G^-1 =
            # ||R||_F^2, so k ||R||_F^2 <= cap/2 passes the eigenvalue rule
            # with a factor 2 to spare for rounding (a nan fails the test)
            try:
                R = self._unit_factor = _unit_inverse_factor(self.G)
                certified = k * np.einsum("ij,ij->", R, R) <= cap / 2
            except np.linalg.LinAlgError:
                pass
        if not certified:
            try:
                # lambda_max <= trace = k, so a Cholesky factor of G - (2k/cap) I
                # proves lambda_min > 2 lambda_max / cap for every system.
                # A nan factors without LinAlgError, hence the finite check.
                certified = np.isfinite(np.linalg.cholesky(self.G - 2 * k / cap * np.eye(k))).all()
            except np.linalg.LinAlgError:
                pass
        if certified:
            self.ok = np.ones(G.shape[:-2], dtype=bool)
        else:
            w = np.linalg.eigvalsh(self.G)
            self.ok = w[..., 0] > w[..., -1] / cap

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        ok, scale = self.ok, self.scale
        rhs = rhs / scale
        beta = np.zeros(rhs.shape)
        beta[ok] = np.linalg.solve(self.G[ok], rhs[ok][..., None])[..., 0] / scale[ok]
        return beta

    def inverse(self) -> np.ndarray:
        """G^-1: the inverse of the unit-diagonal G, rescaled; nan where not ok."""
        if self.ok.all():  # skips the masked copies, about 0.2 ms at k = 122
            unit = np.linalg.inv(self.G)
        else:
            unit = np.full(self.G.shape, np.nan)
            unit[self.ok] = np.linalg.inv(self.G[self.ok])
        return unit / self.scale[..., :, None] / self.scale[..., None, :]

    def inverse_factor(self) -> np.ndarray:
        """R with G^-1 = R'R, for one k x k system that is ok: the inverse of
        the Cholesky factor L of the unit-diagonal G (G = L L'), taken once
        when the guard ran, its columns divided by scale. One factor and one
        triangular inverse: about 0.2 ms at k = 122, against 0.5 ms for
        ``np.linalg.inv`` (2-core VM, one BLAS thread)."""
        if self._unit_factor is None:
            raise np.linalg.LinAlgError("G has no Cholesky factor")
        return self._unit_factor / self.scale


def _unit_inverse_factor(G: np.ndarray) -> np.ndarray:
    """L^-1 for G = L L' (G one k x k system); LinAlgError if G does not factor."""
    from scipy.linalg.lapack import dtrtri

    # inverting the upper factor L' gives R' = (L^-1)'; L' is
    # Fortran-ordered, so LAPACK reads it without a copy
    R_t, info = dtrtri(np.linalg.cholesky(G).T, lower=0)
    if info:
        raise np.linalg.LinAlgError(f"dtrtri: info {info}")
    return R_t.T


@dataclass(frozen=True)
class SubsetGram:
    """The read-only block Z = [1, X, y]; fits of y on column subsets of
    [1, X] read their normal equations from ``gram``, Z'Z on first read."""

    Z: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        return self.Z.T @ self.Z


def subset_gram(X: np.ndarray, y: np.ndarray) -> SubsetGram:
    """Stack Z = [1, X, y] once per design, read-only, in float64."""
    Z = np.column_stack([np.ones(len(y)), X, y])
    Z.setflags(write=False)
    return SubsetGram(Z)


def prefix_betas(sg: SubsetGram, lengths) -> np.ndarray:
    """beta of y on [1, X] over the first n rows of ``sg.Z``, one row per n
    in ``lengths``, each n more than the regressors, the intercept included.

    Each fit's Gram is ``SubsetGram(Z[:n]).gram``, formed from exactly its
    own rows, and the stacked normal equations are solved through
    ``_ScaledSystems`` in chunks of at most _CV_CHUNK_ENTRIES, so a beta
    does not depend on the other lengths or on the rows after its own. A
    fit that fails the guard is refit by ``ols_fit``: the minimum-norm
    beta, with RankDeficientWarning where the rank falls short.
    """
    Z, lengths = sg.Z, np.asarray(lengths, dtype=int)
    k = Z.shape[1] - 1
    betas = np.empty((len(lengths), k))
    for part in chunk_slices(len(lengths), (k + 1) ** 2):
        grams = np.stack([SubsetGram(Z[:n]).gram for n in lengths[part]])
        systems = _ScaledSystems(grams[:, :-1, :-1])
        betas[part] = systems.solve(grams[:, :-1, -1])
        for i in np.flatnonzero(~systems.ok):
            n = lengths[part][i]
            betas[part.start + i] = ols_fit(Z[:n, 1:-1], Z[:n, -1]).beta
    return betas


def _refit_residuals(Z: np.ndarray, cols, held_out=None) -> np.ndarray:
    """The refit of a subset or fold past the ``_ScaledSystems`` guard:
    ``ols_fit`` of Z's last column on its columns ``cols`` (into [1, X], 0
    first) over the rows not ``held_out``, and its residuals on ``held_out``
    (all rows by default)."""
    X, y = Z[:, cols[1:]], Z[:, -1]
    rows = train = slice(None)
    if held_out is not None:
        rows, train = held_out, np.setdiff1d(np.arange(len(Z)), held_out)
    fit = ols_fit(X[train], y[train])
    return y[rows] - np.column_stack([np.ones(len(y[rows])), X[rows]]) @ fit.beta


def subset_residuals(sg: SubsetGram, column_sets) -> np.ndarray:
    """Residuals of y on [1, X[:, S]] for each column set S, one row per set.

    ``column_sets`` holds one or more equal-length lists of column indices
    into X. The coefficients solve each set's normal equations, read from
    ``sg.gram``, in one stacked solve (``_ScaledSystems``), and one step of
    iterative refinement solves them again for the residuals' own
    cross-products: forming the Gram loses about cond * eps in beta, and the
    refinement wins most of it back. A set that fails the guard is refit by
    ``_refit_residuals``.
    """
    sets = np.asarray(column_sets, dtype=int).reshape(len(column_sets), -1)
    n, k = sg.Z.shape[0], sets.shape[1] + 1
    if n <= k:
        raise Underdetermined(f"{n} rows for {k} regressors")
    cols = np.column_stack([np.zeros(len(sets), dtype=int), sets + 1])  # into [1, X]
    systems = _ScaledSystems(sg.gram[cols[:, :, None], cols[:, None, :]])
    A = sg.Z[:, cols]  # n x sets x k
    residuals = sg.Z[:, -1] - np.einsum("nsk,sk->sn", A, systems.solve(sg.gram[cols, -1]))
    step = systems.solve(np.einsum("nsk,sn->sk", A, residuals))
    residuals -= np.einsum("nsk,sk->sn", A, step)
    for i in np.flatnonzero(~systems.ok):
        residuals[i] = _refit_residuals(sg.Z, cols[i])
    return residuals


@dataclass(frozen=True)
class CvFolds:
    """Cross-products for block cross-validation of y on [1, X].

    ``Z`` is a ``SubsetGram``'s [1, X, y], and ``grams[f]`` is fold f's
    training Gram Z'Z - Z_b'Z_b, where Z_b holds the rows of validation
    block ``blocks[f]``. ``z_val[f]`` holds those rows, zero-padded to the
    longest block.
    """

    Z: np.ndarray
    blocks: tuple[np.ndarray, ...]
    grams: np.ndarray  # folds x (m + 2) x (m + 2)
    z_val: np.ndarray  # folds x max block length x (m + 2)
    n_val: np.ndarray  # rows per block


def cv_folds(sg: SubsetGram, blocks) -> CvFolds:
    """Downdate ``sg``'s Gram Z'Z by each block's rows of Z."""
    Z = sg.Z
    blocks = tuple(np.asarray(b, dtype=int) for b in blocks)
    z_val = np.zeros((len(blocks), max(len(b) for b in blocks), Z.shape[1]))
    for f, block in enumerate(blocks):
        z_val[f, : len(block)] = Z[block]
    grams = sg.gram - np.transpose(z_val, (0, 2, 1)) @ z_val
    n_val = np.array([len(b) for b in blocks])
    return CvFolds(Z, blocks, grams, z_val, n_val)


def cv_mse_sets(cv: CvFolds, column_sets) -> np.ndarray:
    """Mean out-of-block MSE of y on [1, X[:, S]] for each column set S.

    ``column_sets`` holds one or more equal-length lists of column indices
    into X. Each fold's coefficients solve its training normal equations,
    taken from ``cv.grams``, in one stacked solve over folds x sets
    (``_ScaledSystems``); the loss comes from the validation residuals
    y_b - [1, X_b[:, S]] beta themselves, so a perfect fit scores ~0. A
    fold that fails the guard is refit on its training rows by
    ``_refit_residuals``. A set with no more training rows than regressors
    in some fold scores inf, as its fit is underdetermined.
    """
    sets = np.asarray(column_sets, dtype=int).reshape(len(column_sets), -1)
    n_sets, k = sets.shape[0], sets.shape[1] + 1
    if (len(cv.Z) - cv.n_val).min() <= k:
        return np.full(n_sets, math.inf)
    cols = np.column_stack([np.zeros(n_sets, dtype=int), sets + 1])  # into [1, X]
    folds, rows = cv.z_val.shape[:2]
    losses = np.empty((folds, n_sets))
    for part in chunk_slices(n_sets, folds * k * (k + rows)):
        c = cols[part]
        systems = _ScaledSystems(cv.grams[:, c[:, :, None], c[:, None, :]])  # folds x sets
        pred = np.einsum("flck,fck->fcl", cv.z_val[:, :, c], systems.solve(cv.grams[:, c, -1]))
        resid = cv.z_val[:, None, :, -1] - pred  # padded rows give 0 - 0
        losses[:, part] = (resid * resid).sum(axis=2) / cv.n_val[:, None]
        for f, i in zip(*np.nonzero(~systems.ok)):
            resid = _refit_residuals(cv.Z, c[i], cv.blocks[f])
            losses[f, part.start + i] = float((resid ** 2).mean())
    return losses.mean(axis=0)


def f_sf(x, df1, df2):
    """Upper tail of the F(df1, df2) distribution at x, elementwise, via the
    regularized incomplete beta function; x = 0 gives exactly 1 and x = inf
    exactly 0."""
    from scipy.special import betainc

    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))


def _correlation_p(r, dof: int) -> np.ndarray:
    """Two-sided p-value of the correlation(s) r on ``dof`` degrees of
    freedom: the F(1, dof) tail of t^2, t = r sqrt(dof / (1 - r^2)); |r| = 1
    gives p = 0 and a nan r a nan p."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):  # |r| = 1 gives t = inf and p = 0
        t = r * np.sqrt(dof / (1.0 - r * r))
    return np.minimum(f_sf(t * t, 1, dof), 1.0)


def centre(X: np.ndarray) -> np.ndarray:
    """The centring rule above, on the columns of X (or on a vector)."""
    X = np.asarray(X, dtype=float)
    centred = X - X.mean(axis=0)
    centred[..., (X == X[:1]).all(axis=0)] = 0.0
    return centred


def standardize(X: np.ndarray) -> np.ndarray:
    """Columns centred by ``centre`` and divided by their sample standard
    deviation (ddof 1); a constant column comes back as exact zeros."""
    std = X.std(axis=0, ddof=1)
    std = np.where(std > 0, std, 1.0)
    return centre(X) / std


def f_test_nested(rss_restricted, rss_full: float, q, n: int, k_full: int) -> FTestResult:
    """Nested-model F test, elementwise over ``rss_restricted`` and ``q``:
    scalars give floats, arrays give arrays. Negative RSS gaps are clamped
    to zero.

    A perfect full fit with a worse restricted fit yields an infinite
    statistic and p = 0.
    """
    rss_restricted, q = np.asarray(rss_restricted, dtype=float), np.asarray(q)
    if (q < 1).any():
        raise ValueError("q must be >= 1")
    if n <= k_full:
        raise ValueError("need n > k_full")
    if rss_full < 0 or (rss_restricted < 0).any():
        raise ValueError("RSS cannot be negative")
    gap = np.maximum(rss_restricted - rss_full, 0.0)
    df2 = n - k_full
    if rss_full == 0.0:
        stat = np.where(gap > 0.0, math.inf, 0.0)
    else:
        stat = (gap / q) / (rss_full / df2)
    p = f_sf(stat, q, df2)
    if stat.ndim == 0:
        return FTestResult(float(stat), float(p))
    return FTestResult(stat, p)


def pearson_tests(
    X: np.ndarray, y: np.ndarray, conditions: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r of each centred row of X with the centred y, and its p-value on
    n - 2 - ``conditions`` degrees of freedom (``_correlation_p``). ``ok``
    is False, and r and p nan, where a row or y has zero variance. x'y, x'x
    and y'y are each one row-wise sum over contiguous rows, so a row's r
    does not depend on the other rows (a matrix-vector product may block its
    sums by the row count), and r is exactly 1 for x = y."""
    dof = len(y) - 2 - conditions
    if dof < 1:
        raise ValueError("not enough observations for the t transform")
    X, y = np.ascontiguousarray(X), np.ascontiguousarray(y)[None]
    sx = np.einsum("ij,ij->i", X, X)
    sy = np.einsum("ij,ij->i", y, y)[0]
    sxy = np.einsum("ij,ij->i", X, np.broadcast_to(y, X.shape))
    ok = (sx > 0.0) & (sy > 0.0)
    r = sxy / np.sqrt(np.where(ok, sx * sy, 1.0))
    r = np.where(ok, np.clip(r, -1.0, 1.0), np.nan)
    return r, _correlation_p(r, dof), ok


def partial_correlation(
    x: np.ndarray, y: np.ndarray, Z: np.ndarray | None = None
) -> tuple[float, float]:
    """Partial correlation of x and y given the columns of Z, with the
    two-sided p-value from the t transform: ``pearson_tests`` on the
    least-squares residuals of x and y on [1, Z].

    With an empty Z this reduces to the plain Pearson correlation. A
    residual with (numerically) zero variance raises DegenerateInput.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = len(x)
    Z = np.empty((n, 0)) if Z is None else np.asarray(Z, dtype=float).reshape(n, -1)
    nz = Z.shape[1]
    rx, ry = x, y
    if nz:
        if n <= nz + 2:
            raise Underdetermined(f"{n} rows for {nz} conditioning columns")
        rx = ols_fit(Z, x).residuals
        ry = ols_fit(Z, y).residuals
        # numerically exact dependence on Z leaves only rounding noise
        for resid, orig in ((rx, x), (ry, y)):
            total = float((centre(orig) ** 2).sum())
            if float(resid @ resid) <= 1e-24 * max(total, 1e-300):
                raise DegenerateInput("residual is (numerically) a zero vector")
    r, p, ok = pearson_tests(centre(rx)[None], centre(ry), nz)
    if not ok[0]:
        raise DegenerateInput("zero-variance input to correlation")
    return float(r[0]), float(p[0])


def gram_partial_correlation(
    G: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial correlations of x and y given Z, with two-sided p-values,
    from the Gram matrices of centred columns; ``partial_correlation``
    batched over conditional tests.

    ``G`` stacks tests x k x k Grams M'M, where M = [x, y, Z] holds the n
    centred rows of one test's columns (k - 2 conditioning columns; an
    unconditional test goes through ``pearson_tests``); a test's r and p do
    not depend on the other tests in the stack. r = -P01 / sqrt(P00 P11)
    with P = G^-1 from ``_ScaledSystems``, and p comes from
    ``_correlation_p``, as in ``partial_correlation``. ``ok`` is the guard's,
    and r and p are nan where it fails, as it always does for a
    zero-variance column: the caller must take those tests through
    ``partial_correlation``, which raises DegenerateInput and warns
    RankDeficientWarning where they are due.
    """
    G = np.asarray(G, dtype=float)
    dof = n - G.shape[-1]
    if dof < 1:
        raise ValueError("not enough observations for the t transform")
    systems = _ScaledSystems(G)
    P = systems.inverse()  # nan where not ok, and so are r and p
    r = np.clip(-P[:, 0, 1] / np.sqrt(P[:, 0, 0] * P[:, 1, 1]), -1.0, 1.0)
    return r, _correlation_p(r, dof), systems.ok


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    objective_history: tuple[float, ...]


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[c] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    points: np.ndarray, k: int, seed: int = 0, max_iter: int = 300
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, deterministic given seed.

    An empty cluster is repaired by handing it the point currently farthest
    from its own centroid among clusters of two or more points, which never
    increases the objective and never empties another cluster.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be 2-d (n x features)")
    n = points.shape[0]
    if k > n:
        raise BadK(f"k={k} exceeds {n} points")
    if k < 1:
        raise BadK("k must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    assignments = np.zeros(n, dtype=int)
    history = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)  # ties resolve to the lowest index
        for c in range(k):
            if (new_assign == c).any():
                continue
            # donors come from clusters of two or more (one exists, as k <= n)
            shared = np.bincount(new_assign, minlength=k)[new_assign] > 1
            dist_own = np.where(shared, d2[np.arange(n), new_assign], -1.0)
            new_assign[int(dist_own.argmax())] = c
        moved = (new_assign != assignments).any() or not history
        assignments = new_assign
        for c in range(k):
            centroids[c] = points[assignments == c].mean(axis=0)
        inertia = float(
            ((points - centroids[assignments]) ** 2).sum()
        )
        history.append(inertia)
        if not moved and len(history) > 1:
            break
    return KMeansResult(assignments, centroids, history[-1], tuple(history))


@dataclass(frozen=True)
class FastIcaResult:
    unmixing: np.ndarray  # components x variables, in the original space
    sources: np.ndarray  # samples x components
    converged: bool
    n_iter: int


def _sym_decorrelate(W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(W W')^{-1/2} W into ``out``: eigenvalues floored at 1e-12, then
    (V diag(vals^{-1/2}) V') W, multiplied left to right."""
    vals, vecs = np.linalg.eigh(np.dot(W, W.T))
    np.maximum(vals, 1e-12, out=vals)
    np.sqrt(vals, out=vals)
    np.true_divide(1.0, vals, out=vals)
    return np.dot(np.dot(np.multiply(vecs, vals), vecs.T), W, out=out)


def fastica(
    X: np.ndarray, seed: int = 0, max_iter: int = 500, tol: float = 1e-5
) -> FastIcaResult:
    """Symmetric FastICA with tanh contrast on eigen-whitened data.

    Parameters
    ----------
    X : array, samples x variables, all finite. Centered internally.
    seed : seeds the random orthogonal starting point.
    max_iter, tol : fixed-point iteration cap (at least 1) and the
        convergence threshold on the largest row-direction change.

    Returns the unmixing matrix expressed in the original (centered)
    variable space and the source estimates; sources have identity sample
    covariance by construction. Hitting the iteration cap issues a
    NotConvergedWarning and returns the best iterate.

    The fixed-point step is bound by numpy's per-call overhead (9 x 9
    products on ~60 rows in a backtest), so it runs each step as the
    plain expression ``G = tanh(Z W')``, ``W+ = decorrelate(G'Z / n -
    mean(1 - G^2) * W)`` would, in the same order, on the same operands
    and memory layouts (``W.T`` and ``G.T`` stay transposed views), but
    through ``np.dot`` (the same BLAS call as ``@``, at about half its
    dispatch cost at 9 x 9) and ufuncs writing into buffers allocated once
    per call, passed as ``out=`` keywords (``np.maximum`` deprecates a
    positional ``out``, and a warning per iteration costs more than the
    step). A test-local copy of the plain loop pins every output byte.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (samples x variables)")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not np.isfinite(X).all():
        raise ValueError("X holds a non-finite value")
    n, m = X.shape
    if n <= m:
        raise Underdetermined(f"{n} samples for {m} variables")
    Xc = centre(X)
    cov = (Xc.T @ Xc) / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    if (vals <= 1e-12).any():
        raise DegenerateInput("covariance is singular; cannot whiten")
    K = vecs[:, order] / np.sqrt(vals)  # variables x components
    Z = Xc @ K  # white: sample cov = I
    rng = np.random.default_rng(seed)
    W = _sym_decorrelate(rng.standard_normal((m, m)), np.empty((m, m)))
    W_new = np.empty((m, m))
    G = np.empty((n, m))  # tanh(Z W'), computed in place
    g_prime = np.empty((n, m))
    g_mean = np.empty(m)
    g_column = g_mean[:, None]
    target = np.empty((m, m))  # G'Z / n - mean(g') * W, decorrelated into W_new
    scaled = np.empty((m, m))
    change = np.empty(m)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        np.tanh(np.dot(Z, W.T, out=G), out=G)
        np.multiply(G, G, out=g_prime)
        np.subtract(1.0, g_prime, out=g_prime)
        np.true_divide(np.dot(G.T, Z, out=target), n, out=target)
        np.true_divide(np.add.reduce(g_prime, axis=0, out=g_mean), n, out=g_mean)
        np.subtract(target, np.multiply(g_column, W, out=scaled), out=target)
        _sym_decorrelate(target, W_new)
        np.einsum("ij,ij->i", W_new, W, out=change)
        np.abs(change, out=change)
        np.subtract(change, 1.0, out=change)
        np.abs(change, out=change)
        delta = float(np.maximum.reduce(change))
        W, W_new = W_new, W
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"FastICA stopped after {max_iter} iterations", NotConvergedWarning,
            stacklevel=2,
        )
    return FastIcaResult(
        unmixing=W @ K.T,
        sources=Z @ W.T,
        converged=converged,
        n_iter=it,
    )


def acyclicity(S: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth DAG-ness measure h(S) = tr(exp(S*S)) - d and its gradient.

    h is zero exactly when the support of S admits a topological order;
    the gradient is 2 exp(S*S)^T * S (Hadamard products throughout).
    """
    from scipy.linalg import expm

    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    E = expm(S * S)
    h = float(np.trace(E)) - S.shape[0]
    grad = 2.0 * E.T * S
    return max(h, 0.0), grad


# The argument list of scipy's C port of L-BFGS-B (scipy >= 1.15), which
# ``lbfgsb`` calls as scipy.optimize.minimize does
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)


def lbfgsb(fun, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimize ``fun`` over the box ``lower <= x <= upper`` by L-BFGS-B (Zhu
    et al. 1997); ``fun(x)`` returns the objective and its gradient. Returns
    the last iterate and the number of iterations.

    The iterates are bit for bit those of ``scipy.optimize.minimize(fun, x0,
    method="L-BFGS-B", jac=True, bounds=...)`` with its defaults (maxcor 10,
    ftol 2.22e-9, gtol 1e-5, maxls 20, maxiter and maxfun 15000), and ``fun``
    runs as often as there (``nfev``): once at the clipped start, then
    whenever the routine asks for the objective at an x other than the last
    one evaluated. It calls the same routine with the same arguments, without
    minimize's per-call setup and per-evaluation wrapping: about 52 ms of a
    116-148 ms DYNOTEARS fit at d = 12 and 60 rows (20 solves, 649
    evaluations; 2-core VM). An infinite bound leaves its side free. Unlike
    minimize, a box that fixes every coordinate is still handed to the
    routine.
    """
    import scipy
    from scipy.optimize import _lbfgsb

    if _lbfgsb.setulb.__doc__ != _SETULB_SIGNATURE:
        raise RuntimeError(
            f"scipy {scipy.__version__}: L-BFGS-B routine is not "
            f"{_SETULB_SIGNATURE}; causalfs needs scipy >= 1.15"
        )
    x0 = np.asarray(x0).ravel()
    n = len(x0)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"bounds of shapes {lower.shape}, {upper.shape} for {n} variables")
    if (lower > upper).any():
        raise ValueError("a lower bound is greater than its upper bound")
    x = np.clip(x0, lower, upper).astype(np.float64)
    # scipy's encoding: 0 free, 1 lower only, 2 both, 3 upper only; an
    # infinite bound is stored as 0
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    nbd = np.where(has_lower, np.where(has_upper, 2, 1), np.where(has_upper, 3, 0)).astype(np.int32)
    lower = np.where(has_lower, lower, 0.0)
    upper = np.where(has_upper, upper, 0.0)

    m, max_iter, max_fun = 10, 15000, 15000
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    pgtol, maxls = 1e-5, 20
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29, np.float64)

    x_seen = x.copy()
    f_seen, g_seen = fun(x.copy())
    n_fev, n_iter = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, factr, pgtol, wa,
                       iwa, task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:  # FG: the objective and gradient at x
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fun(x.copy())
                n_fev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # NEW_X: an iteration is done
            n_iter += 1
            if n_iter >= max_iter:
                task[:] = 5, 504
            elif n_fev > max_fun:
                task[:] = 5, 502
        else:
            return x, n_iter
