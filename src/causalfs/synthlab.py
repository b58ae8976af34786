"""Ground-truth structural VAR generator and recovery scoring.

Panels are simulated from a known instantaneous DAG S plus lag matrices
W_tau (source-row, dest-column), with Gaussian, uniform, or Laplace unit
noise and optional per-variable distribution shifts partway through the
sample. Every generated instantaneous graph is acyclic by construction and
the reduced-form process is rescaled into stationarity.

Each row is the recursion x_t' = (e_t' + x_{t-1}' W_1 + ... + x_{t-p}' W_p)
(I - S)^{-1}, summed left to right. (I - S)^{-1} is computed once per lab:
it serves the stationarity check, every rescaling step and every row, and
the row loop writes each row in place through preallocated buffers. Explicit
graphs given to ``simulate_svar`` are checked (square, finite, acyclic S;
W the shape of S; n >= 1) before any noise is drawn.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import GenerationFailed
from .ingest import to_csv
from .panel import AlignedPanel, MonthStamp
from .selectors.base import DynamicGraph, FeatureSet

BURN_IN = 200
TARGET_NAME = "Y"
NOISE_FAMILIES = ("gaussian", "uniform", "laplace")


@dataclass(frozen=True)
class EnvShift:
    """From ``start_row`` on, the variable's structural noise becomes
    ``mean + scale * base``."""

    variable: str
    start_row: int
    mean: float = 0.0
    scale: float = 1.0


@dataclass(frozen=True)
class SvarSpec:
    """Recipe for one synthetic panel.

    ``d`` counts all variables including the target, which is named Y and
    held at index 0; features are X1..X{d-1}. ``target_parents`` pins the
    exact number of lag-1 feature edges into the target, overriding density
    for that column; ``ar_coeff`` puts a common own-lag coefficient on every
    variable.
    """

    d: int
    p: int = 1
    n: int = 500
    edge_density: float = 0.2
    coefficient_range: tuple[float, float] = (0.3, 0.8)
    noise: str = "gaussian"
    instantaneous: bool = True
    environment_shifts: tuple[EnvShift, ...] = ()
    seed: int = 0
    target_parents: int | None = None
    ar_coeff: float | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least a target and one feature")
        if self.p < 1 or self.n < 1:
            raise ValueError("lag order p and length n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.noise not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise!r}")
        if self.target_parents is not None and not 0 <= self.target_parents <= self.d - 1:
            raise ValueError(f"target_parents must be in 0..{self.d - 1} (the features)")
        object.__setattr__(self, "environment_shifts", tuple(self.environment_shifts))
        _check_shifts(self.environment_shifts, variable_names(self.d), self.n)


def _check_shifts(shifts, names, n: int) -> None:
    """Each shift must name one of ``names`` and start on one of n rows."""
    for shift in shifts:
        if shift.variable not in names or not 0 <= shift.start_row < n:
            raise ValueError(f"{shift}: no such variable, or start_row not in 0..{n - 1}")


@dataclass(frozen=True)
class RecoveryScore:
    precision: float
    recall: float
    f1: float


def variable_names(d: int) -> tuple[str, ...]:
    return (TARGET_NAME, *[f"X{i}" for i in range(1, d)])


def _draw_coeffs(rng, shape, lo, hi):
    mag = rng.uniform(lo, hi, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def _draw_graph(spec: SvarSpec, rng) -> tuple[np.ndarray, list[np.ndarray]]:
    d = spec.d
    lo, hi = spec.coefficient_range
    S = np.zeros((d, d))
    if spec.instantaneous:
        order = rng.permutation(d)
        for a in range(d):
            for b in range(a + 1, d):
                if rng.random() < spec.edge_density:
                    S[order[a], order[b]] = _draw_coeffs(rng, (), lo, hi)
    W = []
    for _ in range(spec.p):
        mask = rng.random((d, d)) < spec.edge_density
        W.append(np.where(mask, _draw_coeffs(rng, (d, d), lo, hi), 0.0))
    if spec.ar_coeff is not None:
        np.fill_diagonal(W[0], spec.ar_coeff)
    if spec.target_parents is not None:
        t = 0  # target column index
        S[:, t] = 0.0
        for w in W:
            w[1:, t] = 0.0  # keep an own-lag edge if ar_coeff set one
        chosen = rng.choice(np.arange(1, d), size=spec.target_parents, replace=False)
        W[0][chosen, t] = _draw_coeffs(rng, spec.target_parents, lo, hi)
    return S, W


def _companion_radius(W: list[np.ndarray], inv: np.ndarray) -> float:
    """Spectral radius of the reduced form's companion matrix, given
    ``inv`` = (I - S)^{-1}."""
    d = inv.shape[0]
    p = len(W)
    # reduced form: x_t' = sum_tau x_{t-tau}' W_tau (I-S)^{-1} + e_t'(I-S)^{-1}
    B = [w @ inv for w in W]
    comp = np.zeros((d * p, d * p))
    for tau, b in enumerate(B):
        comp[:d, tau * d : (tau + 1) * d] = b.T
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _is_acyclic(S: np.ndarray) -> bool:
    """Whether the nonzero pattern of S (source-row) is a DAG: peel off the
    variables with no parent left until none remains, or none can go."""
    parents = S != 0
    left = np.ones(len(S), dtype=bool)
    while left.any():
        roots = left & ~parents[left].any(axis=0)
        if not roots.any():
            return False
        left &= ~roots
    return True


def _noise(rng, size, family):
    if family == "gaussian":
        return rng.standard_normal(size)
    if family == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=size)


@lru_cache(maxsize=8)
def _month_dates(n: int) -> tuple[MonthStamp, ...]:
    """The n months from 2000-01 on. Labs of one length share one tuple,
    which is safe because the tuple and its months are immutable."""
    start = MonthStamp(2000, 1)
    return tuple(start.plus(i) for i in range(n))


def _recurse(eps: np.ndarray, W: list[np.ndarray], inv: np.ndarray) -> np.ndarray:
    """Rows x_t' = (e_t' + x_{t-1}' W_1 + ... + x_{t-p}' W_p) (I-S)^{-1},
    summed left to right; row t < p takes only its t available lags.

    Each row is written in place through two preallocated buffers, so the
    loop allocates no array data: at p = 1 a row is three numpy calls. The
    vector-matrix products go through ``np.dot``: the same BLAS gemv call as
    ``np.matmul``, at about 60% of its per-call overhead, which is most of
    a row's cost at small d.
    """
    total, d = eps.shape
    p = len(W)
    X = np.empty((total, d))
    drive = np.empty(d)
    prod = np.empty(d)
    dot, add = np.dot, np.add  # the loop is bound by call overhead
    W1, *older_w = W
    dot(eps[0], inv, X[0])
    # row k < p sees lags 1..k; every row from p on sees all p
    for k in range(1, p + 1):
        stop = k + 1 if k < p else total
        # lags 2..k of each row as one tuple per row; () from the empty repeat
        older = (zip(*(X[k - tau : stop - tau] for tau in range(2, k + 1)))
                 if k > 1 else repeat(()))
        for e, row, prev, older_rows in zip(eps[k:stop], X[k:stop], X[k - 1 : stop - 1], older):
            dot(prev, W1, prod)
            add(e, prod, drive)
            if older_rows:  # skipped at p = 1, where the loop is call-bound
                for lag, w in zip(older_rows, older_w):
                    dot(lag, w, prod)
                    add(drive, prod, drive)
            dot(drive, inv, row)
    return X


def _simulate(S, W, inv, n, noise, rng, names, environment_shifts):
    """The simulation body for checked inputs: S acyclic, ``inv`` its
    (I - S)^{-1}, the reduced form stationary."""
    d = S.shape[0]
    total = n + BURN_IN
    eps = _noise(rng, (total, d), noise)
    for shift in environment_shifts:
        j = names.index(shift.variable)
        start = BURN_IN + shift.start_row
        eps[start:, j] = shift.mean + shift.scale * eps[start:, j]
    X = _recurse(eps, W, inv)[BURN_IN:]
    panel = AlignedPanel(dates=_month_dates(n), data=X, names=names)
    truth = DynamicGraph(S=S, W=tuple(W), variable_names=names)
    return panel, truth


def simulate_svar(
    S: np.ndarray,
    W,
    n: int,
    noise: str = "gaussian",
    seed: int | np.random.Generator = 0,
    names: tuple[str, ...] | None = None,
    environment_shifts=(),
) -> tuple[AlignedPanel, DynamicGraph]:
    """Simulate a panel from explicit S and W_tau matrices (source-row).

    Row t solves x_t' = x_t' S + x_{t-1}' W_1 + ... + x_{t-p}' W_p + e_t',
    so x_t' = (e_t' + x_{t-1}' W_1 + ... + x_{t-p}' W_p) (I - S)^{-1}, summed
    left to right with the one inverse; the first rows see only the lags
    they have. ``BURN_IN`` rows are simulated and dropped; the kept n rows
    are dated monthly from 2000-01. Variable 0 is the target.

    Input rules, each a ``ValueError`` raised before any noise is drawn: S
    is a square, finite, nonempty matrix whose nonzero pattern is acyclic;
    W is a nonempty sequence of finite matrices the shape of S; n is an
    integer >= 1; ``noise`` is gaussian, uniform or laplace; ``names`` are
    unique, one per variable; every shift names a variable and starts on
    one of the n rows. A reduced form that is not stationary raises
    GenerationFailed; use generate_svar for random, auto-rescaled graphs.
    ``seed`` is an int or a ``numpy.random.Generator``; a Generator is
    drawn from as it stands, so the noise continues its stream.
    """
    S = np.asarray(S, dtype=float)
    W = [np.asarray(w, dtype=float) for w in W]
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.size == 0:
        raise ValueError(f"S must be a nonempty square matrix, got shape {S.shape}")
    if not W:
        raise ValueError("W must hold at least one lag matrix")
    for tau, w in enumerate(W, start=1):
        if w.shape != S.shape:
            raise ValueError(f"W_{tau} has shape {w.shape}, S has {S.shape}")
    if not all(np.isfinite(m).all() for m in (S, *W)):
        raise ValueError("S and W must be finite")
    if not _is_acyclic(S):
        raise ValueError("S has a cycle; the instantaneous graph must be acyclic")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"length n must be an integer >= 1, got {n!r}")
    if noise not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {noise!r}")
    d = S.shape[0]
    names = variable_names(d) if names is None else tuple(names)
    if len(names) != d or len(set(names)) != d:
        raise ValueError(f"names must be {d} unique names, one per variable, got {names}")
    _check_shifts(environment_shifts, names, n)
    inv = np.linalg.inv(np.eye(d) - S)
    radius = _companion_radius(W, inv)
    if radius >= 1.0:
        raise GenerationFailed(f"reduced form is explosive (radius {radius:.3f})")
    return _simulate(S, W, inv, n, noise, np.random.default_rng(seed), names,
                     environment_shifts)


def generate_svar(spec: SvarSpec) -> tuple[AlignedPanel, DynamicGraph]:
    """Simulate a panel from a random sparse SVAR and return it with the truth.

    Deterministic given the spec's seed. Burn-in of 200 rows is discarded;
    environment shifts are indexed on the returned rows. The graph draw
    consumes the generator before the noise draw, so two specs differing
    only in their shifts share both the graph and the base noise. Rescaling
    shrinks only W, so (I - S)^{-1} is computed once per lab.
    """
    rng = np.random.default_rng(spec.seed)
    S, W = _draw_graph(spec, rng)
    inv = np.linalg.inv(np.eye(spec.d) - S)
    radius = _companion_radius(W, inv)
    for _ in range(20):
        if radius < 0.95:
            break
        shrink = 0.9 / radius
        W = [w * shrink for w in W]
        radius = _companion_radius(W, inv)
    if radius >= 1.0:
        raise GenerationFailed(f"spectral radius {radius:.3f} despite rescaling")
    return _simulate(S, W, inv, spec.n, spec.noise, rng, variable_names(spec.d),
                     spec.environment_shifts)


def _prf(hits: int, n_est: int, n_true: int) -> RecoveryScore:
    """Precision/recall/F1 from counts; an empty estimate has vacuous
    precision 1 and an empty truth vacuous recall 1."""
    precision = hits / n_est if n_est else 1.0
    recall = hits / n_true if n_true else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return RecoveryScore(precision, recall, f1)


def score_recovery(selected: FeatureSet, truth: DynamicGraph) -> RecoveryScore:
    """Precision/recall/F1 of the selected set against the true parent set
    of the target, Y.

    An empty selection has vacuous precision 1; an empty truth set gives
    vacuous recall 1.
    """
    truth_set = truth.parents_of(TARGET_NAME)
    return _prf(len(selected.selected & truth_set), len(selected.selected), len(truth_set))


def _edge_set(graph: DynamicGraph) -> set[tuple[int, int, int]]:
    edges = set()
    d = len(graph.variable_names)
    for i in range(d):
        for j in range(d):
            if graph.S[i, j] != 0:
                edges.add((i, j, 0))
            for tau, w in enumerate(graph.W, start=1):
                if w[i, j] != 0:
                    edges.add((i, j, tau))
    return edges


def score_graph_edges(estimate: DynamicGraph, truth: DynamicGraph) -> RecoveryScore:
    """Edge-level precision/recall/F1 over all (source, dest, lag) triples."""
    if estimate.variable_names != truth.variable_names:
        raise ValueError("graphs must share variable names and order")
    est = _edge_set(estimate)
    tru = _edge_set(truth)
    return _prf(len(est & tru), len(est), len(tru))


def export_fredmd(panel: AlignedPanel) -> tuple[str, str, str]:
    """Export a panel in the ingest CSV schemas for round-trip testing.

    Features go out as a FRED-MD-format file with transform code 1 (level),
    each tagged group 1; the target is rebuilt into a price path that starts
    at 100 and whose percent returns reproduce its values, whatever unit the
    panel's target is in. All three files are written by ``to_csv``.
    Returns (fredmd_csv, groups_csv, prices_csv).
    """
    fredmd_csv = to_csv(["sasdate", *panel.feature_names], [
        ["Transform:", *["1"] * panel.n_features],
        *([f"{d.month}/1/{d.year}", *row] for d, row in zip(panel.dates, panel.features.tolist())),
    ])
    groups_csv = to_csv(["series", "group"], ((name, 1) for name in panel.feature_names))
    factor = panel.target / 100.0
    if (factor <= -1.0).any():
        raise ValueError("target below -100%; not representable as a price path")
    prices = 100.0 * np.cumprod(1.0 + factor)
    first = panel.dates[0].plus(-1)
    prices_csv = to_csv(["date", "close"], [
        (f"{first}-28", 100.0),
        *((f"{d}-28", price) for d, price in zip(panel.dates, prices.tolist())),
    ])
    return fredmd_csv, groups_csv, prices_csv
