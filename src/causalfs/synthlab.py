"""Ground-truth structural VAR generator and recovery scoring.

Panels are simulated from a known instantaneous DAG S plus lag matrices
W_tau (source-row, dest-column), with Gaussian, uniform, or Laplace unit
noise and optional per-variable distribution shifts partway through the
sample. Every generated instantaneous graph is acyclic by construction and
the reduced-form process is rescaled into stationarity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed
from .ingest import to_csv
from .panel import AlignedPanel, MonthStamp
from .selectors.base import DynamicGraph, FeatureSet

BURN_IN = 200
TARGET_NAME = "Y"


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
        if self.noise not in ("gaussian", "uniform", "laplace"):
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


def _companion_radius(S: np.ndarray, W: list[np.ndarray]) -> float:
    d = S.shape[0]
    p = len(W)
    inv = np.linalg.inv(np.eye(d) - S)
    # reduced form: x_t' = sum_tau x_{t-tau}' W_tau (I-S)^{-1} + e_t'(I-S)^{-1}
    B = [w @ inv for w in W]
    comp = np.zeros((d * p, d * p))
    for tau, b in enumerate(B):
        comp[:d, tau * d : (tau + 1) * d] = b.T
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _noise(rng, size, family):
    if family == "gaussian":
        return rng.standard_normal(size)
    if family == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=size)


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

    Variable 0 is the target. The instantaneous matrix must be acyclic and
    the implied reduced form stationary; use generate_svar for random,
    auto-rescaled graphs. ``seed`` is an int or a ``numpy.random.Generator``;
    a Generator is drawn from as it stands, so the noise continues its
    stream.
    """
    S = np.asarray(S, dtype=float)
    W = [np.asarray(w, dtype=float) for w in W]
    d = S.shape[0]
    p = len(W)
    names = variable_names(d) if names is None else tuple(names)
    _check_shifts(environment_shifts, names, n)
    radius = _companion_radius(S, W)
    if radius >= 1.0:
        raise GenerationFailed(f"reduced form is explosive (radius {radius:.3f})")
    rng = np.random.default_rng(seed)
    inv = np.linalg.inv(np.eye(d) - S)
    total = n + BURN_IN
    eps = _noise(rng, (total, d), noise)
    for shift in environment_shifts:
        j = names.index(shift.variable)
        start = BURN_IN + shift.start_row
        eps[start:, j] = shift.mean + shift.scale * eps[start:, j]
    X = np.zeros((total, d))
    for t in range(total):
        drive = eps[t].copy()
        for tau in range(1, p + 1):
            if t - tau >= 0:
                drive += X[t - tau] @ W[tau - 1]
        X[t] = drive @ inv
    X = X[BURN_IN:]
    start = MonthStamp(2000, 1)
    dates = tuple(start.plus(i) for i in range(n))
    panel = AlignedPanel(dates=dates, data=X, names=names)
    truth = DynamicGraph(S=S, W=tuple(W), variable_names=names)
    return panel, truth


def generate_svar(spec: SvarSpec) -> tuple[AlignedPanel, DynamicGraph]:
    """Simulate a panel from a random sparse SVAR and return it with the truth.

    Deterministic given the spec's seed. Burn-in of 200 rows is discarded;
    environment shifts are indexed on the returned rows. The graph draw
    consumes the generator before the noise draw, so two specs differing
    only in their shifts share both the graph and the base noise.
    """
    rng = np.random.default_rng(spec.seed)
    S, W = _draw_graph(spec, rng)
    radius = _companion_radius(S, W)
    for _ in range(20):
        if radius < 0.95:
            break
        shrink = 0.9 / radius
        W = [w * shrink for w in W]
        radius = _companion_radius(S, W)
    if radius >= 1.0:
        raise GenerationFailed(f"spectral radius {radius:.3f} despite rescaling")
    return simulate_svar(
        S,
        W,
        n=spec.n,
        noise=spec.noise,
        names=variable_names(spec.d),
        environment_shifts=spec.environment_shifts,
        seed=rng,
    )


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
