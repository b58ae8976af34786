"""Feature selectors behind one contract: panel (or design) in, FeatureSet out."""
from __future__ import annotations

from ..errors import BadName
from ..ingest import Regime
from ..panel import AlignedPanel, build_design
from .base import DynamicGraph, Environment, FeatureSet
from .dynotears import dynotears_fit, dynotears_select
from .granger import granger_select
from .pcmci import pcmci_select
from .seqicp import halves_environments, residual_invariance_p, seqicp_select
from .sfs import cv_mse, sfs_select
from .varlingam import VarLingamResult, cluster_prefilter, varlingam_fit, varlingam_select

__all__ = [
    "SELECTORS",
    "SELECTOR_IDS",
    "DynamicGraph",
    "Environment",
    "FeatureSet",
    "VarLingamResult",
    "cluster_prefilter",
    "cv_mse",
    "dynotears_fit",
    "dynotears_select",
    "granger_select",
    "halves_environments",
    "make_selector",
    "pcmci_select",
    "residual_invariance_p",
    "selector_params",
    "seqicp_select",
    "sfs_select",
    "varlingam_fit",
    "varlingam_select",
]


# Adapters to the uniform ``(panel, p, seed, calendar, **params)`` form. They
# pass on only the params a config sets, so each default lives in one place:
# the selector function's signature.

def _granger(panel, p, seed, calendar, **kw):
    return granger_select(build_design(panel, p), **kw)


def _seqicp(panel, p, seed, calendar, environments="halves", **kw):
    design = build_design(panel, p)
    envs = None  # seqicp_select's default: the window's two halves
    if environments == "calendar" and calendar is not None:
        regimes = [calendar.classify(d) for d in design.dates]
        envs = [
            Environment(str(regime), [i for i, r in enumerate(regimes) if r is regime])
            for regime in Regime
        ]
        if not all(len(e) for e in envs):
            envs = None  # a single-regime window cannot test invariance
    return seqicp_select(design, envs, **kw)


def _varlingam(panel, p, seed, calendar, **kw):
    return varlingam_select(panel, p=p, seed=seed, **kw)


def _dynotears(panel, p, seed, calendar, **kw):
    return dynotears_select(dynotears_fit(panel, p=p, **kw), panel.target_name)


def _pcmci(panel, p, seed, calendar, **kw):
    return pcmci_select(panel, p=p, **kw)


def _sfs(panel, p, seed, calendar, **kw):
    return sfs_select(build_design(panel, p), seed=seed, **kw)


def _choice(*options):
    def check(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {options}")
        return value

    return check


def _int_at_least(low):
    def check(value):
        value = int(value)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value

    return check


# id -> (adapter, {param: coercion}); the keys are every param a config may set
SELECTORS = {
    "granger": (_granger, {"alpha": float}),
    "seqicp": (_seqicp, {"alpha": float, "max_subset_size": int,
                         "environments": _choice("halves", "calendar")}),
    "varlingam": (_varlingam, {"k_clusters": int, "edge_threshold": float,
                               "use_instantaneous": bool, "use_lagged": bool}),
    "dynotears": (_dynotears, {"lambda_w": float, "lambda_s": float,
                               "h_tol": float, "w_threshold": float}),
    "pcmci": (_pcmci, {"alpha": float, "max_cond_dim": int, "max_parents_stage1": int}),
    "sfs": (_sfs, {"direction": _choice("forward", "backward"), "tol": float,
                   "max_features": int, "folds": _int_at_least(2)}),
}
SELECTOR_IDS = tuple(SELECTORS)


def selector_params(selector_id: str, params: dict | None = None) -> dict:
    """Check a selector's params against the registry and coerce each value.

    Raises BadName for an unknown selector id, an unknown param, or a value
    that fails its coercion or choice check.
    """
    if selector_id not in SELECTOR_IDS:
        raise BadName(f"unknown selector {selector_id!r}; known: {SELECTOR_IDS}")
    params = params or {}
    coercions = SELECTORS[selector_id][1]
    unknown = set(params) - set(coercions)
    if unknown:
        raise BadName(f"unknown parameters for {selector_id}: {sorted(unknown)}")
    checked = {}
    for key, value in params.items():
        try:
            checked[key] = coercions[key](value)
        except (TypeError, ValueError) as exc:
            raise BadName(f"bad value for {selector_id}.{key}: {exc}") from None
    return checked


def make_selector(selector_id: str, params: dict | None = None):
    """Build the uniform callable used by the backtest engine.

    The callable signature is ``(panel, p, seed, calendar=None) -> FeatureSet``;
    design-based selectors build their lag design internally.
    """
    kwargs = selector_params(selector_id, params)
    adapter = SELECTORS[selector_id][0]

    def run(panel: AlignedPanel, p: int, seed: int, calendar=None) -> FeatureSet:
        return adapter(panel, p, seed, calendar, **kwargs)

    return run
