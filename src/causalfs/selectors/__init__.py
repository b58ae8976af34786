"""Feature selectors behind one contract: a ``Step`` in, a FeatureSet out."""
from __future__ import annotations

import math
from functools import partial

from ..errors import BadName, Insufficient
from .base import DynamicGraph, Environment, FeatureSet, Step
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
    "Step",
    "VarLingamResult",
    "check_keys",
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


# Adapters to the uniform ``(step, **params)`` form. They pass on only the
# params a config sets, so each default lives in one place: the selector
# function's signature.

def _granger(step, **kw):
    return granger_select(step.design, **kw)


def _seqicp(step, environments="halves", **kw):
    if environments == "calendar":
        envs = [Environment(str(regime), rows)
                for regime, rows in step.calendar.split(step.design.dates).items()]
        try:
            return seqicp_select(step.design, envs, **kw)
        except Insufficient:
            pass  # a regime too short to fit (or empty): test the window's halves
    return seqicp_select(step.design, None, **kw)


def _varlingam(step, **kw):
    return varlingam_select(step.panel, p=step.p, seed=step.seed, **kw)


def _dynotears(step, **kw):
    return dynotears_select(dynotears_fit(step.panel, p=step.p, **kw), step.panel.target_name)


def _pcmci(step, **kw):
    return pcmci_select(step.panel, p=step.p, **kw)


def _sfs(step, **kw):
    return sfs_select(step.design, **kw)


def _coercion(kind: str, *types, rule: str = "", test=lambda value: True):
    """A key-table coercion: a value not of ``types`` (a bool is no int) or
    failing ``test`` is an error, so "false" is no bool and 2.7 no int; only
    a number for a float key is converted, to float, and it must be finite."""
    def coerce(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise TypeError(f"expected {kind}, got {value!r}")
        value = float(value) if float in types else value
        if float in types and not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        if not test(value):
            raise ValueError(f"{value!r} is not {rule}")
        return value

    return coerce


integer, number = _coercion("an integer", int), _coercion("a number", int, float)
boolean = _coercion("true or false", bool)
string = _coercion("a string", str, rule="printable", test=str.isprintable)
_ALPHA = _coercion("a number", int, float, rule="in (0, 1)", test=lambda value: 0 < value < 1)
_POSITIVE = _coercion("a number", int, float, rule="> 0", test=lambda value: value > 0)
_NON_NEGATIVE = _coercion("a number", int, float, rule=">= 0", test=lambda value: value >= 0)


def at_least(low: int):
    return _coercion("an integer", int, rule=f">= {low}", test=lambda value: value >= low)


def _one_of(*options):
    return _coercion("a string", str, rule=f"one of {options}", test=options.__contains__)


# id -> (adapter, {param: coercion}) for every param a config may set; the
# ranges bind config input only, not direct calls
SELECTORS = {
    "granger": (_granger, {"alpha": _ALPHA}),
    "seqicp": (_seqicp, {"alpha": _ALPHA, "max_subset_size": at_least(0),
                         "environments": _one_of("halves", "calendar")}),
    "varlingam": (_varlingam, {"k_clusters": at_least(1), "edge_threshold": number,
                               "use_instantaneous": boolean, "use_lagged": boolean}),
    "dynotears": (_dynotears, {"lambda_w": _NON_NEGATIVE, "lambda_s": _NON_NEGATIVE,
                               "h_tol": _POSITIVE, "w_threshold": number}),
    "pcmci": (_pcmci, {"alpha": _ALPHA, "max_cond_dim": at_least(0),
                       "max_parents_stage1": at_least(1)}),
    "sfs": (_sfs, {"direction": _one_of("forward", "backward"), "tol": number,
                   "max_features": at_least(0), "folds": at_least(2)}),
}
SELECTOR_IDS = tuple(SELECTORS)


def check_keys(coercions: dict, values, label: str) -> dict:
    """The table ``values``, each coerced by ``coercions[key]``; raises
    BadName, naming ``label``, for a non-table, an unknown key or a value
    its coercion rejects."""
    if not isinstance(values, dict):
        raise BadName(f"{label} must be a table, got {values!r}")
    unknown = set(values) - set(coercions)
    if unknown:
        raise BadName(f"unknown keys in {label}: {sorted(unknown)}")
    checked = {}
    for key, value in values.items():
        try:
            checked[key] = coercions[key](value)
        except (TypeError, ValueError) as exc:
            raise BadName(f"bad value for {key} in {label}: {exc}") from None
    return checked


def selector_params(selector_id: str, params: dict | None = None) -> dict:
    """Check a selector's params against the registry and coerce each value;
    raises BadName for an unknown selector id or params ``check_keys`` rejects."""
    if selector_id not in SELECTOR_IDS:
        raise BadName(f"unknown selector {selector_id!r}; known: {SELECTOR_IDS}")
    label = f"[selector.{selector_id}]"
    return check_keys(SELECTORS[selector_id][1], {} if params is None else params, label)


def make_selector(selector_id: str, params: dict | None = None):
    """The uniform callable the backtest engine and validate use: one
    ``Step`` in, a FeatureSet out; the params are checked here, once."""
    kwargs = selector_params(selector_id, params)
    return partial(SELECTORS[selector_id][0], **kwargs)
