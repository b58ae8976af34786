"""Run configuration: a flat TOML-style key/value format or plain JSON.

The TOML subset supported here: ``key = value`` lines, ``[section]`` and
``[section.sub]`` headers, ``#`` comments, and values that are quoted
strings, integers, floats, booleans, or one-line arrays. That covers every
config this tool reads; anything fancier should just use JSON.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from .errors import BadName, ConfigError
from .ingest import check_names
from .selectors import (
    SELECTOR_IDS, at_least, boolean, check_keys, integer, number, selector_params, string,
)
from .synthlab import EnvShift, SvarSpec

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_\-]+)\s*=\s*(.+)$")


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r}")


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        parts = []
        current = ""
        in_string = False
        for ch in inner:
            if ch == '"':
                in_string = not in_string
            if ch == "," and not in_string:
                parts.append(current)
                current = ""
                continue
            current += ch
        parts.append(current)
        return [_parse_scalar(p) for p in parts]
    return _parse_scalar(text)


def parse_kv(text: str) -> dict:
    """Parse the TOML-subset text into nested dicts; a key set twice is an error."""
    root: dict = {}
    target = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        section = _SECTION_RE.match(line)
        if section:
            target = root
            for part in section.group(1).split("."):
                target = target.setdefault(part, {})
                if not isinstance(target, dict):
                    raise ConfigError(f"line {lineno}: section clashes with a key")
            continue
        kv = _KEY_RE.match(line)
        if not kv:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if kv.group(1) in target:
            raise ConfigError(f"line {lineno}: key {kv.group(1)!r} set twice")
        try:
            target[kv.group(1)] = _parse_value(kv.group(2))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}")
    return root


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key set twice is a ConfigError."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise ConfigError(f"key {key!r} set twice")
        table[key] = value
    return table


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            return json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}")
    return parse_kv(text)


def check_config(coercions: dict, values, label: str) -> dict:
    """``check_keys``, raising ConfigError."""
    try:
        return check_keys(coercions, values, label)
    except BadName as exc:
        raise ConfigError(str(exc)) from None


def _selector_ids(value) -> list:
    ids = [value] if isinstance(value, str) else value
    if not isinstance(ids, list):
        raise TypeError(f"expected selector ids, got {ids!r}")
    for i, sid in enumerate(ids):
        selector_params(sid)
        if sid in ids[:i]:
            raise ValueError(f"selector {sid!r} listed twice")
    return ids


def _selectors(value) -> list:
    if not (ids := _selector_ids(value)):
        raise ValueError("must list at least one selector id")
    return ids


def _combine(value) -> list:
    if len(ids := _selector_ids(value)) not in (0, 2):
        raise ValueError("must list exactly two selector ids")
    return ids


def _target_name(value) -> str:
    """A string that names a panel column by the rule series names follow."""
    check_names([string(value)], "target", ValueError)
    return value


def _selector_tables(tables) -> dict:
    check_keys({sid: partial(selector_params, sid) for sid in SELECTOR_IDS}, tables, "[selector]")
    return tables  # as written, which manifests and config hashes record


# paths relative to the config's directory; ingest requires every one
_INPUT_FILES = dict.fromkeys(("fredmd_csv", "prices_csv", "groups_csv", "calendar"), string)
# key -> coercion for a run config; defaults are RunConfig's
RUN_CONFIG_KEYS = {
    **_INPUT_FILES, "output_dir": string, "window": integer, "p": at_least(1),
    "metric_window": at_least(1), "shift_months": at_least(0), "seed": at_least(0),
    "target_name": _target_name, "selectors": _selectors, "selector": _selector_tables,
    "reselect_every": at_least(1), "combine": _combine, "combine_weight": number,
}

_SHIFT_KEYS = {"variable": string, "start_row": integer, "mean": number, "scale": number}


def _environment_shifts(rows) -> tuple:
    return tuple(EnvShift(**check_keys(_SHIFT_KEYS, row, "environment_shifts")) for row in rows)


# key -> coercion for a validate spec; the keys from seed on make an SvarSpec,
# which checks what they mean. Defaults are SvarSpec's and ValidateConfig's.
VALIDATE_KEYS = {
    "output_dir": string, "selectors": _selectors, "selector": _selector_tables,
    "n_seeds": at_least(1),
    "seed": at_least(0), "d": integer, "p": integer, "n": integer,
    "edge_density": number, "coefficient_low": number, "coefficient_high": number,
    "noise": string, "instantaneous": boolean, "environment_shifts": _environment_shifts,
    "target_parents": integer, "ar_coeff": number,
}


@dataclass
class RunConfig:
    """Everything one batch run needs; see load_run_config for the format."""

    fredmd_csv: str | None = None
    prices_csv: str | None = None
    groups_csv: str | None = None
    calendar: str | None = None
    output_dir: str = "out"
    window: int = 60
    p: int = 1
    metric_window: int = 12
    shift_months: int = 1
    seed: int = 0
    target_name: str = "TARGET"
    selectors: list[str] = field(default_factory=lambda: ["granger"])
    selector_params: dict = field(default_factory=dict)
    reselect_every: int = 1
    combine: list[str] = field(default_factory=list)
    combine_weight: float = 0.5
    base_dir: Path = field(default_factory=Path)

    def resolve(self, name: str) -> Path:
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"config key {name!r} is required for this command")
        return (self.base_dir / value).resolve() if not Path(value).is_absolute() else Path(value)

    @property
    def out_dir(self) -> Path:
        return self.base_dir / self.output_dir  # an absolute output_dir wins


def load_run_config(path, require_inputs: bool = False) -> RunConfig:
    """Load a run config whose keys pass ``RUN_CONFIG_KEYS``, whose
    ``window`` exceeds ``p + 2`` and whose ``combine`` names only ids in its
    own ``selectors``; when ``require_inputs`` is set, every referenced
    input file must exist."""
    values = check_config(RUN_CONFIG_KEYS, load_config_file(path), "run config")
    base = Path(path).resolve().parent
    cfg = RunConfig(base_dir=base, selector_params=values.pop("selector", {}), **values)
    if cfg.window <= cfg.p + 2:
        raise ConfigError(f"window must exceed p + 2 = {cfg.p + 2}, got {cfg.window}")
    if missing := [sid for sid in cfg.combine if sid not in cfg.selectors]:
        raise ConfigError(f"combine names {missing} missing from selectors {cfg.selectors}")
    if require_inputs:
        for key in _INPUT_FILES:
            p = cfg.resolve(key)
            if not p.exists():
                raise ConfigError(f"{key} file {p} does not exist")
    return cfg


@dataclass(frozen=True)
class ValidateConfig:
    """A validate spec: the lab, seeded from ``spec.seed`` on, and what to run on it."""

    spec: SvarSpec
    output_dir: str = "out"
    selectors: list[str] = field(default_factory=lambda: ["granger"])
    selector_params: dict = field(default_factory=dict)
    n_seeds: int = 20


def load_validate_config(path) -> ValidateConfig:
    """Load a validate spec whose keys pass ``VALIDATE_KEYS`` and make an
    ``SvarSpec``, which needs ``d``."""
    keys = check_config(VALIDATE_KEYS, load_config_file(path), "validate spec")
    low, high = SvarSpec.coefficient_range
    keys["coefficient_range"] = keys.pop("coefficient_low", low), keys.pop("coefficient_high", high)
    lab = {f.name: keys.pop(f.name) for f in fields(SvarSpec) if f.name in keys}
    try:
        spec = SvarSpec(**lab)
    except (TypeError, ValueError) as exc:  # TypeError: d is missing
        raise ConfigError(f"bad validate spec: {exc}") from None
    return ValidateConfig(spec, selector_params=keys.pop("selector", {}), **keys)
