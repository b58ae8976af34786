"""Run configuration: a flat TOML-style key/value format or plain JSON.

The TOML subset supported here: ``key = value`` lines, ``[section]`` and
``[section.sub]`` headers, ``#`` comments, and values that are quoted
strings, integers, floats, booleans, or one-line arrays. That covers every
config this tool reads; anything fancier should just use JSON.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BadName, ConfigError
from .selectors import selector_params

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
        depth = 0
        current = ""
        in_string = False
        for ch in inner:
            if ch == '"':
                in_string = not in_string
            if ch == "," and not in_string and depth == 0:
                parts.append(current)
                current = ""
                continue
            current += ch
        parts.append(current)
        return [_parse_scalar(p) for p in parts]
    return _parse_scalar(text)


def parse_kv(text: str) -> dict:
    """Parse the TOML-subset text into nested dicts."""
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
        try:
            target[kv.group(1)] = _parse_value(kv.group(2))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}")
    return root


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}")
    return parse_kv(text)


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
        p = Path(self.output_dir)
        return p if p.is_absolute() else self.base_dir / p


def check_selectors(selectors, params: dict) -> None:
    """Raise ConfigError unless every id in ``selectors`` is known and every
    ``[selector.<id>]`` table in ``params`` passes the registry's checks."""
    if not isinstance(params, dict):
        raise ConfigError("[selector.*] sections must form a table")
    try:
        for sid in selectors:
            selector_params(sid)
        for sid, table in params.items():
            if not isinstance(table, dict):
                raise ConfigError(f"[selector.{sid}] must be a table")
            selector_params(sid, table)
    except BadName as exc:
        raise ConfigError(str(exc)) from None


def load_run_config(path, require_inputs: bool = False) -> RunConfig:
    """Load and validate a run config; selector ids and params must pass
    ``check_selectors``, the lag order ``p``, ``window`` and
    ``reselect_every`` must be integers that a backtest can run with
    (p >= 1, window > p + 2, reselect_every >= 1) and, when
    ``require_inputs`` is set, every referenced input file must exist."""
    raw = load_config_file(path)
    base = Path(path).resolve().parent
    tables = raw.pop("selector", {})
    known = {
        "fredmd_csv", "prices_csv", "groups_csv", "calendar", "output_dir",
        "window", "p", "metric_window", "shift_months", "seed", "target_name",
        "selectors", "reselect_every", "combine", "combine_weight",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(base_dir=base, selector_params=tables, **raw)
    if isinstance(cfg.selectors, str):
        cfg.selectors = [cfg.selectors]
    check_selectors([*cfg.selectors, *cfg.combine], tables)
    for key in ("window", "p", "reselect_every"):
        value = getattr(cfg, key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    if cfg.p < 1:
        raise ConfigError(f"lag order p must be >= 1, got {cfg.p}")
    if cfg.window <= cfg.p + 2:
        raise ConfigError(f"window must exceed p + 2 = {cfg.p + 2}, got {cfg.window}")
    if cfg.reselect_every < 1:
        raise ConfigError(f"reselect_every must be >= 1, got {cfg.reselect_every}")
    if cfg.combine and len(cfg.combine) != 2:
        raise ConfigError("combine must list exactly two selector ids")
    if require_inputs:
        for key in ("fredmd_csv", "prices_csv", "groups_csv", "calendar"):
            p = cfg.resolve(key)
            if not p.exists():
                raise ConfigError(f"{key} file {p} does not exist")
    return cfg
