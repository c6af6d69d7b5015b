"""Run configuration with ini-file round-tripping.

Defaults follow the reference hyperparameters: 200000 inference steps, 200 s
time limit, bigsteps every 2000 playouts, exploration constant 3.0 for the
unguided iteration and 2.0 once models are loaded (`mcts.search_problem`
applies this rule: `cp_later` under `ModelGuidance`, `cp_initial`
otherwise), 10000-dimensional features, path limit 1000, discount 0.99,
softmax temperature 2. Learner defaults: eta 0.3, depth 9, lambda 1.5, 400
rounds, patience 50.

`guided_reduction` is the paper's "guidance extended to reduction steps":
when on, reductions that need unification become search actions; when off,
the deterministic steps perform the first one that unifies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional


class ConfigError(Exception):
    pass


@dataclass
class Config:
    inference_limit: int = 200000
    time_limit_s: float = 200.0
    bigstep_freq: int = 2000
    cp_initial: float = 3.0
    cp_later: float = 2.0
    feature_dim: int = 10000
    path_limit: int = 1000
    discount: float = 0.99
    temperature: float = 2.0
    rewrite: bool = True
    guided_reduction: bool = False
    single_action_optim: bool = True
    limited_policy: bool = True
    all_proofsteps: bool = True
    eta: float = 0.3
    max_depth: int = 9
    reg_lambda: float = 1.5
    rounds: int = 400
    patience: int = 50


_FIELD_KIND = {f.name: type(f.default) for f in fields(Config)}
# every number must be finite and >= 0; these must also be > 0
_POSITIVE = {"feature_dim", "time_limit_s", "temperature"}
# and these at most their bound: gbt builds a tree with one recursive call
# per level, so max_depth stays far below the interpreter's recursion limit,
# and a discount factor lies in [0, 1]
_AT_MOST = {"max_depth": 64, "discount": 1.0}

# the spellings `repr(float)` writes, in ASCII only: no `_`, no other digits
_NUMBER = re.compile(r"-?(?:inf|nan|[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?)")


def _finite(token: str) -> float:
    if not _NUMBER.fullmatch(token):
        raise ValueError(f"bad number {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def _digits(token: str) -> bool:
    """The one spelling of a count: ASCII decimal digits, as `repr(int)`
    writes a non-negative int."""
    return token.isascii() and token.isdigit()


def _index(token: str) -> int:
    """A feature index or dimension."""
    if not _digits(token):
        raise ValueError(f"bad feature index {token!r}")
    return int(token)


def _set(cfg: Config, key: str, raw: str, where: str = ""):
    """Parse `raw` as the type of option `key` and store it on `cfg`; only
    the spellings `to_ini` writes are accepted."""
    key = key.strip()
    kind = _FIELD_KIND.get(key)
    if kind is None:
        raise ConfigError(f"{where}unknown option {key!r}")
    raw = raw.strip()
    if kind is bool:
        if raw not in ("on", "off"):
            raise ConfigError(f"{where}bad boolean for {key}: {raw!r}")
        value = raw == "on"
    else:
        if not (_digits(raw) if kind is int else _NUMBER.fullmatch(raw)):
            raise ConfigError(f"{where}bad value for {key}: {raw!r}")
        value = kind(raw)
        if (not math.isfinite(value) or value < 0 or (key in _POSITIVE and value == 0)
                or value > _AT_MOST.get(key, math.inf)):
            raise ConfigError(f"{where}out-of-range value for {key}: {raw!r}")
    setattr(cfg, key, value)


def from_ini(text: str) -> Config:
    """Read an ini file; a key may be set once (`-s` overrides, applied
    afterwards, are the only place where the last value wins)."""
    cfg = Config()
    set_on: dict = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";", "%")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        _set(cfg, key, raw, f"line {lineno}: ")
        set_on[key] = lineno
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return repr(value)


def to_ini(cfg: Config) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(Config)]
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: Config, pairs) -> Config:
    """Apply key=value strings (CLI -s/--set) on top of a config."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value: {pair!r}")
        key, _, raw = pair.partition("=")
        _set(cfg, key, raw)
    return cfg


def load_config(path: Optional[str] = None, overrides=()) -> Config:
    cfg = Config()
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = from_ini(fh.read())
    return apply_overrides(cfg, overrides)
