"""Flat key=value run configuration.

The parameter space is small and flat, so the config format is line-oriented
``key = value`` text with ``#`` comments; files diff cleanly under version
control. A file holds no mode: the caller names it (the CLI's subcommand),
so one file serves ``simulate``, ``verify`` and ``shift``. Dynamic modes take
the two-level parameters either from a level pair (state_a/state_b) or from
explicit rates, never both.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .hydrogenic import _ORBITAL_LETTERS, BoundState
from .twolevel import BlochVector, TwoLevelParams, _ball_start

MODES = ("coeffs", "simulate", "verify", "shift")

_RATE_KEYS = ("omega21", "a12", "b12", "c12")
_GAMMA_KEYS = ("gamma11", "gamma22", "gamma12")
_TIME_KEYS = ("t_start", "t_end", "step", "t0")
_FLOAT_KEYS = _RATE_KEYS + _GAMMA_KEYS + _TIME_KEYS + ("k_max", "px0", "py0", "pz0")
_PARAM_KEYS = tuple(f.name for f in fields(TwoLevelParams))
_KNOWN_KEYS = ("state_a", "state_b", "output", "units") + _FLOAT_KEYS

_STATE_TOKEN = re.compile(r"^(\d+)([a-z])([+-]?\d+)?$")
_ORBITAL_OF = {letter: l for l, letter in enumerate(_ORBITAL_LETTERS)}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending line or key."""


def parse_state(token: str) -> BoundState:
    """Parse a level spec: spectroscopic ('2p', '2p+1', '3d-2') or 'n,l,m'."""
    token = token.strip().lower()
    if "," in token:
        parts = [p.strip() for p in token.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"state spec '{token}' must be n,l,m")
        try:
            n, l, m = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"state spec '{token}' has non-integer quantum numbers") from None
    else:
        match = _STATE_TOKEN.match(token)
        if not match or match.group(2) not in _ORBITAL_OF:
            raise ConfigError(f"unrecognized state spec '{token}' (expected e.g. '2p0' or '2,1,0')")
        n = int(match.group(1))
        l = _ORBITAL_OF[match.group(2)]
        m = int(match.group(3)) if match.group(3) is not None else 0
    try:
        return BoundState(n=n, l=l, m=m)
    except ValueError as exc:
        raise ConfigError(f"invalid state spec '{token}': {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    params: TwoLevelParams
    state_a: BoundState | None = None
    state_b: BoundState | None = None
    t_start: float | None = None
    t_end: float | None = None
    step: float | None = None
    k_max: float | None = None
    output: str | None = None
    units: str = "atomic"
    initial: BlochVector | None = None

    @property
    def has_state_pair(self) -> bool:
        return self.state_a is not None and self.state_b is not None


def _add_entry(raw: dict[str, tuple[str, str]], entry: str, where: str, replace: bool):
    """Record one ``key = value`` entry in ``raw`` as key -> (value, where).

    The one check of a key and its value for file lines and override tokens
    alike; an override (``replace``) may set a key again, a line may not.
    """
    key, value = (part.strip() for part in entry.split("=", 1))
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key '{key}'")
    if key in raw and not replace:
        raise ConfigError(f"{where}: duplicate key '{key}'")
    if not value:
        raise ConfigError(f"{where}: key '{key}' has no value")
    raw[key] = (value, where)


def _parse_lines(text: str) -> dict[str, tuple[str, str]]:
    """Raw key -> (value, location) mapping of a document's lines."""
    raw: dict[str, tuple[str, str]] = {}
    for idx, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {idx}: expected 'key = value', got {line.strip()!r}")
        _add_entry(raw, stripped, f"line {idx}", replace=False)
    return raw


def _build(raw: dict[str, tuple[str, str]], mode: str) -> RunConfig:
    def take_float(key: str):
        if key not in raw:
            return None
        value, where = raw[key]
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{where}: key '{key}' has malformed number {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where}: key '{key}' must be finite, got {value!r}")
        return number

    state_a = parse_state(raw["state_a"][0]) if "state_a" in raw else None
    state_b = parse_state(raw["state_b"][0]) if "state_b" in raw else None
    if (state_a is None) != (state_b is None):
        raise ConfigError("state_a and state_b must be given together")

    units = raw.get("units", ("atomic", "default"))[0]
    if units not in ("atomic", "si"):
        raise ConfigError(f"{raw['units'][1]}: units must be 'atomic' or 'si', got '{units}'")

    floats = {key: take_float(key) for key in _FLOAT_KEYS}

    initial_keys = [k for k in ("px0", "py0", "pz0") if floats[k] is not None]
    if initial_keys and len(initial_keys) != 3:
        raise ConfigError("px0, py0, pz0 must be given together")
    initial = BlochVector(floats["px0"], floats["py0"], floats["pz0"]) if initial_keys else None

    cfg = RunConfig(
        mode=mode,
        # unset keys keep their defaults; a state pair's run replaces omega21 and the rates
        params=TwoLevelParams(**{"omega21": 0.0, **{k: floats[k] for k in _PARAM_KEYS if k in raw}}),
        state_a=state_a,
        state_b=state_b,
        t_start=floats["t_start"],
        t_end=floats["t_end"],
        step=floats["step"],
        k_max=floats["k_max"],
        output=raw["output"][0] if "output" in raw else None,
        units=units,
        initial=initial,
    )
    _validate(cfg, raw)
    return cfg


def _validate(cfg: RunConfig, raw: dict[str, tuple[str, str]]):
    explicit_rates = any(key in raw for key in _RATE_KEYS)
    if cfg.mode == "coeffs":
        if not cfg.has_state_pair:
            raise ConfigError("coeffs mode requires state_a and state_b")
        if explicit_rates:
            raise ConfigError("coeffs mode takes a state pair, not explicit rates")
    else:
        if cfg.has_state_pair and explicit_rates:
            raise ConfigError("give either a state pair or explicit rates, not both")
        if not cfg.has_state_pair and not explicit_rates:
            raise ConfigError(f"{cfg.mode} mode needs a state pair or explicit rates")
        if explicit_rates and "omega21" not in raw:
            raise ConfigError("explicit-rate configs must set omega21")
        for key in ("t_start", "t_end", "step"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"{cfg.mode} mode requires key '{key}'")
        if cfg.step <= 0:
            raise ConfigError(f"key 'step' must be positive, got {cfg.step}")
        if not cfg.t_end > cfg.t_start:
            raise ConfigError(f"key 't_end' must exceed t_start, got [{cfg.t_start}, {cfg.t_end}]")
        if cfg.mode == "simulate" and cfg.output is None:
            raise ConfigError("simulate mode requires key 'output'")
        if cfg.initial is not None:
            try:
                _ball_start(cfg.initial)    # the run's own rule; the start is kept as written
            except ValueError as exc:
                raise ConfigError(f"initial state (px0, py0, pz0): {exc}") from None
    if cfg.k_max is not None and cfg.k_max < 0:
        raise ConfigError(f"key 'k_max' must be nonnegative, got {cfg.k_max}")


def parse_config_with_overrides(text: str, overrides: list[str], mode: str) -> RunConfig:
    """Parse a document for the run ``mode`` (one of ``MODES``), then apply
    ``key=value`` override tokens and validate the result."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}, got '{mode}'")
    raw = _parse_lines(text)
    for token in overrides:
        if "=" not in token:
            raise ConfigError(f"override '{token}': expected key=value")
        _add_entry(raw, token, f"override '{token}'", replace=True)
    return _build(raw, mode)
