"""Run configuration for the batch driver, and ``report_check``, the
record of one report check that ``cli`` and ``experiments`` both write.

Each experiment verb reads one JSON config file.  Every field has a
default, so an empty object (or no file at all) runs the documented
desk-scale setup; unknown keys are rejected rather than ignored.  Two
flags override the file: the process-level seed flag, and ``demo``'s
``--case``, which replaces the config's ``case``.

This module checks the file as input: JSON syntax, a top-level object,
known keys, each value's type (taken from the field's default), list
shapes and per-field lower bounds, plus strictly increasing ``lambdas``
and the seed rule that ``check_seed`` also applies to the seed flag.
Rules that tie fields together (cutoff ordering, ``mu1 > 2``, ``mus >= 2``,
``delta < T``, the ``modes`` budget, the demo ``case``, positive
``epsilons`` with two distinct logs) belong to the domain objects that
use them, and distinct ``gl(mu=...)`` report labels for ``mus`` to the
experiment runner.  Every such error is a :class:`RunError`, the one
class the driver maps to exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional


class RunError(ValueError):
    """A run refused on its input (flags, config or a domain rule): the
    driver exits 2 and writes no report."""


class ConfigError(RunError):
    """Raised when a config file fails to parse or validate."""


def report_check(case: str, passed, **detail) -> dict:
    """One report check: its case id, its verdict and its detail fields."""
    return {"case": case, "pass": bool(passed), **detail}


def check_seed(seed: Optional[int]) -> None:
    """The seed rule for both sources, a config's ``seed`` and the
    ``--seed`` flag: absent, or an unsigned 64-bit integer."""
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must fit in u64, got {seed}")


def _field(default, lo=None, shape=None, increasing=False):
    """A config field.  Its default fixes the value type; ``lo`` is an
    inclusive lower bound on the value (or on each element); ``shape`` is
    "list" (non-empty) or "pair" (two elements) for a list of numbers,
    which ``increasing`` requires to be strictly increasing."""
    return field(default=default, metadata={
        "lo": lo, "shape": shape, "increasing": increasing})


@dataclass(frozen=True)
class HeatCarlemanConfig:
    """Manufactured-pair test of the parabolic weighted inequality."""

    pairs: int = _field(10, lo=1)
    paths: int = _field(50, lo=2)
    modes: int = _field(6, lo=1)
    Nx: int = _field(60, lo=8)
    Nt: int = _field(400, lo=8)
    T: float = _field(1.0, lo=1e-6)
    mu: float = _field(4.0, lo=1e-6)
    lambdas: tuple = _field((20.0, 40.0, 80.0, 160.0), lo=1e-9, shape="list",
                           increasing=True)
    G0: tuple = _field((0.3, 0.8), shape="pair")
    window: Optional[tuple] = _field(None, shape="pair")
    seed: int = _field(11)


@dataclass(frozen=True)
class GLCarlemanConfig:
    """Forward-solved ensembles against the time-global inequality."""

    ensembles: int = _field(10, lo=1)
    paths: int = _field(20, lo=2)
    Nx: int = _field(50, lo=8)
    Nt: int = _field(300, lo=8)
    T: float = _field(0.3, lo=1e-6)
    mus: tuple = _field((2.0, 3.0, 4.0), shape="list")
    delta: float = _field(0.05)
    seed: int = _field(21)


@dataclass(frozen=True)
class InverseConfig:
    """Interior-from-terminal stability experiment."""

    ensembles: int = _field(20, lo=2)
    paths: int = _field(16, lo=2)
    Nx: int = _field(50, lo=8)
    Nt: int = _field(300, lo=8)
    T: float = _field(0.3, lo=1e-6)
    t1: float = _field(0.06)
    t2: float = _field(0.12)
    t0: float = _field(0.15)
    mu1: float = _field(3.0)
    epsilons: tuple = _field((1e-1, 1e-2, 1e-3, 1e-4), shape="list")
    C_ref: float = _field(10.0, lo=1e-9)
    optimizer_draws: int = _field(100, lo=1)
    seed: int = _field(31)


@dataclass(frozen=True)
class DemoConfig:
    """Warm-up estimates: growth bound and inward-transport inequality."""

    case: str = _field("ode")
    draws: int = _field(10, lo=1)
    seed: int = _field(0)


_SCHEMAS = {
    "carleman-heat": HeatCarlemanConfig,
    "carleman-gl": GLCarlemanConfig,
    "inverse-gl": InverseConfig,
    "demo": DemoConfig,
}


def _scalar(key: str, v, kind: type, lo):
    """Check one JSON scalar against the field type and lower bound."""
    if kind is str:
        if not isinstance(v, str):
            raise ConfigError(f"'{key}' must be a string, got {v!r}")
        return v
    allowed = int if kind is int else (int, float)
    if isinstance(v, bool) or not isinstance(v, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"'{key}' must be {noun}, got {v!r}")
    v = kind(v)
    if not math.isfinite(v):
        raise ConfigError(f"'{key}' must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(f"'{key}' must be >= {lo}, got {v}")
    return v


def _coerce(f, v):
    lo, shape = f.metadata["lo"], f.metadata["shape"]
    if shape is None:
        return _scalar(f.name, v, type(f.default), lo)
    if v is None and f.default is None:
        return None
    if shape == "pair" and not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"'{f.name}' must be a two-element list")
    if shape == "list" and not (isinstance(v, list) and v):
        raise ConfigError(f"'{f.name}' must be a non-empty list of numbers")
    out = tuple(_scalar(f.name, e, float, lo) for e in v)
    if f.metadata["increasing"] and any(a >= b for a, b in zip(out, out[1:])):
        raise ConfigError(f"'{f.name}' must be strictly increasing")
    return out


def load_config(verb: str, path: Optional[str]):
    """Parse and check the config for one experiment verb.

    No path means all defaults.  The file must hold a single JSON object.
    """
    if verb not in _SCHEMAS:
        raise ConfigError(f"verb '{verb}' does not take a config file")
    data = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    cls = _SCHEMAS[verb]
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    try:
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown key '{key}' "
                                  f"(allowed: {', '.join(sorted(known))})")
            kwargs[key] = _coerce(known[key], value)
        check_seed(kwargs.get("seed"))
    except ConfigError as exc:
        raise ConfigError(f"{verb} config: {exc}") from None
    return cls(**kwargs)
