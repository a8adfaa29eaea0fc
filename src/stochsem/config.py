"""Experiment configuration: strict INI-style files with sections per module.

One table, SCHEMA, holds every key's row: its type, its default and its
check (allowed values, or range and order rules).  Unknown sections or keys
are rejected so a run manifest always reflects exactly what executed.  The
allowed values of the scheme options and of the nonlinearity are the ones
the modules that enforce them declare.  Fractions like 1/64 are accepted
wherever a float is (handy for dyadic step sizes).  The resolved
configuration (defaults filled in) serializes back to the same format and
re-parses to an identical configuration.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import NONLINEARITIES
from .timestepper import NOISE_CONVENTIONS, NONLINEARITY_TIMES


class ConfigError(Exception):
    """Invalid configuration file or value."""


def _parse_float(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(item):
    """Parser of comma-separated item values; empty entries are skipped."""
    return lambda text: [item(s) for s in (p.strip() for p in text.split(",")) if s]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


_PARSERS = {
    "float": _parse_float,
    "int": lambda s: int(s.strip()),
    "bool": _parse_bool,
    "str": lambda s: s.strip(),
    "float_list": _parse_list(_parse_float),
    "int_list": _parse_list(int),
}

# (predicate, what it requires) lists shared by several keys
_GE1 = [(lambda v: v >= 1, ">= 1")]
_GE2 = [(lambda v: v >= 2, ">= 2")]
_POSITIVE = [(lambda v: math.isfinite(v) and v > 0, "finite and > 0")]
_NON_NEGATIVE = [(lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")]
# study lists are also strictly ordered: a repeated order would run a study
# twice (and overwrite a table1 CSV), a repeated tau would give a table1
# order of 0
_ORDERS = [(lambda v: v and min(v) >= 2, "non-empty with every entry >= 2"),
           (lambda v: all(a < b for a, b in zip(v, v[1:])), "strictly ascending")]
_TAUS = [(lambda v: v and all(math.isfinite(t) and t > 0 for t in v),
          "non-empty with every entry finite and > 0"),
         (lambda v: all(a > b for a, b in zip(v, v[1:])), "strictly descending")]

# (section, key) -> (type, default, check); the check is None, a tuple of
# the allowed values, or a list of (predicate, what it requires) pairs that
# the value must pass in turn
SCHEMA = {
    ("problem", "kind"): ("str", None, ("test1", "test2_smooth", "test2_delta", "custom")),
    ("problem", "prefactor"): ("float", 1.0, None),
    ("problem", "wp"): ("float", None, None),          # optional override; None keeps the problem default
    ("problem", "delta_center_x"): ("float", 0.5, None),
    ("problem", "delta_center_y"): ("float", 0.5, None),
    ("problem", "delta_width"): ("float", 0.05, _POSITIVE),
    ("problem", "xi"): ("float", 1.0, None),            # custom kind only
    ("problem", "zeta"): ("float", 1e-3, None),
    ("problem", "r"): ("float", 0.0, None),
    ("problem", "nonlinearity"): ("str", "saturating_sum", NONLINEARITIES),
    ("problem", "kappa1"): ("float", 1.0, _POSITIVE),
    ("problem", "kappa2"): ("float", 1.0, _POSITIVE),
    ("problem", "init"): ("str", "smooth", ("smooth", "zero")),
    ("mesh", "nex"): ("int", 2, _GE1),
    ("mesh", "ney"): ("int", 2, _GE1),
    ("mesh", "order"): ("int", 10, _GE2),
    ("time", "tau"): ("float", 1.0 / 64.0, _POSITIVE),
    ("time", "t_final"): ("float", 1.0, _NON_NEGATIVE),
    ("time", "snapshot_times"): ("float_list", [],
                                 [(lambda v: all(map(math.isfinite, v)), "all finite")]),
    ("noise", "sigma"): ("float", 0.0, _NON_NEGATIVE),
    ("noise", "decay_exponent"): ("float", 2.0, _NON_NEGATIVE),
    ("noise", "truncation"): ("int", 8, _GE1),
    ("noise", "seed"): ("int", 0, [(lambda v: 0 <= v < 2**64, ">= 0 and < 2**64")]),
    ("noise", "sign_convention"): ("str", "paper", NOISE_CONVENTIONS),
    ("noise", "shared_paths"): ("bool", True, None),
    ("montecarlo", "samples"): ("int", 200, _GE1),
    ("montecarlo", "workers"): ("int", 1, _GE1),
    ("montecarlo", "chunk_size"): ("int", 32, _GE1),
    ("scheme", "nonlinearity_time"): ("str", "extrapolated", NONLINEARITY_TIMES),
    ("output", "directory"): ("str", "out", None),
    ("output", "grid_n"): ("int", 101, _GE2),
    ("reference", "order"): ("int", 20, _GE2),
    ("reference", "common_random_numbers"): ("bool", True, None),
    ("table1", "tau_list"): ("float_list", [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512], _TAUS),
    ("table1", "n_list"): ("int_list", [10, 20], _ORDERS),
    ("spatial", "n_list"): ("int_list", [6, 8, 10, 12], _ORDERS),
    ("spatial", "tau"): ("float", 1e-3, (1e-3, 1e-4)),
    ("evolve", "times"): ("float_list", [0.0, 0.05, 0.1],
                          [(lambda v: v and all(map(math.isfinite, v)),
                            "all finite and non-empty")]),
    ("evolve", "grid_n"): ("int", 121, _GE2),
}

_REQUIRED = (("problem", "kind"),)


@dataclass
class RunConfig:
    """Fully resolved configuration: values[(section, key)] for every key."""

    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def set(self, section: str, key: str, value) -> None:
        """Set one key, checked as a parsed value is (its SCHEMA check)."""
        if (section, key) not in SCHEMA:
            raise ConfigError(f"unknown configuration key [{section}] {key}")
        self.values[(section, key)] = _validate(section, key, value)

    def as_sections(self) -> dict:
        out: dict = {}
        for (section, key), value in sorted(self.values.items()):
            out.setdefault(section, {})[key] = value
        return out

    def to_ini(self) -> str:
        lines = []
        for section, entries in self.as_sections().items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                if value is None:
                    continue
                lines.append(f"{key} = {_fmt(value)}")
            lines.append("")
        return "\n".join(lines)


def _validate(section: str, key: str, value):
    """value, if it passes its key's check: one of the allowed values, or
    every (predicate, what) pair in turn (the first failing one is named)."""
    check = SCHEMA[(section, key)][2]
    if isinstance(check, tuple):
        if value not in check:
            raise ConfigError(
                f"[{section}] {key} = {value!r} not in allowed values {check}")
        return value
    for ok, what in check or ():
        if not ok(value):
            raise ConfigError(f"[{section}] {key} = {value!r} must be {what}")
    return value


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    """Parse and validate configuration text; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {origin}: {exc}") from exc

    known_sections = {s for s, _ in SCHEMA}
    cfg = RunConfig({sk: default for sk, (_k, default, _c) in SCHEMA.items()})
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}] in {origin}")
        for key, raw in parser.items(section):
            if (section, key) not in SCHEMA:
                raise ConfigError(f"unknown key [{section}] {key} in {origin}")
            kind = SCHEMA[(section, key)][0]
            try:
                value = _PARSERS[kind](raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} in {origin}: {raw!r} ({exc})"
                ) from exc
            cfg.values[(section, key)] = value

    for section, key in _REQUIRED:
        if cfg.get(section, key) is None:
            raise ConfigError(f"missing required key [{section}] {key} in {origin}")
    for (section, key), value in cfg.values.items():
        _validate(section, key, value)
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(), origin=str(path))
