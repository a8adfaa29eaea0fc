"""Experiment configuration: strict INI-style files with sections per module.

Every key is typed and defaulted; unknown sections or keys are rejected so a
run manifest always reflects exactly what executed.  Fractions like 1/64 are
accepted wherever a float is (handy for dyadic step sizes).  The resolved
configuration (defaults filled in) serializes back to the same format and
re-parses to an identical configuration.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path


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


def _parse_float_list(text: str) -> list:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    return [_parse_float(s) for s in items]


def _parse_int_list(text: str) -> list:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    return [int(s) for s in items]


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
    "float_list": _parse_float_list,
    "int_list": _parse_int_list,
}

# (section, key) -> (type, default, allowed-values or None)
SCHEMA = {
    ("problem", "kind"): ("str", None, ("test1", "test2_smooth", "test2_delta", "custom")),
    ("problem", "prefactor"): ("float", 1.0, None),
    ("problem", "wp"): ("float", None, None),          # optional override; None keeps the problem default
    ("problem", "delta_center_x"): ("float", 0.5, None),
    ("problem", "delta_center_y"): ("float", 0.5, None),
    ("problem", "delta_width"): ("float", 0.05, None),
    ("problem", "xi"): ("float", 1.0, None),            # custom kind only
    ("problem", "zeta"): ("float", 1e-3, None),
    ("problem", "r"): ("float", 0.0, None),
    ("problem", "nonlinearity"): ("str", "saturating_sum", ("saturating_sum", "test1_product")),
    ("problem", "kappa1"): ("float", 1.0, None),
    ("problem", "kappa2"): ("float", 1.0, None),
    ("problem", "init"): ("str", "smooth", ("smooth", "zero")),
    ("mesh", "nex"): ("int", 2, None),
    ("mesh", "ney"): ("int", 2, None),
    ("mesh", "order"): ("int", 10, None),
    ("time", "tau"): ("float", 1.0 / 64.0, None),
    ("time", "t_final"): ("float", 1.0, None),
    ("time", "snapshot_times"): ("float_list", [], None),
    ("noise", "sigma"): ("float", 0.0, None),
    ("noise", "decay_exponent"): ("float", 2.0, None),
    ("noise", "truncation"): ("int", 8, None),
    ("noise", "seed"): ("int", 0, None),
    ("noise", "sign_convention"): ("str", "paper", ("paper", "increment")),
    ("noise", "shared_paths"): ("bool", True, None),
    ("montecarlo", "samples"): ("int", 200, None),
    ("montecarlo", "workers"): ("int", 1, None),
    ("montecarlo", "chunk_size"): ("int", 32, None),
    ("scheme", "nonlinearity_time"): ("str", "extrapolated", ("extrapolated", "lagged")),
    ("output", "directory"): ("str", "out", None),
    ("output", "grid_n"): ("int", 101, None),
    ("reference", "order"): ("int", 20, None),
    ("reference", "common_random_numbers"): ("bool", True, None),
    ("table1", "tau_list"): ("float_list",
                             [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512], None),
    ("table1", "n_list"): ("int_list", [10, 20], None),
    ("spatial", "n_list"): ("int_list", [6, 8, 10, 12], None),
    ("spatial", "tau"): ("float", 1e-3, (1e-3, 1e-4)),
    ("evolve", "times"): ("float_list", [0.0, 0.05, 0.1], None),
    ("evolve", "grid_n"): ("int", 121, None),
}

_REQUIRED = (("problem", "kind"),)


@dataclass
class RunConfig:
    """Fully resolved configuration: values[(section, key)] for every key."""

    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def set(self, section: str, key: str, value) -> None:
        """Set one key, checked as a parsed value is (allowed values, range)."""
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


# (section, key) -> (check, what it requires); a key not listed is unchecked
_RANGES = {
    ("mesh", "nex"): (lambda v: v >= 1, ">= 1"),
    ("mesh", "ney"): (lambda v: v >= 1, ">= 1"),
    ("mesh", "order"): (lambda v: v >= 2, ">= 2"),
    ("time", "tau"): (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("time", "t_final"): (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    ("time", "snapshot_times"): (lambda v: all(map(math.isfinite, v)), "all finite"),
    ("noise", "sigma"): (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    ("noise", "truncation"): (lambda v: v >= 1, ">= 1"),
    ("noise", "decay_exponent"): (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    ("noise", "seed"): (lambda v: 0 <= v < 2**64, ">= 0 and < 2**64"),
    ("montecarlo", "samples"): (lambda v: v >= 1, ">= 1"),
    ("montecarlo", "workers"): (lambda v: v >= 1, ">= 1"),
    ("montecarlo", "chunk_size"): (lambda v: v >= 1, ">= 1"),
    ("output", "grid_n"): (lambda v: v >= 2, ">= 2"),
    ("reference", "order"): (lambda v: v >= 2, ">= 2"),
    ("problem", "delta_width"): (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("problem", "kappa1"): (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("problem", "kappa2"): (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("table1", "tau_list"): (lambda v: v and all(math.isfinite(t) and t > 0 for t in v),
                             "non-empty with every entry finite and > 0"),
    ("table1", "n_list"): (lambda v: v and min(v) >= 2, "non-empty with every entry >= 2"),
    ("spatial", "n_list"): (lambda v: v and min(v) >= 2, "non-empty with every entry >= 2"),
    ("evolve", "times"): (lambda v: v and all(map(math.isfinite, v)), "all finite and non-empty"),
    ("evolve", "grid_n"): (lambda v: v >= 2, ">= 2"),
}
# keys whose list must also be strictly ordered (checked after _RANGES): a
# repeated order would run a study twice (and overwrite a table1 CSV), a
# repeated tau would give a table1 order of 0
_ORDERED = {("spatial", "n_list"): "ascending", ("table1", "n_list"): "ascending",
            ("table1", "tau_list"): "descending"}


def _validate(section: str, key: str, value):
    """value, if it is one of the key's allowed values and in its range."""
    kind, _default, allowed = SCHEMA[(section, key)]
    if allowed is not None and value not in allowed:
        raise ConfigError(
            f"[{section}] {key} = {value!r} not in allowed values {allowed}")
    ok, what = _RANGES.get((section, key), (None, None))
    if ok is not None and not ok(value):
        raise ConfigError(f"[{section}] {key} = {value!r} must be {what}")
    order = _ORDERED.get((section, key))
    if order and any(a >= b if order == "ascending" else a <= b
                     for a, b in zip(value, value[1:])):
        raise ConfigError(f"[{section}] {key} = {value!r} must be strictly {order}")
    return value


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    """Parse and validate configuration text; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {origin}: {exc}") from exc

    known_sections = {s for s, _ in SCHEMA}
    cfg = RunConfig({sk: default for sk, (_k, default, _a) in SCHEMA.items()})
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}] in {origin}")
        for key, raw in parser.items(section):
            if (section, key) not in SCHEMA:
                raise ConfigError(f"unknown key [{section}] {key} in {origin}")
            kind, _default, _allowed = SCHEMA[(section, key)]
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
