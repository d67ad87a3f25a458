"""Solver/config-file handling: flat `key = value` lines, `#` comments.

Recognized solver keys mirror SolverOptions: feas_tol, kkt_tol, comp_tol,
max_iter, voll_rate, eps_pg, eps_loss. Any other key is ignored with a
warning on stderr naming the file and line. Precedence is CLI flag over
config file over built-in default.
"""

from __future__ import annotations

import sys
from dataclasses import fields

from .acopf import SolverOptions
from .model import GridcapError


class ConfigError(GridcapError):
    pass


_INT_KEYS = {"max_iter"}
_SOLVER_KEYS = {f.name for f in fields(SolverOptions)}


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a dict of floats/ints. Unknown keys
    are kept but warned about on stderr as `source, line N`."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {line!r}")
        try:
            out[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            raise ConfigError(f"{source}, line {lineno}: value for {key} is not numeric: {value!r}")
        if key not in _SOLVER_KEYS:
            print(
                f"warning: {source}, line {lineno}: unknown config key {key!r} ignored",
                file=sys.stderr,
            )
    return out


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def solver_options_from(config: dict, overrides: dict = None) -> SolverOptions:
    """Build SolverOptions from config values plus explicit overrides."""
    merged = {}
    for key, value in (config or {}).items():
        if key in _SOLVER_KEYS:
            merged[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown solver option {key!r}")
        merged[key] = value
    return SolverOptions(**merged)
