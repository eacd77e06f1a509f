"""Experiment configuration files: strict, block-structured, hashable.

One text file holds every knob, grouped into [environment], [metric],
[udpo], [replay], [analysis], and [output] sections. The key tables, the
parser's routing and the canonical text are all derived from the fields of
the runtime dataclasses, and each value is parsed by the type of its default,
so every knob is declared once, in its dataclass. Only the section layout and
the one renamed key ([output] directory for output_dir) are written out
here. Unknown sections or keys are rejected with their path so typos in sweep
automation fail fast. A canonical serialization backs a short stable hash
that artifact headers embed.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

from madlab.calibration import CalibrationConfig
from madlab.debate import undecodable_line
from madlab.metrics import MetricConfig
from madlab.optim import ClipConfig
from madlab.policy import EnvConfig
from madlab.replay import ReplayConfig
from madlab.stats import check_strata_boundaries


class ConfigError(Exception):
    """Invalid experiment configuration: bad section, key, type, or value."""


DEFAULT_K_GRID = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
DEFAULT_STRATA_BINS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run needs, short of the output paths on the CLI."""

    env: EnvConfig = field(default_factory=EnvConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)
    clip: ClipConfig = field(default_factory=ClipConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    train_questions: int = 500
    eval_questions: int = 200
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    strata_bins: tuple[float, ...] = DEFAULT_STRATA_BINS
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.train_questions < 2:
            raise ValueError("train_questions must be at least 2")
        if self.eval_questions < 1:
            raise ValueError("eval_questions must be at least 1")
        if not self.k_grid:
            raise ValueError("k_grid must be non-empty")
        for k in self.k_grid:
            if not 0.0 < k <= 100.0:
                raise ValueError(f"k_grid entries must be in (0, 100], got {k}")
        try:
            check_strata_boundaries(self.strata_bins)
        except ValueError as exc:
            raise ValueError(f"strata_bins: {exc}")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value.strip()!r}")
    return number


def _parse_float_list(value: str) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


_PARSERS: dict[type, Callable[[str], object]] = {
    bool: _parse_bool,
    int: int,
    float: _parse_float,
    str: str,
    tuple: _parse_float_list,
}

# Section -> the ExperimentConfig fields it holds. A nested config dataclass
# contributes one key per field of its own; a plain field is one key.
_LAYOUT = {
    "environment": ("env", "train_questions", "eval_questions"),
    "metric": ("metric",),
    "udpo": ("clip", "calibration"),
    "replay": ("replay",),
    "analysis": ("k_grid", "strata_bins"),
    "output": ("output_dir",),
}
_KEY_NAMES = {"output_dir": "directory"}
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

# A knob is (owner, name, parser): owner is the ExperimentConfig field of the
# nested config holding attribute name, or None when name is a plain field.
_Knob = tuple[str | None, str, Callable[[str], object]]


def _knob_tables() -> dict[str, dict[str, _Knob]]:
    tables: dict[str, dict[str, _Knob]] = {}
    for section, members in _LAYOUT.items():
        table = tables[section] = {}
        for member in members:
            factory = _FIELDS[member].default_factory
            if dataclasses.is_dataclass(factory):
                for f in dataclasses.fields(factory):
                    table[f.name] = (member, f.name, _PARSERS[type(f.default)])
            else:
                default = _FIELDS[member].default
                table[_KEY_NAMES.get(member, member)] = (None, member, _PARSERS[type(default)])
    return tables


_SECTIONS = _knob_tables()


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config file's text; omitted keys keep their defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    plain: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; known sections: {sorted(_SECTIONS)}"
            )
        table = _SECTIONS[section]
        for key, value in parser.items(section):
            if key not in table:
                raise ConfigError(
                    f"[{section}] unknown key {key!r}; known keys: {sorted(table)}"
                )
            owner, name, parse = table[key]
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}")
            (plain if owner is None else nested.setdefault(owner, {}))[name] = parsed
    built: dict[str, object] = {}
    for section, members in _LAYOUT.items():
        for member in members:
            if member in nested:
                try:
                    built[member] = _FIELDS[member].default_factory(**nested[member])
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {exc}")
    try:
        return ExperimentConfig(**built, **plain)
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file; I/O problems surface as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path!r}: {undecodable_line(path)}") from None
    return parse_config(text)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_text(config: ExperimentConfig) -> str:
    """Deterministic full rendering of every knob; input to the config hash."""
    lines = []
    for section, table in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key, (owner, name, _) in table.items():
            holder = config if owner is None else getattr(config, owner)
            lines.append(f"{key} = {_fmt(getattr(holder, name))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: ExperimentConfig) -> str:
    """16-hex-character digest of the canonical text."""
    digest = hashlib.blake2b(canonical_text(config).encode("utf-8"), digest_size=8)
    return digest.hexdigest()
