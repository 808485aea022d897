"""Experiment configuration: a flat dataclass with a lossless INI form.

One config drives one experiment kind.  The file format is a single
[kind] section of key = value lines; parsing a dumped config reproduces
the dataclass exactly (floats travel as repr, tuples as comma lists).
"""

from __future__ import annotations

import configparser
import re
import typing
from dataclasses import dataclass, fields

from .errors import ValidationError
from .util import content_lines, parse_file, token

KINDS = (
    "tail",
    "cond-tail",
    "ge-check",
    "minors",
    "frozen",
)


def default_b_exponent(c_exponent: float, k_exponent: float) -> float:
    """Default witness scale exponent: 6 (C + K + 2) + 1."""
    return 6.0 * (float(c_exponent) + float(k_exponent) + 2.0) + 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    sizes: tuple[int, ...] = (50,)
    trials: int = 200
    seed: int = 20260818
    noise: str = "bernoulli"
    matrix: str = "zero"
    b_grid: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    c_exponent: float = 1.0
    mask: str = "none"
    precision: str = "single"
    compare_gaussian: bool = False
    target_exceedance: float = 0.01
    grid_points: int = 10
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown experiment kind {self.kind!r} (choices: {KINDS})")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValidationError("sizes must be positive")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        if self.precision not in ("single", "double"):
            raise ValidationError(f"precision must be single or double, got {self.precision!r}")
        if not self.b_grid or any(not (0.0 < b <= 50.0) for b in self.b_grid):
            raise ValidationError("b_grid entries must lie in (0, 50]")
        if not (0.0 < self.target_exceedance <= 1.0):
            raise ValidationError("target_exceedance must lie in (0, 1]")
        if self.grid_points < 2:
            raise ValidationError("grid_points must be >= 2")
        # the documented range; values outside are almost certainly typos
        if not (0.0 <= self.c_exponent <= 5.0):
            raise ValidationError(f"c_exponent = {self.c_exponent} outside [0.0, 5.0]")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "b_grid", tuple(float(b) for b in self.b_grid))


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [f"[{cfg.kind}]"]
    for f in fields(cfg):
        if f.name == "kind":
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str, kind: str | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        sections = parser.sections()
        if not sections:
            raise ValidationError("config has no [section]")
        if kind is None:
            if len(sections) > 1:
                raise ValidationError(f"config has several sections {sections}; pick a kind")
            kind = sections[0]
        elif kind not in sections:
            raise ValidationError(f"config has no [{kind}] section (found {sections})")
        section = dict(parser[kind])  # interpolates every value
    except configparser.Error as exc:
        raise ValidationError(str(exc)) from None
    unknown = set(section) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    lines = _key_lines(text, kind)
    kwargs: dict = {"kind": kind}
    for f in fields(ExperimentConfig):
        if f.name != "kind" and f.name in section:
            kwargs[f.name] = _parse_field(f.name, section[f.name].strip(), lines.get(f.name))
    return ExperimentConfig(**kwargs)


def _key_lines(text: str, kind: str) -> dict[str, int]:
    """The line of each key that section [kind] reads: its own, else the
    [DEFAULT] one (configparser keeps no line numbers)."""
    out: dict[str, int] = {}
    section = None
    for lineno, (head, *_) in content_lines(text):
        if head.startswith("["):
            section = head[1:].partition("]")[0]
        elif section in (kind, configparser.DEFAULTSECT):
            key = re.split("[=:]", head)[0].lower()
            out[key] = lineno if section == kind else out.get(key, lineno)
    return out


def _parse_field(name: str, raw: str, lineno: int | None):
    """The value of field `name` parsed from raw by its annotated type."""
    kind = _FIELD_TYPES[name]
    if kind in (tuple[int, ...], tuple[float, ...]):
        convert = typing.get_args(kind)[0]
        return tuple(token(lineno, tok, convert) for tok in raw.replace(",", " ").split())
    if kind is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ValidationError(f"line {lineno}: {name} must be true or false, got {raw!r}")
        return low == "true"
    if kind in (int, float):
        return token(lineno, raw, kind)
    return raw


def load_config(path: str, kind: str | None = None) -> ExperimentConfig:
    return parse_file(path, lambda text: config_from_text(text, kind=kind))


def save_config(path: str, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))
