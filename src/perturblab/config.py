"""Experiment configuration: a flat dataclass with a lossless text form.

One config drives one experiment kind.  A config file has [kind] header
lines and key = value lines, split at the first '=', under the rule of
every input format ('#' starts a comment, blank lines are skipped, a bad
line is refused by its number).  Parsing a dumped config reproduces the
dataclass exactly (floats travel as repr, tuples as comma lists).
"""

from __future__ import annotations

import operator
import typing
from dataclasses import dataclass, fields

from .errors import ValidationError
from .util import content_lines, keyed_lines, parse_file, token

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


@dataclass(frozen=True, slots=True)
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
        for name in ("sizes", "trials", "seed", "threads", "grid_points"):  # Python or numpy ints
            value = getattr(self, name)
            try:
                whole = tuple(map(operator.index, value)) if name == "sizes" else operator.index(value)
            except TypeError:
                raise ValidationError(f"{name} takes integers only, got {value!r}") from None
            object.__setattr__(self, name, whole)
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
        value = getattr(cfg, f.name)
        if f.name == "kind" or value is None:
            continue
        # the reader drops comments and collapses whitespace
        if isinstance(value, str) and ("#" in value or value != " ".join(value.split())):
            raise ValidationError(
                f"{f.name} = {value!r} would not read back: no '#', line break, or"
                " leading, trailing or repeated whitespace"
            )
        lines.append(f"{f.name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str, kind: str | None = None) -> ExperimentConfig:
    """The config of section [kind], or of the only section when kind is None."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    section = None
    for lineno, tokens in content_lines(text):
        line = " ".join(tokens)
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in KINDS or name in sections:
                why = "repeated" if name in sections else f"unknown (known: {', '.join(KINDS)})"
                raise ValidationError(f"line {lineno}: section [{name}] {why}")
            section = sections[name] = []
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValidationError(f"line {lineno}: expected [kind] or key = value, got {line!r}")
        if section is None:
            raise ValidationError(f"line {lineno}: key {key.strip()!r} before any [kind] header")
        section.append((lineno, [key.strip(), value.strip()]))
    if kind is None:
        if len(sections) != 1:
            raise ValidationError(f"config needs exactly one [kind] section, found {list(sections)}")
        (kind,) = sections
    elif kind not in sections:
        raise ValidationError(f"config has no [{kind}] section (found {list(sections)})")
    keyed = keyed_lines(sections[kind], [name for name in _FIELD_TYPES if name != "kind"])
    return ExperimentConfig(
        kind=kind, **{name: _parse_field(name, raw, lineno) for name, (lineno, (raw,)) in keyed.items()}
    )


def _parse_field(name: str, raw: str, lineno: int):
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
    text = config_to_text(cfg)  # a config that would not read back writes no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
