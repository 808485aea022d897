"""Small shared helpers: confidence intervals, seed derivation, the one
reader behind every line-based text format, and the one grammar of
'head[:arg]' spec strings."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")

# two-sided 99% normal quantile
Z_99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def finite(name: str, value) -> float:
    """value as a float; ValidationError naming it if NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} = {value} is not finite")
    return value


def power(name: str, base, exponent) -> float:
    """float(base) ** exponent; ValidationError naming the exponent if it is
    NaN or infinite or the power overflows."""
    try:
        return float(base) ** finite(name, exponent)
    except OverflowError:
        raise ValidationError(f"{name} = {exponent} overflows {base}^({name})") from None


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from a master seed and a label path.

    Uses a keyed hash rather than Python's hash() so the stream is
    identical across processes, platforms, and worker counts.
    """
    import hashlib  # here, not at the top: it loads OpenSSL (about 3.5 MB resident)

    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")


# ---------------------------------------------------------------------------
# the line-based text formats: '#' starts a comment, blank lines are skipped,
# and a missing file or a malformed token is a ValidationError


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path!r}: {reason}") from None


def parse_file(path: str, parse: Callable[[str], T]) -> T:
    """parse(text of the file at path); an error in the text names the path."""
    text = read_text(path)
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number from 1, tokens) of every line with tokens before its '#'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := raw.split("#", 1)[0].split():
            yield lineno, tokens


def token(at: int | str, tok: str, convert: Callable[[str], T] = int) -> T:
    """tok converted by int, float, rational.as_fraction (exact rationals) or
    str; a token it rejects is a ValidationError naming `at`, its line
    number or the spec string it came from."""
    try:
        return convert(tok)
    except (ValueError, ZeroDivisionError, ValidationError):
        kind = {int: "an integer", float: "a number"}.get(convert, "a rational")
        where = f"line {at}" if isinstance(at, int) else at
        raise ValidationError(f"{where}: expected {kind}, got {tok!r}") from None


def keyed_lines(
    lines: Iterable[tuple[int, list[str]]], known: Sequence[str]
) -> dict[str, tuple[int, list[str]]]:
    """(line number, values) of 'key values...' lines by key, keys matched to
    `known` ignoring case; an unknown or repeated key is a ValidationError."""
    names = {k.lower(): k for k in known}
    out: dict[str, tuple[int, list[str]]] = {}
    for lineno, (head, *values) in lines:
        key = names.get(head.lower())
        if key is None or key in out:
            why = "repeated" if key else f"unknown (known: {', '.join(known)})"
            raise ValidationError(f"line {lineno}: key {head!r} {why}")
        out[key] = (lineno, values)
    return out


# ---------------------------------------------------------------------------
# spec strings: 'head' or 'head:arg' names a noise law, base matrix or mask


def parse_spec(
    spec: str, what: str, heads: Mapping[str, tuple[Callable[[str], object], object] | None]
) -> tuple[str, object]:
    """(head, argument) of spec, the head matched to `heads` ignoring case.

    heads maps a head to None if it takes no argument, else to (convert,
    default): the argument is token(spec, arg, convert), or the default when
    there is no colon (a default of None makes it required).  Any other
    form is a ValidationError naming the spec."""
    head, colon, arg = spec.strip().partition(":")
    head = head.strip().lower()
    label = f"{what} spec {spec!r}"
    if head not in heads:
        raise ValidationError(f"unknown {label} (known: {', '.join(heads)})")
    takes = heads[head]
    if takes is None:
        if colon:
            raise ValidationError(f"{label}: {head} takes no argument")
        return head, None
    convert, default = takes
    if not colon and default is not None:
        return head, default
    if not arg.strip():
        raise ValidationError(f"{label}: {head} needs an argument after ':'")
    return head, token(label, arg, convert)
