"""Integer-valued noise distributions and cosine-envelope certificates.

A noise law here is a finite probability distribution on the integers.
Probabilities are kept as exact `fractions.Fraction` values throughout:
laws built from user data are exact by construction, and the discretized
Gaussian is built from 40-digit binary approximations (so ~133 bits, well
past 80-bit precision) whose residual is folded into the atom at 0 so the
total mass is exactly 1.  Exact probabilities feed the exact small-ball
convolution downstream.

The certificate machinery bounds the characteristic-function magnitude
|phi(t)| = |E exp(2 pi i xi t)| by the cosine envelope
(1 - mu) + mu * cos(2 pi k t) for an integer frequency k.  Certificates
are produced constructively for symmetric laws and checked numerically on
a dense grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .rational import as_fraction, whole_numbers
from .util import content_lines, parse_file, parse_spec, token

_INT64_MAX = 2**63 - 1

# Grid verification tolerance.  Both |phi| and the envelope are smooth
# (Lipschitz constant <= 2*pi*max frequency), so a grid 4x denser than the
# highest frequency cannot hide a sign-changing violation; 1e-12 absorbs
# float rounding in the trigonometric sums.
GRID_TOLERANCE = 1e-12
DEFAULT_GRID = 4096


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath binary float (denominator a power of two)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


@dataclass(frozen=True, slots=True)
class DiscreteDistribution:
    """Finite integer-supported law with exact rational probabilities.

    ``atoms`` is sorted by value, holds no zero-probability entries, and
    sums to exactly 1.
    """

    name: str
    atoms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        cleaned = []
        total = Fraction(0)
        seen = set()
        try:
            values = whole_numbers([value for value, _ in self.atoms])
        except OverflowError:  # an infinity
            values = [math.inf]
        for value, (_, prob) in zip(values, self.atoms):
            if abs(value) > _INT64_MAX:
                raise ValidationError(f"support value {value} overflows 64-bit range")
            prob = as_fraction(prob)
            if prob < 0:
                raise ValidationError(f"negative probability {prob} at value {value}")
            if value in seen:
                raise ValidationError(f"duplicate support value {value}")
            seen.add(value)
            total += prob
            if prob > 0:
                cleaned.append((value, prob))
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, expected exactly 1")
        if not cleaned:
            raise ValidationError("distribution has empty support")
        cleaned.sort()
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.atoms)

    @property
    def max_abs_value(self) -> int:
        return max(abs(v) for v in self.values)

    def probability_of(self, value: int) -> Fraction:
        for v, p in self.atoms:
            if v == value:
                return p
        return Fraction(0)

    @property
    def is_symmetric(self) -> bool:
        return all(self.probability_of(-v) == p for v, p in self.atoms)

    def __str__(self):
        return self.name


def char_magnitude(dist: DiscreteDistribution, t: float | np.ndarray) -> float | np.ndarray:
    """|E exp(2 pi i xi t)| at real t, a point or an array of points."""
    t = np.asarray(t, dtype=float)
    re = np.zeros_like(t)
    im = np.zeros_like(t)
    for value, prob in dist.atoms:
        angle = 2.0 * math.pi * value * t
        p = float(prob)
        re += p * np.cos(angle)
        im += p * np.sin(angle)
    return np.hypot(re, im)


@dataclass(frozen=True, slots=True)
class BoundednessCertificate:
    """Claim: |phi(t)| <= (1 - mu) + mu * cos(2 pi k t) for all real t.

    ``d_bound`` is the declared cap on the frequency (1 <= k <= d_bound);
    no minimality of k is claimed.
    """

    mu: Fraction
    k: int
    d_bound: int

    def __post_init__(self):
        object.__setattr__(self, "mu", as_fraction(self.mu))
        if not (0 < self.mu <= Fraction(1, 2)):
            raise ValidationError(f"mu = {self.mu} outside (0, 1/2]")
        if not (1 <= self.k <= self.d_bound):
            raise ValidationError(f"frequency k = {self.k} outside 1..{self.d_bound}")


def mu_float(mu) -> float:
    """mu as a float via rational.as_fraction, checked to lie in (0, 1/2] like a certificate's."""
    mu_f = float(as_fraction(mu))
    if not (0.0 < mu_f <= 0.5):
        raise ValidationError(f"mu = {mu_f} outside (0, 1/2]")
    return mu_f


@dataclass(frozen=True, slots=True)
class CertificateCheck:
    ok: bool
    worst_margin: float
    grid_size: int


def verify_certificate(
    dist: DiscreteDistribution,
    cert: BoundednessCertificate,
    grid_size: int | None = None,
) -> CertificateCheck:
    """Check the envelope claim on an equispaced grid over [0, 1).

    The grid must be at least 4x the highest frequency present (the
    envelope's k and the law's largest support value); both sides then
    vary too slowly between grid points to cross undetected.
    """
    min_grid = 4 * (cert.k + dist.max_abs_value)
    if grid_size is None:
        grid_size = max(DEFAULT_GRID, min_grid)
    if grid_size < min_grid:
        raise ValidationError(
            f"grid_size {grid_size} below Nyquist-style minimum {min_grid}"
        )
    mu = float(cert.mu)
    t = np.arange(grid_size) / grid_size
    envelope = (1.0 - mu) + mu * np.cos(2.0 * math.pi * cert.k * t)
    worst = float(np.min(envelope - char_magnitude(dist, t)))
    return CertificateCheck(ok=worst >= -GRID_TOLERANCE, worst_margin=worst, grid_size=grid_size)


@functools.lru_cache(maxsize=None)
def certificate_from_symmetric(dist: DiscreteDistribution) -> BoundednessCertificate:
    """Constructive certificate for a symmetric law with a positive atom,
    derived and grid-checked once per law.

    If the law is symmetric and puts mass eps on some positive integer s,
    then |phi(t)| <= (1 - 2 eps) + 2 eps |cos(2 pi s t)|, and
    |cos x| <= 3/4 + cos(2x)/4 turns that into the envelope with
    mu = eps/2 and frequency k = 2s.  The atom maximizing eps is chosen,
    ties broken toward the smallest s.
    """
    if not dist.is_symmetric:
        raise ValidationError(f"{dist.name}: not symmetric, no constructive certificate")
    best: tuple[Fraction, int] | None = None
    for value, prob in dist.atoms:
        if value > 0 and (best is None or prob > best[0] or (prob == best[0] and value < best[1])):
            best = (prob, value)
    if best is None:
        raise ValidationError(f"{dist.name}: no mass on positive integers, no certificate")
    eps, s = best
    cert = BoundednessCertificate(mu=eps / 2, k=2 * s, d_bound=2 * s)
    check = verify_certificate(dist, cert)
    if not check.ok:
        # Mathematically impossible for a symmetric law; a failure here
        # means the construction itself is broken.
        raise AssertionError(
            f"constructive certificate failed its own check (margin {check.worst_margin})"
        )
    return cert


def symmetric_chain_margins(
    dist: DiscreteDistribution, s: int, grid_size: int = DEFAULT_GRID
) -> tuple[float, float]:
    """Worst-case slack of the two inequalities behind the construction.

    Step 1: |phi(t)| <= (1 - 2 eps) + |2 eps cos(2 pi s t)|
    Step 2: that bound    <= (1 - eps/2) + (eps/2) cos(4 pi s t)

    Returns (min slack of step 1, min slack of step 2) over the grid.
    Both must be >= -GRID_TOLERANCE for the chain to hold pointwise.
    """
    if not dist.is_symmetric:
        raise ValidationError("chain check requires a symmetric law")
    eps = float(dist.probability_of(s))
    if eps <= 0:
        raise ValidationError(f"no mass at s = {s}")
    t = np.arange(grid_size) / grid_size
    mid = (1.0 - 2.0 * eps) + np.abs(2.0 * eps * np.cos(2.0 * math.pi * s * t))
    top = (1.0 - eps / 2.0) + (eps / 2.0) * np.cos(4.0 * math.pi * s * t)
    return float(np.min(mid - char_magnitude(dist, t))), float(np.min(top - mid))


# ---------------------------------------------------------------------------
# standard laws


def bernoulli() -> DiscreteDistribution:
    """Fair signs: +-1 with probability 1/2 each."""
    h = Fraction(1, 2)
    return DiscreteDistribution("bernoulli", ((-1, h), (1, h)))


def lazy_coin(alpha) -> DiscreteDistribution:
    """+-1 with probability alpha/2 each, 0 otherwise; alpha in (0, 1]."""
    alpha = as_fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValidationError(f"lazy coin alpha = {alpha} outside (0, 1]")
    half = alpha / 2
    atoms = [(-1, half), (0, 1 - alpha), (1, half)]
    return DiscreteDistribution(f"lazy_coin({alpha})", tuple(atoms))


def discretized_gaussian(truncation_radius: int = 8) -> DiscreteDistribution:
    """Standard normal rounded to the nearest integer, truncated at the radius.

    P(xi = m) = P(m - 1/2 <= Xi <= m + 1/2) for |m| < radius; the two tail
    masses beyond the radius are folded into the extreme atoms, and the atom
    at 0 absorbs the exact complement so the law sums to exactly 1.
    """
    radius = int(truncation_radius)
    if radius < 6:
        raise ValidationError(f"truncation radius {radius} < 6 standard deviations")
    import mpmath  # about 35 ms to import, and only this law needs it
    # a private context: the global mpmath.mp precision is shared by every thread
    ctx = mpmath.MPContext()
    ctx.dps = 40
    half = ctx.mpf(1) / 2
    side: list[tuple[int, Fraction]] = []
    for m in range(1, radius):
        p = ctx.ncdf(m + half) - ctx.ncdf(m - half)
        side.append((m, _mpf_to_fraction(p)))
    tail = half * ctx.erfc((radius - half) / ctx.sqrt(2))
    side.append((radius, _mpf_to_fraction(tail)))
    center = 1 - 2 * sum(p for _, p in side)
    atoms = [(-m, p) for m, p in side] + [(0, center)] + side
    return DiscreteDistribution(f"discretized_gaussian({radius})", tuple(atoms))


# the law spec heads: None takes no argument, else (convert, default); an
# experiment's --noise also takes gaussian, the one law that is not discrete
_LAW_ARGS = {"bernoulli": None, "lazy_coin": (as_fraction, Fraction(1, 2)),
             "discretized_gaussian": (int, 8), "file": (str, None)}
NOISE_ARGS = {**_LAW_ARGS, "gaussian": None}


def distribution_from_spec(spec: str) -> DiscreteDistribution:
    """The law named by a noise spec: 'bernoulli', 'lazy_coin[:alpha]'
    (alpha 1/2 by default), 'discretized_gaussian[:radius]' (radius 8 by
    default), or 'file:<path>'."""
    head, arg = parse_spec(spec, "noise", _LAW_ARGS)
    if head == "bernoulli":
        return bernoulli()
    if head == "lazy_coin":
        return lazy_coin(arg)
    if head == "discretized_gaussian":
        return discretized_gaussian(arg)
    return parse_file(arg, lambda text: parse_distribution(text, name=arg))


# ---------------------------------------------------------------------------
# sampling


def _draw(dist: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from one law, one per uniform in u: the first value
    whose cumulative float probability is >= u.  The last cumulative entry
    is forced to 1.0, so every u in [0, 1) lands on an atom."""
    values = np.array(dist.values, dtype=np.int64)
    cum = np.cumsum([float(p) for p in dist.probabilities])
    cum[-1] = 1.0
    return values[np.searchsorted(cum, u, side="left")]


def sample_iid_matrix(dist: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """n x n matrix of independent draws from one law, filled row-major
    from n^2 seeded uniforms."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n * n)
    return _draw(dist, u).reshape(n, n)


# ---------------------------------------------------------------------------
# file format: one 'value probability' pair per line, '#' comments,
# probabilities as p/q or exact decimal strings.


def parse_distribution(text: str, name: str = "custom") -> DiscreteDistribution:
    atoms = []
    for lineno, parts in content_lines(text):
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'value probability', got {' '.join(parts)!r}")
        atoms.append((token(lineno, parts[0]), token(lineno, parts[1], as_fraction)))
    if not atoms:
        raise ValidationError("no atoms in distribution text")
    return DiscreteDistribution(name, tuple(atoms))
