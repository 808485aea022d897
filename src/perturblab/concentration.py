"""Small-ball concentration of integer random walks, exact and bounded.

For independent integer noise X = (xi_1, ..., xi_n) and an integer weight
vector v, the central quantity is

    sup_a P((Z + X) . v = a)

computed exactly by convolving the per-coordinate laws (rational
arithmetic end to end).  The companion upper bound is the Fourier-side
integral

    integral_0^1 prod_i [(1 - mu) + mu cos(2 pi a_i v_i t)] dt

over the non-excluded coordinates, which dominates the exact value when
each coordinate law satisfies the cosine-envelope certificate with
frequency a_i.  The integrand is a trigonometric polynomial of degree
F = sum |a_i v_i|, so averaging it over N = F + 1 equispaced points is
not an approximation: every nonconstant frequency below N averages to
exactly zero, leaving the constant coefficient, i.e. the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import ResourceError, ValidationError
from .noise import (
    BoundednessCertificate, DiscreteDistribution, _as_fraction, distribution_from_spec, mu_float,
    sample_vector,
)
from .util import content_lines, derive_seed, keyed_lines, token, wilson_interval

DP_STATE_BUDGET = 100_000_000
AVERAGING_BUDGET = 10_000_000


def _weights(v) -> tuple[int, ...]:
    weights = tuple(int(x) for x in v)
    if not weights:
        raise ValidationError("empty weight vector")
    return weights


@dataclass(frozen=True, slots=True)
class ConcentrationQuery:
    """Everything a concentration question needs.

    dists: per-coordinate noise laws.
    shift: optional fixed integer vector Z added to the noise.
    multipliers: positive integer frequencies a_i for the Fourier bound.
    exclusion: coordinate indices whose factors are dropped from the
        Fourier product (frozen coordinates); capped at n^0.99.
    k_exponent: when set, lcm of the non-excluded multipliers must stay
        at or below n^k_exponent.
    """

    dists: tuple[DiscreteDistribution, ...]
    shift: tuple[int, ...] | None = None
    multipliers: tuple[int, ...] | None = None
    exclusion: frozenset[int] = frozenset()
    k_exponent: float | None = None

    def __post_init__(self):
        n = len(self.dists)
        if n == 0:
            raise ValidationError("query needs at least one coordinate")
        if self.shift is not None:
            shift = tuple(int(x) for x in self.shift)
            if len(shift) != n:
                raise ValidationError("shift length mismatch")
            object.__setattr__(self, "shift", shift)
        mults = self.multipliers
        if mults is None:
            mults = tuple(1 for _ in range(n))
        else:
            mults = tuple(int(a) for a in mults)
            if len(mults) != n:
                raise ValidationError("multiplier length mismatch")
            if any(a < 1 for a in mults):
                raise ValidationError("multipliers must be positive integers")
        object.__setattr__(self, "multipliers", mults)
        excl = frozenset(int(i) for i in self.exclusion)
        if any(i < 0 or i >= n for i in excl):
            raise ValidationError("exclusion index out of range")
        if excl and len(excl) > n**0.99:
            raise ValidationError(
                f"exclusion set size {len(excl)} exceeds n^0.99 = {n ** 0.99:.2f}"
            )
        object.__setattr__(self, "exclusion", excl)
        if self.k_exponent is not None:
            included = [mults[i] for i in range(n) if i not in excl]
            if included:
                l = math.lcm(*included)
                if l > n**float(self.k_exponent):
                    raise ValidationError(
                        f"lcm of multipliers {l} exceeds n^K = {n ** float(self.k_exponent):.4g}"
                    )

    @property
    def n(self) -> int:
        return len(self.dists)


@dataclass(frozen=True, slots=True)
class ConcentrationValue:
    sup: Fraction
    argmax: int


def _walk(query: ConcentrationQuery, v, state_budget: int) -> tuple[dict[int, int], int, int]:
    """Law of X . v as integer masses over one common denominator, and the
    shift's offset Z . v: returns (masses by value, denominator, offset).

    The walk's support spans at most 2 * sum |v_i| max|xi_i| + 1 integers
    and at most prod(support sizes) points; if both exceed the state
    budget the instance is out of reach for the exact path (use the
    Monte Carlo estimator in check_nondegeneracy instead).
    """
    weights = _weights(v)
    if len(weights) != query.n:
        raise ValidationError(f"weight length {len(weights)} != query size {query.n}")
    span = sum(abs(w) * d.max_abs_value for w, d in zip(weights, query.dists))
    dense_states = 2 * span + 1
    sparse_states = 1
    for d in query.dists:
        sparse_states *= len(d.atoms)
        if sparse_states > state_budget:
            break
    if min(dense_states, sparse_states) > state_budget:
        raise ResourceError(
            f"exact convolution needs ~{min(dense_states, sparse_states):.2e} states "
            f"(budget {state_budget}); use the Monte Carlo non-degeneracy estimator"
        )
    # integer DP over a running common denominator: Fraction addition costs a
    # gcd per step, ruinous for atom masses with wide denominators
    dp: dict[int, int] = {0: 1}
    den = 1
    for w, dist in zip(weights, query.dists):
        if w == 0:
            continue
        d = math.lcm(*(p.denominator for _, p in dist.atoms))
        scaled = [(value, p.numerator * (d // p.denominator)) for value, p in dist.atoms]
        den *= d
        nxt: dict[int, int] = {}
        for s, p in dp.items():
            for value, prob in scaled:
                key = s + w * value
                if key in nxt:
                    nxt[key] += p * prob
                else:
                    nxt[key] = p * prob
        dp = nxt
    base = 0
    if query.shift is not None:
        base = sum(z * w for z, w in zip(query.shift, weights))
    return dp, den, base


def exact_concentration(
    query: ConcentrationQuery, v, state_budget: int = DP_STATE_BUDGET
) -> ConcentrationValue:
    """Exact sup_a P((Z + X) . v = a) by sparse convolution.

    Raises ResourceError when the convolution is over the state budget.
    The shift only relocates the argmax, never the sup.
    """
    dp, den, base = _walk(query, v, state_budget)
    top = max(dp.values())
    argmax = min(k for k, p in dp.items() if p == top) + base
    return ConcentrationValue(sup=Fraction(top, den), argmax=argmax)


def exact_point_mass(
    query: ConcentrationQuery, v, state_budget: int = DP_STATE_BUDGET
) -> Fraction:
    """Exact P((Z + X) . v = 0), from the same convolution."""
    dp, den, base = _walk(query, v, state_budget)
    return Fraction(dp.get(-base, 0), den)


def fourier_bound(
    query: ConcentrationQuery, v, mu, averaging_budget: int = AVERAGING_BUDGET
) -> float:
    """The cosine-product integral, evaluated exactly by equispaced averaging.

    The product of the n cosine factors expands into frequencies of
    magnitude at most F = sum_{i not excluded} |a_i v_i|; averaging over
    t = j/N for N = F + 1 kills every nonzero frequency (none is a
    multiple of N) and returns the constant term, which is the integral.
    """
    mu_f = mu_float(mu)
    weights = _weights(v)
    if len(weights) != query.n:
        raise ValidationError(f"weight length {len(weights)} != query size {query.n}")
    freqs = [
        a * w for i, (a, w) in enumerate(zip(query.multipliers, weights)) if i not in query.exclusion
    ]
    return cosine_average(freqs, mu_f, averaging_budget)


def cosine_average(freqs: Sequence[int], mu: float, budget: int = AVERAGING_BUDGET) -> float:
    """Integral over [0, 1) of prod_f (1 - mu + mu cos(2 pi f t)), computed
    exactly as the average over N = sum |f| + 1 equispaced points."""
    freqs = [abs(int(f)) for f in freqs]
    n_points = 1 + sum(freqs)
    if n_points > budget:
        raise ResourceError(f"equispaced averaging needs {n_points} points (budget {budget})")
    t = np.arange(n_points, dtype=float) / n_points
    acc = np.ones(n_points, dtype=float)
    for f in freqs:
        if f:
            acc *= (1.0 - mu) + mu * np.cos((2.0 * math.pi * f) * t)
    return float(acc.mean())


@dataclass(frozen=True, slots=True)
class DominanceReport:
    ok: bool
    exact: Fraction
    bound: float
    gap: float
    mu: Fraction
    multipliers: tuple[int, ...]


def check_dominance(
    query: ConcentrationQuery, v, certs: Sequence[BoundednessCertificate]
) -> DominanceReport:
    """Exact concentration against its certificate-driven Fourier bound.

    Multipliers are the certificate frequencies; mu is the weakest (the
    smallest) certificate mu across coordinates, since the envelope with
    smaller mu is the looser one that all coordinates satisfy.
    """
    if len(certs) != query.n:
        raise ValidationError("need one certificate per coordinate")
    mults = tuple(c.k for c in certs)
    mu = min(c.mu for c in certs)
    armed = replace(query, multipliers=mults)
    value = exact_concentration(armed, v)
    bound = fourier_bound(armed, v, mu)
    gap = bound - float(value.sup)
    return DominanceReport(
        ok=float(value.sup) <= bound + 1e-12,
        exact=value.sup,
        bound=bound,
        gap=gap,
        mu=mu,
        multipliers=mults,
    )


@dataclass(frozen=True, slots=True)
class NondegeneracyReport:
    estimate: float
    ci_low: float
    ci_high: float
    threshold: float
    violation: bool
    trials: int


def check_nondegeneracy(
    dists: Sequence[DiscreteDistribution],
    shift: Sequence[int] | None,
    y: Sequence[float],
    mu,
    trials: int,
    seed: int,
) -> NondegeneracyReport:
    """Monte Carlo check that P(|(Z + X) . y| <= n^-2) stays below 1 - mu/2.

    A 99% Wilson interval whose lower end clears the threshold flags a
    violation of the non-degeneracy hypothesis for this direction y.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    dists = list(dists)
    n = len(dists)
    y_arr = np.asarray(y, dtype=float)
    if y_arr.shape != (n,):
        raise ValidationError("y length mismatch")
    mu_f = mu_float(mu)
    base = 0.0
    if shift is not None:
        base = float(np.dot(np.asarray(shift, dtype=float), y_arr))
    cut = n ** (-2.0)
    hits = 0
    for t in range(trials):
        x = sample_vector(dists, derive_seed(seed, "nondeg", t))
        if abs(base + float(np.dot(x, y_arr))) <= cut:
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    threshold = 1.0 - mu_f / 2.0
    return NondegeneracyReport(
        estimate=hits / trials,
        ci_low=lo,
        ci_high=hi,
        threshold=threshold,
        violation=lo > threshold,
        trials=trials,
    )


@dataclass(frozen=True, slots=True)
class RichnessReport:
    label: Literal["rich", "poor"]
    sup: Fraction
    threshold: float


def classify_rich(
    row_queries: ConcentrationQuery | Sequence[ConcentrationQuery],
    v,
    a_exponent: float,
    offset: float = 4.0,
) -> RichnessReport:
    """Rich when some row's exact concentration reaches n^-(A + offset).

    Rows with identical laws are computed once.  The threshold exponent
    offset defaults to 4 and is a tunable, not a tuned constant.
    """
    if isinstance(row_queries, ConcentrationQuery):
        row_queries = [row_queries]
    weights = _weights(v)
    n = len(weights)
    threshold = float(n) ** (-(float(a_exponent) + float(offset)))
    best = Fraction(0)
    seen: set[tuple] = set()
    for q in row_queries:
        key = tuple((d.name, d.atoms) for d in q.dists)
        if key in seen:
            continue
        seen.add(key)
        value = exact_concentration(q, weights)
        if value.sup > best:
            best = value.sup
    label = "rich" if float(best) >= threshold else "poor"
    return RichnessReport(label=label, sup=best, threshold=threshold)


# ---------------------------------------------------------------------------
# query file format: 'key values...' lines, '#' comments, 0-based indices;
# an unknown or repeated key is rejected.
#
#   dist bernoulli          required; one law for all coordinates
#   v 1 1 2                 required
#   z 0 0 1                 optional shift
#   a 2 2 2                 optional multipliers; needs a mu line
#   exclude 2               optional excluded coordinate indices
#   mu 1/4                  optional envelope mu for the bound
#   k_exponent 1.0          optional lcm cap exponent


@dataclass(frozen=True, slots=True)
class ParsedQuery:
    query: ConcentrationQuery
    v: tuple[int, ...]
    mu: Fraction | None


_QUERY_KEYS = ("dist", "v", "z", "a", "exclude", "mu", "k_exponent")
_QUERY_SCALARS = {"mu": _as_fraction, "k_exponent": float}


def parse_query(text: str) -> ParsedQuery:
    fields = keyed_lines(content_lines(text), _QUERY_KEYS)
    if "v" not in fields or "dist" not in fields:
        raise ValidationError("query file needs 'dist' and 'v' lines")
    if "a" in fields and "mu" not in fields:
        raise ValidationError(f"line {fields['a'][0]}: an 'a' line needs a 'mu' line "
                              "(without one, the multipliers come from the laws' certificates)")
    dist = distribution_from_spec(" ".join(fields.pop("dist")[1]))
    got = {}
    for key, (lineno, values) in fields.items():
        if key in _QUERY_SCALARS and len(values) != 1:
            raise ValidationError(f"line {lineno}: expected '{key} <value>'")
        got[key] = tuple(token(lineno, x, _QUERY_SCALARS.get(key, int)) for x in values)
    (k_exp,) = got.get("k_exponent", (None,))
    (mu,) = got.get("mu", (None,))
    query = ConcentrationQuery(
        dists=tuple([dist] * len(got["v"])),
        shift=got.get("z"),
        multipliers=got.get("a"),
        exclusion=frozenset(got.get("exclude", ())),
        k_exponent=k_exp,
    )
    return ParsedQuery(query=query, v=got["v"], mu=mu)
