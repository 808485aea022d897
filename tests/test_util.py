"""util.power: n raised to an exponent, or invalid input when the exponent
is not finite or the power leaves the float range; util.wilson_interval:
the 99% Wilson score interval of a binomial proportion."""

import math
import re
from fractions import Fraction

import pytest

from perturblab.errors import ValidationError
from perturblab.util import Z_99, power, wilson_interval


def test_power_is_the_float_power():
    for base, exponent in ((4, 0.5), (Fraction(3, 2), -2.0), (100, 1.5), (2, 1023.0)):
        assert power("e", base, exponent) == float(base) ** exponent
    assert power("e", 2, -1e300) == 0.0  # underflow to zero is a value, not an error


@pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf")])
def test_power_refuses_non_finite_exponent(exponent):
    with pytest.raises(ValidationError, match=f"^e = {exponent} is not finite$"):
        power("e", 4, exponent)


@pytest.mark.parametrize("base, exponent", [(2, 1024.0), (10, 309.0), (0.5, -1e300)])
def test_power_refuses_overflow(base, exponent):
    with pytest.raises(ValidationError, match=f"^{re.escape(f'e = {exponent} overflows {base}^(e)')}$"):
        power("e", base, exponent)


@pytest.mark.parametrize("successes", [0, 5, 10])
def test_wilson_interval_is_the_score_interval_at_z_99(successes):
    # (2 k + z^2 -+ z sqrt(z^2 + 4 k (n - k) / n)) / (2 (n + z^2)), k successes in n trials
    n, z2 = 10, Z_99 * Z_99
    root = Z_99 * math.sqrt(z2 + 4 * successes * (n - successes) / n)
    lo, hi = ((2 * successes + z2 + sign * root) / (2 * (n + z2)) for sign in (-1, 1))
    assert wilson_interval(successes, n) == (pytest.approx(lo, abs=1e-15), pytest.approx(hi, abs=1e-15))


@pytest.mark.parametrize("successes, trials, message", [
    (0, 0, "trials must be positive"),
    (11, 10, r"successes outside \[0, trials\]"),
])
def test_wilson_interval_refuses_impossible_counts(successes, trials, message):
    with pytest.raises(ValueError, match=message):
        wilson_interval(successes, trials)
