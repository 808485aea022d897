"""util.power: n raised to an exponent, or invalid input when the exponent
is not finite or the power leaves the float range."""

import re
from fractions import Fraction

import pytest

from perturblab.errors import ValidationError
from perturblab.util import power


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
