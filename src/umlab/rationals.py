"""Exact rational values and their canonical string form.

All distances in this package are `fractions.Fraction` values; every
decision procedure relies on exact equality and order, so floats are
never accepted anywhere.  The canonical string form is

    "p"      for integers (no leading zeros, no "-0"), and
    "p/q"    with q >= 2 and gcd(|p|, q) = 1 otherwise.

Anything else ("2/4", "3/1", "01", "+1", "1.5") is rejected.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

_CANONICAL = re.compile(r"(?P<num>-?(?:0|[1-9][0-9]*))(?:/(?P<den>[1-9][0-9]*))?")


def parse_rational(text: str, where: str = "value") -> Fraction:
    """Parse a canonical rational string, rejecting non-canonical forms."""
    if not isinstance(text, str):
        raise InputError(f"{where}: expected a rational string, got {text!r}")
    m = _CANONICAL.fullmatch(text)
    if m is None:
        raise InputError(f"{where}: {text!r} is not a canonical rational")
    num = int(m.group("num"))
    if m.group("num") == "-0":
        raise InputError(f"{where}: {text!r} is not a canonical rational")
    den_text = m.group("den")
    if den_text is None:
        return Fraction(num)
    den = int(den_text)
    if den < 2:
        raise InputError(f"{where}: {text!r} must be written as an integer")
    if math.gcd(abs(num), den) != 1:
        raise InputError(f"{where}: {text!r} is not in lowest terms")
    return Fraction(num, den)


def exact(value) -> Fraction:
    """A distance given as a Fraction (returned as is) or an int; a float,
    a string or any other type is an input error."""
    if type(value) is Fraction:  # exact type tests: no ABC check, no copy
        return value
    if type(value) is int:
        return Fraction(value)
    raise InputError(f"distance: expected a Fraction or an int, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the canonical string form."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
