"""Exact rationals and bitstring labels at the JSON boundary.

Rationals are parsed from and rendered to exact strings; floating point
never enters a verification path.  Inside the package a decoded outcome
is an index (the messages 0..2^k - 1, then bot and same*) and a law is
an integer count row over one total; all_bitstrings(k) gives the
messages' labels, in index order.  Marker is an interned non-message
value, such as the verifier's constant failure map.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import InvalidRationalError

MAX_DECIMAL_DIGITS = 9


class Marker:
    """Interned named value; compared by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be "num/den", a plain integer, or a decimal with at most
    9 fractional digits (parsed exactly as num/10^d).  Floats are
    rejected: they carry binary rounding and are never exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidRationalError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidRationalError(
            f"float {value!r} rejected: rationals must be given as exact "
            f'strings like "7/10" or "0.7"'
        )
    if not isinstance(value, str):
        raise InvalidRationalError(f"not a rational: {value!r}")
    text = value.strip()
    if not text:
        raise InvalidRationalError("empty rational string")
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            numerator = int(num)
            denominator = int(den)
        except ValueError:
            raise InvalidRationalError(f"bad rational string: {value!r}") from None
        if denominator <= 0:
            raise InvalidRationalError(
                f"denominator must be positive: {value!r}"
            )
        return Fraction(numerator, denominator)
    if "." in text:
        whole, _, frac = text.partition(".")
        if not frac or len(frac) > MAX_DECIMAL_DIGITS:
            raise InvalidRationalError(
                f"decimal string must have 1..{MAX_DECIMAL_DIGITS} "
                f"fractional digits: {value!r}"
            )
        sign = -1 if whole.startswith("-") else 1
        whole_digits = whole.lstrip("+-") or "0"
        if not (whole_digits.isdigit() and frac.isdigit()):
            raise InvalidRationalError(f"bad decimal string: {value!r}")
        scale = 10 ** len(frac)
        return Fraction(sign * (int(whole_digits) * scale + int(frac)), scale)
    try:
        return Fraction(int(text))
    except ValueError:
        raise InvalidRationalError(f"bad rational string: {value!r}") from None


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den" (or "num" for integers)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def all_bitstrings(k: int) -> list[str]:
    """All bitstrings of length k in lexicographic order ([""] for k=0)."""
    return ["".join(bits) for bits in product("01", repeat=k)]
