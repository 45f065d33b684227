"""Exact rationals and bitstring labels at the JSON boundary.

Rationals are parsed from and rendered to exact strings; floating point
never enters a verification path.  Inside the package a decoded outcome
is an index (the messages 0..2^k - 1, then bot and same*) and a law is
an integer count row over one total; all_bitstrings(k) gives the
messages' labels, in index order.  Record is the base of the result
records, such as the verifier's NMReport: fields named by __slots__,
compared and hashed by value.  Marker is an interned non-message value,
such as the verifier's constant failure map.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import InvalidRationalError

MAX_DECIMAL_DIGITS = 9


class Record:
    """Base of a record whose fields are its class's __slots__ tuple.

    The constructor sets each field exactly once, by position or by
    keyword, and raises TypeError on a missing, repeated or unknown one.
    Records of one class compare and hash by their fields.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        fields = dict(zip(names, args))
        if len(args) > len(names) or fields.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__}: extra or repeated fields")
        fields.update(kwargs)
        if fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"got {tuple(fields)}")
        for name, value in fields.items():
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Marker(Record):
    """Interned named value; compared by identity."""

    __slots__ = ("name",)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.name


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be "num/den", a plain integer, or a decimal with at most 9
    fractional digits (parsed exactly as num/10^d); each integer in them
    is ASCII digits after at most one sign.  Floats are rejected: they
    carry binary rounding.
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
    text = value.strip(" \t\n\r\v\f")  # ASCII only: str.strip() takes more
    if not text:
        raise InvalidRationalError("empty rational string")
    if "/" in text:
        num, _, den = text.partition("/")
        numerator, denominator = _integer(num, value), _integer(den, value)
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
        # "-1.25" is -125/100; an empty whole part reads as 0, so ".+5" is bad.
        digits = _integer((whole or "0") + frac, value, "decimal")
        return Fraction(digits, 10 ** len(frac))
    return Fraction(_integer(text, value))


def _integer(text: str, value, kind: str = "rational") -> int:
    """The int that text spells: at most one leading sign, then ASCII
    digits only (int() alone also reads other Unicode digits, "_" and
    inner spaces), within Python's digit limit."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past Python's digit limit
            pass
    raise InvalidRationalError(f"bad {kind} string: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den" (or "num" for integers)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def all_bitstrings(k: int) -> list[str]:
    """All bitstrings of length k in lexicographic order ([""] for k=0)."""
    return ["".join(bits) for bits in product("01", repeat=k)]
