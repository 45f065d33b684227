"""Exact finite probability distributions over tagged outcome sets.

All masses are `fractions.Fraction` values and every operation here is
exact; floating point never enters a verification path.  Outcomes are
message bitstrings (str over "01"), the decoding-failure marker ``BOT``,
or the survival marker ``SAME_STAR``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Hashable, Mapping, Tuple

from .errors import InvalidDistributionError, InvalidRationalError

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_DECIMAL_DIGITS = 9


class Marker:
    """Interned non-message outcome; compared by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Decoder output signaling detected tampering / decoding failure.
BOT = Marker("bot")

#: Placeholder outcome meaning "the original message survives".
SAME_STAR = Marker("same*")

Outcome = Hashable


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


def outcome_sort_key(outcome: Outcome) -> tuple:
    """Deterministic ordering: message strings first, then BOT, SAME_STAR."""
    if isinstance(outcome, str):
        return (0, outcome)
    if outcome is BOT:
        return (1,)
    if outcome is SAME_STAR:
        return (2,)
    raise TypeError(f"not an outcome: {outcome!r}")


def outcome_to_json(outcome: Outcome) -> str:
    if outcome is BOT:
        return "bot"
    if outcome is SAME_STAR:
        return "same*"
    if isinstance(outcome, str):
        return outcome
    raise TypeError(f"not an outcome: {outcome!r}")


class FiniteDistribution:
    """Immutable exact distribution over a finite outcome set.

    Masses must be non-negative Fractions summing to exactly 1;
    zero-mass outcomes are dropped from the support.
    """

    __slots__ = ("_masses",)

    def __init__(self, masses: Mapping[Outcome, Fraction]) -> None:
        cleaned: dict[Outcome, Fraction] = {}
        total = ZERO
        for outcome, mass in masses.items():
            if isinstance(mass, float):
                raise InvalidDistributionError(
                    f"float mass {mass!r} rejected (exact rationals only)"
                )
            mass = Fraction(mass)
            if mass < 0:
                raise InvalidDistributionError(
                    f"negative mass {mass} on {outcome!r}"
                )
            total += mass
            if mass > 0:
                cleaned[outcome] = mass
        if total != ONE:
            raise InvalidDistributionError(
                f"masses sum to {total}, expected exactly 1"
            )
        object.__setattr__(self, "_masses", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteDistribution is immutable")

    @classmethod
    def point(cls, outcome: Outcome) -> "FiniteDistribution":
        return cls({outcome: ONE})

    @classmethod
    def from_counts(
        cls, counts: Mapping[Outcome, int], total: int
    ) -> "FiniteDistribution":
        """Mass count / total on each outcome, checked in integers: the
        counts must be non-negative ints summing to exactly total > 0."""
        if not (all(type(c) is int and c >= 0 for c in (total, *counts.values()))
                and total > 0 and sum(counts.values()) == total):
            raise InvalidDistributionError(
                f"counts {dict(counts)} are not non-negative ints summing to {total!r} > 0"
            )
        masses = {outcome: Fraction(c, total) for outcome, c in counts.items() if c}
        dist = object.__new__(cls)
        object.__setattr__(dist, "_masses", masses)
        return dist

    def probability(self, outcome: Outcome) -> Fraction:
        return self._masses.get(outcome, ZERO)

    @property
    def support(self) -> frozenset:
        return frozenset(self._masses)

    def items(self) -> list[Tuple[Outcome, Fraction]]:
        """Support as (outcome, mass) pairs in deterministic order."""
        return sorted(self._masses.items(), key=lambda kv: outcome_sort_key(kv[0]))

    def __iter__(self):
        return iter(self._masses)

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self._masses == other._masses

    def __hash__(self) -> int:
        return hash(frozenset(self._masses.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{outcome!r}: {format_rational(mass)}" for outcome, mass in self.items()
        )
        return f"FiniteDistribution({{{inner}}})"

    def to_json(self) -> dict:
        return {
            outcome_to_json(outcome): format_rational(mass)
            for outcome, mass in self.items()
        }


def statistical_distance(p: FiniteDistribution, q: FiniteDistribution) -> Fraction:
    """Total variation distance: half the L1 distance, exact.

    Missing outcomes count as mass 0, so p and q may have different
    supports over the same universe.
    """
    total = ZERO
    for outcome in p.support | q.support:
        total += abs(p.probability(outcome) - q.probability(outcome))
    return total / 2


def apply_copy(d: FiniteDistribution, m: str) -> FiniteDistribution:
    """Transfer the SAME_STAR mass of d onto the message m.

    The result is the distribution of: draw z from d, output m if z is
    SAME_STAR and z otherwise.
    """
    if not isinstance(m, str):
        raise TypeError(f"message must be a bitstring, got {m!r}")
    star = d.probability(SAME_STAR)
    if star == 0:
        return d
    masses = {o: p for o, p in d._masses.items() if o is not SAME_STAR}
    masses[m] = masses.get(m, ZERO) + star
    return FiniteDistribution(masses)
