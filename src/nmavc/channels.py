"""Memoryless bit channels with exact transition probabilities, their
convex decomposition into the deterministic elementary channels
(Keep / Flip / Set0 / Set1 / Erase), and state sequences of per-symbol
channels.

One `Channel` class covers both alphabets: a 2x2 matrix has outputs
{0, 1}, a 2x3 matrix has outputs {0, 1, e} and an erasure mass that must
not depend on the input bit.  The decomposition is the workhorse.  The
erasure mass p becomes the Erase weight, and the rest is a convex
combination of the four binary elementary channels, with a one-parameter
family of coefficient choices (the Set0 weight alpha3).  The canonical
choice takes the lower endpoint of the feasible interval, which
maximizes the Keep mass; a channel computes it once and keeps it.  The
support names each action by its masks (keep, xor, erase), as patterns do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .distributions import parse_rational
from .errors import (
    InfeasibleCoefficientError,
    InvalidChannelError,
    InvalidRationalError,
    UnsupportedChannelError,
)
from .tampering import ACTION_MASKS


def _check_row(row) -> tuple[Fraction, ...]:
    entries = []
    for value in row:
        if isinstance(value, float):
            raise InvalidChannelError(
                f"float entry {value!r} rejected: channel entries must be "
                f"exact rationals"
            )
        entry = Fraction(value)
        if entry < 0 or entry > 1:
            raise InvalidChannelError(f"entry {entry} outside [0,1]")
        entries.append(entry)
    if sum(entries) != 1:
        raise InvalidChannelError(
            f"row sums to {sum(entries)}, expected exactly 1 (no float "
            f"renormalization is ever applied)"
        )
    return tuple(entries)


class Channel:
    """Row-stochastic transition matrix; rows = input bit, columns = the
    outputs 0, 1 and, in a width-3 (erasure-extended) channel, e.

    The erasure mass of an extended channel must not depend on the input
    bit; channels with input-dependent erasure are outside the supported
    model and are rejected loudly.  Channels compare and hash by rows.
    """

    def __init__(self, rows: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]) -> None:
        if len(rows) != 2:
            raise InvalidChannelError("a channel has exactly two rows")
        if {len(row) for row in rows} not in ({2}, {3}):
            raise InvalidChannelError("rows must all have width 2 or all width 3")
        self.rows = rows = tuple(_check_row(row) for row in rows)
        if self.extended and rows[0][2] != rows[1][2]:
            raise UnsupportedChannelError(
                f"input-dependent erasure mass ({rows[0][2]} vs {rows[1][2]}) "
                f"is outside the supported model"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    @property
    def extended(self) -> bool:
        """Whether the outputs include the erasure symbol."""
        return len(self.rows[0]) == 3

    @property
    def erasure_probability(self) -> Fraction:
        return self.rows[0][2] if self.extended else Fraction(0)

    @cached_property
    def integer_support(self) -> tuple[int, tuple[tuple[tuple[int, int, int], int], ...]]:
        """The canonical support over one denominator: (d, ((masks,
        numerator), ...)), d the lcm of the coefficients' denominators and
        masks the (keep, xor, erase) bits of each action at position 0,
        the one-position BITFunction.pattern."""
        support = decompose(self).support()
        d = math.lcm(*(a.denominator for _, a in support))
        return d, tuple((bits, a.numerator * (d // a.denominator)) for bits, a in support)

    @cached_property
    def integer_rows(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The transition rows over one denominator, zeros dropped: (d,
        rows), d the lcm of the entries' denominators and rows[x] the
        (output index, numerator) pairs of input x's non-zero entries, in
        output order: 0, 1, then e in an extended channel."""
        d = math.lcm(*(p.denominator for row in self.rows for p in row))
        return d, tuple(
            tuple((y, p.numerator * (d // p.denominator)) for y, p in enumerate(row) if p)
            for row in self.rows
        )

    @classmethod
    def from_rows(cls, rows) -> "Channel":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def bec(cls, p) -> "Channel":
        p = Fraction(p)
        return cls.from_rows([[1 - p, 0, p], [0, 1 - p, p]])

    def to_extended(self) -> "Channel":
        """Lift a binary channel to the erasure-extended alphabet, with
        erasure mass 0."""
        if self.extended:
            raise InvalidChannelError("the channel is already erasure-extended")
        return Channel(tuple((*row, Fraction(0)) for row in self.rows))


def channel_from_json(obj) -> Channel:
    """Parse {"rows": [[...], [...]]} with 2 or 3 rational-string columns."""
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InvalidChannelError('channel JSON must be {"rows": [...]}')
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != 2:
        raise InvalidChannelError("channel JSON needs exactly two rows")
    if not all(isinstance(row, list) for row in rows):
        raise InvalidChannelError("each channel row must be a list of entries")
    try:
        parsed = [[parse_rational(v) for v in row] for row in rows]
    except InvalidRationalError as exc:
        raise InvalidChannelError(str(exc)) from None
    return Channel.from_rows(parsed)


class ElementaryDecomposition:
    """Convex weights over (Keep, Flip, Set0, Set1, Erase) reconstructing a
    channel."""

    __slots__ = ("alphas",)

    def __init__(self, alphas: tuple[Fraction, ...]) -> None:
        if len(alphas) != 5:
            raise ValueError("five coefficients expected")
        if any(a < 0 for a in alphas):
            raise InfeasibleCoefficientError(f"negative coefficient in {alphas}")
        if sum(alphas) != 1:
            raise InfeasibleCoefficientError(
                f"coefficients sum to {sum(alphas)}, expected 1"
            )
        self.alphas = alphas

    def support(self) -> list[tuple[tuple[int, int, int], Fraction]]:
        """The (masks, weight) pairs of the positive weights, in ACTION_MASKS order."""
        return [(masks, a) for masks, a in zip(ACTION_MASKS, self.alphas) if a > 0]

    def reconstruct(self, extended: bool = False) -> Channel:
        """Sum of alpha_i * W_i, for the exact-reconstruction check: W_i
        sends x to (x & keep) ^ xor, or to e if it erases."""
        if self.alphas[4] and not extended:
            raise InvalidChannelError("Erase is only a channel on the extended alphabet")
        acc = [[Fraction(0)] * (3 if extended else 2) for _ in range(2)]
        for (keep, xor, erase), a in self.support():
            for x in range(2):
                acc[x][2 if erase else (x & keep) ^ xor] += a
        return Channel.from_rows(acc)


def feasible_interval(ch: Channel) -> tuple[Fraction, Fraction]:
    """The closed interval of valid Set0 coefficients; never empty."""
    w11 = ch.rows[0][0]
    w22 = ch.rows[1][1]
    lower = max(Fraction(0), w11 - w22)
    upper = min(w11, 1 - ch.erasure_probability - w22)
    return lower, upper


def decompose(
    ch: Channel, alpha3: Optional[Fraction] = None
) -> ElementaryDecomposition:
    """Convex decomposition into Keep/Flip/Set0/Set1/Erase.

    With erasure mass p, the coefficients are alpha1 = w11 - alpha3,
    alpha2 = 1 - p - w22 - alpha3, alpha4 = alpha3 - (w11 - w22) and
    Erase = p.  The canonical alpha3 is the lower endpoint
    max(0, w11 - w22), which maximizes the Keep mass; a binary channel
    may take any alpha3 of its feasible interval instead.  A channel's
    integer_support calls this once and keeps the canonical support.
    """
    w11 = ch.rows[0][0]
    w22 = ch.rows[1][1]
    p = ch.erasure_probability
    lower, upper = feasible_interval(ch)
    if alpha3 is None:
        alpha3 = lower
    elif ch.extended:
        raise InfeasibleCoefficientError("alpha3 applies to binary channels only")
    else:
        alpha3 = Fraction(alpha3)
        if alpha3 < lower or alpha3 > upper:
            raise InfeasibleCoefficientError(
                f"alpha3 = {alpha3} outside the feasible interval "
                f"[{lower}, {upper}]"
            )
    return ElementaryDecomposition(
        (w11 - alpha3, 1 - p - w22 - alpha3, alpha3, alpha3 - (w11 - w22), p)
    )


class StateSequence:
    """A length-n sequence of channels applied independently per symbol."""

    __slots__ = ("channels", "labels")

    def __init__(
        self,
        channels: Sequence[Channel],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        channels = tuple(channels)
        if not channels:
            raise InvalidChannelError("a state sequence needs n >= 1 states")
        if len({ch.extended for ch in channels}) > 1:
            raise InvalidChannelError(
                "all states must share one output alphabet; lift binary "
                "channels with to_extended() before mixing"
            )
        self.channels = channels
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(channels):
            raise InvalidChannelError("one label per state expected")

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def extended(self) -> bool:
        return self.channels[0].extended

    @property
    def pattern_count(self) -> int:
        """How many patterns mixture_weights returns, without building them."""
        return math.prod(len(ch.integer_support[1]) for ch in self.channels)

    def mixture_weights(self) -> tuple[int, list[tuple[tuple[int, int, int], int]]]:
        """Elementary patterns with their product weights, in integers.

        Returns (D, [(pattern, numerator), ...]): D is the product of the
        positions' denominators (Channel.integer_support), a pattern's
        weight is numerator / D = Prod_i alpha_{i, j_i}, and the
        numerators sum to exactly D.  A pattern is the (keep, xor, erase)
        masks that make up its BIT function, BITFunction(n, *pattern);
        only to_string renders them as letters.  Patterns run over the
        product of the positions' canonical supports, position 0 varying
        slowest; zero coefficients are skipped.
        """
        denominator = 1
        patterns: list = [((0, 0, 0), 1)]
        for i, ch in enumerate(self.channels):
            d, support = ch.integer_support
            denominator *= d
            patterns = [
                ((keep | k << i, xor | x << i, erase | e << i), weight * a)
                for (keep, xor, erase), weight in patterns
                for (k, x, e), a in support
            ]
        return denominator, patterns

    def __repr__(self) -> str:
        if self.labels:
            return f"StateSequence({','.join(self.labels)})"
        return f"StateSequence(n={self.n})"
