"""Binary and erasure-extended memoryless channels with exact transition
probabilities, their convex decomposition into the deterministic
elementary channels (Keep / Flip / Set0 / Set1 / Erase), and state
sequences of per-symbol channels.

The decomposition is the workhorse: any 2x2 row-stochastic matrix is a
convex combination of the four elementary channels, with a one-parameter
family of coefficient choices.  The canonical choice takes the lower
endpoint of the feasible interval, which maximizes the Keep mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .distributions import parse_rational
from .errors import (
    InfeasibleCoefficientError,
    InvalidChannelError,
    InvalidRationalError,
    UnsupportedChannelError,
)
from .gf2 import ERASURE_CHAR
from .tampering import ACTION_ORDER, BitAction

_BINARY_SYMBOLS = ("0", "1")
_EXTENDED_SYMBOLS = ("0", "1", ERASURE_CHAR)


def _check_row(row, width: int) -> tuple[Fraction, ...]:
    if len(row) != width:
        raise InvalidChannelError(f"row of width {len(row)}, expected {width}")
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


@dataclass(frozen=True)
class BinaryChannel:
    """2x2 row-stochastic transition matrix; rows = input bit, cols = output bit."""

    rows: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self):
        if len(self.rows) != 2:
            raise InvalidChannelError("a binary channel has exactly two rows")
        object.__setattr__(
            self, "rows", tuple(_check_row(row, 2) for row in self.rows)
        )

    @property
    def output_symbols(self) -> tuple[str, ...]:
        return _BINARY_SYMBOLS

    def transition(self, x: int, y: int) -> Fraction:
        return self.rows[x][y]

    @classmethod
    def from_rows(cls, rows) -> "BinaryChannel":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def bsc(cls, p) -> "BinaryChannel":
        p = Fraction(p)
        return cls.from_rows([[1 - p, p], [p, 1 - p]])

    @classmethod
    def identity(cls) -> "BinaryChannel":
        return cls.from_rows([[1, 0], [0, 1]])

    def to_extended(self, p_erase=0) -> "ExtendedChannel":
        """Lift to the erasure-extended alphabet with erasure mass p_erase."""
        p = Fraction(p_erase)
        scale = 1 - p
        return ExtendedChannel(
            tuple(
                (row[0] * scale, row[1] * scale, p)
                for row in self.rows
            )
        )

    def to_json(self) -> dict:
        from .distributions import format_rational

        return {"rows": [[format_rational(v) for v in row] for row in self.rows]}


@dataclass(frozen=True)
class ExtendedChannel:
    """2x3 row-stochastic matrix with outputs {0, 1, erasure}.

    The erasure mass must not depend on the input bit; channels with
    input-dependent erasure are outside the supported model and are
    rejected loudly.
    """

    rows: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        if len(self.rows) != 2:
            raise InvalidChannelError("an extended channel has exactly two rows")
        rows = tuple(_check_row(row, 3) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows[0][2] != rows[1][2]:
            raise UnsupportedChannelError(
                f"input-dependent erasure mass ({rows[0][2]} vs {rows[1][2]}) "
                f"is outside the supported model"
            )

    @property
    def output_symbols(self) -> tuple[str, ...]:
        return _EXTENDED_SYMBOLS

    @property
    def erasure_probability(self) -> Fraction:
        return self.rows[0][2]

    def transition(self, x: int, y: int) -> Fraction:
        return self.rows[x][y]

    @classmethod
    def from_rows(cls, rows) -> "ExtendedChannel":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def bec(cls, p) -> "ExtendedChannel":
        p = Fraction(p)
        return cls.from_rows([[1 - p, 0, p], [0, 1 - p, p]])

    def to_json(self) -> dict:
        from .distributions import format_rational

        return {"rows": [[format_rational(v) for v in row] for row in self.rows]}


Channel = Union[BinaryChannel, ExtendedChannel]


def channel_from_json(obj) -> Channel:
    """Parse {"rows": [[...], [...]]} with 2 or 3 rational-string columns."""
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InvalidChannelError('channel JSON must be {"rows": [...]}')
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != 2:
        raise InvalidChannelError("channel JSON needs exactly two rows")
    try:
        parsed = [[parse_rational(v) for v in row] for row in rows]
    except InvalidRationalError as exc:
        raise InvalidChannelError(str(exc)) from None
    widths = {len(row) for row in parsed}
    if widths == {2}:
        return BinaryChannel.from_rows(parsed)
    if widths == {3}:
        return ExtendedChannel.from_rows(parsed)
    raise InvalidChannelError("rows must all have width 2 or all width 3")


_ELEMENTARY_BINARY = {
    BitAction.KEEP: BinaryChannel.from_rows([[1, 0], [0, 1]]),
    BitAction.FLIP: BinaryChannel.from_rows([[0, 1], [1, 0]]),
    BitAction.SET0: BinaryChannel.from_rows([[1, 0], [1, 0]]),
    BitAction.SET1: BinaryChannel.from_rows([[0, 1], [0, 1]]),
}


def elementary_channel(action: BitAction, extended: bool = False) -> Channel:
    """The deterministic channel realizing one bit action.

    This is the single conversion point between actions and channels;
    the per-symbol semantics themselves live with BITFunction.
    """
    if action is BitAction.ERASE:
        if not extended:
            raise InvalidChannelError("Erase is only a channel on the extended alphabet")
        return ExtendedChannel.from_rows([[0, 0, 1], [0, 0, 1]])
    base = _ELEMENTARY_BINARY[action]
    return base.to_extended() if extended else base


@dataclass(frozen=True)
class ElementaryDecomposition:
    """Convex weights over (Keep, Flip, Set0, Set1, Erase) reconstructing a channel."""

    alphas: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.alphas) != 5:
            raise ValueError("five coefficients expected")
        if any(a < 0 for a in self.alphas):
            raise InfeasibleCoefficientError(f"negative coefficient in {self.alphas}")
        if sum(self.alphas) != 1:
            raise InfeasibleCoefficientError(
                f"coefficients sum to {sum(self.alphas)}, expected 1"
            )

    def weight(self, action: BitAction) -> Fraction:
        return self.alphas[ACTION_ORDER.index(action)]

    def support(self) -> list[tuple[BitAction, Fraction]]:
        return [
            (action, a)
            for action, a in zip(ACTION_ORDER, self.alphas)
            if a > 0
        ]

    def reconstruct(self, extended: bool = False) -> Channel:
        """Sum of alpha_i * W_i, for the exact-reconstruction check."""
        width = 3 if extended else 2
        acc = [[Fraction(0)] * width for _ in range(2)]
        for action, a in zip(ACTION_ORDER, self.alphas):
            if a == 0:
                continue
            ch = elementary_channel(action, extended=extended)
            for x in range(2):
                for y in range(width):
                    acc[x][y] += a * ch.transition(x, y)
        if extended:
            return ExtendedChannel.from_rows(acc)
        return BinaryChannel.from_rows(acc)


def feasible_interval(ch: BinaryChannel) -> tuple[Fraction, Fraction]:
    """The closed interval of valid Set0 coefficients; never empty."""
    w11 = ch.transition(0, 0)
    w22 = ch.transition(1, 1)
    lower = max(Fraction(0), w11 - w22)
    upper = min(w11, 1 - w22)
    return lower, upper


def decompose(
    ch: BinaryChannel, alpha3: Optional[Fraction] = None
) -> ElementaryDecomposition:
    """Convex decomposition into Keep/Flip/Set0/Set1.

    The coefficients are alpha1 = w11 - alpha3, alpha2 = 1 - w22 - alpha3,
    alpha4 = alpha3 - (w11 - w22).  The canonical alpha3 is the lower
    endpoint max(0, w11 - w22), which maximizes the Keep mass.
    """
    w11 = ch.transition(0, 0)
    w22 = ch.transition(1, 1)
    lower, upper = feasible_interval(ch)
    if alpha3 is None:
        alpha3 = lower
    else:
        alpha3 = Fraction(alpha3)
        if alpha3 < lower or alpha3 > upper:
            raise InfeasibleCoefficientError(
                f"alpha3 = {alpha3} outside the feasible interval "
                f"[{lower}, {upper}]"
            )
    alpha1 = w11 - alpha3
    alpha2 = 1 - w22 - alpha3
    alpha4 = alpha3 - (w11 - w22)
    return ElementaryDecomposition((alpha1, alpha2, alpha3, alpha4, Fraction(0)))


def decompose_extended(ch: ExtendedChannel) -> ElementaryDecomposition:
    """Decomposition over the extended elementary set.

    The shared erasure mass becomes the Erase weight; the residual 2x2
    channel (rows renormalized) is decomposed canonically and scaled.
    """
    p = ch.erasure_probability
    if p == 1:
        return ElementaryDecomposition(
            (Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        )
    scale = 1 - p
    residual = BinaryChannel.from_rows(
        [[ch.transition(x, y) / scale for y in range(2)] for x in range(2)]
    )
    inner = decompose(residual)
    a1, a2, a3, a4, _ = inner.alphas
    return ElementaryDecomposition(
        (a1 * scale, a2 * scale, a3 * scale, a4 * scale, p)
    )


def decompose_channel(ch: Channel) -> ElementaryDecomposition:
    if isinstance(ch, BinaryChannel):
        return decompose(ch)
    return decompose_extended(ch)


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
        kinds = {type(ch) for ch in channels}
        if len(kinds) > 1:
            raise InvalidChannelError(
                "all states must share one output alphabet; lift binary "
                "channels with to_extended() before mixing"
            )
        self.channels = channels
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(channels):
            raise InvalidChannelError("one label per state expected")

    @classmethod
    def uniform(cls, ch: Channel, n: int, label: Optional[str] = None) -> "StateSequence":
        labels = (label,) * n if label is not None else None
        return cls((ch,) * n, labels)

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def extended(self) -> bool:
        return isinstance(self.channels[0], ExtendedChannel)

    def decompositions(self) -> list[ElementaryDecomposition]:
        return [decompose_channel(ch) for ch in self.channels]

    def mixture_weights(self) -> Iterator[tuple[tuple[BitAction, ...], Fraction]]:
        """Elementary patterns with their product weights; zeros skipped.

        Weights are Prod_i alpha_{i, j_i} and sum to exactly 1.
        """
        supports = [dec.support() for dec in self.decompositions()]

        def walk(i: int, actions: tuple, weight: Fraction):
            if i == len(supports):
                yield actions, weight
                return
            for action, a in supports[i]:
                yield from walk(i + 1, actions + (action,), weight * a)

        yield from walk(0, (), Fraction(1))

    def __repr__(self) -> str:
        if self.labels:
            return f"StateSequence({','.join(self.labels)})"
        return f"StateSequence(n={self.n})"
