"""Tampering function families: bitwise independent and affine over GF(2).

Bitwise independent functions act per position with one of Keep, Flip,
Set0, Set1, or (in erasure-extended contexts) Erase.  Erase-free
functions embed into the affine family u -> u*M + delta, and that
embedding is validated exhaustively rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from enum import Enum

from .errors import BudgetExceededError, NotRepresentableError
from .gf2 import ERASURE_CHAR, GF2Matrix, bits_to_int, int_to_bits


class BitAction(Enum):
    KEEP = "K"
    FLIP = "F"
    SET0 = "0"
    SET1 = "1"
    ERASE = "E"


#: Canonical enumeration order; the first four form the erasure-free family.
ACTION_ORDER = (
    BitAction.KEEP,
    BitAction.FLIP,
    BitAction.SET0,
    BitAction.SET1,
    BitAction.ERASE,
)

_APPLY = {
    BitAction.KEEP: lambda ch: ch,
    BitAction.FLIP: lambda ch: "1" if ch == "0" else "0",
    BitAction.SET0: lambda ch: "0",
    BitAction.SET1: lambda ch: "1",
    BitAction.ERASE: lambda ch: ERASURE_CHAR,
}


@dataclass(frozen=True)
class BITFunction:
    """A bitwise independent tampering function, one action per position."""

    actions: tuple[BitAction, ...]

    def __post_init__(self):
        if not self.actions:
            raise ValueError("a BIT function needs at least one position")

    @property
    def n(self) -> int:
        return len(self.actions)

    @classmethod
    def from_string(cls, text: str) -> "BITFunction":
        return cls(tuple(BitAction(ch) for ch in text))

    def to_string(self) -> str:
        return "".join(action.value for action in self.actions)

    def apply(self, x: str) -> str:
        """Apply per-bit actions; Erase positions become 'e'."""
        if len(x) != self.n:
            raise ValueError(f"input length {len(x)} != {self.n}")
        return "".join(_APPLY[a](ch) for a, ch in zip(self.actions, x))

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(keep, xor) with f(x) = (x & keep) ^ xor on words packed by bits_to_int.

        Keep/Flip set bit i of keep, Flip/Set1 set bit i of xor.  An Erase
        position is 0 in both, so the masks describe f only off its
        erasure set.
        """
        keep = xor = 0
        for i, action in enumerate(self.actions):
            if action in (BitAction.KEEP, BitAction.FLIP):
                keep |= 1 << i
            if action in (BitAction.FLIP, BitAction.SET1):
                xor |= 1 << i
        return keep, xor

    @cached_property
    def has_erase(self) -> bool:
        return BitAction.ERASE in self.actions

    def erasure_set(self) -> frozenset[int]:
        return frozenset(
            i for i, a in enumerate(self.actions) if a is BitAction.ERASE
        )

    def __repr__(self) -> str:
        return f"BITFunction({self.to_string()!r})"


@dataclass(frozen=True)
class AffineFunction:
    """u -> u*M + delta over GF(2), with M of shape (in_dim x out_dim)."""

    matrix: GF2Matrix
    delta: str

    def __post_init__(self):
        if len(self.delta) != self.matrix.ncols:
            raise ValueError("delta length must match the output dimension")
        if set(self.delta) - {"0", "1"}:
            raise ValueError(f"delta is not a bitstring: {self.delta!r}")

    @property
    def in_dim(self) -> int:
        return self.matrix.nrows

    @property
    def out_dim(self) -> int:
        return self.matrix.ncols

    def apply(self, u: str) -> str:
        if len(u) != self.in_dim:
            raise ValueError(f"input length {len(u)} != {self.in_dim}")
        value = self.matrix.vec_mul(bits_to_int(u)) ^ bits_to_int(self.delta)
        return int_to_bits(value, self.out_dim)

    def to_json(self) -> dict:
        return {
            "M": [[self.matrix.entry(i, j) for j in range(self.out_dim)]
                  for i in range(self.in_dim)],
            "delta": self.delta,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AffineFunction":
        return cls(GF2Matrix.from_rows(obj["M"]), obj["delta"])

    def __repr__(self) -> str:
        return f"AffineFunction(M={self.matrix.row_strings()}, delta={self.delta!r})"


def compose_affine(first: AffineFunction, second: AffineFunction) -> AffineFunction:
    """The affine function u -> second(first(u)) = u*M1*M2 + (d1*M2 + d2)."""
    if first.out_dim != second.in_dim:
        raise ValueError("dimension mismatch in composition")
    matrix = first.matrix.matmul(second.matrix)
    delta_int = second.matrix.vec_mul(bits_to_int(first.delta)) ^ bits_to_int(
        second.delta
    )
    return AffineFunction(matrix, int_to_bits(delta_int, second.out_dim))


def bit_to_affine(f: BITFunction) -> AffineFunction:
    """Diagonal affine form of an erasure-free BIT function.

    M is diagonal with a 1 exactly where the action preserves the input
    (Keep/Flip); delta has a 1 exactly where the action inverts or sets
    the bit (Flip/Set1).
    """
    if f.has_erase:
        raise NotRepresentableError(
            "Erase has no affine form on {0,1}; resolve erasures first"
        )
    keep, xor = f.masks
    rows = tuple(keep & (1 << i) for i in range(f.n))
    return AffineFunction(GF2Matrix(rows, f.n), int_to_bits(xor, f.n))


def enumerate_bit_functions(
    n: int, alphabet: int = 4, budget: Optional[int] = None
) -> Iterator[BITFunction]:
    """All BIT functions of length n in lexicographic action order.

    alphabet=4 walks {Keep, Flip, Set0, Set1}; alphabet=5 adds Erase.
    """
    if alphabet not in (4, 5):
        raise ValueError("alphabet must be 4 or 5")
    if budget is not None and alphabet**n > budget:
        raise BudgetExceededError(
            f"{alphabet}^{n} = {alphabet**n} functions exceed the budget {budget}"
        )
    letters = ACTION_ORDER[:alphabet]
    for actions in product(letters, repeat=n):
        yield BITFunction(actions)
