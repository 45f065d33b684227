"""Tampering function families: bitwise independent and affine over GF(2).

Bitwise independent functions act per position with one of Keep, Flip,
Set0, Set1, or (in erasure-extended contexts) Erase.  Both families map
words packed as ints (bit i is position i, as gf2.bits_to_int packs a
bitstring): a BIT function by keep/xor masks, with its Erase positions
named by an erase mask, so that x maps to the word
(f.apply(x), f.erase) over {0,1,e}; an affine map by u -> u*M + delta
with delta an int.  Bitstrings appear only in to_json and repr.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from enum import Enum

from .errors import BudgetExceededError
from .gf2 import GF2Matrix, int_to_bits


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

#: The (keep, xor, erase) bits of each action at one position, and back.
_ACTION_BITS = dict(zip(
    ACTION_ORDER, ((1, 0, 0), (1, 1, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1))
))
_ACTION_OF_BITS = {bits: action for action, bits in _ACTION_BITS.items()}


class BITFunction:
    """A bitwise independent tampering function, one action per position;
    functions compare and hash by their actions."""

    def __init__(self, actions: tuple[BitAction, ...]) -> None:
        if not actions:
            raise ValueError("a BIT function needs at least one position")
        self.actions = actions

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.actions == other.actions

    def __hash__(self) -> int:
        return hash(self.actions)

    @property
    def n(self) -> int:
        return len(self.actions)

    def to_string(self) -> str:
        return "".join(action.value for action in self.actions)

    def apply(self, x: int) -> int:
        """The bits (x & keep) ^ xor of f(x); Erase positions come out 0."""
        if x >> len(self.actions):
            raise ValueError(f"input {x} is not a word of {{0,1}}^{self.n}")
        keep, xor, _ = self.pattern
        return (x & keep) ^ xor

    @cached_property
    def pattern(self) -> tuple[int, int, int]:
        """The masks (keep, xor, erase), which key a mixture pattern:
        f(x) = (x & keep) ^ xor off the Erase positions named by erase.

        Keep/Flip set bit i of keep, Flip/Set1 set bit i of xor.  An Erase
        position is 0 in both.
        """
        keep = xor = erase = 0
        for i, action in enumerate(self.actions):
            k, x, e = _ACTION_BITS[action]
            keep, xor, erase = keep | k << i, xor | x << i, erase | e << i
        return keep, xor, erase

    @classmethod
    def from_pattern(cls, n: int, pattern: tuple[int, int, int]) -> "BITFunction":
        """The length-n function with these pattern masks."""
        keep, xor, erase = pattern
        return cls(tuple(_ACTION_OF_BITS[keep >> i & 1, xor >> i & 1, erase >> i & 1]
                         for i in range(n)))

    @property
    def erase(self) -> int:
        """Mask of the Erase positions."""
        return self.pattern[2]

    @property
    def has_erase(self) -> bool:
        return self.erase != 0

    def __repr__(self) -> str:
        return f"BITFunction({self.to_string()!r})"


class AffineFunction:
    """u -> u*M + delta over GF(2), with M of shape (in_dim x out_dim);
    maps compare and hash by (matrix, delta)."""

    def __init__(self, matrix: GF2Matrix, delta: int) -> None:
        n = matrix.ncols
        if not isinstance(delta, int) or delta < 0 or delta >> n:
            raise ValueError(f"delta {delta!r} is not a word of {{0,1}}^{n}")
        self.matrix = matrix
        self.delta = delta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix and self.delta == other.delta

    @cached_property
    def _hash(self) -> int:
        return hash((self.matrix, self.delta))

    def __hash__(self) -> int:
        """The field hash, computed once: a map keys the family's dicts,
        and the mixtures look each member up per sequence."""
        return self._hash

    @property
    def in_dim(self) -> int:
        return self.matrix.nrows

    @property
    def out_dim(self) -> int:
        return self.matrix.ncols

    def apply(self, u: int) -> int:
        if u >> len(self.matrix.rows):
            raise ValueError(f"input {u} is not a word of {{0,1}}^{self.in_dim}")
        return self.matrix.vec_mul(u) ^ self.delta

    def delta_string(self) -> str:
        return int_to_bits(self.delta, self.out_dim)

    def to_json(self) -> dict:
        return {
            "M": [[self.matrix.entry(i, j) for j in range(self.out_dim)]
                  for i in range(self.in_dim)],
            "delta": self.delta_string(),
        }

    def __repr__(self) -> str:
        return (
            f"AffineFunction(M={self.matrix.row_strings()}, "
            f"delta={self.delta_string()!r})"
        )


def enumerate_bit_functions(
    n: int, alphabet: int = 4, budget: Optional[int] = None
) -> Iterator[BITFunction]:
    """All BIT functions of length n in lexicographic action order.

    alphabet=4 walks {Keep, Flip, Set0, Set1}; alphabet=5 adds Erase.
    Each function comes with its pattern masks already set.
    """
    if alphabet not in (4, 5):
        raise ValueError("alphabet must be 4 or 5")
    if budget is not None and alphabet**n > budget:
        raise BudgetExceededError(
            f"{alphabet}^{n} = {alphabet**n} functions exceed the budget {budget}"
        )
    if n < 1:
        raise ValueError("a BIT function needs at least one position")
    # Each position's choices carry their mask bits already shifted, so a
    # function's masks are sums of disjoint bits, with no per-action lookup.
    letters = ACTION_ORDER[:alphabet]
    choices = [
        [(action, *(bit << i for bit in _ACTION_BITS[action])) for action in letters]
        for i in range(n)
    ]
    for cells in product(*choices):
        actions, keep, xor, erase = zip(*cells)
        f = BITFunction(actions)
        f.__dict__["pattern"] = sum(keep), sum(xor), sum(erase)  # cached_property
        yield f
