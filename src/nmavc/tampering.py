"""Tampering function families: bitwise independent and affine over GF(2).

Bitwise independent functions act per position with one of Keep, Flip,
Set0, Set1 or Erase, whose masks ACTION_MASKS lists.  Both families map
words packed as ints (bit i is position i, as gf2.bits_to_int packs a
bitstring).  A BIT function is its length and three masks, keep, xor
and erase: x maps to the word (f.apply(x), f.erase) over {0,1,e}, with
f.apply(x) = (x & keep) ^ xor.  An affine map is u -> u*M + delta with
delta an int.  The action letters K, F, 0, 1 and E appear only in
to_string and repr, and bitstrings only in delta_string and repr.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .errors import BudgetExceededError
from .gf2 import GF2Matrix, int_to_bits


#: The (keep, xor, erase) bits of each action at one position, in the order
#: Keep, Flip, Set0, Set1, Erase; the first four form the erasure-free family.
ACTION_MASKS = ((1, 0, 0), (1, 1, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1))

#: The letter of each action, read only by to_string and repr.
_LETTERS = dict(zip(ACTION_MASKS, "KF01E"))


class BITFunction:
    """A bitwise independent tampering function of length n, given by its
    masks: Keep/Flip set bit i of keep, Flip/Set1 set bit i of xor and
    Erase sets bit i of erase, so Set0 is 0 in all three.  Functions
    compare and hash by (n, keep, xor, erase)."""

    __slots__ = ("n", "keep", "xor", "erase", "_hash")

    def __init__(self, n: int, keep: int, xor: int, erase: int = 0) -> None:
        if n < 1:
            raise ValueError("a BIT function needs at least one position")
        if (keep | xor | erase) >> n:
            raise ValueError(f"masks ({keep}, {xor}, {erase}) exceed {n} positions")
        if erase & (keep | xor):
            raise ValueError(f"erase mask {erase} overlaps keep {keep} or xor {xor}")
        self.n, self.keep, self.xor, self.erase = n, keep, xor, erase
        self._hash = hash((n, keep, xor, erase))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.pattern == other.pattern

    def __hash__(self) -> int:
        """The field hash, computed once, at construction, as
        AffineFunction's."""
        return self._hash

    @property
    def pattern(self) -> tuple[int, int, int]:
        """The masks (keep, xor, erase), which key a mixture pattern."""
        return self.keep, self.xor, self.erase

    def to_string(self) -> str:
        return "".join(
            _LETTERS[self.keep >> i & 1, self.xor >> i & 1, self.erase >> i & 1]
            for i in range(self.n)
        )

    def apply(self, x: int) -> int:
        """The bits (x & keep) ^ xor of f(x); Erase positions come out 0."""
        if x >> self.n:
            raise ValueError(f"input {x} is not a word of {{0,1}}^{self.n}")
        return (x & self.keep) ^ self.xor

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
        self._hash = hash((matrix, delta))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix and self.delta == other.delta

    def __hash__(self) -> int:
        """The field hash, computed once, at construction: every map the
        library builds keys the family's dicts, and the mixtures look
        each member up per sequence."""
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

    def __repr__(self) -> str:
        return (
            f"AffineFunction(M={self.matrix.row_strings()}, "
            f"delta={self.delta_string()!r})"
        )


def bit_patterns(
    n: int, alphabet: int = 4, budget: Optional[int] = None
) -> Iterator[tuple[int, int, int]]:
    """The (keep, xor, erase) masks of every BIT function of length n,
    one at a time, in lexicographic action order (position 0 slowest).

    alphabet=4 walks {Keep, Flip, Set0, Set1}; alphabet=5 adds Erase.
    The budget caps the alphabet^n patterns before the first is made.
    """
    if alphabet not in (4, 5):
        raise ValueError("alphabet must be 4 or 5")
    if n < 1:
        raise ValueError("a BIT function needs at least one position")
    if budget is not None and alphabet**n > budget:
        raise BudgetExceededError(
            f"{alphabet}^{n} = {alphabet**n} functions exceed the budget {budget}"
        )
    # Each choice packs its three mask bits into one int, keep at bit
    # 2n + i, xor at n + i and erase at i, so a pattern is one sum of
    # disjoint bits, split into its masks, with no per-action lookup.
    choices = [
        [(k << 2 * n | x << n | e) << i for k, x, e in ACTION_MASKS[:alphabet]]
        for i in range(n)
    ]
    word = (1 << n) - 1
    for cells in product(*choices):
        packed = sum(cells)
        yield packed >> 2 * n, packed >> n & word, packed & word


def enumerate_bit_functions(
    n: int, alphabet: int = 4, budget: Optional[int] = None
) -> Iterator[BITFunction]:
    """The BIT functions of bit_patterns(n, alphabet, budget), in its order."""
    return (BITFunction(n, *p) for p in bit_patterns(n, alphabet, budget))
