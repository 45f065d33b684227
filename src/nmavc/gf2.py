"""Bit-packed GF(2) linear algebra and a linear erasure code on top.

Matrix rows are Python ints; bit ``i`` of a row is the entry in column
``i``, so a row operation is a single XOR and desk-scale widths
(n <= 64) fit one machine word per row.

A word over {0,1,e}^n is a pair of ints (bits, erased): bit i of each
stands for position i, as bits_to_int packs a bitstring, and bits is 0
on erased.  Encoding a message u is g.vec_mul(u).  The erasure decoder
follows the reconstruction-set discipline: it picks the
lexicographically least set R of m non-erased columns whose generator
submatrix G_R is invertible and outputs y_R * G_R^{-1}.  The choice of R
depends only on the erasure mask, never on received bit values.  Each
generator keeps its own R per mask, one entry per mask (mask_decoder)
holding R, R's mask and its decoder's results (one list over the words
of that mask, built only where an R survives), a table of its codewords
g.vec_mul(u) for every u, and the composed layer's induced maps.
Bitstrings appear only at the JSON boundary (from_rows, row_strings).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .distributions import Record
from .errors import BudgetExceededError, InvalidInstanceError


def bits_to_int(bits: str) -> int:
    """Pack a bitstring; bit i of the result is bits[i]."""
    value = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            value |= 1 << i
        elif ch != "0":
            raise ValueError(f"not a bitstring: {bits!r}")
    return value


def int_to_bits(value: int, n: int) -> str:
    return "".join("1" if (value >> i) & 1 else "0" for i in range(n))


def gather_bits(word: int, positions: Sequence[int]) -> int:
    """Bit i of the result is bit positions[i] of word."""
    packed = 0
    for i, j in enumerate(positions):
        if (word >> j) & 1:
            packed |= 1 << i
    return packed


def words_in_order(n: int, erasures: bool = False) -> list[tuple[int, int]]:
    """Every word over {0,1}^n (or {0,1,e}^n) as a (bits, erased) pair, in
    lexicographic order of the symbols 0 < 1 < e, position 0 most
    significant: the order of all_bitstrings."""
    symbols = ((0, 0), (1, 0), (0, 1)) if erasures else ((0, 0), (1, 0))
    words = [(0, 0)]
    for i in reversed(range(n)):
        words = [(bits | b << i, erased | e << i)
                 for b, e in symbols for bits, erased in words]
    return words


class GF2Matrix:
    """Dense matrix over GF(2) with bit-packed integer rows; matrices
    compare and hash by (rows, ncols)."""

    def __init__(self, rows: tuple[int, ...], ncols: int) -> None:
        if ncols < 0:
            raise ValueError("negative column count")
        mask = (1 << ncols) - 1
        for row in rows:
            if row < 0 or row & ~mask:
                raise ValueError("row has bits outside the column range")
        self.rows = rows
        self.ncols = ncols

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @cached_property
    def _reconstructions(self) -> dict:
        """select_reconstruction's results on this generator, by erasure mask."""
        return {}

    @cached_property
    def _mask_decoders(self) -> dict:
        """mask_decoder's entries on this generator, by erasure mask."""
        return {}

    @cached_property
    def _closed_forms(self) -> dict:
        """composed's induced maps on this generator and their tables
        over the inner words, by reconstruction set and the pattern's
        masks on it."""
        return {}

    @cached_property
    def codewords(self) -> tuple[int, ...]:
        """vec_mul(u) for every u in [0, 2^nrows), indexed by u, built by
        XOR doubling: each row doubles the table so far."""
        table = [0]
        for row in self.rows:
            table += [word ^ row for word in table]
        return tuple(table)

    @classmethod
    def from_rows(cls, rows: Sequence) -> "GF2Matrix":
        """Build from a non-empty list of equal-length bitstring rows;
        InvalidInstanceError otherwise."""
        if not isinstance(rows, (list, tuple)) or not rows:
            raise InvalidInstanceError(
                f"matrix rows must be a non-empty list, got {rows!r}"
            )
        for row in rows:
            if not isinstance(row, str) or not row or set(row) - {"0", "1"}:
                raise InvalidInstanceError(f"matrix row {row!r} is not a 0/1 row")
        if len(set(map(len, rows))) > 1:
            raise InvalidInstanceError("matrix rows differ in length")
        return cls(tuple(map(bits_to_int, rows)), len(rows[0]))

    def row_strings(self) -> list[str]:
        return [int_to_bits(row, self.ncols) for row in self.rows]

    def vec_mul(self, u: int) -> int:
        """Row vector times matrix: bit i of u selects row i."""
        acc = 0
        for row in self.rows:
            if not u:
                break
            if u & 1:
                acc ^= row
            u >>= 1
        return acc

    def submatrix_columns(self, cols: Sequence[int]) -> "GF2Matrix":
        return GF2Matrix(tuple(gather_bits(row, cols) for row in self.rows), len(cols))

    def rank(self) -> int:
        work = list(self.rows)
        rank = 0
        for col in range(self.ncols):
            pivot = None
            for r in range(rank, len(work)):
                if (work[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for r in range(len(work)):
                if r != rank and (work[r] >> col) & 1:
                    work[r] ^= work[rank]
            rank += 1
            if rank == len(work):
                break
        return rank

    @classmethod
    def from_json(cls, obj) -> "GF2Matrix":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InvalidInstanceError('matrix JSON must be {"rows": [...]}')
        return cls.from_rows(obj["rows"])


def rank_of_columns(g: GF2Matrix, cols: Iterable[int]) -> int:
    return g.submatrix_columns(tuple(cols)).rank()


class ReconstructionSet(Record):
    """An m-subset R of non-erased columns with invertible G_R."""

    __slots__ = ("indices", "inverse")


def select_reconstruction(g: GF2Matrix, erased: int) -> Optional[ReconstructionSet]:
    """Lexicographically least reconstruction set for an erasure mask.

    One Gauss-Jordan pass over the rows of g, each augmented with its
    identity row in bits n..n+m-1, pivots on the columns outside the mask
    in increasing order until m pivots are found.  The pivot columns are
    R; the reduced rows read E*G_R = I, so their identity parts are the
    rows of G_R^{-1}.  Depends only on the mask; None when fewer than m
    pivots survive.  Kept on g, one entry per mask.
    """
    cache = g._reconstructions
    if erased in cache:
        return cache[erased]
    n, m = g.ncols, g.nrows
    work = [row | 1 << (n + i) for i, row in enumerate(g.rows)]
    chosen: list[int] = []
    for j in range(n):
        if len(chosen) == m:
            break
        if (erased >> j) & 1:
            continue
        rank = len(chosen)
        for r in range(rank, m):
            if (work[r] >> j) & 1:
                break
        else:
            continue
        work[rank], work[r] = work[r], work[rank]
        for i in range(m):
            if i != rank and (work[i] >> j) & 1:
                work[i] ^= work[rank]
        chosen.append(j)
    result = None
    if len(chosen) == m:
        inverse = GF2Matrix(tuple(row >> n for row in work), m)
        result = ReconstructionSet(tuple(chosen), inverse)
    cache[erased] = result
    return result


def ecc_decode(g: GF2Matrix, bits: int, erased: int) -> Optional[int]:
    """Reconstruction-set decoder on the word (bits, erased).

    Returns the message u with u*G equal to bits on R, or None, the
    failure output, when no reconstruction set survives the erasures.
    Decodes afresh from the R kept on g for the mask; mask_decoder keeps
    a mask's results for every word.
    """
    if (bits | erased) >> g.ncols or bits & erased:
        raise ValueError(f"not a word of {{0,1,e}}^{g.ncols}: {(bits, erased)}")
    recon = select_reconstruction(g, erased)
    if recon is None:
        return None
    return recon.inverse.vec_mul(gather_bits(bits, recon.indices))


def mask_decoder(
    g: GF2Matrix, erased: int
) -> Optional[tuple[ReconstructionSet, int, list[Optional[int]]]]:
    """(R, R's mask, decode table) of an erasure mask, or None when no
    reconstruction set R survives it.

    R's mask has bit j set for each j in R.  The decode table holds
    ecc_decode(g, bits, erased) for every bits in [0, 2^n), indexed by
    bits; an entry whose bits meet the erased positions is not a word,
    and is None.  Kept on g, one entry per mask, built on the mask's
    first read with one ecc_decode call per word: 2^(n - |erased|) calls.
    """
    entries = g._mask_decoders
    if erased not in entries:
        recon = select_reconstruction(g, erased)
        entries[erased] = None if recon is None else (
            recon,
            sum(1 << j for j in recon.indices),
            [None if bits & erased else ecc_decode(g, bits, erased)
             for bits in range(1 << g.ncols)],
        )
    return entries[erased]


#: The default cap on n for an exact enumeration of 2^n erasure patterns.
MAX_EXACT_LENGTH = 20


def delta_exact(g: GF2Matrix, p_star: Fraction, budget: int = MAX_EXACT_LENGTH) -> Fraction:
    """Exact decoding-failure probability under per-bit erasure p_star.

    Sums p^{|E|} (1-p)^{n-|E|} over the 2^n erasure patterns E for which
    the surviving columns of G have rank below m.
    """
    p = _erasure_probability(p_star)
    n = g.ncols
    if n > budget:
        raise BudgetExceededError(
            f"delta_exact enumerates 2^{n} erasure patterns, above the "
            f"budget of 2^{budget}; use delta_monte_carlo instead"
        )
    p_pow = [p ** i for i in range(n + 1)]
    q_pow = [(1 - p) ** i for i in range(n + 1)]
    failure = Fraction(0)
    for mask in range(1 << n):
        if _erasure_fails(g, mask):
            erased_count = bin(mask).count("1")
            failure += p_pow[erased_count] * q_pow[n - erased_count]
    return failure


def _erasure_probability(p_star) -> Fraction:
    p = Fraction(p_star)
    if p < 0 or p > 1:
        raise InvalidInstanceError(f"erasure probability {p} outside [0,1]")
    return p


def _erasure_fails(g: GF2Matrix, erased: int) -> bool:
    """Whether the columns of g outside the erasure mask have rank below m."""
    survivors = [j for j in range(g.ncols) if not (erased >> j) & 1]
    return len(survivors) < g.nrows or rank_of_columns(g, survivors) < g.nrows


def delta_monte_carlo(
    g: GF2Matrix, p_star: Fraction, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the decoding-failure probability.

    Returns (estimate, 95% normal-approximation half-width).  Erasure
    patterns are drawn with the counter-based Philox generator so the
    result is deterministic given the seed and independent of chunking.
    numpy, for the Philox stream, is imported here only: the exact
    routes run on Python ints.
    """
    import numpy as np

    if trials < 1:
        raise InvalidInstanceError("trials must be >= 1")
    if seed < 0:
        raise InvalidInstanceError("seed must be >= 0")
    p = float(_erasure_probability(p_star))
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.random((trials, g.ncols)) < p
    # Masks are packed 62 columns at a time, so no int64 weight overflows.
    masks = [0] * trials
    for start in range(0, g.ncols, 62):
        block = draws[:, start:start + 62]
        packed = (block @ (1 << np.arange(block.shape[1], dtype=np.int64))).tolist()
        masks = [mask | bits << start for mask, bits in zip(masks, packed)]
    failed = {mask: _erasure_fails(g, mask) for mask in set(masks)}
    failures = sum(failed[mask] for mask in masks)
    estimate = failures / trials
    ci95 = 1.96 * (estimate * (1.0 - estimate) / trials) ** 0.5
    return estimate, ci95
