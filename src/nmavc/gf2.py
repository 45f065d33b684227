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
generator keeps its own R per mask, its decoder's results per mask (one
list over the words of that mask), and a table of its codewords
g.vec_mul(u) for every u.  Bitstrings appear only at the JSON boundary
(from_rows, row_strings).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, InvalidInstanceError

ERASURE_CHAR = "e"


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
    def _decode_tables(self) -> dict:
        """decode_table's lists on this generator, by erasure mask."""
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
        """Build from a non-empty list of equal-length rows, each a
        bitstring or a list of 0/1 ints; InvalidInstanceError otherwise."""
        if not isinstance(rows, (list, tuple)) or not rows:
            raise InvalidInstanceError(
                f"matrix rows must be a non-empty list, got {rows!r}"
            )
        strings = []
        for row in rows:
            if isinstance(row, (list, tuple)) and all(
                type(v) is int and v in (0, 1) for v in row
            ):
                row = "".join(map(str, row))
            if not isinstance(row, str) or not row or set(row) - {"0", "1"}:
                raise InvalidInstanceError(f"matrix row {row!r} is not a 0/1 row")
            strings.append(row)
        if len(set(map(len, strings))) > 1:
            raise InvalidInstanceError("matrix rows differ in length")
        return cls(tuple(map(bits_to_int, strings)), len(strings[0]))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

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

    def to_json(self) -> dict:
        return {"rows": self.row_strings()}

    @classmethod
    def from_json(cls, obj) -> "GF2Matrix":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InvalidInstanceError('matrix JSON must be {"rows": [...]}')
        return cls.from_rows(obj["rows"])


class SingularReport:
    """Returned instead of an inverse when the matrix is singular; reports
    compare and hash by rank."""

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank

    def __hash__(self) -> int:
        return hash(self.rank)


def gf2_invert(a: GF2Matrix):
    """Invert a square matrix by Gauss-Jordan; SingularReport on failure."""
    n = a.nrows
    if a.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    # Augment each row with the identity in bits n..2n-1.
    work = [a.rows[i] | (1 << (n + i)) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(n):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        rank += 1
    if rank < n:
        return SingularReport(rank=rank)
    mask = (1 << n) - 1
    inverse_rows = [0] * n
    for r in range(n):
        # After full elimination row r has a single 1 in some left column.
        col = (work[r] & mask).bit_length() - 1
        inverse_rows[col] = work[r] >> n
    return GF2Matrix(tuple(inverse_rows), n)


def rank_of_columns(g: GF2Matrix, cols: Iterable[int]) -> int:
    return g.submatrix_columns(tuple(cols)).rank()


class ReconstructionSet:
    """An m-subset R of non-erased columns with invertible G_R."""

    __slots__ = ("indices", "inverse")

    def __init__(self, indices: tuple[int, ...], inverse: GF2Matrix) -> None:
        self.indices = indices
        self.inverse = inverse


def select_reconstruction(g: GF2Matrix, erased: int) -> Optional[ReconstructionSet]:
    """Lexicographically least reconstruction set for an erasure mask.

    Greedy Gaussian elimination over columns [n] \\ E in increasing index
    order; depends only on the erasure mask.  Returns None when fewer
    than m independent columns survive.  Kept on g, one entry per mask.
    """
    cache = g._reconstructions
    if erased in cache:
        return cache[erased]
    m = g.nrows
    chosen: list[int] = []
    basis: list[int] = []  # column vectors packed over rows, reduced
    for j in range(g.ncols):
        if (erased >> j) & 1:
            continue
        col = 0
        for i in range(m):
            if (g.rows[i] >> j) & 1:
                col |= 1 << i
        reduced = col
        for vec in basis:
            low = vec & (-vec)
            if reduced & low:
                reduced ^= vec
        if reduced:
            basis.append(reduced)
            chosen.append(j)
            if len(chosen) == m:
                break
    if len(chosen) < m:
        result = None
    else:
        sub = g.submatrix_columns(chosen)
        inverse = gf2_invert(sub)
        if isinstance(inverse, SingularReport):  # pragma: no cover - greedy guarantees
            raise AssertionError("greedy selection produced a singular submatrix")
        result = ReconstructionSet(tuple(chosen), inverse)
    cache[erased] = result
    return result


def ecc_decode(g: GF2Matrix, bits: int, erased: int) -> Optional[int]:
    """Reconstruction-set decoder on the word (bits, erased).

    Returns the message u with u*G equal to bits on R, or None, the
    failure output, when no reconstruction set survives the erasures.
    Decodes afresh from the R kept on g for the mask; decode_table keeps
    a mask's results for every word.
    """
    if (bits | erased) >> g.ncols or bits & erased:
        raise ValueError(f"not a word of {{0,1,e}}^{g.ncols}: {(bits, erased)}")
    recon = select_reconstruction(g, erased)
    if recon is None:
        return None
    return recon.inverse.vec_mul(gather_bits(bits, recon.indices))


def decode_table(g: GF2Matrix, erased: int) -> list[Optional[int]]:
    """ecc_decode(g, bits, erased) for every bits in [0, 2^n), indexed by
    bits; an entry whose bits meet the erased positions is not a word,
    and is None.  Kept on g, one list per mask, built on the mask's first
    read with one ecc_decode call per word: 2^(n - |erased|) calls.
    """
    tables = g._decode_tables
    if erased not in tables:
        tables[erased] = [
            None if bits & erased else ecc_decode(g, bits, erased)
            for bits in range(1 << g.ncols)
        ]
    return tables[erased]


def delta_exact(g: GF2Matrix, p_star: Fraction, budget: int = 20) -> Fraction:
    """Exact decoding-failure probability under per-bit erasure p_star.

    Sums p^{|E|} (1-p)^{n-|E|} over the 2^n erasure patterns E for which
    the surviving columns of G have rank below m.
    """
    n = g.ncols
    if n > budget:
        raise BudgetExceededError(
            f"delta_exact enumerates 2^{n} erasure patterns, above the "
            f"budget of 2^{budget}; use delta_monte_carlo instead"
        )
    p = Fraction(p_star)
    if p < 0 or p > 1:
        raise InvalidInstanceError(f"erasure probability {p} outside [0,1]")
    p_pow = [p ** i for i in range(n + 1)]
    q_pow = [(1 - p) ** i for i in range(n + 1)]
    failure = Fraction(0)
    for mask in range(1 << n):
        if _erasure_fails(g, mask):
            erased_count = bin(mask).count("1")
            failure += p_pow[erased_count] * q_pow[n - erased_count]
    return failure


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
    n = g.ncols
    p = float(Fraction(p_star))
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.random((trials, n)) < p
    masks = (draws @ (1 << np.arange(n, dtype=np.int64))).tolist()
    failed = {mask: _erasure_fails(g, mask) for mask in set(masks)}
    failures = sum(failed[mask] for mask in masks)
    estimate = failures / trials
    ci95 = 1.96 * (estimate * (1.0 - estimate) / trials) ** 0.5
    return estimate, ci95
