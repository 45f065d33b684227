"""Independent oracles for the test suite.

These re-derive quantities by deliberately different routes than the
library (event maximization, bounded-denominator grids, subset
enumeration, big-integer arithmetic, Fraction dict products) so a defect
cannot hide on both sides of a check.  The reference laws are
FiniteDistributions over string-keyed outcomes (message bitstrings, BOT
and SAME_STAR); law_of and laws_of read the library's integer count
rows into them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Hashable, Mapping, Optional, Sequence, Tuple
from unittest.mock import patch

import nmavc.composed as composed
import nmavc.verifier as verifier
from nmavc import (
    AffineFunction,
    BITFunction,
    Channel,
    ComposedScheme,
    GF2Matrix,
    NMReport,
    StateSequence,
    StochasticCode,
    all_bitstrings,
    decompose,
    format_rational,
    optimal_simulator,
    parse_rational,
    tamper_map,
)
from nmavc.distributions import Marker
from nmavc.errors import (
    BudgetExceededError,
    InvalidCodeError,
    InvalidInstanceError,
    InvalidMixtureError,
    LPInfeasibleError,
    LPUnboundedError,
    NmavcError,
)
from nmavc.gf2 import bits_to_int, int_to_bits
from nmavc.simplex import solve_min

ZERO = Fraction(0)
ONE = Fraction(1)
ERASURE_CHAR = "e"
OUTPUT_SYMBOLS = ("0", "1", ERASURE_CHAR)


# ------------------------------------------------- reference distributions
# Exact Fraction laws keyed by outcome: the form every law took in the
# library before its laws became integer count rows over the outcome
# index.  Kept as the independent reference those rows are read into.

#: Decoder output signaling detected tampering / decoding failure.
BOT = Marker("bot")

#: Placeholder outcome meaning "the original message survives".
SAME_STAR = Marker("same*")

Outcome = Hashable


class InvalidDistributionError(NmavcError, ValueError):
    """Masses are negative or do not sum to exactly one."""


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


def outcomes(k: int) -> list:
    """The reference outcome of each library outcome index: the message
    bitstrings, then BOT and SAME_STAR."""
    return [*all_bitstrings(k), BOT, SAME_STAR]


def law_of(k: int, row: Sequence[int], total: int) -> FiniteDistribution:
    """The reference law of a count row over total (a law of width 2^k + 1
    or a simulator of width 2^k + 2)."""
    assert len(row) in ((1 << k) + 1, (1 << k) + 2), row
    return FiniteDistribution({o: Fraction(c, total) for o, c in zip(outcomes(k), row)})


def laws_of(k: int, rows: Sequence[Sequence[int]], total: int) -> dict[str, FiniteDistribution]:
    """The reference law of each message's row of a law table, keyed by
    the message bitstring."""
    assert len(rows) == 1 << k, rows
    return {m: law_of(k, row, total) for m, row in zip(all_bitstrings(k), rows)}


def law_table(laws: Mapping[str, FiniteDistribution]) -> tuple[list[list[int]], int]:
    """The law table (rows, total) of one reference law per message of
    {0,1}^k on its messages and BOT, over the lcm of the masses'
    denominators: the library's input form."""
    k = len(next(iter(laws)))
    universe = outcomes(k)[:-1]
    total = math.lcm(*(p.denominator for law in laws.values() for _, p in law.items()))
    rows = [[int(laws[m].probability(o) * total) for o in universe] for m in all_bitstrings(k)]
    return rows, total


class NotRepresentableError(NmavcError, ValueError):
    """A function cannot be expressed in the requested form."""


def gf2_identity(n: int) -> GF2Matrix:
    return GF2Matrix(tuple(1 << i for i in range(n)), n)


def gf2_zero(nrows: int, ncols: int) -> GF2Matrix:
    return GF2Matrix((0,) * nrows, ncols)


def gf2_matmul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """The product a*b over GF(2): row i is row i of a times b."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch")
    return GF2Matrix(tuple(b.vec_mul(row) for row in a.rows), b.ncols)


def identity_channel() -> Channel:
    return Channel.from_rows([[1, 0], [0, 1]])


def bsc(p) -> Channel:
    """The binary symmetric channel that flips a bit with probability p."""
    p = Fraction(p)
    return Channel.from_rows([[1 - p, p], [p, 1 - p]])


def with_erasure(ch: Channel, p) -> Channel:
    """The binary channel ch on {0,1,e}: its rows scaled by 1 - p, and
    erasure mass p."""
    p = Fraction(p)
    return Channel.from_rows([[a * (1 - p), b * (1 - p), p] for a, b in ch.rows])


#: The (keep, xor, erase) bits of each action letter at one position.
_LETTER_MASKS = {"K": (1, 0, 0), "F": (1, 1, 0), "0": (0, 0, 0), "1": (0, 1, 0),
                 "E": (0, 0, 1)}


#: The deterministic channel of each action letter, written out: rows are
#: the inputs 0 and 1, columns the outputs 0, 1 and e.
_ELEMENTARY_ROWS = {
    "K": [[1, 0, 0], [0, 1, 0]],
    "F": [[0, 1, 0], [1, 0, 0]],
    "0": [[1, 0, 0], [1, 0, 0]],
    "1": [[0, 1, 0], [0, 1, 0]],
    "E": [[0, 0, 1], [0, 0, 1]],
}


def elementary_channel(letter: str, extended: bool = False) -> Channel:
    """The deterministic channel of one action letter, over {0, 1} or,
    extended, {0, 1, e}."""
    return Channel.from_rows(
        [row if extended else row[:2] for row in _ELEMENTARY_ROWS[letter]]
    )


def bit_function(text: str) -> BITFunction:
    """The BIT function of an action string over K, F, 0, 1 and E,
    position 0 first."""
    keep = xor = erase = 0
    for i, ch in enumerate(text):
        k, x, e = _LETTER_MASKS[ch]
        keep, xor, erase = keep | k << i, xor | x << i, erase | e << i
    return BITFunction(len(text), keep, xor, erase)


def add_fractions_bigint(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d in lowest terms, via raw big-integer arithmetic."""
    num = a * d + c * b
    den = b * d
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def sd_event_oracle(p: FiniteDistribution, q: FiniteDistribution) -> Fraction:
    """Statistical distance as max_S |P(S) - Q(S)| over all events S.

    Exponential in the support size; use on small supports only.
    """
    outcomes = sorted(p.support | q.support, key=repr)
    best = Fraction(0)
    for r in range(len(outcomes) + 1):
        for event in combinations(outcomes, r):
            gap = abs(
                sum((p.probability(o) for o in event), Fraction(0))
                - sum((q.probability(o) for o in event), Fraction(0))
            )
            if gap > best:
                best = gap
    return best


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_simulators(outcomes, max_denominator: int):
    """Every distribution over `outcomes` whose masses share a denominator
    at most `max_denominator`, deduplicated."""
    outcomes = list(outcomes)
    seen = set()
    for q in range(1, max_denominator + 1):
        for combo in compositions(q, len(outcomes)):
            masses = tuple(Fraction(c, q) for c in combo)
            if masses in seen:
                continue
            seen.add(masses)
            yield FiniteDistribution(
                {o: m for o, m in zip(outcomes, masses) if m > 0}
            )


def grid_optimum(tamper_by_message, simulator_outcomes, max_denominator: int) -> Fraction:
    """Best worst-case distance over the bounded-denominator simulator grid."""
    best = None
    for d in grid_simulators(simulator_outcomes, max_denominator):
        worst = max(
            statistical_distance(t, apply_copy(d, m))
            for m, t in tamper_by_message.items()
        )
        if best is None or worst < best:
            best = worst
    return best


def lex_min_reconstruction(g, erased) -> tuple[int, ...] | None:
    """First m-subset of surviving columns (in lexicographic order) whose
    submatrix is invertible, by brute-force combination scan."""
    from nmavc.gf2 import rank_of_columns

    survivors = [j for j in range(g.ncols) if j not in erased]
    m = g.nrows
    for cols in combinations(survivors, m):
        if rank_of_columns(g, cols) == m:
            return cols
    return None


def reconstruction_sets(g) -> set[tuple[int, ...]]:
    """Every reconstruction set some erasure mask of g selects, by the
    brute-force scan of lex_min_reconstruction over all 2^n masks."""
    sets = set()
    for mask in range(1 << g.ncols):
        erased = {j for j in range(g.ncols) if mask >> j & 1}
        cols = lex_min_reconstruction(g, erased)
        if cols is not None:
            sets.add(cols)
    return sets


# ------------------------------------------------- words as strings over {0,1,e}
# The library's erasure layer works on (bits, erased) int pairs; these are
# the string-level routes it replaced, kept as reference implementations.

_APPLY = {
    "K": lambda ch: ch,
    "F": lambda ch: "1" if ch == "0" else "0",
    "0": lambda ch: "0",
    "1": lambda ch: "1",
    "E": lambda ch: ERASURE_CHAR,
}


def apply_actions(f: BITFunction, x: str) -> str:
    """Apply per-bit actions; Erase positions become 'e'."""
    if len(x) != f.n:
        raise ValueError(f"input length {len(x)} != {f.n}")
    return "".join(_APPLY[a](ch) for a, ch in zip(f.to_string(), x))


def split_word(y: str) -> tuple[int, int]:
    """(bits, erased) of a word over {0,1,e}, one character at a time."""
    bits = erased = 0
    for i, ch in enumerate(y):
        if ch == "1":
            bits |= 1 << i
        elif ch == ERASURE_CHAR:
            erased |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid symbol {ch!r} in erased word {y!r}")
    return bits, erased


def xor_strings(a: str, b: str) -> str:
    """The position-wise XOR of two bitstrings of one length."""
    return "".join("01"[x != y] for x, y in zip(a, b))


def ecc_encode(g: GF2Matrix, u: str) -> str:
    """Codeword u*G for a message bitstring u of length m, summed over
    G's row strings, with no packed arithmetic."""
    if len(u) != g.nrows:
        raise ValueError(f"message length {len(u)} != {g.nrows}")
    word = "0" * g.ncols
    for bit, row in zip(u, g.row_strings()):
        if bit == "1":
            word = xor_strings(word, row)
    return word


def erasure_set(y: str) -> frozenset[int]:
    """Positions of erased symbols in a word over {0,1,e}."""
    bad = set(y) - {"0", "1", ERASURE_CHAR}
    if bad:
        raise ValueError(f"invalid symbols {bad} in erased word {y!r}")
    return frozenset(i for i, ch in enumerate(y) if ch == ERASURE_CHAR)


@dataclass(frozen=True)
class DecodeResult:
    message: str
    indices: tuple[int, ...]


def ecc_decode_string(g: GF2Matrix, y: str) -> Optional[DecodeResult]:
    """Reconstruction-set decoder on a string word; None is the failure.

    R comes from the brute-force scan lex_min_reconstruction, and the
    message from a scan over all 2^m messages for the one whose codeword
    equals y on R; neither uses the library's elimination.
    """
    if len(y) != g.ncols:
        raise ValueError(f"word length {len(y)} != {g.ncols}")
    indices = lex_min_reconstruction(g, erasure_set(y))
    if indices is None:
        return None
    codewords = {u: ecc_encode(g, u) for u in all_bitstrings(g.nrows)}
    (message,) = [
        u for u, word in codewords.items() if all(word[j] == y[j] for j in indices)
    ]
    return DecodeResult(message, indices)


def linear_code(g: GF2Matrix) -> StochasticCode:
    """Deterministic linear code mG with table-inverse decoding."""
    k = g.nrows
    table = {}
    for m, label in enumerate(all_bitstrings(k)):
        word = bits_to_int(ecc_encode(g, label))
        if word in table:
            raise InvalidCodeError("generator matrix is not injective")
        table[word] = m
    return StochasticCode(k, g.ncols, 0, [(w,) for w in table], table)


def identity_code(k: int) -> StochasticCode:
    """The code that sends each message to itself, with no seed (k >= 1)."""
    return linear_code(gf2_identity(k))


def fixed_k2n5_code() -> StochasticCode:
    """The fixed k=2, n=5, rho=1 code of data/fixed_k2n5_code.json.  Its
    bit family has 213 distinct profiles, 204 of which need the LP when
    every member is solved, and 7 when certification skips the members
    a trivial simulator or a pooled optimal one keeps within the running
    epsilon; its certified epsilon is 2/3, first reached by KKK01."""
    path = Path(__file__).parent / "data" / "fixed_k2n5_code.json"
    return StochasticCode.from_json(json.loads(path.read_text()))


def compose_affine(first: AffineFunction, second: AffineFunction) -> AffineFunction:
    """The affine function u -> second(first(u)) = u*M1*M2 + (d1*M2 + d2)."""
    if first.out_dim != second.in_dim:
        raise ValueError("dimension mismatch in composition")
    matrix = gf2_matmul(first.matrix, second.matrix)
    return AffineFunction(matrix, second.matrix.vec_mul(first.delta) ^ second.delta)


def bit_to_affine(f: BITFunction) -> AffineFunction:
    """Diagonal affine form of an erasure-free BIT function.

    M is diagonal with a 1 exactly where the action preserves the input
    (Keep/Flip); delta has a 1 exactly where the action inverts or sets
    the bit (Flip/Set1).
    """
    if f.erase:
        raise NotRepresentableError(
            "Erase has no affine form on {0,1}; resolve erasures first"
        )
    keep, xor, _ = f.pattern
    rows = tuple(keep & (1 << i) for i in range(f.n))
    return AffineFunction(GF2Matrix(rows, f.n), xor)


def random_distribution(rng: random.Random, outcomes, max_denominator: int = 12):
    """Random exact distribution: q balls thrown into len(outcomes) bins."""
    outcomes = list(outcomes)
    q = rng.randint(1, max_denominator)
    counts = [0] * len(outcomes)
    for _ in range(q):
        counts[rng.randrange(len(outcomes))] += 1
    return FiniteDistribution(
        {o: Fraction(c, q) for o, c in zip(outcomes, counts) if c}
    )


def random_binary_channel(rng: random.Random, max_denominator: int = 12):
    """Random exactly-stochastic 2x2 channel with small denominators."""
    den1 = rng.randint(1, max_denominator)
    den2 = rng.randint(1, max_denominator)
    w11 = Fraction(rng.randint(0, den1), den1)
    w21 = Fraction(rng.randint(0, den2), den2)
    return Channel.from_rows([[w11, 1 - w11], [w21, 1 - w21]])


def random_extended_channel(rng: random.Random, max_denominator: int = 10):
    """Random extended channel with shared erasure mass."""
    den = rng.randint(1, max_denominator)
    p = Fraction(rng.randint(0, den - 1) if den > 1 else 0, den)
    rows = []
    for _ in range(2):
        den2 = rng.randint(1, max_denominator)
        w0 = Fraction(rng.randint(0, den2), den2) * (1 - p)
        rows.append([w0, (1 - p) - w0, p])
    return Channel.from_rows(rows)


def fraction_solve_min(
    c: Sequence[Fraction],
    a_ub: Sequence[Mapping[int, Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Mapping[int, Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> tuple[list[Fraction], Fraction]:
    """Exact LP solve; returns (x, objective value).

    The gcd-normalizing dense `Fraction` tableau that `nmavc.simplex.solve_min`
    replaced, kept as an oracle: both must take the same Bland pivots and
    so return the same vertex.  It reads the same column-to-coefficient
    rows and writes each out at width len(c).

    Raises LPInfeasibleError / LPUnboundedError.  Fully deterministic:
    Bland's rule picks the lowest-index entering column and, on ratio
    ties, the row whose basic variable has the lowest index.
    """
    n = len(c)
    c = [Fraction(v) for v in c]

    def dense(row: Mapping[int, Fraction]) -> list[Fraction]:
        out = [ZERO] * n
        for j, v in row.items():
            out[j] = Fraction(v)
        return out

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for row, b in zip(a_eq, b_eq):
        row = dense(row)
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)
        kinds.append("eq")
    for row, b in zip(a_ub, b_ub):
        row = dense(row)
        b = Fraction(b)
        if b < 0:
            # -row . x >= -b with -b > 0: needs a surplus and an artificial.
            rows.append([-v for v in row])
            rhs.append(-b)
            kinds.append("ge")
        else:
            rows.append(row)
            rhs.append(b)
            kinds.append("ub")
    m = len(rows)

    n_slack = sum(1 for kind in kinds if kind in ("ub", "ge"))
    n_art = sum(1 for kind in kinds if kind in ("eq", "ge"))
    width = n + n_slack + n_art
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + n_slack
    artificial_cols = set(range(art_at, width))
    for i, (row, kind) in enumerate(zip(rows, kinds)):
        full = row + [ZERO] * (n_slack + n_art) + [rhs[i]]
        if kind == "ub":
            full[slack_at] = ONE
            basis.append(slack_at)
            slack_at += 1
        elif kind == "ge":
            full[slack_at] = -ONE
            slack_at += 1
            full[art_at] = ONE
            basis.append(art_at)
            art_at += 1
        else:
            full[art_at] = ONE
            basis.append(art_at)
            art_at += 1
        tableau.append(full)

    def reduced_costs(cost: list[Fraction]) -> list[Fraction]:
        obj = cost + [ZERO]
        for i, bvar in enumerate(basis):
            cb = cost[bvar]
            if cb != 0:
                row = tableau[i]
                obj = [o - cb * v for o, v in zip(obj, row)]
        return obj

    def pivot(i: int, j: int) -> None:
        row = tableau[i]
        factor = row[j]
        if factor != 1:
            tableau[i] = row = [v / factor for v in row]
        for r in range(m):
            if r != i and tableau[r][j] != 0:
                f = tableau[r][j]
                tableau[r] = [v - f * w for v, w in zip(tableau[r], row)]
        basis[i] = j

    def iterate(obj: list[Fraction], banned: set[int]) -> list[Fraction]:
        while True:
            entering = None
            for j in range(width):
                if j in banned:
                    continue
                if obj[j] < 0:
                    entering = j
                    break
            if entering is None:
                return obj
            leaving = None
            best_ratio: Optional[Fraction] = None
            for i in range(m):
                coef = tableau[i][entering]
                if coef > 0:
                    ratio = tableau[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                raise LPUnboundedError("objective unbounded below")
            factor = obj[entering]
            pivot(leaving, entering)
            row = tableau[leaving]
            obj = [o - factor * v for o, v in zip(obj, row)]

    if n_art:
        phase1_cost = [ZERO] * width
        for j in artificial_cols:
            phase1_cost[j] = ONE
        obj = iterate(reduced_costs(phase1_cost), banned=set())
        if -obj[-1] > 0:
            raise LPInfeasibleError(f"phase 1 optimum {-obj[-1]} > 0")
        # Drive any artificial still in the basis out of it, or drop the row.
        drop: list[int] = []
        for i in range(m):
            if basis[i] in artificial_cols:
                target = None
                for j in range(width):
                    if j not in artificial_cols and tableau[i][j] != 0:
                        target = j
                        break
                if target is None:
                    drop.append(i)
                else:
                    pivot(i, target)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(tableau)

    phase2_cost = c + [ZERO] * (n_slack + n_art)
    obj = iterate(reduced_costs(phase2_cost), banned=artificial_cols)

    x = [ZERO] * width
    for i, bvar in enumerate(basis):
        x[bvar] = tableau[i][-1]
    solution = x[:n]
    value = sum((ci * xi for ci, xi in zip(c, solution)), ZERO)
    return solution, value


def recorded_lps(function):
    """function()'s result, and the arguments of every solve_min call it
    made through nmavc.verifier."""
    recorded = []

    def record(*args):
        recorded.append(args)
        return solve_min(*args)

    with patch.object(verifier, "solve_min", record):
        result = function()
    return result, recorded


def counting(monkeypatch, module, name):
    """Count calls to module.<name> wherever module, verifier or
    composed bind it."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for owner in {module, verifier, composed}:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, wrapper)
    return calls


def full_simulator_lp(
    rows: Sequence[Sequence[int]], total: int
) -> tuple[list[int], int]:
    """solve_min's (x, d) on the simulator LP over every (message,
    outcome) pair: the form verifier._simulator_lp had before it dropped
    the slack and row of each zero count, kept as the reference for its
    optimum.  Like _simulator_lp it is in count units, every variable
    total times its probability, so epsilon is x[-1] / (d * total).

    Columns: D(z) for every outcome index z (the messages, bot, same*),
    one slack per (message, outcome) bounding the positive part of
    T_m - Copy(D, m), and epsilon last.
    """
    ny = len(rows) + 1  # a law's outcomes: the messages and bot
    nd = ny + 1  # a simulator's: and same*
    star = nd - 1
    n_vars = nd + len(rows) * ny + 1
    eps_col = n_vars - 1

    a_ub: list[dict[int, int]] = []
    b_ub: list[int] = []
    for m, law in enumerate(rows):
        t_cols = range(nd + m * ny, nd + (m + 1) * ny)
        for y, (t_col, count) in enumerate(zip(t_cols, law)):
            row = {y: -1, t_col: -1}
            if y == m:
                row[star] = -1
            a_ub.append(row)
            b_ub.append(-count)
        row = dict.fromkeys(t_cols, 1)
        row[eps_col] = -1
        a_ub.append(row)
        b_ub.append(0)
    c = [0] * n_vars
    c[eps_col] = 1
    return solve_min(c, a_ub, b_ub, [dict.fromkeys(range(nd), 1)], [total])


def rational_simulator_lp(
    rows: Sequence[Sequence[int]], total: int
) -> tuple[tuple[int, ...], int]:
    """The optimal simulator of the support LP verifier._simulator_lp
    posed in probabilities before it moved to count units: right-hand
    sides -count/total and sum D = 1, solved by fraction_solve_min and
    written as a row over the lcm of its reduced denominators.

    Columns and rows are in _simulator_lp's order: D(z) for every outcome
    index z, one slack per (message, outcome in the support of T_m), and
    epsilon last; message m's support rows, then its epsilon row.
    """
    nd = len(rows) + 2  # a simulator's outcomes: the messages, bot, same*
    star = nd - 1
    eps_col = nd + sum(1 for law in rows for count in law if count)

    a_ub: list[dict[int, int]] = []
    b_ub: list[Fraction] = []
    t_col = nd
    for m, law in enumerate(rows):
        t_cols = []
        for y, count in enumerate(law):
            if count:
                row = {y: -1, t_col: -1}
                if y == m:
                    row[star] = -1
                a_ub.append(row)
                b_ub.append(Fraction(-count, total))
                t_cols.append(t_col)
                t_col += 1
        row = dict.fromkeys(t_cols, 1)
        row[eps_col] = -1
        a_ub.append(row)
        b_ub.append(ZERO)
    c = [0] * (eps_col + 1)
    c[eps_col] = 1
    x, _ = fraction_solve_min(c, a_ub, b_ub, [dict.fromkeys(range(nd), 1)], [ONE])
    scale = math.lcm(*(v.denominator for v in x[:nd]))
    return tuple(int(v * scale) for v in x[:nd]), scale


def mix(components) -> FiniteDistribution:
    """Pointwise convex combination of (Fraction weight, distribution)
    pairs, one component at a time; the weights must be non-negative and
    sum to exactly 1."""
    masses: dict = {}
    total_weight = ZERO
    for weight, dist in components:
        weight = Fraction(weight)
        if weight < 0:
            raise InvalidMixtureError(f"negative mixture weight {weight}")
        total_weight += weight
        for outcome in dist:
            masses[outcome] = masses.get(outcome, ZERO) + weight * dist.probability(outcome)
    if total_weight != ONE:
        raise InvalidMixtureError(
            f"mixture weights sum to {total_weight}, expected exactly 1"
        )
    return FiniteDistribution(masses)


def fraction_weights(seq: StateSequence) -> list[tuple[str, Fraction]]:
    """StateSequence.mixture_weights as (action string, Fraction weight)
    pairs, each pattern's masks read back as its BIT function's letters."""
    denominator, patterns = seq.mixture_weights()
    return [(BITFunction(seq.n, *pattern).to_string(), Fraction(w, denominator))
            for pattern, w in patterns]


def tamper_distribution_channel_mixture(
    code: StochasticCode, seq: StateSequence, m: int
) -> FiniteDistribution:
    """Channel tamper law of message m via the elementary-pattern mixture
    of the patterns' tamper laws (cross-check)."""
    components = []
    for pattern, weight in fraction_weights(seq):
        rows, total = tamper_map(code, bit_function(pattern))
        components.append((weight, law_of(code.k, rows[m], total)))
    return mix(components)


def mixture_weights_walk(seq: StateSequence):
    """Elementary patterns with their product weights, zeros skipped,
    by a recursive walk over freshly computed decompositions: the order
    StateSequence.mixture_weights must reproduce.  Each support's masks
    are read back as their action letters."""
    letter_of = {masks: letter for letter, masks in _LETTER_MASKS.items()}
    supports = [
        [(letter_of[masks], a) for masks, a in decompose(ch).support()]
        for ch in seq.channels
    ]

    def walk(i: int, letters: str, weight: Fraction):
        if i == len(supports):
            yield letters, weight
            return
        for letter, a in supports[i]:
            yield from walk(i + 1, letters + letter, weight * a)

    yield from walk(0, "", Fraction(1))


def row_support(ch, x: int) -> list[tuple[str, Fraction]]:
    """(output symbol, probability) pairs of input bit x, zeros skipped."""
    return [(sym, p) for sym, p in zip(OUTPUT_SYMBOLS, ch.rows[x]) if p > 0]


def output_distribution(seq: StateSequence, x: str) -> FiniteDistribution:
    """Exact product distribution of the output word given input x, as a
    dict of Fraction masses grown one position at a time."""
    if len(x) != seq.n:
        raise ValueError(f"input length {len(x)} != {seq.n}")
    acc = {"": Fraction(1)}
    for ch, bit in zip(seq.channels, x):
        row = row_support(ch, int(bit))
        nxt: dict[str, Fraction] = {}
        for prefix, wp in acc.items():
            for sym, p in row:
                nxt[prefix + sym] = wp * p
        acc = nxt
    return FiniteDistribution(acc)


def sample_output(seq: StateSequence, x: str, seed_or_rng) -> str:
    """One draw from the output law; deterministic given the seed."""
    if len(x) != seq.n:
        raise ValueError(f"input length {len(x)} != {seq.n}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    out = []
    for ch, bit in zip(seq.channels, x):
        row = row_support(ch, int(bit))
        u = rng.random()
        cumulative = 0.0
        chosen = row[-1][0]
        for sym, p in row:
            cumulative += float(p)
            if u < cumulative:
                chosen = sym
                break
        out.append(chosen)
    return "".join(out)


def product_tamper_distribution(
    code: StochasticCode, seq: StateSequence, m: int
) -> FiniteDistribution:
    """Law of dec(y) under seq for message m by the Fraction dict product:
    every output word of every seed decoded one at a time (no integer
    scaling, no decoder table)."""
    share = Fraction(1, code.seed_count)
    named = outcomes(code.k)
    masses: dict = {}
    for x in code.enc[m]:
        for word, p in output_distribution(seq, int_to_bits(x, code.n)).items():
            outcome = named[code.decode(*split_word(word))]
            masses[outcome] = masses.get(outcome, Fraction(0)) + share * p
    return FiniteDistribution(masses)


def affine_tamper_distribution(
    code: StochasticCode, f: AffineFunction, m: int
) -> FiniteDistribution:
    """Law of dec(f(x)) for message m and an affine map f, each tampered
    word the string product ecc_encode(M, x) XOR delta."""
    share = Fraction(1, code.seed_count)
    named = outcomes(code.k)
    masses: dict = {}
    for x in code.enc[m]:
        word = xor_strings(ecc_encode(f.matrix, int_to_bits(x, code.n)), f.delta_string())
        outcome = named[code.decode(bits_to_int(word))]
        masses[outcome] = masses.get(outcome, Fraction(0)) + share
    return FiniteDistribution(masses)


def brute_force_channel_laws(code: StochasticCode, seq: StateSequence) -> list[list[Fraction]]:
    """Per message, the probability of each outcome index of decode(y):
    the sum, over every seed's codeword c and every output word y of the
    sequence's alphabet, zero-probability words included, of
    Prod_j W_j(y_j | c_j) / 2^rho.  No sparsity, no integer scaling and
    no decoder table."""
    symbols = OUTPUT_SYMBOLS[:len(seq.channels[0].rows[0])]
    laws = []
    for words in code.enc:
        law = [Fraction(0)] * (len(code.enc) + 1)
        for x in words:
            c = int_to_bits(x, code.n)
            for y in product(symbols, repeat=code.n):
                p = Fraction(1, len(words))
                for ch, bit, sym in zip(seq.channels, c, y):
                    p *= ch.rows[int(bit)][symbols.index(sym)]
                law[code.decode(*split_word("".join(y)))] += p
        laws.append(law)
    return laws


def mixture_output_distribution(seq: StateSequence, x: str) -> FiniteDistribution:
    """Output law reconstructed as the elementary-pattern mixture.

    Cross-validation path: must equal output_distribution(seq, x) exactly.
    """
    if len(x) != seq.n:
        raise ValueError(f"input length {len(x)} != {seq.n}")
    components = [
        (weight, FiniteDistribution.point(apply_actions(bit_function(pattern), x)))
        for pattern, weight in fraction_weights(seq)
    ]
    return mix(components)


def composed_tamper_distribution(
    scheme: ComposedScheme,
    seq: StateSequence,
    m: int,
    budget: Optional[int] = None,
) -> FiniteDistribution:
    """Exact law of the composed decode of message m under an extended
    state sequence."""
    if not seq.extended:
        raise InvalidInstanceError("composed verification uses extended sequences")
    if seq.n != scheme.n:
        raise InvalidInstanceError(f"sequence length {seq.n} != n={scheme.n}")
    if not 0 <= m < 1 << scheme.k:
        raise InvalidInstanceError(f"message {m} outside [0, 2^{scheme.k})")
    cost = (3 ** scheme.n) * scheme.inner.seed_count
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"direct channel experiment needs up to {cost} terms, budget {budget}"
        )
    return product_tamper_distribution(scheme, seq, m)


# ------------------------------------------------- every member solved
# certify_family solves only the members that can raise the running
# epsilon; this reference solves every one, with no profile, cache or
# bound between the tampering experiment and the LP.

@dataclass
class SolvedFamily:
    """Every distinct member's optimal report, in list order, and the
    first member to reach their maximum."""

    epsilon: Fraction
    worst: object
    worst_report: NMReport
    reports: dict

    @property
    def size(self) -> int:
        return len(self.reports)


def certify_every_member(
    code: StochasticCode, functions, stop_at_or_above: Optional[Fraction] = None
) -> Optional[SolvedFamily]:
    """The family certificate with each member's tamper_map handed
    straight to optimal_simulator; None as soon as the running maximum
    reaches stop_at_or_above."""
    reports: dict = {}
    epsilon = None
    for f in functions:
        if f not in reports:
            reports[f] = optimal_simulator(*tamper_map(code, f))
        if epsilon is None or reports[f].epsilon > epsilon:
            epsilon, worst = reports[f].epsilon, f
        if stop_at_or_above is not None and epsilon >= stop_at_or_above:
            return None
    return SolvedFamily(epsilon, worst, reports[worst], reports)


def trivial_simulator_bound(laws: Mapping[str, FiniteDistribution]) -> Fraction:
    """min over D in {same*, T_m' for every m'} of max_m SD(T_m, Copy(D, m)),
    each distance maximized over events in Fractions."""
    candidates = [FiniteDistribution.point(SAME_STAR), *laws.values()]
    return min(
        max(sd_event_oracle(law, apply_copy(d, m)) for m, law in laws.items())
        for d in candidates
    )


def profile_bound_by_gaps(laws: Sequence[Sequence[int]], total: int) -> Fraction:
    """The least trivial-simulator error of a law table, each simulator's
    gaps scaled to 2 * total * L (L = 1 for same*, total for a law) and
    compared over 2 * total^2: the bound verifier._trivially_within holds
    against epsilon without computing it."""

    def gaps(d, scale):
        for m, law in enumerate(laws):
            copied = list(d[:-1])
            copied[m] += d[-1]
            yield sum(abs(c * scale - total * p) for c, p in zip(law, copied))

    star = max(gaps((0,) * len(laws[0]) + (1,), 1))
    own = min(max(gaps((*law, 0), total)) for law in laws)
    return Fraction(min(star * total, own), 2 * total * total)


# ------------------------------------------------- fixtures the library dropped
# Generators, distributions and parsers only the tests use.

def uniform(outcomes) -> FiniteDistribution:
    """Uniform distribution over a list; repeated outcomes add up."""
    outcomes = list(outcomes)
    if not outcomes:
        raise InvalidDistributionError("uniform over empty set")
    share = Fraction(1, len(outcomes))
    masses: dict = {}
    for outcome in outcomes:
        masses[outcome] = masses.get(outcome, ZERO) + share
    return FiniteDistribution(masses)


def ds_mixture(seq: StateSequence, simulators, member_of=None) -> FiniteDistribution:
    """Sequence simulator D_s in Fractions, pattern by pattern over
    mixture_weights_walk: each pattern's member (its BIT function, or
    member_of[pattern]) adds its simulator at the pattern's own weight."""
    return mix(
        (weight, simulators[_member(pattern, member_of)])
        for pattern, weight in mixture_weights_walk(seq)
    )


def mixture_bounds(seq: StateSequence, errors, member_of=None) -> tuple[Fraction, Fraction]:
    """(weighted bound, pattern max) of the members' errors, pattern by
    pattern in Fractions over mixture_weights_walk."""
    weighted, pattern_max = ZERO, ZERO
    for pattern, weight in mixture_weights_walk(seq):
        eps = errors[_member(pattern, member_of)]
        weighted += weight * eps
        pattern_max = max(pattern_max, eps)
    return weighted, pattern_max


def _member(pattern, member_of):
    return bit_function(pattern) if member_of is None else member_of[pattern]


def min_distance(g: GF2Matrix) -> int:
    """Minimum distance by exhaustive codeword enumeration (m <= 12)."""
    m = g.nrows
    if m > 12:
        raise BudgetExceededError("min_distance enumerates 2^m codewords; m <= 12")
    best = g.ncols + 1
    for u in range(1, 1 << m):
        weight = bin(g.vec_mul(u)).count("1")
        if weight < best:
            best = weight
    return best


def single_parity(m: int) -> GF2Matrix:
    """[I_m | 1]: appends one even-parity bit."""
    rows = tuple((1 << i) | (1 << m) for i in range(m))
    return GF2Matrix(rows, m + 1)


def hamming_7_4() -> GF2Matrix:
    """Systematic Hamming(7,4) generator."""
    return GF2Matrix.from_rows(
        [
            "1000110",
            "0100101",
            "0010011",
            "0001111",
        ]
    )


def random_full_rank(m: int, n: int, seed_or_rng) -> GF2Matrix:
    """Seeded random m x n generator matrix of full row rank."""
    if m > n:
        raise InvalidInstanceError(f"full row rank needs m <= n, got {m} x {n}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        g = GF2Matrix(rows, n)
        if g.rank() == m:
            return g


def outcome_from_json(text: str):
    """The outcome a distribution's JSON key names."""
    if text == "bot":
        return BOT
    if text == "same*":
        return SAME_STAR
    return text


def distribution_from_json(obj: dict) -> FiniteDistribution:
    """Parse FiniteDistribution.to_json's {outcome: rational string}."""
    return FiniteDistribution(
        {outcome_from_json(key): parse_rational(value) for key, value in obj.items()}
    )
