"""Independent oracles for the test suite.

These re-derive quantities by deliberately different routes than the
library (event maximization, bounded-denominator grids, subset
enumeration, big-integer arithmetic, Fraction dict products) so a defect
cannot hide on both sides of a check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from nmavc import (
    BITFunction,
    ComposedScheme,
    FiniteDistribution,
    StateSequence,
    StochasticCode,
    apply_copy,
    mix,
    tamper_distribution_fn,
)
from nmavc.errors import (
    BudgetExceededError,
    InvalidInstanceError,
    LPInfeasibleError,
    LPUnboundedError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    from nmavc import statistical_distance

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
    from nmavc import BinaryChannel

    den1 = rng.randint(1, max_denominator)
    den2 = rng.randint(1, max_denominator)
    w11 = Fraction(rng.randint(0, den1), den1)
    w21 = Fraction(rng.randint(0, den2), den2)
    return BinaryChannel.from_rows([[w11, 1 - w11], [w21, 1 - w21]])


def random_extended_channel(rng: random.Random, max_denominator: int = 10):
    """Random extended channel with shared erasure mass."""
    from nmavc import ExtendedChannel

    den = rng.randint(1, max_denominator)
    p = Fraction(rng.randint(0, den - 1) if den > 1 else 0, den)
    rows = []
    for _ in range(2):
        den2 = rng.randint(1, max_denominator)
        w0 = Fraction(rng.randint(0, den2), den2) * (1 - p)
        rows.append([w0, (1 - p) - w0, p])
    return ExtendedChannel.from_rows(rows)


def fraction_solve_min(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> tuple[list[Fraction], Fraction]:
    """Exact LP solve; returns (x, objective value).

    The gcd-normalizing `Fraction` tableau that `nmavc.simplex.solve_min`
    replaced, kept verbatim as an oracle: both must take the same Bland
    pivots and so return the same vertex.

    Raises LPInfeasibleError / LPUnboundedError.  Fully deterministic:
    Bland's rule picks the lowest-index entering column and, on ratio
    ties, the row whose basic variable has the lowest index.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for row, b in zip(a_eq, b_eq):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)
        kinds.append("eq")
    for row, b in zip(a_ub, b_ub):
        row = [Fraction(v) for v in row]
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


def tamper_distribution_channel_mixture(
    code: StochasticCode, seq: StateSequence, m: str
) -> FiniteDistribution:
    """Channel tamper law via the elementary-pattern mixture (cross-check)."""
    components = [
        (weight, tamper_distribution_fn(code, BITFunction(pattern), m))
        for pattern, weight in seq.mixture_weights()
    ]
    return mix(components)


def row_support(ch, x: int) -> list[tuple[str, Fraction]]:
    """(output symbol, probability) pairs of input bit x, zeros skipped."""
    return [(sym, p) for sym, p in zip(ch.output_symbols, ch.rows[x]) if p > 0]


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
    code: StochasticCode, seq: StateSequence, m: str
) -> FiniteDistribution:
    """Law of dec(y) under seq by the Fraction dict product: every output
    word of every seed decoded one at a time (no integer scaling, no
    decoder table)."""
    share = Fraction(1, code.seed_count)
    masses: dict = {}
    for r in range(code.seed_count):
        for word, p in output_distribution(seq, code.enc(m, r)).items():
            outcome = code.dec(word)
            masses[outcome] = masses.get(outcome, Fraction(0)) + share * p
    return FiniteDistribution(masses)


def mixture_output_distribution(seq: StateSequence, x: str) -> FiniteDistribution:
    """Output law reconstructed as the elementary-pattern mixture.

    Cross-validation path: must equal output_distribution(seq, x) exactly.
    """
    if len(x) != seq.n:
        raise ValueError(f"input length {len(x)} != {seq.n}")
    components = [
        (weight, FiniteDistribution.point(BITFunction(pattern).apply(x)))
        for pattern, weight in seq.mixture_weights()
    ]
    return mix(components)


def composed_tamper_distribution(
    scheme: ComposedScheme,
    seq: StateSequence,
    m: str,
    budget: Optional[int] = None,
) -> FiniteDistribution:
    """Exact law of the composed decode under an extended state sequence."""
    if not seq.extended:
        raise InvalidInstanceError("composed verification uses extended sequences")
    if seq.n != scheme.n:
        raise InvalidInstanceError(f"sequence length {seq.n} != n={scheme.n}")
    if len(m) != scheme.k:
        raise InvalidInstanceError(f"message length {len(m)} != k={scheme.k}")
    cost = (3 ** scheme.n) * scheme.inner.seed_count
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"direct channel experiment needs up to {cost} terms, budget {budget}"
        )
    return product_tamper_distribution(scheme, seq, m)
