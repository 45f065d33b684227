"""Exact two-phase simplex with Bland's anti-cycling rule, fraction-free.

Solves  minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
exactly by integer-preserving (Bareiss) elimination: no gcd inside the
pivot loop, and only the returned optimum is made of `Fraction`s.

Every constraint row and its right-hand side is multiplied by one global
L, the lcm of all their denominators; slack and artificial columns stay
0/+-1.  The tableau, objective row included, is then Python ints over
one common positive denominator d, starting at d = 1.  A pivot on
p = T[i][j] sets T[r] = (T[r] * p - T[r][j] * T[i]) / d for every other
row r, then d = p.  Each entry stays a minor of the scaled matrix, so
the division is exact.

Bland's rule reads only signs and ratio comparisons, and no scaling used
here moves either: L scales every slack, artificial and the phase-1
objective alike, the objective row carries the positive factors d and
lcm(den c), and d cancels in every ratio.  So the entering columns,
ratio minima, ties and zero patterns, hence the pivots and the returned
vertex, are those of the plain rational tableau.  A separate scale per
row would not be safe: it reweights the phase-1 objective.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import LPInfeasibleError, LPUnboundedError


def solve_min(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> tuple[list[Fraction], Fraction]:
    """Exact LP solve; returns (x, objective value).

    Raises LPInfeasibleError / LPUnboundedError.  Fully deterministic:
    Bland's rule picks the lowest-index entering column and, on ratio
    ties, the row whose basic variable has the lowest index.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    rows: list[list[Fraction]] = []
    kinds: list[str] = []
    for kind, a, b in (("eq", a_eq, b_eq), ("ub", a_ub, b_ub)):
        for row, rhs in zip(a, b):
            # Fraction(v) would copy a Fraction, at the cost of a gcd.
            row = [v if type(v) is Fraction else Fraction(v) for v in (*row, rhs)]
            rows.append(row)
            # A negative-rhs `ub` row is negated into -row . x >= -b > 0,
            # which needs a surplus and an artificial.
            kinds.append("ge" if kind == "ub" and row[-1] < 0 else kind)
    m = len(rows)
    scale = math.lcm(*{v.denominator for row in rows for v in row})

    n_slack = sum(1 for kind in kinds if kind in ("ub", "ge"))
    n_art = sum(1 for kind in kinds if kind in ("eq", "ge"))
    width = n + n_slack + n_art
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + n_slack
    artificial_cols = set(range(art_at, width))
    for row, kind in zip(rows, kinds):
        sign = -1 if row[-1] < 0 else 1
        ints = [sign * v.numerator * (scale // v.denominator) for v in row]
        full = ints[:-1] + [0] * (n_slack + n_art) + ints[-1:]
        if kind != "eq":
            full[slack_at] = 1 if kind == "ub" else -1
            slack_at += 1
        if kind == "ub":
            basis.append(slack_at - 1)
        else:
            full[art_at] = 1
            basis.append(art_at)
            art_at += 1
        tableau.append(full)
    d = 1  # common positive denominator of the whole tableau

    def reduced_costs(cost: list[int]) -> list[int]:
        """d times the reduced-cost row of an integer cost vector."""
        obj = [v * d for v in cost] + [0]
        for i, bvar in enumerate(basis):
            cb = cost[bvar]
            if cb != 0:
                obj = [o - cb * v for o, v in zip(obj, tableau[i])]
        return obj

    def pivot(i: int, j: int, obj: Optional[list[int]]) -> None:
        """Bareiss pivot on T[i][j], updating `obj` too when given."""
        nonlocal d
        prow = tableau[i]
        p = prow[j]
        if p < 0:
            # Only a phase-1 drive-out pivot can be negative; negating the
            # pivot row negates the next tableau and keeps d positive.
            p = -p
            tableau[i] = prow = [-v for v in prow]
        support = [(k, w) for k, w in enumerate(prow) if w]
        others = tableau[:i] + tableau[i + 1:]
        if obj is not None:
            others.append(obj)
        for row in others:
            f = row[j]
            # Off the pivot row's support the cross term vanishes.
            crossed = (
                [(k, (row[k] * p - f * w) // d) for k, w in support] if f else ()
            )
            if p != d:
                row[:] = [v * p // d for v in row]
            for k, v in crossed:
                row[k] = v
        d = p
        basis[i] = j

    def iterate(obj: list[int], banned: set[int]) -> list[int]:
        while True:
            entering = next(
                (j for j in range(width) if j not in banned and obj[j] < 0), None
            )
            if entering is None:
                return obj
            leaving = None
            best_num = best_den = 0
            for i in range(m):
                row = tableau[i]
                coef = row[entering]
                if coef > 0:
                    # Compare rhs/coef with best_num/best_den (d cancels).
                    lhs = row[-1] * best_den
                    rhs = best_num * coef
                    if (
                        leaving is None
                        or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leaving])
                    ):
                        best_num, best_den = row[-1], coef
                        leaving = i
            if leaving is None:
                raise LPUnboundedError("objective unbounded below")
            pivot(leaving, entering, obj)

    if n_art:
        phase1_cost = [0] * (n + n_slack) + [1] * n_art
        obj = iterate(reduced_costs(phase1_cost), banned=set())
        if obj[-1] < 0:
            optimum = Fraction(-obj[-1], d * scale)
            raise LPInfeasibleError(f"phase 1 optimum {optimum} > 0")
        # Drive any artificial still in the basis out of it, or drop the row.
        drop: list[int] = []
        for i in range(m):
            if basis[i] in artificial_cols:
                target = next((j for j in range(n + n_slack) if tableau[i][j]), None)
                if target is None:
                    drop.append(i)
                else:
                    pivot(i, target, None)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(tableau)

    c_scale = math.lcm(*(v.denominator for v in c))
    phase2_cost = [v.numerator * (c_scale // v.denominator) for v in c]
    phase2_cost += [0] * (n_slack + n_art)
    iterate(reduced_costs(phase2_cost), banned=artificial_cols)

    solution = [Fraction(0)] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            solution[bvar] = Fraction(tableau[i][-1], d)
    value = sum((ci * xi for ci, xi in zip(c, solution)), Fraction(0))
    return solution, value
