"""Exact two-phase simplex with Bland's anti-cycling rule, fraction-free
and sparse.

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
vertex, are those of the plain rational tableau.  A separate scale L per
row would not be safe: it reweights the phase-1 objective.

The rows are sparse, and a pivot touches nonzeros only.  Each row is a
dict from column to nonzero int, the right-hand side under the key
`width` past the last column, so its keys are exactly its support; the
LPs met here are mostly zeros (a simulator LP row has at most four
nonzeros, and the k=2 tableaus stay ~85 % zeros).  Where T[r][j] = 0
the pivot only rescales T[r] by p / d, which keeps zeros zero; and the
cross term -T[r][j] * T[i] / d reaches only the pivot row's support.
Entries that cancel to 0 are deleted.  The rescale is deferred: row r
is stored as integers over the d of its last update, scales[r], and
stands for the Bareiss row tableau[r] * d / scales[r], an exact
division.  Its next update folds the deferred factor in, as
(T[r] * p - T[r][j] * T[i]) / scales[r], which equals the eager result,
so a row with no entry in the pivot column costs nothing.  The objective
row is always updated, and a row is brought to d before it is pivoted
on or priced.  Signs and each row's rhs/coef are unchanged by the
positive factor d / scales[r], so Bland's choices are those above.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import LPInfeasibleError, LPUnboundedError

Rational = Union[int, Fraction]


def solve_min(
    c: Sequence[Rational],
    a_ub: Sequence[Mapping[int, Rational]] = (),
    b_ub: Sequence[Rational] = (),
    a_eq: Sequence[Mapping[int, Rational]] = (),
    b_eq: Sequence[Rational] = (),
) -> tuple[list[Fraction], Fraction]:
    """Exact LP solve; returns (x, objective value).

    Each constraint row maps a column in range(len(c)) to its
    coefficient; absent columns (and explicit zeros) are 0.  Raises
    LPInfeasibleError / LPUnboundedError.  Fully deterministic: Bland's
    rule picks the lowest-index entering column and, on ratio ties, the
    row whose basic variable has the lowest index.
    """
    n = len(c)
    rows: list[tuple[dict[int, Rational], Rational]] = []
    kinds: list[str] = []
    for kind, a, b in (("eq", a_eq, b_eq), ("ub", a_ub, b_ub)):
        for row, rhs in zip(a, b):
            rows.append(({j: v for j, v in row.items() if v}, rhs))
            # A negative-rhs `ub` row is negated into -row . x >= -b > 0,
            # which needs a surplus and an artificial.
            kinds.append("ge" if kind == "ub" and rhs < 0 else kind)
    scale = math.lcm(
        *{v.denominator for row, _ in rows for v in row.values()},
        *{rhs.denominator for _, rhs in rows},
    )

    n_slack = sum(1 for kind in kinds if kind in ("ub", "ge"))
    n_art = sum(1 for kind in kinds if kind in ("eq", "ge"))
    width = n + n_slack + n_art
    rhs_key = width
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + n_slack
    artificial_cols = set(range(art_at, width))
    for (row, rhs), kind in zip(rows, kinds):
        sign = -1 if rhs < 0 else 1
        ints = {
            j: sign * v.numerator * (scale // v.denominator) for j, v in row.items()
        }
        if rhs:
            ints[rhs_key] = sign * rhs.numerator * (scale // rhs.denominator)
        if kind != "eq":
            ints[slack_at] = 1 if kind == "ub" else -1
            slack_at += 1
        if kind == "ub":
            basis.append(slack_at - 1)
        else:
            ints[art_at] = 1
            basis.append(art_at)
            art_at += 1
        tableau.append(ints)
    d = 1  # common positive denominator of the whole tableau
    # Row r is stored over its own denominator scales[r], the d of its last
    # update: its Bareiss row at the current d is tableau[r] * d / scales[r].
    scales = [1] * len(tableau)

    def current(i: int) -> dict[int, int]:
        """Row i brought to the current d."""
        e = scales[i]
        if e != d:
            tableau[i] = {k: v * d // e for k, v in tableau[i].items()}
            scales[i] = d
        return tableau[i]

    def reduced_costs(cost: dict[int, int]) -> dict[int, int]:
        """d times the reduced-cost row of a sparse integer cost vector."""
        obj = {j: v * d for j, v in cost.items()}
        for i, bvar in enumerate(basis):
            cb = cost.get(bvar)
            if cb:
                for j, v in current(i).items():
                    o = obj.get(j, 0) - cb * v
                    if o:
                        obj[j] = o
                    else:
                        del obj[j]
        return obj

    def pivot(i: int, j: int, obj: Optional[dict]) -> Optional[dict]:
        """Bareiss pivot on T[i][j]; returns the updated `obj` when given."""
        nonlocal d
        prow = current(i)
        p = prow[j]
        if p < 0:
            # Only a phase-1 drive-out pivot can be negative; negating the
            # pivot row negates the next tableau and keeps d positive.
            p = -p
            tableau[i] = prow = {k: -w for k, w in prow.items()}
        support = [(k, w) for k, w in prow.items() if k != j]

        def eliminate(row: dict[int, int], e: int) -> dict[int, int]:
            """(row * p - row[j] * prow) / e for a row over e with row[j] != 0."""
            f = row.pop(j)
            get = row.get
            # From the old entries: on the support v * p // e need not be exact.
            crossed = {k: (get(k, 0) * p - f * w) // e for k, w in support}
            new = row if p == e else {k: v * p // e for k, v in row.items()}
            new.update(crossed)
            if 0 in crossed.values():
                for k in [k for k, v in crossed.items() if not v]:
                    del new[k]
            return new

        for r, row in enumerate(tableau):
            if r != i and j in row:
                tableau[r] = eliminate(row, scales[r])
                scales[r] = p
        if obj is not None:
            obj = eliminate(obj, d)
        scales[i] = d = p
        basis[i] = j
        return obj

    def iterate(obj: dict[int, int], banned: set[int]) -> dict[int, int]:
        while True:
            entering = min(
                (k for k, v in obj.items() if v < 0 and k not in banned), default=None
            )
            if entering is None:
                return obj
            leaving = None
            best_num = best_den = 0
            for i, row in enumerate(tableau):
                coef = row.get(entering, 0)
                if coef > 0:
                    # Compare rhs/coef with best_num/best_den (d cancels).
                    b = row.get(rhs_key, 0)
                    lhs = b * best_den
                    rhs = best_num * coef
                    if (
                        leaving is None
                        or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leaving])
                    ):
                        best_num, best_den = b, coef
                        leaving = i
            if leaving is None:
                raise LPUnboundedError("objective unbounded below")
            obj = pivot(leaving, entering, obj)

    if n_art:
        obj = iterate(reduced_costs(dict.fromkeys(artificial_cols, 1)), {rhs_key})
        if obj.get(rhs_key, 0) < 0:
            optimum = Fraction(-obj[rhs_key], d * scale)
            raise LPInfeasibleError(f"phase 1 optimum {optimum} > 0")
        # Drive any artificial still in the basis out of it, or drop the row.
        drop: list[int] = []
        for i in range(len(tableau)):
            if basis[i] in artificial_cols:
                target = min((k for k in tableau[i] if k < n + n_slack), default=None)
                if target is None:
                    drop.append(i)
                else:
                    pivot(i, target, None)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
            del scales[i]

    c_scale = math.lcm(*(v.denominator for v in c))
    phase2_cost = {
        j: v.numerator * (c_scale // v.denominator) for j, v in enumerate(c) if v
    }
    iterate(reduced_costs(phase2_cost), artificial_cols | {rhs_key})

    solution = [Fraction(0)] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            solution[bvar] = Fraction(tableau[i].get(rhs_key, 0), scales[i])
    value = sum((ci * xi for ci, xi in zip(c, solution)), Fraction(0))
    return solution, value
