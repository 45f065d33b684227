"""Exact two-phase simplex with Bland's anti-cycling rule, fraction-free
and sparse.

Solves  minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
exactly by integer-preserving (Bareiss) elimination, with no gcd inside
the pivot loop.  The caller passes integer rows, right-hand sides and
costs, and gets back (x, d): the vertex is x[j] / d.

The tableau, objective row included, is Python ints over one common
positive divisor d, starting at d = 1; slack and artificial columns
are 0/+-1.  A pivot on p = T[i][j] sets T[r] = (T[r] * p - T[r][j] * T[i])
/ d for every other row r, then d = p.  Each entry stays a minor of the
input matrix, so the division is exact.

Bland's rule reads only signs and ratio comparisons.  The objective row
carries the positive factor d, which cancels in every ratio, so the
pivots and the vertex are those of the plain rational tableau.  Neither
moves under one positive factor shared by every row, or by every
variable (which multiplies the right-hand sides): it multiplies the
phase-1 objective, the sum of the artificials, as a whole.  A factor
per row would not be safe: it reweights that sum.

The rows are sparse, and a pivot touches nonzeros only.  Each row is a
dict from column to nonzero int, the right-hand side under the key
`width` past the last column, so its keys are exactly its support; the
LPs met here are mostly zeros: a simulator LP has 2^k + 3 + sum_m
|supp T_m| columns, and the row of each slack t(m, y) has two or three
nonzeros, message m's epsilon row |supp T_m| + 1 and the equality row
2^k + 2.  Where T[r][j] = 0 the pivot only multiplies T[r] by p / d,
which keeps zeros zero; and the cross term -T[r][j] * T[i] / d reaches
only the pivot row's support.  Entries that cancel to 0 are deleted.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .errors import LPInfeasibleError, LPUnboundedError


def solve_min(
    c: Sequence[int],
    a_ub: Sequence[Mapping[int, int]] = (),
    b_ub: Sequence[int] = (),
    a_eq: Sequence[Mapping[int, int]] = (),
    b_eq: Sequence[int] = (),
) -> tuple[list[int], int]:
    """Exact LP solve on integer data; returns (x, d), the vertex x[j] / d.

    Each constraint row maps a column in range(len(c)) to its
    coefficient; absent columns (and explicit zeros) are 0.  Raises
    LPInfeasibleError / LPUnboundedError.  Fully deterministic: Bland's
    rule picks the lowest-index entering column and, on ratio ties, the
    row whose basic variable has the lowest index.
    """
    n = len(c)
    rows: list[tuple[dict[int, int], int]] = []
    kinds: list[str] = []
    for kind, a, b in (("eq", a_eq, b_eq), ("ub", a_ub, b_ub)):
        for row, rhs in zip(a, b):
            # A row with a negative rhs is negated; a `ub` one then reads
            # -row . x >= -b > 0, which needs a surplus and an artificial.
            sign = -1 if rhs < 0 else 1
            rows.append(({j: sign * v for j, v in row.items() if v}, sign * rhs))
            kinds.append("ge" if kind == "ub" and rhs < 0 else kind)

    n_slack = sum(1 for kind in kinds if kind in ("ub", "ge"))
    n_art = sum(1 for kind in kinds if kind in ("eq", "ge"))
    width = n + n_slack + n_art
    rhs_key = width
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + n_slack
    artificial_cols = set(range(art_at, width))
    for (ints, rhs), kind in zip(rows, kinds):
        if rhs:
            ints[rhs_key] = rhs
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
    d = 1  # common positive divisor of the whole tableau

    def reduced_costs(cost: dict[int, int]) -> dict[int, int]:
        """d times the reduced-cost row of a sparse integer cost vector."""
        obj = {j: v * d for j, v in cost.items()}
        for i, bvar in enumerate(basis):
            cb = cost.get(bvar)
            if cb:
                for j, v in tableau[i].items():
                    o = obj.get(j, 0) - cb * v
                    if o:
                        obj[j] = o
                    else:
                        del obj[j]
        return obj

    def pivot(i: int, j: int, obj: Optional[dict]) -> Optional[dict]:
        """Bareiss pivot on T[i][j]; returns the updated `obj` when given."""
        nonlocal d
        prow = tableau[i]
        p = prow[j]
        if p < 0:
            # Only a phase-1 drive-out pivot can be negative; negating the
            # pivot row negates the next tableau and keeps d positive.
            p = -p
            tableau[i] = prow = {k: -w for k, w in prow.items()}
        support = [(k, w) for k, w in prow.items() if k != j]

        def rescale(row: dict[int, int]) -> dict[int, int]:
            """row * p / d, exact for a row with row[j] == 0."""
            return row if p == d else {k: v * p // d for k, v in row.items()}

        def eliminate(row: dict[int, int]) -> dict[int, int]:
            """(row * p - row[j] * prow) / d for a row with row[j] != 0."""
            f = row.pop(j)
            get = row.get
            # From the old entries: on the support v * p // d need not be exact.
            crossed = {k: (get(k, 0) * p - f * w) // d for k, w in support}
            new = rescale(row)
            new.update(crossed)
            if 0 in crossed.values():
                for k in [k for k, v in crossed.items() if not v]:
                    del new[k]
            return new

        for r, row in enumerate(tableau):
            if r != i:
                tableau[r] = eliminate(row) if j in row else rescale(row)
        if obj is not None:
            obj = eliminate(obj)
        d = p
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
            raise LPInfeasibleError(f"phase 1 optimum {-obj[rhs_key]}/{d} > 0")
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

    phase2_cost = {j: v for j, v in enumerate(c) if v}
    iterate(reduced_costs(phase2_cost), artificial_cols | {rhs_key})

    x = [0] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = tableau[i].get(rhs_key, 0)
    return x, d
