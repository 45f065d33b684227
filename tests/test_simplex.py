"""The exact simplex: textbook optima, degeneracy, edge cases, and
agreement with the plain `Fraction` tableau it replaced."""

import copy
import math
import random
from fractions import Fraction as F


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmavc.verifier as verifier
from nmavc.errors import LPInfeasibleError, LPUnboundedError, NmavcError
from nmavc.simplex import solve_min
from nmavc.verifier import certify_bit_family, optimal_simulator, tamper_map
from oracles import bit_function, fixed_k2n5_code, fraction_solve_min, recorded_lps


def solved(c, *args, **kwargs):
    """solve_min's vertex x[j] / d as Fractions, and its value c.x."""
    x, d = solve_min(c, *args, **kwargs)
    x = [F(v, d) for v in x]
    return x, sum(ci * xi for ci, xi in zip(c, x))


def test_basic_maximization_as_minimization():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  ->  (4, 0), value 12.
    x, value = solved(
        c=[-3, -2],
        a_ub=[{0: 1, 1: 1}, {0: 1, 1: 3}],
        b_ub=[4, 6],
    )
    assert value == -12
    assert x == [4, 0]


def test_equality_constraint():
    # min x + y s.t. x + 2y = 3  ->  y = 3/2.
    x, value = solved(c=[1, 1], a_eq=[{0: 1, 1: 2}], b_eq=[3])
    assert value == F(3, 2)
    assert x == [0, F(3, 2)]


def test_negative_rhs_inequality():
    # min x s.t. -x <= -2  (i.e. x >= 2).
    x, value = solved(c=[1], a_ub=[{0: -1}], b_ub=[-2])
    assert value == 2 and x == [2]


def test_infeasible():
    with pytest.raises(LPInfeasibleError):
        solve_min(
            c=[1],
            a_ub=[{0: 1}, {0: -1}],
            b_ub=[1, -2],  # x <= 1 and x >= 2
        )


def test_unbounded():
    with pytest.raises(LPUnboundedError):
        solve_min(c=[-1], a_ub=[{0: -1}], b_ub=[0])


def test_beale_cycling_example_terminates():
    # Beale's classic degenerate program with its cost and rows scaled to
    # integers (cost by 100; rows by 100, 50 and 1).  Dantzig's rule
    # cycles on it, Bland's rule must terminate at value 100 * -1/20.
    c = [-75, 15000, -2, 600]
    a_ub = [
        {0: 25, 1: -6000, 2: -4, 3: 900},
        {0: 25, 1: -4500, 2: -1, 3: 150},
        {2: 1},
    ]
    b_ub = [0, 0, 1]
    x, value = solved(c, a_ub, b_ub)
    assert value == -5


def test_exact_fractions_survive():
    # min x/3 + y/7 s.t. x >= 1/11, y >= 1/13, scaled by 21 and 143.
    x, value = solved(c=[7, 3], a_ub=[{0: -143}, {1: -143}], b_ub=[-13, -11])
    assert x == [F(1, 11), F(1, 13)]
    assert value == 21 * (F(1, 33) + F(1, 91))


def test_redundant_equalities():
    # Duplicated equality rows leave a basic artificial at zero; the
    # solver must drive it out or drop the row.
    x, value = solved(
        c=[1, 1],
        a_eq=[{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}],
        b_eq=[2, 2, 4],
    )
    assert value == 2


def outcome(solver, *args):
    """(x, value), or the error type the solver raised."""
    try:
        return solver(*args)
    except NmavcError as exc:
        return type(exc)


def assert_same_as_oracle(*args):
    # The pivots update rows in place: none of them may be the caller's.
    before = copy.deepcopy(args)
    got = outcome(solved, *args)
    assert args == before
    assert got == outcome(fraction_solve_min, *args)
    return got


@st.composite
def small_lps(draw):
    """Integer c, a_ub, b_ub, a_eq, b_eq with eq, ub and negative-rhs
    (ge) rows, zero right-hand sides (degenerate vertices) and scaled
    copies of earlier rows (redundant constraints)."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    vector = st.lists(entries, min_size=n, max_size=n)
    c = draw(vector)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            row, b = rows[draw(st.integers(0, len(rows) - 1))][1:]
            factor = draw(st.sampled_from([1, 2, -3]))
            row, b = [factor * v for v in row], factor * b
        else:
            row, b = draw(vector), draw(st.one_of(st.just(0), entries))
        rows.append((draw(st.sampled_from(["eq", "ub"])), row, b))

    def pick(kind, i):
        return [r[i] for r in rows if r[0] == kind]

    return c, pick("ub", 1), pick("ub", 2), pick("eq", 1), pick("eq", 2)


def mappings(rows):
    """Dense rows as column-to-nonzero mappings, the solver's row form."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_lps())
def test_matches_fraction_tableau_on_random_lps(lp):
    c, a_ub, b_ub, a_eq, b_eq = lp
    assert_same_as_oracle(c, mappings(a_ub), b_ub, mappings(a_eq), b_eq)


@pytest.mark.parametrize(
    "lp, expected",
    [
        # Phase 1 ends with the artificial of -x = 0 basic at level 0; its
        # row reads -x + a = 0, so x is driven in on the pivot -1.
        (([1], (), (), [{0: -1}], [0]), ([0], 0)),
        # x is driven in on its coefficient -6; then y enters in a
        # degenerate phase-2 pivot.
        (([0, -2], (), (), [{0: -6, 1: -5}], [0]), ([0, 0], 0)),
        # x <= 1 and x >= 2.
        (([1], [{0: 1}, {0: -1}], [1, -2]), LPInfeasibleError),
        # 3x + 3y = 1 and 7x + 7y = 1.
        (([1, 0], (), (), [{0: 3, 1: 3}, {0: 7, 1: 7}], [1, 1]), LPInfeasibleError),
        (([-1], [{0: -1}], [0]), LPUnboundedError),
        # min -2x + y with 3x - 3y = 1: unbounded along x = y + 1/3.
        (([-2, 1], (), (), [{0: 3, 1: -3}], [1]), LPUnboundedError),
        # 0 <= 0: a row with no nonzero at all.
        (([1], [{}], [0]), ([0], 0)),
        # 0 <= -1.
        (([1], [{}], [-1]), LPInfeasibleError),
        # 0 = 2.
        (([1], (), (), [{}], [2]), LPInfeasibleError),
        # An explicit 0 is no entry: min x + y with 0x - y <= -2.
        (([1, 1], [{0: 0, 1: -1}], [-2]), ([0, 2], 2)),
    ],
    ids=["drive-out-pivot-minus-1", "drive-out-then-phase-2",
         "infeasible-ub", "infeasible-eq", "unbounded-ub", "unbounded-eq",
         "empty-ub-row", "empty-ub-row-negative-rhs", "empty-eq-row",
         "explicit-zero-entry"],
)
def test_matches_fraction_tableau_on_edge_cases(lp, expected):
    assert assert_same_as_oracle(*lp) == expected


# KKK01 is the first worst bit function of the code below.  On KK1F1 the
# phase-1 path depends on every row being scaled alike: scaling each
# rational row by its own lcm reaches a different optimal simulator.
@pytest.mark.parametrize("function", ["KKK01", "KK1F1"])
def test_matches_fraction_tableau_on_simulator_lp(function):
    rows, total = tamper_map(fixed_k2n5_code(), bit_function(function))
    report, (args,) = recorded_lps(lambda: optimal_simulator(rows, total))
    assert report.epsilon == F(2, 3)
    x, value = assert_same_as_oracle(*args)
    assert value == F(2, 3) * total  # epsilon in count units


@st.composite
def tamper_laws(draw):
    """A law table (rows, total): one count row on {0,1}^k + bot per
    message, k in {1, 2}, each drawn over a dyadic denominator (as a
    code's seeds give) or 3, 5 or 7, all scaled to the lcm of theirs;
    messages may share a row, which makes the simulator LP degenerate."""
    size = 1 << draw(st.integers(1, 2))
    pool = []
    for _ in range(draw(st.integers(1, size))):
        den = draw(st.sampled_from([1, 2, 4, 8, 3, 5, 7]))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=size, max_size=size)))
        pool.append(([b - a for a, b in zip([0, *cuts], [*cuts, den])], den))
    laws = [draw(st.sampled_from(pool)) for _ in range(size)]
    total = math.lcm(*(den for _, den in laws))
    return [[c * (total // den) for c in row] for row, den in laws], total


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tamper_laws())
def test_matches_fraction_tableau_on_simulator_lps(laws):
    _, (args,) = recorded_lps(lambda: verifier._simulator_lp(*laws))
    assert_same_as_oracle(*args)


def test_matches_fraction_tableau_on_k3_simulator_lps():
    # Larger tableaus: the first 12 of the 45 LPs that certify a k = 3,
    # n = 6 code take 294 pivots with p == d and 73 with p != d, so both
    # row updates run many times.
    code = verifier._random_injective_code(3, 6, 1, random.Random(404))
    _, lps = recorded_lps(lambda: certify_bit_family(code))
    assert len(lps) == 45
    for args in lps[:12]:
        assert_same_as_oracle(*args)


def test_k4_certification_is_pinned():
    # A k = 4, n = 5 code without seed bits: the trivial simulators and
    # the pool leave 86 of the 1,024 members to the LP.
    code = verifier._random_injective_code(4, 5, 0, random.Random(404))
    cert, lps = recorded_lps(lambda: certify_bit_family(code))
    assert len(lps) == 86
    assert cert.epsilon == F(12, 13)
    assert cert.worst == bit_function("KFFKK")
