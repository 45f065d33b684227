"""The exact simplex: textbook optima, degeneracy, edge cases, and
agreement with the plain `Fraction` tableau it replaced."""

import math
from fractions import Fraction as F

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmavc.verifier as verifier
from nmavc.errors import LPInfeasibleError, LPUnboundedError, NmavcError
from nmavc.simplex import solve_min
from nmavc.verifier import optimal_simulator, tamper_map
from oracles import bit_function, fixed_k2n5_code, fraction_solve_min


def test_basic_maximization_as_minimization():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  ->  (4, 0), value 12.
    x, value = solve_min(
        c=[F(-3), F(-2)],
        a_ub=[{0: F(1), 1: F(1)}, {0: F(1), 1: F(3)}],
        b_ub=[F(4), F(6)],
    )
    assert value == -12
    assert x == [F(4), F(0)]


def test_equality_constraint():
    # min x + y s.t. x + 2y = 3  ->  y = 3/2.
    x, value = solve_min(
        c=[F(1), F(1)],
        a_eq=[{0: F(1), 1: F(2)}],
        b_eq=[F(3)],
    )
    assert value == F(3, 2)
    assert x == [F(0), F(3, 2)]


def test_negative_rhs_inequality():
    # min x s.t. -x <= -2  (i.e. x >= 2).
    x, value = solve_min(c=[F(1)], a_ub=[{0: F(-1)}], b_ub=[F(-2)])
    assert value == 2 and x == [F(2)]


def test_infeasible():
    with pytest.raises(LPInfeasibleError):
        solve_min(
            c=[F(1)],
            a_ub=[{0: F(1)}, {0: F(-1)}],
            b_ub=[F(1), F(-2)],  # x <= 1 and x >= 2
        )


def test_unbounded():
    with pytest.raises(LPUnboundedError):
        solve_min(c=[F(-1)], a_ub=[{0: F(-1)}], b_ub=[F(0)])


def test_beale_cycling_example_terminates():
    # Beale's classic degenerate program; Dantzig's rule cycles on it,
    # Bland's rule must terminate at value -1/20.
    c = [F(-3, 4), F(150), F(-1, 50), F(6)]
    a_ub = [
        {0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)},
        {0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)},
        {2: F(1)},
    ]
    b_ub = [F(0), F(0), F(1)]
    x, value = solve_min(c, a_ub, b_ub)
    assert value == F(-1, 20)


def test_exact_fractions_survive():
    x, value = solve_min(
        c=[F(1, 3), F(1, 7)],
        a_ub=[{0: F(-1)}, {1: F(-1)}],
        b_ub=[F(-1, 11), F(-1, 13)],
    )
    assert x == [F(1, 11), F(1, 13)]
    assert value == F(1, 33) + F(1, 91)


def test_redundant_equalities():
    # Duplicated equality rows leave a basic artificial at zero; the
    # solver must drive it out or drop the row.
    x, value = solve_min(
        c=[F(1), F(1)],
        a_eq=[{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}],
        b_eq=[F(2), F(2), F(4)],
    )
    assert value == 2


def outcome(solver, *args):
    """(x, value), or the error type the solver raised."""
    try:
        return solver(*args)
    except NmavcError as exc:
        return type(exc)


def assert_same_as_oracle(*args):
    got = outcome(solve_min, *args)
    assert got == outcome(fraction_solve_min, *args)
    return got


# Non-dyadic denominators, so the global scale L is not a power of two.
rationals = st.builds(
    F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6, 7])
)


@st.composite
def small_lps(draw):
    """c, a_ub, b_ub, a_eq, b_eq with eq, ub and negative-rhs (ge) rows,
    zero right-hand sides (degenerate vertices) and scaled copies of
    earlier rows (redundant constraints)."""
    n = draw(st.integers(1, 4))
    vector = st.lists(rationals, min_size=n, max_size=n)
    c = draw(vector)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            row, b = rows[draw(st.integers(0, len(rows) - 1))][1:]
            factor = draw(st.sampled_from([F(1), F(2), F(-1, 3)]))
            row, b = [factor * v for v in row], factor * b
        else:
            row, b = draw(vector), draw(st.one_of(st.just(F(0)), rationals))
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
        (([F(1)], (), (), [{0: F(-1)}], [F(0)]), ([F(0)], F(0))),
        # x is driven in on its coefficient -2/5; then y enters in a
        # degenerate phase-2 pivot.
        (([F(0), F(-2)], (), (), [{0: F(-2, 5), 1: F(-1, 3)}], [F(0)]),
         ([F(0), F(0)], F(0))),
        # x <= 1 and x >= 2.
        (([F(1)], [{0: F(1)}, {0: F(-1)}], [F(1), F(-2)]), LPInfeasibleError),
        # x + y = 1/3 and x + y = 1/7.
        (([F(1), F(0)], (), (), [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}],
          [F(1, 3), F(1, 7)]),
         LPInfeasibleError),
        (([F(-1)], [{0: F(-1)}], [F(0)]), LPUnboundedError),
        # min -x + y with x - y = 1/3: unbounded along x = y + 1/3.
        (([F(-1), F(1, 2)], (), (), [{0: F(1), 1: F(-1)}], [F(1, 3)]),
         LPUnboundedError),
        # 0 <= 0: a row with no nonzero at all.
        (([F(1)], [{}], [F(0)]), ([F(0)], F(0))),
        # 0 <= -1.
        (([F(1)], [{}], [F(-1)]), LPInfeasibleError),
        # 0 = 2/3.
        (([F(1)], (), (), [{}], [F(2, 3)]), LPInfeasibleError),
        # An explicit 0 is no entry: min x + y with 0x - y <= -2.
        (([F(1), F(1)], [{0: F(0), 1: F(-1)}], [F(-2)]), ([F(0), F(2)], F(2))),
    ],
    ids=["drive-out-pivot-minus-1", "drive-out-then-phase-2",
         "infeasible-ub", "infeasible-eq", "unbounded-ub", "unbounded-eq",
         "empty-ub-row", "empty-ub-row-negative-rhs", "empty-eq-row",
         "explicit-zero-entry"],
)
def test_matches_fraction_tableau_on_edge_cases(lp, expected):
    assert assert_same_as_oracle(*lp) == expected


def recorded_lps(function):
    """function()'s result, and the arguments of every solve_min call it made."""
    recorded = []

    def record(*args):
        recorded.append(args)
        return solve_min(*args)

    with patch.object(verifier, "solve_min", record):
        result = function()
    return result, recorded


# KKK01 is the first worst bit function of the code below.  On KK1F1 the
# phase-1 path depends on the scale being global: scaling each row by its
# own lcm reaches a different optimal simulator.
@pytest.mark.parametrize("function", ["KKK01", "KK1F1"])
def test_matches_fraction_tableau_on_simulator_lp(function):
    code = fixed_k2n5_code()
    f = bit_function(function)
    report, (args,) = recorded_lps(lambda: optimal_simulator(*tamper_map(code, f)))
    assert report.epsilon == F(2, 3)
    x, value = assert_same_as_oracle(*args)
    assert value == F(2, 3)


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
