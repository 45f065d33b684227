"""Exact rationals, and the reference distribution primitives the tests
compare the library's integer laws against: statistical distance,
mixtures, Copy."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmavc import all_bitstrings, format_rational, parse_rational
from nmavc.errors import InvalidMixtureError, InvalidRationalError
from oracles import (
    BOT,
    SAME_STAR,
    FiniteDistribution,
    InvalidDistributionError,
    add_fractions_bigint,
    apply_copy,
    distribution_from_json,
    mix,
    random_distribution,
    sd_event_oracle,
    statistical_distance,
    uniform,
)

point = FiniteDistribution.point


# ---------------------------------------------------------------- rationals

@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/10", F(3, 10)),
        ("1", F(1)),
        ("0", F(0)),
        ("0.3", F(3, 10)),
        ("0.125", F(1, 8)),
        ("0.123456789", F(123456789, 10**9)),
        ("-1/2", F(-1, 2)),
        (7, F(7)),
        (F(2, 4), F(1, 2)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "bad", ["0.1234567891", "1/0", "1/-2", "a/b", "", "1.0e-3", 0.5, None, True]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(InvalidRationalError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(F(3, 10)) == "3/10"
    assert format_rational(F(2)) == "2"
    assert format_rational(F(0)) == "0"


@settings(max_examples=300, derandomize=True)
@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_fraction_addition_against_bigint_oracle():
    rng = random.Random(17)
    for _ in range(300):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        got = F(a, b) + F(c, d)
        num, den = add_fractions_bigint(a, b, c, d)
        assert (got.numerator, got.denominator) == (num, den)


# ------------------------------------------------------------ distributions

def test_distribution_drops_zero_masses():
    d = FiniteDistribution({"0": F(1), "1": F(0)})
    assert d.support == {"0"}


def test_distribution_rejects_bad_masses():
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution({"0": F(1, 2)})
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution({"0": F(-1, 2), "1": F(3, 2)})
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution({"0": 0.5, "1": 0.5})


def test_from_counts_equals_checked_masses():
    d = FiniteDistribution.from_counts({"0": 2, "1": 0, BOT: 6}, 8)
    assert d == FiniteDistribution({"0": F(1, 4), BOT: F(3, 4)})
    assert d.support == {"0", BOT}


@pytest.mark.parametrize(
    "counts, total",
    [
        ({"0": 1}, 2),
        ({"0": 3, "1": -1}, 2),
        ({"0": 1.0}, 1),
        ({"0": True}, 1),
        ({"0": F(1)}, 1),
        ({"0": 0}, 0),
        ({"0": 1}, True),
        ({}, 0),
    ],
    ids=["short-sum", "negative", "float", "bool", "fraction", "zero-total",
         "bool-total", "empty"],
)
def test_from_counts_rejects_bad_counts(counts, total):
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution.from_counts(counts, total)


def test_distribution_equality_and_hash():
    a = FiniteDistribution({"0": F(1, 2), "1": F(1, 2)})
    b = uniform(["0", "1"])
    assert a == b and hash(a) == hash(b)


def test_json_round_trip():
    d = FiniteDistribution({SAME_STAR: F(2, 5), BOT: F(1, 5), "01": F(2, 5)})
    assert distribution_from_json(d.to_json()) == d


def test_all_bitstrings():
    assert all_bitstrings(0) == [""]
    assert all_bitstrings(2) == ["00", "01", "10", "11"]


# ----------------------------------------------------- statistical distance

def test_sd_identical_point_masses():
    assert statistical_distance(point("0"), point("0")) == 0


def test_sd_disjoint_point_masses():
    assert statistical_distance(point("0"), point("1")) == 1


def test_sd_uniform_vs_point():
    assert statistical_distance(uniform(["0", "1"]), point("0")) == F(1, 2)


def test_sd_is_a_metric_on_random_distributions():
    rng = random.Random(5)
    outcomes = ["00", "01", "10", "11", BOT]
    for _ in range(100):
        p = random_distribution(rng, outcomes)
        q = random_distribution(rng, outcomes)
        r = random_distribution(rng, outcomes)
        assert statistical_distance(p, q) == statistical_distance(q, p)
        assert statistical_distance(p, p) == 0
        if p != q:
            assert statistical_distance(p, q) > 0
        assert statistical_distance(p, r) <= (
            statistical_distance(p, q) + statistical_distance(q, r)
        )


def test_sd_matches_event_maximization_oracle():
    rng = random.Random(6)
    outcomes = ["0", "1", BOT]
    for _ in range(40):
        p = random_distribution(rng, outcomes)
        q = random_distribution(rng, outcomes)
        assert statistical_distance(p, q) == sd_event_oracle(p, q)


def test_sd_joint_convexity():
    # SD(sum w_i p_i, sum w_i q_i) <= sum w_i SD(p_i, q_i)
    rng = random.Random(7)
    outcomes = ["0", "1", BOT]
    for _ in range(60):
        terms = rng.randint(2, 4)
        counts = [0] * terms
        total = rng.randint(1, 8)
        for _ in range(total):
            counts[rng.randrange(terms)] += 1
        weights = [F(c, total) for c in counts]
        ps = [random_distribution(rng, outcomes) for _ in range(terms)]
        qs = [random_distribution(rng, outcomes) for _ in range(terms)]
        lhs = statistical_distance(mix(zip(weights, ps)), mix(zip(weights, qs)))
        rhs = sum(
            (w * statistical_distance(p, q) for w, p, q in zip(weights, ps, qs)),
            F(0),
        )
        assert lhs <= rhs


# ------------------------------------------------------------------ mixing

def test_mix_singleton():
    assert mix([(F(1), point("0"))]) == point("0")


def test_mix_symmetric_halves():
    assert mix([(F(1, 2), point("0")), (F(1, 2), point("1"))]) == uniform(["0", "1"])


def test_mix_same_star_with_uniform():
    got = mix([(F(7, 10), point(SAME_STAR)), (F(3, 10), uniform(["0", "1"]))])
    assert got == FiniteDistribution(
        {SAME_STAR: F(7, 10), "0": F(3, 20), "1": F(3, 20)}
    )


def test_mix_rejects_bad_weights():
    with pytest.raises(InvalidMixtureError):
        mix([(F(1, 2), point("0"))])
    with pytest.raises(InvalidMixtureError):
        mix([(F(-1, 2), point("0")), (F(3, 2), point("1"))])


# -------------------------------------------------------------------- Copy

def test_copy_full_transfer():
    assert apply_copy(point(SAME_STAR), "01") == point("01")


def test_copy_partial_transfer():
    d = FiniteDistribution({SAME_STAR: F(2, 5), "0": F(3, 10), "1": F(3, 10)})
    assert apply_copy(d, "0") == FiniteDistribution({"0": F(7, 10), "1": F(3, 10)})


def test_copy_without_star_mass():
    assert apply_copy(point(BOT), "1") == point(BOT)


def test_copy_preserves_mass_and_never_decreases_target():
    rng = random.Random(8)
    outcomes = ["0", "1", BOT, SAME_STAR]
    for _ in range(100):
        d = random_distribution(rng, outcomes)
        for m in ("0", "1"):
            copied = apply_copy(d, m)
            assert sum(
                (copied.probability(o) for o in copied.support), F(0)
            ) == 1
            assert copied.probability(m) >= d.probability(m)
            assert copied.probability(SAME_STAR) == 0
