"""BIT and affine tampering functions and their conversions."""

import random

import pytest

from nmavc import (
    AffineFunction,
    BITFunction,
    GF2Matrix,
    all_bitstrings,
    bit_to_affine,
    compose_affine,
    enumerate_bit_functions,
)
from nmavc.errors import BudgetExceededError, NotRepresentableError


def test_apply_keep():
    f = BITFunction.from_string("KKK")
    assert f.apply("101") == "101"


def test_apply_flip_set1():
    assert BITFunction.from_string("F1").apply("00") == "11"


def test_apply_erase():
    assert BITFunction.from_string("EK").apply("10") == "e0"


def test_string_round_trip():
    for text in ("KF01", "E", "KKKK", "10FE"):
        assert BITFunction.from_string(text).to_string() == text


def test_bit_to_affine_examples():
    n = 3
    keep = bit_to_affine(BITFunction.from_string("K" * n))
    assert keep.matrix == GF2Matrix.identity(n) and keep.delta == "0" * n

    fs1 = bit_to_affine(BITFunction.from_string("F1"))
    assert fs1.matrix == GF2Matrix.from_rows(["10", "00"])
    assert fs1.delta == "11"

    zero = bit_to_affine(BITFunction.from_string("000"))
    assert zero.matrix == GF2Matrix.zero(3, 3) and zero.delta == "000"


def test_bit_to_affine_rejects_erase():
    with pytest.raises(NotRepresentableError):
        bit_to_affine(BITFunction.from_string("KE"))


def test_bit_to_affine_round_trip_exhaustive():
    # Every erasure-free BIT function up to n=4 agrees with its affine
    # form on every input.
    for n in range(1, 5):
        for f in enumerate_bit_functions(n, 4):
            g = bit_to_affine(f)
            for x in all_bitstrings(n):
                assert g.apply(x) == f.apply(x)


def test_apply_affine_examples():
    ident = AffineFunction(GF2Matrix.identity(2), "00")
    assert ident.apply("10") == "10"

    const = AffineFunction(GF2Matrix.zero(2, 2), "01")
    assert const.apply("11") == "01"

    g = AffineFunction(GF2Matrix.from_rows(["11", "01"]), "10")
    assert g.apply("11") == "00"


def test_compose_affine_pointwise():
    rng = random.Random(20)
    for _ in range(40):
        a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        f = AffineFunction(
            GF2Matrix(tuple(rng.getrandbits(b) for _ in range(a)), b),
            "".join(rng.choice("01") for _ in range(b)),
        )
        g = AffineFunction(
            GF2Matrix(tuple(rng.getrandbits(c) for _ in range(b)), c),
            "".join(rng.choice("01") for _ in range(c)),
        )
        h = compose_affine(f, g)
        for u in all_bitstrings(a):
            assert h.apply(u) == g.apply(f.apply(u))


def test_enumeration_counts_and_order():
    ones = list(enumerate_bit_functions(1, 4))
    assert [f.to_string() for f in ones] == ["K", "F", "0", "1"]
    assert len(list(enumerate_bit_functions(2, 4))) == 16
    assert len(list(enumerate_bit_functions(2, 5))) == 25
    assert len(set(enumerate_bit_functions(2, 5))) == 25


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_bit_functions(10, 4, budget=1000))


def test_affine_json_round_trip():
    g = AffineFunction(GF2Matrix.from_rows(["11", "01"]), "10")
    assert AffineFunction.from_json(g.to_json()) == g
