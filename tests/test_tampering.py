"""BIT and affine tampering functions and their conversions."""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmavc import (
    AffineFunction,
    BitAction,
    BITFunction,
    Channel,
    ElementaryDecomposition,
    GF2Matrix,
    NMReport,
    ReconstructionSet,
    SingularReport,
    enumerate_bit_functions,
)
from nmavc.composed import SequenceReport
from nmavc.distributions import Record
from nmavc.errors import BudgetExceededError
from nmavc.gf2 import bits_to_int, int_to_bits
from nmavc.verifier import function_key
from oracles import (
    affine_from_json,
    apply_actions,
    bit_function,
    bit_to_affine,
    compose_affine,
    gf2_identity,
    gf2_zero,
    NotRepresentableError,
    split_word,
)


def test_apply_keep():
    f = bit_function("KKK")
    assert f.apply(bits_to_int("101")) == bits_to_int("101")


def test_apply_flip_set1():
    assert bit_function("F1").apply(bits_to_int("00")) == bits_to_int("11")


def test_apply_erase():
    f = bit_function("EK")
    assert (f.apply(bits_to_int("10")), f.erase) == split_word("e0")
    assert f.has_erase and not bit_function("KF01").has_erase


def test_apply_rejects_long_input():
    with pytest.raises(ValueError):
        bit_function("KK").apply(0b100)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(list(BitAction)), min_size=1, max_size=8), st.data())
def test_apply_matches_per_character_oracle(actions, data):
    # (apply(x), erase) is the word the per-character actions produce.
    f = BITFunction(tuple(actions))
    x = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=f.n, max_size=f.n)))
    assert (f.apply(bits_to_int(x)), f.erase) == split_word(apply_actions(f, x))


def test_pattern_round_trip():
    # A mixture pattern's masks name exactly one function of each length.
    for f in enumerate_bit_functions(3, 5):
        keep, xor, erase = f.pattern
        assert not erase & (keep | xor)
        assert BITFunction.from_pattern(3, f.pattern) == f
    assert bit_function("KF01E").pattern == (0b00011, 0b01010, 0b10000)


def test_string_round_trip():
    for text in ("KF01", "E", "KKKK", "10FE"):
        assert bit_function(text).to_string() == text


def test_bit_to_affine_examples():
    n = 3
    keep = bit_to_affine(bit_function("K" * n))
    assert keep.matrix == gf2_identity(n) and keep.delta_string() == "0" * n

    fs1 = bit_to_affine(bit_function("F1"))
    assert fs1.matrix == GF2Matrix.from_rows(["10", "00"])
    assert fs1.delta_string() == "11"

    zero = bit_to_affine(bit_function("000"))
    assert zero.matrix == gf2_zero(3, 3) and zero.delta_string() == "000"


def test_bit_to_affine_rejects_erase():
    with pytest.raises(NotRepresentableError):
        bit_to_affine(bit_function("KE"))


def test_bit_to_affine_round_trip_exhaustive():
    # Every erasure-free BIT function up to n=4 agrees with its affine
    # form on every input.
    for n in range(1, 5):
        for f in enumerate_bit_functions(n, 4):
            g = bit_to_affine(f)
            for x in range(1 << n):
                assert g.apply(x) == f.apply(x)


def affine(rows, delta: str) -> AffineFunction:
    return AffineFunction(GF2Matrix.from_rows(rows), bits_to_int(delta))


def test_apply_affine_examples():
    def apply(f, u):
        return int_to_bits(f.apply(bits_to_int(u)), f.out_dim)

    ident = AffineFunction(gf2_identity(2), 0)
    assert apply(ident, "10") == "10"

    const = AffineFunction(gf2_zero(2, 2), bits_to_int("01"))
    assert apply(const, "11") == "01"

    assert apply(affine(["11", "01"], "10"), "11") == "00"


def test_affine_rejects_bad_delta():
    for delta in (-1, 0b100, "10"):
        with pytest.raises(ValueError):
            AffineFunction(gf2_identity(2), delta)


def test_compose_affine_pointwise():
    rng = random.Random(20)
    for _ in range(40):
        a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        f = AffineFunction(
            GF2Matrix(tuple(rng.getrandbits(b) for _ in range(a)), b),
            bits_to_int("".join(rng.choice("01") for _ in range(b))),
        )
        g = AffineFunction(
            GF2Matrix(tuple(rng.getrandbits(c) for _ in range(b)), c),
            bits_to_int("".join(rng.choice("01") for _ in range(c))),
        )
        h = compose_affine(f, g)
        for u in range(1 << a):
            assert h.apply(u) == g.apply(f.apply(u))


def test_enumeration_counts_and_order():
    ones = list(enumerate_bit_functions(1, 4))
    assert [f.to_string() for f in ones] == ["K", "F", "0", "1"]
    assert len(list(enumerate_bit_functions(2, 4))) == 16
    assert len(list(enumerate_bit_functions(2, 5))) == 25
    assert len(set(enumerate_bit_functions(2, 5))) == 25


@pytest.mark.parametrize("alphabet", [4, 5])
def test_enumerated_masks_match_actions(alphabet):
    # The masks set during enumeration are those pattern computes from
    # the actions, and the functions come in product order.
    letters = list(BitAction)[:alphabet]
    for n in range(1, 5):
        got = list(enumerate_bit_functions(n, alphabet))
        assert [f.actions for f in got] == list(product(letters, repeat=n))
        assert [f.pattern for f in got] == [BITFunction(f.actions).pattern for f in got]


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_bit_functions(10, 4, budget=1000))


def test_affine_json_round_trip():
    g = affine(["11", "01"], "10")
    assert affine_from_json(g.to_json()) == g


def test_affine_renders_bitstrings():
    # The int delta renders and parses as the same bytes a bitstring
    # delta did: position 0 first.
    g = affine(["110", "011"], "100")
    text = '{"M": [[1, 1, 0], [0, 1, 1]], "delta": "100"}'
    assert json.dumps(g.to_json()) == text
    assert affine_from_json(json.loads(text)) == g
    assert g.delta == 1
    assert function_key(g) == "M=110|011;d=100"
    assert repr(g) == "AffineFunction(M=['110', '011'], delta='100')"
    with pytest.raises(ValueError):
        affine_from_json({"M": [[1, 0]], "delta": "1"})


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: GF2Matrix.from_rows(["101", "011"]),
         lambda: GF2Matrix.from_rows(["101", "010"])),
        (lambda: bit_function("KF0"), lambda: bit_function("KF1")),
        (lambda: affine(["11", "01"], "10"), lambda: affine(["11", "01"], "01")),
        (lambda: Channel.from_rows([[F(9, 10), F(1, 10)], [0, 1]]),
         lambda: Channel.from_rows([[F(9, 10), F(1, 10)], [F(1, 10), F(9, 10)]])),
        (lambda: ElementaryDecomposition((F(1, 2), 0, F(1, 4), F(1, 4), 0)),
         lambda: ElementaryDecomposition((F(1, 2), 0, F(1, 4), 0, F(1, 4)))),
        (lambda: SingularReport(rank=1), lambda: SingularReport(rank=2)),
        (lambda: NMReport(F(1, 4), ((1, 0, 0, 0), 1), 0, (F(1, 4), F(0))),
         lambda: NMReport(F(1, 4), ((1, 0, 0, 0), 1), 1, (F(0), F(1, 4)))),
        (lambda: ReconstructionSet((0, 2), gf2_identity(2)),
         lambda: ReconstructionSet((1, 2), gf2_identity(2))),
        (lambda: SequenceReport("K,F", F(1, 8), F(1, 4), F(1, 2), 0, 3, k=1),
         lambda: SequenceReport("K,F", F(1, 8), F(1, 4), F(1, 2), 1, 3, k=1)),
    ],
    ids=["GF2Matrix", "BITFunction", "AffineFunction", "Channel",
         "ElementaryDecomposition", "SingularReport", "NMReport",
         "ReconstructionSet", "SequenceReport"],
)
def test_value_semantics(make, other):
    # Values that key dicts or are compared by the library and the tests:
    # equal constructions are equal and hash equal, other values differ,
    # and an unrelated object compares unequal without raising.
    first, second, different = make(), make(), other()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != different and not first == different
    assert (first == "unrelated") is False
    assert (first != "unrelated") is True


def test_record_fields_are_set_once():
    # A record takes each of its __slots__ exactly once, by position or
    # by keyword; records of two classes never compare equal.
    assert SingularReport(1) == SingularReport(rank=1)
    for args, kwargs in [((), {}), ((1,), {"rank": 1}), ((1, 2), {}),
                         ((), {"rnk": 1}), ((1,), {"rank2": 2})]:
        with pytest.raises(TypeError):
            SingularReport(*args, **kwargs)
    with pytest.raises(TypeError):
        ReconstructionSet((0,))

    class Rank(Record):
        __slots__ = ("rank",)

    assert Rank(1) != SingularReport(1) and not Rank(1) == SingularReport(1)
