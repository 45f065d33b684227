"""Channel decomposition (elementary convex combinations) and state
sequences (product output laws vs. pattern mixtures)."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmavc import (
    Channel,
    ElementaryDecomposition,
    StateSequence,
    channel_from_json,
    decompose,
    feasible_interval,
    format_rational,
)
from nmavc.errors import (
    InfeasibleCoefficientError,
    InvalidChannelError,
    UnsupportedChannelError,
)
from oracles import (
    FiniteDistribution,
    apply_actions,
    bit_function,
    bsc,
    elementary_channel,
    fraction_weights,
    identity_channel,
    mixture_output_distribution,
    mixture_weights_walk,
    output_distribution,
    random_binary_channel,
    random_extended_channel,
    row_support,
    sample_output,
    with_erasure,
)

K, FL, S0, S1, E = "KF01E"


# ------------------------------------------- single-channel decomposition

def test_identity_decomposes_to_keep():
    dec = decompose(identity_channel())
    assert dec.alphas == (1, 0, 0, 0, 0)


def test_bsc_decomposition():
    ch = bsc(F(3, 10))
    dec = decompose(ch)
    assert dec.alphas == (F(7, 10), F(3, 10), 0, 0, 0)
    assert dec.reconstruct() == ch


def test_z_channel_decomposition():
    ch = Channel.from_rows([[1, 0], [F(3, 10), F(7, 10)]])
    dec = decompose(ch)
    assert dec.alphas == (F(7, 10), 0, F(3, 10), 0, 0)
    assert dec.reconstruct() == ch


def test_feasible_interval_examples():
    assert feasible_interval(bsc(F(3, 10))) == (0, F(3, 10))
    # Identity pins alpha3 = 0 (pure Keep); the constant-0 channel pins
    # alpha3 = 1 (pure Set0).
    assert feasible_interval(identity_channel()) == (0, 0)
    const0 = Channel.from_rows([[1, 0], [1, 0]])
    assert feasible_interval(const0) == (1, 1)
    assert decompose(const0).alphas == (0, 0, 1, 0, 0)


def test_interval_endpoints_always_reconstruct():
    rng = random.Random(100)
    for _ in range(80):
        ch = random_binary_channel(rng)
        lower, upper = feasible_interval(ch)
        assert lower <= upper
        for a3 in (lower, upper):
            dec = decompose(ch, a3)
            assert all(a >= 0 for a in dec.alphas)
            assert sum(dec.alphas) == 1
            assert dec.reconstruct() == ch


def test_infeasible_alpha3_rejected():
    ch = bsc(F(3, 10))
    with pytest.raises(InfeasibleCoefficientError):
        decompose(ch, F(1, 2))


def test_interior_alpha3_reconstructs():
    ch = bsc(F(1, 2))
    dec = decompose(ch, F(1, 4))
    assert dec.reconstruct() == ch


def test_random_feasible_alpha3_reconstructs():
    # Three random points of the feasible interval per channel all give
    # valid, exactly-reconstructing coefficient vectors.
    rng = random.Random(104)
    for _ in range(40):
        ch = random_binary_channel(rng)
        lower, upper = feasible_interval(ch)
        for _ in range(3):
            t = F(rng.randint(0, 8), 8)
            a3 = lower + t * (upper - lower)
            dec = decompose(ch, a3)
            assert all(a >= 0 for a in dec.alphas)
            assert sum(dec.alphas) == 1
            assert dec.reconstruct() == ch


# ----------------------------------------------------------- extended side

def test_bec_decomposition():
    ch = Channel.bec(F(1, 10))
    dec = decompose(ch)
    assert dec.alphas == (F(9, 10), 0, 0, 0, F(1, 10))
    assert dec.reconstruct(extended=True) == ch


def test_pure_erase_decomposition():
    ch = Channel.from_rows([[0, 0, 1], [0, 0, 1]])
    assert decompose(ch).alphas == (0, 0, 0, 0, 1)


def test_erasure_then_bsc_decomposition():
    ch = Channel.from_rows(
        [[F(63, 100), F(27, 100), F(1, 10)], [F(27, 100), F(63, 100), F(1, 10)]]
    )
    dec = decompose(ch)
    assert dec.alphas == (F(63, 100), F(27, 100), 0, 0, F(1, 10))
    assert dec.reconstruct(extended=True) == ch


def test_random_extended_channels_reconstruct():
    rng = random.Random(101)
    for _ in range(60):
        ch = random_extended_channel(rng)
        dec = decompose(ch)
        assert sum(dec.alphas) == 1
        assert dec.reconstruct(extended=True) == ch


def test_input_dependent_erasure_rejected():
    with pytest.raises(UnsupportedChannelError):
        Channel.from_rows(
            [[F(9, 10), 0, F(1, 10)], [0, F(4, 5), F(1, 5)]]
        )


def test_channel_validation():
    with pytest.raises(InvalidChannelError):
        Channel.from_rows([[F(1, 2), F(1, 3)], [0, 1]])
    with pytest.raises(InvalidChannelError):
        channel_from_json({"rows": [[0.7, 0.3], ["3/10", "7/10"]]})
    with pytest.raises(InvalidChannelError):
        channel_from_json({"rows": [["1", "0"]]})


def test_channel_json_round_trip():
    rows = [["7/10", "3/10"], ["3/10", "7/10"]]
    assert channel_from_json({"rows": rows}) == bsc(F(3, 10))
    rows = [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]
    assert channel_from_json({"rows": rows}) == Channel.bec(F(1, 10))


unit = st.fractions(min_value=0, max_value=1)


@settings(max_examples=200, derandomize=True)
@given(unit, unit, unit, st.booleans())
def test_channel_json_round_trip_property(w0, w1, p, extended):
    # Binary rows [w, 1 - w]; extended rows share the erasure mass p.
    if extended:
        ch = Channel.from_rows(
            [[w * (1 - p), (1 - w) * (1 - p), p] for w in (w0, w1)]
        )
    else:
        ch = Channel.from_rows([[w, 1 - w] for w in (w0, w1)])
    text = json.dumps({"rows": [[format_rational(v) for v in row] for row in ch.rows]})
    assert channel_from_json(json.loads(text)) == ch


def test_elementary_channels_match_actions():
    # The reconstruction of a one-hot decomposition is the channel of its
    # action written out in the oracle, and that channel is the
    # deterministic law of the action.
    cases = [(a, extended) for a in (K, FL, S0, S1) for extended in (False, True)]
    for action, extended in cases + [(E, True)]:
        alphas = [F(0)] * 5
        alphas["KF01E".index(action)] = F(1)
        ch = ElementaryDecomposition(tuple(alphas)).reconstruct(extended=extended)
        assert ch == elementary_channel(action, extended=extended), (action, extended)
        for x in (0, 1):
            row = dict(row_support(ch, x))
            assert len(row) == 1
            expected = apply_actions(bit_function(action), str(x))
            assert row[expected] == 1


def test_reconstruct_erase_needs_extended_alphabet():
    # An Erase weight has no binary channel to go to.
    dec = decompose(Channel.bec(F(1, 10)))
    assert dec.reconstruct(extended=True) == Channel.bec(F(1, 10))
    with pytest.raises(InvalidChannelError,
                       match="Erase is only a channel on the extended alphabet"):
        dec.reconstruct(extended=False)


def test_support_names_actions_by_masks():
    # The support pairs each positive weight with its action's (keep,
    # xor, erase) masks, in the order Keep, Flip, Set0, Set1, Erase.
    assert decompose(bsc(F(3, 10))).support() == [
        ((1, 0, 0), F(7, 10)), ((1, 1, 0), F(3, 10)),
    ]
    ch = with_erasure(Channel.from_rows([[1, 0], [F(1, 4), F(3, 4)]]), F(1, 5))
    assert decompose(ch).support() == [
        ((1, 0, 0), F(3, 5)), ((0, 0, 0), F(1, 5)), ((0, 0, 1), F(1, 5)),
    ]


# ----------------------------------------------- sequence output mixtures

def test_mixture_weights_single_bsc():
    seq = StateSequence([bsc(F(3, 10))])
    got = dict()
    for pattern, w in fraction_weights(seq):
        got[pattern] = w
    assert got == {K: F(7, 10), FL: F(3, 10)}


def test_mixture_weights_bsc_half_squared():
    seq = StateSequence([bsc(F(1, 2))] * 2)
    weights = dict(fraction_weights(seq))
    assert len(weights) == 4
    assert all(w == F(1, 4) for w in weights.values())


def test_mixture_weights_identity_single_pattern():
    seq = StateSequence([identity_channel()] * 2)
    assert dict(fraction_weights(seq)) == {K + K: F(1)}


def test_mixture_weights_sum_to_one():
    rng = random.Random(102)
    for _ in range(20):
        n = rng.randint(1, 4)
        seq = StateSequence([random_binary_channel(rng) for _ in range(n)])
        assert sum(w for _, w in fraction_weights(seq)) == 1


edge_or_unit = st.one_of(st.sampled_from([F(0), F(1)]), unit)


@settings(max_examples=200, derandomize=True)
@given(st.booleans(),
       st.lists(st.tuples(edge_or_unit, edge_or_unit, edge_or_unit),
                min_size=1, max_size=4))
def test_mixture_weights_order_matches_walk(extended, positions):
    # The pattern order fixes verify_composed's member order, and so
    # which worst function it reports.  Edge entries give zero
    # coefficients, which both sides skip.
    channels = []
    for w0, w1, p in positions:
        ch = Channel.from_rows([[w, 1 - w] for w in (w0, w1)])
        channels.append(with_erasure(ch, p) if extended else ch)
    seq = StateSequence(channels)
    assert fraction_weights(seq) == list(mixture_weights_walk(seq))


def test_output_distribution_examples():
    set0 = elementary_channel(S0)
    seq = StateSequence([set0] * 3)
    assert output_distribution(seq, "101") == FiniteDistribution.point("000")

    seq1 = StateSequence([bsc(F(3, 10))])
    assert output_distribution(seq1, "1") == FiniteDistribution(
        {"1": F(7, 10), "0": F(3, 10)}
    )

    seq2 = StateSequence([bsc(F(3, 10)), identity_channel()])
    assert output_distribution(seq2, "10") == FiniteDistribution(
        {"10": F(7, 10), "00": F(3, 10)}
    )


def test_product_equals_pattern_mixture_exactly():
    # The elementary-pattern mixture reproduces the product law, n <= 3.
    rng = random.Random(103)
    from nmavc import all_bitstrings

    for _ in range(10):
        n = rng.randint(1, 3)
        seq = StateSequence([random_binary_channel(rng) for _ in range(n)])
        for x in all_bitstrings(n):
            assert output_distribution(seq, x) == mixture_output_distribution(seq, x)


def test_extended_product_law():
    seq = StateSequence([Channel.bec(F(1, 10))] * 2)
    out = output_distribution(seq, "01")
    assert out.probability("01") == F(81, 100)
    assert out.probability("e1") == F(9, 100)
    assert out.probability("ee") == F(1, 100)


# ------------------------------------------------------------------ sampling

def test_sample_output_deterministic_given_seed():
    seq = StateSequence([bsc(F(3, 10))] * 32)
    x = "01" * 16
    assert sample_output(seq, x, 9) == sample_output(seq, x, 9)


def test_sample_output_trivial_channels():
    set1 = elementary_channel(S1)
    seq = StateSequence([set1] * 5)
    assert sample_output(seq, "01010", 1) == "11111"
    ident = StateSequence([identity_channel()] * 5)
    assert sample_output(ident, "01010", 2) == "01010"


def test_sample_output_binomial_concentration():
    n = 10_000
    seq = StateSequence([bsc(F(3, 10))] * n)
    word = sample_output(seq, "0" * n, 42)
    ones = word.count("1")
    sigma = (n * 0.3 * 0.7) ** 0.5
    assert abs(ones - 0.3 * n) <= 3 * sigma


def test_mixed_alphabet_sequences_rejected():
    with pytest.raises(InvalidChannelError):
        StateSequence([identity_channel(), Channel.bec(F(1, 10))])
