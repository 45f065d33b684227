"""GF(2) matrices, the erasure decoder, and failure probabilities."""

import gc
import random
import weakref
from itertools import product
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmavc import (
    GF2Matrix,
    delta_exact,
    delta_monte_carlo,
    ecc_decode,
)
from nmavc import gf2
import nmavc.composed as composed
from nmavc.errors import BudgetExceededError, InvalidInstanceError
from nmavc.gf2 import (
    bits_to_int,
    gather_bits,
    gather_table,
    int_to_bits,
    mask_decoder,
    rank_of_columns,
    select_reconstruction,
    words_in_order,
)
from oracles import (
    ecc_decode_string,
    ecc_encode,
    gf2_identity,
    gf2_matmul,
    hamming_7_4,
    lex_min_reconstruction,
    min_distance,
    random_full_rank,
    reconstruction_sets,
    single_parity,
    split_word,
)


def test_bit_packing_round_trip():
    for bits in ("0", "1", "1011", "0000", "111111"):
        assert int_to_bits(bits_to_int(bits), len(bits)) == bits


def test_words_in_order_is_lexicographic():
    for n in range(7):
        for erasures, alphabet in ((False, "01"), (True, "01e")):
            expected = [split_word("".join(w)) for w in product(alphabet, repeat=n)]
            assert list(words_in_order(n, erasures)) == expected


def decode(g: GF2Matrix, y: str):
    """ecc_decode on a string word; the message as a string, or None."""
    u = ecc_decode(g, *split_word(y))
    return None if u is None else int_to_bits(u, g.nrows)


def test_encode_examples():
    ident = gf2_identity(3)
    assert ecc_encode(ident, "101") == "101"
    g = GF2Matrix.from_rows(["101", "011"])
    assert ecc_encode(g, "11") == "110"
    assert ecc_encode(g, "00") == "000"


def test_reconstruction_examples():
    # A self-inverse square generator, the identity, and a rank-1 one.
    a = GF2Matrix.from_rows(["11", "01"])
    assert select_reconstruction(a, 0).inverse == a
    assert select_reconstruction(gf2_identity(3), 0).inverse == gf2_identity(3)
    assert select_reconstruction(GF2Matrix.from_rows(["11", "11"]), 0) is None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_reconstruction_inverts_lex_min_set(data):
    # On every mask of a random full-rank generator, R is the brute-force
    # lex-min set, the inverse is G_R^{-1} on both sides, and the result
    # is None exactly when the surviving columns have rank below m.
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(m, 9))
    g = random_full_rank(m, n, data.draw(st.integers(0, 2**32)))
    for mask in range(1 << n):
        recon = select_reconstruction(g, mask)
        survivors = [j for j in range(n) if not (mask >> j) & 1]
        erased = frozenset(range(n)) - set(survivors)
        assert (recon is None) == (rank_of_columns(g, survivors) < m)
        if recon is None:
            assert lex_min_reconstruction(g, erased) is None
            continue
        assert recon.indices == lex_min_reconstruction(g, erased)
        g_r = g.submatrix_columns(recon.indices)
        assert gf2_matmul(g_r, recon.inverse) == gf2_identity(m)
        assert gf2_matmul(recon.inverse, g_r) == gf2_identity(m)


def test_decode_no_erasures_round_trip():
    g = hamming_7_4()
    for u in ("0000", "1010", "1111"):
        assert decode(g, ecc_encode(g, u)) == u


def test_decode_worked_example():
    g = GF2Matrix.from_rows(["101", "011"])
    assert decode(g, "1e0") == "11"
    indices = select_reconstruction(g, split_word("1e0")[1]).indices
    assert indices == (0, 2)
    # Re-encoding agrees with the received word on the reconstruction set.
    word = ecc_encode(g, "11")
    for j in indices:
        assert word[j] == "1e0"[j]


def test_decode_all_erased():
    g = gf2_identity(2)
    assert decode(g, "ee") is None


def test_decode_deterministic_and_lex_minimal():
    rng = random.Random(31)
    for _ in range(25):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        g = random_full_rank(m, n, rng)
        for _ in range(8):
            erased = frozenset(
                j for j in range(n) if rng.random() < 0.4
            )
            word = "".join("e" if j in erased else "0" for j in range(n))
            mask = split_word(word)[1]
            first = select_reconstruction(g, mask)
            second = select_reconstruction(g, mask)
            oracle = lex_min_reconstruction(g, erased)
            if oracle is None:
                assert first is None and second is None
                assert decode(g, word) is None
            else:
                assert first.indices == oracle
                assert second.indices == oracle


def test_decode_within_minimum_distance():
    # Any erasure pattern of weight < d is correctable.
    for g in (single_parity(3), hamming_7_4()):
        d = min_distance(g)
        n = g.ncols
        from itertools import combinations

        from nmavc import all_bitstrings

        for u in all_bitstrings(g.nrows):
            word = ecc_encode(g, u)
            for weight in range(d):
                for pattern in combinations(range(n), weight):
                    erased = "".join(
                        "e" if j in pattern else word[j] for j in range(n)
                    )
                    assert decode(g, erased) == u


def test_reencode_agrees_on_reconstruction_set():
    # For arbitrary (not necessarily codeword) erased words, re-encoding
    # the decoded message reproduces the received bits on R.
    rng = random.Random(33)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        g = random_full_rank(m, n, rng)
        word = "".join(rng.choice("01e") for _ in range(n))
        message = decode(g, word)
        if message is None:
            continue
        recoded = ecc_encode(g, message)
        for j in select_reconstruction(g, split_word(word)[1]).indices:
            assert recoded[j] == word[j]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_decode_matches_string_oracle(data):
    # The int decoder and its reconstruction set agree with the string
    # decoder, whose R comes from a brute-force lex-min scan, on random
    # full-rank generators and random words of {0,1,e}^n.
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(m, 7))
    g = random_full_rank(m, n, data.draw(st.integers(0, 2**32)))
    word = "".join(data.draw(st.lists(st.sampled_from("01e"), min_size=n, max_size=n)))
    bits, erased = split_word(word)
    expected = ecc_decode_string(g, word)
    recon = select_reconstruction(g, erased)
    if expected is None:
        assert ecc_decode(g, bits, erased) is None and recon is None
    else:
        assert int_to_bits(ecc_decode(g, bits, erased), m) == expected.message
        assert recon.indices == expected.indices


def test_decode_rejects_non_words():
    g = GF2Matrix.from_rows(["101", "011"])
    for bits, erased in ((0b1000, 0), (0, 0b1000), (0b001, 0b001), (-1, 0)):
        with pytest.raises(ValueError):
            ecc_decode(g, bits, erased)


def test_decode_kept_per_generator(monkeypatch):
    # Each mask's entry is built once, with one decode per word of the
    # mask where a reconstruction set survives and none elsewhere; a
    # second read returns the kept entry, and a generator equal to it
    # builds its own.
    calls = []
    decode = gf2.ecc_decode

    def counting_decode(g, bits, erased):
        calls.append((bits, erased))
        return decode(g, bits, erased)

    monkeypatch.setattr(gf2, "ecc_decode", counting_decode)
    generators = [random_full_rank(3, 5, 36), random_full_rank(3, 5, 36)]
    words = words_in_order(5, erasures=True)
    first = [mask_decoder(generators[0], erased) for erased in range(32)]
    assert all(mask_decoder(generators[0], erased) is first[erased] for erased in range(32))
    recoverable = [(bits, erased) for bits, erased in words
                   if select_reconstruction(generators[0], erased) is not None]
    assert 0 < len(recoverable) < len(words)
    assert sorted(calls) == sorted(recoverable)
    assert [mask_decoder(generators[1], erased) for erased in range(32)] == first
    assert len(calls) == 2 * len(recoverable)


def test_decode_table_matches_ecc_decode():
    # Every mask's entry holds its reconstruction set, the mask of that
    # set, and ecc_decode's result at each word of the mask, which is the
    # string decoder's; bits on an erased position make no word, which
    # the table leaves None and ecc_decode rejects.  A mask no set
    # survives has no entry, and every word of it decodes to failure.
    g = single_parity(3)
    for word in map("".join, product("01e", repeat=g.ncols)):
        bits, erased = split_word(word)
        entry = mask_decoder(g, erased)
        u = None if entry is None else entry[2][bits]
        assert u == ecc_decode(g, bits, erased)
        expected = ecc_decode_string(g, word)
        assert u == (None if expected is None else bits_to_int(expected.message))
    for erased in range(1 << g.ncols):
        entry = mask_decoder(g, erased)
        recon = select_reconstruction(g, erased)
        if recon is None:
            assert entry is None
            continue
        assert entry[:2] == (recon, sum(1 << j for j in recon.indices))
        table = entry[2]
        assert len(table) == 1 << g.ncols
        for bits in range(1 << g.ncols):
            if bits & erased:
                assert table[bits] is None
                with pytest.raises(ValueError):
                    ecc_decode(g, bits, erased)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_codeword_table_matches_vec_mul(data):
    nrows = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, 9))
    rows = data.draw(st.lists(st.integers(0, (1 << ncols) - 1),
                              min_size=nrows, max_size=nrows))
    g = GF2Matrix(tuple(rows), ncols)
    assert g.codewords == tuple(g.vec_mul(u) for u in range(1 << nrows))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_gather_tables_match_gather_bits(data):
    # Induced maps build one gather table per reconstruction set their
    # patterns select, each holding every word's bits on R as gather_bits
    # packs them.  One pattern per erasure mask (Keep elsewhere) reaches
    # every R.
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, min(n, 4)))
    g = random_full_rank(m, n, data.draw(st.integers(0, 2**32)))
    word = (1 << n) - 1
    for erase in range(1 << n):
        composed._induced_map(g, word & ~erase, 0, erase)
    assert set(g._gathers) == reconstruction_sets(g)
    for indices, table in g._gathers.items():
        assert gather_table(g, indices) is table
        assert table == tuple(gather_bits(word, indices) for word in range(1 << n))


def test_reconstruction_kept_per_generator():
    # The reconstruction sets live on the generator and go with it.
    g = random_full_rank(3, 6, 34)
    for mask in range(1 << 6):
        select_reconstruction(g, mask)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_reconstruction_inverts_once_per_mask(monkeypatch):
    # One ReconstructionSet per generator and recoverable mask; a repeat
    # read returns the kept one.
    inversions = []
    build = gf2.ReconstructionSet

    def counting_build(indices, inverse):
        inversions.append(indices)
        return build(indices, inverse)

    monkeypatch.setattr(gf2, "ReconstructionSet", counting_build)
    generators = [random_full_rank(3, 6, 35), random_full_rank(3, 6, 35)]
    assert generators[0] == generators[1]
    recoverable = 0
    for g in generators:
        for _ in range(2):
            found = [select_reconstruction(g, mask) for mask in range(1 << 6)]
        recoverable += sum(r is not None for r in found)
    assert recoverable > 0
    assert len(inversions) == recoverable



def test_min_distances_of_stock_codes():
    assert min_distance(single_parity(4)) == 2
    assert min_distance(hamming_7_4()) == 3
    assert min_distance(gf2_identity(3)) == 1


def test_delta_exact_examples():
    assert delta_exact(gf2_identity(2), F(1, 10)) == F(19, 100)
    assert delta_exact(hamming_7_4(), F(0)) == 0
    assert delta_exact(hamming_7_4(), F(1)) == 1


def test_delta_exact_budget():
    with pytest.raises(BudgetExceededError):
        delta_exact(random_full_rank(2, 21, 0), F(1, 10), budget=20)


def test_delta_rejects_probability_outside_unit_interval():
    # p_star is checked before the budget, and Monte Carlo checks it too.
    g = single_parity(4)
    for p in (F(2), F(-1, 10)):
        with pytest.raises(InvalidInstanceError):
            delta_exact(g, p, budget=1)
        with pytest.raises(InvalidInstanceError):
            delta_monte_carlo(g, p, 100, 0)


def test_delta_monte_carlo_degenerate():
    g = gf2_identity(2)
    assert delta_monte_carlo(g, F(0), 1000, 0) == (0.0, 0.0)
    assert delta_monte_carlo(g, F(1), 1000, 0) == (1.0, 0.0)


def test_delta_monte_carlo_near_exact():
    g = gf2_identity(2)
    exact = float(delta_exact(g, F(1, 10)))
    estimate, ci95 = delta_monte_carlo(g, F(1, 10), 100_000, 5)
    assert abs(estimate - exact) <= ci95


def test_delta_monte_carlo_deterministic():
    g = hamming_7_4()
    assert delta_monte_carlo(g, F(1, 5), 10_000, 7) == delta_monte_carlo(
        g, F(1, 5), 10_000, 7
    )


def test_delta_monte_carlo_past_64_columns():
    # One row with ones at columns 63 and 64 of n = 66 fails to decode
    # exactly when both are erased: 1/4 at p = 1/2.  Each erasure mask
    # keeps every column, the ones past an int64's 63 bits included.
    g = GF2Matrix.from_rows(["0" * 63 + "110"])
    estimate, ci95 = delta_monte_carlo(g, F(1, 2), 20_000, 3)
    assert abs(estimate - 0.25) <= ci95


def test_random_full_rank_has_full_rank():
    rng = random.Random(32)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(m, 8)
        assert random_full_rank(m, n, rng).rank() == m


def test_rank_of_columns():
    g = GF2Matrix.from_rows(["101", "011"])
    assert rank_of_columns(g, [0, 1]) == 2
    assert rank_of_columns(g, [0]) == 1
    assert rank_of_columns(g, []) == 0


def test_matrix_json_round_trip():
    g = hamming_7_4()
    assert GF2Matrix.from_json({"rows": g.row_strings()}) == g
