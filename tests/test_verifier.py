"""Tampering experiments, the LP-optimal simulator, and the bit-family
to channel transfer."""

import json
import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nmavc.channels as channel_module
import nmavc.verifier as verifier
from nmavc import (
    BOT_MAP,
    AffineFunction,
    Channel,
    BITFunction,
    ComposedScheme,
    GF2Matrix,
    NMReport,
    StateSequence,
    StochasticCode,
    all_bitstrings,
    certify_bit_family,
    certify_family,
    channel_map,
    enumerate_bit_functions,
    optimal_simulator,
    search_nm_code,
    tamper_map,
    verify_transfer,
)
from nmavc.gf2 import bits_to_int, int_to_bits
from nmavc.verifier import _mixture
from nmavc.errors import (
    BudgetExceededError,
    InvalidCodeError,
    InvalidInstanceError,
    InvalidMixtureError,
    NmavcError,
    VerificationError,
)
from oracles import (
    BOT,
    SAME_STAR,
    FiniteDistribution,
    affine_tamper_distribution,
    apply_copy,
    bit_function,
    bit_to_affine,
    bsc,
    certify_every_member,
    composed_tamper_distribution,
    ds_mixture,
    ecc_encode,
    elementary_channel,
    fixed_k2n5_code,
    full_simulator_lp,
    gf2_identity,
    grid_optimum,
    identity_channel,
    identity_code,
    law_of,
    law_table,
    laws_of,
    linear_code,
    mixture_bounds,
    mixture_weights_walk,
    product_tamper_distribution,
    profile_bound_by_gaps,
    random_binary_channel,
    random_distribution,
    random_extended_channel,
    random_full_rank,
    rational_simulator_lp,
    recorded_lps,
    sd_event_oracle,
    single_parity,
    statistical_distance,
    tamper_distribution_channel_mixture,
    trivial_simulator_bound,
    uniform,
    with_erasure,
)

point = FiniteDistribution.point


def offset_attack(g: GF2Matrix) -> BITFunction:
    """x -> x + enc(all-ones): Flip where the codeword of 1...1 is set."""
    delta = ecc_encode(g, "1" * g.nrows)
    return bit_function(
        "".join("F" if ch == "1" else "K" for ch in delta)
    )


# ------------------------------------------------------------ stochastic code

def test_identity_code_correctness():
    code = identity_code(2)
    code.check_correctness()


def test_broken_code_rejected():
    # Every word decodes to bot: the constructor's audit refuses it.
    with pytest.raises(InvalidCodeError, match="violating perfect correctness"):
        StochasticCode(1, 1, 0, [(0,), (1,)], {})


def test_non_bit_codeword_rejected():
    # The codeword of "0" has a bit beyond position n - 1 = 1.
    with pytest.raises(InvalidCodeError):
        code = StochasticCode(1, 2, 0, [(0b100,), (0b11,)], {0b100: 0, 0b11: 1})
        certify_bit_family(code)


def test_code_json_round_trip():
    code = search_nm_code(k=1, n=3, rho=1, trials=4, seed=3).code
    clone = StochasticCode.from_json(code.to_json())
    clone.check_correctness()
    assert clone.enc == code.enc


# ------------------------------------------------------- tamper distributions

def test_keep_yields_point_mass_on_message():
    code = identity_code(3)
    laws = laws_of(3, *tamper_map(code, bit_function("KKK")))
    for m in ("000", "101"):
        assert laws[m] == point(m)


def test_constant_function_yields_constant_image():
    code = identity_code(2)
    got = laws_of(2, *tamper_map(code, bit_function("00")))["10"]
    assert got == point("00")


def test_offset_attack_on_linear_code():
    # Adding the codeword of the all-ones message shifts every decoded
    # message by all-ones: the textbook malleability of linear codes.
    g = GF2Matrix.from_rows(["101", "011"])
    code = linear_code(g)
    laws = laws_of(2, *tamper_map(code, offset_attack(g)))
    for m in all_bitstrings(2):
        expected = "".join("1" if ch == "0" else "0" for ch in m)
        assert laws[m] == point(expected)


def test_affine_function_tampering():
    code = identity_code(2)
    f = bit_to_affine(bit_function("F1"))
    assert laws_of(2, *tamper_map(code, f))["00"] == point("11")


def test_erase_rejected_on_plain_code():
    code = identity_code(2)
    with pytest.raises(InvalidInstanceError):
        tamper_map(code, bit_function("KE"))


def test_channel_tamper_identity_and_constant():
    code = identity_code(2)
    ident = StateSequence([identity_channel()] * 2)
    assert laws_of(2, *channel_map(code, ident))["10"] == point("10")

    set0 = StateSequence([Channel.from_rows([[1, 0], [1, 0]])] * 2)
    assert laws_of(2, *channel_map(code, set0))["10"] == point("00")


def test_channel_tamper_single_bsc():
    code = identity_code(1)
    seq = StateSequence([bsc(F(3, 10))])
    got = laws_of(1, *channel_map(code, seq))["1"]
    assert got == FiniteDistribution({"1": F(7, 10), "0": F(3, 10)})


def test_product_equals_mixture_for_codes():
    # Direct product law against the elementary-pattern mixture, exact,
    # for block lengths up to 5.
    rng = random.Random(50)
    for n, rho, trials in ((3, 1, 4), (4, 2, 2), (5, 1, 2)):
        code = search_nm_code(k=1, n=n, rho=rho, trials=trials, seed=1).code
        for _ in range(2):
            seq = StateSequence([random_binary_channel(rng) for _ in range(n)])
            direct = laws_of(code.k, *channel_map(code, seq))
            for m, label in enumerate(all_bitstrings(code.k)):
                mixture = tamper_distribution_channel_mixture(code, seq, m)
                assert direct[label] == mixture


def test_channel_route_reads_no_decomposition(monkeypatch):
    # The channel laws are the side of the mixture check that must stay
    # independent of the patterns: computing them decomposes no channel.
    def refuse(ch, alpha3=None):
        raise AssertionError("the channel route decomposed a channel")

    monkeypatch.setattr(channel_module, "decompose", refuse)
    code = search_nm_code(k=1, n=3, rho=1, trials=2, seed=1).code
    seq = StateSequence([
        bsc(F(3, 10)),
        Channel.from_rows([[1, 0], [F(1, 4), F(3, 4)]]),
        bsc(F(1, 2)),
    ])
    channel_map(code, seq)


def test_budget_errors():
    code = identity_code(2)
    seq = StateSequence([identity_channel()] * 2)
    with pytest.raises(BudgetExceededError):
        channel_map(code, seq, budget=1)
    with pytest.raises(BudgetExceededError):
        certify_bit_family(code, budget=3)


@lru_cache(maxsize=None)
def length4_codes() -> tuple[StochasticCode, ComposedScheme]:
    """A plain code and a composed scheme, both of block length 4."""
    plain = search_nm_code(k=1, n=4, rho=2, trials=2, seed=1).code
    inner = search_nm_code(k=1, n=3, rho=1, trials=2, seed=1).code
    return plain, ComposedScheme(inner, single_parity(3))


def zero_heavy_channels(extended: bool) -> list[Channel]:
    """Channels with zero entries: the deterministic ones first (each
    input has one output), then Z, BEC(p) and a lifted BSC at p = 0."""
    binary = [
        identity_channel(),
        Channel.from_rows([[0, 1], [1, 0]]),
        Channel.from_rows([[1, 0], [1, 0]]),
        Channel.from_rows([[0, 1], [0, 1]]),
        Channel.from_rows([[1, 0], [F(1, 3), F(2, 3)]]),
    ]
    if not extended:
        return binary
    return [
        *(ch.to_extended() for ch in binary[:4]),
        Channel.from_rows([[0, 0, 1], [0, 0, 1]]),
        with_erasure(binary[4], F(1, 5)),
        Channel.bec(F(1, 10)),
        with_erasure(bsc(0), F(2, 7)),
    ]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    extended=st.booleans(),
    picks=st.lists(st.integers(0, 11), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
@example(extended=False, picks=[0, 1, 2, 3], seed=0)
@example(extended=True, picks=[0, 4, 2, 3], seed=0)
def test_sparse_channel_laws_match_fraction_oracles(extended, picks, seed):
    # channel_map multiplies only non-zero channel entries.  On sequences
    # mixing zero-heavy channels with dense random ones it equals the
    # Fraction oracles: the pattern mixture for a plain code, the word
    # by word product for the composed scheme.  The total stays D^n 2^rho,
    # D the lcm of every entry's denominator, and the budget is still
    # charged 2^rho |Y|^n.  The examples use deterministic channels only:
    # each codeword's law is then a single word, over D = 1.
    plain, scheme = length4_codes()
    code = scheme if extended else plain
    rng = random.Random(seed)
    sparse = zero_heavy_channels(extended)
    seq = StateSequence([
        sparse[pick] if pick < len(sparse)
        else random_extended_channel(rng) if extended else random_binary_channel(rng)
        for pick in picks
    ])
    rows, total = channel_map(code, seq)
    d = math.lcm(*(p.denominator for ch in seq.channels for row in ch.rows for p in row))
    assert total == d ** code.n * code.seed_count
    assert all(sum(row) == total for row in rows)
    laws = laws_of(code.k, rows, total)
    for m, label in enumerate(all_bitstrings(code.k)):
        expected = (composed_tamper_distribution(scheme, seq, m) if extended
                    else tamper_distribution_channel_mixture(code, seq, m))
        assert laws[label] == expected
    cost = code.seed_count * (3 if extended else 2) ** code.n
    with pytest.raises(BudgetExceededError):
        channel_map(code, seq, budget=cost - 1)
    assert channel_map(code, seq, budget=cost) == (rows, total)


# ------------------------------------------------------------------- the LP

def test_simulator_for_perfect_transmission():
    # Rows are the messages 0 and 1; columns 0, 1 and bot.
    report = optimal_simulator([[1, 0, 0], [0, 1, 0]], 1)
    assert report.epsilon == 0
    assert law_of(1, *report.simulator) == point(SAME_STAR)


def test_simulator_for_flip():
    report = optimal_simulator([[0, 1, 0], [1, 0, 0]], 1)
    assert report.epsilon == F(1, 2)
    assert law_of(1, *report.simulator) == uniform(["0", "1"])


def test_simulator_recovers_star_mass():
    report = optimal_simulator([[7, 3, 0], [3, 7, 0]], 10)
    assert report.epsilon == 0
    assert law_of(1, *report.simulator) == FiniteDistribution(
        {SAME_STAR: F(2, 5), "0": F(3, 10), "1": F(3, 10)}
    )


def test_simulator_k0_trivial():
    # The one message "" decodes to itself 2 times in 3, else to bot.
    report = optimal_simulator([[2, 1]], 3)
    assert report.epsilon == 0
    assert report.to_json()["worst_message"] == ""


@pytest.mark.parametrize(
    "rows, total",
    [
        ([], 1),
        ([[1, 0, 0]], 1),
        ([[1, 0, 0, 0, 0]] * 3, 1),
        ({"0": point("0"), "1": point("1")}, 1),
        ([[1, 0], [0, 1]], 1),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], 1),
        ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 1),
        ([[2, -1, 0], [0, 1, 0]], 1),
        ([[True, 0, 0], [0, 1, 0]], 1),
        ([[1.0, 0, 0], [0, 1, 0]], 1),
        ([[F(1), 0, 0], [0, 1, 0]], 1),
        ([["0", 0, 0], [0, 1, 0]], 1),
        ([[1, 1, 0], [0, 1, 0]], 1),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[-1, 0, 0], [0, -1, 0]], -1),
        ([[1, 0, 0], [0, 1, 0]], True),
        ([[1, 0, 0], [0, 1, 0]], F(1)),
    ],
    ids=["no-message", "missing-message-k1", "missing-message-k2",
         "string-keyed-laws", "short-rows", "same-star-column",
         "outcome-outside-k", "negative-count", "bool-count", "float-count",
         "fraction-count", "string-count", "row-sum-not-total", "zero-total",
         "negative-total", "bool-total", "fraction-total"],
)
def test_simulator_rejects_malformed_laws(rows, total):
    # A law table has 2^k rows of 2^k + 1 non-negative int counts (the
    # messages and bot, never same*), each summing to the int total > 0.
    with pytest.raises(InvalidInstanceError):
        optimal_simulator(rows, total)


def test_lp_never_beaten_by_grid_oracle():
    # Exhaustive bounded-denominator simulators can never improve on the
    # LP optimum, and the reported distances re-verify by maximizing
    # over events.
    rng = random.Random(51)
    outcomes = ["0", "1", BOT]
    simulator_outcomes = ["0", "1", BOT, SAME_STAR]
    for _ in range(10):
        tm = {m: random_distribution(rng, outcomes) for m in ("0", "1")}
        report = optimal_simulator(*law_table(tm))
        simulator = law_of(1, *report.simulator)
        assert report.per_message_sd == tuple(
            sd_event_oracle(t, apply_copy(simulator, m)) for m, t in tm.items()
        )
        assert max(report.per_message_sd) == report.epsilon
        grid_best = grid_optimum(tm, simulator_outcomes, 6)
        assert report.epsilon <= grid_best


@st.composite
def seed_law_tables(draw):
    """A law table (rows, total) as a code's seeds give it: k in {1, 2},
    2^rho seeds with rho <= 3, each seed of each message decoding to a
    drawn outcome (a message or bot), so most rows hold zero counts."""
    size = 1 << draw(st.integers(1, 2))
    total = 1 << draw(st.integers(0, 3))
    rows = []
    for _ in range(size):
        row = [0] * (size + 1)
        for y in draw(st.lists(st.integers(0, size), min_size=total, max_size=total)):
            row[y] += 1
        rows.append(row)
    return rows, total


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed_law_tables())
@example(([[1, 0, 0], [0, 0, 1]], 1))
def test_support_lp_matches_full_lp(table):
    # A zero count's row says t >= -D(y), which t >= 0 implies: the LP
    # with a slack and a row only per count in a law's support has the
    # optimum of the LP over every (message, outcome) pair.
    rows, total = table
    assume(any(0 in row for row in rows))
    simulator, ((c, a_ub, _, _, _),) = recorded_lps(
        lambda: verifier._simulator_lp(rows, total)
    )
    support = sum(1 for row in rows for count in row if count)
    assert (len(c), len(a_ub)) == (len(rows) + 3 + support, len(rows) + support)
    x, d = full_simulator_lp(rows, total)
    assert verifier._worst_case(rows, total, simulator)[0] == F(x[-1], d * total)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed_law_tables(), st.sampled_from([1, 2, 3]))
@example(([[2, 2, 0], [0, 2, 2]], 4), 1)
@example(tamper_map(fixed_k2n5_code(), bit_function("KKK01")), 1)
@example(tamper_map(fixed_k2n5_code(), bit_function("KK1F1")), 1)
def test_count_unit_lp_matches_rational_lp(table, factor):
    # Every variable of the count-unit LP is total times its probability,
    # which keeps Bland's pivots: the simulator is the vertex of the LP in
    # probabilities, over the same lcm.  A factor > 1 makes every count
    # share it with total, so the rational rows' lcm is below total.
    rows, total = table
    rows, total = [[factor * c for c in row] for row in rows], factor * total
    assert verifier._simulator_lp(rows, total) == rational_simulator_lp(rows, total)


# ----------------------------------------------------------------- transfer

def mixture_entries(simulators, errors=None) -> dict:
    """Each member's profile entry, holding only what the mixture reads:
    its solved report, with its simulator (row, total) and error (0
    unless given)."""
    if errors is None:
        errors = dict.fromkeys(simulators, F(0))
    return {
        f: verifier._Profile((), 1, errors[f], NMReport(errors[f], simulators[f], 0, []))
        for f in simulators
    }


def test_ds_mixture_identity_sequence():
    code = identity_code(2)
    cert = certify_bit_family(code)
    seq = StateSequence([identity_channel()] * 2)
    d_s = ds_mixture(
        seq, {f: law_of(2, *e.solve().simulator) for f, e in cert.members.items()}
    )
    assert d_s == law_of(2, *cert.members[bit_function("KK")].solve().simulator)
    entry_of = {f.pattern: e for f, e in cert.members.items()}
    assert law_of(2, *_mixture(seq.mixture_weights(), entry_of.__getitem__)[0]) == d_s


def test_ds_mixture_example():
    seq = StateSequence([bsc(F(1, 2))])
    # Columns 0, 1, bot and same*.
    simulators = {
        bit_function("K"): ((0, 0, 0, 1), 1),
        bit_function("F"): ((1, 1, 0, 0), 2),
    }
    d_s = ds_mixture(seq, {f: law_of(1, *d) for f, d in simulators.items()})
    assert d_s == FiniteDistribution(
        {SAME_STAR: F(1, 2), "0": F(1, 4), "1": F(1, 4)}
    )
    entry_of = {f.pattern: e for f, e in mixture_entries(simulators).items()}
    assert law_of(1, *_mixture(seq.mixture_weights(), entry_of.__getitem__)[0]) == d_s


def test_ds_mixture_missing_pattern():
    # _mixture reads each positive-weight pattern through its lookup, in
    # the order of mixture_weights, so a pattern the lookup lacks surfaces
    # as the lookup's own error, named by its (keep, xor, erase) masks:
    # F's, after K's, and on two positions KK's, which the member K's
    # (1, 0, 0) miss.
    seq = StateSequence([bsc(F(1, 2))])
    entries = mixture_entries({bit_function("K"): ((0, 0, 0, 1), 1)})
    entry_of = {f.pattern: e for f, e in entries.items()}
    read = []

    def lookup(pattern):
        read.append(pattern)
        return entry_of[pattern]

    with pytest.raises(KeyError, match=r"\(1, 1, 0\)"):
        _mixture(seq.mixture_weights(), lookup)
    assert read == [(1, 0, 0), (1, 1, 0)]
    wide = StateSequence([bsc(F(1, 2))] * 2)
    with pytest.raises(KeyError, match=r"\(3, 0, 0\)"):
        _mixture(wide.mixture_weights(), lookup)


def test_mixture_weights_must_sum_to_denominator():
    keep, flip = bit_function("K"), bit_function("F")
    entries = mixture_entries({keep: ((0, 0, 0, 1), 1), flip: ((1, 0, 0, 0), 1)})
    entry_of = {f.pattern: e for f, e in entries.items()}
    patterns = [(keep.pattern, 1), (flip.pattern, 1)]
    with pytest.raises(InvalidMixtureError, match="sum to 2/3"):
        _mixture((3, patterns), entry_of.__getitem__)
    with pytest.raises(InvalidMixtureError, match="negative"):
        _mixture((1, [(keep.pattern, 2), (flip.pattern, -1)]), entry_of.__getitem__)


def random_law(rng: random.Random, width: int) -> tuple[tuple[int, ...], int]:
    """A random count row of the given width (zeros allowed) over a total
    of 1, 4, 10, 97 or 10007."""
    q = rng.choice([1, 4, 10, 97, 10007])
    cuts = sorted(rng.randint(0, q) for _ in range(width - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, q])), q


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.booleans(), st.booleans(), st.booleans(), st.integers(1, 4),
       st.integers(0, 2**32))
@example(extended=False, shared=False, merged=True, n=2, seed=7)
def test_integer_mixture_matches_fraction_oracle(extended, shared, merged, n, seed):
    # D_s, the weighted bound and the pattern max of the integer route
    # equal the pattern-by-pattern Fraction mix of the independent walk,
    # with per-position denominators up to 10007 and, when shared, a few
    # members each standing for many patterns (as induced maps do).
    # When merged, two members of one profile share one cache entry,
    # whose weights the integer route sums as one.
    rng = random.Random(seed)
    seq = StateSequence([
        random_extended_channel(rng, rng.choice([2, 10, 10007])) if extended
        else random_binary_channel(rng, rng.choice([2, 10, 10007]))
        for _ in range(n)
    ])
    patterns = [pattern for pattern, _ in mixture_weights_walk(seq)]
    if shared:
        members = [f"member{i}" for i in range(rng.randint(1, 4))]
        member_of = {pattern: rng.choice(members) for pattern in patterns}
    else:
        members = [bit_function(pattern) for pattern in patterns]
        member_of = None
    # Simulators of k = 1: columns 0, 1, bot and same*.
    simulators = {f: random_law(rng, 4) for f in members}
    errors = {f: F(rng.randint(0, 10007), 10007) * F(1, rng.randint(1, 12))
              for f in members}
    entries = mixture_entries(simulators, errors)
    used = members if member_of is None else list(dict.fromkeys(member_of.values()))
    if merged and len(used) > 1:
        first, last = used[0], used[-1]
        simulators[last], errors[last] = simulators[first], errors[first]
        entries[last] = entries[first]
    # The walk names patterns by their letters, mixture_weights by masks.
    if member_of is None:
        entry_of = {f.pattern: entries[f] for f in members}
    else:
        entry_of = {bit_function(p).pattern: entries[f] for p, f in member_of.items()}
    d_s, *bounds = _mixture(seq.mixture_weights(), entry_of.__getitem__)
    reference = {f: law_of(1, *d) for f, d in simulators.items()}
    assert (law_of(1, *d_s), *bounds) == (ds_mixture(seq, reference, member_of),
                                          *mixture_bounds(seq, errors, member_of))


def test_verify_transfer_trivial_sequences():
    code = identity_code(2)
    ident = StateSequence([identity_channel()] * 2)
    (report,) = verify_transfer(code, [ident])[1].values()
    assert report.ds_sd == 0 and report.eps_channel == 0

    const = StateSequence([Channel.from_rows([[1, 0], [1, 0]])] * 2)
    (report,) = verify_transfer(code, [const])[1].values()
    assert report.eps_channel == 0


def test_verify_transfer_single_bsc():
    code = identity_code(1)
    seq = StateSequence([bsc(F(3, 10))])
    _, reports = verify_transfer(code, [seq], budget=10_000)
    (report,) = reports.values()
    assert report.eps_bit == F(1, 2)  # the Flip pattern
    assert report.eps_channel == 0  # symmetric noise is simulatable


def test_verify_transfer_random_sequences():
    rng = random.Random(52)
    result = search_nm_code(k=1, n=3, rho=1, trials=8, seed=9)
    sequences = [
        StateSequence([random_binary_channel(rng) for _ in range(3)]) for _ in range(5)
    ]
    cert, reports = verify_transfer(result.code, sequences)
    assert cert.epsilon == result.certificate.epsilon
    assert len(reports) == 5
    for report in reports.values():
        assert (
            report.eps_channel
            <= report.ds_sd
            <= report.weighted_bound
            <= report.eps_bit
        )


# ------------------------------------------------------------------- search

def test_search_micro_k1_n1():
    # Only two injective codes exist; under Flip the tamper law is the
    # flipped point mass, whose optimal simulator error is 1/2.
    result = search_nm_code(k=1, n=1, rho=0, trials=8, seed=0)
    assert result.certificate.epsilon == F(1, 2)


def test_search_k0_trivial():
    result = search_nm_code(k=0, n=1, rho=0, trials=2, seed=0)
    assert result.certificate.epsilon == 0


def test_search_reproducible_bit_for_bit():
    a = search_nm_code(k=1, n=4, rho=2, trials=6, seed=123)
    b = search_nm_code(k=1, n=4, rho=2, trials=6, seed=123)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )
    assert a.certificate.epsilon < 1


def test_search_infeasible_dimensions():
    with pytest.raises(InvalidInstanceError):
        search_nm_code(k=2, n=2, rho=1, trials=1, seed=0)


def test_certificates_reverify():
    result = search_nm_code(k=1, n=3, rho=1, trials=4, seed=2)
    code = result.code
    for f in result.certificate.members:
        report = result.certificate.members[f].solve()
        tm = laws_of(code.k, *tamper_map(code, f))
        simulator = law_of(code.k, *report.simulator)
        worst = max(statistical_distance(t, apply_copy(simulator, m)) for m, t in tm.items())
        assert worst == report.epsilon


# ------------------------------------------------- batched count profiles

@st.composite
def small_codes(draw, max_n=5):
    """Codes with k <= 2, n <= max_n, rho <= 2; seeds may repeat a
    codeword, and off-image words may decode to a message."""
    k = draw(st.integers(0, 2))
    n = draw(st.integers(max(k, 1), max_n))
    rho = draw(st.integers(0, 2))
    messages = all_bitstrings(k)
    words = [int_to_bits(w, n) for w in draw(st.permutations(range(1 << n)))]
    # Word i < 2^k belongs to message i; each other word joins one
    # encoder pool, decodes off-image to a message, or decodes to bot.
    pools = {m: [words[i]] for i, m in enumerate(messages)}
    dec = {words[i]: m for i, m in enumerate(messages)}
    for word in words[len(messages):]:
        role = draw(st.sampled_from(["pool", "off-image", "bot"]))
        if role != "bot":
            m = draw(st.sampled_from(messages))
            dec[word] = m
            if role == "pool":
                pools[m].append(word)
    enc = {
        m: [draw(st.sampled_from(pools[m])) for _ in range(1 << rho)]
        for m in messages
    }
    return StochasticCode.from_tables(k, n, rho, enc, dec)


def members(n: int):
    """Random BIT, affine and BOT_MAP members for block length n."""
    bit = st.text("KF01", min_size=n, max_size=n).map(bit_function)
    affine = st.builds(
        lambda rows, delta: AffineFunction(GF2Matrix(tuple(rows), n), delta),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
        st.text("01", min_size=n, max_size=n).map(bits_to_int),
    )
    return st.one_of(bit, affine, st.just(BOT_MAP))


def assert_counts_match_tamper_map(code, functions):
    # Each _profiled entry holds its member's tamper_map table as
    # count-row tuples over 2^rho.  Its laws are checked against oracles
    # with no packed matrix product: a BIT function's laws are the
    # deterministic channels of its actions, so they equal the Fraction
    # product of output_distribution; an affine map's tampered words are
    # the string product ecc_encode(M, x) XOR delta; BOT_MAP always fails.
    checked = verifier._check_family(code, functions, None)
    for f, entry in verifier._profiled(code, checked, None, {}):
        assert (entry.laws, entry.total) == tamper_map(code, f)
        assert entry.total == code.seed_count
        assert all(type(row) is tuple for row in entry.laws), f
        laws = laws_of(code.k, entry.laws, entry.total)
        if isinstance(f, BITFunction):
            seq = StateSequence([elementary_channel(a) for a in f.to_string()])
        for m, label in enumerate(all_bitstrings(code.k)):
            if f is BOT_MAP:
                expected = point(BOT)
            elif isinstance(f, BITFunction):
                expected = product_tamper_distribution(code, seq, m)
            else:
                expected = affine_tamper_distribution(code, f, m)
            assert laws[label] == expected, f


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_count_profiles_match_tamper_map(data):
    code = data.draw(small_codes())
    functions = data.draw(st.lists(members(code.n), min_size=1, max_size=12))
    assert_counts_match_tamper_map(code, functions)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_codes())
def test_code_json_round_trip_keeps_tables(code):
    # Off-image decoder entries and repeated codewords survive the trip.
    clone = StochasticCode.from_json(json.loads(json.dumps(code.to_json())))
    assert (clone.k, clone.n, clone.rho) == (code.k, code.n, code.rho)
    assert clone.enc == code.enc
    assert clone.dec == code.dec


def test_count_profiles_wide_words():
    """Words wider than a 64-bit machine word profile as the oracles do."""
    n = 70
    rng = random.Random(5)
    words = [int_to_bits(rng.getrandbits(n), n) for _ in range(4)]
    code = StochasticCode.from_tables(
        1, n, 1, {"0": words[:2], "1": words[2:]},
        {words[0]: "0", words[1]: "0", words[2]: "1", words[3]: "1",
         "1" * n: "0"},
    )
    functions = [
        bit_function("".join(rng.choice("KF01") for _ in range(n)))
        for _ in range(6)
    ]
    functions += [bit_function("1" * n), BOT_MAP]
    functions += [
        AffineFunction(
            GF2Matrix(tuple(rng.getrandbits(n) for _ in range(n)), n),
            rng.getrandbits(n),
        )
        for _ in range(3)
    ]
    assert_counts_match_tamper_map(code, functions)
    cert = certify_family(code, functions)
    assert cert.members[BOT_MAP].solve().epsilon == 0


# ------------------------------------------------- integer channel laws

def unit_rationals():
    """Rationals in [0, 1] over mixed denominators, 0 and 1 included."""
    return st.sampled_from([1, 2, 3, 4, 5, 7, 10, 12]).flatmap(
        lambda den: st.integers(0, den).map(lambda num: F(num, den))
    )


@st.composite
def channels(draw, extended):
    """A binary channel, or an extended one with shared erasure mass."""
    if not extended:
        rows = [[w, 1 - w] for w in (draw(unit_rationals()), draw(unit_rationals()))]
        return Channel.from_rows(rows)
    p = draw(unit_rationals())
    rows = []
    for _ in range(2):
        w = draw(unit_rationals())
        rows.append([w * (1 - p), (1 - w) * (1 - p), p])
    return Channel.from_rows(rows)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_channel_law_matches_fraction_product(data):
    # Plain codes under binary sequences, and the composed scheme (a
    # small inner code behind a random full-rank outer code) under
    # extended ones, against the Fraction dict product.
    if data.draw(st.booleans(), label="composed"):
        inner = data.draw(small_codes(max_n=4))
        ncols = data.draw(st.integers(inner.n, 5))
        outer = random_full_rank(inner.n, ncols, data.draw(st.integers(0, 999)))
        code = ComposedScheme(inner, outer)
    else:
        code = data.draw(small_codes())
    seq = StateSequence(
        [data.draw(channels(code.erasures)) for _ in range(code.n)]
    )
    laws = laws_of(code.k, *channel_map(code, seq))
    for m, label in enumerate(all_bitstrings(code.k)):
        assert laws[label] == product_tamper_distribution(code, seq, m)


def test_channel_law_beyond_int64_matches_fraction_product():
    # Entries over 10007 at n = 5: D^n 2^rho >= 2^63, so the counts are
    # Python ints (an int64 product would wrap).
    rng = random.Random(10007)
    code = StochasticCode.from_tables(
        1, 5, 1, {"0": ["00000", "01101"], "1": ["11011", "10110"]},
        {"00000": "0", "01101": "0", "11011": "1", "10110": "1", "11111": "0"},
    )

    def row():
        w = F(rng.randint(1, 10006), 10007)
        return [w, 1 - w]

    seq = StateSequence([Channel.from_rows([row(), row()]) for _ in range(5)])
    laws, total = channel_map(code, seq)
    assert total == 10007**5 * code.seed_count >= 2**63
    reference = laws_of(1, laws, total)
    for m, label in enumerate(all_bitstrings(1)):
        assert reference[label] == product_tamper_distribution(code, seq, m)


def eager_error(code, functions, budget):
    """The error the member-by-member string experiment raises, if any."""
    try:
        for f in functions:
            tamper_map(code, f, budget=budget)
    except NmavcError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_certify_family_rejects_like_the_eager_loop(data):
    code = data.draw(small_codes())
    n = code.n
    bad = st.sampled_from([
        bit_function("E" + "K" * (n - 1)),
        bit_function("K" * (n + 1)),
        AffineFunction(gf2_identity(n + 1), 0),
        "KKK",
        3,
    ])
    functions = data.draw(
        st.lists(st.one_of(members(n), bad), min_size=1, max_size=8)
    )
    budget = data.draw(
        st.sampled_from([None, code.seed_count - 1, code.seed_count])
    )
    expected = eager_error(code, functions, budget)
    if expected is None:
        certify_family(code, functions, budget=budget)
        return
    with pytest.raises(NmavcError) as raised:
        certify_family(code, functions, budget=budget)
    assert (type(raised.value), str(raised.value)) == expected


def certify_checked(code, functions, cache=None, stop=None):
    """The search's cached, early-stopping certification path."""
    checked = verifier._check_family(code, functions, None)
    return verifier._certify(
        verifier._profiled(code, checked, None, {} if cache is None else cache), stop
    )


def counting(monkeypatch, name):
    """Replace verifier.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(verifier, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier, name, wrapper)
    return calls


def test_search_lp_count_is_pinned(monkeypatch):
    solves = counting(monkeypatch, "solve_min")
    result = search_nm_code(1, 4, 2, trials=200, seed=404)
    assert len(solves) == 77
    assert result.certificate.epsilon == F(1, 4)
    assert result.best_trial == 9


def test_bit_family_lp_count_is_pinned(monkeypatch):
    solves = counting(monkeypatch, "solve_min")
    cert = certify_bit_family(fixed_k2n5_code())
    assert len(solves) == 7
    assert cert.epsilon == F(2, 3)
    assert cert.worst == bit_function("KKK01")


def test_early_stop_applies_no_later_member():
    # The first member reaches the bound, so the four after it are never
    # applied to a codeword: their profiles are not built.
    applies = []

    class CountingAffine(AffineFunction):
        def apply(self, u):
            applies.append(u)
            return super().apply(u)

    later = [CountingAffine(gf2_identity(2), delta) for delta in range(4)]
    family = [bit_function("00"), *later]
    assert certify_checked(identity_code(2), family, stop=F(0)) is None
    assert applies == []


def test_search_profile_count_is_pinned(monkeypatch):
    # Each code after the best one stops at the first member whose
    # epsilon reaches the best epsilon; no later member's profile is
    # built, so 1,351 of the 200 * 256 profiles are, one tampering
    # experiment each, into 144 distinct cache entries.
    solves = counting(monkeypatch, "solve_min")
    experiments = counting(monkeypatch, "tamper_map")
    entries = counting(monkeypatch, "_Profile")
    result = search_nm_code(1, 4, 2, trials=200, seed=404)
    assert len(experiments) == 1351
    assert len(entries) == 144
    assert len(solves) == 77
    assert result.certificate.epsilon == F(1, 4)
    assert result.best_trial == 9


def test_search_validates_the_family_once(monkeypatch):
    # The 256 members are checked once for all 200 codes; the only other
    # checks are the tampering experiment's, one on each of the 1,351
    # profiles built, solved or not.
    checks = counting(monkeypatch, "_check_member")
    experiments = counting(monkeypatch, "tamper_map")
    search_nm_code(1, 4, 2, trials=200, seed=404)
    assert len(experiments) == 1351
    assert len(checks) == 4**4 + 1351


def test_tamper_map_runs_once_per_member(monkeypatch):
    code = StochasticCode.from_tables(
        1, 4, 1,
        {"0": ["0000", "0110"], "1": ["1011", "1101"]},
        {"0000": "0", "0110": "0", "1011": "1", "1101": "1", "1111": "0"},
    )
    experiments = counting(monkeypatch, "tamper_map")
    simulators = counting(monkeypatch, "optimal_simulator")
    cache: dict = {}
    first = certify_checked(code, enumerate_bit_functions(code.n), cache)
    # Every member's profile is built once per pass, into 24 distinct
    # entries; 20 of them are kept at or below the running epsilon by a
    # trivial or pooled simulator, unsolved.
    assert len(experiments) == 4 ** code.n
    assert len(cache) == 24
    assert len(simulators) == 4
    again = certify_checked(code, enumerate_bit_functions(code.n), cache)
    assert len(experiments) == 2 * 4 ** code.n
    assert len(cache) == 24
    assert len(simulators) == 4
    reports = {f: again.members[f].solve() for f in again.members}
    assert len(simulators) == len(cache)
    assert reports == {f: first.members[f].solve() for f in first.members}


def test_shared_cache_keeps_codes_apart():
    codes = [
        StochasticCode.from_tables(
            1, 3, 0, {"0": ["000"], "1": ["111"]}, {"000": "0", "111": "1"}
        ),
        StochasticCode.from_tables(
            1, 3, 1, {"0": ["000", "011"], "1": ["111", "100"]},
            {"000": "0", "011": "0", "111": "1", "100": "1"},
        ),
        StochasticCode.from_tables(
            2, 3, 0, {"00": ["000"], "01": ["011"], "10": ["101"], "11": ["110"]},
            {"000": "00", "011": "01", "101": "10", "110": "11"},
        ),
    ]
    shared: dict = {}
    for code in codes:
        got = certify_checked(code, enumerate_bit_functions(code.n), shared)
        alone = certify_bit_family(code)
        assert got.epsilon == alone.epsilon
        assert got.worst == alone.worst
        assert list(got.members) == list(alone.members)
        assert all(got.members[f].solve() == alone.members[f].solve()
                   for f in got.members)


# ------------------------------------------------- pruned certification

def assert_same_certificate(cert, reference):
    assert (cert.epsilon, cert.worst, cert.size) == (
        reference.epsilon, reference.worst, reference.size
    )
    assert cert.worst_report.to_json() == reference.worst_report.to_json()


def k1n3_code():
    """A k=1, n=3, rho=1 code with bot off its image."""
    return StochasticCode.from_tables(
        1, 3, 1, {"0": ["000", "110"], "1": ["111", "100"]},
        {"000": "0", "110": "0", "111": "1", "100": "1"},
    )


def k2n3_code():
    """A seedless k=2, n=3 code; its bit family certification skips 44
    members by a pooled simulator."""
    return StochasticCode.from_tables(
        2, 3, 0, {"00": ["001"], "01": ["010"], "10": ["100"], "11": ["110"]},
        {"001": "00", "010": "01", "100": "10", "110": "11"},
    )


def k2n4_code():
    """An injective k=2, n=4, rho=2 code onto every word of length 4.
    Certifying [KK1F, K1FK] solves both LPs: KK1F's optimal simulator is
    7/20 from K1FK's laws, 1/20 above the running epsilon 3/10, and
    K1FK's optimum 1/3 is the certified epsilon."""
    enc = {
        "00": ["1100", "1000", "1001", "1010"],
        "01": ["0011", "0101", "1111", "1110"],
        "10": ["0100", "0000", "0001", "0111"],
        "11": ["1011", "0010", "0110", "1101"],
    }
    dec = {word: m for m, words in enc.items() for word in words}
    return StochasticCode.from_tables(2, 4, 2, enc, dec)


#: (code, family, stop, pool skips before the stop, pool skips on the
#: shared cache): families where a pooled optimal simulator skips a
#: member's LP in the early-stopped run and again in the run after it.
POOL_CASES = [
    (k1n3_code(), [bit_function(s) for s in ("K1K", "K0K", "KFF")], F(1, 2), 1, 1),
    (k2n3_code(), list(enumerate_bit_functions(3)), F(3, 4), 1, 44),
    (k2n3_code(), list(enumerate_bit_functions(3)), F(1), 44, 44),
]


@st.composite
def pruning_cases(draw):
    """(code, functions, stop): a small code, its whole bit family or up
    to 16 random members, and an early-stop level, one of the members'
    optima or any unit rational."""
    code = draw(small_codes(max_n=4))
    if code.n <= 3 and draw(st.booleans(), label="whole bit family"):
        functions = list(enumerate_bit_functions(code.n))
    else:
        functions = draw(st.lists(members(code.n), min_size=1, max_size=16))
    reports = certify_every_member(code, functions).reports.values()
    optima = sorted({report.epsilon for report in reports})
    stop = draw(st.one_of(st.sampled_from(optima), unit_rationals()), label="stop")
    return code, functions, stop


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pruning_cases())
@example(POOL_CASES[0][:3])
@example(POOL_CASES[1][:3])
@example(POOL_CASES[2][:3])
@example((k2n4_code(), [bit_function("KK1F"), bit_function("K1FK")], F(1)))
def test_pruned_certificate_matches_every_member_solved(case):
    # Certification skips the LP of a member that a trivial simulator
    # (its entry's bound) or a pooled optimal simulator keeps within the
    # running epsilon.  With or without an early stop (on one shared
    # cache, so pruned entries are read again), it matches the reference
    # that solves every member, and each member's optimum is at most its
    # bound, which a trivial simulator attains.  The explicit examples
    # are POOL_CASES, where the pool skips members in both runs, and a
    # member the pool misses by 1/20 (k2n4_code).
    code, functions, stop = case
    reference = certify_every_member(code, functions)
    cache: dict = {}
    expected = certify_every_member(code, functions, stop)
    stopped = certify_checked(code, functions, cache, stop)
    if expected is None:
        assert stopped is None
    else:
        assert_same_certificate(stopped, expected)
    cert = certify_checked(code, functions, cache)
    assert_same_certificate(cert, reference)
    # A member left unsolved was skipped wherever it occurs, so its
    # optimum is within the epsilon of the members before it.
    unsolved = {f for f, entry in cert.members.items() if entry.report is None}
    running = F(0)
    for f in functions:
        if f in unsolved:
            assert reference.reports[f].epsilon <= running
        running = max(running, reference.reports[f].epsilon)
    for f, entry in cert.members.items():
        assert entry.bound == trivial_simulator_bound(laws_of(code.k, *tamper_map(code, f)))
        assert reference.reports[f].epsilon <= entry.bound
        assert cert.members[f].solve() == reference.reports[f]


@st.composite
def count_tables(draw):
    """2^k count rows, k <= 2, each of 2^k + 1 counts over one total."""
    size = 2 ** draw(st.integers(0, 2))
    total = draw(st.integers(1, 12))

    def row():
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size, max_size=size)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))

    return [row() for _ in range(size)], total


@settings(max_examples=300, derandomize=True, deadline=None)
@given(count_tables())
@example(([(2, 0, 0), (0, 2, 0)], 2))
@example(([(1, 1, 0), (1, 1, 0)], 2))
def test_trivial_simulator_matches_its_gap_form(table):
    # The closed-form gaps over 2 * total give the same Fraction as each
    # trivial simulator's _gaps sums over 2 * total^2.  The returned D is
    # the first trivial simulator, the laws in message order before
    # same*, whose worst-case distance is the bound; at bound 0 it is the
    # simulator optimal_simulator returns.
    rows, total = table
    bound, d = verifier._trivial_simulator(rows, total)
    assert bound == profile_bound_by_gaps(rows, total)
    candidates = [((*law, 0), total) for law in rows]
    candidates.append(((0,) * (len(rows) + 1) + (1,), 1))
    errors = [verifier._worst_case(rows, total, c)[0] for c in candidates]
    assert d == candidates[errors.index(bound)]
    if bound == 0:
        assert optimal_simulator(rows, total).simulator == d


@pytest.mark.parametrize(
    "code, functions, stop, before, after", POOL_CASES,
    ids=["k1n3-three-members", "k2n3-stopped", "k2n3-unstopped"],
)
def test_pool_cases_skip_before_and_after_the_stop(
    monkeypatch, code, functions, stop, before, after
):
    # The explicit examples of the pruning property do exercise the
    # pool, with the early stop and on the shared cache.
    skips = []
    within = verifier._within

    def recording(*args):
        kept = within(*args)
        if kept:
            skips.append(args)
        return kept

    monkeypatch.setattr(verifier, "_within", recording)
    cache: dict = {}
    certify_checked(code, functions, cache, stop)
    assert len(skips) == before
    skips.clear()
    certify_checked(code, functions, cache)
    assert len(skips) == after


def test_pooled_simulator_alone_skips_a_member(monkeypatch):
    # K1K's optimal simulator, with same* mass 1/4, keeps K0K within
    # epsilon = 1/4, while every trivial simulator is 1/2 from K0K's
    # laws: only the pool can skip K0K's LP, and it does.
    code = k1n3_code()
    first, second = bit_function("K1K"), bit_function("K0K")
    solves = counting(monkeypatch, "solve_min")
    cert = certify_family(code, [first, second])
    assert len(solves) == 1
    laws = laws_of(code.k, *tamper_map(code, second))
    assert cert.members[second].bound == trivial_simulator_bound(laws) == F(1, 2)
    assert cert.epsilon == F(1, 4)
    assert cert.members[second].report is None
    pooled = law_of(code.k, *cert.members[first].report.simulator)
    assert pooled.probability(SAME_STAR) == F(1, 4)
    assert max(
        sd_event_oracle(law, apply_copy(pooled, m)) for m, law in laws.items()
    ) == F(1, 4)
    reference = certify_every_member(code, [first, second])
    assert_same_certificate(cert, reference)
    assert all(cert.members[f].solve() == reference.reports[f] for f in (first, second))


@st.composite
def pool_checks(draw):
    """(rows, total, simulator, epsilon): a law table with k <= 2, a
    simulator over its own total whose same* mass may be non-zero, and
    epsilon the simulator's exact worst case, a rational just beside it,
    or any unit rational."""
    size = 1 << draw(st.integers(0, 2))

    def counts(width, total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=width - 1,
                                    max_size=width - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    total = draw(st.integers(1, 8))
    rows = [counts(size + 1, total) for _ in range(size)]
    scale = draw(st.integers(1, 8))
    simulator = (tuple(counts(size + 2, scale)), scale)
    worst = verifier._worst_case(rows, total, simulator)[0]
    step = F(1, 4 * total * scale)
    epsilon = draw(st.one_of(
        st.sampled_from([worst, worst + step, max(worst - step, F(0))]),
        unit_rationals(),
    ))
    return rows, total, simulator, epsilon


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pool_checks())
@example(([[7, 3, 0], [3, 7, 0]], 10, ((3, 3, 0, 4), 10), F(0)))
@example(([[1, 1, 0], [0, 1, 1]], 2, ((1, 1, 1, 1), 4), F(1, 4)))
@example(([[1, 1, 0], [0, 1, 1]], 2, ((1, 1, 1, 1), 4), F(1, 5)))
def test_pool_check_agrees_with_worst_case(check):
    # The integer pool check, stopping at the first message over
    # epsilon, decides exactly whether the simulator's Fraction worst
    # case is at most epsilon.  The examples put same* mass on the
    # simulator, at the boundary and below it: a law table that keeps
    # its own star, and K0K's laws against K1K's simulator (above).
    rows, total, simulator, epsilon = check
    assert verifier._within(rows, total, simulator, epsilon) == (
        verifier._worst_case(rows, total, simulator)[0] <= epsilon
    )


def test_transfer_solves_pruned_members_on_demand():
    # Certification leaves five of this sequence's positive-weight
    # patterns unsolved; the mixture solves them on demand, and the
    # transfer matches the reference that solves every member.
    code = k1n3_code()
    z = Channel.from_rows([[1, 0], [F(1, 4), F(3, 4)]])
    seq = StateSequence([bsc(F(3, 10)), z, bsc(F(1, 5))])
    certified = certify_bit_family(code)
    unsolved = {f for f, entry in certified.members.items() if entry.report is None}
    read = {BITFunction(3, *p) for p, _ in seq.mixture_weights()[1]}
    assert sorted(f.to_string() for f in read & unsolved) == [
        "F0F", "F0K", "FKF", "K0F", "K0K"
    ]
    cert, reports = verify_transfer(code, [seq])
    (report,) = reports.values()
    assert all(cert.members[f].report is not None for f in read)
    reference = certify_every_member(code, enumerate_bit_functions(3))
    assert all(cert.members[f].solve() == reference.reports[f] for f in read)
    simulators = {f: law_of(1, *r.simulator) for f, r in reference.reports.items()}
    errors = {f: r.epsilon for f, r in reference.reports.items()}
    d_s = ds_mixture(seq, simulators)
    ds_sd = max(
        statistical_distance(product_tamper_distribution(code, seq, m), apply_copy(d_s, label))
        for m, label in enumerate(all_bitstrings(1))
    )
    assert (report.eps_bit, report.ds_sd, report.weighted_bound) == (
        reference.epsilon, ds_sd, mixture_bounds(seq, errors)[0]
    )
