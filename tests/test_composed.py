"""The composed construction: induced tampering, recovery, verification."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from nmavc import (
    AffineFunction,
    BOT_MAP,
    Channel,
    BITFunction,
    ComposedScheme,
    GF2Matrix,
    SpecialStateSpec,
    StateSequence,
    StochasticCode,
    all_bitstrings,
    certify_family,
    certify_induced_family,
    channel_map,
    delta_exact,
    enumerate_bit_functions,
    induced_family,
    induced_tamper,
    recovery_probability,
    search_nm_code,
    verify_composed,
)
from nmavc import channels, composed, gf2, simplex, verifier
from nmavc.errors import InvalidInstanceError, VerificationError
from nmavc.gf2 import bits_to_int, int_to_bits, select_reconstruction
from oracles import (
    apply_copy,
    bit_function,
    bit_to_affine,
    bsc,
    certify_every_member,
    composed_tamper_distribution,
    ds_mixture,
    gf2_identity,
    hamming_7_4,
    identity_channel,
    identity_code,
    law_of,
    laws_of,
    mixture_bounds,
    mixture_weights_walk,
    random_extended_channel,
    random_full_rank,
    single_parity,
    split_word,
    statistical_distance,
)


def small_scheme(seed=3) -> ComposedScheme:
    inner = search_nm_code(k=1, n=2, rho=1, trials=4, seed=seed).code
    return ComposedScheme(inner, single_parity(2))


def parity45_scheme() -> ComposedScheme:
    """The shipped demo: its inner code behind the 4 -> 5 parity code."""
    import json
    from pathlib import Path

    data = Path(__file__).parent.parent / "src" / "nmavc" / "data"
    inner = json.loads((data / "demo_inner_code.json").read_text())
    return ComposedScheme(StochasticCode.from_json(inner), single_parity(4))


# ------------------------------------------------------------------ induced

def test_induced_identity_outer_equals_bit_to_affine():
    outer = gf2_identity(3)
    for f in enumerate_bit_functions(3, 4):
        assert induced_tamper(outer, f) == bit_to_affine(f)


def test_induced_worked_example():
    outer = GF2Matrix.from_rows(["101", "011"])
    f = bit_function("1KK")
    induced = induced_tamper(outer, f)
    assert induced.matrix == GF2Matrix.from_rows(["00", "01"])
    assert induced.delta == bits_to_int("10")
    assert induced.apply(bits_to_int("11")) == bits_to_int("11")
    assert select_reconstruction(outer, f.erase).indices == (0, 1)


def test_induced_all_erased_is_failure_map():
    outer = GF2Matrix.from_rows(["101", "011"])
    assert induced_tamper(outer, bit_function("EEE")) is BOT_MAP


def test_induced_affinity_random_outers():
    # Every extended pattern induces an affine map (or the failure map),
    # and the affine map reproduces the raw encode/tamper/decode pipeline.
    from nmavc import ecc_decode

    rng = random.Random(60)
    for _ in range(3):
        m = rng.randint(2, 3)
        n = rng.randint(m + 1, 4)
        outer = random_full_rank(m, n, rng)
        for f in enumerate_bit_functions(n, 5):
            induced = induced_tamper(outer, f)
            for u in range(1 << m):
                piped = ecc_decode(outer, f.apply(outer.vec_mul(u)), f.erase)
                if induced is BOT_MAP:
                    assert piped is None
                else:
                    assert induced.apply(u) == piped


def flip_first_bit(word: int) -> int:
    """Flip position 0, the first character of the word's bitstring."""
    return word ^ 1


def test_induced_rejects_wrong_closed_form(monkeypatch):
    # A closed form off by one delta bit disagrees with the pipeline on
    # every input; the first one, 000, is named.
    closed_form = composed._closed_form

    def off_by_one(outer, f, recon):
        closed = closed_form(outer, f, recon)
        return AffineFunction(closed.matrix, flip_first_bit(closed.delta))

    monkeypatch.setattr(composed, "_closed_form", off_by_one)
    with pytest.raises(VerificationError, match="FK1E.*at input 000"):
        induced_tamper(single_parity(3), bit_function("FK1E"))


def test_induced_rejects_pipeline_wrong_on_one_word(monkeypatch):
    # The pipeline reads the generator's decode table for the erasure
    # mask, built by ecc_decode: one wrong decode is caught at its input.
    outer = single_parity(3)
    f = bit_function("FK1E")
    target = f.apply(outer.vec_mul(bits_to_int("110")))
    ecc_decode = gf2.ecc_decode

    def wrong_once(g, bits, erased):
        result = ecc_decode(g, bits, erased)
        if bits != target:
            return result
        return flip_first_bit(result)

    monkeypatch.setattr(gf2, "ecc_decode", wrong_once)
    with pytest.raises(VerificationError, match="FK1E.*at input 110:"):
        induced_tamper(outer, f)


def test_induced_family_members_distinct():
    outer = single_parity(2)
    members = induced_family(outer)
    assert len(members) == len(set(members))
    assert BOT_MAP in members


# ----------------------------------------------------------------- composed

def test_composed_round_trip_no_erasures():
    scheme = small_scheme()
    for m, words in enumerate(scheme.enc):
        for word in words:
            assert scheme.decode(word) == m


def test_composed_all_erased():
    scheme = small_scheme()
    # Decoding failure is the outcome index 2^k.
    assert scheme.decode(*split_word("e" * scheme.n)) == 1 << scheme.k


def test_composed_correctable_erasures():
    # Every erasure pattern that leaves an invertible submatrix recovers
    # the message, for every message and seed.
    scheme = small_scheme()
    n = scheme.n
    for mask in range(1 << n):
        erased = frozenset(j for j in range(n) if (mask >> j) & 1)
        recoverable = select_reconstruction(scheme.outer, mask) is not None
        for m, words in enumerate(scheme.enc):
            for packed in words:
                word = int_to_bits(packed, n)
                received = "".join(
                    "e" if j in erased else word[j] for j in range(n)
                )
                got = scheme.decode(*split_word(received))
                assert got == (m if recoverable else 1 << scheme.k)


def test_recovery_probability_examples():
    scheme = small_scheme()
    assert recovery_probability(scheme, SpecialStateSpec(F(0), scheme.n)) == 1

    ident_inner = identity_code(2)
    ident_scheme = ComposedScheme(ident_inner, gf2_identity(2))
    got = recovery_probability(ident_scheme, SpecialStateSpec(F(1, 10), 2))
    assert got == F(81, 100)


def test_recovery_matches_delta_exact_two_routes():
    rng = random.Random(61)
    for _ in range(3):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        outer = random_full_rank(m, n, rng)
        inner = identity_code(m)
        scheme = ComposedScheme(inner, outer)
        p = F(rng.randint(0, 5), 10)
        assert recovery_probability(
            scheme, SpecialStateSpec(p, n)
        ) == 1 - delta_exact(outer, p)


def test_recovery_hamming_with_monte_carlo():
    from nmavc import delta_monte_carlo

    outer = hamming_7_4()
    scheme = ComposedScheme(identity_code(4), outer)
    p = F(1, 10)
    recovery = recovery_probability(scheme, SpecialStateSpec(p, 7))
    assert recovery == 1 - delta_exact(outer, p)
    estimate, ci95 = delta_monte_carlo(outer, p, 100_000, seed=44)
    assert abs(estimate - float(1 - recovery)) <= ci95


def test_dimension_mismatch_rejected():
    inner = identity_code(3)
    with pytest.raises(InvalidInstanceError):
        ComposedScheme(inner, single_parity(2))



@pytest.mark.parametrize("make_scheme", [small_scheme, parity45_scheme])
def test_channel_experiment_matches_composed_oracle(make_scheme):
    # The plain-code channel experiment, run on the composed scheme,
    # equals the composed experiment it replaced, exactly.
    scheme = make_scheme()
    rng = random.Random(62)
    for _ in range(4):
        seq = StateSequence(
            [random_extended_channel(rng) for _ in range(scheme.n)]
        )
        laws = laws_of(scheme.k, *channel_map(scheme, seq))
        for m, label in enumerate(all_bitstrings(scheme.k)):
            assert laws[label] == composed_tamper_distribution(scheme, seq, m)


def test_composed_scheme_rejects_binary_sequence():
    scheme = small_scheme()
    seq = StateSequence.uniform(bsc(F(3, 10)), scheme.n)
    with pytest.raises(InvalidInstanceError):
        channel_map(scheme, seq)
    plain = StateSequence.uniform(Channel.bec(F(1, 10)), scheme.inner.n)
    with pytest.raises(InvalidInstanceError):
        channel_map(scheme.inner, plain)

# -------------------------------------------------------------- verification

def bec(p):
    return Channel.bec(F(*p))


def test_verify_composed_trivial_sequences():
    scheme = small_scheme()
    spec = SpecialStateSpec(F(1, 10), scheme.n)
    ident = identity_channel().to_extended()
    set0 = Channel.from_rows([[1, 0], [1, 0]]).to_extended()
    seqs = [
        StateSequence.uniform(ident, scheme.n, label="id"),
        StateSequence.uniform(set0, scheme.n, label="set0"),
    ]
    report = verify_composed(scheme, seqs, spec)
    for seq_report in report.eps_by_sequence.values():
        assert seq_report.epsilon == 0
    assert report.delta == delta_exact(scheme.outer, F(1, 10))


def test_verify_composed_rejects_special_sequence():
    scheme = small_scheme()
    spec = SpecialStateSpec(F(1, 10), scheme.n)
    special_seq = StateSequence.uniform(bec((1, 10)), scheme.n)
    with pytest.raises(InvalidInstanceError):
        verify_composed(scheme, [special_seq], spec)


def test_verify_composed_mixed_sequence_bounds():
    inner_search = search_nm_code(
        k=1, n=2, rho=1, family=induced_family(single_parity(2)),
        trials=6, seed=8,
    )
    scheme = ComposedScheme(inner_search.code, single_parity(2))
    spec = SpecialStateSpec(F(1, 10), scheme.n)
    flips = bsc(F(3, 10)).to_extended()
    seq = StateSequence([flips, bec((1, 10)), flips], labels=("bsc", "bec", "bsc"))
    report = verify_composed(scheme, [seq], spec)
    seq_report = report.eps_by_sequence["bsc,bec,bsc"]
    assert seq_report.epsilon <= seq_report.weighted_bound
    assert seq_report.weighted_bound <= seq_report.pattern_max
    assert seq_report.pattern_max <= inner_search.certificate.epsilon


def test_verify_composed_deterministic():
    scheme = small_scheme()
    spec = SpecialStateSpec(F(1, 10), scheme.n)
    flips = bsc(F(3, 10)).to_extended()
    seq = StateSequence.uniform(flips, scheme.n, label="bsc")
    a = verify_composed(scheme, [seq], spec).to_json()
    b = verify_composed(scheme, [seq], spec).to_json()
    assert a == b


def test_certify_induced_family_bound_holds():
    outer = single_parity(2)
    inner = search_nm_code(
        k=1, n=2, rho=1, family=induced_family(outer), trials=6, seed=8
    )
    cert = certify_induced_family(inner.code, outer)
    assert cert.epsilon == inner.certificate.epsilon



def counting(monkeypatch, module, name):
    """Count calls to module.<name> wherever verifier or composed bind it."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for owner in {module, verifier, composed}:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_verify_composed_runs_one_experiment_per_profile(monkeypatch):
    scheme = parity45_scheme()
    n = scheme.n
    flips = bsc(F(3, 10)).to_extended()
    z = Channel.from_rows([[1, 0], [F(1, 4), F(3, 4)]]).to_extended()
    erase = bec((1, 5))
    seqs = [
        StateSequence.uniform(flips, n, "bsc"),
        StateSequence.uniform(z, n, "z"),
        StateSequence([erase, z] + [flips] * (n - 2)),
        StateSequence([erase] * (n - 1) + [z]),
    ]
    induced = {
        induced_tamper(scheme.outer, BITFunction.from_pattern(n, pattern))
        for seq in seqs for pattern, _ in seq.mixture_weights()[1]
    }
    profiles = {
        tuple(map(tuple, verifier.tamper_map(scheme.inner, f)[0])) for f in induced
    }
    experiments = counting(monkeypatch, verifier, "tamper_map")
    simulators = counting(monkeypatch, verifier, "optimal_simulator")
    solves = counting(monkeypatch, simplex, "solve_min")
    verify_composed(scheme, seqs, SpecialStateSpec(F(1, 10), n))
    assert (len(induced), len(profiles)) == (47, 32)
    assert len(experiments) == len(simulators) == len(profiles)
    assert len(solves) == 27


def demo_sequences(scheme):
    """The demo's three states and its 242 sequences over them: every
    length-n row but the all-erasure one."""
    bec_state = Channel.bec(F(1, 10))
    states = [
        bec_state,
        bsc(F(3, 10)).to_extended(),
        Channel.from_rows([[1, 0], [F(3, 10), F(7, 10)]]).to_extended(),
    ]
    sequences = [
        StateSequence(row) for row in product(states, repeat=scheme.n)
        if set(row) != {bec_state}
    ]
    return states, sequences


def test_verify_composed_decomposes_each_state_once(monkeypatch):
    # The demo's 242 sequences share its three state objects: each is
    # decomposed once, on first use, and keeps its decomposition.
    scheme = parity45_scheme()
    states, sequences = demo_sequences(scheme)
    decomposed = []
    decompose = channels.decompose

    def counted(ch, *args, **kwargs):
        decomposed.append(ch)
        return decompose(ch, *args, **kwargs)

    monkeypatch.setattr(channels, "decompose", counted)
    verify_composed(scheme, sequences, SpecialStateSpec(F(1, 10), scheme.n))
    assert len(sequences) == 242
    assert len(decomposed) == 3
    assert {id(ch) for ch in decomposed} == {id(ch) for ch in states}


def test_verify_composed_runs_one_channel_experiment_per_sequence(monkeypatch):
    # Each sequence's laws for both messages come from one channel_map
    # call, which sets the sequence's integer rows up once.
    scheme = parity45_scheme()
    _, sequences = demo_sequences(scheme)
    experiments = counting(monkeypatch, verifier, "channel_map")
    verify_composed(scheme, sequences, SpecialStateSpec(F(1, 10), scheme.n))
    assert len(experiments) == len(sequences) == 242


def test_demo_certify_inner_lp_count_is_pinned(monkeypatch):
    # 1,153 induced maps over 104 distinct profiles: the LP runs only for
    # the members neither a trivial simulator nor a pooled optimal one
    # keeps within the running epsilon.
    scheme = parity45_scheme()
    experiments = counting(monkeypatch, verifier, "tamper_map")
    solves = counting(monkeypatch, simplex, "solve_min")
    cert = certify_induced_family(scheme.inner, scheme.outer)
    assert (cert.size, cert.epsilon) == (1153, F(3, 8))
    assert len(experiments) == 104
    assert len(solves) == 15


def test_demo_composed_verify_lp_count_is_pinned(monkeypatch):
    # Every certified member has a positive-weight pattern, so the
    # mixtures solve each member certification skipped: the demo's 242
    # sequences need 77 LPs, and one experiment per distinct profile.
    scheme = parity45_scheme()
    _, sequences = demo_sequences(scheme)
    experiments = counting(monkeypatch, verifier, "tamper_map")
    simulators = counting(monkeypatch, verifier, "optimal_simulator")
    solves = counting(monkeypatch, simplex, "solve_min")
    report = verify_composed(scheme, sequences, SpecialStateSpec(F(1, 10), scheme.n))
    assert report.eps_max == F(3903, 40000)
    assert len(experiments) == len(simulators) == 87
    assert len(solves) == 77


def test_demo_decode_work_is_pinned(monkeypatch):
    # The induced maps read one decode table per erasure mask, built
    # with one ecc_decode per word of the mask: on the 4 -> 5 parity code
    # 32 + 5 * 16 = 112 for the masks with at most one erasure, the only
    # ones a reconstruction set survives.  certify-inner builds them
    # once; composed-verify builds them again on its own generator, then
    # decodes the 2^5 * 8 recovery words, the 8 codewords of its
    # correctness audit and the 3^5 words of its decoder table.  Decoding
    # per pattern instead took 47,739 calls.
    decodes = counting(monkeypatch, gf2, "ecc_decode")
    induced_family(single_parity(4))
    assert len(decodes) == 112
    scheme = parity45_scheme()
    _, sequences = demo_sequences(scheme)
    verify_composed(scheme, sequences, SpecialStateSpec(F(1, 10), scheme.n))
    assert len(decodes) == 112 + 112 + 32 * 8 + 8 + 3**5


def test_verify_composed_solves_pruned_members_on_demand():
    # Certifying this sequence's 20 induced maps leaves 13 unsolved; its
    # mixture solves them on demand, and the sequence's report matches
    # the reference that solves every member.
    scheme = parity45_scheme()
    n = scheme.n
    flips = bsc(F(3, 10)).to_extended()
    z = Channel.from_rows([[1, 0], [F(1, 4), F(3, 4)]]).to_extended()
    seq = StateSequence([bec((1, 5)), z] + [flips] * (n - 2))
    member_of = {
        pattern: induced_tamper(scheme.outer, BITFunction(pattern))
        for pattern, _ in mixture_weights_walk(seq)
    }
    members = list(dict.fromkeys(member_of.values()))
    cert = certify_family(scheme.inner, members)
    unsolved = [f for f, entry in cert.members.items() if entry.report is None]
    assert (len(members), len(unsolved)) == (20, 13)
    report = verify_composed(scheme, [seq], SpecialStateSpec(F(1, 10), n))
    (got,) = report.eps_by_sequence.values()
    reference = certify_every_member(scheme.inner, members)
    simulators = {f: law_of(scheme.k, *r.simulator) for f, r in reference.reports.items()}
    errors = {f: r.epsilon for f, r in reference.reports.items()}
    d_s = ds_mixture(seq, simulators, member_of)
    epsilon = max(
        statistical_distance(composed_tamper_distribution(scheme, seq, m), apply_copy(d_s, label))
        for m, label in enumerate(all_bitstrings(scheme.k))
    )
    assert all(cert.report(f) == reference.reports[f] for f in unsolved)
    assert (got.epsilon, got.weighted_bound, got.pattern_max) == (
        epsilon, *mixture_bounds(seq, errors, member_of)
    )
