"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every numeric check below is an exact rational comparison (tolerance
zero) unless the quantity is itself a Monte-Carlo estimate.  Each test
records a PASS line for the terminal summary and asserts its stated
runtime budget.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

from conftest import record_criterion
from nmavc import (
    BOT_MAP,
    Channel,
    BITFunction,
    ComposedScheme,
    GF2Matrix,
    SpecialStateSpec,
    StateSequence,
    StochasticCode,
    all_bitstrings,
    certify_induced_family,
    decompose,
    delta_exact,
    delta_monte_carlo,
    ecc_decode,
    enumerate_bit_functions,
    feasible_interval,
    induced_tamper,
    optimal_simulator,
    recovery_probability,
    search_nm_code,
    tamper_map,
    verify_composed,
    verify_transfer,
)
from nmavc.gf2 import rank_of_columns, select_reconstruction
from oracles import (
    BOT,
    SAME_STAR,
    FiniteDistribution,
    apply_actions,
    apply_copy,
    bit_function,
    bsc,
    ecc_encode,
    fraction_weights,
    grid_optimum,
    law_of,
    law_table,
    laws_of,
    lex_min_reconstruction,
    linear_code,
    output_distribution,
    random_binary_channel,
    random_distribution,
    random_full_rank,
    statistical_distance,
)

DATA_DIR = Path(__file__).parent.parent / "src" / "nmavc" / "data"

_ran: set[str] = set()


def _done(criterion: str, budget_s: float, t0: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{criterion} took {elapsed:.1f}s, budget {budget_s}s"
    _ran.add(criterion)
    record_criterion(criterion, f"{detail} [{elapsed:.1f}s]")


def test_c01_channel_decomposition_exact():
    """200 seeded random channels decompose exactly, endpoints included."""
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(200):
        ch = random_binary_channel(rng)
        dec = decompose(ch)
        assert all(a >= 0 for a in dec.alphas)
        assert sum(dec.alphas) == 1
        assert dec.reconstruct() == ch
        lower, upper = feasible_interval(ch)
        assert lower <= upper
        for endpoint in (lower, upper):
            assert decompose(ch, endpoint).reconstruct() == ch
    _done(
        "C1 elementary decomposition", 5, t0,
        "200 channels, canonical + both endpoints, exact reconstruction",
    )


def test_c02_product_decomposition_exact():
    """Output law equals the elementary-pattern mixture for all inputs."""
    t0 = time.perf_counter()
    rng = random.Random(1002)
    sequences = 0
    for n in range(1, 6):
        for _ in range(20):
            seq = StateSequence([random_binary_channel(rng) for _ in range(n)])
            weights = fraction_weights(seq)
            assert sum(w for _, w in weights) == 1
            for x in all_bitstrings(n):
                direct = output_distribution(seq, x)
                masses: dict = {}
                for pattern, w in weights:
                    word = apply_actions(BITFunction(pattern), x)
                    masses[word] = masses.get(word, F(0)) + w
                assert direct == FiniteDistribution(masses)
            sequences += 1
    _done(
        "C2 product decomposition", 60, t0,
        f"{sequences} sequences over n=1..5, every input, exact equality",
    )


def test_c03_bit_transfer_end_to_end():
    """Searched (k=1, n=4, rho=2) code: mixture simulator stays within
    the certified bit-family epsilon on 20 random sequences."""
    t0 = time.perf_counter()
    result = search_nm_code(k=1, n=4, rho=2, family="bit", trials=200, seed=404)
    cert = result.certificate
    assert cert.size == 4**4
    assert cert.epsilon < 1
    rng = random.Random(1003)
    worst = F(0)
    for _ in range(20):
        seq = StateSequence([random_binary_channel(rng) for _ in range(4)])
        report = verify_transfer(result.code, seq, certificate=cert)
        assert report.ds_sd <= cert.epsilon
        assert report.ds_sd <= report.weighted_bound <= cert.epsilon
        worst = max(worst, report.ds_sd)
    _ran.add("C3")
    _done(
        "C3 bit-family to channel transfer", 300, t0,
        f"eps_bit={cert.epsilon}, worst sequence ds_sd={worst}, 20 sequences",
    )


def test_c04_linear_code_offset_attack():
    """Offsetting a linear code by the all-ones codeword flips every
    message; the optimal simulator error is exactly 1 - 2^-k."""
    t0 = time.perf_counter()
    generators = {1: GF2Matrix.from_rows(["111"]),
                  2: GF2Matrix.from_rows(["101", "011"])}
    for k, g in generators.items():
        code = linear_code(g)
        delta = ecc_encode(g, "1" * k)
        attack = bit_function(
            "".join("F" if ch == "1" else "K" for ch in delta)
        )
        table = tamper_map(code, attack)
        tm = laws_of(k, *table)
        for m in all_bitstrings(k):
            flipped = "".join("1" if ch == "0" else "0" for ch in m)
            assert tm[m] == FiniteDistribution.point(flipped)
        report = optimal_simulator(*table)
        expected = 1 - F(1, 2**k)
        assert report.epsilon == expected
        grid_best = grid_optimum(
            tm, all_bitstrings(k) + [BOT, SAME_STAR], 8
        )
        assert grid_best == expected
    _ran.add("C4")
    _done(
        "C4 malleability counterexample", 30, t0,
        "offset attack gives eps = 1/2 (k=1) and 3/4 (k=2), grid-confirmed",
    )


def test_c05_lp_soundness_against_grid():
    """The LP optimum is never beaten by the bounded-denominator grid,
    and every reported (eps, D) re-verifies by direct summation."""
    t0 = time.perf_counter()
    rng = random.Random(1005)
    outcomes = ["0", "1", BOT]
    simulator_outcomes = ["0", "1", BOT, SAME_STAR]
    for _ in range(50):
        tm = {m: random_distribution(rng, outcomes, max_denominator=8)
              for m in ("0", "1")}
        report = optimal_simulator(*law_table(tm))
        simulator = law_of(1, *report.simulator)
        direct = max(
            statistical_distance(tm[m], apply_copy(simulator, m))
            for m in tm
        )
        assert direct == report.epsilon
        assert report.epsilon <= grid_optimum(tm, simulator_outcomes, 8)
    _ran.add("C5")
    _done(
        "C5 LP verifier soundness", 120, t0,
        "50 instances: grid (den <= 8) never beats the LP; reports re-verify",
    )


def test_c06_erasure_decoder_complete():
    """Decoding succeeds exactly when the surviving columns have full
    rank, recovers the message, and picks the lex-minimal R."""
    t0 = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        g = random_full_rank(m, n, rng)
        for mask in range(1 << n):
            erased = frozenset(j for j in range(n) if (mask >> j) & 1)
            survivors = [j for j in range(n) if j not in erased]
            solvable = rank_of_columns(g, survivors) == m
            oracle_r = lex_min_reconstruction(g, erased)
            recon = select_reconstruction(g, mask)
            for u in range(1 << m):
                received = g.vec_mul(u) & ~mask
                result = ecc_decode(g, received, mask)
                if solvable:
                    assert result is not None
                    assert result == u
                    assert recon.indices == oracle_r
                else:
                    assert result is None and oracle_r is None and recon is None
    _done(
        "C6 reconstruction-set decoder", 120, t0,
        "50 codes (m<=3, n<=6), all 2^n patterns: success iff full rank, "
        "lex-minimal R",
    )


def test_c07_induced_affinity_full_scan():
    """Every extended pattern induces the failure map or its closed-form
    affine map, checked against the pipeline, for 10 seeded outer codes."""
    t0 = time.perf_counter()
    rng = random.Random(1007)
    patterns_checked = 0
    for _ in range(10):
        m = rng.randint(2, 4)
        n = rng.randint(m + 1, 6)
        outer = random_full_rank(m, n, rng)
        for f in enumerate_bit_functions(n, 5):
            # induced_tamper checks the closed form against the pipeline
            # on all 2^m inputs, raising on any mismatch.
            induced = induced_tamper(outer, f)
            has_r = select_reconstruction(outer, f.erase) is not None
            assert (induced is BOT_MAP) == (not has_r)
            patterns_checked += 1
    _done(
        "C7 induced affinity", 600, t0,
        f"{patterns_checked} patterns over 10 outer codes, closed form = pipeline",
    )


def test_c08_composed_demo_definition4():
    """Shipped demo: recovery matches 1 - delta_exact on both routes and
    the exhaustive sequence scan stays within the certified inner bound.

    The sequence scan covers every dictionary-state sequence of the
    scheme's block length (3^5 - 1 after excluding the all-special one).
    """
    t0 = time.perf_counter()
    inner = StochasticCode.from_json(
        json.loads((DATA_DIR / "demo_inner_code.json").read_text())
    )
    spec_obj = json.loads((DATA_DIR / "demo_composed_spec.json").read_text())
    outer = GF2Matrix.from_json(spec_obj["outer"])
    scheme = ComposedScheme(inner, outer)
    spec = SpecialStateSpec(F(1, 10), scheme.n)

    cert = certify_induced_family(inner, outer)
    meta = json.loads((DATA_DIR / "demo_inner_code.json").read_text())["meta"]
    from nmavc import format_rational

    assert format_rational(cert.epsilon) == meta["epsilon"]

    recovery = recovery_probability(scheme, spec)
    assert recovery == 1 - delta_exact(outer, spec.p_star)

    states = {
        "bec": Channel.bec(F(1, 10)),
        "bsc": bsc(F(3, 10)).to_extended(),
        "z": Channel.from_rows([[1, 0], [F(3, 10), F(7, 10)]]).to_extended(),
    }
    names = sorted(states)
    rows = [row for row in product(names, repeat=scheme.n)
            if set(row) != {"bec"}]
    assert len(rows) == 3**scheme.n - 1
    sequences = [
        StateSequence([states[name] for name in row], labels=row)
        for row in rows
    ]
    report = verify_composed(scheme, sequences, spec, exhaustive=True)
    assert report.delta == delta_exact(outer, spec.p_star)
    assert report.eps_max <= cert.epsilon
    for seq_report in report.eps_by_sequence.values():
        assert seq_report.epsilon <= cert.epsilon
    _done(
        "C8 composed scheme (special state)", 600, t0,
        f"delta={report.delta}, eps_max={report.eps_max} <= inner bound "
        f"{cert.epsilon}, {len(rows)} sequences exhaustive",
    )


def test_c09_monte_carlo_consistency():
    """delta_monte_carlo lands inside its own 95% CI of delta_exact in
    at least 19 of 20 seeded repetitions, for 5 seeded codes."""
    t0 = time.perf_counter()
    # Codes are drawn with delta in [1/50, 1/2]: the normal-approximation
    # CI is degenerate when the empirical rate is 0, so near-zero deltas
    # cannot satisfy their own interval.  Seeds are fixed; the outcome is
    # deterministic (counter-based generator).
    p = F(1, 10)
    rng = random.Random(901)
    codes = []
    while len(codes) < 5:
        m = rng.randint(1, 4)
        n = rng.randint(m, 8)
        g = random_full_rank(m, n, rng)
        d = delta_exact(g, p)
        if F(1, 50) <= d <= F(1, 2):
            codes.append((g, d))
    for ci, (g, d) in enumerate(codes):
        exact = float(d)
        hits = 0
        for rep in range(20):
            estimate, ci95 = delta_monte_carlo(
                g, p, trials=100_000, seed=10_000 + 100 * ci + rep
            )
            if abs(estimate - exact) <= ci95:
                hits += 1
        assert hits >= 19, f"code {ci}: only {hits}/20 inside CI"
    _done(
        "C9 Monte-Carlo consistency", 60, t0,
        "5 codes x 20 seeded runs of 10^5 trials, >= 19/20 inside own CI",
    )


def test_c10_rate_one_not_reproducible():
    """Asymptotic rate-1 existence is out of desk-scale reach; the suite
    substitutes the exact finite checks of criteria 3-5."""
    t0 = time.perf_counter()
    assert {"C3", "C4", "C5"} <= _ran, (
        "criteria 3-5 must run before the substitution is recorded"
    )
    _done(
        "C10 rate-1 substitution note", 5, t0,
        "rate-1 codes exist only asymptotically; substituted by C3-C5 "
        "(exact desk-scale checks)",
    )
