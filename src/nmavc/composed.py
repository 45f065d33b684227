"""Two-step construction: inner stochastic code behind a linear erasure code.

The scheme is a stochastic code over {0,1,e}: its enc table holds the
inner codewords encoded by the erasure code, and decode runs the
reconstruction-set erasure decoder on the word (bits, erased) and feeds
its output to the inner decoder; an outer failure decodes to bot.
Tampering the outer codeword with a per-bit action pattern induces an
affine map (or the constant failure map) on the inner codeword: the
induced map is built in its closed matrix form and checked against the
actual encode/tamper/decode pipeline on every inner word, both sides
read as tables over the words: the pipeline's decoder results come from
the generator's table for the pattern's erasure mask.

Verification certifies the inner code against the distinct maps that a
sequence's patterns induce, then runs the verifier's mixture check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .channels import Channel, StateSequence
from .distributions import Marker, all_bitstrings, format_rational
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    VerificationError,
)
from .gf2 import (
    GF2Matrix,
    ReconstructionSet,
    decode_table,
    delta_exact,
    ecc_decode,
    gather_bits,
    int_to_bits,
    select_reconstruction,
    words_in_order,
)
from .tampering import AffineFunction, BITFunction, enumerate_bit_functions
from .verifier import (
    BOT_MAP,
    FamilyCertificate,
    StochasticCode,
    certify_family,
    verify_mixture,
)


class SpecialStateSpec:
    """The designated all-erasure state: BEC with erasure probability p_star."""

    __slots__ = ("p_star", "n")

    def __init__(self, p_star: Fraction, n: int) -> None:
        p = Fraction(p_star)
        if p < 0 or p >= 1:
            raise InvalidInstanceError(f"p_star {p} outside [0, 1)")
        self.p_star = p
        self.n = n

    def channel(self) -> Channel:
        return Channel.bec(self.p_star)


def _check_full_rank(outer: GF2Matrix) -> None:
    """Raise unless the outer generator encodes injectively."""
    if outer.rank() != outer.nrows:
        raise InvalidInstanceError("outer generator must have full row rank")


class ComposedScheme(StochasticCode):
    """Inner (k -> m) stochastic code encoded by an outer (m -> n) generator,
    itself a code whose decoder reads words over {0,1,e}.

    enc[m][r] is outer.vec_mul(inner.enc[m][r]); the decoder is decode,
    so the plain decoder table dec stays empty.
    """

    __slots__ = ("inner", "outer")

    erasures = True

    def __init__(self, inner: StochasticCode, outer: GF2Matrix) -> None:
        if inner.n != outer.nrows:
            raise InvalidInstanceError(
                f"inner codeword length {inner.n} != outer message length "
                f"{outer.nrows}"
            )
        _check_full_rank(outer)
        inner.check_correctness()
        self.inner = inner
        self.outer = outer
        enc = [[outer.vec_mul(word) for word in words] for words in inner.enc]
        super().__init__(inner.k, outer.ncols, inner.rho, enc, {})

    def decode(self, bits: int, erased: int = 0) -> int:
        """Erasure-decode, then inner-decode; an outer failure is bot (2^k)."""
        u = ecc_decode(self.outer, bits, erased)
        return 1 << self.k if u is None else self.inner.decode(u)


def _closed_form(
    outer: GF2Matrix, f: BITFunction, recon: ReconstructionSet
) -> AffineFunction:
    """((u G M_f + Delta_f) restricted to R) G_R^{-1} as explicit (M, Delta).

    M_f is diagonal (1 where the action preserves the input), so G M_f
    just masks columns of G; erased columns never appear in R.  Products
    with G_R^{-1} are read from its codeword table, kept per mask.
    """
    keep, delta, _ = f.pattern
    times_inverse = recon.inverse.codewords
    rows = [times_inverse[gather_bits(row & keep, recon.indices)] for row in outer.rows]
    delta_r = gather_bits(delta, recon.indices)
    return AffineFunction(GF2Matrix(tuple(rows), outer.nrows), times_inverse[delta_r])


def induced_tamper(
    outer: GF2Matrix, f: BITFunction
) -> Union[AffineFunction, Marker]:
    """The map decode(f(encode(u))) on inner codewords: BOT_MAP or affine.

    With too many erasures the map is the constant failure map BOT_MAP.
    Otherwise it is the closed matrix form, built from the action masks
    and checked against the encode/tamper/decode pipeline
    ecc_decode(G, f(u*G), erase mask of f) on every inner word u, both
    sides read as tables over u (the codeword tables of G and M, and
    G's decode_table for the erase mask of f); a mismatch names the
    first failing u in all_bitstrings order.  The reconstruction set
    depends only on the erasure mask of f, never on codeword bits.
    """
    if f.n != outer.ncols:
        raise InvalidInstanceError(
            f"pattern length {f.n} != outer block length {outer.ncols}"
        )
    recon = select_reconstruction(outer, f.erase)
    if recon is None:
        return BOT_MAP
    closed = _closed_form(outer, f, recon)
    keep, xor, erase = f.pattern
    decoded = decode_table(outer, erase)
    piped = [decoded[(word & keep) ^ xor] for word in outer.codewords]
    expected = [word ^ closed.delta for word in closed.matrix.codewords]
    if piped != expected:
        m = outer.nrows
        u = next(u for u, _ in words_in_order(m) if piped[u] != expected[u])
        actual = None if piped[u] is None else int_to_bits(piped[u], m)
        raise VerificationError(
            f"induced map of {f.to_string()} disagrees with its closed "
            f"form at input {int_to_bits(u, m)}: pipeline {actual}, "
            f"closed form {int_to_bits(expected[u], m)}"
        )
    return closed


def induced_family(
    outer: GF2Matrix, budget: Optional[int] = None
) -> list:
    """Distinct induced maps over all 5^n action patterns, first-seen order.

    Members are AffineFunction values plus (when some pattern erases too
    much) the BOT_MAP marker.  The generator must have full row rank, as
    for ComposedScheme.
    """
    _check_full_rank(outer)
    members: dict = {}
    for f in enumerate_bit_functions(outer.ncols, 5, budget=budget):
        induced = induced_tamper(outer, f)
        members.setdefault(induced, induced)
    return list(members)


def recovery_probability(
    scheme: ComposedScheme, spec: SpecialStateSpec, budget: int = 20
) -> Fraction:
    """Exact recovery probability under the all-special sequence BEC(p*)^n.

    Enumerates erasure patterns and runs the full encode/erase/decode
    pipeline for every (message, seed); success is checked to be a
    function of the pattern alone.  This is an independent route that
    must equal 1 - delta_exact(outer, p*).
    """
    if spec.n != scheme.n:
        raise InvalidInstanceError(f"spec block length {spec.n} != {scheme.n}")
    n = scheme.n
    if n > budget:
        raise BudgetExceededError(
            f"recovery enumeration needs 2^{n} patterns, budget 2^{budget}"
        )
    p = spec.p_star
    q = 1 - p
    recovered = Fraction(0)
    for mask in range(1 << n):
        outcomes = set()
        for m, words in enumerate(scheme.enc):
            for word in words:
                outcomes.add(scheme.decode(word & ~mask, mask) == m)
        if len(outcomes) > 1:
            raise VerificationError(
                "recovery is not a function of the erasure pattern alone"
            )
        if outcomes == {True}:
            count = bin(mask).count("1")
            recovered += p**count * q ** (n - count)
    return recovered


class SequenceReport:
    """Per-sequence composed verification outcome (exact); worst_message
    is a message index of the inner code's k."""

    __slots__ = ("label", "epsilon", "weighted_bound", "pattern_max",
                 "worst_message", "pattern_count", "k")

    def __init__(
        self,
        label: str,
        epsilon: Fraction,
        weighted_bound: Fraction,
        pattern_max: Fraction,
        worst_message: int,
        pattern_count: int,
        k: int,
    ) -> None:
        self.label = label
        self.epsilon = epsilon
        self.weighted_bound = weighted_bound
        self.pattern_max = pattern_max
        self.worst_message = worst_message
        self.pattern_count = pattern_count
        self.k = k

    def to_json(self) -> dict:
        return {
            "sequence": self.label,
            "epsilon": format_rational(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "weighted_bound": format_rational(self.weighted_bound),
            "pattern_max": format_rational(self.pattern_max),
            "worst_message": all_bitstrings(self.k)[self.worst_message],
            "patterns": self.pattern_count,
        }


class ComposedReport:
    """Recovery probability plus per-sequence worst-case distances."""

    __slots__ = ("delta", "recovery", "eps_by_sequence", "eps_max",
                 "sequences_checked", "exhaustive")

    def __init__(
        self,
        delta: Fraction,
        recovery: Fraction,
        eps_by_sequence: dict[str, SequenceReport],
        eps_max: Fraction,
        sequences_checked: int,
        exhaustive: bool,
    ) -> None:
        self.delta = delta
        self.recovery = recovery
        self.eps_by_sequence = eps_by_sequence
        self.eps_max = eps_max
        self.sequences_checked = sequences_checked
        self.exhaustive = exhaustive

    def to_json(self) -> dict:
        return {
            "delta": format_rational(self.delta),
            "delta_float": float(self.delta),
            "recovery_probability": format_rational(self.recovery),
            "eps_max": format_rational(self.eps_max),
            "eps_max_float": float(self.eps_max),
            "sequences_checked": self.sequences_checked,
            "exhaustive": self.exhaustive,
            "sequences": {
                label: report.to_json()
                for label, report in sorted(self.eps_by_sequence.items())
            },
        }


def _sequence_label(seq: StateSequence, index: int) -> str:
    if seq.labels:
        return ",".join(seq.labels)
    return f"seq{index}"


def verify_composed(
    scheme: ComposedScheme,
    states: Sequence[StateSequence],
    spec: SpecialStateSpec,
    budget: Optional[int] = None,
    exhaustive: bool = False,
) -> ComposedReport:
    """Verify recovery under the special sequence and non-malleability
    elsewhere.

    delta comes from the pipeline-enumeration route and is cross-checked
    against the rank-enumeration route exactly.  Each supplied sequence
    (which must differ from the all-special one) is decomposed into
    positive-weight action patterns; the inner code is certified once
    against their distinct induced maps; the weight-mixed simulator is
    then compared against the exact composed tamper distributions.
    """
    recovery = recovery_probability(scheme, spec)
    delta = 1 - recovery
    rank_route = delta_exact(scheme.outer, spec.p_star)
    if delta != rank_route:
        raise VerificationError(
            f"recovery routes disagree: pipeline {delta}, rank {rank_route}"
        )

    special = spec.channel()
    induced_by_pattern: dict = {}
    # One object per distinct map, the first seen: the mixtures' lookups
    # of a pattern's member then hit by identity, not by __eq__.
    canonical: dict = {}
    expanded = []
    for seq in states:
        if not seq.extended:
            raise InvalidInstanceError(
                "composed verification needs erasure-extended sequences"
            )
        if seq.n != scheme.n:
            raise InvalidInstanceError(
                f"sequence length {seq.n} != block length {scheme.n}"
            )
        if all(ch == special for ch in seq.channels):
            raise InvalidInstanceError(
                "the all-special sequence is covered by the recovery "
                "requirement, not the non-malleability one"
            )
        count = seq.pattern_count
        if budget is not None and count > budget:
            raise BudgetExceededError(
                f"sequence expands into {count} patterns, budget {budget}"
            )
        weights = seq.mixture_weights()
        for pattern, _ in weights[1]:
            if pattern not in induced_by_pattern:
                induced = induced_tamper(
                    scheme.outer, BITFunction.from_pattern(scheme.n, pattern)
                )
                induced_by_pattern[pattern] = canonical.setdefault(induced, induced)
        expanded.append(weights)
    members = list(canonical)
    certificate = certify_family(scheme.inner, members) if members else None

    eps_by_sequence: dict[str, SequenceReport] = {}
    eps_max = Fraction(0)
    for index, (seq, weights) in enumerate(zip(states, expanded)):
        mixture = verify_mixture(scheme, seq, weights, certificate, induced_by_pattern)
        # A repeated row keeps its own entry under its index.
        label = _sequence_label(seq, index)
        if label in eps_by_sequence:
            label = f"{label}#{index}"
        eps_by_sequence[label] = SequenceReport(
            label=label,
            epsilon=mixture.ds_sd,
            weighted_bound=mixture.weighted_bound,
            pattern_max=mixture.pattern_max,
            worst_message=mixture.worst_message,
            pattern_count=len(weights[1]),
            k=scheme.k,
        )
        eps_max = max(eps_max, mixture.ds_sd)
    return ComposedReport(
        delta=delta,
        recovery=recovery,
        eps_by_sequence=eps_by_sequence,
        eps_max=eps_max,
        sequences_checked=len(states),
        exhaustive=exhaustive,
    )


def certify_induced_family(
    inner: StochasticCode, outer: GF2Matrix, budget: Optional[int] = None
) -> FamilyCertificate:
    """Certify the inner code against every map induced by the outer code."""
    return certify_family(inner, induced_family(outer, budget=budget), budget=budget)
