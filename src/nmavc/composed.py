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
the generator's one entry for the pattern's erasure mask, which also
holds its reconstruction set R.  A closed form depends only on R and
the pattern's masks on R, so the generator keeps one per such key, and
the loops over patterns read (keep, xor, erase) masks, never building
a BITFunction.

The special state s* is BEC(p_star) (special_channel).  Verification
requires recovery under the all-s* sequence, then feeds every other
sequence to the verifier's one sequence walk, which maps each pattern
to the inner code's profile entry of the map it induces and solves
each distinct profile's optimal simulator when it first reads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .channels import Channel, StateSequence
from .distributions import Marker, Record, all_bitstrings, format_rational
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    VerificationError,
)
from .gf2 import (
    MAX_EXACT_LENGTH,
    GF2Matrix,
    ReconstructionSet,
    delta_exact,
    ecc_decode,
    gather_bits,
    int_to_bits,
    mask_decoder,
    words_in_order,
)
from .tampering import AffineFunction, BITFunction, bit_patterns
from .verifier import (
    BOT_MAP,
    FamilyCertificate,
    StochasticCode,
    _profiled,
    _verify_sequences,
    certify_family,
)


def special_channel(p_star) -> Channel:
    """The special state s*: BEC(p_star), p_star in [0, 1)."""
    p = Fraction(p_star)
    if p < 0 or p >= 1:
        raise InvalidInstanceError(f"p_star {p} outside [0, 1)")
    return Channel.bec(p)


def _check_full_rank(outer: GF2Matrix) -> None:
    """Raise unless the outer generator encodes injectively."""
    if outer.rank() != outer.nrows:
        raise InvalidInstanceError("outer generator must have full row rank")


def _check_lengths(inner: StochasticCode, outer: GF2Matrix) -> None:
    """Raise unless the inner codewords are the outer messages' length."""
    if inner.n != outer.nrows:
        raise InvalidInstanceError(
            f"inner codeword length {inner.n} != outer message length "
            f"{outer.nrows}"
        )


class ComposedScheme(StochasticCode):
    """Inner (k -> m) stochastic code encoded by an outer (m -> n) generator,
    itself a code whose decoder reads words over {0,1,e}.

    enc[m][r] is outer.vec_mul(inner.enc[m][r]); the decoder is decode,
    so the plain decoder table dec stays empty.  inner and outer are set
    first, so the constructor's correctness audit runs through decode.
    """

    __slots__ = ("inner", "outer")

    erasures = True

    def __init__(self, inner: StochasticCode, outer: GF2Matrix) -> None:
        _check_lengths(inner, outer)
        _check_full_rank(outer)
        self.inner = inner
        self.outer = outer
        enc = [[outer.vec_mul(word) for word in words] for words in inner.enc]
        super().__init__(inner.k, outer.ncols, inner.rho, enc, {})

    def decode(self, bits: int, erased: int = 0) -> int:
        """Erasure-decode, then inner-decode; an outer failure is bot (2^k)."""
        u = ecc_decode(self.outer, bits, erased)
        return 1 << self.k if u is None else self.inner.decode(u)


def _closed_form(
    outer: GF2Matrix, keep: int, xor: int, recon: ReconstructionSet
) -> AffineFunction:
    """((u G M_f + Delta_f) restricted to R) G_R^{-1} as explicit (M, Delta),
    for the pattern with these keep and xor masks.

    M_f is diagonal (1 where the action preserves the input), so G M_f
    just masks columns of G; erased columns never appear in R.  Products
    with G_R^{-1} are read from its codeword table, kept per mask.
    """
    times_inverse = recon.inverse.codewords
    rows = [times_inverse[gather_bits(row & keep, recon.indices)] for row in outer.rows]
    delta_r = gather_bits(xor, recon.indices)
    return AffineFunction(GF2Matrix(tuple(rows), outer.nrows), times_inverse[delta_r])


def _induced_map(
    outer: GF2Matrix, keep: int, xor: int, erase: int
) -> Union[AffineFunction, Marker]:
    """The map decode(f(encode(u))) on inner codewords, f the pattern with
    masks (keep, xor, erase): BOT_MAP or affine.

    The erase mask is looked up once, in G's entry for it (mask_decoder):
    the reconstruction set R, R's mask and the decode table.  With too
    many erasures there is no R, and the map is the constant failure
    map BOT_MAP.  Otherwise it is the closed matrix form, built from the
    masks and checked against the encode/tamper/decode pipeline
    ecc_decode(G, f(u*G), erase) on every inner word u, both sides read
    as tables over u (G's codeword table, the closed form's table of
    u M + Delta, and the entry's decode table); a mismatch names the
    first failing u in all_bitstrings order.  R depends only on the
    erase mask, never on codeword bits, and the closed form reads only
    R and the masks' bits on R, so G keeps one per (R, keep & R,
    xor & R), with its table; the pipeline check runs for every pattern.
    """
    entry = mask_decoder(outer, erase)
    if entry is None:
        return BOT_MAP
    recon, on_r, decoded = entry
    key = (on_r, keep & on_r, xor & on_r)
    forms = outer._closed_forms
    form = forms.get(key)
    if form is None:
        closed = _closed_form(outer, keep, xor, recon)
        # u M ^ delta for every u, by XOR doubling from delta; M keeps no
        # codeword table of its own.
        expected = [closed.delta]
        for row in closed.matrix.rows:
            expected += [word ^ row for word in expected]
        form = forms[key] = closed, expected
    closed, expected = form
    piped = [decoded[(word & keep) ^ xor] for word in outer.codewords]
    if piped != expected:
        m = outer.nrows
        u = next(u for u, _ in words_in_order(m) if piped[u] != expected[u])
        actual = None if piped[u] is None else int_to_bits(piped[u], m)
        f = BITFunction(outer.ncols, keep, xor, erase)
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
    for pattern in bit_patterns(outer.ncols, 5, budget=budget):
        induced = _induced_map(outer, *pattern)
        members.setdefault(induced, induced)
    return list(members)


def recovery_probability(scheme: ComposedScheme, p_star) -> Fraction:
    """Exact recovery probability under the all-special sequence BEC(p*)^n.

    p* = p_star must lie in [0, 1) (special_channel).  Enumerates erasure
    patterns and runs the full encode/erase/decode pipeline for every
    (message, seed); success is checked to be a function of the pattern
    alone.  This independent route must equal 1 - delta_exact(outer, p*).
    """
    p = special_channel(p_star).erasure_probability
    n = scheme.n
    if n > MAX_EXACT_LENGTH:
        raise BudgetExceededError(
            f"recovery enumeration needs 2^{n} patterns, budget 2^{MAX_EXACT_LENGTH}"
        )
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


class SequenceReport(Record):
    """Per-sequence composed verification outcome (exact); worst_message
    is a message index of the inner code's k."""

    __slots__ = ("label", "epsilon", "weighted_bound", "pattern_max",
                 "worst_message", "pattern_count", "k")

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


class ComposedReport(Record):
    """Recovery probability plus per-sequence worst-case distances."""

    __slots__ = ("delta", "recovery", "eps_by_sequence", "eps_max",
                 "sequences_checked")

    def to_json(self) -> dict:
        return {
            "delta": format_rational(self.delta),
            "delta_float": float(self.delta),
            "recovery_probability": format_rational(self.recovery),
            "eps_max": format_rational(self.eps_max),
            "eps_max_float": float(self.eps_max),
            "sequences_checked": self.sequences_checked,
            "sequences": {
                label: report.to_json()
                for label, report in sorted(self.eps_by_sequence.items())
            },
        }


def verify_composed(
    scheme: ComposedScheme,
    states: Iterable[StateSequence],
    p_star,
    budget: Optional[int] = None,
) -> ComposedReport:
    """Verify recovery under the all-special sequence BEC(p_star)^n and
    non-malleability elsewhere.

    delta comes from the pipeline-enumeration route and is cross-checked
    against the rank-enumeration route exactly.  The sequences (any
    iterable) are then walked once by the verifier's sequence walk,
    which keeps none; the all-special sequence is refused as it is
    drawn.  Each pattern not seen before is mapped to the inner code's
    cache entry for the profile of its induced map, one tampering
    experiment per distinct map, and each entry's optimal simulator is
    solved once, when the mixture first reads it.
    """
    recovery = recovery_probability(scheme, p_star)
    delta = 1 - recovery
    rank_route = delta_exact(scheme.outer, p_star)
    if delta != rank_route:
        raise VerificationError(
            f"recovery routes disagree: pipeline {delta}, rank {rank_route}"
        )

    special = special_channel(p_star)

    def non_special():
        for seq in states:
            if all(ch == special for ch in seq.channels):
                raise InvalidInstanceError(
                    "the all-special sequence is covered by the recovery "
                    "requirement, not the non-malleability one"
                )
            yield seq

    cache: dict = {}  # one _Profile per distinct profile
    entry_of_map: dict = {}  # induced map -> its entry

    def entry_for(pattern):
        f = _induced_map(scheme.outer, *pattern)
        if f not in entry_of_map:
            [(_, entry_of_map[f])] = _profiled(scheme.inner, [f], None, cache)
        return entry_of_map[f]

    eps_by_sequence = {
        label: SequenceReport(
            label=label,
            epsilon=mixture.ds_sd,
            weighted_bound=mixture.weighted_bound,
            pattern_max=mixture.pattern_max,
            worst_message=mixture.worst_message,
            pattern_count=seq.pattern_count,
            k=scheme.k,
        )
        for label, seq, mixture in _verify_sequences(
            scheme, non_special(), entry_for, budget
        )
    }
    return ComposedReport(
        delta=delta,
        recovery=recovery,
        eps_by_sequence=eps_by_sequence,
        eps_max=max(report.epsilon for report in eps_by_sequence.values()),
        sequences_checked=len(eps_by_sequence),
    )


def certify_induced_family(
    inner: StochasticCode, outer: GF2Matrix, budget: Optional[int] = None
) -> FamilyCertificate:
    """Certify the inner code against every map induced by the outer code.

    The lengths are checked before the 5^n action patterns are walked."""
    _check_lengths(inner, outer)
    return certify_family(inner, induced_family(outer, budget=budget), budget=budget)
