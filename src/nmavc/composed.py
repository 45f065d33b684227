"""Two-step construction: inner stochastic code behind a linear erasure code.

Encoding composes the inner encoder with the erasure-code encoder;
decoding runs the reconstruction-set erasure decoder and feeds its
output (or BOT) to the inner decoder.  Tampering the outer codeword
with a per-bit action pattern induces an affine map (or the constant
failure map) on the inner codeword: the induced map is fitted from the
actual encode/tamper/decode pipeline, verified on the full domain, and
matched against its closed matrix form.

Verification against an erasure-extended state dictionary decomposes
each state, certifies a simulator per induced map, mixes them by
pattern weight, and reports the exact worst-case distance per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .channels import ExtendedChannel, StateSequence
from .distributions import (
    BOT,
    FiniteDistribution,
    all_bitstrings,
    apply_copy,
    format_rational,
    mix,
    statistical_distance,
)
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    VerificationError,
)
from .gf2 import (
    GF2Matrix,
    ReconstructionSet,
    delta_exact,
    ecc_decode,
    ecc_encode,
    int_to_bits,
    select_reconstruction,
)
from .tampering import (
    AffineFunction,
    BITFunction,
    NonAffineReport,
    enumerate_bit_functions,
    fit_affine,
)
from .verifier import (
    BOT_MAP,
    FamilyCertificate,
    StochasticCode,
    certify_family,
    optimal_simulator,
    tamper_map,
)


@dataclass(frozen=True)
class SpecialStateSpec:
    """The designated all-erasure state: BEC with erasure probability p_star."""

    p_star: Fraction
    n: int

    def __post_init__(self):
        p = Fraction(self.p_star)
        if p < 0 or p >= 1:
            raise InvalidInstanceError(f"p_star {p} outside [0, 1)")
        object.__setattr__(self, "p_star", p)

    def channel(self) -> ExtendedChannel:
        return ExtendedChannel.bec(self.p_star)


class ComposedScheme:
    """Inner (k -> m) stochastic code encoded by an outer (m -> n) generator."""

    __slots__ = ("inner", "outer")

    def __init__(self, inner: StochasticCode, outer: GF2Matrix) -> None:
        if inner.n != outer.nrows:
            raise InvalidInstanceError(
                f"inner codeword length {inner.n} != outer message length "
                f"{outer.nrows}"
            )
        if outer.rank() != outer.nrows:
            raise InvalidInstanceError("outer generator must have full row rank")
        inner.check_correctness()
        self.inner = inner
        self.outer = outer

    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def m(self) -> int:
        return self.inner.n

    @property
    def n(self) -> int:
        return self.outer.ncols

    @property
    def rho(self) -> int:
        return self.inner.rho


def composed_encode(scheme: ComposedScheme, m: str, r: int) -> str:
    return ecc_encode(scheme.outer, scheme.inner.enc(m, r))


def composed_decode(scheme: ComposedScheme, y: str):
    """Erasure-decode then inner-decode; an outer failure propagates to BOT."""
    result = ecc_decode(scheme.outer, y)
    if result is None:
        return BOT
    return scheme.inner.dec(result.message)


@dataclass(frozen=True)
class InducedFunction:
    """What an outer-word action pattern does to the inner codeword.

    Either an affine map on m bits (verified on all 2^m inputs and equal
    to the closed form) or, with too many erasures, the constant failure
    map (affine is None).
    """

    source: BITFunction
    affine: Optional[AffineFunction]
    reconstruction: Optional[ReconstructionSet]

    @property
    def is_failure(self) -> bool:
        return self.affine is None

    def key(self):
        return BOT_MAP if self.affine is None else self.affine


def _closed_form(
    outer: GF2Matrix, f: BITFunction, recon: ReconstructionSet
) -> AffineFunction:
    """((u G M_f + Delta_f) restricted to R) G_R^{-1} as explicit (M, Delta).

    M_f is diagonal (1 where the action preserves the input), so G M_f
    just masks columns of G; erased columns never appear in R.
    """
    keep_mask, delta_full = f.masks
    masked = GF2Matrix(tuple(row & keep_mask for row in outer.rows), outer.ncols)
    sub = masked.submatrix_columns(recon.indices)
    matrix = sub.matmul(recon.inverse)
    delta_r = 0
    for new_j, j in enumerate(recon.indices):
        if (delta_full >> j) & 1:
            delta_r |= 1 << new_j
    delta = int_to_bits(recon.inverse.vec_mul(delta_r), outer.nrows)
    return AffineFunction(matrix, delta)


def induced_tamper(outer: GF2Matrix, f: BITFunction) -> InducedFunction:
    """The map decode(f(encode(u))) on inner codewords, dual-route verified.

    One route fits an affine function from the real pipeline and checks
    it on every input; the other builds the closed matrix form.  The two
    must agree exactly.  The reconstruction set depends only on the
    erasure pattern of f, never on codeword bits.
    """
    if f.n != outer.ncols:
        raise InvalidInstanceError(
            f"pattern length {f.n} != outer block length {outer.ncols}"
        )
    m = outer.nrows
    recon = select_reconstruction(outer, f.erasure_set())
    if recon is None:
        return InducedFunction(source=f, affine=None, reconstruction=None)

    def oracle(u: str) -> str:
        result = ecc_decode(outer, f.apply(ecc_encode(outer, u)))
        assert result is not None  # a reconstruction set exists
        return result.message

    fitted = fit_affine(oracle, m, m)
    if isinstance(fitted, NonAffineReport):
        raise VerificationError(
            f"induced map of {f.to_string()} is not affine at input "
            f"{fitted.witness}: pipeline {fitted.expected}, fit {fitted.fitted}"
        )
    closed = _closed_form(outer, f, recon)
    if fitted != closed:
        raise VerificationError(
            f"induced map of {f.to_string()} disagrees with its closed form"
        )
    return InducedFunction(source=f, affine=fitted, reconstruction=recon)


def induced_family(
    outer: GF2Matrix, budget: Optional[int] = None
) -> list:
    """Distinct induced maps over all 5^n action patterns, first-seen order.

    Members are AffineFunction values plus (when some pattern erases too
    much) the BOT_MAP marker.
    """
    seen = set()
    members = []
    for f in enumerate_bit_functions(outer.ncols, 5, budget=budget):
        induced = induced_tamper(outer, f)
        key = induced.key()
        if key not in seen:
            seen.add(key)
            members.append(key)
    return members


def composed_tamper_distribution(
    scheme: ComposedScheme,
    seq: StateSequence,
    m: str,
    budget: Optional[int] = None,
) -> FiniteDistribution:
    """Exact law of the composed decode under an extended state sequence."""
    if not seq.extended:
        raise InvalidInstanceError("composed verification uses extended sequences")
    if seq.n != scheme.n:
        raise InvalidInstanceError(f"sequence length {seq.n} != n={scheme.n}")
    if len(m) != scheme.k:
        raise InvalidInstanceError(f"message length {len(m)} != k={scheme.k}")
    cost = (3 ** scheme.n) * scheme.inner.seed_count
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"direct channel experiment needs up to {cost} terms, budget {budget}"
        )
    share = Fraction(1, scheme.inner.seed_count)
    masses: dict = {}
    for r in range(scheme.inner.seed_count):
        out = seq.output_distribution(composed_encode(scheme, m, r))
        for word, p in out.items():
            outcome = composed_decode(scheme, word)
            masses[outcome] = masses.get(outcome, Fraction(0)) + share * p
    return FiniteDistribution(masses)


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
        for m in scheme.inner.messages():
            for r in range(scheme.inner.seed_count):
                word = composed_encode(scheme, m, r)
                erased = "".join(
                    "e" if (mask >> j) & 1 else word[j] for j in range(n)
                )
                outcomes.add(composed_decode(scheme, erased) == m)
        if len(outcomes) > 1:
            raise VerificationError(
                "recovery is not a function of the erasure pattern alone"
            )
        if outcomes == {True}:
            count = bin(mask).count("1")
            recovered += p**count * q ** (n - count)
    return recovered


@dataclass
class SequenceReport:
    """Per-sequence composed verification outcome (exact)."""

    label: str
    epsilon: Fraction
    weighted_bound: Fraction
    pattern_max: Fraction
    worst_message: str
    pattern_count: int

    def to_json(self) -> dict:
        return {
            "sequence": self.label,
            "epsilon": format_rational(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "weighted_bound": format_rational(self.weighted_bound),
            "pattern_max": format_rational(self.pattern_max),
            "worst_message": self.worst_message,
            "patterns": self.pattern_count,
        }


@dataclass
class ComposedReport:
    """Recovery probability plus per-sequence worst-case distances."""

    delta: Fraction
    recovery: Fraction
    eps_by_sequence: dict[str, SequenceReport]
    eps_max: Fraction
    sequences_checked: int
    exhaustive: bool

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
    positive-weight action patterns; each pattern's induced map gets an
    optimal simulator; the weight-mixed simulator is then compared
    against the exact composed tamper distributions.
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
    report_by_key: dict = {}
    messages = scheme.inner.messages()
    lp_cache: dict = {}

    eps_by_sequence: dict[str, SequenceReport] = {}
    eps_max = Fraction(0)
    for index, seq in enumerate(states):
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
        patterns = list(seq.mixture_weights())
        if budget is not None and len(patterns) > budget:
            raise BudgetExceededError(
                f"sequence expands into {len(patterns)} patterns, budget {budget}"
            )
        components = []
        weighted_bound = Fraction(0)
        pattern_max = Fraction(0)
        for pattern, weight in patterns:
            f = BITFunction(pattern)
            induced = induced_by_pattern.get(f)
            if induced is None:
                induced = induced_tamper(scheme.outer, f)
                induced_by_pattern[f] = induced
            key = induced.key()
            report = report_by_key.get(key)
            if report is None:
                profile = tamper_map(scheme.inner, key)
                profile_key = tuple(profile[m] for m in messages)
                report = lp_cache.get(profile_key)
                if report is None:
                    report = optimal_simulator(profile)
                    lp_cache[profile_key] = report
                report_by_key[key] = report
            components.append((weight, report.simulator))
            weighted_bound += weight * report.epsilon
            if report.epsilon > pattern_max:
                pattern_max = report.epsilon
        d_s = mix(components)
        per_message = {}
        for m in all_bitstrings(scheme.k):
            tam = composed_tamper_distribution(scheme, seq, m, budget=None)
            per_message[m] = statistical_distance(tam, apply_copy(d_s, m))
        epsilon = max(per_message.values())
        worst = min(m for m, sd in per_message.items() if sd == epsilon)
        if not epsilon <= weighted_bound <= pattern_max:
            raise VerificationError(
                f"mixture bound violated: eps={epsilon}, "
                f"weighted={weighted_bound}, max={pattern_max}"
            )
        label = _sequence_label(seq, index)
        eps_by_sequence[label] = SequenceReport(
            label=label,
            epsilon=epsilon,
            weighted_bound=weighted_bound,
            pattern_max=pattern_max,
            worst_message=worst,
            pattern_count=len(patterns),
        )
        if epsilon > eps_max:
            eps_max = epsilon
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
    members = induced_family(outer, budget=budget)
    cert = certify_family(inner, members, budget=budget)
    assert cert is not None
    return cert
