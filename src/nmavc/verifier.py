"""The tampering experiment and its exact verification.

Given a stochastic code (randomized encoder with an explicit uniform
seed, deterministic decoder), this module computes the exact decoded
law under a tampering function or a channel state sequence (over {0,1},
or {0,1,e} for a decoder that reads erasures), finds the optimal
message-independent simulator by an exact-rational LP, and checks the
transfer from a certified family to state sequences: the per-pattern
simulators, mixed by pattern weight, stay within the weighted family
error.  One walk over state sequences (_verify_sequences) runs that
mixture check and names each sequence, for the bit family (the
transfer, which certifies its own code first) and for the composed
scheme's induced maps alike.

A decoded outcome is an index: the messages are 0..2^k - 1 (in the
order of all_bitstrings(k)), failure (bot) is 2^k, and a simulator adds
same* at 2^k + 1.  A law table is (rows, total): one count-row tuple of
width 2^k + 1 per message, all over one total; a simulator is one row
of width 2^k + 2 over its own total.  Labels appear only in from_tables
and the to_json methods.

A code is audited for perfect correctness once, when it is made.
Every reported (epsilon, D) pair is re-verified by direct statistical
distance computation before it is returned.  One tampering experiment,
tamper_map, gives every member's tamper profile.  Certification and the
mixtures pass around one currency, a distinct profile's cache entry
(_Profile), whose optimum is solved once, on first read.  Family
certification solves the LP only for members that could raise the
running epsilon; each other member is kept within it by an explicit
feasible simulator (same*, a message's own law, or an optimum an
earlier member's LP returned), decided in integers from the member's
counts.  A mixture reads an entry per pattern, with no certification.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Sized, Union,
)

from .channels import StateSequence
from .distributions import Marker, Record, all_bitstrings, format_rational
from .errors import (
    InvalidCodeError,
    InvalidInstanceError,
    InvalidMixtureError,
    VerificationError,
    check_budget,
)
from .gf2 import bits_to_int, int_to_bits, words_in_order
from .simplex import solve_min
from .tampering import AffineFunction, BITFunction, enumerate_bit_functions

#: Stand-in for the induced map that always reports decoding failure.
BOT_MAP = Marker("bot-map")

TamperingFunction = Union[BITFunction, AffineFunction, Marker]


class StochasticCode:
    """A (k, n)-coding scheme with a rho-bit uniform encoder seed, as tables.

    Messages are the indices 0..2^k - 1, and 2^k is the outcome bot.
    enc[m][r] is the codeword of message m under seed r, packed as an int
    (bit i is position i, as bits_to_int packs a bitstring): a tuple of
    2^k tuples of 2^rho words.  The decoder is the dict dec from packed
    words to message indices; every other word decodes to bot.
    decode(bits, erased) is the one decoding entry point, which a code
    whose decoder reads erasures overrides.  The constructor validates
    the tables, then audits perfect correctness (decode(enc[m][r]) = m
    for every m and seed) exhaustively, so every code that exists is
    correct.  Bitstrings appear only in from_tables/to_json.
    """

    __slots__ = ("k", "n", "rho", "enc", "dec", "_dec_table")
    erasures = False  # True when decode reads words over {0,1,e}

    def __init__(
        self,
        k: int,
        n: int,
        rho: int,
        enc: Sequence[Sequence[int]],
        dec: Mapping[int, int],
    ) -> None:
        _check_dimensions(k, n, rho)
        # Sizes first: 2^k and 2^rho are compared, never enumerated.
        if not _has_power_size(enc, k):
            raise InvalidCodeError("encoder table must cover every message")
        for m, words in enumerate(enc):
            if not _has_power_size(words, rho):
                raise InvalidCodeError(
                    f"message {all_bitstrings(k)[m]!r} has {len(words)} "
                    f"codewords, expected 2^{rho}"
                )
            for word in words:
                if not _is_packed(word, n):
                    raise InvalidCodeError(
                        f"codeword {word!r} of message {all_bitstrings(k)[m]!r} "
                        f"is not in [0, 2^{n})"
                    )
        for word, m in dec.items():
            if not _is_packed(word, n):
                raise InvalidCodeError(f"decoder key {word!r} is not in [0, 2^{n})")
            if not _is_packed(m, k):
                raise InvalidCodeError(
                    f"decoder maps {word!r} to {m!r}, not a message in [0, 2^{k})"
                )
        self.k = k
        self.n = n
        self.rho = rho
        self.enc = tuple(tuple(words) for words in enc)
        self.dec = dict(dec)
        self._dec_table = None
        self.check_correctness()

    @property
    def seed_count(self) -> int:
        return 1 << self.rho

    def decode(self, bits: int, erased: int = 0) -> int:
        """The outcome index of the word (bits, erased): its message, or
        2^k (bot); the decoder table holds binary words only, so an
        erasure fails."""
        bot = 1 << self.k
        return bot if erased else self.dec.get(bits, bot)

    def check_correctness(self) -> None:
        """Exhaustive decode(enc[m][r]) = m audit."""
        for m, words in enumerate(self.enc):
            for r, word in enumerate(words):
                decoded = self.decode(word)
                if decoded != m:
                    labels = _labels(self.k)
                    raise InvalidCodeError(
                        f"dec(enc({labels[m]!r}, {r})) = {labels[decoded]!r}, "
                        f"violating perfect correctness"
                    )

    def decoder_table(self) -> list[int]:
        """decode(y) for every word y over the decoder's alphabet ({0,1},
        or {0,1,e} when it reads erasures), in the order of
        words_in_order.  Each word is decoded once, on first use, and the
        table is kept on the code."""
        if self._dec_table is None:
            self._dec_table = [
                self.decode(bits, erased)
                for bits, erased in words_in_order(self.n, self.erasures)
            ]
        return self._dec_table

    @classmethod
    def from_tables(
        cls,
        k: int,
        n: int,
        rho: int,
        enc_table: Mapping[str, list[str]],
        dec_table: Mapping[str, str],
    ) -> "StochasticCode":
        """The code of JSON-style tables, with every word and message a
        bitstring."""
        _check_dimensions(k, n, rho)
        if not isinstance(enc_table, Mapping) or not isinstance(dec_table, Mapping):
            raise InvalidCodeError("encoder and decoder tables must be objects")
        # 2^k distinct keys in {0,1}^k name every message, and sorted
        # they are in index order; the size is compared first.
        if not _has_power_size(enc_table, k) or not all(_is_word(m, k) for m in enc_table):
            raise InvalidCodeError("encoder table must cover every message")
        enc = []
        for m in sorted(enc_table):
            if not isinstance(enc_table[m], (list, tuple)):
                raise InvalidCodeError(f"codewords of message {m!r} must be a list")
            enc.append([_pack(word, n) for word in enc_table[m]])
        dec = {}
        for word, m in dec_table.items():
            if not _is_word(m, k):
                raise InvalidCodeError(
                    f"decoder maps {word!r} to {m!r}, not a message in {{0,1}}^{k}"
                )
            dec[_pack(word, n)] = int("0" + m, 2)  # m's index; "" (k = 0) is 0
        return cls(k, n, rho, enc, dec)

    def to_json(self) -> dict:
        labels = all_bitstrings(self.k)
        return {
            "k": self.k,
            "n": self.n,
            "rho": self.rho,
            "enc": {
                label: [int_to_bits(word, self.n) for word in words]
                for label, words in zip(labels, self.enc)
            },
            "dec": {int_to_bits(word, self.n): labels[m] for word, m in self.dec.items()},
        }

    @classmethod
    def from_json(cls, obj: object) -> "StochasticCode":
        if not isinstance(obj, Mapping):
            raise InvalidCodeError("code JSON must be an object")
        try:
            return cls.from_tables(
                obj["k"], obj["n"], obj["rho"], obj["enc"], obj.get("dec", {}),
            )
        except KeyError as missing:
            raise InvalidCodeError(f"code JSON lacks field {missing}") from None


def _check_dimensions(k: object, n: object, rho: object) -> None:
    """Raise unless k, rho >= 0 and n >= 1 are integers (bools excluded)."""
    for name, value in (("k", k), ("n", n), ("rho", rho)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidCodeError(f"{name} must be an integer, got {value!r}")
    if k < 0 or n < 1 or rho < 0:
        raise InvalidCodeError(f"bad dimensions k={k}, n={n}, rho={rho}")


def _is_word(word: object, n: int) -> bool:
    """True for a string of exactly n characters over {0, 1}."""
    return isinstance(word, str) and len(word) == n and set(word) <= {"0", "1"}


def _pack(word: object, n: int) -> int:
    """The packed int of an n-bit bitstring; InvalidCodeError otherwise."""
    if not _is_word(word, n):
        raise InvalidCodeError(f"word {word!r} is not in {{0,1}}^{n}")
    return bits_to_int(word)


def _is_packed(word: object, n: int) -> bool:
    """True for an int in [0, 2^n) (bools excluded)."""
    return (isinstance(word, int) and not isinstance(word, bool)
            and word >= 0 and not word >> n)


def _has_power_size(items: Sized, exponent: int) -> bool:
    """len(items) == 2^exponent, decided without building 2^exponent."""
    size = len(items)
    return exponent == size.bit_length() - 1 and size == 1 << exponent


def _labels(k: int) -> list[str]:
    """The JSON label of each outcome index: the messages' bitstrings,
    then bot and same*."""
    return [*all_bitstrings(k), "bot", "same*"]


def _check_member(
    code: StochasticCode, f: TamperingFunction, budget: Optional[int]
) -> None:
    """Raise unless f is a tampering function the experiment on code accepts."""
    if f is BOT_MAP:
        return
    if isinstance(f, BITFunction):
        if f.n != code.n:
            raise InvalidInstanceError(f"function length {f.n} != n={code.n}")
        if f.erase:
            raise InvalidInstanceError(
                "Erase actions are resolved by the erasure-code layer; a "
                "plain code decodes binary words only"
            )
    elif isinstance(f, AffineFunction):
        if f.in_dim != code.n or f.out_dim != code.n:
            raise InvalidInstanceError(
                f"affine shape {f.in_dim}->{f.out_dim} != n={code.n}"
            )
    else:
        raise InvalidInstanceError(f"not a tampering function: {f!r}")
    check_budget(code.seed_count, budget,
                 "tampering experiment needs {cost} evaluations, budget {budget}")


Laws = tuple[tuple[tuple[int, ...], ...], int]


def tamper_map(
    code: StochasticCode, f: TamperingFunction, budget: Optional[int] = None
) -> Laws:
    """Exact law table of decode(f(enc[m][r])) over the uniform encoder
    seed: for every message m, the count of each outcome index over
    total 2^rho, as a tuple of count-row tuples.  This is the one
    tampering experiment: certification reads every profile from it.

    Validates f once, then runs the experiment seed by seed: one
    f.apply and one decode per codeword.  Costs 2^rho per message.
    """
    _check_member(code, f, budget)
    bot = len(code.enc)
    if f is BOT_MAP:
        return ((0,) * bot + (code.seed_count,),) * bot, code.seed_count
    decode, apply = code.decode, f.apply
    rows = []
    for words in code.enc:
        row = [0] * (bot + 1)
        for word in words:
            row[decode(apply(word))] += 1
        rows.append(tuple(row))
    return tuple(rows), code.seed_count


def _check_sequence(code: StochasticCode, seq: StateSequence) -> None:
    """Raise unless seq has code's length and its decoder's alphabet:
    {0,1,e} (extended) for a decoder that reads erasures, {0,1} else."""
    if seq.extended != code.erasures:
        raise InvalidInstanceError(
            "extended sequences tamper the composed scheme, not a plain code"
            if seq.extended else
            "the composed scheme is tampered by extended sequences"
        )
    if seq.n != code.n:
        raise InvalidInstanceError(f"sequence length {seq.n} != n={code.n}")


def channel_map(
    code: StochasticCode, seq: StateSequence, budget: Optional[int] = None
) -> Laws:
    """Exact law table of decode(y), y drawn from the channel sequence on
    enc[m][r], for every message m.

    Computed in integers, without the elementary-pattern decomposition:
    each channel's non-zero entries over its own lcm (Channel.integer_rows)
    are scaled to the lcm D of the n channels' denominators; a channel
    whose lcm is D already keeps its rows.  A codeword's output law is
    the product of its positions' sparse rows: only the words whose
    every symbol has a non-zero entry, at most Prod_j nnz_j of the
    |Y|^n, each with its integer weight over D^n.  The last two
    positions (all when n <= 2) are folded into one table per pair of
    input bits; the product over the other positions is built as a
    list, and each word's weight times the folded entries goes straight
    into the message's outcome counts through the code's decoder table
    (one decode per word, kept on the code), summed over the 2^rho seeds
    into counts over D^n 2^rho.  The checks, D, the scaled rows and the
    folded table are set up once per sequence.  Costs
    2^rho Prod_j nnz_j per message; the budget is
    charged 2^rho |Y|^n, the words the decoder table covers.
    """
    _check_sequence(code, seq)
    symbols = len(seq.channels[0].rows[0])
    check_budget(code.seed_count * symbols ** code.n, budget,
                 "channel experiment needs {cost} evaluations, budget {budget}")
    scale = math.lcm(*(ch.integer_rows[0] for ch in seq.channels))
    rows = []
    for ch in seq.channels:
        d, ch_rows = ch.integer_rows
        if d != scale:
            ch_rows = [[(y, w * (scale // d)) for y, w in row] for row in ch_rows]
        rows.append(ch_rows)
    *head, last = rows
    if head:  # one table per input-bit pair x of the last two positions
        prev = head.pop()
        last = [[(y * symbols + z, a * b) for y, a in prev[x & 1] for z, b in last[x >> 1]]
                for x in range(4)]
    cut = len(head)
    width = symbols ** (code.n - cut)
    table = code.decoder_table()
    laws = []
    for words in code.enc:
        counts = [0] * (len(code.enc) + 1)
        for word in words:
            # (index in words_in_order, weight) of each reachable prefix;
            # position 0 is the most significant symbol.
            law = [(0, 1)]
            for j, ch_rows in enumerate(head):
                row = ch_rows[(word >> j) & 1]
                law = [(i * symbols + y, a * b) for i, a in law for y, b in row]
            tail = last[word >> cut]
            for i, a in law:
                i *= width
                for y, b in tail:
                    counts[table[i + y]] += a * b
        laws.append(tuple(counts))
    return tuple(laws), scale ** code.n * code.seed_count


class NMReport(Record):
    """Certified simulator: epsilon is exactly max_m SD(T_m, Copy(D, m)).

    simulator is D as (row, total): the count of each outcome index (the
    2^k messages, bot, same*) over total.  per_message_sd[m] is message
    m's distance, and worst_message the least m that reaches epsilon.
    Reports compare by these four fields.  Labels appear only in to_json.
    """

    __slots__ = ("epsilon", "simulator", "worst_message", "per_message_sd")

    def to_json(self) -> dict:
        labels = _labels(len(self.per_message_sd).bit_length() - 1)
        row, total = self.simulator
        return {
            "epsilon": format_rational(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "simulator": {
                labels[y]: format_rational(Fraction(c, total))
                for y, c in enumerate(row) if c
            },
            "worst_message": labels[self.worst_message],
            "per_message_sd": {
                labels[m]: format_rational(v) for m, v in enumerate(self.per_message_sd)
            },
        }


def _simulator_lp(rows: Sequence[Sequence[int]], total: int) -> tuple[tuple[int, ...], int]:
    """Optimal simulator via an exact LP, as a count row over its lcm.

    Variables: D(z) for every outcome index z (the messages, bot, same*),
    one slack per (message, outcome in the support of T_m) bounding the
    positive part of T_m - Copy(D, m), and epsilon.  Since both sides
    are full distributions the positive parts sum to the statistical
    distance, so per-message constraints sum-of-slacks <= epsilon pin
    epsilon to the worst-case distance.  Off the support the positive
    part is 0: its row would read t >= -D(y), which t >= 0 already
    implies, so neither the slack nor the row is built.  Every variable
    is in count units, total times its probability, so the rows are
    integers and sum D = total; one factor on every variable keeps
    Bland's pivots, so the vertex is that of the LP in probabilities.
    """
    nd = len(rows) + 2  # a simulator's outcomes: the messages, bot, same*
    star = nd - 1
    eps_col = nd + sum(1 for law in rows for count in law if count)

    a_ub: list[dict[int, int]] = []
    b_ub: list[int] = []
    t_col = nd
    for m, law in enumerate(rows):
        t_cols = []
        for y, count in enumerate(law):
            if count:
                row = {y: -1, t_col: -1}
                if y == m:
                    row[star] = -1
                a_ub.append(row)
                b_ub.append(-count)
                t_cols.append(t_col)
                t_col += 1
        row = dict.fromkeys(t_cols, 1)
        row[eps_col] = -1
        a_ub.append(row)
        b_ub.append(0)
    a_eq = [dict.fromkeys(range(nd), 1)]
    b_eq = [total]
    c = [0] * (eps_col + 1)
    c[eps_col] = 1
    x, d = solve_min(c, a_ub, b_ub, a_eq, b_eq)
    g = math.gcd(d * total, *x[:nd])
    return tuple(v // g for v in x[:nd]), d * total // g


def _check_laws(rows: Sequence[Sequence[int]], total: int) -> None:
    """Raise unless (rows, total) is a law table: 2^k rows, each of
    2^k + 1 non-negative int counts summing to the int total > 0."""
    if type(total) is not int or total <= 0:
        raise InvalidInstanceError(f"law total {total!r} is not a positive int")
    size = len(rows)
    if not size or size & (size - 1):
        raise InvalidInstanceError(
            f"need one law per message in {{0,1}}^k, got {size} laws"
        )
    for law in rows:
        if not (len(law) == size + 1
                and all(type(c) is int and c >= 0 for c in law)
                and sum(law) == total):
            raise InvalidInstanceError(
                f"law {law!r} is not {size + 1} non-negative int counts of the "
                f"{size} messages and bot, summing to {total}"
            )


def optimal_simulator(rows: Sequence[Sequence[int]], total: int) -> NMReport:
    """Best simulator distribution and its exact worst-case distance, for
    the law table (rows, total).

    The non-malleability definitions are existential ("there exists a
    distribution"); this computes the witness constructively and
    re-verifies the reported epsilon by direct summation.  An exact match
    (the optimum is 0) needs no LP: law 0 when every law equals it, else
    same* when every law is all on its own message.
    """
    _check_laws(rows, total)
    if all(law == rows[0] for law in rows):
        simulator = ((*rows[0], 0), total)
    elif all(law[m] == total for m, law in enumerate(rows)):
        simulator = ((0,) * (len(rows) + 1) + (1,), 1)
    else:
        simulator = _simulator_lp(rows, total)

    epsilon, worst, gaps = _worst_case(rows, total, simulator)
    over = 2 * total * simulator[1]
    return NMReport(epsilon, simulator, worst, tuple(Fraction(g, over) for g in gaps))


def _worst_case(
    rows: Sequence[Sequence[int]], total: int, simulator: tuple[Sequence[int], int]
) -> tuple[Fraction, int, list[int]]:
    """(epsilon, worst, gaps): every message's SD to Copy(simulator, m)
    as an integer over 2 * total * L, L the simulator's total (_gaps),
    their maximum epsilon, made the one Fraction, and the least message
    that reaches it.
    """
    gaps = list(_gaps(rows, total, simulator))
    top = max(gaps)
    return Fraction(top, 2 * total * simulator[1]), gaps.index(top), gaps


def _gaps(
    rows: Sequence[Sequence[int]], total: int, simulator: tuple[Sequence[int], int]
) -> Iterator[int]:
    """Message by message, 2 * total * L times SD(T_m, Copy(simulator, m)),
    L the simulator's total: sum_y |L c[m][y] - total D'[y]|, where D' is
    the simulator's row with its same* mass added at m."""
    d, scale = simulator
    for m, law in enumerate(rows):
        copied = list(d[:-1])
        copied[m] += d[-1]
        yield sum(abs(c * scale - total * p) for c, p in zip(law, copied))


def _within(
    rows: Sequence[Sequence[int]],
    total: int,
    simulator: tuple[Sequence[int], int],
    epsilon: Fraction,
) -> bool:
    """max_m SD(T_m, Copy(simulator, m)) <= epsilon, decided in integers
    and stopping at the first message over epsilon."""
    limit = 2 * total * simulator[1] * epsilon.numerator
    return all(
        gap * epsilon.denominator <= limit for gap in _gaps(rows, total, simulator)
    )


def function_key(f: TamperingFunction) -> str:
    """Stable serialization key for a tampering function."""
    if f is BOT_MAP:
        return "bot-map"
    if isinstance(f, BITFunction):
        return f.to_string()
    if isinstance(f, AffineFunction):
        return f"M={'|'.join(f.matrix.row_strings())};d={f.delta_string()}"
    raise InvalidInstanceError(f"not a tampering function: {f!r}")


class _Profile(Record):
    """The shared cache entry of one distinct tamper profile.

    laws is the profile, tamper_map's count-row table over total =
    2^rho, the very rows of the cache key; report is the optimal
    simulator, None until first asked for (solve).  It stays None for a
    member certification kept within epsilon by a trivial or pooled
    simulator instead.
    """

    __slots__ = ("laws", "total", "report")

    def solve(self) -> NMReport:
        if self.report is None:
            self.report = optimal_simulator(self.laws, self.total)
        return self.report


class FamilyCertificate(Record):
    """Worst-case simulator error over a tampering family, with witnesses.

    members maps every distinct member, in list order, to its profile's
    cache entry.  Only the worst member's optimum is needed for epsilon,
    so certification leaves unsolved each member that a trivial simulator
    or an earlier member's optimal simulator keeps within epsilon;
    members[f].solve() gives any member's, solving its LP on first use.
    """

    __slots__ = ("epsilon", "worst", "worst_report", "members")

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "family_size": self.size,
            "worst_function": function_key(self.worst),
            "worst_report": self.worst_report.to_json(),
        }


def certify_family(
    code: StochasticCode,
    functions: Iterable[TamperingFunction],
    budget: Optional[int] = None,
) -> FamilyCertificate:
    """Worst-case optimal simulator error over the family.

    A code whose decoder reads erasures is certified through its inner
    code instead.  Each member's tampering experiment (tamper_map)
    validates it and builds its tamper profile, its law table in
    integer counts over 2^rho, when the loop reads it (_profiled).  One
    _Profile is kept per distinct law table, which determines the
    optimum.  Any feasible simulator D bounds a member's optimum by
    max_m SD(T_m, Copy(D, m)), so a member that some D keeps at or below
    the running maximum cannot raise it, and its LP is skipped.  Each read
    first asks whether same* or a message's own law keeps the member
    within epsilon (_trivially_within); then, for a member not solved yet,
    whether one of the distinct optimal simulators this certification has
    read does, most recent first, each checked in integers (_within).
    Every other member's LP is solved.  The pool is deterministic, and a
    skip never changes epsilon or the worst member, which is the first to
    reach the maximum.
    """
    if code.erasures:
        raise InvalidInstanceError("certify a composed scheme through its inner code")
    return _certify(_profiled(code, functions, budget, {}), None)


def _entry(cache: dict, key: Laws) -> _Profile:
    """The _Profile of the law table key = (laws, total), as tamper_map
    returns it: cache's entry for key, made on first sight."""
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = _Profile(*key, None)
    return entry


def _profiled(
    code: StochasticCode, functions: Iterable, budget: Optional[int], cache: dict
) -> Iterator[tuple[TamperingFunction, _Profile]]:
    """(member, entry) for each member, in order, running each member's
    tampering experiment (tamper_map, which validates it) only when the
    caller reads it, so a loop that stops early runs and checks no more.
    entry is the member's _Profile in `cache` (_entry)."""
    for f in functions:
        yield f, _entry(cache, tamper_map(code, f, budget))


def _certify(
    entries: Iterable[tuple[TamperingFunction, _Profile]],
    stop_at_or_above: Optional[Fraction],
) -> Optional[FamilyCertificate]:
    """The certificate of a stream of (member, entry) pairs, such as
    _profiled yields, read in order; an empty stream is an error.
    Returns None as soon as the running maximum reaches
    `stop_at_or_above`, reading no later pair: the search loop only
    cares about strictly better codes.  The simulator pool is this
    call's own and keeps every distinct simulator the loop reads from an
    entry, solved now or earlier, each moved to the front when read."""
    epsilon: Optional[Fraction] = None
    members: dict = {}
    pool: list = []  # distinct optimal simulators, latest first
    for f, entry in entries:
        members[f] = entry
        if epsilon is not None and (
            _trivially_within(entry.laws, entry.total, epsilon)
            or (entry.report is None
                and any(_within(entry.laws, entry.total, d, epsilon) for d in pool))
        ):
            continue  # f's optimum <= a feasible D's error <= epsilon
        report = entry.solve()
        if report.simulator in pool:
            pool.remove(report.simulator)
        pool.insert(0, report.simulator)
        if epsilon is None or report.epsilon > epsilon:
            epsilon = report.epsilon
            worst, worst_report = f, report
        if stop_at_or_above is not None and epsilon >= stop_at_or_above:
            return None
    if not members:
        raise InvalidInstanceError("empty tampering family")
    return FamilyCertificate(
        epsilon=epsilon, worst=worst, worst_report=worst_report, members=members
    )


def _trivially_within(
    laws: Sequence[Sequence[int]], total: int, epsilon: Fraction
) -> bool:
    """Whether a trivial simulator keeps every message within epsilon:
    same*, else each message's own law in order, each stopping at the
    first message over.  Distances are integers over 2 * total, so each
    is held against cap = floor(2 * total * epsilon) exactly: at message
    m, same* has the gap 2 * (total - c[m][m]), the law c[m'] the gap
    sum_y |c[m][y] - c[m'][y]|.
    """
    cap = 2 * total * epsilon.numerator // epsilon.denominator
    return all(total - law[m] <= cap // 2 for m, law in enumerate(laws)) or any(
        all(sum(abs(a - b) for a, b in zip(law, other)) <= cap for law in laws)
        for other in laws
    )


def certify_bit_family(
    code: StochasticCode, budget: Optional[int] = None
) -> FamilyCertificate:
    """Certificate over the full 4^n bitwise independent family."""
    check_budget(4 ** code.n * code.seed_count, budget,
                 "bit-family certification needs {cost} evaluations, budget {budget}")
    return certify_family(code, enumerate_bit_functions(code.n, 4), budget=budget)


def _mixture(
    weights: tuple[int, Iterable[tuple[tuple[int, int, int], int]]],
    entry_of: Callable[[tuple[int, int, int]], _Profile],
) -> tuple[tuple[list[int], int], Fraction, Fraction]:
    """D_s and the error bounds of a sequence's integer pattern weights:
    (D_s, weighted_bound, pattern_max).

    weights is (D, [(pattern, numerator), ...]), as mixture_weights
    returns it, each pattern the (keep, xor, erase) masks of a BIT
    function.  entry_of(pattern) is the _Profile entry of the member
    simulating the pattern, read once per pattern, in order.  The
    numerators are summed per entry, by identity, in the same pass, in
    the order each entry is first read, and must total exactly D; each
    entry's optimum is then read from its report (_Profile.solve), solved
    on first read.  The simulator rows are mixed as one row over
    D * L, L the lcm of their totals, and the errors as one sum over
    D * E, E the lcm of the errors' denominators, which becomes a
    Fraction once, at the end; pattern_max is the largest error
    numerator over E.
    """
    denominator, patterns = weights
    grouped: dict = {}  # id(entry) -> [summed numerator, entry]
    for pattern, weight in patterns:
        if weight < 0:
            raise InvalidMixtureError(f"negative mixture weight {weight}/{denominator}")
        entry = entry_of(pattern)
        group = grouped.get(id(entry))
        if group is None:
            grouped[id(entry)] = [weight, entry]
        else:
            group[0] += weight
    total = sum(w for w, _ in grouped.values())
    if total != denominator:
        raise InvalidMixtureError(
            f"mixture weights sum to {total}/{denominator}, expected exactly 1"
        )

    reports = [(w, entry.solve()) for w, entry in grouped.values()]
    scale = math.lcm(*(r.simulator[1] for _, r in reports))
    error_lcm = math.lcm(*(r.epsilon.denominator for _, r in reports))
    mixed = [0] * len(reports[0][1].simulator[0])
    weighted = top = 0
    for w, report in reports:
        (row, total), eps = report.simulator, report.epsilon
        factor = w * (scale // total)
        mixed = [a + factor * c for a, c in zip(mixed, row)]
        error = eps.numerator * (error_lcm // eps.denominator)
        weighted += w * error
        top = max(top, error)
    return ((mixed, denominator * scale), Fraction(weighted, denominator * error_lcm),
            Fraction(top, error_lcm))


class SequenceReport(Record):
    """The walk's exact outcome on one sequence: epsilon (ds_sd) = max_m
    SD(T^s_m, Copy(D_s, m)) <= weighted_bound <= pattern_max, first
    reached at worst_message, a message index of the code's k."""

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


def _verify_sequences(
    code: StochasticCode,
    sequences: Iterable[StateSequence],
    entry_for: Callable[[tuple[int, int, int]], _Profile],
    budget: Optional[int],
) -> Iterator[tuple[StateSequence, Laws, SequenceReport]]:
    """The one walk over state sequences: (seq, laws, SequenceReport) for
    each sequence of any iterable, in order, keeping none of them; laws
    is the sequence's channel law table.

    Each sequence is checked (_check_sequence, its pattern count within
    budget) before its positive-weight patterns are built.  Its direct
    channel laws (channel_map) are then held against D_s, the members'
    optima mixed by the sequence's integer pattern weights (_mixture),
    which reads each pattern's entry in one pass: entry_for maps every
    pattern of every sequence to the _Profile entry of the member
    simulating it, whose optimum is solved on first read; a caller whose
    mapping costs more than a lookup memoises it.  The mixture side
    reads only the weights and the entries, the laws only the channels.

    A label is the state names joined by commas (seq<index> without
    names), with #index appended until no earlier sequence has it.  An
    empty walk is an error.
    """
    labels: set = set()
    for index, seq in enumerate(sequences):
        _check_sequence(code, seq)
        count = seq.pattern_count
        check_budget(count, budget, "sequence expands into {cost} patterns, budget {budget}")
        laws = channel_map(code, seq)
        d_s, weighted_bound, pattern_max = _mixture(seq.mixture_weights(), entry_for)
        ds_sd, worst, _ = _worst_case(*laws, d_s)
        if not ds_sd <= weighted_bound <= pattern_max:
            raise VerificationError(
                f"mixture bound violated: ds_sd={ds_sd}, "
                f"weighted={weighted_bound}, max={pattern_max}"
            )
        label = ",".join(seq.labels) if seq.labels else f"seq{index}"
        while label in labels:
            label = f"{label}#{index}"
        labels.add(label)
        yield seq, laws, SequenceReport(
            label, ds_sd, weighted_bound, pattern_max, worst, count, code.k
        )
    if not labels:
        raise InvalidInstanceError("no sequences to verify")


class TransferReport(Record):
    """Exact transfer check from the bit family to one state sequence.

    Invariant chain, checked exactly on every run:
    eps_channel <= ds_sd <= weighted_bound <= eps_bit.  worst_message is
    a message index of the code's k; sequence_label is the state names
    joined by commas, without the walk's #index (the walk label for a
    sequence without names).
    """

    __slots__ = ("eps_bit", "eps_channel", "ds_sd", "weighted_bound",
                 "worst_message", "sequence_label", "k")

    def to_json(self) -> dict:
        return {
            "eps_bit": format_rational(self.eps_bit),
            "eps_bit_float": float(self.eps_bit),
            "eps_channel": format_rational(self.eps_channel),
            "eps_channel_float": float(self.eps_channel),
            "ds_sd": format_rational(self.ds_sd),
            "ds_sd_float": float(self.ds_sd),
            "weighted_bound": format_rational(self.weighted_bound),
            "worst_message": all_bitstrings(self.k)[self.worst_message],
            "sequence": self.sequence_label,
        }


def verify_transfer(
    code: StochasticCode,
    sequences: Iterable[StateSequence],
    budget: Optional[int] = None,
) -> tuple[FamilyCertificate, dict[str, TransferReport]]:
    """Certify the code's bit family, then check the bit-family-to-AVC
    transfer on each binary state sequence: (certificate, {label:
    TransferReport}), one report per sequence under its walk label.

    The sequences (any iterable) are walked once, after certification
    (_verify_sequences), each pattern simulated by its BIT function's
    entry, which solves the LP of a member certification skipped.  Each
    sequence adds eps_channel <= ds_sd and pattern_max <= eps_bit to
    the walk's mixture check.
    """
    cert = certify_bit_family(code, budget)
    entry_for = {f.pattern: e for f, e in cert.members.items()}.__getitem__
    reports = {}
    for seq, laws, record in _verify_sequences(code, sequences, entry_for, budget):
        eps_channel = optimal_simulator(*laws).epsilon
        if not (eps_channel <= record.epsilon and record.pattern_max <= cert.epsilon):
            raise VerificationError(
                f"transfer inequality violated: eps_channel={eps_channel}, "
                f"ds_sd={record.epsilon}, weighted={record.weighted_bound}, "
                f"eps_bit={cert.epsilon}"
            )
        reports[record.label] = TransferReport(
            eps_bit=cert.epsilon,
            eps_channel=eps_channel,
            ds_sd=record.epsilon,
            weighted_bound=record.weighted_bound,
            worst_message=record.worst_message,
            sequence_label=",".join(seq.labels) if seq.labels else record.label,
            k=code.k,
        )
    return cert, reports


class SearchResult(Record):
    """Best code found by seeded random search, with its certificate."""

    __slots__ = ("code", "certificate", "trials", "seed", "best_trial", "family_size")

    def to_json(self) -> dict:
        payload = self.code.to_json()
        payload["meta"] = {
            "epsilon": format_rational(self.certificate.epsilon),
            "epsilon_float": float(self.certificate.epsilon),
            "worst_function": function_key(self.certificate.worst),
            "trials": self.trials,
            "seed": self.seed,
            "best_trial": self.best_trial,
            "family_size": self.family_size,
        }
        return payload


def _random_injective_code(
    k: int, n: int, rho: int, rng: random.Random
) -> StochasticCode:
    seeds = 1 << rho
    words = rng.sample(range(1 << n), (1 << k) * seeds)
    enc = [words[m * seeds:(m + 1) * seeds] for m in range(1 << k)]
    dec = {word: m for m, row in enumerate(enc) for word in row}
    return StochasticCode(k, n, rho, enc, dec)


def search_nm_code(
    k: int,
    n: int,
    rho: int,
    family: Union[str, Iterable[TamperingFunction]] = "bit",
    trials: int = 100,
    seed: int = 0,
    budget: Optional[int] = None,
) -> SearchResult:
    """Seeded random search for a low-error injective code.

    Samples injective encoders (decoder = inverse on the image, bot
    elsewhere), certifies each against the family, and keeps the first
    code attaining the lowest worst-case epsilon.  Bit-for-bit
    reproducible from the seed.
    """
    if k < 0 or rho < 0 or n < 1:
        raise InvalidInstanceError(
            f"search needs k >= 0, rho >= 0 and n >= 1, got k={k}, n={n}, rho={rho}"
        )
    if k + rho > n:
        raise InvalidInstanceError(
            f"injective encoding needs k + rho <= n, got {k}+{rho} > {n}"
        )
    if trials < 1:
        raise InvalidInstanceError("trials must be >= 1")
    bit = family == "bit"
    functions = list(enumerate_bit_functions(n, 4, budget=budget) if bit else family)
    rng = random.Random(seed)
    cache: dict = {}
    best: Optional[SearchResult] = None
    for trial in range(trials):
        code = _random_injective_code(k, n, rho, rng)
        stop = best.certificate.epsilon if best is not None else None
        cert = _certify(_profiled(code, functions, budget, cache), stop)
        if cert is None:
            continue
        best = SearchResult(
            code=code,
            certificate=cert,
            trials=trials,
            seed=seed,
            best_trial=trial,
            family_size=len(functions),
        )
        if cert.epsilon == 0:
            break
    assert best is not None  # trial 0 always completes (stop is None)
    return best
