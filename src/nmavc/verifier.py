"""The tampering experiment and its exact verification.

Given a stochastic code (randomized encoder with an explicit uniform
seed, deterministic decoder), this module computes the exact decoded
law under a tampering function or a channel state sequence (over {0,1},
or {0,1,e} for a decoder that reads erasures), finds the optimal
message-independent simulator by an exact-rational LP, and checks the
transfer from a certified family to a state sequence: the per-pattern
simulators, mixed by pattern weight, stay within the weighted family
error.  One mixture check serves the bit family and the composed
scheme's induced maps.

A decoded outcome is an index: the messages are 0..2^k - 1 (in the
order of all_bitstrings(k)), failure (bot) is 2^k, and a simulator adds
same* at 2^k + 1.  A law table is (rows, total): one count row of width
2^k + 1 per message, all over one total; a simulator is one row of
width 2^k + 2 over its own total.  Labels appear only in from_tables
and the to_json methods.

Every reported (epsilon, D) pair is re-verified by direct statistical
distance computation before it is returned.  Family certification
solves the LP only for members that could raise the running epsilon;
each other member is bounded by an explicit feasible simulator (a
trivial one, or an optimum an earlier member's LP returned) whose
distance is summed in integers from the member's counts, and its own
optimum is solved when a mixture reads it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Sized, Union

from .channels import StateSequence
from .distributions import Marker, all_bitstrings, format_rational
from .errors import (
    BudgetExceededError,
    InvalidCodeError,
    InvalidInstanceError,
    InvalidMixtureError,
    VerificationError,
)
from .gf2 import bits_to_int, int_to_bits, words_in_order
from .simplex import solve_min
from .tampering import AffineFunction, BITFunction, enumerate_bit_functions

#: Stand-in for the induced map that always reports decoding failure.
BOT_MAP = Marker("bot-map")

TamperingFunction = Union[BITFunction, AffineFunction, Marker]

#: How many distinct optimal simulators one certification keeps, most
#: recently solved first, to bound later members before their LP.
_POOL_SIZE = 16


class StochasticCode:
    """A (k, n)-coding scheme with a rho-bit uniform encoder seed, as tables.

    Messages are the indices 0..2^k - 1, and 2^k is the outcome bot.
    enc[m][r] is the codeword of message m under seed r, packed as an int
    (bit i is position i, as bits_to_int packs a bitstring): a tuple of
    2^k tuples of 2^rho words.  The decoder is the dict dec from packed
    words to message indices; every other word decodes to bot.
    decode(bits, erased) is the one decoding entry point, which a code
    whose decoder reads erasures overrides.  The constructor validates
    the tables; perfect correctness (decode(enc[m][r]) = m for every m
    and seed) is audited exhaustively before any verification uses the
    code.  Bitstrings appear only in from_tables/to_json.
    """

    __slots__ = ("k", "n", "rho", "enc", "dec", "_audited", "_dec_table")
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
        self._audited = False
        self._dec_table = None

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
        """Exhaustive decode(enc[m][r]) = m audit; cached after first pass."""
        if self._audited:
            return
        for m, words in enumerate(self.enc):
            for r, word in enumerate(words):
                decoded = self.decode(word)
                if decoded != m:
                    labels = _labels(self.k)
                    raise InvalidCodeError(
                        f"dec(enc({labels[m]!r}, {r})) = {labels[decoded]!r}, "
                        f"violating perfect correctness"
                    )
        self._audited = True

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


def _check_budget(cost: int, budget: Optional[int], what: str) -> None:
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"{what} needs {cost} evaluations, budget {budget}")


def _check_member(
    code: StochasticCode, f: TamperingFunction, budget: Optional[int]
) -> None:
    """Raise unless f is a tampering function the experiment on code accepts."""
    if f is BOT_MAP:
        return
    if isinstance(f, BITFunction):
        if f.n != code.n:
            raise InvalidInstanceError(f"function length {f.n} != n={code.n}")
        if f.has_erase:
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
    _check_budget(code.seed_count, budget, "tampering experiment")


Laws = tuple[list[list[int]], int]


def tamper_map(
    code: StochasticCode, f: TamperingFunction, budget: Optional[int] = None
) -> Laws:
    """Exact law table of decode(f(enc[m][r])) over the uniform encoder
    seed: for every message m, the count of each outcome index over
    total 2^rho.

    Validates the code and f once, then runs the experiment seed by
    seed: one f.apply and one decode per codeword.  Costs 2^rho per
    message.
    """
    code.check_correctness()
    _check_member(code, f, budget)
    bot = len(code.enc)
    rows = []
    for words in code.enc:
        row = [0] * (bot + 1)
        if f is BOT_MAP:
            row[bot] = code.seed_count
        else:
            for word in words:
                row[code.decode(f.apply(word))] += 1
        rows.append(row)
    return rows, code.seed_count


def channel_map(
    code: StochasticCode, seq: StateSequence, budget: Optional[int] = None
) -> Laws:
    """Exact law table of decode(y), y drawn from the channel sequence on
    enc[m][r], for every message m.

    Computed in integers, without the elementary-pattern decomposition:
    each channel's non-zero entries over its own lcm (Channel.integer_rows)
    are scaled to the lcm D of the n channels' denominators.  A
    codeword's output law is the product of its positions' sparse rows:
    only the words whose every symbol has a non-zero entry, at most
    Prod_j nnz_j of the |Y|^n, each with its integer weight over D^n.
    Their weights go straight into the message's outcome counts through
    the code's decoder table (one decode per word, kept on the code),
    summed over the 2^rho seeds into counts over D^n 2^rho.  The checks,
    D and the scaled rows are set up once per sequence.  Costs 2^rho
    Prod_j nnz_j per message; the budget is charged 2^rho |Y|^n, the
    words the decoder table covers.
    """
    code.check_correctness()
    if seq.extended != code.erasures:
        raise InvalidInstanceError(
            "extended sequences tamper the composed scheme, not a plain code"
            if seq.extended else
            "the composed scheme is tampered by extended sequences"
        )
    if seq.n != code.n:
        raise InvalidInstanceError(f"sequence length {seq.n} != n={code.n}")
    symbols = len(seq.channels[0].output_symbols)
    _check_budget(code.seed_count * symbols ** code.n, budget, "channel experiment")
    scale = math.lcm(*(ch.integer_rows[0] for ch in seq.channels))
    rows = []
    for ch in seq.channels:
        d, ch_rows = ch.integer_rows
        rows.append([[(y, w * (scale // d)) for y, w in row] for row in ch_rows])
    table = code.decoder_table()
    laws = []
    for words in code.enc:
        counts = [0] * (len(code.enc) + 1)
        for word in words:
            # (index in words_in_order, weight) of each reachable word;
            # position 0 is the most significant symbol.
            law = [(0, 1)]
            for j, ch_rows in enumerate(rows):
                row = ch_rows[(word >> j) & 1]
                law = [(i * symbols + y, a * b) for i, a in law for y, b in row]
            for i, w in law:
                counts[table[i]] += w
        laws.append(counts)
    return laws, scale ** code.n * code.seed_count


class NMReport:
    """Certified simulator: epsilon is exactly max_m SD(T_m, Copy(D, m)).

    simulator is D as (row, total): the count of each outcome index (the
    2^k messages, bot, same*) over total.  per_message_sd[m] is message
    m's distance, and worst_message the least m that reaches epsilon.
    Reports compare by these four fields.  Labels appear only in to_json.
    """

    __slots__ = ("epsilon", "simulator", "worst_message", "per_message_sd")

    def __init__(
        self,
        epsilon: Fraction,
        simulator: tuple[tuple[int, ...], int],
        worst_message: int,
        per_message_sd: list[Fraction],
    ) -> None:
        self.epsilon = epsilon
        self.simulator = simulator
        self.worst_message = worst_message
        self.per_message_sd = per_message_sd

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.simulator == other.simulator
            and self.worst_message == other.worst_message
            and self.per_message_sd == other.per_message_sd
        )

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
    one slack per (message, outcome) bounding the positive part of
    T_m - Copy(D, m), and epsilon.  Since both sides are full
    distributions the positive parts sum to the statistical distance, so
    per-message constraints sum-of-slacks <= epsilon pin epsilon to the
    worst-case distance.
    """
    ny = len(rows) + 1  # a law's outcomes: the messages and bot
    nd = ny + 1  # a simulator's: and same*
    star = nd - 1
    n_vars = nd + len(rows) * ny + 1
    eps_col = n_vars - 1

    a_ub: list[dict[int, int]] = []
    b_ub: list[int | Fraction] = []
    for m, law in enumerate(rows):
        t_cols = range(nd + m * ny, nd + (m + 1) * ny)
        for y, (t_col, count) in enumerate(zip(t_cols, law)):
            row = {y: -1, t_col: -1}
            if y == m:
                row[star] = -1
            a_ub.append(row)
            b_ub.append(Fraction(-count, total))
        row = dict.fromkeys(t_cols, 1)
        row[eps_col] = -1
        a_ub.append(row)
        b_ub.append(0)
    a_eq = [dict.fromkeys(range(nd), 1)]
    b_eq = [1]
    c = [0] * n_vars
    c[eps_col] = 1
    x, _ = solve_min(c, a_ub, b_ub, a_eq, b_eq)
    scale = math.lcm(*(v.denominator for v in x[:nd]))
    return tuple(v.numerator * (scale // v.denominator) for v in x[:nd]), scale


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
    re-verifies the reported epsilon by direct summation.
    """
    _check_laws(rows, total)
    first = rows[0]
    if all(law == first for law in rows):
        simulator = ((*first, 0), total)
    elif all(law[m] == total for m, law in enumerate(rows)):
        simulator = ((0,) * len(first) + (1,), 1)
    else:
        simulator = _simulator_lp(rows, total)

    epsilon, worst, per_message = _worst_case(rows, total, simulator)
    return NMReport(epsilon, simulator, worst, per_message)


def _worst_case(
    rows: Sequence[Sequence[int]], total: int, simulator: tuple[Sequence[int], int]
) -> tuple[Fraction, int, list[Fraction]]:
    """(epsilon, worst, per_message): the SD of every message's law to
    Copy(simulator, m), their maximum epsilon, and the least message
    that reaches it.

    A distance is one integer sum over total * L, L the simulator's
    total (_gaps), made a Fraction once.
    """
    over = 2 * total * simulator[1]
    per_message = [Fraction(gap, over) for gap in _gaps(rows, total, simulator)]
    epsilon = max(per_message)
    return epsilon, per_message.index(epsilon), per_message


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


class _Profile:
    """The shared cache entry of one distinct tamper profile.

    laws is the profile as count rows over total = 2^rho, the very rows
    of the cache key, checked equal to tamper_map's table; bound is the
    profile's least trivial-simulator error (_profile_bound), an upper
    bound on its optimum; report is the optimal simulator, None until
    first asked for.  It stays None for a member certification bounded
    by a trivial or pooled simulator instead.
    """

    __slots__ = ("laws", "total", "bound", "report")

    def __init__(
        self,
        laws: tuple[tuple[int, ...], ...],
        total: int,
        bound: Fraction,
        report: Optional[NMReport] = None,
    ) -> None:
        self.laws = laws
        self.total = total
        self.bound = bound
        self.report = report

    def solve(self) -> NMReport:
        if self.report is None:
            self.report = optimal_simulator(self.laws, self.total)
        return self.report


class FamilyCertificate:
    """Worst-case simulator error over a tampering family, with witnesses.

    members maps every distinct member, in list order, to its profile's
    cache entry.  Only the worst member's optimum is needed for epsilon,
    so certification leaves unsolved each member that a trivial simulator
    or an earlier member's optimal simulator keeps within epsilon;
    report(f) gives any member's, solving its LP on first use.
    """

    __slots__ = ("epsilon", "worst", "worst_report", "members")

    def __init__(
        self,
        epsilon: Fraction,
        worst: TamperingFunction,
        worst_report: NMReport,
        members: dict[TamperingFunction, _Profile],
    ) -> None:
        self.epsilon = epsilon
        self.worst = worst
        self.worst_report = worst_report
        self.members = members

    @property
    def size(self) -> int:
        return len(self.members)

    def report(self, f: TamperingFunction) -> NMReport:
        """Member f's optimal simulator and its exact error."""
        return self.members[f].solve()

    def to_json(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "family_size": self.size,
            "worst_function": function_key(self.worst),
            "worst_report": self.worst_report.to_json(),
        }


def _count_profiles(
    code: StochasticCode, functions: list
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Integer tamper profiles of the (validated) members, one at a time.

    Member i's profile is the law table tamper_map(code, f_i) gives, as
    a tuple of count-row tuples over 2^rho: entry y of row m counts the
    seeds r with decode(f_i(enc[m][r])) = y.  Yields member i's profile
    only when the caller reads it, so a loop that stops early builds no
    more.  A plain code's words are looked up in its dec table.
    """
    bot = len(code.enc)
    if type(code).decode is StochasticCode.decode:
        decode, default = code.dec.get, bot
    else:
        decode, default = code.decode, 0  # decode(bits, erased=0)

    for f in functions:
        if f is BOT_MAP:
            yield ((0,) * bot + (code.seed_count,),) * bot
            continue
        if isinstance(f, BITFunction):
            # f.apply without a call per word: the search's hot loop.
            keep, xor, _ = f.pattern
            tampered = [[(word & keep) ^ xor for word in words] for words in code.enc]
        else:
            tampered = [map(f.apply, words) for words in code.enc]
        table = []
        for words in tampered:
            row = [0] * (bot + 1)
            for y in map(decode, words, repeat(default)):
                row[y] += 1
            table.append(tuple(row))
        yield tuple(table)


def certify_family(
    code: StochasticCode,
    functions: Iterable[TamperingFunction],
    budget: Optional[int] = None,
) -> FamilyCertificate:
    """Worst-case optimal simulator error over the family.

    Every member is validated first, in list order.  Then each member's
    tamper profile, its law table in integer counts over 2^rho, is built
    when its turn comes (_count_profiles).  One _Profile is kept per
    distinct (2^rho, profile), which determines the optimum.  On a miss,
    the member's tamper map is re-derived seed by seed by the tampering
    experiment (tamper_map: one apply and one decode per codeword) and
    checked equal to the counts.  Any feasible simulator D bounds a
    member's optimum by max_m SD(T_m, Copy(D, m)), so a member that some
    D keeps at or below the running maximum cannot raise it, and its LP
    is skipped.  D is tried first among the trivial simulators (the
    entry's bound), then, for a member not solved yet, among a pool of
    the _POOL_SIZE distinct optimal simulators this certification solved
    most recently, newest first, each checked in integers (_within).
    Every other member's LP is solved.  The pool is deterministic, and
    a skip never changes epsilon or the worst member, which is the first
    to reach the maximum.
    """
    functions = _check_family(code, functions, budget)
    return _certify_checked(code, functions, budget, {}, None)


def _check_family(
    code: StochasticCode,
    functions: Iterable[TamperingFunction],
    budget: Optional[int],
) -> list:
    """The members as a list, each validated for codes of code's n and rho."""
    functions = list(functions)
    if not functions:
        raise InvalidInstanceError("empty tampering family")
    for f in functions:
        _check_member(code, f, budget)
    return functions


def _certify_checked(
    code: StochasticCode,
    functions: list,
    budget: Optional[int],
    cache: dict,
    stop_at_or_above: Optional[Fraction],
) -> Optional[FamilyCertificate]:
    """certify_family on a family already passed through _check_family,
    with its _Profile entries kept in `cache` across calls.  Returns
    None as soon as the running maximum reaches `stop_at_or_above`,
    building no later member's profile: the search loop only cares
    about strictly better codes.  The simulator pool is this call's own:
    each simulator the loop reads from an entry, solved now or earlier,
    moves to the pool's front, and the oldest beyond _POOL_SIZE leaves."""
    code.check_correctness()
    seed_count = code.seed_count
    profiles = _count_profiles(code, functions)

    epsilon: Optional[Fraction] = None
    members: dict = {}
    pool: list = []  # distinct optimal simulators, latest first
    for f, laws in zip(functions, profiles):
        key = (seed_count, laws)
        entry = cache.get(key)
        if entry is None:
            table, _ = tamper_map(code, f, budget=budget)
            if list(map(list, laws)) != table:
                raise VerificationError(
                    f"count profile of {function_key(f)} disagrees with its "
                    f"tampering experiment"
                )
            entry = cache[key] = _Profile(
                laws, seed_count, _profile_bound(laws, seed_count)
            )
        members[f] = entry
        if epsilon is not None and (
            entry.bound <= epsilon
            or (entry.report is None
                and any(_within(laws, seed_count, d, epsilon) for d in pool))
        ):
            continue  # f's optimum <= a feasible D's error <= epsilon
        report = entry.solve()
        if report.simulator in pool:
            pool.remove(report.simulator)
        pool.insert(0, report.simulator)
        del pool[_POOL_SIZE:]
        if epsilon is None or report.epsilon > epsilon:
            epsilon = report.epsilon
            worst, worst_report = f, report
        if stop_at_or_above is not None and epsilon >= stop_at_or_above:
            return None
    return FamilyCertificate(
        epsilon=epsilon, worst=worst, worst_report=worst_report, members=members
    )


def _profile_bound(laws: Sequence[Sequence[int]], total: int) -> Fraction:
    """The least max_m SD(T_m, Copy(D, m)) over the trivial simulators D:
    same*, and every message's own law.  Every D is feasible, so the
    bound is at least the member's optimum.

    Each D's largest _gaps sum is over 2 * total * L: L = 1 for same*
    and L = total for a law, so the least is taken in integers over
    2 * total^2 and made a Fraction once.
    """
    star = max(_gaps(laws, total, ((0,) * len(laws[0]) + (1,), 1)))
    own = min(max(_gaps(laws, total, ((*law, 0), total))) for law in laws)
    return Fraction(min(star * total, own), 2 * total * total)


def certify_bit_family(
    code: StochasticCode, budget: Optional[int] = None
) -> FamilyCertificate:
    """Certificate over the full 4^n bitwise independent family."""
    _check_budget((4 ** code.n) * code.seed_count, budget, "bit-family certification")
    return certify_family(code, enumerate_bit_functions(code.n, 4), budget=budget)


def _mixture(
    weights: tuple[int, Iterable[tuple[tuple[int, int, int], int]]],
    certificate: FamilyCertificate,
    member_of: Optional[Mapping] = None,
) -> tuple[tuple[list[int], int], Fraction, Fraction]:
    """D_s and the error bounds of a sequence's integer pattern weights:
    (D_s, weighted_bound, pattern_max).

    weights is (D, [(pattern, numerator), ...]), as mixture_weights
    returns it, each pattern the (keep, xor, erase) masks of a BIT
    function.  A pattern's member is member_of[pattern], by default the
    certificate's BIT function with those masks; a pattern with no member
    is an error, as the mixture would not sum to 1.  Each member's
    simulator and error come from certificate.report, which solves the
    LP of a member certification skipped.  The numerators are
    first summed per member, and must total exactly D.  The members'
    simulator rows are then mixed as one row over D * L, L the lcm of
    their totals, and their errors as one sum over D * E, E the lcm of
    the errors' denominators, which becomes a Fraction once, at the end;
    pattern_max is the largest error numerator over E.
    """
    denominator, patterns = weights
    if member_of is None:
        member_of = {
            f.pattern: f for f in certificate.members if isinstance(f, BITFunction)
        }
    grouped: dict = {}
    for pattern, weight in patterns:
        if weight < 0:
            raise InvalidMixtureError(f"negative mixture weight {weight}/{denominator}")
        f = member_of.get(pattern)
        total = grouped.get(f)
        if total is None:
            if f not in certificate.members:
                # Masks leave trailing Set0s out: name the pattern at the
                # length of the certificate's BIT functions, if one.
                n = {g.n for g in certificate.members if isinstance(g, BITFunction)}
                if len(n) == 1:
                    pattern = BITFunction.from_pattern(*n, pattern).to_string()
                raise InvalidInstanceError(
                    f"no simulator for positive-weight pattern {pattern}"
                )
            total = 0
        grouped[f] = total + weight
    if sum(grouped.values()) != denominator:
        raise InvalidMixtureError(
            f"mixture weights sum to {sum(grouped.values())}/{denominator}, "
            f"expected exactly 1"
        )

    reports = [(w, certificate.report(f)) for f, w in grouped.items()]
    scale = math.lcm(*(report.simulator[1] for _, report in reports))
    mixed = [0] * len(reports[0][1].simulator[0])
    for w, report in reports:
        row, total = report.simulator
        factor = w * (scale // total)
        mixed = [a + factor * c for a, c in zip(mixed, row)]
    d_s = (mixed, denominator * scale)

    errors = [report.epsilon for _, report in reports]
    error_lcm = math.lcm(*(eps.denominator for eps in errors))
    scaled = [eps.numerator * (error_lcm // eps.denominator) for eps in errors]
    weighted = sum(w * e for (w, _), e in zip(reports, scaled))
    return (d_s, Fraction(weighted, denominator * error_lcm),
            Fraction(max(scaled), error_lcm))


class MixtureReport:
    """D_s against a sequence's law table: ds_sd <= weighted_bound <=
    pattern_max, first reached at the message index worst_message."""

    __slots__ = ("laws", "ds_sd", "weighted_bound", "pattern_max", "worst_message")

    def __init__(
        self,
        laws: Laws,
        ds_sd: Fraction,
        weighted_bound: Fraction,
        pattern_max: Fraction,
        worst_message: int,
    ) -> None:
        self.laws = laws
        self.ds_sd = ds_sd
        self.weighted_bound = weighted_bound
        self.pattern_max = pattern_max
        self.worst_message = worst_message


def verify_mixture(
    code: StochasticCode,
    seq: StateSequence,
    weights: tuple[int, Iterable[tuple[tuple, int]]],
    certificate: FamilyCertificate,
    member_of: Optional[Mapping] = None,
    budget: Optional[int] = None,
) -> MixtureReport:
    """D_s, the certified simulators mixed by seq's integer pattern
    weights (D, [(pattern, numerator), ...]), against seq's direct
    channel laws; member_of maps a pattern to the certified member
    simulating it (default: its own BIT function).

    The mixture side (_mixture) reads only the weights and the
    certificate, and the laws only the channels, so the two routes stay
    independent.
    """
    laws = channel_map(code, seq, budget=budget)
    d_s, weighted_bound, pattern_max = _mixture(weights, certificate, member_of)
    ds_sd, worst, _ = _worst_case(*laws, d_s)
    if not ds_sd <= weighted_bound <= pattern_max:
        raise VerificationError(
            f"mixture bound violated: ds_sd={ds_sd}, "
            f"weighted={weighted_bound}, max={pattern_max}"
        )
    return MixtureReport(laws, ds_sd, weighted_bound, pattern_max, worst)


class TransferReport:
    """Exact transfer check from the bit family to one state sequence.

    Invariant chain, checked exactly on every run:
    eps_channel <= ds_sd <= weighted_bound <= eps_bit.  worst_message is
    a message index of the code's k.
    """

    __slots__ = ("eps_bit", "eps_channel", "ds_sd", "weighted_bound",
                 "worst_message", "sequence_label", "k")

    def __init__(
        self,
        eps_bit: Fraction,
        eps_channel: Fraction,
        ds_sd: Fraction,
        weighted_bound: Fraction,
        worst_message: int,
        sequence_label: str,
        k: int,
    ) -> None:
        self.eps_bit = eps_bit
        self.eps_channel = eps_channel
        self.ds_sd = ds_sd
        self.weighted_bound = weighted_bound
        self.worst_message = worst_message
        self.sequence_label = sequence_label
        self.k = k

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
    seq: StateSequence,
    certificate: FamilyCertificate,
    budget: Optional[int] = None,
) -> TransferReport:
    """Check the bit-family-to-AVC transfer on one binary state sequence
    against the code's bit-family certificate: the mixture check,
    eps_channel <= ds_sd and pattern_max <= eps_bit."""
    mixture = verify_mixture(
        code, seq, seq.mixture_weights(), certificate, budget=budget
    )
    eps_channel = optimal_simulator(*mixture.laws).epsilon
    if not (eps_channel <= mixture.ds_sd
            and mixture.pattern_max <= certificate.epsilon):
        raise VerificationError(
            f"transfer inequality violated: eps_channel={eps_channel}, "
            f"ds_sd={mixture.ds_sd}, weighted={mixture.weighted_bound}, "
            f"eps_bit={certificate.epsilon}"
        )
    label = ",".join(seq.labels) if seq.labels else f"n={seq.n}"
    return TransferReport(
        eps_bit=certificate.epsilon,
        eps_channel=eps_channel,
        ds_sd=mixture.ds_sd,
        weighted_bound=mixture.weighted_bound,
        worst_message=mixture.worst_message,
        sequence_label=label,
        k=code.k,
    )


class SearchResult:
    """Best code found by seeded random search, with its certificate."""

    __slots__ = ("code", "certificate", "trials", "seed", "best_trial", "family_size")

    def __init__(
        self,
        code: StochasticCode,
        certificate: FamilyCertificate,
        trials: int,
        seed: int,
        best_trial: int,
        family_size: int,
    ) -> None:
        self.code = code
        self.certificate = certificate
        self.trials = trials
        self.seed = seed
        self.best_trial = best_trial
        self.family_size = family_size

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
    if k + rho > n:
        raise InvalidInstanceError(
            f"injective encoding needs k + rho <= n, got {k}+{rho} > {n}"
        )
    if k < 0 or rho < 0 or n < 1:
        raise InvalidInstanceError(
            f"search needs k >= 0, rho >= 0 and n >= 1, got k={k}, n={n}, rho={rho}"
        )
    if trials < 1:
        raise InvalidInstanceError("trials must be >= 1")
    if family == "bit":
        functions: list[TamperingFunction] = list(
            enumerate_bit_functions(n, 4, budget=budget)
        )
    else:
        functions = list(family)
    rng = random.Random(seed)
    cache: dict = {}
    best: Optional[SearchResult] = None
    checked: Optional[list] = None
    for trial in range(trials):
        code = _random_injective_code(k, n, rho, rng)
        if checked is None:
            # Every trial's code has the same n and rho, which is all
            # member validation reads, so the family is checked once.
            checked = _check_family(code, functions, budget)
        stop = best.certificate.epsilon if best is not None else None
        cert = _certify_checked(code, checked, budget, cache, stop)
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
