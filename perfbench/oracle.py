"""Reference values computed without the code under test.

Every function here works from the code tables and generator rows the
benchmark wrote (or read back from a report), with its own enumeration,
its own GF(2) rank and scipy's HiGHS solver for the simulator LP.  Nothing is imported from
`nmavc`, so a defect in the program cannot hide in its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
from scipy.optimize import linprog

BOT = "bot"
#: Lexicographic action order of the program's function enumeration,
#: needed to name the first worst function the same way it does.
ACTIONS = "KF01"
LP_TOLERANCE = 1e-9


def bits(value: int, n: int) -> str:
    """Bit i of value becomes character i."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(n))


def messages(k: int) -> list[str]:
    return ["".join(p) for p in product("01", repeat=k)]


def apply_bit_function(f: str, word: str) -> str:
    out = []
    for action, ch in zip(f, word):
        if action == "K":
            out.append(ch)
        elif action == "F":
            out.append("1" if ch == "0" else "0")
        else:
            out.append(action)
    return "".join(out)


def apply_affine_key(key: str, word: str) -> str:
    """Apply a map named 'M=r0|r1|...;d=delta' (row i, column j) to word."""
    m_part, d_part = key.split(";")
    rows = m_part[2:].split("|")
    out = [int(ch) for ch in d_part[2:]]
    for i, ch in enumerate(word):
        if ch == "1":
            for j, entry in enumerate(rows[i]):
                out[j] ^= int(entry)
    return "".join(str(v) for v in out)


def profile(code: dict, f) -> tuple:
    """Tamper law of dec(f(enc(m, r))) per message, as exact Fractions."""
    share = Fraction(1, 1 << code["rho"])
    laws = []
    for m in messages(code["k"]):
        law: dict = {}
        for word in code["enc"][m]:
            outcome = code["dec"].get(f(word), BOT)
            law[outcome] = law.get(outcome, 0) + share
        laws.append(tuple(sorted(law.items())))
    return tuple(laws)


def simulator_eps(k: int, laws) -> float:
    """min over simulators D of max_m SD(T_m, Copy(D, m)), solved by HiGHS.

    Variables: D over messages + {bot, same*}, one slack per (m, y)
    bounding the positive part of T_m(y) - Copy(D, m)(y), and eps.
    """
    msgs = messages(k)
    ys = msgs + [BOT]
    nd, ny = len(ys) + 1, len(ys)
    same = nd - 1
    n_vars = nd + len(msgs) * ny + 1
    a_ub, b_ub = [], []
    for mi, (m, law) in enumerate(zip(msgs, laws)):
        t = dict(law)
        for yi, y in enumerate(ys):
            row = np.zeros(n_vars)
            row[yi] = -1.0
            if y == m:
                row[same] = -1.0
            row[nd + mi * ny + yi] = -1.0
            a_ub.append(row)
            b_ub.append(-float(t.get(y, 0)))
        row = np.zeros(n_vars)
        row[nd + mi * ny: nd + (mi + 1) * ny] = 1.0
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :nd] = 1.0
    cost = np.zeros(n_vars)
    cost[-1] = 1.0
    result = linprog(
        cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(result.fun)


def bit_family_reference(code: dict) -> tuple[float, str]:
    """(max eps, first function attaining it) over the 4^n bit functions."""
    by_profile: dict = {}  # many functions share one tamper profile
    per_function = {}
    for letters in product(ACTIONS, repeat=code["n"]):
        f = "".join(letters)
        laws = profile(code, lambda w, f=f: apply_bit_function(f, w))
        if laws not in by_profile:
            by_profile[laws] = simulator_eps(code["k"], laws)
        per_function[f] = by_profile[laws]
    top = max(per_function.values())
    worst = next(f for f, v in per_function.items() if v >= top - LP_TOLERANCE)
    return top, worst


def induced_map_eps(code: dict, key: str) -> float:
    """Reference eps of one induced map ('bot-map' or 'M=...;d=...')."""
    if key == "bot-map":
        law = ((BOT, Fraction(1)),)
        return simulator_eps(code["k"], (law,) * (1 << code["k"]))
    return simulator_eps(code["k"], profile(code, lambda w: apply_affine_key(key, w)))


def check_code_tables(code: dict, k: int, n: int, rho: int) -> list[str]:
    """The tables describe an injective code whose decoder inverts it."""
    problems = []
    if (code.get("k"), code.get("n"), code.get("rho")) != (k, n, rho):
        problems.append(f"code shape {code.get('k')},{code.get('n')},"
                        f"{code.get('rho')} != {k},{n},{rho}")
        return problems
    inverse = {}
    for m in messages(k):
        words = code["enc"].get(m, [])
        if len(words) != 1 << rho:
            problems.append(f"message {m} has {len(words)} codewords")
        for word in words:
            if len(word) != n or set(word) - {"0", "1"} or word in inverse:
                problems.append(f"codeword {word!r} is malformed or repeated")
            inverse[word] = m
    if code["dec"] != inverse:
        problems.append("decoder table is not the inverse of the encoder")
    return problems


def gf2_rank(vectors: list[int]) -> int:
    """Rank of bit-packed vectors: one pivot vector per leading bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def erasure_failure_probability(rows: list[str], p_star: Fraction) -> Fraction:
    """Sum of p^|E| (1-p)^(n-|E|) over erasure sets E leaving rank < m."""
    m, n = len(rows), len(rows[0])
    columns = [sum(1 << i for i in range(m) if rows[i][j] == "1") for j in range(n)]
    failure = Fraction(0)
    for mask in range(1 << n):
        kept = [columns[j] for j in range(n) if not (mask >> j) & 1]
        if gf2_rank(kept) < m:
            erased = n - len(kept)
            failure += p_star**erased * (1 - p_star) ** (n - erased)
    return failure
