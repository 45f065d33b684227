"""The benchmark's workloads: seeded inputs, CLI steps and verdict checks.

A workload writes its input files into a work directory and names the
CLI invocations of one job.  After timing, `check` compares the exact
verdict fields of each job's reports with references from `oracle`,
which never calls the code under test.  Whole reports are not compared,
so a later report block (such as run statistics) does not fail the gate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracle

#: The seed whose inputs are the fixed ones the project's plan names.
DEFAULT_SEED = 404
BUDGET = "1000000"
PARITY_4_5 = ["10001", "01001", "00101", "00011"]
PARITY_2_3 = ["101", "011"]


@dataclass
class Step:
    """One CLI invocation (arguments after `nmavc`) and its report file."""

    args: list[str]
    report: str


@dataclass
class Context:
    """What a workload needs to build inputs and references for one run."""

    root: Path
    work: Path
    seed: int
    smoke: bool
    corrupt: bool
    memo: dict = field(default_factory=dict)

    @property
    def pinned(self) -> bool:
        """Pinned values hold for the full-size inputs of the default seed."""
        return self.seed == DEFAULT_SEED and not self.smoke

    def shift(self, value):
        """A reference, wrong on purpose when the gate itself is under test."""
        if not self.corrupt:
            return value
        return value + (Fraction(1, 1000) if isinstance(value, Fraction) else 1e-3)

    def write(self, name: str, obj) -> None:
        (self.work / name).write_text(json.dumps(obj, indent=1), encoding="utf-8")


def random_code(k: int, n: int, rho: int, rng: random.Random) -> dict:
    """A uniformly drawn injective code in the CLI's table format."""
    words = iter(rng.sample(range(1 << n), 1 << (k + rho)))
    enc = {m: [oracle.bits(next(words), n) for _ in range(1 << rho)]
           for m in oracle.messages(k)}
    dec = {w: m for m, row in enc.items() for w in row}
    return {"k": k, "n": n, "rho": rho, "enc": enc, "dec": dec}


def relabel_code(code: dict, rng: random.Random) -> dict:
    """Permute codeword positions and flip a random mask of them.

    Both are symmetries of the bit family (and of the parity code's
    induced family), so the relabeled code has a different table but
    the same set of tamper profiles, the same LPs and the same epsilon.
    """
    n = code["n"]
    perm = rng.sample(range(n), n)
    mask = rng.getrandbits(n)

    def move(word: str) -> str:
        out = [""] * n
        for i, ch in enumerate(word):
            out[perm[i]] = str(int(ch) ^ ((mask >> i) & 1))
        return "".join(out)

    enc = {m: [move(w) for w in row] for m, row in code["enc"].items()}
    dec = {w: m for m, row in enc.items() for w in row}
    return {**code, "enc": enc, "dec": dec}


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(reported: str, reference: float) -> bool:
    return abs(float(Fraction(reported)) - reference) <= oracle.LP_TOLERANCE


class Workload:
    name = ""
    why = ""

    def steps(self, ctx: Context) -> list[Step]:
        """Write the inputs; return the CLI invocations of one job."""
        raise NotImplementedError

    def verdict(self, reports: list[dict]) -> dict:
        """The exact fields a job must reproduce."""
        raise NotImplementedError

    def check(self, reports: list[dict], ctx: Context) -> list[str]:
        """Problems with one job's verdict against the references."""
        raise NotImplementedError


def _check_bit_certificate(code: dict, cert: dict, ctx: Context) -> list[str]:
    """eps, worst function and family size of a 4^n bit-family certificate."""
    key = json.dumps(code, sort_keys=True)
    if key not in ctx.memo:
        ctx.memo[key] = oracle.bit_family_reference(code)
    top, worst = ctx.memo[key]
    problems: list[str] = []
    _expect(problems, _close(cert["epsilon"], ctx.shift(top)),
            f"epsilon {cert['epsilon']} != reference {ctx.shift(top):.12g}")
    _expect(problems, cert["worst_function"] == worst,
            f"worst function {cert['worst_function']} != reference {worst}")
    _expect(problems, cert["family_size"] == 4 ** code["n"],
            f"family size {cert['family_size']} != 4^{code['n']}")
    return problems


class SearchK1N4(Workload):
    name = "search-k1n4"
    why = ("Tamper profiles dominate: 51,200 profiles over 200 trials need "
           "~130 LP solves, so the LP cache does most of the LP work.")

    def shape(self, ctx):
        return (1, 3, 1, 5) if ctx.smoke else (1, 4, 2, 200)

    def steps(self, ctx):
        k, n, rho, trials = self.shape(ctx)
        args = ["search", "--k", str(k), "--n", str(n), "--rho", str(rho),
                "--trials", str(trials), "--seed", str(ctx.seed),
                "--budget", BUDGET, "--out", "search.json"]
        return [Step(args, "search.json")]

    def verdict(self, reports):
        (report,) = reports
        meta = report["meta"]
        return {"epsilon": meta["epsilon"], "worst": meta["worst_function"],
                "family_size": meta["family_size"],
                "enc": report["enc"], "dec": report["dec"]}

    def check(self, reports, ctx):
        (report,) = reports
        k, n, rho, _ = self.shape(ctx)
        problems = oracle.check_code_tables(report, k, n, rho)
        if problems:
            return problems
        code = {key: report[key] for key in ("k", "n", "rho", "enc", "dec")}
        problems = _check_bit_certificate(code, report["meta"], ctx)
        if ctx.pinned:
            _expect(problems, Fraction(report["meta"]["epsilon"])
                    == ctx.shift(Fraction(1, 4)),
                    f"epsilon {report['meta']['epsilon']} != pinned 1/4")
        return problems


class CertifyK2N5(Workload):
    name = "certify-k2n5"
    why = ("The exact simplex dominates (~98 % in solve_min, ~210 LPs on "
           "dyadic data); tamper profiles are ~2 %.")

    def code(self, ctx):
        if ctx.smoke:
            return random_code(1, 3, 1, random.Random(ctx.seed))
        base = random_code(2, 5, 1, random.Random(DEFAULT_SEED))
        if ctx.seed == DEFAULT_SEED:
            return base
        return relabel_code(base, random.Random(ctx.seed))

    def steps(self, ctx):
        ctx.memo["code"] = self.code(ctx)
        ctx.write("code.json", ctx.memo["code"])
        return [Step(["nm-verify", "code.json", "--family", "bit",
                      "--budget", BUDGET, "--out", "certify.json"],
                     "certify.json")]

    def verdict(self, reports):
        (report,) = reports
        cert = report["certificate"]
        return {key: cert[key] for key in ("epsilon", "worst_function", "family_size")}

    def check(self, reports, ctx):
        (report,) = reports
        return _check_bit_certificate(ctx.memo["code"], report["certificate"], ctx)


class ComposedDemo(Workload):
    name = "composed-demo"
    why = ("Channel output laws, the erasure decoder, induced-map fitting and "
           "both recovery routes; none runs in the other workloads.")

    def inputs(self, ctx):
        """(inner code, outer rows, spec without its inner-code reference)."""
        if ctx.smoke:
            rng = random.Random(ctx.seed)
            inner, outer = random_code(1, 2, 1, rng), PARITY_2_3
        else:
            data = ctx.root / "src" / "nmavc" / "data"
            inner = json.loads((data / "demo_inner_code.json").read_text())
            spec = json.loads((data / "demo_composed_spec.json").read_text())
            if ctx.seed == DEFAULT_SEED:
                return inner, spec["outer"]["rows"], spec
            rng = random.Random(ctx.seed)
            inner, outer = relabel_code(inner, rng), PARITY_4_5
        p_star = Fraction(rng.randint(1, 3), 10)
        flip = Fraction(rng.randint(1, 4), 10)
        drop = Fraction(rng.randint(1, 9), 10)

        def rows(a, b, e=Fraction(0)):
            return [[str(a), str(1 - a - e), str(e)], [str(b), str(1 - b - e), str(e)]]

        spec = {
            "budget": int(BUDGET),
            "outer": {"rows": outer},
            "p_star": str(p_star),
            "sequences": "exhaustive",
            "special_state": "bec",
            "states": {
                "bec": {"rows": rows(1 - p_star, Fraction(0), p_star)},
                "bsc": {"rows": rows(1 - flip, flip)},
                "z": {"rows": rows(Fraction(1), drop)},
            },
        }
        return inner, outer, spec

    def steps(self, ctx):
        inner, outer, spec = self.inputs(ctx)
        ctx.memo.update(inner=inner, outer=outer, spec=spec)
        ctx.write("inner.json", inner)
        ctx.write("outer.json", {"rows": outer})
        ctx.write("spec.json", {**spec, "inner_code": "inner.json"})
        return [
            Step(["certify-inner", "inner.json", "outer.json",
                  "--budget", BUDGET, "--out", "inner_cert.json"], "inner_cert.json"),
            Step(["composed-verify", "--spec", "spec.json",
                  "--out", "composed.json"], "composed.json"),
        ]

    def verdict(self, reports):
        inner_cert, composed = reports
        cert = inner_cert["certificate"]
        return {
            "inner": {key: cert[key] for key in ("epsilon", "worst_function", "family_size")},
            "composed": {key: composed[key] for key in (
                "delta", "recovery_probability", "eps_max", "sequences_checked")},
            "sequences": {label: [seq[key] for key in ("epsilon", "weighted_bound", "pattern_max")]
                          for label, seq in composed["sequences"].items()},
        }

    def check(self, reports, ctx):
        inner_cert, composed = reports
        cert = inner_cert["certificate"]
        inner, outer, spec = ctx.memo["inner"], ctx.memo["outer"], ctx.memo["spec"]
        problems: list[str] = []
        if "worst" not in ctx.memo:
            ctx.memo["worst"] = oracle.induced_map_eps(inner, cert["worst_function"])
        _expect(problems, _close(cert["epsilon"], ctx.shift(ctx.memo["worst"])),
                f"inner epsilon {cert['epsilon']} != reference for its worst "
                f"function {ctx.shift(ctx.memo['worst']):.12g}")
        if not ctx.smoke:
            # Relabeling permutes the induced family onto itself.
            _expect(problems, cert["family_size"] == 1153,
                    f"induced family size {cert['family_size']} != pinned 1153")
            _expect(problems, Fraction(cert["epsilon"]) == ctx.shift(Fraction(3, 8)),
                    f"inner epsilon {cert['epsilon']} != pinned 3/8")

        delta = ctx.shift(oracle.erasure_failure_probability(
            outer, Fraction(spec["p_star"])))
        _expect(problems, Fraction(composed["delta"]) == delta,
                f"delta {composed['delta']} != reference {delta}")
        _expect(problems, Fraction(composed["recovery_probability"])
                == 1 - Fraction(composed["delta"]), "recovery != 1 - delta")
        n = len(outer[0])
        labels = {",".join(row) for row in product(sorted(spec["states"]), repeat=n)}
        labels.discard(",".join([spec["special_state"]] * n))
        _expect(problems, set(composed["sequences"]) == labels
                and composed["sequences_checked"] == len(labels),
                f"{composed['sequences_checked']} sequences != the "
                f"{len(labels)} non-special ones")
        eps = []
        for label, seq in composed["sequences"].items():
            e, wb, pm = (Fraction(seq[key]) for key in
                         ("epsilon", "weighted_bound", "pattern_max"))
            eps.append(e)
            _expect(problems, e <= wb <= pm,
                    f"{label}: eps {e} <= weighted {wb} <= max {pm} fails")
        _expect(problems, bool(eps) and Fraction(composed["eps_max"]) == max(eps),
                "eps_max is not the largest sequence epsilon")
        if ctx.pinned:
            _expect(problems, Fraction(composed["delta"]) == ctx.shift(Fraction(4073, 50000)),
                    f"delta {composed['delta']} != pinned 4073/50000")
            _expect(problems, Fraction(composed["eps_max"]) == ctx.shift(Fraction(3903, 40000)),
                    f"eps_max {composed['eps_max']} != pinned 3903/40000")
        return problems


WORKLOADS = {w.name: w for w in (SearchK1N4(), CertifyK2N5(), ComposedDemo())}
