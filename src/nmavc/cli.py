"""Command-line front end: exact reports as JSON/CSV plus text summaries.

Exit codes form a stable contract: 0 pass, 1 verification failed,
2 invalid input, 3 enumeration budget exceeded.  Reports carry exact
rational strings next to float renderings; the exact form is
authoritative.  Identical inputs and seeds give byte-identical JSON
apart from the generated_at timestamp.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .channels import (
    Channel,
    StateSequence,
    channel_from_json,
    decompose,
    feasible_interval,
)
from .composed import (
    ComposedScheme,
    certify_induced_family,
    induced_family,
    special_channel,
    verify_composed,
)
from .distributions import format_rational, parse_rational
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    NmavcError,
    VerificationError,
)
from .gf2 import MAX_EXACT_LENGTH, GF2Matrix, delta_exact, delta_monte_carlo
from .verifier import (
    StochasticCode,
    certify_bit_family,
    search_nm_code,
    verify_transfer,
)

EXIT_PASS = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"{path} is not valid JSON: {exc}") from None


def _provenance(**fields) -> dict:
    base = {
        "tool": "nmavc",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    base.update({k: v for k, v in fields.items() if v is not None})
    return base


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(report):
            writer.writerow([key, value])
        return buffer.getvalue()
    lines = [f"{key} = {value}" for key, value in _flatten(report)]
    return "\n".join(lines) + "\n"


def _emit(report: dict, out: Optional[str], fmt: str, summary: str) -> None:
    rendered = _render(report, fmt)
    if out:
        try:
            Path(out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise InvalidInstanceError(f"cannot write {out}: {exc}") from None
        click.echo(summary)
        click.echo(f"report written to {out}")
    else:
        click.echo(summary)
        click.echo(rendered, nl=False)


def _verdict(report: dict, epsilon: Fraction, limit: Optional[Fraction]) -> bool:
    """Record the --threshold in the report, and whether epsilon meets it."""
    report["threshold"] = format_rational(limit) if limit is not None else None
    report["passed"] = limit is None or epsilon <= limit
    return report["passed"]


@click.group()
@click.version_option(version=__version__, prog_name="nmavc")
def main():
    """Exact verification lab for non-malleable coding over binary AVCs."""


def _command(name: str):
    """Register the decorated body as subcommand `name` of main, with
    --out and --format after its own parameters.

    The body returns (report, summary, passed).  The runner is the one
    place where errors become exit codes: a budget overrun exits 3, a
    failed exact invariant 1, and any other package error (invalid
    input, an unwritable --out included) 2.  Otherwise the report is
    emitted, and the command exits 0, or 1 when it did not pass.
    """

    def register(body):
        @functools.wraps(body)
        def run(out, fmt, **params):
            try:
                report, summary, passed = body(**params)
                _emit(report, out, fmt, summary)
            except BudgetExceededError as exc:
                _fail(EXIT_BUDGET, str(exc))
            except VerificationError as exc:
                _fail(EXIT_VERIFICATION_FAILED, f"exact invariant violated: {exc}")
            except NmavcError as exc:
                _fail(EXIT_INVALID_INPUT, str(exc))
            sys.exit(EXIT_PASS if passed else EXIT_VERIFICATION_FAILED)

        command = main.command(name)(run)
        command.params += [
            click.Option(["--out"], type=click.Path(dir_okay=False), default=None,
                         help="Write the report to a file instead of stdout."),
            click.Option(["--format", "fmt"], type=click.Choice(["json", "csv", "text"]),
                         default="json", show_default=True, help="Report rendering."),
        ]
        return command

    return register


@_command("decompose")
@click.argument("channel_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha3", default=None, help="Set0 coefficient (rational string).")
def cmd_decompose(channel_file: str, alpha3: Optional[str]):
    """Decompose a channel into elementary channels and check reconstruction."""
    channel = channel_from_json(_load_json(channel_file))
    chosen = parse_rational(alpha3) if alpha3 is not None else None
    dec = decompose(channel, chosen)
    interval = None if channel.extended else [
        format_rational(v) for v in feasible_interval(channel)
    ]
    exact = dec.reconstruct(extended=channel.extended) == channel
    if not exact:
        raise VerificationError("reconstruction does not match the channel")
    names = ["keep", "flip", "set0", "set1", "erase"]
    report = {
        "alphas": {
            name: format_rational(a) for name, a in zip(names, dec.alphas)
        },
        "alphas_float": {
            name: float(a) for name, a in zip(names, dec.alphas)
        },
        "feasible_alpha3_interval": interval,
        "reconstruction_exact": exact,
        "provenance": _provenance(input=channel_file),
    }
    alphas_text = ", ".join(
        f"{name}={format_rational(a)}" for name, a in zip(names, dec.alphas) if a
    )
    return report, f"decomposition: {alphas_text}", True


@_command("delta")
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("p_star")
@click.option("--budget", type=click.IntRange(min=0), default=MAX_EXACT_LENGTH,
              show_default=True, help="Max block length for exact 2^n enumeration.")
@click.option("--monte-carlo", "trials", type=int, default=None,
              help="Also estimate by Monte Carlo with this many trials.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the Monte-Carlo estimate.")
def cmd_delta(generator_file, p_star, budget, trials, seed):
    """Exact erasure-decoding failure probability of a generator matrix."""
    g = GF2Matrix.from_json(_load_json(generator_file))
    p = parse_rational(p_star)
    value = delta_exact(g, p, budget=budget)
    report = {
        "m": g.nrows,
        "n": g.ncols,
        "p_star": format_rational(p),
        "delta": format_rational(value),
        "delta_float": float(value),
        "recovery_probability": format_rational(1 - value),
        "provenance": _provenance(input=generator_file, budget=budget),
    }
    if trials is not None:
        estimate, ci95 = delta_monte_carlo(g, p, trials, seed)
        report["monte_carlo"] = {
            "trials": trials,
            "seed": seed,
            "estimate": estimate,
            "ci95": ci95,
        }
    return report, f"delta = {format_rational(value)}", True


# A negative p_star (-1/2) is an argument for the range check, not an option.
cmd_delta.context_settings["ignore_unknown_options"] = True


def _load_code(path: str) -> StochasticCode:
    return StochasticCode.from_json(_load_json(path))


def _channel_from_entry(entry, dictionary: dict):
    if isinstance(entry, str):
        if entry not in dictionary:
            raise InvalidInstanceError(f"unknown channel name {entry!r}")
        return dictionary[entry]
    return channel_from_json(entry)


def _load_sequences(path: str) -> list[StateSequence]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "sequences" not in obj:
        raise InvalidInstanceError(
            f'{path} must be {{"channels": {{...}}, "sequences": [...]}}'
        )
    named = obj.get("channels", {})
    if not isinstance(named, dict):
        raise InvalidInstanceError(f'"channels" in {path} must be an object')
    if not isinstance(obj["sequences"], list):
        raise InvalidInstanceError(f'"sequences" in {path} must be a list')
    dictionary = {name: channel_from_json(ch) for name, ch in named.items()}
    sequences = []
    for row in obj["sequences"]:
        if not isinstance(row, list):
            raise InvalidInstanceError(f"sequence {row!r} must be a list of channels")
        channels = [_channel_from_entry(entry, dictionary) for entry in row]
        labels = [
            entry if isinstance(entry, str) else f"inline{i}"
            for i, entry in enumerate(row)
        ]
        sequences.append(StateSequence(channels, labels))
    return sequences


@_command("nm-verify")
@click.argument("code_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", type=click.Choice(["bit"]), default=None,
              help="Certify against the full bitwise independent family.")
@click.option("--sequences", "sequences_file",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Verify against the state sequences in this file.")
@click.option("--budget", type=click.IntRange(min=0), required=True,
              help="Cap on enumerated experiments (mandatory: enumeration "
                   "is exponential in n).")
@click.option("--threshold", default=None,
              help="Exit 1 unless the reported epsilon is <= this rational.")
def cmd_nm_verify(code_file, family, sequences_file, budget, threshold):
    """Certify a code's non-malleability error exactly."""
    if (family is None) == (sequences_file is None):
        raise InvalidInstanceError("choose exactly one of --family / --sequences")
    code = _load_code(code_file)
    limit = parse_rational(threshold) if threshold is not None else None
    if family == "bit":
        cert = certify_bit_family(code, budget=budget)
        epsilon = cert.epsilon
        report = {
            "mode": "bit-family",
            "certificate": cert.to_json(),
            "provenance": _provenance(input=code_file, budget=budget),
        }
        summary = (
            f"eps over 4^{code.n} bit functions = {format_rational(epsilon)} "
            f"(worst: {report['certificate']['worst_function']})"
        )
    else:
        sequences = _load_sequences(sequences_file)
        if not sequences:
            raise InvalidInstanceError("no sequences to verify")
        cert = certify_bit_family(code, budget=budget)
        per_sequence = {}
        epsilon = Fraction(0)
        for index, seq in enumerate(sequences):
            result = verify_transfer(code, seq, cert, budget=budget)
            # Repeated rows and inline channels (labelled by position)
            # share labels; every sequence keeps an entry.
            label = result.sequence_label
            if label in per_sequence:
                label = f"{label}#{index}"
            per_sequence[label] = result.to_json()
            epsilon = max(epsilon, result.eps_channel)
        report = {
            "mode": "sequences",
            "eps_bit": format_rational(cert.epsilon),
            "eps_max_over_sequences": format_rational(epsilon),
            "sequences": per_sequence,
            "provenance": _provenance(
                input=code_file, sequences=sequences_file, budget=budget
            ),
        }
        summary = (
            f"max per-sequence eps = {format_rational(epsilon)} over "
            f"{len(sequences)} sequences (bit-family bound "
            f"{format_rational(cert.epsilon)})"
        )
    return report, summary, _verdict(report, epsilon, limit)


@_command("search")
@click.option("--k", type=int, required=True, help="Message bits.")
@click.option("--n", type=int, required=True, help="Block bits.")
@click.option("--rho", type=int, required=True, help="Encoder seed bits.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True,
              help="Search seed (explicit for reproducibility).")
@click.option("--induced-by", "generator_file",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Certify against the maps induced by this outer generator "
                   "instead of the raw bit family.")
@click.option("--budget", type=click.IntRange(min=0), default=1_000_000, show_default=True)
def cmd_search(k, n, rho, trials, seed, generator_file, budget):
    """Search seeded random injective codes, keeping the lowest-epsilon one."""
    if generator_file is not None:
        outer = GF2Matrix.from_json(_load_json(generator_file))
        if outer.nrows != n:
            raise InvalidInstanceError(
                f"outer generator has m={outer.nrows}, but the inner "
                f"code produces n={n} bits"
            )
        family = induced_family(outer, budget=budget)
    else:
        family = "bit"
    result = search_nm_code(
        k, n, rho, family=family, trials=trials, seed=seed, budget=budget
    )
    report = result.to_json()
    report["provenance"] = _provenance(budget=budget)
    summary = (
        f"best eps = {format_rational(result.certificate.epsilon)} "
        f"(trial {result.best_trial} of {trials}, family size "
        f"{result.family_size})"
    )
    return report, summary, True


def _extended_channel(obj) -> Channel:
    channel = channel_from_json(obj)
    return channel if channel.extended else channel.to_extended()


def _composed_sequences(spec_obj, names, special_name, n, budget) -> tuple[list, bool]:
    """(rows, exhaustive); a random count above a non-null budget stops
    before the first row is drawn."""
    listing = spec_obj["sequences"]
    if listing == "exhaustive":
        rows = [
            row for row in product(names, repeat=n)
            if set(row) != {special_name}
        ]
        return rows, True
    if isinstance(listing, dict):
        count = listing.get("random")
        seed = listing.get("seed")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (count, seed)):
            raise InvalidInstanceError(
                'random sequences need {"random": count, "seed": seed}'
            )
        if budget is not None and count > budget:
            raise BudgetExceededError(
                f"spec draws {count} random sequences, budget {budget}"
            )
        rng = random.Random(seed)
        rows = []
        while len(rows) < count:
            row = tuple(rng.choice(names) for _ in range(n))
            if set(row) == {special_name}:
                continue
            rows.append(row)
        return rows, False
    if isinstance(listing, list):
        rows = []
        for row in listing:
            if not isinstance(row, list):
                raise InvalidInstanceError(
                    f"sequence {row!r} must be a list of state names"
                )
            if len(row) != n:
                raise InvalidInstanceError(
                    f"sequence {row} has length {len(row)}, expected {n}"
                )
            unknown = [name for name in row if name not in names]
            if unknown:
                raise InvalidInstanceError(
                    f"sequence {row} names unknown states {unknown}"
                )
            rows.append(tuple(row))
        return rows, False
    raise InvalidInstanceError("sequences must be a list, 'exhaustive', or random spec")


@_command("composed-verify")
@click.option("--spec", "spec_file", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Experiment spec JSON (codes, states, sequences, budget).")
@click.option("--threshold", default=None,
              help="Exit 1 unless eps_max is <= this rational.")
def cmd_composed_verify(spec_file, threshold):
    """Verify a composed (inner code + erasure code) scheme end to end."""
    spec_obj = _load_json(spec_file)
    if not isinstance(spec_obj, dict):
        raise InvalidInstanceError(f"spec {spec_file} must be a JSON object")
    for field in ("inner_code", "outer", "p_star", "states",
                  "special_state", "sequences", "budget"):
        if field not in spec_obj:
            raise InvalidInstanceError(f"spec lacks required field {field!r}")
    budget = spec_obj["budget"]
    if budget is not None and (
        not isinstance(budget, int) or isinstance(budget, bool) or budget < 0
    ):
        raise InvalidInstanceError(
            f"budget must be a non-negative integer or null, got {budget!r}"
        )
    if not isinstance(spec_obj["states"], dict):
        raise InvalidInstanceError("states must be an object of named channels")
    special_name = spec_obj["special_state"]
    if not isinstance(special_name, str):
        raise InvalidInstanceError(
            f"special_state must be a state name, got {special_name!r}"
        )
    inner_ref = spec_obj["inner_code"]
    if isinstance(inner_ref, str):
        inner = _load_code(str(Path(spec_file).parent / inner_ref))
    else:
        inner = StochasticCode.from_json(inner_ref)
    outer = GF2Matrix.from_json(spec_obj["outer"])
    scheme = ComposedScheme(inner, outer)
    p_star = parse_rational(spec_obj["p_star"])
    special = special_channel(p_star)
    states = {
        name: _extended_channel(ch)
        for name, ch in spec_obj["states"].items()
    }
    if special_name not in states:
        raise InvalidInstanceError(f"unknown special state {special_name!r}")
    if states[special_name] != special:
        raise InvalidInstanceError(
            f"state {special_name!r} must equal BEC(p_star) exactly"
        )
    names = sorted(states)
    if names == [special_name]:
        raise InvalidInstanceError(
            "states need at least one channel besides the special state"
        )
    rows, exhaustive = _composed_sequences(
        spec_obj, names, special_name, scheme.n, budget
    )
    if not rows:
        raise InvalidInstanceError("no sequences to verify")
    sequences = [
        StateSequence([states[name] for name in row], labels=row)
        for row in rows
    ]
    report_obj = verify_composed(scheme, sequences, p_star, budget=budget)
    limit = parse_rational(threshold) if threshold is not None else None
    report = report_obj.to_json()
    report["exhaustive"] = exhaustive
    passed = _verdict(report, report_obj.eps_max, limit)
    report["provenance"] = _provenance(input=spec_file, budget=budget)
    summary = (
        f"delta = {format_rational(report_obj.delta)}, eps_max = "
        f"{format_rational(report_obj.eps_max)} over "
        f"{report_obj.sequences_checked} sequences"
        + (" (exhaustive)" if exhaustive else "")
    )
    return report, summary, passed


@_command("certify-inner")
@click.argument("code_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--budget", type=click.IntRange(min=0), default=1_000_000, show_default=True)
def cmd_certify_inner(code_file, generator_file, budget):
    """Certify an inner code against the maps induced by an outer generator."""
    inner = _load_code(code_file)
    outer = GF2Matrix.from_json(_load_json(generator_file))
    cert = certify_induced_family(inner, outer, budget=budget)
    report = {
        "certificate": cert.to_json(),
        "provenance": _provenance(
            input=code_file, generator=generator_file, budget=budget
        ),
    }
    summary = (
        f"eps over induced family = {format_rational(cert.epsilon)} "
        f"({cert.size} distinct maps)"
    )
    return report, summary, True


if __name__ == "__main__":
    main()
