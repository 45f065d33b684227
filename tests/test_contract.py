"""The exit-code contract under malformed input.

Each shipped input in tests/data is fed, after one or two structural
mutations (a key deleted, a value of another JSON type, a value wrapped
in a list, a float or a huge number, an unknown name, a length
changed, a malformed rational string, an "exhaustive" or random state
listing), to every command that reads it,
with the command's original --budget.  Whatever the mutation, the
command ends in 0 (pass), 1 (an exact invariant failed, or a report
that did not pass), 2 (invalid input) or 3 (budget exceeded), with
exactly one error: line for 2 and 3, and never in a traceback.
"""

import json
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmavc.cli import main

DATA = Path(__file__).parent / "data"
CODE = str(DATA / "transfer_code.json")
SEQUENCES = str(DATA / "transfer_sequences.json")
GENERATOR = str(DATA / "parity34.json")

#: Each input: its shipped file and the commands that read it, the
#: mutated copy's path standing in for "{}".
INPUTS = {
    "code": ("transfer_code.json", [
        ["nm-verify", "{}", "--family", "bit", "--budget", "1000"],
        ["nm-verify", "{}", "--sequences", SEQUENCES, "--budget", "1000"],
        ["certify-inner", "{}", GENERATOR],
    ]),
    "channel": ("channel_binary.json", [
        ["decompose", "{}"],
        ["decompose", "{}", "--alpha3", "1/10"],
    ]),
    "generator": ("parity34.json", [
        ["delta", "{}", "1/10"],
        ["certify-inner", CODE, "{}"],
        ["search", "--k", "1", "--n", "3", "--rho", "1", "--trials", "2",
         "--seed", "0", "--induced-by", "{}"],
    ]),
    "sequences": ("transfer_sequences.json", [
        ["nm-verify", CODE, "--sequences", "{}", "--budget", "1000"],
    ]),
    "spec": ("composed_spec.json", [
        ["composed-verify", "--spec", "{}"],
    ]),
}

#: One value of each JSON type, for a value whose type changes.
JSON_VALUES = [None, True, 3, 0.5, "x", [], {}]

MUTATIONS = ["delete", "retype", "wrap", "float", "huge", "unknown-name", "longer",
             "shorter", "bad-rational", "listing"]

#: Strings no rational parser may accept: a superscript digit, two signs,
#: an Arabic-Indic digit, an underscore, and padding that str.strip()
#: removes but is not ASCII whitespace (an ideographic space, \x1c, \x1d).
BAD_RATIONALS = ["0.²", "+-1/2", "٣/4", "1_0/3", "\u30001/2 ", "\x1c3/4\x1d"]

#: The lazy forms of a state listing, a fresh object at each draw.
LISTINGS = st.just("exhaustive") | st.fixed_dictionaries(
    {"random": st.just(3), "seed": st.just(1)})


def paths(doc, prefix=()):
    """The path (keys and indices from the root) of every value in doc."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, prefix + (i,))


def as_float(value):
    """A float where a rational (or an int) stood: "7/10" becomes 0.7."""
    if isinstance(value, str) and value.count("/") == 1:
        num, den = value.split("/")
        if num.lstrip("-").isdigit() and den.isdigit() and int(den):
            return int(num) / int(den)
    if isinstance(value, (int, str)) and str(value).lstrip("-").isdigit():
        return float(value)
    return 0.5


def mutate(doc, path, kind, draw):
    """doc with the value at path mutated; the root is replaced whole."""
    if not path:
        return [doc] if kind == "wrap" else draw(st.sampled_from(JSON_VALUES))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    value = parent[last]
    if kind == "delete":
        del parent[last]
    elif kind == "retype":
        parent[last] = draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(value)]))
    elif kind == "wrap":
        parent[last] = [value]
    elif kind == "float":
        parent[last] = as_float(value)
    elif kind == "huge":  # a 22-digit integer, or a rational over one
        parent[last] = 2**70 if isinstance(value, int) else f"1/{2**70}"
    elif kind == "unknown-name":
        parent[last] = "nowhere"
    elif kind == "bad-rational":  # any value; the rationals are strings
        parent[last] = draw(st.sampled_from(BAD_RATIONALS))
    elif kind == "listing":
        parent[last] = draw(LISTINGS)
    elif isinstance(value, (list, str)) and value:
        parent[last] = (value + value[-1:] if kind == "longer" else value[:-1])
    elif isinstance(value, int) and not isinstance(value, bool):
        parent[last] = value + (1 if kind == "longer" else -1)
    else:
        parent[last] = [] if kind == "shorter" else [value, value]
    return doc


@st.composite
def mutated(draw, name):
    """The shipped input `name` after one or two mutations."""
    doc = json.loads((DATA / INPUTS[name][0]).read_text())
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(MUTATIONS))
        candidates = list(paths(doc))
        if kind == "listing":  # aimed at the input's listing, if it has one
            candidates = [p for p in candidates if p == ("sequences",)] or candidates
        doc = mutate(doc, draw(st.sampled_from(candidates)), kind, draw)
    return doc


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_contract(result, args):
    where = f"{args}: {result.output}"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(where) from result.exception
    assert "Traceback" not in result.output, where
    assert result.exit_code in (0, 1, 2, 3), where
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    if result.exit_code in (2, 3):
        assert len(errors) == 1, where
    elif result.exit_code == 1 and errors:
        assert len(errors) == 1 and "exact invariant violated" in errors[0], where
    elif result.exit_code == 1:  # a report that did not pass: summary, then JSON
        report = json.loads(result.stdout.split("\n", 1)[1])
        assert report["passed"] is False, where
    else:
        assert not errors, where


@pytest.mark.parametrize("name", sorted(INPUTS))
@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_keeps_exit_code_contract(tmp_path, name, data):
    doc = data.draw(mutated(name))
    path = tmp_path / INPUTS[name][0]
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    for command in INPUTS[name][1]:
        args = [str(path) if arg == "{}" else arg for arg in command]
        with time_limit(10):
            result = runner.invoke(main, args)
        assert_contract(result, args)
