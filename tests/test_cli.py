"""CLI contract: commands, formats, exit codes, reproducibility."""

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmavc.cli import main
from oracles import split_word

BSC = {"rows": [["7/10", "3/10"], ["3/10", "7/10"]]}
BAD_ROW_SUM = {"rows": [["7/10", "7/10"], ["3/10", "7/10"]]}
FLOAT_ROWS = {"rows": [[0.7, 0.3], [0.3, 0.7]]}
IDENTITY_2 = {"rows": ["10", "01"]}
# Channel rows that are not lists: a string row must not be read
# character by character as the identity channel.
NUMBER_ROWS = {"rows": [5, 6]}
STRING_ROWS = {"rows": ["10", "01"]}
PARITY_45 = {"rows": ["10001", "01001", "00101", "00011"]}

IDENTITY_CODE_K1 = {
    "k": 1, "n": 1, "rho": 0,
    "enc": {"0": ["0"], "1": ["1"]},
    "dec": {"0": "0", "1": "1"},
}

LINEAR_CODE_K1_N3 = {
    "k": 1, "n": 3, "rho": 0,
    "enc": {"0": ["000"], "1": ["111"]},
    "dec": {"000": "0", "111": "1"},
}


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path: Path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_decompose_bsc(runner, tmp_path):
    path = write(tmp_path, "bsc.json", BSC)
    result = runner.invoke(main, ["decompose", path, "--format", "json"])
    assert result.exit_code == 0
    assert '"keep": "7/10"' in result.output
    assert '"flip": "3/10"' in result.output
    assert '"0"' in result.output and '"3/10"' in result.output


def test_decompose_identity(runner, tmp_path):
    path = write(tmp_path, "id.json", {"rows": [["1", "0"], ["0", "1"]]})
    result = runner.invoke(main, ["decompose", path, "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output.split("\n", 1)[1])
    assert report["alphas"] == {
        "keep": "1", "flip": "0", "set0": "0", "set1": "0", "erase": "0"
    }


def test_decompose_invalid_rows_exit_2(runner, tmp_path):
    for name, payload in (("bad.json", BAD_ROW_SUM), ("float.json", FLOAT_ROWS)):
        path = write(tmp_path, name, payload)
        result = runner.invoke(main, ["decompose", path])
        assert result.exit_code == 2


def test_delta_identity(runner, tmp_path):
    path = write(tmp_path, "i2.json", IDENTITY_2)
    result = runner.invoke(main, ["delta", path, "1/10", "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output.split("\n", 1)[1])
    assert report["delta"] == "19/100"


def test_delta_budget_exit_3(runner, tmp_path):
    wide = {"rows": ["1" * 25]}
    path = write(tmp_path, "wide.json", wide)
    result = runner.invoke(main, ["delta", path, "1/10", "--budget", "20"])
    assert result.exit_code == 3


MALFORMED_GENERATORS = [
    {"rows": []},
    {"rows": ["10x"]},
    {"rows": ["101", "01"]},
    {"rows": [5]},
    {"rows": "101"},
    {"rows": [[1, 0, 2]]},
    {"rows": [[1, True]]},
    {"rows": [""]},
]
MALFORMED_GENERATOR_IDS = [
    "no-rows", "bad-symbol", "ragged", "int-row", "string-rows", "entry-2",
    "bool-entry", "empty-row",
]


def assert_invalid_input(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("generator", MALFORMED_GENERATORS, ids=MALFORMED_GENERATOR_IDS)
def test_malformed_generator_exit_2(runner, tmp_path, generator):
    # Every command that reads a generator file rejects it as invalid input.
    gen = write(tmp_path, "g.json", generator)
    code = write(tmp_path, "code.json", LINEAR_CODE_K1_N3)
    spec = json.loads((DATA / "composed_spec.json").read_text())
    spec["outer"] = generator
    spec_file = write(tmp_path, "spec.json", spec)
    for args in (
        ["delta", gen, "1/10"],
        ["certify-inner", code, gen],
        ["search", "--k", "1", "--n", "3", "--rho", "0", "--trials", "1",
         "--seed", "0", "--induced-by", gen],
        ["composed-verify", "--spec", spec_file],
    ):
        assert_invalid_input(runner.invoke(main, args))


@pytest.mark.parametrize("command", ["certify-inner", "search"])
def test_rank_deficient_outer_exit_2(runner, tmp_path, command):
    # Rows 11, 11 encode two messages alike: every pattern induces the
    # failure map, and the vacuous family would certify eps = 0.
    gen = write(tmp_path, "g.json", {"rows": ["11", "11"]})
    code = write(tmp_path, "code.json", {
        "k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
        "dec": {"00": "0", "11": "1"},
    })
    args = {
        "certify-inner": ["certify-inner", code, gen],
        "search": ["search", "--k", "1", "--n", "2", "--rho", "0",
                   "--trials", "2", "--seed", "0", "--induced-by", gen],
    }[command]
    assert_invalid_input(runner.invoke(main, args))


def test_nm_verify_identity_code(runner, tmp_path):
    code = write(tmp_path, "code.json", IDENTITY_CODE_K1)
    seqs = write(
        tmp_path, "seqs.json",
        {"channels": {"id": {"rows": [["1", "0"], ["0", "1"]]}},
         "sequences": [["id"]]},
    )
    result = runner.invoke(
        main,
        ["nm-verify", code, "--sequences", seqs, "--budget", "100000",
         "--threshold", "0", "--format", "json"],
    )
    assert result.exit_code == 0, result.output



def test_nm_verify_keeps_sequences_with_equal_labels(runner, tmp_path):
    # Inline channels are labelled by position, so these two different
    # sequences share the label "inline0,inline1"; both must be reported.
    code = write(tmp_path, "code.json", LINEAR_CODE_K1_N3)
    flip = {"rows": [["0", "1"], ["1", "0"]]}
    seqs = write(
        tmp_path, "seqs.json",
        {"sequences": [[BSC, BSC, BSC], [flip, BSC, BSC], [BSC, BSC, BSC]]},
    )
    out = str(tmp_path / "report.json")
    result = runner.invoke(
        main, ["nm-verify", code, "--sequences", seqs, "--budget", "1000",
               "--out", out],
    )
    assert result.exit_code == 0, result.output
    assert "over 3 sequences" in result.output
    reported = json.loads(Path(out).read_text())["sequences"]
    assert sorted(reported) == [
        "inline0,inline1,inline2",
        "inline0,inline1,inline2#1",
        "inline0,inline1,inline2#2",
    ]
    assert reported["inline0,inline1,inline2#1"] != reported["inline0,inline1,inline2"]
    assert reported["inline0,inline1,inline2#2"] == reported["inline0,inline1,inline2"]

@pytest.mark.parametrize("channel", [NUMBER_ROWS, STRING_ROWS],
                         ids=["number-rows", "string-rows"])
@pytest.mark.parametrize("inline", [False, True], ids=["named", "inline"])
def test_nm_verify_malformed_channel_exit_2(runner, tmp_path, channel, inline):
    code = write(tmp_path, "code.json", IDENTITY_CODE_K1)
    listing = ({"sequences": [[channel]]} if inline
               else {"channels": {"c": channel}, "sequences": [["c"]]})
    seqs = write(tmp_path, "seqs.json", listing)
    assert_invalid_input(runner.invoke(
        main, ["nm-verify", code, "--sequences", seqs, "--budget", "1000"]
    ))


@pytest.mark.parametrize(
    "listing",
    [{"sequences": 5}, {"sequences": [5]}, {"sequences": [["a"]], "channels": 3}],
    ids=["sequences-not-list", "row-not-list", "channels-not-object"],
)
def test_nm_verify_malformed_sequences_exit_2(runner, tmp_path, listing):
    code = write(tmp_path, "code.json", IDENTITY_CODE_K1)
    seqs = write(tmp_path, "seqs.json", listing)
    assert_invalid_input(runner.invoke(
        main, ["nm-verify", code, "--sequences", seqs, "--budget", "1000"]
    ))


def test_nm_verify_threshold_failure(runner, tmp_path):
    # The linear repetition code has bit-family epsilon 1/2 (offset
    # attack), which misses a threshold of 1/4.
    code = write(tmp_path, "code.json", LINEAR_CODE_K1_N3)
    result = runner.invoke(
        main,
        ["nm-verify", code, "--family", "bit", "--budget", "100000",
         "--threshold", "1/4", "--format", "json"],
    )
    assert result.exit_code == 1
    report = json.loads(result.output.split("\n", 1)[1])
    assert report["certificate"]["epsilon"] == "1/2"
    assert report["passed"] is False


def test_nm_verify_budget_exit_3(runner, tmp_path):
    code = write(tmp_path, "code.json", LINEAR_CODE_K1_N3)
    result = runner.invoke(
        main, ["nm-verify", code, "--family", "bit", "--budget", "10"]
    )
    assert result.exit_code == 3


def test_nm_verify_requires_one_mode(runner, tmp_path):
    code = write(tmp_path, "code.json", IDENTITY_CODE_K1)
    result = runner.invoke(main, ["nm-verify", code, "--budget", "10"])
    assert result.exit_code == 2


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


@pytest.mark.parametrize(
    "code",
    [
        # A codeword with a non-bit symbol, once certified at eps = 1/2.
        {"k": 1, "n": 2, "rho": 0, "enc": {"0": ["0x"], "1": ["11"]},
         "dec": {"0x": "0", "11": "1"}},
        # A decoder value outside {0,1}^k.
        {"k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
         "dec": {"00": "0", "11": "1", "01": "7"}},
        # A decoder key of the wrong length.
        {"k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
         "dec": {"00": "0", "11": "1", "111": "1"}},
        # Not a code object, and dimensions that are not integers >= 0.
        [1, 2],
        {"k": "x", "n": 1, "rho": 0, "enc": {}, "dec": {}},
        {"k": -1, "n": 1, "rho": 0, "enc": {}, "dec": {}},
        {"k": True, "n": 1, "rho": 0, "enc": {"0": ["0"], "1": ["1"]},
         "dec": {"0": "0", "1": "1"}},
        # An encoder table that is not an object.
        {"k": 1, "n": 1, "rho": 0, "enc": [], "dec": {}},
        # 2^40 messages are named and none is given.
        {"k": 40, "n": 41, "rho": 0, "enc": {}, "dec": {}},
    ],
    ids=["non-bit-codeword", "non-message-dec-value", "long-dec-key",
         "json-array", "string-k", "negative-k", "bool-k", "list-enc",
         "huge-k"],
)
def test_nm_verify_malformed_code_exit_2(runner, tmp_path, code):
    path = write(tmp_path, "code.json", code)
    with time_limit(2):
        result = runner.invoke(
            main, ["nm-verify", path, "--family", "bit", "--budget", "1000"]
        )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


FUZZ_CODE = {
    "k": 1, "n": 3, "rho": 1,
    "enc": {"0": ["000", "011"], "1": ["111", "100"]},
    "dec": {"000": "0", "011": "0", "111": "1", "100": "1", "110": "0"},
}
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
NOT_INT = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
NOT_LIST = SCALARS | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
NOT_OBJECT = SCALARS | st.lists(st.text(max_size=3), max_size=2)
NOT_WORD_TEXT = st.text(max_size=5).filter(
    lambda t: not (len(t) == 3 and set(t) <= {"0", "1"})
)
NOT_WORD = st.one_of(NOT_WORD_TEXT, st.integers(), st.none(),
                     st.lists(st.integers(0, 1), max_size=3))
NOT_MESSAGE = st.one_of(
    st.text(max_size=3).filter(lambda t: t not in ("0", "1")),
    st.integers(), st.none(), st.booleans(), st.lists(st.text(max_size=1)),
)


@st.composite
def malformed_codes(draw):
    """FUZZ_CODE with one mutation that makes it invalid."""
    code = json.loads(json.dumps(FUZZ_CODE))
    m = draw(st.sampled_from(["0", "1"]))
    kind = draw(st.sampled_from([
        "dimension-type", "bool-dimension", "table-type", "codeword-list-type",
        "codeword", "codeword-count", "encoder-key", "decoder-key",
        "decoder-value", "missing-field",
    ]))
    if kind == "dimension-type":
        code[draw(st.sampled_from(["k", "n", "rho"]))] = draw(NOT_INT)
    elif kind == "bool-dimension":
        code[draw(st.sampled_from(["k", "n", "rho"]))] = draw(st.booleans())
    elif kind == "table-type":
        code[draw(st.sampled_from(["enc", "dec"]))] = draw(NOT_OBJECT)
    elif kind == "codeword-list-type":
        code["enc"][m] = draw(NOT_LIST)
    elif kind == "codeword":
        code["enc"][m][draw(st.integers(0, 1))] = draw(NOT_WORD)
    elif kind == "codeword-count":
        code["enc"][m] = draw(st.sampled_from([[], ["000"], ["000"] * 3]))
    elif kind == "encoder-key":
        code["enc"][draw(NOT_MESSAGE.filter(lambda v: isinstance(v, str)))] = (
            code["enc"].pop(m)
        )
    elif kind == "decoder-key":
        code["dec"][draw(NOT_WORD_TEXT)] = m
    elif kind == "decoder-value":
        code["dec"][draw(st.sampled_from(sorted(code["dec"])))] = draw(NOT_MESSAGE)
    else:
        del code[draw(st.sampled_from(["k", "n", "rho", "enc", "dec"]))]
    return code


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_codes())
def test_nm_verify_fuzzed_code_exit_2(runner, tmp_path, code):
    # A missing "dec" is an empty decoder, which fails the correctness audit.
    path = write(tmp_path, "code.json", code)
    result = runner.invoke(
        main, ["nm-verify", path, "--family", "bit", "--budget", "1000"]
    )
    assert_invalid_input(result)


@pytest.mark.parametrize(
    "dims",
    [("1", "2", "-1"), ("-1", "2", "0"), ("0", "0", "0")],
    ids=["negative-rho", "negative-k", "empty-block"],
)
def test_search_bad_dimensions_exit_2(runner, dims):
    k, n, rho = dims
    result = runner.invoke(
        main, ["search", "--k", k, "--n", n, "--rho", rho,
               "--trials", "2", "--seed", "1"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_search_reports_micro_epsilon(runner, tmp_path):
    out = str(tmp_path / "searched.json")
    result = runner.invoke(
        main,
        ["search", "--k", "1", "--n", "1", "--rho", "0", "--trials", "4",
         "--seed", "0", "--out", out],
    )
    assert result.exit_code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["meta"]["epsilon"] == "1/2"


def test_search_then_verify_round_trip(runner, tmp_path):
    out = str(tmp_path / "code.json")
    result = runner.invoke(
        main,
        ["search", "--k", "1", "--n", "3", "--rho", "1", "--trials", "6",
         "--seed", "4", "--out", out],
    )
    assert result.exit_code == 0
    meta_eps = json.loads(Path(out).read_text())["meta"]["epsilon"]
    verify = runner.invoke(
        main,
        ["nm-verify", out, "--family", "bit", "--budget", "100000",
         "--threshold", meta_eps, "--format", "json"],
    )
    assert verify.exit_code == 0, verify.output


def test_search_json_reproducible(runner, tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        result = runner.invoke(
            main,
            ["search", "--k", "1", "--n", "3", "--rho", "1", "--trials", "5",
             "--seed", "77", "--out", out, "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(Path(out).read_text())
        payload["provenance"].pop("generated_at")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def demo_spec_path() -> str:
    return str(
        Path(__file__).parent.parent / "src" / "nmavc" / "data"
        / "demo_composed_spec.json"
    )


def demo_spec_with(tmp_path, **fields) -> str:
    """The shipped demo spec with the inner code inlined and `fields` set."""
    spec = json.loads(Path(demo_spec_path()).read_text())
    spec["inner_code"] = json.loads(
        (Path(demo_spec_path()).parent / "demo_inner_code.json").read_text()
    )
    spec.update(fields)
    return write(tmp_path, "spec.json", spec)


def test_composed_verify_demo_spec(runner, tmp_path):
    # Scaled-down run of the shipped demo: random sequences keep it fast;
    # the acceptance suite runs the exhaustive version.  The inner code
    # is inlined so the spec is self-contained under tmp_path.
    spec_file = demo_spec_with(tmp_path, sequences={"random": 5, "seed": 13})
    result = runner.invoke(
        main,
        ["composed-verify", "--spec", spec_file, "--threshold", "3/8",
         "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output.split("\n", 1)[1])
    assert report["delta"] == "4073/50000"
    assert report["passed"] is True


@pytest.mark.parametrize("budget, exit_code", [(31, 3), (32, 0)])
def test_composed_verify_demo_pattern_budget(runner, tmp_path, budget, exit_code):
    # Every demo sequence expands into 2^5 patterns (two per position);
    # a budget below that stops the run before any pattern is built.
    spec_file = demo_spec_with(tmp_path, budget=budget)
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert "sequence expands into 32 patterns, budget 31" in result.output


def test_composed_verify_huge_random_count_exits_3_at_once(runner, tmp_path):
    # 10^12 rows would fill the memory long before the last was drawn.
    spec_file = demo_spec_with(tmp_path, sequences={"random": 10**12, "seed": 1})
    with time_limit(5):
        result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == 3, result.output
    assert "spec draws 1000000000000 random sequences, budget 1000000" in result.output


@pytest.mark.parametrize("count, exit_code", [(33, 3), (32, 0)])
def test_composed_verify_random_sequence_budget(runner, tmp_path, count, exit_code):
    # Budget 32 admits each sequence's 2^5 patterns, so only the count of
    # random sequences decides.
    spec_file = demo_spec_with(
        tmp_path, budget=32, sequences={"random": count, "seed": 1}
    )
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert "spec draws 33 random sequences, budget 32" in result.output


def test_composed_verify_keeps_repeated_sequences(runner, tmp_path):
    # The first row is listed twice; each listing keeps its own entry.
    bec = {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}
    spec = {
        "inner_code": json.loads((DATA / "transfer_code.json").read_text()),
        "outer": json.loads((DATA / "parity34.json").read_text()),
        "p_star": "1/10",
        "states": {"bec": bec, "bsc": BSC},
        "special_state": "bec",
        "sequences": [["bsc", "bec", "bsc", "bsc"], ["bsc"] * 4,
                      ["bsc", "bec", "bsc", "bsc"]],
        "budget": 1000,
    }
    spec_file = write(tmp_path, "spec.json", spec)
    out = str(tmp_path / "report.json")
    result = runner.invoke(
        main, ["composed-verify", "--spec", spec_file, "--out", out]
    )
    assert result.exit_code == 0, result.output
    assert "over 3 sequences" in result.output
    reported = json.loads(Path(out).read_text())["sequences"]
    assert sorted(reported) == [
        "bsc,bec,bsc,bsc", "bsc,bec,bsc,bsc#2", "bsc,bsc,bsc,bsc",
    ]
    first, repeat = reported["bsc,bec,bsc,bsc"], reported["bsc,bec,bsc,bsc#2"]
    assert repeat["sequence"] == "bsc,bec,bsc,bsc#2"
    assert {**repeat, "sequence": first["sequence"]} == first


@pytest.mark.parametrize(
    "fields",
    [
        {"budget": "abc"},
        {"budget": True},
        {"budget": 1.5},
        {"budget": -1},
        {"states": []},
        {"special_state": ["bec"]},
        {"sequences": [["foo", "foo", "foo", "foo", "foo"]]},
        # Specs that would verify no sequence, and so pass vacuously.
        {"sequences": []},
        {"sequences": {"random": -1, "seed": 1}},
        {"sequences": {"random": True, "seed": 1}},
        {"sequences": {"random": 2, "seed": True}},
        # Only the special state: a random spec would never draw a row.
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}},
         "sequences": "exhaustive"},
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]},
                    "bsc": BSC, "z": NUMBER_ROWS}},
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]},
                    "bsc": BSC, "z": STRING_ROWS}},
    ],
    ids=["string-budget", "bool-budget", "float-budget", "negative-budget",
         "list-states", "list-special-state", "unknown-state-in-row",
         "empty-sequence-list", "negative-random-count", "bool-random-count",
         "bool-random-seed", "only-special-state", "number-row-state",
         "string-row-state"],
)
def test_composed_verify_malformed_spec_exit_2(runner, tmp_path, fields):
    spec = json.loads((DATA / "composed_spec.json").read_text())
    spec.update(fields)
    spec_file = write(tmp_path, "spec.json", spec)
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("spec", [5, None, [], "spec"],
                         ids=["number", "null", "list", "string"])
def test_composed_verify_non_object_spec_exit_2(runner, tmp_path, spec):
    # Valid JSON that is not an object is rejected before the
    # required-field loop reads it.
    spec_file = write(tmp_path, "spec.json", spec)
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: spec {spec_file} must be a JSON object" in result.output


def test_composed_verify_decodes_each_word_once(runner, tmp_path, monkeypatch):
    # The channel experiments of all 242 demo sequences read one decoder
    # table: each word of {0,1,e}^5 is decoded once.  The only other
    # decodes are the correctness audit's, one per (message, seed): 2 * 4,
    # and the recovery route's, one per (erasure pattern, message, seed).
    from nmavc import ComposedScheme, cli

    decoded = []
    verify = cli.verify_composed

    def counting_verify(scheme, *args, **kwargs):
        decode = type(scheme).decode

        def counted(self, bits, erased=0):
            decoded.append((bits, erased))
            return decode(self, bits, erased)

        monkeypatch.setattr(ComposedScheme, "decode", counted)
        return verify(scheme, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_composed", counting_verify)
    out = str(tmp_path / "report.json")
    result = runner.invoke(
        main, ["composed-verify", "--spec", demo_spec_path(), "--out", out]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(Path(out).read_text())["sequences_checked"] == 242
    assert len(decoded) == 3**5 + 2 * 4 + 2**5 * 2 * 4
    assert set(decoded) == {split_word("".join(w)) for w in product("01e", repeat=5)}


def test_composed_verify_missing_field_exit_2(runner, tmp_path):
    spec_file = write(tmp_path, "spec.json", {"outer": PARITY_45})
    result = runner.invoke(main, ["composed-verify", "--spec", str(spec_file)])
    assert result.exit_code == 2


def test_csv_format(runner, tmp_path):
    path = write(tmp_path, "bsc.json", BSC)
    result = runner.invoke(main, ["decompose", path, "--format", "csv"])
    assert result.exit_code == 0
    assert "key,value" in result.output
    assert "alphas.keep,7/10" in result.output


def test_text_format(runner, tmp_path):
    path = write(tmp_path, "i2.json", IDENTITY_2)
    result = runner.invoke(main, ["delta", path, "0", "--format", "text"])
    assert result.exit_code == 0
    assert "delta = 0" in result.output


# ------------------------------------------------------------ golden reports
# Reports generated before the plain and composed channel experiments
# were merged, (certify-inner) before induced maps were built from
# their closed form alone, (decompose) before the binary and
# erasure-extended channel classes became one, and (composed-demo, the
# exhaustive shipped demo) before the pattern mixtures became integer,
# and (search-k1n4, nm-verify-bit) before the tamper experiments
# returned every message's law in one call, and (nm-verify-bit-k2n5, the
# fixed k=2, n=5 code) before certification skipped the LP of members a
# trivial simulator, or later a pooled optimal one, keeps within the
# running epsilon, and (nm-verify-bit k1n4 and k0n2, codes of
# _random_injective_code(1, 4, 2, Random(5)) and
# _random_injective_code(0, 2, 1, Random(1))) before laws became integer
# rows over the outcome index: the first pins a simulator with same*
# mass, the second the empty message label of k = 0;
# the whole JSON must stay the same apart from the timestamp and the
# input paths the provenance echoes.

DATA = Path(__file__).parent / "data"


def report_without_run_fields(path) -> dict:
    report = json.loads(Path(path).read_text())
    for field in ("generated_at", "input", "sequences", "generator"):
        report["provenance"].pop(field, None)
    return report


@pytest.mark.parametrize(
    "args, golden",
    [
        (["nm-verify", str(DATA / "transfer_code.json"), "--sequences",
          str(DATA / "transfer_sequences.json"), "--budget", "1000"],
         "golden_nm_verify_sequences.json"),
        (["composed-verify", "--spec", str(DATA / "composed_spec.json")],
         "golden_composed_verify.json"),
        (["composed-verify", "--spec", demo_spec_path()],
         "golden_composed_demo.json"),
        (["certify-inner", str(DATA / "transfer_code.json"),
          str(DATA / "parity34.json")],
         "golden_certify_inner.json"),
        (["decompose", str(DATA / "channel_binary.json"), "--alpha3", "1/10"],
         "golden_decompose_alpha3.json"),
        (["decompose", str(DATA / "channel_lifted_bsc.json")],
         "golden_decompose_lifted_bsc.json"),
        (["decompose", str(DATA / "channel_erase.json")],
         "golden_decompose_erase.json"),
        (["search", "--k", "1", "--n", "4", "--rho", "2", "--trials", "200",
          "--seed", "404"],
         "golden_search_k1n4.json"),
        (["nm-verify", str(DATA / "transfer_code.json"), "--family", "bit",
          "--budget", "1000"],
         "golden_nm_verify_bit.json"),
        (["nm-verify", str(DATA / "fixed_k2n5_code.json"), "--family", "bit",
          "--budget", "4096"],
         "golden_nm_verify_bit_k2n5.json"),
        (["nm-verify", str(DATA / "random_k1n4_code.json"), "--family", "bit",
          "--budget", "4096"],
         "golden_nm_verify_bit_k1n4.json"),
        (["nm-verify", str(DATA / "random_k0n2_code.json"), "--family", "bit",
          "--budget", "4096"],
         "golden_nm_verify_bit_k0n2.json"),
    ],
    ids=["nm-verify-sequences", "composed-verify", "composed-demo", "certify-inner",
         "decompose-alpha3", "decompose-lifted-bsc", "decompose-erase",
         "search-k1n4", "nm-verify-bit", "nm-verify-bit-k2n5",
         "nm-verify-bit-k1n4-same-star", "nm-verify-bit-k0n2-empty-message"],
)
def test_report_matches_golden(runner, tmp_path, args, golden):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert report_without_run_fields(out) == report_without_run_fields(DATA / golden)


@pytest.mark.parametrize(
    "payload, extra",
    [
        (json.loads((DATA / "channel_erase.json").read_text()),
         ["--alpha3", "0"]),
        ({"rows": [["1", "0"], ["0", "0", "1"]]}, []),
        ({"rows": [["9/10", "0", "1/10"], ["0", "4/5", "1/5"]]}, []),
        (NUMBER_ROWS, []),
        (STRING_ROWS, []),
    ],
    ids=["alpha3-on-3-columns", "mixed-width-rows", "input-dependent-erasure",
         "number-rows", "string-rows"],
)
def test_decompose_rejected_channel_exit_2(runner, tmp_path, payload, extra):
    path = write(tmp_path, "ch.json", payload)
    assert_invalid_input(runner.invoke(main, ["decompose", path, *extra]))


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--k", "1", "--n", "3", "--rho", "1", "--seed", "1"],
        ["nm-verify", str(DATA / "transfer_code.json"), "--family", "bit"],
        ["certify-inner", str(DATA / "transfer_code.json"), str(DATA / "parity34.json")],
        ["delta", str(DATA / "parity34.json"), "1/10"],
    ],
    ids=["search", "nm-verify", "certify-inner", "delta"],
)
def test_negative_budget_exit_2(runner, args):
    # Rejected as input before any enumeration, not reported as exceeded.
    result = runner.invoke(main, [*args, "--budget", "-1"])
    assert_invalid_input(result)
    assert "-1 is not in the range x>=0" in result.output


def run_cli_process(args: list[str]) -> tuple[int, bool, bool]:
    """(exit code, whether numpy was imported, whether dataclasses was
    imported) of one fresh process that imports nmavc.cli and, given
    args, runs the CLI on them."""
    script = (
        "import sys\n"
        "from nmavc.cli import main\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        main(sys.argv[1:])\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "sys.stderr.write(f\"numpy imported: {'numpy' in sys.modules}\\n\")\n"
        "sys.stderr.write(f\"dataclasses imported: {'dataclasses' in sys.modules}\\n\")\n"
        "sys.exit(code)\n"
    )
    # The child imports nmavc from where this process does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    numpy, dataclasses = done.stderr.splitlines()[-2:]
    assert numpy.startswith("numpy imported: "), done.stderr
    assert dataclasses.startswith("dataclasses imported: "), done.stderr
    return done.returncode, numpy.endswith("True"), dataclasses.endswith("True")


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["search", "--k", "1", "--n", "3", "--rho", "1", "--trials", "3", "--seed", "1"],
        ["nm-verify", str(DATA / "transfer_code.json"), "--sequences",
         str(DATA / "transfer_sequences.json"), "--budget", "1000"],
        ["decompose", str(DATA / "channel_erase.json")],
        ["certify-inner", str(DATA / "transfer_code.json"), str(DATA / "parity34.json")],
        ["composed-verify", "--spec", str(DATA / "composed_spec.json")],
        ["delta", str(DATA / "parity34.json"), "1/10"],
    ],
    ids=["import", "search", "nm-verify", "decompose", "certify-inner",
         "composed-verify", "delta-exact"],
)
def test_exact_commands_leave_numpy_unimported(tmp_path, args):
    # numpy is the Monte-Carlo estimator's dependency only; the exact
    # routes run on Python ints and must not pay for its import.  Nor may
    # a process pay for dataclasses, which generates and compiles the
    # methods of each decorated class at import.
    if args:
        args = [*args, "--out", str(tmp_path / "report.json")]
    code, numpy_imported, dataclasses_imported = run_cli_process(args)
    assert code == 0
    assert not numpy_imported
    assert not dataclasses_imported


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", str(DATA / "channel_erase.json")],
        ["delta", str(DATA / "parity34.json"), "1/10"],
        ["nm-verify", str(DATA / "transfer_code.json"), "--family", "bit",
         "--budget", "100000"],
        ["search", "--k", "1", "--n", "3", "--rho", "1", "--trials", "3", "--seed", "1"],
        ["composed-verify", "--spec", str(DATA / "composed_spec.json")],
        ["certify-inner", str(DATA / "transfer_code.json"), str(DATA / "parity34.json")],
    ],
    ids=["decompose", "delta", "nm-verify", "search", "composed-verify",
         "certify-inner"],
)
def test_unwritable_out_exit_2(runner, tmp_path, args):
    # A report that cannot be written is invalid input, not a traceback.
    out = tmp_path / "missing" / "report.json"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write {out}: " in result.output
    assert "Traceback" not in result.output


def test_monte_carlo_delta_keeps_its_estimate(tmp_path):
    # The Philox draws, and so the estimate, are pinned bit for bit.
    out = tmp_path / "report.json"
    code, numpy_imported, _ = run_cli_process(
        ["delta", str(DATA / "parity34.json"), "1/10", "--monte-carlo", "100000",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0 and numpy_imported
    report = json.loads(out.read_text())
    assert report["monte_carlo"] == {
        "trials": 100000, "seed": 7,
        "estimate": 0.05163, "ci95": 0.0013715007125516196,
    }
