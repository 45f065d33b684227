"""CLI contract: commands, formats, exit codes, reproducibility."""

import ast
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmavc import (
    ComposedScheme,
    GF2Matrix,
    StochasticCode,
    cli,
    induced_family,
    search_nm_code,
    special_channel,
)
from nmavc.cli import main
from oracles import counting, split_word

BSC = {"rows": [["7/10", "3/10"], ["3/10", "7/10"]]}
BAD_ROW_SUM = {"rows": [["7/10", "7/10"], ["3/10", "7/10"]]}
FLOAT_ROWS = {"rows": [[0.7, 0.3], [0.3, 0.7]]}
IDENTITY_2 = {"rows": ["10", "01"]}
# Channel rows that are not lists: a string row must not be read
# character by character as the identity channel.
NUMBER_ROWS = {"rows": [5, 6]}
STRING_ROWS = {"rows": ["10", "01"]}
PARITY_45 = {"rows": ["10001", "01001", "00101", "00011"]}
BEC_1_10 = {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}
Z_CHANNEL = {"rows": [["1", "0"], ["1/4", "3/4"]]}

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


def test_delta_budget_boundary(runner, tmp_path):
    # The budget caps n: a 4 x 5 generator runs at --budget 5 and is
    # refused, with exit 3, at --budget 4.
    path = write(tmp_path, "g45.json", PARITY_45)
    assert runner.invoke(main, ["delta", path, "1/10", "--budget", "5"]).exit_code == 0
    result = runner.invoke(main, ["delta", path, "1/10", "--budget", "4"])
    assert result.exit_code == 3
    assert result.output == (
        "error: delta_exact enumerates 2^5 erasure patterns, above the budget "
        "of 2^4; use delta_monte_carlo instead\n"
    )


def test_delta_monte_carlo_too_large_exit_3(runner):
    # numpy refuses 10^18 x 4 uniforms before it allocates any: the
    # refusal is a budget overrun, one error line, no traceback.
    result = runner.invoke(main, ["delta", str(DATA / "parity34.json"), "1/10",
                                  "--monte-carlo", str(10**18)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    [line] = result.output.splitlines()
    assert line.startswith(f"error: {10**18} x 4 Monte-Carlo draws: ")


def test_delta_checks_p_star_before_budget(runner, tmp_path):
    # An erasure probability outside [0, 1] is invalid input (exit 2),
    # even when the block length is also above the budget.
    path = write(tmp_path, "g45.json", {"rows": ["10001", "01001", "00101", "00011"]})
    for args in (["2"], ["2", "--budget", "1"], ["3/2", "--budget", "1"],
                 ["-1/2"], ["-1/2", "--budget", "1"]):
        result = runner.invoke(main, ["delta", path, *args])
        assert_invalid_input(result)
        assert "outside [0,1]" in result.output


@pytest.mark.parametrize("p_star", ["0.²", "+-0.5"])
def test_delta_rejects_malformed_decimal(runner, tmp_path, p_star):
    # A decimal is ASCII digits under at most one sign: a superscript
    # digit is invalid input, not a traceback, and a doubled sign is
    # invalid input, not 1/2.
    path = write(tmp_path, "g45.json", {"rows": ["10001", "01001", "00101", "00011"]})
    result = runner.invoke(main, ["delta", path, p_star])
    assert_invalid_input(result)
    assert f"bad decimal string: {p_star!r}" in result.output


MALFORMED_GENERATORS = [
    {"rows": []},
    {"rows": ["10x"]},
    {"rows": ["101", "01"]},
    {"rows": [5]},
    {"rows": "101"},
    {"rows": [[1, 0, 2]]},
    {"rows": [[1, True]]},
    {"rows": [""]},
    {"rows": [[1, 0, 1], [0, 1, 1]]},
]
MALFORMED_GENERATOR_IDS = [
    "no-rows", "bad-symbol", "ragged", "int-row", "string-rows", "entry-2",
    "bool-entry", "empty-row", "int-list-rows",
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


def test_certify_inner_checks_lengths_before_patterns(runner, tmp_path):
    # The 4 -> 5 parity generator takes 4-bit messages and the code has
    # 5-bit codewords: invalid input, refused before the 5^5 action
    # patterns that a budget of 10 would refuse as too costly.
    gen = write(tmp_path, "g.json", {"rows": ["10001", "01001", "00101", "00011"]})
    result = runner.invoke(main, [
        "certify-inner", str(DATA / "fixed_k2n5_code.json"), gen, "--budget", "10",
    ])
    assert_invalid_input(result)
    assert "inner codeword length 5 != outer message length 4" in result.output


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
    # Inline channels are labelled by position, so the first listing's
    # three sequences share the label "inline0,inline1,inline2"; in the
    # second, a channel named "x#2" spells the label the third row's
    # "#index" would give.  Every sequence must be reported, its "#index"
    # appended until its label is new.
    flip = {"rows": [["0", "1"], ["1", "0"]]}
    cases = [
        (LINEAR_CODE_K1_N3,
         {"sequences": [[BSC, BSC, BSC], [flip, BSC, BSC], [BSC, BSC, BSC]]},
         ["inline0,inline1,inline2", "inline0,inline1,inline2#1",
          "inline0,inline1,inline2#2"]),
        (IDENTITY_CODE_K1,
         {"channels": {"x": {"rows": [["1", "0"], ["0", "1"]]}, "x#2": flip},
          "sequences": [["x"], ["x#2"], ["x"]]},
         ["x", "x#2", "x#2#2"]),
    ]
    for code_json, listing, (first, other, repeat) in cases:
        code = write(tmp_path, "code.json", code_json)
        seqs = write(tmp_path, "seqs.json", listing)
        out = str(tmp_path / "report.json")
        result = runner.invoke(
            main, ["nm-verify", code, "--sequences", seqs, "--budget", "1000",
                   "--out", out],
        )
        assert result.exit_code == 0, result.output
        assert "over 3 sequences" in result.output
        reported = json.loads(Path(out).read_text())["sequences"]
        assert sorted(reported) == [first, other, repeat]
        assert reported[other] != reported[first]
        assert reported[repeat] == reported[first]
    # The flip, not the third row's identity, holds "x#2".
    assert reported["x#2"]["eps_channel"] == "1/2"
    assert reported["x#2#2"]["eps_channel"] == "0"


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
    [{"sequences": 5}, {"sequences": [5]}, {"sequences": [["a"]], "channels": 3},
     {"sequences": []}],
    ids=["sequences-not-list", "row-not-list", "channels-not-object", "no-sequences"],
)
def test_nm_verify_malformed_sequences_exit_2(runner, tmp_path, listing):
    code = write(tmp_path, "code.json", IDENTITY_CODE_K1)
    seqs = write(tmp_path, "seqs.json", listing)
    result = runner.invoke(
        main, ["nm-verify", code, "--sequences", seqs, "--budget", "1000"]
    )
    assert_invalid_input(result)
    if listing == {"sequences": []}:
        assert "no sequences to verify" in result.output


BEC_2X3 = {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}


@pytest.mark.parametrize(
    "listing, message",
    [({"sequences": [[BSC] * 4]}, "sequence length 4 != n=5"),
     ({"sequences": [[BEC_2X3] * 5]},
      "extended sequences tamper the composed scheme, not a plain code"),
     ({"sequences": []}, "no sequences to verify"),
     ({"channels": {"bsc": BSC, "bec": BEC_2X3}, "sequences": "exhaustive"},
      "extended sequences tamper the composed scheme, not a plain code")],
    ids=["short-row", "erasure-row", "no-sequences", "erasure-channel-exhaustive"],
)
def test_nm_verify_checks_sequences_before_certifying(runner, tmp_path, listing,
                                                      message):
    # Certifying the 4^5 bit family would need 2048 evaluations, far over
    # budget 10; a listing the code cannot read is refused first.  A lazy
    # listing has each named channel's alphabet checked once.
    seqs = write(tmp_path, "seqs.json", listing)
    result = runner.invoke(
        main, ["nm-verify", str(DATA / "fixed_k2n5_code.json"),
               "--sequences", seqs, "--budget", "10"]
    )
    assert_invalid_input(result)
    assert message in result.output


def test_nm_verify_exhaustive_listing_is_its_rows(runner, tmp_path):
    # "exhaustive" over the file's three named channels is their 3^3 rows,
    # so its report is that of the explicit list of the 27 rows: the
    # maximum over S^n.
    channels = json.loads((DATA / "transfer_sequences.json").read_text())["channels"]
    rows = [list(row) for row in product(sorted(channels), repeat=3)]
    reports = []
    for listing in ("exhaustive", rows):
        seqs = write(tmp_path, "seqs.json", {"channels": channels, "sequences": listing})
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["nm-verify", str(DATA / "transfer_code.json"), "--sequences", seqs,
                   "--budget", "1000", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "= 1/16 over 27 sequences (bit-family bound 1/2)" in result.output
        report = json.loads(out.read_text())
        report.pop("provenance")
        reports.append(report)
    assert reports[0] == reports[1]
    assert len(reports[0]["sequences"]) == 27


@pytest.mark.parametrize("count, exit_code", [(1001, 3), (4, 0)])
def test_nm_verify_random_listing_budget(runner, tmp_path, monkeypatch, count,
                                         exit_code):
    # A random count above --budget exits 3 before the bit family is
    # certified; within it, the drawn rows are verified.
    certifications = counting(monkeypatch, cli, "certify_bit_family")
    channels = json.loads((DATA / "transfer_sequences.json").read_text())["channels"]
    seqs = write(tmp_path, "seqs.json", {
        "channels": channels, "sequences": {"random": count, "seed": 7},
    })
    result = runner.invoke(
        main, ["nm-verify", str(DATA / "transfer_code.json"), "--sequences", seqs,
               "--budget", "1000"]
    )
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert "spec draws 1001 random sequences, budget 1000" in result.output
        assert not certifications
    else:
        assert f"over {count} sequences" in result.output


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


@pytest.mark.parametrize("budget, exit_code", [("2048", 0), ("2047", 3)])
def test_nm_verify_sequences_budget_is_certification(runner, tmp_path, budget,
                                                     exit_code):
    # Certifying the 4^5 bit family of the k=2, n=5, rho=1 code charges
    # 4^5 * 2^1 = 2048 evaluations, which covers the row's 2^5 patterns
    # and its channel experiment (2^1 * 2^5 words).
    seqs = write(tmp_path, "seqs.json", {
        "channels": {"bsc": BSC, "z": {"rows": [["1", "0"], ["1/4", "3/4"]]}},
        "sequences": [["bsc", "z", "bsc", "z", "bsc"]],
    })
    result = runner.invoke(
        main, ["nm-verify", str(DATA / "fixed_k2n5_code.json"),
               "--sequences", seqs, "--budget", budget]
    )
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert ("bit-family certification needs 2048 evaluations, budget 2047"
                in result.output)


def test_nm_verify_sequences_certifies_once(runner, monkeypatch):
    certifications = counting(monkeypatch, cli, "certify_bit_family")
    result = runner.invoke(
        main, ["nm-verify", str(DATA / "transfer_code.json"), "--sequences",
               str(DATA / "transfer_sequences.json"), "--budget", "1000"]
    )
    assert result.exit_code == 0, result.output
    assert len(certifications) == 1


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
    "code, message",
    [
        # A codeword with a non-bit symbol, once certified at eps = 1/2.
        ({"k": 1, "n": 2, "rho": 0, "enc": {"0": ["0x"], "1": ["11"]},
          "dec": {"0x": "0", "11": "1"}},
         "word '0x' is not in {0,1}^2"),
        # A decoder value outside {0,1}^k.
        ({"k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
          "dec": {"00": "0", "11": "1", "01": "7"}},
         "decoder maps '01' to '7', not a message in {0,1}^1"),
        # A decoder key of the wrong length.
        ({"k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
          "dec": {"00": "0", "11": "1", "111": "1"}},
         "word '111' is not in {0,1}^2"),
        # Not a code object, and dimensions that are not integers >= 0.
        ([1, 2], "code JSON must be an object"),
        ({"k": "x", "n": 1, "rho": 0, "enc": {}, "dec": {}},
         "k must be an integer, got 'x'"),
        ({"k": -1, "n": 1, "rho": 0, "enc": {}, "dec": {}},
         "bad dimensions k=-1, n=1, rho=0"),
        ({"k": True, "n": 1, "rho": 0, "enc": {"0": ["0"], "1": ["1"]},
          "dec": {"0": "0", "1": "1"}},
         "k must be an integer, got True"),
        # An encoder table that is not an object.
        ({"k": 1, "n": 1, "rho": 0, "enc": [], "dec": {}},
         "encoder and decoder tables must be objects"),
        # 2^40 messages are named and none is given.
        ({"k": 40, "n": 41, "rho": 0, "enc": {}, "dec": {}},
         "encoder table must cover every message"),
        # Well-formed tables whose decoder sends message 0's codeword to 1.
        ({"k": 1, "n": 2, "rho": 0, "enc": {"0": ["00"], "1": ["11"]},
          "dec": {"00": "1", "11": "1"}},
         "dec(enc('0', 0)) = '1', violating perfect correctness"),
    ],
    ids=["non-bit-codeword", "non-message-dec-value", "long-dec-key",
         "json-array", "string-k", "negative-k", "bool-k", "list-enc",
         "huge-k", "incorrect-decoder"],
)
def test_nm_verify_malformed_code_exit_2(runner, tmp_path, code, message):
    # A malformed code is refused when it is loaded, before any budget is
    # charged: budget 0 would stop every certification with exit 3.
    path = write(tmp_path, "code.json", code)
    with time_limit(2):
        result = runner.invoke(
            main, ["nm-verify", path, "--family", "bit", "--budget", "0"]
        )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"error: {message}" in result.output


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
    [("1", "2", "-1"), ("-1", "2", "0"), ("0", "0", "0"), ("-3", "1", "5")],
    ids=["negative-rho", "negative-k", "empty-block", "negative-k-over-length"],
)
def test_search_bad_dimensions_exit_2(runner, dims):
    # A negative k is named as such, even when k + rho also exceeds n.
    k, n, rho = dims
    result = runner.invoke(
        main, ["search", "--k", k, "--n", n, "--rho", rho,
               "--trials", "2", "--seed", "1"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "search needs k >= 0" in result.output


@pytest.mark.parametrize("budget, exit_code", [("255", 3), ("256", 0)])
def test_search_bit_family_budget(runner, budget, exit_code):
    # The 4^4 = 256 BIT functions are counted against the budget before
    # the first one is made.
    result = runner.invoke(main, ["search", "--k", "1", "--n", "4", "--rho", "0",
                                  "--seed", "1", "--trials", "2", "--budget", budget])
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert "4^4 = 256 functions exceed the budget 255" in result.output


def demo_outer(tmp_path) -> str:
    """The shipped demo spec's outer generator, as its own file."""
    return write(tmp_path, "outer.json",
                 json.loads(Path(demo_spec_path()).read_text())["outer"])


@pytest.mark.parametrize("budget, exit_code", [("3124", 3), ("3125", 0)])
def test_induced_family_budget(runner, tmp_path, budget, exit_code):
    # certify-inner and search --induced-by count the 5^5 action
    # patterns of the demo's 4 -> 5 generator against the budget.
    outer = demo_outer(tmp_path)
    for args in (
        ["certify-inner", str(Path(demo_spec_path()).parent / "demo_inner_code.json"),
         outer],
        ["search", "--k", "1", "--n", "4", "--rho", "1", "--seed", "404",
         "--trials", "3", "--induced-by", outer],
    ):
        result = runner.invoke(main, [*args, "--budget", budget])
        assert result.exit_code == exit_code, result.output
        if exit_code == 3:
            assert "5^5 = 3125 functions exceed the budget 3124" in result.output


def test_search_induced_by_matches_library(runner, tmp_path):
    outer_file = demo_outer(tmp_path)
    out = tmp_path / "searched.json"
    result = runner.invoke(main, ["search", "--k", "1", "--n", "4", "--rho", "1",
                                  "--seed", "404", "--trials", "3",
                                  "--induced-by", outer_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    report.pop("provenance")
    assert report["meta"]["family_size"] == 1153
    assert report["meta"]["epsilon"] == "1/2"
    outer = GF2Matrix.from_json(json.loads(Path(outer_file).read_text()))
    expected = search_nm_code(1, 4, 1, family=induced_family(outer), trials=3, seed=404)
    assert report == expected.to_json()


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


@pytest.mark.parametrize(
    "budget, threshold, exit_code",
    [(31, None, 3), (32, None, 0), (1, "abc", 2), (1, "0.²", 2),
     (1, "٣/4", 2), (1, "1_0/3", 2), (1, " 1 / 2", 2), (1, "١", 2), (1, "1_000", 2)],
    ids=["31-3", "32-0", "malformed-threshold", "malformed-decimal-threshold",
         "arabic-indic-numerator", "underscore-numerator", "inner-spaces",
         "arabic-indic-integer", "underscore-integer"],
)
def test_composed_verify_demo_pattern_budget(
    runner, tmp_path, budget, threshold, exit_code
):
    # Every demo sequence expands into 2^5 patterns (two per position);
    # a budget below that stops the run before any pattern is built.  A
    # malformed --threshold stops it earlier still, before any work; a
    # superscript digit is not a decimal digit, and int() reads digits,
    # underscores and inner spaces that a rational may not hold.
    spec_file = demo_spec_with(tmp_path, budget=budget)
    options = ["--threshold", threshold] if threshold else []
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file, *options])
    assert result.exit_code == exit_code, result.output
    if exit_code == 3:
        assert "sequence expands into 32 patterns, budget 31" in result.output
    if exit_code == 2:
        kind = "decimal" if "." in threshold else "rational"
        assert f"bad {kind} string: {threshold!r}" in result.output


def test_composed_verify_huge_random_count_exits_3_at_once(runner, tmp_path):
    # 10^12 rows would fill the memory long before the last was drawn.
    spec_file = demo_spec_with(tmp_path, sequences={"random": 10**12, "seed": 1})
    with time_limit(5):
        result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == 3, result.output
    assert "spec draws 1000000000000 random sequences, budget 1000000" in result.output


@pytest.mark.parametrize("seed", [0, 1, 13, 404])
def test_random_sequence_rows_are_drawn_lazily(seed):
    # The random rows are a generator that draws each row as the walk
    # reads it, with the same rng calls in the same order as drawing
    # every row up front: on two positions of three states one row in
    # nine is all-special and redrawn.
    # The scheme is the identity inner code under the 1 -> 2 repetition
    # outer code, so rows have two positions.
    names, special = ["bec", "bsc", "z"], "bec"
    scheme = ComposedScheme(StochasticCode.from_json(IDENTITY_CODE_K1),
                            GF2Matrix.from_json({"rows": ["11"]}))
    spec = {"states": {"bec": BEC_1_10, "bsc": BSC, "z": Z_CHANNEL},
            "sequences": {"random": 40, "seed": seed}}
    sequences, exhaustive = cli._sequences(
        spec, "states", scheme, None, special_channel("1/10")
    )
    assert not exhaustive and iter(sequences) is sequences
    rng = random.Random(seed)
    eager = []
    while len(eager) < 40:
        row = tuple(rng.choice(names) for _ in range(2))
        if set(row) != {special}:
            eager.append(row)
    assert [seq.labels for seq in sequences] == eager


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
    # In the first spec the first row is listed twice; in the second a
    # state named "bsc#2" spells the label the third row's "#index"
    # would give.  Each listing keeps its own entry, its "#index"
    # appended until its label is new.
    bec = {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}
    listed = {
        "inner_code": json.loads((DATA / "transfer_code.json").read_text()),
        "outer": json.loads((DATA / "parity34.json").read_text()),
        "p_star": "1/10",
        "states": {"bec": bec, "bsc": BSC},
        "special_state": "bec",
        "sequences": [["bsc", "bec", "bsc", "bsc"], ["bsc"] * 4,
                      ["bsc", "bec", "bsc", "bsc"]],
        "budget": 1000,
    }
    shipped = json.loads((DATA / "composed_spec.json").read_text())
    flip = {"rows": [["0", "1", "0"], ["1", "0", "0"]]}
    named = {
        **shipped,
        "states": {**shipped["states"], "bsc#2": flip},
        "sequences": [["bsc"] * 4 + ["bsc#2"], ["bsc"] * 5, ["bsc"] * 5],
    }
    cases = [
        (listed, ["bsc,bec,bsc,bsc", "bsc,bec,bsc,bsc#2", "bsc,bsc,bsc,bsc"],
         "bsc,bec,bsc,bsc", "bsc,bec,bsc,bsc#2"),
        (named, ["bsc,bsc,bsc,bsc,bsc", "bsc,bsc,bsc,bsc,bsc#2",
                 "bsc,bsc,bsc,bsc,bsc#2#2"],
         "bsc,bsc,bsc,bsc,bsc", "bsc,bsc,bsc,bsc,bsc#2#2"),
    ]
    for spec, labels, first_label, repeat_label in cases:
        spec_file = write(tmp_path, "spec.json", spec)
        out = str(tmp_path / "report.json")
        result = runner.invoke(
            main, ["composed-verify", "--spec", spec_file, "--out", out]
        )
        assert result.exit_code == 0, result.output
        assert "over 3 sequences" in result.output
        report = json.loads(Path(out).read_text())
        assert report["sequences_checked"] == 3
        reported = report["sequences"]
        assert sorted(reported) == labels
        first, repeat = reported[first_label], reported[repeat_label]
        assert repeat["sequence"] == repeat_label
        assert {**repeat, "sequence": first["sequence"]} == first


def test_composed_verify_inline_state_copy(runner, tmp_path):
    # A row may give a state inline, as nm-verify's rows may: a binary
    # copy of "bsc", lifted to {0,1,e}, gives bsc's record under its own
    # label.
    spec = json.loads((DATA / "composed_spec.json").read_text())
    spec["sequences"] = [["z", "bec", "bsc", "bec", "z"], ["z", "bec", BSC, "bec", "z"]]
    spec_file = write(tmp_path, "spec.json", spec)
    out = str(tmp_path / "report.json")
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file, "--out", out])
    assert result.exit_code == 0, result.output
    reported = json.loads(Path(out).read_text())["sequences"]
    named, inline = reported["z,bec,bsc,bec,z"], reported["z,bec,inline2,bec,z"]
    assert inline["sequence"] == "z,bec,inline2,bec,z"
    assert {**inline, "sequence": named["sequence"]} == named


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
        {"sequences": {"random": 0, "seed": 1}},
        {"sequences": {"random": -1, "seed": 1}},
        {"sequences": {"random": True, "seed": 1}},
        {"sequences": {"random": 2, "seed": True}},
        # Only the special state, or copies of it: a random spec would
        # never draw a row.
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]}},
         "sequences": "exhaustive"},
        {"states": {"bec": BEC_1_10, "bec2": BEC_1_10}, "sequences": "exhaustive"},
        {"states": {"bec": BEC_1_10, "bec2": BEC_1_10},
         "sequences": {"random": 5, "seed": 3}},
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]},
                    "bsc": BSC, "z": NUMBER_ROWS}},
        {"states": {"bec": {"rows": [["9/10", "0", "1/10"], ["0", "9/10", "1/10"]]},
                    "bsc": BSC, "z": STRING_ROWS}},
        # A special state needs an erasure probability in [0, 1).
        {"p_star": "1"},
        {"p_star": "3/2"},
        {"p_star": "-1/10"},
    ],
    ids=["string-budget", "bool-budget", "float-budget", "negative-budget",
         "list-states", "list-special-state", "unknown-state-in-row",
         "empty-sequence-list", "zero-random-count", "negative-random-count", "bool-random-count",
         "bool-random-seed", "only-special-state", "only-special-copies",
         "only-special-copies-random", "number-row-state",
         "string-row-state", "p-star-one", "p-star-above-one", "p-star-negative"],
)
def test_composed_verify_malformed_spec_exit_2(runner, tmp_path, fields):
    spec = json.loads((DATA / "composed_spec.json").read_text())
    spec.update(fields)
    spec_file = write(tmp_path, "spec.json", spec)
    with time_limit(5):
        result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if "bec2" in fields.get("states", {}):
        assert "states need at least one channel besides the special state" in result.output
    if "p_star" in fields:
        assert f"p_star {fields['p_star']} outside [0, 1)" in result.output
    if fields.get("sequences") in ([], {"random": 0, "seed": 1}):
        assert "no sequences to verify" in result.output


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
    # decodes are the recovery route's, one per (erasure pattern, message,
    # seed); the correctness audit's 2 * 4 ran when the scheme was built.
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
    assert len(decoded) == 3**5 + 2**5 * 2 * 4
    assert set(decoded) == {split_word("".join(w)) for w in product("01e", repeat=5)}


def test_composed_verify_missing_field_exit_2(runner, tmp_path):
    spec_file = write(tmp_path, "spec.json", {"outer": PARITY_45})
    result = runner.invoke(main, ["composed-verify", "--spec", str(spec_file)])
    assert result.exit_code == 2


def assert_one_error(result, exit_code, text):
    """The contract's failure shape: the exit code, one error: line that
    holds text, and no traceback."""
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and text in errors[0], result.output
    assert "Traceback" not in result.output


def demo_states_with_copy() -> dict:
    """The demo's states and "bec2", a second state equal to the special
    state BEC(1/10)."""
    states = json.loads(Path(demo_spec_path()).read_text())["states"]
    return {**states, "bec2": states["bec"]}


@pytest.mark.parametrize(
    "sequences, checked",
    [("exhaustive", 4**5 - 2**5), ({"random": 50, "seed": 3}, 50)],
    ids=["exhaustive", "random"],
)
def test_composed_verify_skips_rows_of_special_copies(runner, tmp_path, sequences,
                                                      checked):
    # A state equal to BEC(p_star) is special whatever its name: the
    # exhaustive walk skips the 2^5 rows over {bec, bec2} of the 4^5, and
    # the random walk redraws them (seed 3 draws two before its 50th
    # row), so the library's all-special refusal is never reached.
    states = demo_states_with_copy()
    spec_file = demo_spec_with(tmp_path, states=states, sequences=sequences)
    out = str(tmp_path / "report.json")
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file, "--out", out])
    assert result.exit_code == 0, result.output
    report = json.loads(Path(out).read_text())
    assert report["sequences_checked"] == checked
    for label in report["sequences"]:
        assert not set(label.split("#")[0].split(",")) <= {"bec", "bec2"}


@pytest.mark.parametrize(
    "row, exit_code",
    [(["bec", "bec2", "bec", "bec2", "bec"], 2),
     (["bec", "bec2", "bsc", "bec2", "bec"], 0)],
    ids=["all-special", "mixed"],
)
def test_composed_verify_listed_special_copies(runner, tmp_path, row, exit_code):
    # A listed row is run as listed: one over copies of the special state
    # is refused by the library, one that mixes in bsc verifies.
    spec_file = demo_spec_with(tmp_path, states=demo_states_with_copy(),
                               sequences=[row])
    result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    if exit_code:
        assert_one_error(result, 2, "the all-special sequence is covered by the "
                                    "recovery requirement")
    else:
        assert result.exit_code == 0, result.output


def test_composed_verify_disagreeing_recovery_routes_exit_1(runner, monkeypatch):
    # The pipeline route and the rank route to delta must agree exactly.
    from nmavc import composed

    rank_route = composed.delta_exact
    monkeypatch.setattr(composed, "delta_exact",
                        lambda g, p: rank_route(g, p) + Fraction(1, 10**6))
    result = runner.invoke(
        main, ["composed-verify", "--spec", str(DATA / "composed_spec.json")]
    )
    assert_one_error(result, 1, "exact invariant violated: recovery routes disagree")


def test_nm_verify_violated_mixture_bound_exit_1(runner, monkeypatch):
    # The walk holds ds_sd <= weighted_bound for every sequence; a weighted
    # bound below every distance breaks it.
    from nmavc import verifier

    mixture = verifier._mixture

    def below(weights, entry_of):
        d_s, _, pattern_max = mixture(weights, entry_of)
        return d_s, Fraction(-1), pattern_max

    monkeypatch.setattr(verifier, "_mixture", below)
    result = runner.invoke(main, [
        "nm-verify", str(DATA / "transfer_code.json"), "--sequences",
        str(DATA / "transfer_sequences.json"), "--budget", "1000",
    ])
    assert_one_error(result, 1, "exact invariant violated: mixture bound violated")


def test_nm_verify_violated_transfer_inequality_exit_1(runner, monkeypatch):
    # The transfer holds eps_channel <= ds_sd for every sequence; a walk
    # that reports a negative ds_sd breaks it.
    from nmavc import verifier

    walk = verifier._verify_sequences

    def negative(*args):
        for seq, laws, record in walk(*args):
            record.epsilon = Fraction(-1)
            yield seq, laws, record

    monkeypatch.setattr(verifier, "_verify_sequences", negative)
    result = runner.invoke(main, [
        "nm-verify", str(DATA / "transfer_code.json"), "--sequences",
        str(DATA / "transfer_sequences.json"), "--budget", "1000",
    ])
    assert_one_error(result, 1, "exact invariant violated: transfer inequality violated")


def test_composed_verify_long_outer_exit_3(runner, tmp_path):
    # A 4 x 21 outer generator: the recovery route would enumerate 2^21
    # erasure patterns, over the 2^20 cap, so it stops before the first.
    rows = ["0" * i + "1" + "0" * (19 - i) + "1" for i in range(4)]
    spec_file = demo_spec_with(tmp_path, outer={"rows": rows})
    with time_limit(5):
        result = runner.invoke(main, ["composed-verify", "--spec", spec_file])
    assert_one_error(result, 3, "recovery enumeration needs 2^21 patterns")


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
# mass, the second the empty message label of k = 0; and (delta-exact,
# the 3 -> 4 parity code at p* = 1/10) before the nm-verify and
# composed-verify sequence walks became one;
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
        (["delta", str(DATA / "parity34.json"), "1/10"],
         "golden_delta_parity34.json"),
    ],
    ids=["nm-verify-sequences", "composed-verify", "composed-demo", "certify-inner",
         "decompose-alpha3", "decompose-lifted-bsc", "decompose-erase",
         "search-k1n4", "nm-verify-bit", "nm-verify-bit-k2n5",
         "nm-verify-bit-k1n4-same-star", "nm-verify-bit-k0n2-empty-message",
         "delta-exact"],
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


def test_negative_monte_carlo_seed_exit_2(runner):
    # The Philox stream takes no negative seed; it is invalid input.
    result = runner.invoke(main, ["delta", str(DATA / "parity34.json"), "1/10",
                                  "--monte-carlo", "100", "--seed", "-1"])
    assert_invalid_input(result)
    assert "seed must be >= 0" in result.output


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


def test_cli_import_loads_every_traced_module():
    # The benchmark's tracer wraps functions in the modules its TARGETS
    # name, looked up in sys.modules after `import nmavc.cli`; a module
    # that import leaves unloaded fails every traced run.
    traced = Path(__file__).parent.parent / "perfbench" / "traced.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(traced.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    modules = sorted({module for _, module, _ in targets})
    script = "import json, sys\nimport nmavc.cli\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert modules and [m for m in modules if m not in loaded] == []


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


#: A JSON array nested 200,000 deep: Python's decoder gives up with a
#: RecursionError long before the end.
DEEP_JSON = "[" * 200_000 + "]" * 200_000
#: An integer of 4,301 digits, one over Python's int conversion limit:
#: the decoder raises a ValueError that is not a JSONDecodeError.
HUGE_INT = "9" * 4301


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "{file}"],
        ["nm-verify", "{file}", "--family", "bit", "--budget", "10"],
        ["certify-inner", "{file}", str(DATA / "parity34.json")],
        ["composed-verify", "--spec", "{file}"],
    ],
    ids=["decompose", "nm-verify", "certify-inner", "composed-verify"],
)
def test_deeply_nested_json_exits_2(runner, tmp_path, args):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    result = runner.invoke(main, [arg.format(file=path) for arg in args])
    assert_invalid_input(result)
    assert result.output.count("error:") == 1
    assert f"error: {path} is nested too deeply to read" in result.output


@pytest.mark.parametrize("field", ["k", "budget"])
def test_integer_over_digit_limit_exits_2(runner, tmp_path, field):
    # "k" in a code file (nm-verify and certify-inner read it), "budget"
    # in a composed spec.
    if field == "k":
        text = json.dumps(IDENTITY_CODE_K1).replace('"k": 1', f'"k": {HUGE_INT}')
        path = tmp_path / "code.json"
        commands = [["nm-verify", str(path), "--family", "bit", "--budget", "10"],
                    ["certify-inner", str(path), str(DATA / "parity34.json")]]
    else:
        spec = json.loads(Path(demo_spec_with(tmp_path)).read_text())
        text = json.dumps({**spec, "budget": 0}).replace('"budget": 0', f'"budget": {HUGE_INT}')
        path = tmp_path / "huge.json"
        commands = [["composed-verify", "--spec", str(path)]]
    assert HUGE_INT in text
    path.write_text(text)
    for args in commands:
        result = runner.invoke(main, args)
        assert_invalid_input(result)
        assert result.output.count("error:") == 1
        assert f"error: {path} is not readable JSON: Exceeds the limit" in result.output
