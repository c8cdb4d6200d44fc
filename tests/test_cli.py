"""Command-line dispatch, exit codes, and report determinism.

Each invocation runs in-process through main(); exit status 0 means every
comparison agreed, 1 means at least one differed, 2 means a domain error.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import braidseed
from braidseed import cli
from braidseed.cartan import (
    PRESET_MATRICES,
    finite_type_data,
    preset,
)
from braidseed.cli import (
    CARTAN,
    COMMANDS,
    COMMON,
    campaign_contexts,
    main,
    mutation_campaign,
    parse_args,
    roundtrip_campaign,
    torus_campaign,
    tsystem_campaign,
)
from braidseed.errors import ConfigInvalid
from braidseed.reports import SCHEMA, parse_report
from braidseed.transitions import CONVENTIONS
from test_words import D5_FAR_PAIR

README = Path(__file__).resolve().parent.parent / "README.md"


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--format", "json", "--output", str(out)])
    return code, parse_report(out.read_bytes())


def section(report, name):
    return report.section(name)


def cartan_file(tmp_path, name):
    """The path of a JSON file that holds the matrix of a preset."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"matrix": preset(name).matrix}))
    return str(path)


def w0_argument(name):
    """The preset's canonical longest word as a --word argument."""
    return ",".join(map(str, finite_type_data(preset(name)).longest_word))


def test_verify_corollary_example(tmp_path):
    code, report = run(
        tmp_path, "verify", "corollary", "--cartan", "a2",
        "--word", "1,2,1", "--word", "2,1,2",
    )
    assert code == 0
    assert report.verdict == "Match"
    assert section(report, "exchange-relations").left is True


def test_verify_tsystem_example_with_inferred_context(tmp_path):
    code, report = run(
        tmp_path, "verify", "tsystem", "--word", "1,2,1", "--box", "1,3"
    )
    assert code == 0
    assert section(report, "tropical-identity").agree


def test_inferred_context_refuses_a_letter_that_is_not_an_integer(tmp_path):
    code, report = run(tmp_path, "verify", "tsystem", "--word", "1,x", "--box", "1,2")
    assert code == 2
    assert error_kind(report) == ("Error", "ConfigInvalid")


def test_an_inferred_context_past_the_budget_is_refused_at_once(tmp_path, monkeypatch):
    # rank 10^6 would be a dense matrix of 10^12 cells
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    start = time.perf_counter()
    code, report = run(tmp_path, "verify", "tsystem", "--word", "1000000,1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert error_kind(report) == ("Error", "BudgetExhausted")
    assert report.metadata["error"]["message"] == (
        "cartan: an inferred type-A context of rank 1000000 has 1000000000000 "
        "matrix cells, over the budget of 200000"
    )


def run_quietly(*argv):
    """main(argv) with a JSON report on stdout: (exit code, report, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return code, parse_report(out.getvalue().encode()), err.getvalue()


@pytest.mark.parametrize("length", [255, 256, 4096])
def test_a_cartan_name_too_long_for_a_file_is_an_unknown_preset(length):
    # a name over 255 bytes makes the file check raise ENAMETOOLONG
    code, report, err = run_quietly("cartan", "check", "--cartan", "x" * length)
    assert (code, err) == (2, "")
    assert error_kind(report) == ("Error", "NotGCM")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "tsystem", "--word", "1," + "9" * 2200),
            "cartan: an inferred type-A context of a 2200-digit rank, over the "
            "budget of 200000",
        ),
        (
            ("cartan", "check", "--cartan", "a" + "9" * 4400),
            "type-A context of a 4400-digit rank, over the budget of 200000",
        ),
    ],
    ids=["inferred", "preset"],
)
def test_a_rank_past_the_decimal_digit_limit_is_past_the_budget(monkeypatch, argv, message):
    # n * n, or the numeral itself, is past Python's 4,300-digit int/str limit
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    code, report, err = run_quietly(*argv)
    assert (code, err) == (2, "")
    assert error_kind(report) == ("Error", "BudgetExhausted")
    assert report.metadata["error"]["message"] == message


def test_d6_w0_equals_its_reverse_without_a_search(tmp_path):
    # two reduced words of w0: the move-graph search ran out of its budget
    # here after about 3 s, one Weyl walk per word answers at once
    cartan = cartan_file(tmp_path, "d6")
    w0 = finite_type_data(preset("d6")).longest_word
    start = time.perf_counter()
    code, report = run(
        tmp_path, "words", "equal", "--cartan", cartan,
        "--word", ",".join(map(str, w0)), "--word", ",".join(map(str, w0[::-1])),
    )
    assert time.perf_counter() - start < 0.1
    assert (code, report.verdict) == (0, "Match")


def test_words_path_not_connected_exits_2(tmp_path):
    code, report = run(
        tmp_path, "words", "path", "--cartan", "a2",
        "--word", "1,2,1", "--word", "1,1,2",
    )
    assert code == 2
    assert report.verdict == "Error"
    assert report.metadata["error"]["kind"] == "NotConnected"


def test_words_path_replays_onto_the_target(tmp_path):
    code, report = run(
        tmp_path, "words", "path", "--cartan", "b2",
        "--word", "1,2,1,2", "--word", "2,1,2,1",
    )
    assert code == 0
    assert section(report, "length").left == 1
    assert section(report, "replay").left == [2, 1, 2, 1]


def test_words_equal_uses_mismatch_for_inequality(tmp_path):
    code, _ = run(
        tmp_path, "words", "equal", "--cartan", "a2",
        "--word", "1,2,1", "--word", "2,1,2",
    )
    assert code == 0
    code, report = run(
        tmp_path, "words", "equal", "--cartan", "a2",
        "--word", "1,2,2", "--word", "2,1,2",
    )
    assert code == 1
    assert report.verdict == "Mismatch"


def test_words_moves_lists_involutive_rewrites(tmp_path):
    code, report = run(
        tmp_path, "words", "moves", "--cartan", "a2", "--word", "1,2,1"
    )
    assert code == 0
    assert section(report, "result-Three@1").left == [2, 1, 2]
    assert section(report, "involutive").agree


def test_words_ibox_reports_vector(tmp_path):
    code, report = run(
        tmp_path, "words", "ibox", "--cartan", "a2",
        "--word", "1,2,1", "--box", "1,3",
    )
    assert code == 0
    assert section(report, "vector").left == [1, 0, 1]
    assert section(report, "endpoint-letters").agree


def test_transition_apply_round_trips(tmp_path):
    code, report = run(
        tmp_path, "transition", "apply", "--cartan", "a2", "--word", "1,2,1",
        "--move", "3,1", "--vector", "2,0,1", "--vector", "0,3,1",
    )
    assert code == 0
    assert section(report, "image-1").left == [0, 1, 1]
    assert section(report, "round-trip-2").agree


def test_words_ibox_of_an_inverted_box_is_empty(tmp_path):
    code, report = run(
        tmp_path, "words", "ibox", "--cartan", "a2",
        "--word", "1,2,1", "--box", "3,1",
    )
    assert (code, report.verdict) == (0, "Match")
    assert section(report, "empty").left is True
    assert section(report, "vector").left == [0, 0, 0]


# Option values that parse as strings but not as what their flag names:
# each is a ConfigInvalid report of the route, with its own message.
APPLY = ["transition", "apply", "--cartan", "a2", "--word", "1,2,1", "--vector", "2,0,1"]
PHI = ["qdatum", "phi", "--cartan", "a2", "--height", "1,0"]
MALFORMED_VALUES = [
    (APPLY + ["--move", "3"], "move: expected KIND,POSITION (e.g. 3,2)"),
    (APPLY + ["--move", "5,1"], "move: unknown kind '5', expected 2, 3, or 4"),
    (APPLY + ["--move", "3,x"], "move: position must be an integer"),
    (
        ["seed", "mutate", "--cartan", "a2", "--word", "1,2,1", "--at", ","],
        "at: empty mutation sequence",
    ),
    (PHI + ["--point", "1"], "point: expected vertex,level"),
    (PHI + ["--point", "1,x"], "point: expected vertex,level"),
]


@pytest.mark.parametrize(
    "argv,message", MALFORMED_VALUES, ids=[" ".join(a[-2:]) for a, _ in MALFORMED_VALUES]
)
def test_malformed_option_values_are_config_invalid(tmp_path, argv, message):
    code, report = run(tmp_path, *argv)
    assert code == 2
    assert error_kind(report) == ("Error", "ConfigInvalid")
    assert report.metadata["error"]["message"] == message


def test_transition_verify_ibox(tmp_path):
    code, report = run(
        tmp_path, "transition", "verify-ibox", "--cartan", "a2",
        "--word", "1,2,1", "--move", "3,1", "--box", "1,3",
    )
    assert code == 0
    assert section(report, "transported-vector").agree


def test_seed_build_writes_the_seed_artifact(tmp_path):
    artifact = tmp_path / "seed.json"
    code, report = run(
        tmp_path, "seed", "build", "--cartan", "a2", "--word", "1,2,1",
        "--out", str(artifact),
    )
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["labels"] == ["D[1,3]", "D[2,2]", "D[3,3]"]
    assert payload["exchange"] == [3]
    assert section(report, "compatible").agree


def test_seed_build_reaches_the_d6_longest_word(tmp_path):
    code, report = run(
        tmp_path, "seed", "build", "--cartan", cartan_file(tmp_path, "d6"),
        "--word", w0_argument("d6"),
    )
    assert code == 0
    assert len(section(report, "labels").left) == 30
    assert section(report, "compatible").agree


def test_words_path_joins_far_d5_longest_words(tmp_path):
    start, end = (",".join(w) for w in D5_FAR_PAIR)
    code, report = run(
        tmp_path, "words", "path", "--cartan", cartan_file(tmp_path, "d5"),
        "--kind", "weyl-reduced", "--word", start, "--word", end,
    )
    assert code == 0
    assert section(report, "length").left == 38
    assert section(report, "replay").left == list(map(int, D5_FAR_PAIR[1]))


def test_verify_corollary_matches_d5_longest_word_against_its_reverse(tmp_path):
    # 78 moves apart; the breadth-first rounds of the move-graph search ran
    # out of the default budget here and the route exited 2 with NotConnected
    w0 = finite_type_data(preset("d5")).longest_word
    code, report = run(
        tmp_path, "verify", "corollary", "--cartan", "d5",
        "--word", ",".join(map(str, w0)), "--word", ",".join(map(str, reversed(w0))),
    )
    assert code == 0
    assert report.verdict == "Match"
    assert len(section(report, "path").left) == 78


def test_seed_mutate_exact_step(tmp_path):
    code, report = run(
        tmp_path, "seed", "mutate", "--cartan", "a2", "--word", "1,2,1",
        "--at", "3", "--exact",
    )
    assert code == 0
    assert section(report, "exchange-step-1").agree
    assert section(report, "exchange-exponents-1").left == {"alpha2": -1, "beta2": 1}
    assert section(report, "involutive").agree


def test_seed_mutate_frozen_slot_errors(tmp_path):
    code, report = run(
        tmp_path, "seed", "mutate", "--cartan", "a2", "--word", "1,2,1", "--at", "1"
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "FrozenIndex"


def test_seed_tsystem_exact_box(tmp_path):
    code, report = run(
        tmp_path, "seed", "tsystem", "--cartan", "a2",
        "--word", "1,2,1,2", "--box", "2,4", "--exact",
    )
    assert code == 0
    assert section(report, "exact-exchange").agree
    assert section(report, "exchange-exponents").left == {"alpha2": 1, "beta2": -1}


def test_verify_tsystem_sweeps_all_boxes(tmp_path):
    code, report = run(
        tmp_path, "verify", "tsystem", "--cartan", "b2", "--word", "1,2,1,2,1"
    )
    assert code == 0
    assert section(report, "failures").left == []
    assert section(report, "boxes-checked").left > 0


def test_qdatum_commands(tmp_path):
    code, report = run(
        tmp_path, "qdatum", "adapted-word", "--cartan", "a2", "--height", "1,0"
    )
    assert code == 0
    assert section(report, "word").left == [1, 2, 1]
    code, report = run(
        tmp_path, "qdatum", "window", "--cartan", "a2", "--height", "1,0", "--k", "0"
    )
    assert code == 0
    assert section(report, "period-image").agree
    code, report = run(
        tmp_path, "qdatum", "phi", "--cartan", "a2", "--height", "1,0",
        "--point", "2,0",
    )
    assert code == 0
    assert section(report, "phi").left == {"root": [1, 1], "level": 0}
    code, report = run(
        tmp_path, "qdatum", "phi", "--cartan", "a2", "--height", "1,0",
        "--point", "2,1",
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "PointOutsideLattice"


@pytest.mark.parametrize("point", ["5,0", "x,1"])
def test_qdatum_phi_names_an_unknown_vertex(tmp_path, point):
    code, report = run(
        tmp_path, "qdatum", "phi", "--cartan", "a2", "--height", "1,0",
        "--point", point,
    )
    assert code == 2
    error = report.metadata["error"]
    assert error["kind"] == "PointOutsideLattice"
    assert "is not in the index set" in error["message"]
    assert "parity" not in error["message"]


def test_qdatum_ntab_reproduces_the_rank_one_value(tmp_path):
    code, report = run(
        tmp_path, "qdatum", "ntab", "--cartan", "a1", "--range", "3"
    )
    assert code == 0
    row = section(report, "n-1-1").left
    assert row[5] == 2  # levels -3..3, so index 5 is p = +2
    assert section(report, "antisymmetric").agree
    assert section(report, "translation-invariant").agree


def test_qdatum_ntab_range_is_bounded_by_the_series_budget(tmp_path, monkeypatch):
    # the series of order 2R + 4 has (2R + 4) * rank^2 cells: 16 * 4 = 64
    # for R = 6 on a2, one over a budget of 63
    monkeypatch.setenv("BRAIDSEED_BUDGET", "64")
    assert run(tmp_path, "qdatum", "ntab", "--cartan", "a2", "--range", "6")[0] == 0
    monkeypatch.setenv("BRAIDSEED_BUDGET", "63")
    code, report = run(tmp_path, "qdatum", "ntab", "--cartan", "a2", "--range", "6")
    assert code == 2
    assert error_kind(report) == ("Error", "BudgetExhausted")
    monkeypatch.delenv("BRAIDSEED_BUDGET")
    start = time.perf_counter()
    code, report = run(tmp_path, "qdatum", "ntab", "--cartan", "a2", "--range", "100000000")
    assert time.perf_counter() - start < 1
    assert error_kind(report) == ("Error", "BudgetExhausted")


def test_cartan_check_json_file(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"matrix": PRESET_MATRICES["b2"]}))
    code, report = run(tmp_path, "cartan", "check", "--cartan", str(path))
    assert code == 0
    assert section(report, "symmetrized").agree
    assert section(report, "longest-word-length").left == 4
    # inputs holds digests, not paths: the file names the preset's matrix
    _, named = run(tmp_path, "cartan", "check", "--cartan", "b2")
    assert report.metadata["inputs"]["cartan"] == named.metadata["inputs"]["cartan"]


def test_cartan_check_of_affine_a1_is_not_finite_type(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]]}))
    code, report = run(tmp_path, "cartan", "check", "--cartan", str(path))
    assert (code, report.verdict) == (1, "Mismatch")
    finite = section(report, "finite-type")
    assert (finite.left, finite.right) == (False, True)
    assert section(report, "symmetrized").agree


def test_cartan_check_rejects_unknown_preset(tmp_path):
    # names outside the finite families among them
    for name in ("zz9", "e5", "d3", "a03"):
        code, report = run(tmp_path, "cartan", "check", "--cartan", name)
        assert code == 2
        assert report.metadata["error"] == {
            "kind": "NotGCM", "message": f"unknown Cartan preset {name!r}"
        }


def test_cartan_check_names_e8(tmp_path):
    code, report = run(tmp_path, "cartan", "check", "--cartan", "e8")
    assert (code, report.verdict) == (0, "Match")
    assert section(report, "positive-roots").left == 120
    assert section(report, "coxeter-number").left == 30
    assert section(report, "longest-word-length").left == 120


def test_verify_corollary_matches_e6_longest_word_against_its_reverse(tmp_path):
    # 152 moves apart
    w0 = finite_type_data(preset("e6")).longest_word
    code, report = run(
        tmp_path, "verify", "corollary", "--cartan", "e6",
        "--word", ",".join(map(str, w0)), "--word", ",".join(map(str, reversed(w0))),
    )
    assert (code, report.verdict) == (0, "Match")


def test_seed_build_names_d7(tmp_path):
    code, report = run(
        tmp_path, "seed", "build", "--cartan", "d7", "--word", w0_argument("d7")
    )
    assert (code, report.verdict) == (0, "Match")
    assert len(section(report, "labels").left) == 42
    assert section(report, "compatible").agree


MALFORMED_CARTAN = [
    ({"matrix": [[2, "x"], [-1, 2]]}, "matrix row"),
    ({"matrix": 5}, "matrix"),
    ({"matrix": [[2, -1], [-1, 2]], "indices": [[1], [2]]}, "indices"),
    ({"matrix": [[2, -1], [-1, 2]], "symmetrizer": [1, True]}, "symmetrizer"),
]


def error_kind(report):
    return report.verdict, report.metadata["error"]["kind"]


@pytest.mark.parametrize("payload,field", MALFORMED_CARTAN)
def test_cartan_check_rejects_malformed_json(tmp_path, payload, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, report = run(tmp_path, "cartan", "check", "--cartan", str(path))
    assert code == 2
    assert error_kind(report) == ("Error", "NotGCM")
    assert f"JSON {field}:" in report.metadata["error"]["message"]


@pytest.mark.parametrize(
    "content,kind", [(b"{not json", "NotGCM"), (b"\xff\xfe", "ConfigInvalid")]
)
def test_cartan_check_rejects_unparseable_file(tmp_path, content, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, report = run(tmp_path, "cartan", "check", "--cartan", str(path))
    assert code == 2
    assert error_kind(report) == ("Error", kind)


@pytest.mark.parametrize("payload", [payload for payload, _ in MALFORMED_CARTAN[:2]])
def test_qdatum_adapted_word_rejects_malformed_json(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, report = run(
        tmp_path, "qdatum", "adapted-word", "--cartan", str(path), "--height", "1,0"
    )
    assert code == 2
    assert error_kind(report) == ("Error", "NotGCM")


@pytest.mark.parametrize(
    "command",
    [
        ["adapted-word"],
        ["build"],
        ["window", "--k", "0"],
        ["phi", "--point", "1,0"],
    ],
)
def test_qdatum_without_a_coxeter_number_is_an_error(tmp_path, command):
    # 2|R+|/|I| is no Coxeter number of A1 x A2 (8/3) or of A1^3 x A3 (3),
    # but each component's windows step by its own, so every route answers
    # and each report's own checks pass
    a1xa3 = [[2 if a == b else -1 if min(a, b) >= 3 and abs(a - b) == 1 else 0
              for b in range(6)] for a in range(6)]
    for name, matrix, heights in (
        ("a1xa2", [[2, 0, 0], [0, 2, -1], [0, -1, 2]], "0,0,1"),
        ("a1cubedxa3", a1xa3, "0,0,0,0,1,2"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": matrix}))
        code, report = run(
            tmp_path, "qdatum", *command, "--cartan", str(path), "--height", heights
        )
        assert (code, report.verdict) == (0, "Match")
        assert report.sections and all(s.agree for s in report.sections)


def test_python_dash_m_runs_the_cli():
    src = Path(braidseed.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "braidseed", "cartan", "check", "--cartan", "a2"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith(b"braidseed-report/1")


def test_seed_build_unwritable_out_is_an_error(tmp_path):
    target = tmp_path / "missing" / "seed.json"
    code, report = run(
        tmp_path, "seed", "build", "--cartan", "a2", "--word", "1,2,1",
        "--out", str(target),
    )
    assert code == 2
    assert error_kind(report) == ("Error", "ConfigInvalid")
    assert not target.exists()


def test_unwritable_output_reports_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code = main(["cartan", "check", "--cartan", "a2", "--output", str(target)])
    assert code == 2
    out = capsys.readouterr().out
    assert "verdict Error" in out and "ConfigInvalid" in out
    assert not target.exists()


def test_budget_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "lots")
    code = main(["cartan", "check", "--cartan", "a2"])
    assert code == 2
    assert "ConfigInvalid" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3", "lots"])
def test_a_bad_budget_env_is_refused_on_a_route_that_reads_no_budget(
    monkeypatch, capsys, value
):
    # cartan check searches nothing, and still refuses the setting first
    monkeypatch.setenv("BRAIDSEED_BUDGET", value)
    assert main(["cartan", "check", "--cartan", "a2", "--format", "json"]) == 2
    report = parse_report(capsys.readouterr().out.encode())
    assert report.verdict == "Error"
    assert report.metadata["error"]["kind"] == "ConfigInvalid"
    assert "BRAIDSEED_BUDGET" in report.metadata["error"]["message"]


def test_qdatum_phi_far_point_is_budgeted(tmp_path, monkeypatch):
    argv = ("qdatum", "phi", "--cartan", "a2", "--height", "1,0", "--point", "2,20000")
    # phi reads the Q-datum's extension index and walks nothing, so no
    # budget bounds it, however far the point lies from its height
    monkeypatch.setenv("BRAIDSEED_BUDGET", "5")
    code, report = run(tmp_path, *argv)
    assert (code, report.verdict) == (0, "Match")
    assert section(report, "phi").left == {"root": [0, 1], "level": 6667}


def test_config_invalid_budget(capsys):
    # the budget is BRAIDSEED_BUDGET alone: --budget is an unknown flag
    code = main(
        ["words", "equal", "--cartan", "a2", "--word", "1,2", "--word", "2,1",
         "--budget", "5", "--format", "json"]
    )
    assert code == 2
    report = parse_report(capsys.readouterr().out.encode())
    assert report.metadata["command"] == ["parse"]
    assert report.metadata["error"]["kind"] == "ConfigInvalid"
    assert "--budget" in report.metadata["error"]["message"]


def test_seed_build_exact_takes_a_word_longer_than_8(tmp_path):
    # no word length is refused on the exact track; the budget bounds it
    code, report = run(
        tmp_path, "seed", "build", "--cartan", "a2",
        "--word", "1,2,1,2,1,2,1,2,1", "--exact",
    )
    assert code == 0
    assert section(report, "compatible").agree


def test_verify_corollary_exact_matches_d5_longest_word_against_its_reverse(tmp_path):
    w0 = finite_type_data(preset("d5")).longest_word
    code, report = run(
        tmp_path, "verify", "corollary", "--cartan", cartan_file(tmp_path, "d5"), "--exact",
        "--word", ",".join(map(str, w0)), "--word", ",".join(map(str, reversed(w0))),
    )
    assert (code, report.verdict) == (0, "Match")
    assert section(report, "exchange-relations").agree


def test_verify_all_takes_no_cartan(capsys):
    argv = ["verify", "all", "--rank-cap", "1", "--length-cap", "2"]
    assert main(argv + ["--cartan", "a2", "--format", "json"]) == 2
    report = parse_report(capsys.readouterr().out.encode())
    assert report.metadata["command"] == ["parse"]
    assert report.metadata["error"]["kind"] == "ConfigInvalid"
    assert "--cartan" in report.metadata["error"]["message"]


@pytest.mark.parametrize("flag", ["--exact", "--brace"])
def test_verify_tsystem_takes_exact_and_brace_only_with_a_box(tmp_path, flag):
    word = ("verify", "tsystem", "--word", "1,2,1,2")
    code, report = run(tmp_path, *word, flag)
    assert code == 2
    assert error_kind(report) == ("Error", "ConfigInvalid")
    assert "--box" in report.metadata["error"]["message"]
    code, report = run(tmp_path, *word, flag, "--box", "2,4")
    assert (code, report.verdict) == (0, "Match")


@pytest.mark.parametrize("command", ["verify", "seed"])
@pytest.mark.parametrize("box", ["", " , ", "1", "1,3,4"])
def test_tsystem_refuses_a_given_malformed_box(tmp_path, command, box):
    # a --box that is given is parsed, never read as no box
    code, report = run(
        tmp_path, command, "tsystem", "--cartan", "a2", "--word", "1,2,1", "--box", box
    )
    assert code == 2
    assert error_kind(report) == ("Error", "ConfigInvalid")
    assert report.metadata["error"]["message"] == "box: expected lo,hi"


def test_seed_tsystem_refuses_the_empty_box_once(tmp_path):
    # tsystem_check's InvalidBox is the one refusal of the empty box
    code, report = run(
        tmp_path, "seed", "tsystem", "--cartan", "a2", "--word", "1,2,1,2", "--box", "3,2"
    )
    assert code == 2
    assert error_kind(report) == ("Error", "InvalidBox")


def test_budget_env_override(tmp_path, monkeypatch):
    # the search from 1,2,1,3,2,1 reaches 3,2,1,3,2,3, 7 moves away, once
    # it may discover 8 words
    argv = ("words", "path", "--cartan", "a3", "--word", "1,2,1,3,2,1", "--word", "3,2,1,3,2,3")
    monkeypatch.setenv("BRAIDSEED_BUDGET", "8")
    code, report = run(tmp_path, *argv)
    assert (code, section(report, "length").left) == (0, 7)
    monkeypatch.setenv("BRAIDSEED_BUDGET", "7")
    code, report = run(tmp_path, *argv)
    assert error_kind(report) == ("Error", "NotConnected")
    message = report.metadata["error"]["message"]
    assert message.startswith("move-graph search from") and "after 7 words" in message


def test_budget_exhaustion_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    code, report = run(
        tmp_path, "words", "equal", "--cartan", "a3",
        "--word", "1,1,2,1,3,2,1", "--word", "3,2,3,1,2,3,3",
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "BudgetExhausted"


A6_W0 = "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1,6,5,4,3,2,1"


def test_lattice_budget_exhaustion_is_an_error(tmp_path, monkeypatch):
    # the A6 w0 pairing search needs 1,565 nodes
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1000")
    code, report = run(
        tmp_path, "seed", "build", "--cartan", cartan_file(tmp_path, "a6"),
        "--kind", "weyl-reduced", "--word", A6_W0,
    )
    assert code == 2
    assert report.verdict == "Error"
    assert report.metadata["error"]["kind"] == "BudgetExhausted"


def test_a6_w0_seed_builds_at_the_default_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    code, report = run(
        tmp_path, "seed", "build", "--cartan", cartan_file(tmp_path, "a6"),
        "--kind", "weyl-reduced", "--word", A6_W0,
    )
    assert code == 0
    assert section(report, "compatible").agree


def test_malformed_word_reports_config_error(capsys):
    code = main(["words", "moves", "--cartan", "a2", "--word", ","])
    assert code == 2
    out = capsys.readouterr().out
    assert "ConfigInvalid" in out


def test_reports_are_byte_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = [
        "verify", "corollary", "--cartan", "b2",
        "--word", "1,2,1,2", "--word", "2,1,2,1", "--format", "json",
    ]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_all_small_caps(tmp_path):
    code, report = run(
        tmp_path, "verify", "all", "--length-cap", "3", "--rank-cap", "2", "--exact"
    )
    assert code == 0
    names = [name for name, _ in campaign_contexts(2)]
    assert section(report, "contexts").left == names
    for name in names:
        assert section(report, f"round-trip-failures-{name}").left == []
        assert section(report, f"mutation-failures-{name}").left == []
        assert section(report, f"tsystem-failures-{name}").left == []
        assert section(report, f"torus-failures-{name}").left == []


@pytest.mark.parametrize("budget,code", [("5", 0), ("4", 2)])
def test_verify_all_counts_its_words_against_the_budget(
    tmp_path, monkeypatch, budget, code
):
    # --rank-cap 1 runs a1 only: words of length 1..5, one of each length
    monkeypatch.setenv("BRAIDSEED_BUDGET", budget)
    got, report = run(tmp_path, "verify", "all", "--rank-cap", "1", "--length-cap", "5")
    assert got == code
    if code:
        assert report.metadata["error"]["kind"] == "BudgetExhausted"


def test_verify_all_refuses_a_long_length_cap_at_once(tmp_path, monkeypatch):
    # a rank-3 context has more than 10^14 words of length at most 30
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    start = time.monotonic()
    code, report = run(tmp_path, "verify", "all", "--length-cap", "30")
    assert code == 2
    assert report.metadata["error"]["kind"] == "BudgetExhausted"
    assert time.monotonic() - start < 5.0


def test_campaign_contexts_exclude_6_move_types():
    names = [name for name, _ in campaign_contexts(3)]
    assert "g2" not in names
    assert "a3" in names and "b2" in names


def test_campaigns_report_zero_failures_quickly():
    cd = preset("b2")
    checked, failures = roundtrip_campaign(cd, 5)
    assert checked > 0 and failures == []
    checked, failures = mutation_campaign(cd, 4)
    assert checked > 0 and failures == []
    checked, failures = tsystem_campaign(cd, 5)
    assert checked > 0 and failures == []
    checked, failures = torus_campaign(cd, 4, pairs=50)
    assert checked == 50 and failures == []


def test_parse_args_rejects_empty_word():
    with pytest.raises(ConfigInvalid):
        parse_args(["words", "moves", "--cartan", "a2", "--word", " , "])


# A usage error that argparse detects is a ConfigInvalid report of the parse
# stage on stdout, like every other malformed input.
USAGE_ERRORS = [
    ["bogus"],
    ["qdatum", "window", "--height", "1", "--k", "x"],
    ["words", "ibox", "--cartan", "a2", "--word", "1,2,1"],
    ["cartan", "check", "--cartan", "a2", "--format", "xml"],
    ["cartan", "check", "--cartan", "a2", "--frobnicate"],
]

USAGE_ERROR_TEXTS = [
    "braidseed: argument group: invalid choice: 'bogus' (choose from 'cartan', "
    "'words', 'transition', 'seed', 'qdatum', 'verify')",
    "braidseed qdatum window: argument --k: invalid int value: 'x'",
    "braidseed words ibox: the following arguments are required: --box",
    "braidseed cartan check: argument --format: invalid choice: 'xml' "
    "(choose from 'text', 'json')",
    "braidseed: unrecognized arguments: --frobnicate",
]


@pytest.mark.parametrize("argv, text", zip(USAGE_ERRORS, USAGE_ERROR_TEXTS), ids=" ".join)
def test_the_one_parser_raises_the_same_usage_error_on_every_call(argv, text):
    # one parser per process: built on the first call, kept by the rest
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(ConfigInvalid) as err:
            parse_args(argv)
        assert str(err.value) == text


def test_back_to_back_parse_args_share_no_list():
    apply = ["transition", "apply", "--cartan", "a2", "--move", "3,1"]
    both = apply + ["--word", "1,2,1", "--word", "2,1,2", "--vector", "2,0,1", "--vector", "0,3,1"]
    one = apply + ["--word", "1,2,1", "--vector", "0,3,1"]
    bare = ["words", "moves", "--cartan", "a2"]
    for _ in range(2):
        first, second, third = parse_args(both), parse_args(one), parse_args(bare)
        assert first.options["words"] == ((1, 2, 1), (2, 1, 2))
        assert first.options["vectors"] == ((2, 0, 1), (0, 3, 1))
        assert second.options["words"] == ((1, 2, 1),)
        assert second.options["vectors"] == ((0, 3, 1),)
        assert third.options["words"] == ()
        # what a config holds is no list, so no call can change another's
        for config in (first, second, third):
            assert not any(isinstance(v, list) for v in config.options.values())
    # the append actions copied their defaults: the parser's stay empty
    assert vars(cli._build_parser().parse_args(bare))["word"] == []


PARSE_ERROR_HEAD = [SCHEMA, "verdict Error", 'meta command ["parse"]']


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_config_invalid_reports(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:3] == PARSE_ERROR_HEAD
    assert lines[3].startswith('meta error {"kind":"ConfigInvalid"')


@pytest.mark.parametrize(
    "argv",
    [["bogus", "--format", "json"], ["seed", "build", "--format=json", "--exact-cap", "8"]],
    ids=" ".join,
)
def test_usage_errors_take_the_format_argv_names(argv, capsys):
    assert main(argv) == 2
    report = parse_report(capsys.readouterr().out.encode())
    assert report.exit_code == 2
    assert report.metadata["command"] == ["parse"]
    assert report.metadata["error"]["kind"] == "ConfigInvalid"


def test_negative_values_read_as_flag_values(capsys):
    spaced = ["qdatum", "build", "--cartan", "a2", "--height", "-1,0"]
    joined = ["qdatum", "build", "--cartan", "a2", "--height=-1,0"]
    for fmt in ("text", "json"):
        assert main(spaced + ["--format", fmt]) == 0
        first = capsys.readouterr().out
        assert main(joined + ["--format", fmt]) == 0
        assert capsys.readouterr().out == first


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["words", "ibox", "--help"])
    assert exc.value.code == 0
    assert "--box BOX" in capsys.readouterr().out


# SHA-256 of the JSON report of at least one invocation per route, pinned
# before the routes were declared in COMMANDS: a new digest means new report
# bytes.  The qdatum routes are also pinned on a3 at k = +-1 and with rank-3
# series rows, where the neighbour sums and per-pair rows are not trivial.
# seed build runs without --out, whose path is hashed into meta inputs.
ROUTE_DIGESTS = [
    ("cartan check --cartan b2", 0,
     "71a9da4d08951743e191004b78272a1da8e6eb4f8c7671adc7c8c6c339e90d93"),
    ("words moves --cartan a2 --word 1,2,1", 0,
     "a2da9507c3343c437c14ecbe66fff4afbd1d6fd86efb596646e87e6ea135d511"),
    ("words path --cartan b2 --word 1,2,1,2 --word 2,1,2,1", 0,
     "8fd59d1e7ff3286cf8c218057e6c613e7c71195b6d8196fb196a84e130e753ab"),
    ("words equal --cartan a2 --word 1,2,1 --word 2,1,2", 0,
     "0c0ca861b2643aad744bb38bb222ddaef7d784bb3e6e273e9c0d739d40fe6113"),
    ("words ibox --cartan a2 --word 1,2,1 --box 1,3", 0,
     "b46e1f8fb7d92f8c228343faedc3d1eedfa2c3453db4f75458f68643d70ff9d3"),
    ("transition apply --cartan a2 --word 1,2,1 --move 3,1 --vector 2,0,1", 0,
     "04b2cdc7284f0c7a6814109351d73ae00538e6c5fabc8b51d3646672849b258e"),
    ("transition verify-ibox --cartan a2 --word 1,2,1 --move 3,1 --box 1,3", 0,
     "dad5d23a83caf4a7fdb9edc511e4b325e633b6811443aa100eef186cd4878686"),
    ("seed build --cartan a2 --word 1,2,1", 0,
     "cfeaafe5d5d8d754e4b8821c86cebd37fd38ad35114cb715b2c14fc835cb6c13"),
    ("seed mutate --cartan a2 --word 1,2,1 --at 3 --exact", 0,
     "5e9a083bc0ebccf7c79f2030a401019fc29b2ede5de359bae95e0cfd5a63096f"),
    ("seed verify-equivalence --cartan b2 --word 1,2,1,2 --word 2,1,2,1", 0,
     "31a5e9f8fe4962da9855865a08cb6e7dd3519325941b6e00c16653fc928ec65a"),
    ("seed tsystem --cartan a2 --word 1,2,1,2 --box 2,4 --exact", 0,
     "4b8915b7e1d57a5700b5548850e3740265f032112ef1d49ffd8d7b79974e819c"),
    ("qdatum build --cartan a3 --height 0,1,2", 0,
     "5a679b3dda9826c3c88dbf2d70a113aed79cc29be80996750edbcc4ca119e6dc"),
    ("qdatum adapted-word --cartan a2 --height 1,0", 0,
     "170963ebf82e3e9c6bdc3f6ebe029fa7399ced830ef20900e4bd2bec15aa7a18"),
    ("qdatum window --cartan a3 --height 0,1,2 --k 0", 0,
     "8a452b0a3f1cd77bd94c4a4857a04b3153c7fff71d2e1abab6da35e710040dae"),
    ("qdatum window --cartan a3 --height 0,1,2 --k 1", 0,
     "abfb6a6299bfdda556bb983b08acd9411244fda10244f2a5eff041532c363374"),
    ("qdatum window --cartan a3 --height 0,1,2 --k -1", 0,
     "de84fbb0d08ababee252b306e3101adb3c3cfacba3da4902237307a712e77f16"),
    ("qdatum phi --cartan a2 --height 1,0 --point 2,0", 0,
     "20b6f47be9f5c4621320b4d59c93b153a132a5cd9414c692ee0c4f9ed62d16e9"),
    ("qdatum phi --cartan a3 --height 0,1,2 --point 2,7", 0,
     "eb59602f26ace996b11219327b939a9c479e6f429699b947f20729ab08fcecd0"),
    ("qdatum ntab --cartan a1 --range 3", 0,
     "81e76c829661b1ae2301ae8b155a523fa9f7478806458960c7b936051be219b9"),
    ("qdatum ntab --cartan a3 --range 3", 0,
     "d546e947bf5bf0383f5b6a37bb85bd2da91fe5a42f96c5a3d265465668021811"),
    ("verify corollary --cartan a2 --word 1,2,1 --word 2,1,2", 0,
     "1d69119a94fd321f3046412b5e38e285a0ea5ef3d235c772efab41aa12f5e4e6"),
    ("verify tsystem --cartan b2 --word 1,2,1,2,1", 0,
     "ce60d27a024b656b7f94010aa55f1442de490f9c8e5266cc3c9be799c47d970d"),
    ("verify all --rank-cap 2 --length-cap 7 --exact", 0,
     "b9d7e8201bb8185876a475959277b0bdb0c5fce9ceaad164b88b8555237fc2ae"),
]


# The campaign answer the benchmark's campaign-sweep workload checks every
# run against: verify all over the rank-3 presets at length 4.
CAMPAIGN_DIGEST = "d579d93d67410b13361a1c92411031bb3217b69bb67d4c020d34af337b2c0694"


def test_the_benchmark_campaign_answer_is_pinned(capsys):
    argv = ["verify", "all", "--rank-cap", "3", "--length-cap", "4", "--format", "json"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CAMPAIGN_DIGEST


@pytest.mark.parametrize("line", [r[0] for r in ROUTE_DIGESTS])
def test_exact_cap_is_an_unknown_flag_on_every_route(line, capsys):
    assert main(line.split() + ["--exact-cap", "8", "--format", "json"]) == 2
    report = parse_report(capsys.readouterr().out.encode())
    assert report.metadata["command"] == ["parse"]
    assert report.metadata["error"]["kind"] == "ConfigInvalid"
    assert "--exact-cap" in report.metadata["error"]["message"]


def test_every_route_has_a_pinned_digest():
    pinned = {tuple(line.split()[:2]) for line, _, _ in ROUTE_DIGESTS}
    assert sorted(pinned) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "line,code,digest", ROUTE_DIGESTS, ids=[r[0] for r in ROUTE_DIGESTS]
)
def test_route_report_digest(line, code, digest, capsys):
    assert main(line.split() + ["--format", "json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_readme_lists_exactly_the_routes_in_commands():
    readme = README.read_text()
    listed = set()
    for group, actions in re.findall(
        r"^braidseed (\w+) (\{[\w| -]+\}|[\w-]+)$", readme, re.M
    ):
        listed.update((group, a.strip()) for a in actions.strip("{}").split("|"))
    assert listed == set(COMMANDS)


def route_flags(route) -> tuple:
    """The (flag, keywords) pairs the parser gives a route: COMMON, CARTAN
    when the route has a context, then its option groups."""
    _, context, _, options = COMMANDS[route]
    return COMMON + (() if context is None else CARTAN) + options


def test_readme_lists_exactly_the_flags_the_parser_accepts():
    # every route also takes --help
    readme = README.read_text()
    command_line = readme[readme.index("## Command line") :]
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", command_line))
    accepted = {flag for route in COMMANDS for flag, _ in route_flags(route)}
    assert listed == accepted | {"--help"}
    presets = re.search(r"selects a preset \(([^)]*)\)", command_line).group(1)
    assert sorted(re.findall(r"`(\w+)`", presets)) == sorted(PRESET_MATRICES)


# Every command line with flags in README's example blocks.
README_EXAMPLES = [
    line.removeprefix("$ ").split()[1:]
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.splitlines()
    if line.removeprefix("$ ").startswith("braidseed ") and " --" in line
]


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 18


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "verdict Match"


# Flag values for the any-argv property: small valid values nine times in
# ten, junk otherwise.  The caps of verify all, whose defaults start a long
# run, are always given: --rank-cap small, --length-cap small or past
# PROPERTY_BUDGET up to 10^9, where even a1 has more words than the budget,
# so verify all refuses it before any campaign runs.  --range draws small
# values and values up to 10^9, which the series budget refuses.
PROPERTY_BUDGET = 2000
JUNK = st.sampled_from(["", ",", "x", "1,x", "-"])


def _mostly(valid):
    return st.integers(0, 9).flatmap(lambda r: JUNK if r == 0 else valid)


def _ints(lo, hi, size=1):
    return _mostly(
        st.lists(st.integers(lo, hi), min_size=1, max_size=size).map(
            lambda xs: ",".join(map(str, xs))
        )
    )


FLAG_VALUES = {
    "--format": _mostly(st.just("json")),
    "--kind": _mostly(st.sampled_from(["positive-braid", "weyl-reduced"])),
    "--height": _ints(0, 3, 3),
    "--move": _mostly(
        st.tuples(st.sampled_from("234"), st.sampled_from("012345")).map(",".join)
    ),
    "--box": _ints(0, 5, 2),
    "--vector": _ints(0, 4, 5),
    "--convention": _mostly(st.sampled_from(CONVENTIONS)),
    "--at": _ints(0, 6, 3),
    "--k": _ints(-2, 2),
    "--point": _ints(-4, 4, 2),
}
# --cartan name -> rank; words are drawn over the letters of the chosen
# context.  "zz" and the last two are no context: "x" * 256 is too long a
# name for a file, and a<4,400 nines> has a rank too long for Python to read
RANKS = {
    "a1": 1, "a1xa1": 2, "a2": 2, "b2": 2, "c2": 2, "g2": 2, "a3": 3, "zz": 2,
    "x" * 256: 2, "a" + "9" * 4400: 2,
}
BOUNDED = {
    "--range": st.one_of(st.integers(0, 3), st.integers(0, 10**9)),
    "--length-cap": st.one_of(
        st.integers(0, 3), st.integers(PROPERTY_BUDGET + 1, 10**9)
    ),
    "--rank-cap": st.integers(0, 2),
}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_argv_ends_in_a_report(tmp_path, monkeypatch, data):
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(PROPERTY_BUDGET))
    route = data.draw(st.sampled_from(sorted(COMMANDS)))
    word_count = COMMANDS[route][2]
    report_file = tmp_path / "report.json"
    argv = [*route, "--format", "json"]
    rank = 3
    for flag, kwargs in route_flags(route):
        if flag in BOUNDED:
            argv += [flag, str(data.draw(BOUNDED[flag]))]
            continue
        # required flags, --cartan and --word are given nine times in ten
        likely = kwargs.get("required") or flag in ("--cartan", "--word")
        if data.draw(st.integers(0, 9)) >= (9 if likely else 4):
            continue
        if flag == "--output":
            argv += [flag, str(report_file)]
        elif flag == "--out":
            argv += [flag, str(tmp_path / "seed.json")]
        elif flag == "--cartan":
            name = data.draw(st.sampled_from(sorted(RANKS)))
            argv += [flag, name]
            rank = RANKS[name]
        elif flag == "--word":
            # the route's number of words nine times in ten, else the other
            wrong = data.draw(st.integers(0, 9)) == 0
            for _ in range(3 - word_count if wrong else word_count):
                argv += [flag, data.draw(_ints(1, rank, 5))]
        elif kwargs.get("action") == "store_true":
            argv.append(flag)
        else:
            appended = kwargs.get("action") == "append"
            for _ in range(data.draw(st.integers(1, 2)) if appended else 1):
                argv += [flag, data.draw(FLAG_VALUES[flag])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    blob = out.getvalue()
    if not blob:
        blob = report_file.read_text()
        report_file.unlink()
    if blob.splitlines()[:3] == PARSE_ERROR_HEAD:
        # a parse-stage report is text only when the last --format is junk
        last = max(t for t, arg in enumerate(argv) if arg == "--format")
        assert argv[last + 1] != "json"
        assert code == 2 and '"kind":"ConfigInvalid"' in blob
    else:
        assert parse_report(blob.encode()).exit_code == code
