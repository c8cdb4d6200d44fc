"""Command-line dispatch, exit codes, and report determinism.

Each invocation runs in-process through main(); exit status 0 means every
comparison agreed, 1 means at least one differed, 2 means a domain error.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidseed
from braidseed.cartan import cartan_to_json, preset
from braidseed.cli import (
    campaign_contexts,
    main,
    mutation_campaign,
    parse_args,
    roundtrip_campaign,
    torus_campaign,
    tsystem_campaign,
)
from braidseed.errors import ConfigInvalid
from braidseed.reports import parse_report


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--format", "json", "--output", str(out)])
    return code, parse_report(out.read_bytes())


def section(report, name):
    return report.section(name)


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


def test_cartan_check_json_file(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(cartan_to_json(preset("b2")))
    code, report = run(tmp_path, "cartan", "check", "--cartan", str(path))
    assert code == 0
    assert section(report, "symmetrized").agree
    assert section(report, "longest-word-length").left == 4
    assert str(path) in report.metadata.get("inputs", {}) or True


def test_cartan_check_rejects_unknown_preset(tmp_path):
    code, report = run(tmp_path, "cartan", "check", "--cartan", "zz9")
    assert code == 2
    assert report.metadata["error"]["kind"] == "NotGCM"


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
    # A1 x A2: 2|R+|/|I| = 8/3, so the repetition lattice has no period h
    path = tmp_path / "a1xa2.json"
    path.write_text(json.dumps({"matrix": [[2, 0, 0], [0, 2, -1], [0, -1, 2]]}))
    code, report = run(
        tmp_path, "qdatum", *command, "--cartan", str(path), "--height", "0,0,1"
    )
    assert code == 2
    assert error_kind(report) == ("Error", "NotFiniteType")
    assert "Coxeter number" in report.metadata["error"]["message"]


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


def test_qdatum_phi_far_point_is_budgeted(tmp_path, monkeypatch):
    argv = ("qdatum", "phi", "--cartan", "a2", "--height", "1,0", "--point", "2,20000")
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert section(report, "phi").left == {"root": [0, 1], "level": 6667}
    monkeypatch.setenv("BRAIDSEED_BUDGET", "100")
    code, report = run(tmp_path, *argv)
    assert code == 2
    assert error_kind(report) == ("Error", "BudgetExhausted")


def test_config_invalid_budget(tmp_path):
    code, report = run(
        tmp_path, "words", "equal", "--cartan", "a2",
        "--word", "1,2", "--word", "2,1", "--budget", "0",
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "ConfigInvalid"


def test_config_invalid_exact_cap(tmp_path):
    code, report = run(
        tmp_path, "seed", "build", "--cartan", "a2",
        "--word", "1,2,1,2,1,2,1,2,1", "--exact",
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "ConfigInvalid"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "7")
    config = parse_args(
        ["words", "equal", "--cartan", "a3", "--word", "1,2", "--word", "2,1"]
    )
    assert config.budget == 7
    monkeypatch.delenv("BRAIDSEED_BUDGET")


def test_budget_exhaustion_is_an_error(tmp_path):
    code, report = run(
        tmp_path, "words", "equal", "--cartan", "a3",
        "--word", "1,2,1,3,2,1", "--word", "3,2,3,1,2,3", "--budget", "2",
    )
    assert code == 2
    assert report.metadata["error"]["kind"] == "BudgetExhausted"


def test_lattice_budget_exhaustion_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1000")
    a5 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
    cartan = tmp_path / "a5.json"
    cartan.write_text(json.dumps({"matrix": a5}))
    code, report = run(
        tmp_path, "seed", "build", "--cartan", str(cartan), "--kind", "weyl-reduced",
        "--word", "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1",
    )
    assert code == 2
    assert report.verdict == "Error"
    assert report.metadata["error"]["kind"] == "BudgetExhausted"


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
