"""Report construction, deterministic emission, and the JSON round trip."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed.errors import ConfigInvalid
from braidseed.reports import (
    ERROR,
    MATCH,
    MISMATCH,
    Report,
    base_metadata,
    comparison,
    echo,
    emit_report,
    error_report,
    input_digest,
    jsonable,
    parse_report,
    report_from_sections,
)
from braidseed.transitions import OrderVerdict
from braidseed.words import Move, MoveKind


def test_jsonable_canonical_forms():
    assert jsonable((1, 2, (3, 4))) == [1, 2, [3, 4]]
    assert jsonable({1: (True, None)}) == {"1": [True, None]}
    assert jsonable(OrderVerdict.LESS) == "Less"
    assert jsonable(MoveKind.THREE) == 3
    assert jsonable(Move(MoveKind.TWO, 5)) == "Two@5"


def test_match_and_mismatch_verdicts():
    meta = base_metadata(("seed", "build"))
    matched = report_from_sections([comparison("b", (1, 2), [1, 2])], meta)
    assert matched.verdict == MATCH
    assert matched.exit_code == 0
    mixed = report_from_sections(
        [comparison("b", (1, 2), (1, 2)), comparison("lam", (0,), (1,))], meta
    )
    assert mixed.verdict == MISMATCH
    assert mixed.exit_code == 1
    assert any(not s.agree for s in mixed.sections)


def test_echo_sections_never_flip_the_verdict():
    meta = base_metadata(("words", "moves"))
    report = report_from_sections([echo("path", [Move(MoveKind.TWO, 1)])], meta)
    assert report.verdict == MATCH
    assert report.section("path").left == ["Two@1"]


def test_error_report_carries_the_failure():
    report = error_report("NotConnected", "no path", base_metadata(("words", "path")))
    assert report.verdict == ERROR
    assert report.exit_code == 2
    assert report.sections == ()
    assert report.metadata["error"] == {"kind": "NotConnected", "message": "no path"}


def test_json_round_trip_is_identity():
    meta = base_metadata(("seed", "mutate"), inputs={"options": {"at": (3,)}})
    report = report_from_sections(
        [comparison("B", ((0, 1), (-1, 0)), ((0, 1), (-1, 0))), echo("k", 3)], meta
    )
    blob = emit_report(report, "json")
    assert parse_report(blob) == report
    assert emit_report(parse_report(blob), "json") == blob


# Section values as the routes build them: nested ints, strings (non-ASCII
# among them), bools, None, lists, tuples and dicts keyed by ints.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.text(max_size=8)
    | st.sampled_from(["Λ", "é", "∑ β_k", "日本", "\u2028", "\"\\"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.integers(-50, 50), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(
    sections=st.lists(
        st.tuples(st.text(max_size=12), VALUES, VALUES, st.booleans()), max_size=5
    ),
    inputs=st.dictionaries(st.text(max_size=6), VALUES, max_size=3),
    failure=st.none() | st.tuples(st.text(max_size=12), st.text(max_size=20)),
)
def test_json_round_trip_is_identity_on_drawn_sections(sections, inputs, failure):
    meta = base_metadata(("verify", "drawn"), inputs=inputs)
    if failure is None:
        report = report_from_sections(
            [
                echo(name, left) if same else comparison(name, left, right)
                for name, left, right, same in sections
            ],
            meta,
        )
    else:
        report = error_report(*failure, meta)
    blob = emit_report(report, "json")
    assert parse_report(blob) == report
    assert emit_report(parse_report(blob), "json") == blob


def test_emission_is_byte_deterministic():
    def build():
        meta = base_metadata(("verify", "all"), inputs={"z": [3, 2], "a": {"x": 1}})
        return report_from_sections(
            [comparison("counts", (5, 6), (5, 6)), echo("contexts", ("a2", "b2"))],
            meta,
        )

    for fmt in ["json", "text"]:
        assert emit_report(build(), fmt) == emit_report(build(), fmt)


def test_text_format_is_line_oriented():
    meta = base_metadata(("seed", "tsystem"))
    report = report_from_sections(
        [comparison("identity", (1, 0), (1, 1)), echo("mode", "tropical")], meta
    )
    lines = emit_report(report, "text").decode().splitlines()
    assert lines[0] == "braidseed-report/1"
    assert lines[1] == "verdict Mismatch"
    assert any(line.startswith("section identity diff ") for line in lines)
    assert any(line.startswith("section mode ok ") for line in lines)


def test_mismatch_json_contains_the_diff():
    meta = base_metadata(("transition", "apply"))
    report = report_from_sections([comparison("image", (2, 0), (0, 2))], meta)
    payload = json.loads(emit_report(report, "json"))
    assert payload["verdict"] == "Mismatch"
    assert payload["sections"][0]["left"] != payload["sections"][0]["right"]


def test_parse_rejects_foreign_payloads():
    with pytest.raises(ConfigInvalid):
        parse_report(b"not json at all")
    with pytest.raises(ConfigInvalid):
        parse_report(json.dumps({"schema": "other/9", "verdict": "Match"}).encode())
    with pytest.raises(ConfigInvalid):
        parse_report(
            json.dumps(
                {"schema": "braidseed-report/1", "verdict": "Maybe", "sections": []}
            ).encode()
        )
    head = {"schema": "braidseed-report/1", "verdict": "Match"}
    for payload in (
        head,  # no sections
        [head],  # not an object
        "braidseed-report/1",
        {**head, "sections": [{"left": 1, "right": 1}], "metadata": {}},  # no name
        {**head, "sections": [["a", 1, 1]], "metadata": {}},
        {**head, "sections": 3, "metadata": {}},
        {**head, "sections": []},  # no metadata
    ):
        with pytest.raises(ConfigInvalid):
            parse_report(json.dumps(payload).encode())


def test_emit_rejects_unknown_format():
    report = report_from_sections([], base_metadata(("cartan", "check")))
    with pytest.raises(ConfigInvalid):
        emit_report(report, "yaml")


def test_input_digest_ignores_key_order():
    assert input_digest({"a": 1, "b": (2, 3)}) == input_digest({"b": [2, 3], "a": 1})
    assert input_digest({"a": 1}) != input_digest({"a": 2})
    assert len(input_digest([1, 2, 3])) == 64
