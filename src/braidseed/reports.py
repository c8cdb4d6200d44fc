"""Deterministic verification reports.

A report is a verdict plus an ordered list of named comparisons.  Each
comparison carries a computed left value and an expected right value; the
verdict is Match exactly when every comparison agrees, except for Error
reports, which carry the failure in their metadata instead of sections.

Values are canonicalized to JSON-stable forms when a comparison is built,
so emission is byte-deterministic and the JSON round trip is the identity.
Section order is fixed by the caller's enumeration order, never by timing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigInvalid

VERSION = "0.1.0"
SCHEMA = "braidseed-report/1"

MATCH = "Match"
MISMATCH = "Mismatch"
ERROR = "Error"

_EXIT_CODES = {MATCH: 0, MISMATCH: 1, ERROR: 2}


def jsonable(value):
    """Canonical JSON-stable form: tuples become lists, mapping keys become
    strings, enums collapse to their values, other objects to str()."""
    if isinstance(value, Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class Comparison:
    name: str
    left: object
    right: object

    @property
    def agree(self) -> bool:
        return self.left == self.right


def comparison(name: str, left, right) -> Comparison:
    return Comparison(name, jsonable(left), jsonable(right))


def echo(name: str, value) -> Comparison:
    """Informational section: both sides carry the same computed value, so
    it can never flip the verdict."""
    out = jsonable(value)
    return Comparison(name, out, out)


@dataclass(frozen=True)
class Report:
    verdict: str
    sections: tuple
    metadata: dict

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def section(self, name: str) -> Comparison:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)


def report_from_sections(sections, metadata) -> Report:
    sections = tuple(sections)
    verdict = MATCH if all(s.agree for s in sections) else MISMATCH
    return Report(verdict, sections, jsonable(metadata))


def error_report(kind: str, message: str, metadata) -> Report:
    meta = jsonable(metadata)
    meta["error"] = {"kind": kind, "message": message}
    return Report(ERROR, (), meta)


def base_metadata(command, inputs=None) -> dict:
    meta = {"tool": "braidseed", "version": VERSION, "command": list(command)}
    if inputs:
        meta["inputs"] = {
            str(label): input_digest(payload)
            for label, payload in sorted(inputs.items())
        }
    return meta


def input_digest(payload) -> str:
    blob = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def emit_report(r: Report, format: str = "text") -> bytes:
    """Stable serialization; json is the interchange format, text is
    line-oriented for diffing."""
    if format == "json":
        payload = {
            "schema": SCHEMA,
            "verdict": r.verdict,
            "sections": [
                {"name": s.name, "left": s.left, "right": s.right}
                for s in r.sections
            ],
            "metadata": r.metadata,
        }
        return (_dumps(payload) + "\n").encode("utf-8")
    if format == "text":
        lines = [SCHEMA, f"verdict {r.verdict}"]
        for key in sorted(r.metadata):
            lines.append(f"meta {key} {_dumps(r.metadata[key])}")
        for s in r.sections:
            if s.agree:
                lines.append(f"section {s.name} ok {_dumps(s.left)}")
            else:
                lines.append(
                    f"section {s.name} diff {_dumps(s.left)} != {_dumps(s.right)}"
                )
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ConfigInvalid(f"format: unknown report format {format!r}")


def parse_report(blob: bytes) -> Report:
    """Inverse of emit_report(..., json)."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigInvalid(f"report: not valid JSON ({err})") from err
    if not isinstance(payload, dict):
        raise ConfigInvalid(f"report: a JSON {type(payload).__name__}, not an object")
    if payload.get("schema") != SCHEMA:
        raise ConfigInvalid(f"report: schema {payload.get('schema')!r} != {SCHEMA!r}")
    if payload.get("verdict") not in _EXIT_CODES:
        raise ConfigInvalid(f"report: unknown verdict {payload.get('verdict')!r}")
    try:
        sections = tuple(
            Comparison(s["name"], s["left"], s["right"]) for s in payload["sections"]
        )
        return Report(payload["verdict"], sections, payload["metadata"])
    except (KeyError, TypeError) as err:
        raise ConfigInvalid(f"report: missing or malformed field ({err!r})") from err
