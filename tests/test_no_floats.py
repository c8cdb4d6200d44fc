"""The integer-lattice path stays exact: its modules contain no true
division, no float literal and no float() call, so no value on that path
can silently become a float (and overflow or round)."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "braidseed"
EXACT_MODULES = (
    "cartan.py",
    "cli.py",
    "lattices.py",
    "qdatum.py",
    "qlaurent.py",
    "seeds.py",
    "transitions.py",
    "words.py",
)


def float_sites(source: str) -> list:
    """(line, what) for every true division, float literal and float() call."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, f"float literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            sites.append((node.lineno, "float() call"))
    return sites


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_integer_lattice_modules_have_no_floats(module):
    assert float_sites((SRC / module).read_text()) == []


def test_float_sites_catches_each_kind():
    source = "a = b / c\na /= 2\nx = 0.5\ny = float(z)\nq = b // c\n"
    assert [what for _, what in float_sites(source)] == [
        "true division",
        "true division",
        "float literal 0.5",
        "float() call",
    ]
