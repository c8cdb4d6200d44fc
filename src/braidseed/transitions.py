"""Piecewise-linear transition maps between exponent lattices of words related
by 2-/3-/4-moves, the bi-lexicographic partial order, and the leading-term
parameter calculus for products and one-step mutation.

Vectors are position-indexed tuples (entry k belongs to position k of the
word); any right-to-left display is a printing convention of callers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Sequence

import numpy as np

from .cartan import CartanData
from .errors import (
    CaseNotTabulated,
    IncomparableLeadingTerms,
    LengthMismatch,
    NegativeEntry,
)
from .words import (
    EmptyBox,
    IBox,
    Move,
    MoveKind,
    Word,
    _move_window,
    _path_windows,
    apply_move,
    ibox_vector,
    make_ibox,
    neighbor_index,
    resolve_ibox,
)


CONVENTIONS = ("tabulated", "weighted")
# Batch images are at most 8 max|entry|, so int64 stays exact up to this bound.
_INT64_EXACT = np.int64(2**59)


class OrderVerdict(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def _lex_sign(a: Sequence[int], b: Sequence[int]) -> int:
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


def bilex_compare(a: Sequence[int], b: Sequence[int]) -> OrderVerdict:
    """Conjunction of the left-to-right and right-to-left lexicographic orders.

    The two conditions are distinct total preorders; requiring both yields a
    partial order, and disagreement is reported as Incomparable instead of
    being resolved arbitrarily.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths {len(a)} != {len(b)}")
    left = _lex_sign(a, b)
    right = _lex_sign(tuple(reversed(a)), tuple(reversed(b)))
    if left == 0:
        return OrderVerdict.EQUAL
    if left == right:
        return OrderVerdict.LESS if left < 0 else OrderVerdict.GREATER
    return OrderVerdict.INCOMPARABLE


def _first_formula(cd: CartanData, i, j, convention: str) -> bool:
    """Select the quadruple-window formula branch.

    "tabulated" follows the case table verified by verify_ibox_transition;
    "weighted" is the unique assignment preserving the graded weight
    sum(a_k * beta_k), and is the one realized by seed mutation.  The two
    agree on every swap and triple window and differ only in which of the
    two quadruple formulas attaches to which Cartan orientation.
    """
    return cd.entry(i, j) == (-1 if convention == "tabulated" else -2)


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown transition convention {convention!r}")


def _window_image(cd: CartanData, m: Move, i, j, window, convention: str, minimum):
    """Image of the window entries under the move's PL transition map.

    The one formula table behind transition_along_path_many (entries are
    ints, minimum is min) and transition_apply_many (entries are columns,
    minimum is np.minimum).
    """
    if m.kind is MoveKind.TWO:
        x, y = window
        return y, x
    if m.kind is MoveKind.THREE:
        x, y, z = window
        p = minimum(x, z)
        return y + z - p, p, x + y - p
    a0, a1, a2, a3 = window
    p1 = minimum(minimum(a0 + a1, a0 + a3), a2 + a3)
    if _first_formula(cd, i, j, convention):
        p2 = minimum(minimum(a0 + 2 * a1, a0 + 2 * a3), a2 + 2 * a3)
        return a1 + a2 + a3 - p1, 2 * p1 - p2, p2 - p1, a0 + 2 * a1 + a2 - p2
    p2 = minimum(minimum(2 * a0 + a1, 2 * a0 + a3), 2 * a2 + a3)
    return a1 + 2 * a2 + a3 - p2, p2 - p1, 2 * p1 - p2, a0 + a1 + a2 - p1


def transition_apply(
    cd: CartanData, w: Word, m: Move, a: Sequence[int], convention: str = "tabulated"
) -> tuple:
    """Image of the exponent vector a under the move's transition map: the
    one-move case of transition_along_path_many."""
    return transition_along_path_many(cd, w, (m,), (a,), convention)[0]


def transition_apply_many(
    cd: CartanData, w: Word, m: Move, arr: np.ndarray
) -> np.ndarray:
    """Row-wise transition_apply, in the tabulated convention, on an
    (N, length) integer array.

    An int64 array with an entry beyond 2**59 is computed on exact Python
    ints (an object array) instead of wrapping.
    """
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[1] != w.length:
        raise LengthMismatch(f"array shape {arr.shape} does not fit length {w.length}")
    if arr.dtype == np.int64 and arr.size and (
        arr.max() > _INT64_EXACT or arr.min() < -_INT64_EXACT
    ):
        arr = arr.astype(object)
    i, j, k = _move_window(w, m, cd)
    columns = range(k - 1, k - 1 + m.kind.window)
    window = [arr[:, c] for c in columns]
    image = _window_image(cd, m, i, j, window, "tabulated", np.minimum)
    out = arr.copy()
    for c, column in zip(columns, image):
        out[:, c] = column
    return out


def transition_along_path(
    cd: CartanData,
    w: Word,
    path: Sequence[Move],
    a: Sequence[int],
    convention: str = "tabulated",
) -> tuple:
    """Left fold of transition_apply along a move path starting at w."""
    return transition_along_path_many(cd, w, path, (a,), convention)[0]


def transition_along_path_many(
    cd: CartanData,
    w: Word,
    path: Sequence[Move],
    vectors: Sequence[Sequence[int]],
    convention: str = "tabulated",
) -> tuple:
    """transition_along_path of every vector, in one walk along the path.

    Every vector's length is checked before the walk, also on the empty
    path; each move's window is validated once (words._path_windows).
    """
    _check_convention(convention)
    for vec in vectors:
        if len(vec) != w.length:
            raise LengthMismatch(f"vector length {len(vec)} != word length {w.length}")
    return _transport(cd, path, _path_windows(cd, w, path), vectors, convention)


def _transport(
    cd: CartanData, path: Sequence[Move], windows: Sequence, vectors, convention: str
) -> tuple:
    """The vectors carried along path, move t's window (i, j, k) given by
    windows[t] and not checked again: only its entries are rewritten in
    every vector, in Python arithmetic, so int entries stay exact."""
    out = [list(a) for a in vectors]
    for move, (i, j, k) in zip(path, windows):
        end = k - 1 + move.kind.window
        for vec in out:
            vec[k - 1 : end] = _window_image(
                cd, move, i, j, vec[k - 1 : end], convention, min
            )
    return tuple(map(tuple, out))


def par_product(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Leading-term parameter of a product: componentwise sum."""
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths {len(a)} != {len(b)}")
    return tuple(map(add, a, b))


def par_mutation(
    par_x: Sequence[int], par_d1: Sequence[int], par_d2: Sequence[int]
) -> tuple:
    """Parameter of a one-step mutation: the dominant exchange-term parameter
    minus the parameter of the mutated variable."""
    verdict = bilex_compare(par_d1, par_d2)
    if verdict is OrderVerdict.INCOMPARABLE:
        raise IncomparableLeadingTerms(
            f"exchange terms {tuple(par_d1)} and {tuple(par_d2)} are incomparable"
        )
    top = par_d2 if verdict is OrderVerdict.LESS else par_d1
    if len(par_x) != len(top):
        raise LengthMismatch("mutated-variable parameter has the wrong length")
    out = tuple(t - x for t, x in zip(top, par_x))
    if any(v < 0 for v in out):
        raise NegativeEntry(
            f"dominant parameter {tuple(top)} does not dominate {tuple(par_x)}"
        )
    return out


@dataclass(frozen=True)
class IBoxTransitionReport:
    rule: str
    actual: tuple
    expected: tuple

    @property
    def match(self) -> bool:
        return self.actual == self.expected


def _unit(length: int, pos: int) -> tuple:
    return tuple(1 if t == pos else 0 for t in range(1, length + 1))


def _expected_two(wp: Word, k: int, a: int, b: int):
    parts = []
    na, nb = a, b
    if a == k:
        na, parts = k + 1, parts + ["a=k"]
    elif a == k + 1:
        na, parts = k, parts + ["a=k+1"]
    if b == k:
        nb, parts = k + 1, parts + ["b=k"]
    elif b == k + 1:
        nb, parts = k, parts + ["b=k+1"]
    rule = ",".join(parts) if parts else "generic"
    return rule, ibox_vector(wp, IBox(na, nb))


def _expected_three(w: Word, wp: Word, k: int, a: int, b: int):
    length = w.length
    if a == k + 1:
        kplus = neighbor_index(wp, k).plus
        tail = ibox_vector(wp, make_ibox(kplus, b))
        return "a=k+1", par_product(_unit(length, k - 1), tail)
    if b == k - 1:
        kminus = neighbor_index(wp, k).minus
        tail = ibox_vector(wp, make_ibox(a, kminus))
        return "b=k-1", par_product(_unit(length, k + 1), tail)
    parts = []
    na, nb = a, b
    if a == k - 1:
        na, parts = k, parts + ["a=k-1"]
    elif a == k:
        na, parts = k - 1, parts + ["a=k"]
    if b == k:
        nb, parts = k + 1, parts + ["b=k"]
    elif b == k + 1:
        nb, parts = k, parts + ["b=k+1"]
    rule = ",".join(parts) if parts else "generic"
    return rule, ibox_vector(wp, IBox(na, nb))


def _expected_four(cd: CartanData, w: Word, wp: Word, i, j, k: int, a: int, b: int):
    if cd.entry(i, j) != -1:
        raise CaseNotTabulated(
            "4-move transport is tabulated only for the c_ij = -1 orientation"
        )
    window = range(k, k + 4)
    length = w.length
    if a not in window and b not in window:
        return "generic", ibox_vector(wp, IBox(a, b))
    if b <= k + 3:
        raise CaseNotTabulated(
            f"4-move transport with b = {b} <= k+3 is not tabulated"
        )
    if a == k:
        return "a=k", ibox_vector(wp, IBox(k + 1, b))
    if a == k + 1:
        return "a=k+1", ibox_vector(wp, IBox(k, b))
    if a == k + 2:
        tail = ibox_vector(wp, make_ibox(k + 3, b))
        return "a=k+2", par_product(_unit(length, k), tail)
    tail = ibox_vector(wp, make_ibox(neighbor_index(wp, k + 2).plus, b))
    return "a=k+3", par_product(_unit(length, k), tail)


def verify_ibox_transition(
    cd: CartanData, w: Word, m: Move, box
) -> IBoxTransitionReport:
    """Compare the transition image of an i-box vector with the tabulated
    transported box.

    The actual side always comes from transition_apply; the expected side
    follows the per-endpoint transport rows, with the two sporadic 3-move
    rows taking precedence.  Configurations outside the table raise
    CaseNotTabulated rather than guessing.
    """
    resolved = resolve_ibox(w, box)
    vec = ibox_vector(w, resolved)
    actual = transition_apply(cd, w, m, vec)
    if isinstance(resolved, EmptyBox):
        return IBoxTransitionReport("empty", actual, (0,) * w.length)
    wp = apply_move(w, m)
    i, j, _ = _move_window(w, m, cd)
    a, b = resolved.lo, resolved.hi
    if m.kind is MoveKind.TWO:
        rule, expected = _expected_two(wp, m.position, a, b)
    elif m.kind is MoveKind.THREE:
        rule, expected = _expected_three(w, wp, m.position + 1, a, b)
    else:
        rule, expected = _expected_four(cd, w, wp, i, j, m.position, a, b)
    return IBoxTransitionReport(rule, actual, expected)
