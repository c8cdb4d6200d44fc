"""Generalized Cartan matrices, symmetrizers, and root arithmetic.

Root vectors are plain integer tuples in the simple-root basis, ordered like
the index set of the ambient :class:`CartanData`.  All arithmetic is exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, NotFiniteType, NotGCM, NotSymmetrizable

RootVector = tuple  # integer coordinates over the index set

_ORBIT_BOUND = 10_000  # finite-type detection: orbit closure larger than this aborts


@dataclass(frozen=True)
class CartanData:
    """A symmetrizable generalized Cartan matrix with a fixed symmetrizer.

    ``matrix[i][j]`` is c_ij in the order of ``index_set``; ``symmetrizer``
    holds the d_i with d_i * c_ij = d_j * c_ji.
    """

    index_set: tuple
    matrix: tuple
    symmetrizer: tuple

    @cached_property
    def rank(self) -> int:
        return len(self.index_set)

    @cached_property
    def position(self) -> dict:
        return {label: n for n, label in enumerate(self.index_set)}

    def entry(self, i, j) -> int:
        """c_ij for index labels i, j."""
        return self.matrix[self.position[i]][self.position[j]]

    def sym(self, i) -> int:
        """d_i for an index label i."""
        return self.symmetrizer[self.position[i]]

    def simple_root(self, i) -> RootVector:
        coords = [0] * self.rank
        coords[self.position[i]] = 1
        return tuple(coords)

    def pair_product(self, i, j) -> int:
        """c_ij * c_ji for distinct labels: 0, 1, 2, 3 classify the move kinds."""
        return self.entry(i, j) * self.entry(j, i)

    @cached_property
    def _finite_type(self) -> "FiniteTypeData":
        return _finite_type_data(self)


def _components(matrix: Sequence[Sequence[int]]) -> list:
    n = len(matrix)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and matrix[i][j] != 0:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _minimal_symmetrizer(matrix: Sequence[Sequence[int]]) -> tuple:
    """Solve d_i c_ij = d_j c_ji with positive integers, minimal per component."""
    n = len(matrix)
    ratio: list = [None] * n
    for comp in _components(matrix):
        ratio[comp[0]] = Fraction(1)
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                # d_i c_ij = d_j c_ji  =>  d_j = d_i c_ij / c_ji
                want = ratio[i] * Fraction(matrix[i][j], matrix[j][i])
                if ratio[j] is None:
                    ratio[j] = want
                    stack.append(j)
                elif ratio[j] != want:
                    raise NotSymmetrizable("inconsistent symmetrizer ratios on a cycle")
        denom = 1
        for i in comp:
            denom = denom * ratio[i].denominator // gcd(denom, ratio[i].denominator)
        values = [int(ratio[i] * denom) for i in comp]
        g = 0
        for v in values:
            g = gcd(g, v)
        for i, v in zip(comp, values):
            ratio[i] = v // g
    return tuple(int(r) for r in ratio)


def validate_cartan(
    matrix: Sequence[Sequence[int]],
    opt_symmetrizer: Optional[Sequence[int]] = None,
    index_set: Optional[Sequence] = None,
) -> CartanData:
    """Check the GCM axioms and attach a symmetrizer.

    Raises NotGCM for a broken diagonal, positive off-diagonal entries, or an
    asymmetric zero pattern; NotSymmetrizable when no positive solution of
    d_i c_ij = d_j c_ji exists (or a supplied one fails the equation).
    """
    n = len(matrix)
    if n == 0:
        raise NotGCM("empty index set")
    rows = []
    for row in matrix:
        if len(row) != n:
            raise DimensionMismatch("matrix is not square")
        rows.append(tuple(int(v) for v in row))
    mat = tuple(rows)
    for i in range(n):
        if mat[i][i] != 2:
            raise NotGCM(f"diagonal entry c[{i}][{i}] = {mat[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if mat[i][j] > 0:
                raise NotGCM(f"positive off-diagonal entry c[{i}][{j}] = {mat[i][j]}")
            if (mat[i][j] == 0) != (mat[j][i] == 0):
                raise NotGCM(f"zero pattern asymmetric at ({i},{j})")
    if opt_symmetrizer is not None:
        d = tuple(int(v) for v in opt_symmetrizer)
        if len(d) != n:
            raise DimensionMismatch("symmetrizer length mismatch")
        if any(v <= 0 for v in d):
            raise NotSymmetrizable("symmetrizer entries must be positive")
        for i in range(n):
            for j in range(n):
                if d[i] * mat[i][j] != d[j] * mat[j][i]:
                    raise NotSymmetrizable("supplied symmetrizer fails d_i c_ij = d_j c_ji")
    else:
        d = _minimal_symmetrizer(mat)
    labels = tuple(index_set) if index_set is not None else tuple(range(1, n + 1))
    if len(labels) != n or len(set(labels)) != n:
        raise DimensionMismatch("index set must have one distinct label per row")
    return CartanData(index_set=labels, matrix=mat, symmetrizer=d)


def bilinear_form(cd: CartanData, x: Sequence[int], y: Sequence[int]) -> int:
    """(x, y) = sum x_i y_j d_i c_ij; symmetric by the symmetrizer equation."""
    if len(x) != cd.rank or len(y) != cd.rank:
        raise DimensionMismatch("root vector length mismatch")
    total = 0
    for a in range(cd.rank):
        if x[a] == 0:
            continue
        da = cd.symmetrizer[a]
        row = cd.matrix[a]
        for b in range(cd.rank):
            if y[b]:
                total += x[a] * y[b] * da * row[b]
    return total


def reflect_root(cd: CartanData, i, x: Sequence[int]) -> RootVector:
    """Simple reflection s_i acting on root coordinates: x - (sum_j x_j c_ij) alpha_i."""
    if len(x) != cd.rank:
        raise DimensionMismatch("root vector length mismatch")
    p = cd.position[i]
    coeff = sum(x[j] * cd.matrix[p][j] for j in range(cd.rank))
    out = list(x)
    out[p] -= coeff
    return tuple(out)


def weyl_act(cd: CartanData, letters: Sequence, x: Sequence[int]) -> RootVector:
    """Apply s_{i_1} s_{i_2} ... s_{i_k} to x (rightmost reflection first)."""
    v = tuple(x)
    for i in reversed(letters):
        v = reflect_root(cd, i, v)
    return v


class WordRoots(NamedTuple):
    roots: tuple
    all_positive: bool


def roots_of_word(cd: CartanData, letters: Sequence) -> WordRoots:
    """beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) together with a positivity certificate.

    All beta_k positive is exactly the Weyl-reducedness certificate; positive
    roots of a reduced word are automatically pairwise distinct.
    """
    roots = []
    prefix: list = []
    for k, i in enumerate(letters):
        roots.append(weyl_act(cd, prefix, cd.simple_root(i)))
        prefix.append(i)
    positive = all(all(c >= 0 for c in beta) for beta in roots)
    return WordRoots(tuple(roots), positive)


def is_positive_root_vector(beta: Sequence[int]) -> bool:
    return all(c >= 0 for c in beta) and any(c > 0 for c in beta)


@dataclass(frozen=True)
class FiniteTypeData:
    positive_roots: tuple
    longest_word: tuple
    star: tuple  # star[n] is the label i* for the n-th label of index_set
    coxeter_number: Optional[int]

    def star_of(self, cd: CartanData, i):
        return self.star[cd.position[i]]


def _positive_root_closure(cd: CartanData) -> set:
    roots = {cd.simple_root(i) for i in cd.index_set}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in cd.index_set:
            gamma = reflect_root(cd, i, beta)
            if all(c >= 0 for c in gamma) and gamma not in roots:
                roots.add(gamma)
                frontier.append(gamma)
                if len(roots) > _ORBIT_BOUND:
                    raise NotFiniteType(
                        f"positive-root closure exceeded {_ORBIT_BOUND} roots"
                    )
    return roots


def _first_nonpositive_minor(cd: CartanData) -> Optional[tuple]:
    """(order, value) of the first leading principal minor of the
    symmetrized matrix d_i c_ij that is not positive; None when all are,
    that is when the matrix is positive definite (Sylvester), which is
    exactly finite type.  Fraction-free Bareiss elimination: after step k
    the pivot a[k][k] is the minor of order k + 1, and every division is
    exact."""
    n = cd.rank
    a = [[cd.symmetrizer[i] * c for c in cd.matrix[i]] for i in range(n)]
    previous = 1
    for k in range(n):
        if a[k][k] <= 0:
            return k + 1, a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return None


def finite_type_data(cd: CartanData) -> FiniteTypeData:
    """Positive roots, a canonical w0 word, the star involution, and h.

    Computed once per CartanData and cached on it; a matrix that is not of
    finite type raises NotFiniteType on every call.
    """
    return cd._finite_type


def _finite_type_data(cd: CartanData) -> FiniteTypeData:
    """The uncached body of finite_type_data.

    Data that is not of finite type is refused before the roots are
    closed, by the leading principal minors of the symmetrized matrix.

    The w0 word is built greedily: always append the smallest index whose
    simple root is kept positive, which terminates exactly at w0.  The
    Coxeter number 2|R+|/|I| is stored only when it is an integer (it always
    is for irreducible types).
    """
    minor = _first_nonpositive_minor(cd)
    if minor is not None:
        raise NotFiniteType(
            "symmetrized Cartan matrix is not positive definite: leading "
            f"principal minor of order {minor[0]} is {minor[1]}"
        )
    roots = _positive_root_closure(cd)
    word: list = []
    while True:
        chosen = None
        for i in cd.index_set:
            if is_positive_root_vector(weyl_act(cd, word, cd.simple_root(i))):
                chosen = i
                break
        if chosen is None:
            break
        word.append(chosen)
        if len(word) > len(roots):
            raise NotFiniteType("descent walk exceeded the root count")
    if len(word) != len(roots):
        raise NotFiniteType("longest-word length disagrees with |R+|")
    star = []
    for i in cd.index_set:
        image = weyl_act(cd, word, cd.simple_root(i))
        neg = tuple(-c for c in image)
        target = None
        for j in cd.index_set:
            if neg == cd.simple_root(j):
                target = j
                break
        if target is None:
            raise NotFiniteType("w0 does not send a simple root to minus a simple root")
        star.append(target)
    twice = 2 * len(roots)
    h = twice // cd.rank if twice % cd.rank == 0 else None
    ordered = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    return FiniteTypeData(
        positive_roots=ordered,
        longest_word=tuple(word),
        star=tuple(star),
        coxeter_number=h,
    )


def cartan_to_json(cd: CartanData) -> str:
    payload = {
        "indices": list(cd.index_set),
        "matrix": [list(row) for row in cd.matrix],
        "symmetrizer": list(cd.symmetrizer),
    }
    return json.dumps(payload, sort_keys=True)


def _json_list(value, what: str, kinds: tuple = (int,)) -> list:
    """value itself when it is a JSON list of the given kinds (bools excluded)."""
    if not isinstance(value, list) or any(type(v) not in kinds for v in value):
        names = " or ".join(k.__name__ for k in kinds)
        raise NotGCM(f"JSON {what}: expected a list of {names} values")
    return value


def cartan_from_json(text: str) -> CartanData:
    """Parse and validate a JSON Cartan payload; malformed JSON or fields
    of the wrong shape raise NotGCM."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise NotGCM(f"invalid JSON: {err}") from err
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise NotGCM("JSON payload lacks a 'matrix' field")
    matrix = _json_list(payload["matrix"], "matrix", (list,))
    symmetrizer, indices = payload.get("symmetrizer"), payload.get("indices")
    return validate_cartan(
        [_json_list(row, "matrix row") for row in matrix],
        None if symmetrizer is None else _json_list(symmetrizer, "symmetrizer"),
        None if indices is None else _json_list(indices, "indices", (int, str)),
    )


# Small named matrices used by tests, demos, and the CLI presets.  The b2
# preset has c_12 = -1, c_21 = -2; c2 is the transposed orientation.
PRESET_MATRICES = {
    "a1": [[2]],
    "a1xa1": [[2, 0], [0, 2]],
    "a2": [[2, -1], [-1, 2]],
    "b2": [[2, -1], [-2, 2]],
    "c2": [[2, -2], [-1, 2]],
    "g2": [[2, -1], [-3, 2]],
    "a3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "b3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "c3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


def preset(name: str) -> CartanData:
    key = name.lower()
    if key not in PRESET_MATRICES:
        raise NotGCM(f"unknown Cartan preset {name!r}")
    return validate_cartan(PRESET_MATRICES[key])
