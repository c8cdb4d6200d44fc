"""Generalized Cartan matrices, symmetrizers, and root arithmetic.

Root vectors are plain integer tuples in the simple-root basis, ordered like
the index set of the ambient :class:`CartanData`.  All arithmetic is exact.

Every root a word defines comes from one walk, _WeylWalk, which keeps
w(alpha_i) for every vertex i as letters are appended to w: the roots
beta_k of a word, its reducedness and its Weyl element, whose action
w(x) = sum_j x_j w(alpha_j) is weyl_act and reflect_root, and for finite
type w0, the positive roots and the star involution.  roots_of_word,
weyl_act and reflect_root refuse a letter outside the index set with
InvalidBox, and the last two a root vector of the wrong length with
DimensionMismatch.  Each context is the one owner of what its matrix says
about the diagram, cached on first use: the braid-relation table that the
move readers of the words layer share, and for the Q-datum layer each
vertex's neighbours, the star involution and the Coxeter number of each
vertex's component.

preset names a context: a key of PRESET_MATRICES (a1, a1xa1, a2, b2, c2,
g2, a3, b3, c3), else a finite family, a<n>, b<n>, c<n>, d<n>, e6, e7, e8
or f4, from the one family builder, _finite_family.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    InvalidBox,
    NotFiniteType,
    NotGCM,
    NotSymmetrizable,
    as_int,
    default_budget,
)

RootVector = tuple  # integer coordinates over the index set


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

    @cached_property
    def _relations(self) -> dict:
        """The braid-relation table: (i, j) -> the window i j i ... of the
        relation of distinct labels i, j, whose rewrite is the window of
        (j, i).  Its length is 2, 3, 4 or 6 by c_ij * c_ji = 0, 1, 2, 3
        (Tits 1969); pairs with a larger product have no relation and no
        entry."""
        return {
            (i, j): _alternating(i, j, _RELATION_LENGTH[prod])
            for i in self.index_set
            for j in self.index_set
            if i != j and (prod := self.pair_product(i, j)) < len(_RELATION_LENGTH)
        }

    @cached_property
    def _neighbours(self) -> dict:
        """label -> the labels j with c_ij = -1, in index order."""
        labels = self.index_set
        return {
            i: tuple(j for j, c in zip(labels, row) if c == -1)
            for i, row in zip(labels, self.matrix)
        }

    @cached_property
    def _star(self) -> dict:
        """The involution i -> i* induced by the longest element; data that
        is not of finite type raises NotFiniteType."""
        return dict(zip(self.index_set, self._finite_type.star))

    @cached_property
    def _periods(self) -> dict:
        """label -> the Coxeter number of its component: one more than the
        height of the highest root covering the label, since that root is
        its component's highest.  Finite type only, as _star."""
        roots = self._finite_type.positive_roots  # by ascending height
        return {
            i: next(sum(beta) for beta in reversed(roots) if beta[t]) + 1
            for t, i in enumerate(self.index_set)
        }


# Length of the braid relation window between distinct letters i, j, indexed
# by c_ij * c_ji.
_RELATION_LENGTH = (2, 3, 4, 6)


def _alternating(i, j, size: int) -> tuple:
    """The window i j i ... of the given length: the one shape every move
    window must have."""
    return tuple(j if t % 2 else i for t in range(size))


def _minimal_symmetrizer(matrix: Sequence[Sequence[int]]) -> tuple:
    """Solve d_i c_ij = d_j c_ji with positive integers, minimal per component.

    One walk per component, from its smallest index, sets the ratios and
    checks them on every cycle."""
    n = len(matrix)
    ratio: list = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        comp, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                # d_i c_ij = d_j c_ji  =>  d_j = d_i c_ij / c_ji
                want = ratio[i] * Fraction(matrix[i][j], matrix[j][i])
                if ratio[j] is None:
                    ratio[j] = want
                    comp.append(j)
                    stack.append(j)
                elif ratio[j] != want:
                    raise NotSymmetrizable("inconsistent symmetrizer ratios on a cycle")
        denom = lcm(*(ratio[i].denominator for i in comp))
        g = gcd(*(int(ratio[i] * denom) for i in comp))
        for i in comp:
            ratio[i] = int(ratio[i] * denom) // g
    return tuple(ratio)


def validate_cartan(
    matrix: Sequence[Sequence[int]],
    opt_symmetrizer: Optional[Sequence[int]] = None,
    index_set: Optional[Sequence] = None,
) -> CartanData:
    """Check the GCM axioms and attach a symmetrizer.

    Raises NotGCM for an entry that is not an integer (as_int), a broken
    diagonal, positive off-diagonal entries, or an asymmetric zero pattern;
    NotSymmetrizable for a supplied symmetrizer entry that is not an integer,
    or when no positive solution of d_i c_ij = d_j c_ji exists (or a
    supplied one fails the equation).
    """
    n = len(matrix)
    if n == 0:
        raise NotGCM("empty index set")
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise DimensionMismatch("matrix is not square")
        rows.append(
            tuple(as_int(v, NotGCM, "entry c[", i, "][", j, "] =") for j, v in enumerate(row))
        )
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
        d = tuple(
            as_int(v, NotSymmetrizable, "symmetrizer entry d[", i, "] =")
            for i, v in enumerate(opt_symmetrizer)
        )
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


def _check_letters(cd: CartanData, letters) -> None:
    """Refuse the first letter outside the index set with InvalidBox."""
    for i in letters:
        if i not in cd.position:
            raise InvalidBox(f"letter {i!r} not in the index set")


class _WeylWalk:
    """The images w(alpha_i) of every simple root, in index-set order, as
    letters are appended to w, starting from the identity.

    Appending j sends w(alpha_i) to w(alpha_i) - c_ji w(alpha_j), so the
    root beta_k = w_{k-1}(alpha_{i_k}) is the image of i_k read just
    before i_k is appended.  The roots are the inversions of the word, all
    positive exactly when it is reduced (Humphreys, Reflection Groups and
    Coxeter Groups, 1.6-1.7).
    """

    def __init__(self, cd: CartanData, letters: Sequence = ()):
        self.cd = cd
        self.images = [cd.simple_root(i) for i in cd.index_set]
        self.roots: list = []
        for j in letters:
            self.append(j)

    def append(self, j) -> None:
        p = self.cd.position[j]
        beta = self.images[p]
        self.roots.append(beta)
        self.images = [
            x if c == 0 else tuple(a - c * b for a, b in zip(x, beta))
            for x, c in zip(self.images, self.cd.matrix[p])
        ]

    @property
    def reduced(self) -> bool:
        return all(min(beta) >= 0 for beta in self.roots)


def reflect_root(cd: CartanData, i, x: Sequence[int]) -> RootVector:
    """Simple reflection s_i acting on root coordinates: x - (sum_j x_j c_ij) alpha_i."""
    return weyl_act(cd, (i,), x)


def weyl_act(cd: CartanData, letters: Sequence, x: Sequence[int]) -> RootVector:
    """Apply w = s_{i_1} s_{i_2} ... s_{i_k} to x: the sum of x_j w(alpha_j)
    over the images of one _WeylWalk along the letters."""
    _check_letters(cd, letters)
    if len(x) != cd.rank:
        raise DimensionMismatch("root vector length mismatch")
    images = _WeylWalk(cd, letters).images
    return tuple(sum(map(mul, x, column)) for column in zip(*images))


class WordRoots(NamedTuple):
    roots: tuple
    all_positive: bool


def roots_of_word(cd: CartanData, letters: Sequence) -> WordRoots:
    """beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) together with a positivity certificate,
    read off one _WeylWalk along the word.

    All beta_k positive is exactly the Weyl-reducedness certificate; positive
    roots of a reduced word are automatically pairwise distinct.
    """
    _check_letters(cd, letters)
    walk = _WeylWalk(cd, letters)
    return WordRoots(tuple(walk.roots), walk.reduced)


@dataclass(frozen=True)
class FiniteTypeData:
    positive_roots: tuple
    longest_word: tuple
    star: tuple  # star[n] is the label i* for the n-th label of index_set
    coxeter_number: Optional[int]


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

    Data that is not of finite type is refused first, by the leading
    principal minors of the symmetrized matrix.  The rest is one greedy
    _WeylWalk: always append the smallest index whose image w(alpha_i) is
    still positive.  In a finite Weyl group that walk is reduced and stops
    exactly at w0, after |R+| letters, so its roots are the positive roots
    and its final images are w0(alpha_i) = -alpha_{i*}, which give the star.
    One ascent flag per index says whether its image is positive; appending
    p changes only the images of the i with c_pi != 0, so only their flags
    are tested again.
    The Coxeter number 2|R+|/|I| is stored only when it is an integer (it
    always is for irreducible types).
    """
    minor = _first_nonpositive_minor(cd)
    if minor is not None:
        raise NotFiniteType(
            "symmetrized Cartan matrix is not positive definite: leading "
            f"principal minor of order {minor[0]} is {minor[1]}"
        )
    walk, word = _WeylWalk(cd), []
    ascent = [min(x) >= 0 for x in walk.images]
    while True in ascent:
        p = ascent.index(True)
        word.append(cd.index_set[p])
        walk.append(cd.index_set[p])
        for i, c in enumerate(cd.matrix[p]):
            if c:
                ascent[i] = min(walk.images[i]) >= 0
    star = tuple(cd.index_set[x.index(-1)] for x in walk.images)
    twice = 2 * len(word)
    h = twice // cd.rank if twice % cd.rank == 0 else None
    return FiniteTypeData(
        positive_roots=tuple(sorted(walk.roots, key=lambda r: (sum(r), r))),
        longest_word=tuple(word),
        star=star,
        coxeter_number=h,
    )


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


# The fixed named matrices, looked up before any family name; the campaigns
# of verify all run on them.  The b2 preset has c_12 = -1, c_21 = -2; c2 is
# the transposed orientation, as _finite_family builds them.
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


# The least rank of each infinite family; e6, e7, e8 and f4 are the only
# exceptional names.
_LEAST_RANK = {"a": 1, "b": 2, "c": 2, "d": 4}
_EXCEPTIONAL = ("e6", "e7", "e8", "f4")


def _finite_family(letter: str, n) -> CartanData:
    """The Cartan matrix of the finite family letter ("a" to "f") at a rank
    n it has, an int or its decimal numeral: the chain 1-2-...-n with at
    most two edges replaced, an edge (i, j, c_ij, c_ji).  b keeps
    c_{n,n-1} = -2 and c is its transpose; d attaches n to n-2; e
    (Bourbaki) joins 1-3 and 2-4 before the chain 3-4-...-n; f4 has
    c_32 = -2.  A rank whose matrix has more than default_budget() cells is
    BudgetExhausted, named by its number of digits where it or its cell
    count is past Python's int/str digit limit."""
    budget = default_budget()
    try:
        n = int(n)
        size = f"rank {n} has {n * n} matrix cells" if n * n > budget else ""
    except ValueError:  # past the digit limit, so n * n is past any budget
        size = f"a {len(str(n))}-digit rank"
    if size:
        raise BudgetExhausted(
            f"type-{letter.upper()} context of {size}, over the budget of {budget}"
        )
    edges = [(k, k + 1, -1, -1) for k in range(1, n)]
    if letter == "b":
        edges[-1] = (n - 1, n, -1, -2)
    elif letter == "c":
        edges[-1] = (n - 1, n, -2, -1)
    elif letter == "d":
        edges[-1] = (n - 2, n, -1, -1)
    elif letter == "e":
        edges[:2] = [(1, 3, -1, -1), (2, 4, -1, -1)]
    elif letter == "f":
        edges[1] = (2, 3, -1, -2)
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in edges:
        matrix[i - 1][j - 1], matrix[j - 1][i - 1] = cij, cji
    return validate_cartan(matrix)


def preset(name: str) -> CartanData:
    """The context of a name, case-insensitive: a key of PRESET_MATRICES,
    else a finite family a<n> (n >= 1), b<n> and c<n> (n >= 2), d<n>
    (n >= 4), e6, e7, e8 or f4 (_finite_family).  Any other name, a non-str
    included, is NotGCM."""
    key = name.lower() if isinstance(name, str) else ""
    if key in PRESET_MATRICES:
        return validate_cartan(PRESET_MATRICES[key])
    letter, digits = key[:1], key[1:]
    if key in _EXCEPTIONAL or (
        letter in _LEAST_RANK
        # a numeral of the least rank or more, read only by _finite_family
        and re.fullmatch(f"[{_LEAST_RANK[letter]}-9]|[1-9][0-9]+", digits, re.ASCII)
    ):
        return _finite_family(letter, digits)
    raise NotGCM(f"unknown Cartan preset {name!r}")
