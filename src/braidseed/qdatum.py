"""Height functions on simply-laced diagrams and the repetition lattice.

A height function orients the diagram; its level-0 window, read from the
top level down, is an adapted longest word w0, whose star-periodic
extension ..., w0, w0*, w0, ... is in bijection with the lattice of
(vertex, level) pairs.  One index per Q-datum holds a period w0 w0* of it
as points and as each vertex's positions, and the roots of w0, so the
point at any position, the position of any point, and the bijection to
positive roots with a winding number (Hernandez-Leclerc) in both
directions are read in O(1).  The windows of each vertex step by the
Coxeter number of its component, so reducible data need no common one.
On top of that sit the reindexed exchange matrix of a window, the inverse
quantum Cartan series, and the standard monomial exponent patterns.

The diagram's facts, each vertex's neighbours, the star involution and
the Coxeter number of each vertex's component, are read from the
CartanData, which derives each once.  A QDatum caches, on first use, only
what its heights decide: the adapted word and the extension index.  A
CartanSeries memoises, per vertex pair read by n_form, the row N_ij(d) for
|d| < u_max, so n_form is one lookup; further out it refuses the first
order of the four that was not computed.  One rule checks a
point, _require_point: a vertex of the index set, an integer level
(as_int) and the vertex's parity, each refused with PointOutsideLattice,
as is a lone vertex outside the index set (_vertex_position).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, NamedTuple, Sequence

from .cartan import CartanData, roots_of_word
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    HeightParityViolation,
    NonContiguousWindow,
    NotASource,
    NotInvertibleAtOrder,
    NotSimplyLaced,
    PointOutsideLattice,
    SeriesOrderInsufficient,
    as_int,
    default_budget,
)
from .seeds import gls_matrix
from .words import Word, WordKind


@dataclass(frozen=True)
class QDatum:
    """Simply-laced Cartan data with a height per vertex.

    The orientation is derived: an arrow i -> j exists exactly when the
    vertices are adjacent and the height drops along it.  The diagram's
    facts are the CartanData's; a datum caches only the adapted word and
    the extension index, which its heights decide.
    """

    cartan: CartanData
    heights: tuple

    def height(self, i) -> int:
        return self.heights[self.cartan.position[i]]

    @property
    def arrows(self) -> tuple:
        return tuple(
            (i, j)
            for i in self.cartan.index_set
            for j in self.cartan._neighbours[i]
            if self.height(i) > self.height(j)
        )

    def is_source(self, i) -> bool:
        """True iff every neighbour of the vertex i is lower."""
        heights, pos = self.heights, self.cartan.position
        top = heights[_vertex_position(self.cartan, i)]
        return all(heights[pos[j]] < top for j in self.cartan._neighbours[i])

    @cached_property
    def _adapted_word(self) -> Word:
        """The body of adapted_word, run once per datum."""
        pos = self.cartan.position
        window = sorted(
            delta_window(self, 0), key=lambda pt: (-pt.level, pos[pt.vertex])
        )
        letters = tuple(pt.vertex for pt in window)
        running = self
        for i in letters:
            running = source_reflect(running, i)
        return Word(letters, WordKind.WEYL_REDUCED)

    @cached_property
    def _extension(self) -> "Extension":
        """One period of the star-periodic extension, w0 then w0* (2l
        positions), with the roots of w0.  The level at position k is xi_i
        minus twice the occurrences of i = i_k before k."""
        w0 = adapted_word(self)
        star = self.cartan._star
        positions: Dict[object, list] = {i: [] for i in self.cartan.index_set}
        points = []
        for k in range(1, 2 * w0.length + 1):
            i = extended_sequence(w0, star, k)
            points.append(RepetitionPoint(i, self.height(i) - 2 * len(positions[i])))
            positions[i].append(k)
        roots = roots_of_word(self.cartan, w0.letters).roots
        return Extension(
            tuple(points),
            {i: tuple(ks) for i, ks in positions.items()},
            roots,
            {beta: r for r, beta in enumerate(roots)},
        )


class Extension(NamedTuple):
    """QDatum._extension: the point at each position of one period w0 w0*,
    vertex -> its ascending positions in that period, the roots
    beta_1, ..., beta_l of w0 (roots_of_word), and beta_r -> r - 1."""

    points: tuple
    positions: dict
    roots: tuple
    slots: dict


@dataclass(frozen=True)
class RepetitionPoint:
    vertex: int
    level: int

    def __str__(self) -> str:
        return f"({self.vertex},{self.level})"


def _require_simply_laced(cd: CartanData) -> None:
    for i, row in zip(cd.index_set, cd.matrix):
        for j, c in zip(cd.index_set, row):
            if i != j and c not in (0, -1):
                raise NotSimplyLaced(f"entry c[{i},{j}] = {c} outside {{0, -1}}")


def _vertex_position(cd: CartanData, i, pt=None) -> int:
    """The position of vertex i in the index set; a vertex outside it is
    PointOutsideLattice, its message led by "<pt>: " for the vertex of pt."""
    try:
        return cd.position[i]
    except KeyError:
        lead = "" if pt is None else f"{pt}: "
        raise PointOutsideLattice(f"{lead}vertex {i!r} is not in the index set") from None


def validate_height(cd: CartanData, xi: Sequence[int]) -> QDatum:
    """Build a QDatum, checking simply-lacedness, integer heights and the
    unit-step rule."""
    _require_simply_laced(cd)
    if len(xi) != len(cd.index_set):
        raise DimensionMismatch(
            f"got {len(xi)} heights for {len(cd.index_set)} vertices"
        )
    heights = tuple(
        as_int(v, HeightParityViolation, f"xi_{i} =") for i, v in zip(cd.index_set, xi)
    )
    height = dict(zip(cd.index_set, heights))
    for i, near in cd._neighbours.items():
        for j in near:
            if abs(height[i] - height[j]) != 1:
                raise HeightParityViolation(
                    f"|xi_{i} - xi_{j}| = {abs(height[i] - height[j])} on an edge"
                )
    return QDatum(cd, heights)


def source_reflect(qd: QDatum, i) -> QDatum:
    """Lower the height of a source vertex by 2 (is_source)."""
    if not qd.is_source(i):
        raise NotASource(f"vertex {i} has an incoming arrow")
    heights = list(qd.heights)
    heights[qd.cartan.position[i]] -= 2
    return QDatum(qd.cartan, tuple(heights))


def adapted_word(qd: QDatum) -> Word:
    """Longest word adapted to the heights: the level-0 window read from
    the top level down, built once per datum and cached on it.

    Vertex i contributes one letter per level in (xi_{i*} - h, xi_i], h
    the Coxeter number of its component, stepping by 2; same-level
    vertices share a parity class, hence are non-adjacent and commute, so
    position order breaks those ties.  Pure greedy source extraction is
    not enough: it can overdraw a vertex whose window allotment is
    exhausted and leave a non-reduced word.  Replaying the source
    reflections certifies that the word is adapted.
    """
    return qd._adapted_word


def extended_sequence(w0: Word, star: dict, k: int) -> int:
    """Letter at any integer position of the star-periodic extension."""
    k = as_int(k, PointOutsideLattice, "k =")
    length = w0.length
    base = (k - 1) % length + 1
    shifts = (k - 1) // length
    letter = w0.letter(base)
    if shifts % 2 != 0:
        letter = star[letter]
    return letter


def _point_at(qd: QDatum, k: int) -> RepetitionPoint:
    """Point at any integer position k of the extension: position
    q * 2l + r carries the point of position r of the period
    (QDatum._extension), 2q levels lower per occurrence of its vertex in a
    period."""
    ext = qd._extension
    q, r = divmod(k - 1, len(ext.points))
    i, p = ext.points[r].vertex, ext.points[r].level
    return RepetitionPoint(i, p - 2 * q * len(ext.positions[i]))


def pk_sequence(qd: QDatum, lo: int, hi: int):
    """Points (i_k, p_k) for k in [lo, hi], any integers."""
    lo = as_int(lo, PointOutsideLattice, "lo =")
    hi = as_int(hi, PointOutsideLattice, "hi =")
    return [_point_at(qd, k) for k in range(lo, hi + 1)]


def delta_window(qd: QDatum, k: int) -> frozenset:
    """Lattice points with xi_{i*} - (k+1)h < p <= xi_i - kh, where h is
    the Coxeter number of the component of i.  A k that is not an integer
    is PointOutsideLattice."""
    k = as_int(k, PointOutsideLattice, "k =")
    star, period = qd.cartan._star, qd.cartan._periods
    out = set()
    for i, xi in zip(qd.cartan.index_set, qd.heights):
        h = period[i]
        upper = xi - k * h
        lower = qd.height(star[i]) - (k + 1) * h
        top = upper if (k * h) % 2 == 0 else upper - 1
        out.update(RepetitionPoint(i, p) for p in range(top, lower, -2))
    return frozenset(out)


def in_lattice(qd: QDatum, pt: RepetitionPoint) -> bool:
    """True iff pt is a point of qd's lattice (_require_point)."""
    try:
        _require_point(qd, pt)
    except PointOutsideLattice:
        return False
    return True


def _require_point(qd: QDatum, pt: RepetitionPoint) -> int:
    """The level of pt as an int when pt is a point of qd's lattice: a
    vertex of the index set, then an integer level (as_int), then of the
    vertex's parity.  Otherwise PointOutsideLattice naming the failure."""
    position = _vertex_position(qd.cartan, pt.vertex, pt)
    level = as_int(pt.level, PointOutsideLattice, pt, ": level")
    if (level - qd.heights[position]) % 2:
        raise PointOutsideLattice(f"{pt} violates the level parity at {pt.vertex}")
    return level


@dataclass(frozen=True)
class BHLWindow:
    """Reindexed exchange matrix of a contiguous chunk of the extension."""

    points: tuple
    positions: tuple
    entries: tuple

    @cached_property
    def _row_of(self) -> dict:
        """point -> its row (and column) of entries, built once."""
        return {pt: r for r, pt in enumerate(self.points)}

    def entry(self, a: RepetitionPoint, b: RepetitionPoint) -> int:
        """The entry at two points of the window; a point with a level
        that is not an integer is PointOutsideLattice, any other point
        outside the window ValueError."""
        for pt in (a, b):
            as_int(pt.level, PointOutsideLattice, pt, ": level")
        row_of = self._row_of
        try:
            return self.entries[row_of[a]][row_of[b]]
        except KeyError as err:
            raise ValueError(f"{err.args[0]} is not a point of the window") from None


def _position_of_point(qd: QDatum, pt: RepetitionPoint) -> int:
    """Position of a lattice point in the extension.

    Level p of vertex i is its occurrence n = (xi_i - p) / 2 counted from
    position 1 (n < 0 at positions <= 0): with the N positions of i in a
    period of QDatum._extension, occurrence r of period q for n = qN + r.
    """
    level = _require_point(qd, pt)
    ext = qd._extension
    ks = ext.positions[pt.vertex]
    q, r = divmod((qd.height(pt.vertex) - level) // 2, len(ks))
    return q * len(ext.points) + ks[r]


def phi_map(qd: QDatum, pt: RepetitionPoint):
    """(positive root, winding level) of a lattice point.

    The point at extension position k, with k - 1 = q * l + (r - 1), maps
    to (beta_r, -q), beta_r the r-th root of w0 (QDatum._extension): each
    period of l positions, w0 or w0*, carries every positive root once.
    """
    k = _position_of_point(qd, pt)
    roots = qd._extension.roots
    q, r = divmod(k - 1, len(roots))
    return roots[r], -q


def phi_inverse(qd: QDatum, root, level: int) -> RepetitionPoint:
    """Lattice point mapping to (root, level): the point at position
    -level * l + r of the extension for root = beta_r, so a query costs
    O(1) whatever the level."""
    beta = tuple(root)
    level = as_int(level, PointOutsideLattice, "level =")
    ext = qd._extension
    if beta not in ext.slots:
        raise PointOutsideLattice(f"no lattice point maps to {(beta, level)}")
    return _point_at(qd, -level * len(ext.roots) + ext.slots[beta] + 1)


def b_hl(qd: QDatum, points: Sequence[RepetitionPoint]) -> BHLWindow:
    """Exchange matrix of the window, entries looked up by lattice point.

    The points, in any order, must fill consecutive positions of the
    extension; each position is read from the index (_position_of_point).
    """
    if not points:
        return BHLWindow((), (), ())
    located = sorted(
        ((_position_of_point(qd, pt), pt) for pt in points), key=lambda t: t[0]
    )
    positions = tuple(k for k, _ in located)
    for (a, pt), b in zip(located, positions[1:]):
        if b == a:
            raise NonContiguousWindow(f"point {pt} is repeated at position {a}")
        if b != a + 1:
            raise NonContiguousWindow(
                f"positions {positions} skip {a + 1}..{b - 1}"
            )
    ordered = tuple(pt for _, pt in located)
    letters = tuple(pt.vertex for pt in ordered)
    matrix = gls_matrix(qd.cartan, Word(letters, WordKind.POSITIVE_BRAID))
    return BHLWindow(ordered, positions, matrix.entries)


@dataclass(frozen=True)
class CartanSeries:
    """Coefficients of the series inverse of the quantum Cartan matrix.

    Expanded with nonnegative exponents around q = 0, so the support
    starts at u = 1 and every coefficient with u <= 0 is zero.  Requests
    beyond the computed order raise instead of returning a wrong zero.

    _rows is a private memo of n_form: vertex pair -> its kernel row, built
    from the coefficients the first time the pair is read.  It takes no
    part in ==, hash or repr.
    """

    cartan: CartanData
    u_max: int
    coefficients: tuple
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def entry(self, i, j, u: int) -> int:
        """Coefficient (i, j) at order u; a u that is not an integer is
        NotInvertibleAtOrder, a vertex outside the index set (at any u)
        PointOutsideLattice."""
        u = as_int(u, NotInvertibleAtOrder, "u =")
        a, b = _vertex_position(self.cartan, i), _vertex_position(self.cartan, j)
        if u <= 0:
            return 0
        if u > self.u_max:
            raise SeriesOrderInsufficient(f"order {u} beyond computed {self.u_max}")
        return self.coefficients[u - 1][a][b]

    def _row(self, i, j) -> tuple:
        """Build and memoise the kernel row of (i, j): N_ij(d) =
        c(d-1) - c(d+1) - c(-d-1) + c(-d+1) for |d| < u_max, at index
        d + u_max - 1, c(u) = entry(i, j, u).  As c vanishes at u <= 0,
        N(d) = c(d-1) - c(d+1) for d > 0, N(0) = 0 and N(-d) = -N(d)."""
        a, b = _vertex_position(self.cartan, i), _vertex_position(self.cartan, j)
        c = [0] + [m[a][b] for m in self.coefficients]
        half = [c[d - 1] - c[d + 1] for d in range(1, self.u_max)]
        row = self._rows[(i, j)] = (*(-v for v in reversed(half)), 0, *half)
        return row


def cartan_tilde(cd: CartanData, u_max: int) -> CartanSeries:
    """Invert C(q) = q^{-1}(I + qD + q^2 I) as a power series times q.

    D is the off-diagonal part of the Cartan matrix; the recurrence
    R_m = -(D R_{m-1} + R_{m-2}) with R_0 = I gives coefficient u = m+1.
    D is -1 exactly on the edges, so row a of R_m is the sum of the rows
    of R_{m-1} at the neighbours of a, minus row a of R_{m-2}.  A u_max
    that is not an integer, or is below 1, is NotInvertibleAtOrder; a
    series of more than default_budget() cells, u_max * rank^2, is
    BudgetExhausted.
    """
    n = len(cd.index_set)
    _require_simply_laced(cd)
    u_max = as_int(u_max, NotInvertibleAtOrder, "u_max =")
    if u_max < 1:
        raise NotInvertibleAtOrder(f"order {u_max} < 1 computes nothing")
    if u_max * n * n > (budget := default_budget()):
        raise BudgetExhausted(
            f"a series of order {u_max} has {u_max * n * n} cells, "
            f"over the budget of {budget}"
        )
    pos, near = cd.position, cd._neighbours
    identity = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    coeffs = [identity]
    prev2 = [[0] * n for _ in range(n)]
    prev1 = identity
    for _ in range(u_max - 1):
        nxt = []
        for a, i in enumerate(cd.index_set):
            row = [-v for v in prev2[a]]
            for j in near[i]:
                row = [x + y for x, y in zip(row, prev1[pos[j]])]
            nxt.append(row)
        coeffs.append(nxt)
        prev2, prev1 = prev1, nxt
    frozen = tuple(tuple(tuple(row) for row in m) for m in coeffs)
    return CartanSeries(cd, u_max, frozen)


def n_form(series: CartanSeries, p1: RepetitionPoint, p2: RepetitionPoint) -> int:
    """Pairing from four series coefficients at the level differences
    shifted by d_i = 1 (cartan_tilde is simply-laced only).

    The second pair of terms enters with flipped signs so that the
    pairing is antisymmetric and vanishes on the diagonal, which the
    torus commutation rule it feeds requires.  A level that is not an
    integer (as_int), or a vertex outside the index set, is
    PointOutsideLattice.  For a level difference |d| < u_max it is one
    lookup in the series' row of the vertex pair (CartanSeries._row);
    beyond, once both vertices are checked, it is SeriesOrderInsufficient
    for the first order past u_max that the four coefficients c(d-1),
    c(d+1), c(-d-1), c(-d+1) would read: |d|-1 if that is past it, else
    |d|+1.
    """
    i, p = p1.vertex, p1.level
    j, q = p2.vertex, p2.level
    if not (type(p) is type(q) is int):
        p = as_int(p, PointOutsideLattice, p1, ": level")
        q = as_int(q, PointOutsideLattice, p2, ": level")
    d = p - q
    u = series.u_max
    if -u < d < u:
        return (series._rows.get((i, j)) or series._row(i, j))[d + u - 1]
    for vertex in (i, j):
        _vertex_position(series.cartan, vertex)
    order = abs(d) - 1 if abs(d) - 1 > u else abs(d) + 1
    raise SeriesOrderInsufficient(f"order {order} beyond computed {u}")


def a_monomial(qd: QDatum, i, p: int) -> dict:
    """Exponent pattern of the standard monomial at (i, p).

    +1 at levels p-1 and p+1 of vertex i, -1 at level p of each adjacent
    vertex; adjacency parity makes every listed point a lattice point.
    """
    try:
        below = RepetitionPoint(i, p - 1)
    except TypeError:
        raise PointOutsideLattice(f"p = {p!r} is not an integer") from None
    p = _require_point(qd, below) + 1
    out = {
        RepetitionPoint(i, p - 1): 1,
        RepetitionPoint(i, p + 1): 1,
    }
    for j in qd.cartan._neighbours[i]:
        out[RepetitionPoint(j, p)] = -1
    return out
