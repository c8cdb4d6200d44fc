"""Exact integer linear algebra for small systems.

``column_echelon`` is a unimodular column reduction A U = H.  The
canonical smallest point of an affine lattice x0 + span(kernel) is found
by an iterative-deepening search on the max-norm, ``_canonical_point``,
over an echelon basis of the kernel that is reduced at every later pivot
into [-step/2, step/2): unique for the lattice, with small supports.  Two
echelon bases of one lattice have the same pivots and steps, and each
coordinate has the same last touching vector in both, so the search, its
node count and its answer depend only on the affine lattice.  At each
depth the search tries only the coefficients in the interval that keeps
every coordinate final there within the radius, read off the least and
the largest value per step size, in a stable sort by the pivot's size:
a coefficient outside the interval would be dropped without a node, so
the tree is the one every coefficient of the pivot's range would give.
Each child carries a whole point, so the leaves are the candidates.
``seeds.solve_lambda`` builds such a basis from wedges and calls the
search directly.  Its nodes are counted against the shared search budget
(``BRAIDSEED_BUDGET``), and running out raises BudgetExhausted.  All
arithmetic stays in Python integers.
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter, mul
from typing import Sequence

from .errors import BudgetExhausted, ShapeMismatch, default_budget


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def column_echelon(rows: Sequence[Sequence[int]]) -> tuple:
    """Unimodular column reduction A U = H.

    Returns (H, pivots) where H is in column echelon form and pivots lists
    (row, column) positions with positive pivot entries.  Columns of H
    beyond the last pivot are zero.  U is not formed: a caller that needs
    it reduces A stacked over the identity, whose bottom block is U.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [[int(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for i in range(m):
        piv = next((j for j in range(r, n) if H[i][j] != 0), None)
        if piv is None:
            continue
        if piv != r:
            for row in H:
                row[r], row[piv] = row[piv], row[r]
        for j in range(r + 1, n):
            if H[i][j] == 0:
                continue
            a, b = H[i][r], H[i][j]
            g, s, t = _xgcd(a, b)
            ag, bg = a // g, b // g
            for row in H:
                x, y = row[r], row[j]
                row[r] = s * x + t * y
                row[j] = -bg * x + ag * y
        if H[i][r] < 0:
            for row in H:
                row[r] = -row[r]
        pivots.append((i, r))
        r += 1
    return H, pivots


def _echelon_kernel(kernel: list, n: int) -> tuple[list, list]:
    """The reduced echelon basis of a nonempty kernel basis along
    coordinate rows, and its pivot rows.  Both are unique for the lattice:
    any generators of it give the same basis, and the same search."""
    H, pivots = column_echelon([list(row) for row in zip(*kernel)])
    basis = [[H[i][c] for i in range(n)] for _, c in pivots]
    pivot_rows = [i for i, _ in pivots]
    return _reduce_echelon(basis, pivot_rows), pivot_rows


def _size_reduce(x: list, basis: list, pivot_rows: list) -> list:
    """Shift x by the basis so each pivot entry lies in [-step/2, step/2).
    Each shift touches only the nonzero entries of its vector."""
    out = list(x)
    for vec, p in zip(basis, pivot_rows):
        step = vec[p]
        if step:
            q = (2 * out[p] + step) // (2 * step)  # nearest integer, halves up
            if q:
                for i in compress(range(len(vec)), vec):
                    out[i] -= q * vec[i]
    return out


def _reduce_echelon(basis: list, pivot_rows: list) -> list:
    """Size-reduce each vector of an echelon basis at every later pivot.

    Later vectors vanish before their pivots, so each reduction keeps the
    earlier pivot entries, and the result, the column Hermite normal form
    up to the rounding range, is unique for the lattice."""
    return [
        _size_reduce(vec, basis[d + 1 :], pivot_rows[d + 1 :])
        for d, vec in enumerate(basis)
    ]


def canonical_smallest_solution(x0: Sequence[int], kernel: list) -> list:
    """The canonical point of the affine lattice x0 + span(kernel).

    Among its points, minimizes the multiset of absolute entries from the
    largest down, then the absolute entries in position order, then
    prefers nonnegative entries.  The answer depends only on the lattice,
    not on the choice of x0 or of the kernel generators.  Found by
    _canonical_point on the reduced echelon basis of the kernel lattice.
    Raises BudgetExhausted when the search visits more than
    default_budget() nodes, and ShapeMismatch when a kernel vector's length
    is not x0's.
    """
    if any(len(vec) != len(x0) for vec in kernel):
        raise ShapeMismatch(f"kernel vectors of lengths other than {len(x0)}")
    if not kernel:
        return list(x0)
    return _canonical_point(x0, *_echelon_kernel(kernel, len(x0)))


def _canonical_point(x0: Sequence[int], basis: list, pivot_rows: list) -> list:
    """canonical_smallest_solution's point of x0 + span(basis), for a
    nonempty echelon basis with positive steps at strictly increasing
    pivot rows, reduced at every later pivot (as _echelon_kernel gives it).

    Iterative deepening on the max-norm: the echelon form makes the
    coefficient ranges finite at each radius.  A coordinate is final once
    the last basis vector that touches it has its coefficient; coordinates
    no vector touches are checked once, and the radius starts at their
    largest size, since no smaller radius has a node.  The search runs on
    the point with each coordinate's sign flipped where the step of its
    last vector is negative, which keeps every size, so every final step
    is positive; the best leaves are flipped back.  At each depth the
    coefficient range is the interval that keeps every coordinate final
    there, the pivot among them, within the radius: per step size, the
    least and the largest current value of its coordinates bound it.  A
    coefficient outside it would put a final coordinate beyond the radius
    and be dropped without a node, so the tree is the one the pivot's
    whole range gives.  Each child copies its parent's point and adds its
    coefficient times its vector, so every leaf is a whole point.

    The first part of the canonical order is the histogram of the sizes,
    compared lexicographically from the radius down: the count of entries
    at the radius, then at radius - 1, and so on.  It is kept as one
    integer with the count of size s in digit s, in a base above the
    number of coordinates, so integer order is histogram order.  Final
    sizes only add to a branch's histogram, so a branch whose final
    coordinates already form a histogram above the best leaf's loses at
    every leaf and is dropped.  Only the leaves with the best histogram are
    kept, and ranked by the full order.  At each depth the coefficients are
    tried from the centre out (Schnorr and Euchner 1994), in a stable sort
    of the range by the pivot's size: the lower coefficient first on a
    tie.  Every node is fixed by the pivot values so far, so the node count
    depends only on the affine lattice; the reduction only shrinks the
    supports.  Raises BudgetExhausted when the search visits more than
    default_budget() nodes.
    """
    current = _size_reduce(x0, basis, pivot_rows)
    n = len(current)
    dim = len(basis)
    budget = default_budget()
    # per depth d, walking the basis backwards: the pivot row and step; the
    # coordinates of vector d that no later vector touches, final at depth
    # d (the pivot among them), grouped by step size for the coefficient
    # bounds, then in group order with their step sizes; and every row of
    # vector d with its step on the flipped point
    levels = [None] * dim
    sign = [1] * n
    later = set()
    for d in reversed(range(dim)):
        vec, p = basis[d], pivot_rows[d]
        rows = list(compress(range(n), vec))
        groups = {}
        for i in rows:
            if i not in later:
                if vec[i] < 0:
                    sign[i] = -1
                groups.setdefault(abs(vec[i]), []).append(i)
        done = [i for group in groups.values() for i in group]
        levels[d] = (
            p,
            vec[p],
            # an itemgetter of one row returns a bare value: the repeated
            # first row keeps every group a tuple
            [(v, itemgetter(*group, group[0])) for v, group in groups.items()],
            done,
            [abs(vec[i]) for i in done],
            [(i, sign[i] * vec[i]) for i in rows],
        )
        later.update(rows)
    current = list(map(mul, sign, current))
    untouched = [abs(current[i]) for i in range(n) if i not in later]
    digit = n.bit_length()  # 2**digit > n, the most entries of one size
    weight = [1 << (digit * size) for size in range(max(map(abs, current)) + 1)]
    nodes = 0

    def search(radius: int) -> list:
        found = []
        best = 1 << (digit * (radius + 1))  # above every histogram

        def dfs(depth: int, current: list, hist: int) -> None:
            nonlocal nodes, best
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(
                    f"lattice search stopped after {budget} nodes at radius {radius}"
                )
            if depth == dim:
                # every coordinate is final here, and hist <= best
                if hist < best:
                    best = hist
                    found.clear()
                found.append(current)
                return
            p, step, groups, rows, steps, shifts = levels[depth]
            base = current[p]
            # integer coeff with |x + v*coeff| <= radius for the pivot, then
            # for every final x with step v > 0; Python floor division
            # handles negative numerators
            lo = -((radius + base) // step)
            hi = (radius - base) // step
            for v, values in groups:
                group = values(current)
                least, most = -((radius + min(group)) // v), (radius - max(group)) // v
                if least > lo:
                    lo = least
                if most < hi:
                    hi = most
            # a stable sort: the pivot's size, the lower coefficient on a tie
            order = sorted(range(lo, hi + 1), key=lambda c: abs(base + step * c))
            xs = [current[i] for i in rows]
            for coeff in order:
                branch = hist + sum([weight[abs(x + coeff * v)] for x, v in zip(xs, steps)])
                # the final sizes only add to hist, so a branch above best
                # stays above it at every leaf
                if branch <= best:
                    child = current.copy()
                    for i, v in shifts:
                        child[i] += coeff * v
                    dfs(depth + 1, child, branch)

        dfs(0, current, sum(map(weight.__getitem__, untouched)))
        return found

    # the size-reduced point is a leaf at radius max|current|, so this ends
    radius = max(untouched, default=0)
    while not (leaves := search(radius)):
        radius += 1

    def key(x: list):
        sizes = list(map(abs, x))
        return sorted(sizes, reverse=True), sizes, [v < 0 for v in x]

    return min([list(map(mul, sign, point)) for point in leaves], key=key)
