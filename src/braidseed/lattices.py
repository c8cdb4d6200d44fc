"""Exact integer linear algebra for small systems.

``column_echelon`` is a unimodular column reduction A U = H.  The
canonical smallest point of an affine lattice x0 + span(kernel) is found
by an iterative-deepening search on the max-norm, ``_canonical_point``,
over an echelon basis of the kernel that is reduced at every later pivot
into [-step/2, step/2): unique for the lattice, with small supports.  Two
echelon bases of one lattice have the same pivots and steps, and each
coordinate has the same last touching vector in both, so the search, its
node count and its answer depend only on the affine lattice.
``seeds.solve_lambda`` builds such a basis from wedges and calls the
search directly.  Its nodes are counted against the shared search budget
(``BRAIDSEED_BUDGET``), and running out raises BudgetExhausted.  All
arithmetic stays in Python integers.
"""
from __future__ import annotations

from typing import Sequence

from .errors import BudgetExhausted
from .words import default_budget


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

    Returns (H, U, pivots) where H is in column echelon form, U is
    unimodular, and pivots lists (row, column) positions with positive
    pivot entries.  Columns of H beyond the last pivot are zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [[int(v) for v in row] for row in rows]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for i in range(m):
        piv = next((j for j in range(r, n) if H[i][j] != 0), None)
        if piv is None:
            continue
        if piv != r:
            for row in H:
                row[r], row[piv] = row[piv], row[r]
            for row in U:
                row[r], row[piv] = row[piv], row[r]
        for j in range(r + 1, n):
            if H[i][j] == 0:
                continue
            a, b = H[i][r], H[i][j]
            g, s, t = _xgcd(a, b)
            ag, bg = a // g, b // g
            for row in (*H, *U):
                x, y = row[r], row[j]
                row[r] = s * x + t * y
                row[j] = -bg * x + ag * y
        if H[i][r] < 0:
            for row in (*H, *U):
                row[r] = -row[r]
        pivots.append((i, r))
        r += 1
    return H, U, pivots


def _echelon_kernel(kernel: list, n: int) -> tuple[list, list]:
    """The reduced echelon basis of a nonempty kernel basis along
    coordinate rows, and its pivot rows.  Both are unique for the lattice:
    any generators of it give the same basis, and the same search."""
    H, _, pivots = column_echelon([list(row) for row in zip(*kernel)])
    basis = [[H[i][c] for i in range(n)] for _, c in pivots]
    pivot_rows = [i for i, _ in pivots]
    return _reduce_echelon(basis, pivot_rows), pivot_rows


def _size_reduce(x: list, basis: list, pivot_rows: list) -> list:
    """Shift x by the basis so each pivot entry lies in [-step/2, step/2)."""
    out = list(x)
    for vec, p in zip(basis, pivot_rows):
        step = vec[p]
        if step:
            q = (2 * out[p] + step) // (2 * step)  # nearest integer, halves up
            if q:
                out = [a - q * b for a, b in zip(out, vec)]
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
    default_budget() nodes.
    """
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
    no vector touches are checked once per radius, before the search.  Each
    child copies its parent's point and adds its coefficient times its
    vector over the coordinates not final yet; the final ones are written
    into the point only at a leaf, from what each depth chose.

    The first part of the canonical order is the histogram of the sizes,
    compared lexicographically from the radius down: the count of entries
    at the radius, then at radius - 1, and so on.  Final sizes only add to
    a branch's histogram, so a branch whose final coordinates already form
    a histogram above the best leaf's loses at every leaf and is dropped.
    Only the leaves with the best histogram are kept, and ranked by the
    full order.  At each depth the coefficients are tried from the centre
    out (Schnorr and Euchner 1994), starting at the one that puts the pivot
    coordinate nearest 0, so that small leaves come first and prune the
    rest.  Every node is fixed
    by the pivot values so far, so the node count depends only on the
    affine lattice; the reduction only shrinks the supports.  Raises
    BudgetExhausted when the search visits more than default_budget()
    nodes.
    """
    current = _size_reduce(x0, basis, pivot_rows)
    n = len(current)
    budget = default_budget()
    support = [[(i, v) for i, v in enumerate(vec) if v] for vec in basis]
    last_touch = [-1] * n
    for depth, vec in enumerate(support):
        for i, _ in vec:
            last_touch[i] = depth
    # at depth d the coordinates that are final once vector d has its
    # coefficient (the pivot among them) are read, and only the others move
    final, moved = [], []
    for d, vec in enumerate(support):
        done = [(i, v) for i, v in vec if last_touch[i] == d]
        final.append(([i for i, _ in done], [v for _, v in done]))
        moved.append([(i, v) for i, v in vec if last_touch[i] > d])
    untouched = [abs(current[i]) for i in range(n) if last_touch[i] < 0]
    # per depth d of the current branch: its final coordinates' values
    # before vector d is added, and vector d's coefficient
    chosen = [None] * len(basis)
    nodes = 0

    def search(radius: int) -> list:
        found = []
        # hist[r] counts the final coordinates of size radius - r, so list
        # order on histograms is the first part of the canonical order
        hist = [0] * (radius + 1)
        best = [n + 1]  # histogram of the best leaves; above every histogram

        def dfs(depth: int, current: list) -> None:
            nonlocal nodes, best
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(
                    f"lattice search stopped after {budget} nodes at radius {radius}"
                )
            if depth == len(basis):
                # every coordinate is final here, and hist <= best
                if hist < best:
                    best = list(hist)
                    found.clear()
                for (rows, steps), (xs, coeff) in zip(final, chosen):
                    for i, x, v in zip(rows, xs, steps):
                        current[i] = x + coeff * v
                found.append(current)
                return
            p = pivot_rows[depth]
            step = basis[depth][p]
            base = current[p]
            # integer coeff with |base + step*coeff| <= radius; step > 0,
            # and Python floor division handles negative numerators
            lo = -((radius + base) // step)
            hi = (radius - base) // step
            rows, steps = final[depth]
            xs = [current[i] for i in rows]
            # centre out: the pivot coordinate nearest 0 first
            for coeff in sorted(range(lo, hi + 1), key=lambda c: abs(base + step * c)):
                sizes = [abs(x + coeff * v) for x, v in zip(xs, steps)]
                if max(sizes) > radius:
                    continue
                for size in sizes:
                    hist[radius - size] += 1
                # the final sizes only add to hist, so a branch above best
                # stays above it at every leaf
                if hist <= best:
                    chosen[depth] = xs, coeff
                    child = current.copy()
                    for i, v in moved[depth]:
                        child[i] += coeff * v
                    dfs(depth + 1, child)
                for size in sizes:
                    hist[radius - size] -= 1

        if all(size <= radius for size in untouched):
            for size in untouched:
                hist[radius - size] += 1
            dfs(0, list(current))
        return found

    # the size-reduced point is a leaf at radius max|current|, so this ends
    radius = 0
    while not (candidates := search(radius)):
        radius += 1

    def key(x: list):
        sizes = list(map(abs, x))
        return sorted(sizes, reverse=True), sizes, [v < 0 for v in x]

    return min(candidates, key=key)
