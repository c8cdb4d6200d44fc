"""Column echelon, canonical smallest solutions, and a reference solver.

Oracle: exhaustive enumeration over small boxes, on fixed cases and on
random consistent systems.  ``solve_integer_system`` is the general
integer solver the pairing solve used before it moved to the left-kernel
coordinates of the exchange columns; it stays here as the reference that
the seed tests compare against.
"""
from __future__ import annotations

import itertools
import random
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidseed.errors import BudgetExhausted, NoIntegralSolution, ShapeMismatch
from braidseed.lattices import (
    _echelon_kernel,
    _size_reduce,
    canonical_smallest_solution,
    column_echelon,
)


def matmul_vec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def echelon_with_transform(rows, n):
    """(H, U, pivots) with A U = H, U unimodular: column_echelon of A
    stacked over the n x n identity is [H; U], since the identity rows come
    after every row of A and only touch the columns past its pivots."""
    m = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    stacked, pivots = column_echelon([list(row) for row in rows] + identity)
    return stacked[:m], stacked[m:], [(i, c) for i, c in pivots if i < m]


def solve_integer_system(rows, rhs):
    """One integer solution of A x = c plus a kernel lattice basis.

    Raises NoIntegralSolution when the system has no integer solution.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise NoIntegralSolution(f"rhs length {len(rhs)} != row count {m}")
    H, U, pivots = echelon_with_transform(rows, n)
    y = [0] * n
    for i, c in pivots:
        residual = rhs[i] - sum(H[i][j] * y[j] for j in range(c))
        if residual % H[i][c] != 0:
            raise NoIntegralSolution(
                f"row {i}: residual {residual} not divisible by pivot {H[i][c]}"
            )
        y[c] = residual // H[i][c]
    for i in range(m):
        if sum(H[i][j] * y[j] for j in range(n)) != rhs[i]:
            raise NoIntegralSolution(f"row {i} is inconsistent")
    x = [sum(U[i][j] * y[j] for j in range(n)) for i in range(n)]
    rank = len(pivots)
    kernel = [[U[i][j] for i in range(n)] for j in range(rank, n)]
    return x, kernel


def test_solve_reproduces_random_consistent_systems():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        x_true = [rng.randrange(-3, 4) for _ in range(n)]
        rhs = matmul_vec(rows, x_true)
        x, kernel = solve_integer_system(rows, rhs)
        assert matmul_vec(rows, x) == rhs
        for vec in kernel:
            assert matmul_vec(rows, vec) == [0] * m


def test_kernel_spans_solutions():
    rows = [[1, 1, 0], [0, 0, 2]]
    x, kernel = solve_integer_system(rows, [3, 4])
    assert matmul_vec(rows, x) == [3, 4]
    assert len(kernel) == 1
    assert matmul_vec(rows, kernel[0]) == [0, 0]


def test_infeasible_raises():
    with pytest.raises(NoIntegralSolution):
        solve_integer_system([[2]], [1])
    with pytest.raises(NoIntegralSolution):
        solve_integer_system([[1, 1], [1, 1]], [0, 1])


def test_echelon_is_unimodular_combination():
    rng = random.Random(9)
    for _ in range(20):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        H, U, pivots = echelon_with_transform(rows, n)
        assert column_echelon(rows) == (H, pivots)
        assert abs(determinant(U)) == 1
        for i in range(m):
            for j in range(n):
                got = sum(rows[i][k] * U[k][j] for k in range(n))
                assert got == H[i][j]
        for i, c in pivots:
            assert H[i][c] > 0
            assert all(H[i][j] == 0 for j in range(c + 1, n))


def determinant(matrix):
    """The determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * v * determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, v in enumerate(matrix[0])
    )


def brute_canonical(rows, rhs, n, box=3):
    best = None
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if matmul_vec(rows, list(x)) != rhs:
            continue
        key = (
            sorted((abs(v) for v in x), reverse=True),
            [abs(v) for v in x],
            [0 if v >= 0 else 1 for v in x],
        )
        if best is None or key < best[0]:
            best = (key, list(x))
    return best[1] if best else None


def test_canonical_matches_brute_force():
    cases = [
        ([[1, 0, 0], [0, 1, -1]], [0, -2]),
        ([[1, 1]], [0]),
        ([[2, 0], [0, 3]], [4, -3]),
        ([[1, -1, 0], [0, 1, -1]], [1, 1]),
        ([[1, 2, 3]], [0]),
    ]
    for rows, rhs in cases:
        n = len(rows[0])
        expect = brute_canonical(rows, rhs, n)
        assert expect is not None
        assert canonical_smallest_solution(*solve_integer_system(rows, rhs)) == expect


def test_canonical_prefers_positive_sign():
    # x1 + x2 = 0 admits (1,-1) and (-1,1) at radius 1; zero is excluded
    # by a second constraint.
    rows = [[1, 1], [1, -1]]
    assert canonical_smallest_solution(*solve_integer_system(rows, [0, 2])) == [1, -1]


def test_canonical_unconstrained_is_zero():
    assert canonical_smallest_solution(*solve_integer_system([[0, 0]], [0])) == [0, 0]


@st.composite
def small_consistent_systems(draw):
    """A x = A x_true with |x_true| <= 2, so the canonical solution lies in
    the brute-force box."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    x_true = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return rows, matmul_vec(rows, x_true)


@settings(max_examples=150, deadline=None)
@given(small_consistent_systems())
def test_canonical_matches_brute_force_on_random_systems(system):
    rows, rhs = system
    expect = brute_canonical(rows, rhs, len(rows[0]))
    assert canonical_smallest_solution(*solve_integer_system(rows, rhs)) == expect


@st.composite
def sparse_consistent_systems(draw):
    """The system whose solutions are x_true + (Q-span(K) ∩ Z^n), with
    |x_true| <= 2 and K of 2 <= k < n vectors with one to three nonzero
    entries each.  Coordinates that no kernel vector touches, and kernel
    vectors that touch coordinates past a later vector's pivot, are common
    here; they are where each coordinate's last touch matters."""
    n = draw(st.integers(3, 5))
    sparse = []
    for _ in range(draw(st.integers(2, n - 1))):
        vec = [0] * n
        for c in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
            vec[c] = draw(st.sampled_from([-2, -1, 1, 2]))
        sparse.append(vec)
    _, rows = solve_integer_system(sparse, [0] * len(sparse))
    x_true = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return rows, matmul_vec(rows, x_true)


@settings(max_examples=150, deadline=None)
@given(sparse_consistent_systems())
def test_canonical_matches_brute_force_on_sparse_kernels(system):
    rows, rhs = system
    # the canonical point is no longer in max-norm than x_true
    expect = brute_canonical(rows, rhs, len(rows[0]), box=2)
    assert canonical_smallest_solution(*solve_integer_system(rows, rhs)) == expect


@settings(max_examples=100, deadline=None)
@given(small_consistent_systems(), st.randoms(use_true_random=False))
def test_canonical_depends_only_on_the_affine_lattice(system, rng):
    rows, rhs = system
    x0, kernel = solve_integer_system(rows, rhs)
    # another point of the same coset and another basis of the same lattice
    shifted = list(x0)
    for vec in kernel:
        c = rng.randrange(-3, 4)
        shifted = [a + c * b for a, b in zip(shifted, vec)]
    mixed = [list(v) for v in kernel]
    for a in range(len(mixed)):
        for b in range(a + 1, len(mixed)):
            c = rng.randrange(-2, 3)
            mixed[a] = [x + c * y for x, y in zip(mixed[a], mixed[b])]
    rng.shuffle(mixed)
    assert canonical_smallest_solution(shifted, mixed) == canonical_smallest_solution(
        x0, kernel
    )


def det(m):
    """Determinant by cofactors along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** c * m[0][c] * det([row[:c] + row[c + 1 :] for row in m[1:]])
        for c in range(len(m))
    )


def adjugate(m):
    return [
        [
            (-1) ** (r + c) * det([row[:r] + row[r + 1 :] for k, row in enumerate(m) if k != c])
            for c in range(len(m))
        ]
        for r in range(len(m))
    ]


def reference_canonical_point(x0, basis, pivot_rows, budget):
    """The canonical search in its plain form, as a reference that freezes
    the search tree: every coefficient of the pivot's range is tried, in a
    stable sort by the pivot's size; one that puts a final coordinate
    beyond the radius is skipped without a node; the histogram is a list.
    Returns (the point, the nodes visited); raises BudgetExhausted, with
    the library's message, past budget nodes."""

    def size_reduce(x):
        out = list(x)
        for vec, p in zip(basis, pivot_rows):
            q = (2 * out[p] + vec[p]) // (2 * vec[p])
            out = [a - q * b for a, b in zip(out, vec)]
        return out

    current = size_reduce(x0)
    n = len(current)
    support = [[(i, v) for i, v in enumerate(vec) if v] for vec in basis]
    last_touch = [-1] * n
    for depth, vec in enumerate(support):
        for i, _ in vec:
            last_touch[i] = depth
    final = [[(i, v) for i, v in vec if last_touch[i] == d] for d, vec in enumerate(support)]
    moved = [[(i, v) for i, v in vec if last_touch[i] > d] for d, vec in enumerate(support)]
    untouched = [abs(current[i]) for i in range(n) if last_touch[i] < 0]
    chosen = [None] * len(basis)
    nodes = 0

    def search(radius):
        found = []
        hist = [0] * (radius + 1)  # hist[r] counts the sizes radius - r
        best = [n + 1]

        def dfs(depth, point):
            nonlocal nodes, best
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(
                    f"lattice search stopped after {budget} nodes at radius {radius}"
                )
            if depth == len(basis):
                if hist < best:
                    best = list(hist)
                    found.clear()
                leaf = list(point)
                for done, (xs, coeff) in zip(final, chosen):
                    for (i, v), x in zip(done, xs):
                        leaf[i] = x + coeff * v
                found.append(leaf)
                return
            p = pivot_rows[depth]
            step, base = basis[depth][p], point[p]
            xs = [point[i] for i, _ in final[depth]]
            coeffs = range(-((radius + base) // step), (radius - base) // step + 1)
            for coeff in sorted(coeffs, key=lambda c: abs(base + step * c)):
                sizes = [abs(x + coeff * v) for x, (_, v) in zip(xs, final[depth])]
                if max(sizes) > radius:
                    continue
                for size in sizes:
                    hist[radius - size] += 1
                if hist <= best:
                    chosen[depth] = xs, coeff
                    child = list(point)
                    for i, v in moved[depth]:
                        child[i] += coeff * v
                    dfs(depth + 1, child)
                for size in sizes:
                    hist[radius - size] -= 1

        if all(size <= radius for size in untouched):
            for size in untouched:
                hist[radius - size] += 1
            dfs(0, current)
        return found

    radius = 0
    while not (candidates := search(radius)):
        radius += 1
    return min(candidates, key=canonical_key), nodes


def canonical_key(x):
    sizes = [abs(v) for v in x]
    return sorted(sizes, reverse=True), sizes, [v < 0 for v in x]


def enumerate_canonical(x0, kernel, rows):
    """min(key) over every point of x0 + span(kernel) within a radius: the
    max-norm of the size-reduced point, or of x0 when that is smaller (a
    point beyond the max-norm of a lattice point loses to it on the first
    part of the key).  The kernel vectors are independent, and their
    entries at the coordinates rows form an invertible block K_S.  Each
    point is fixed by its entries y at rows: the coefficients
    adj(K_S)(y - x0_S) / det(K_S) must be integers."""
    n, d = len(x0), len(kernel)
    reduced = _size_reduce(x0, *_echelon_kernel(kernel, n))
    radius = min(max(map(abs, reduced)), max(map(abs, x0)))
    block = [[vec[r] for vec in kernel] for r in rows]
    scale, adj = det(block), adjugate(block)
    points = []
    for y in itertools.product(range(-radius, radius + 1), repeat=d):
        shift = [a - x0[r] for a, r in zip(y, rows)]
        scaled = [sum(map(mul, row, shift)) for row in adj]
        if any(c % scale for c in scaled):
            continue
        coeffs = [c // scale for c in scaled]
        x = [x0[i] + sum(c * vec[i] for c, vec in zip(coeffs, kernel)) for i in range(n)]
        if max(map(abs, x)) <= radius:
            points.append(x)
    assert points  # x0 or the size-reduced point is one of them
    return min(points, key=canonical_key)


@st.composite
def small_lattices(draw):
    """x0 + span(kernel) in Z^n, n <= 5, with one to three independent
    kernel vectors and every entry in [-6, 6]; returns it with the
    coordinates of an invertible block of the kernel."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, min(3, n)))
    entry = st.integers(-6, 6)
    kernel = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=d, max_size=d))
    x0 = draw(st.lists(entry, min_size=n, max_size=n))
    rows = next(
        (
            rows
            for rows in itertools.combinations(range(n), d)
            if det([[vec[r] for vec in kernel] for r in rows])
        ),
        None,
    )
    assume(rows is not None)
    return x0, kernel, rows


@settings(max_examples=150, deadline=None)
@given(small_lattices())
def test_canonical_search_equals_enumeration_within_the_size_reduced_radius(lattice):
    x0, kernel, rows = lattice
    assert canonical_smallest_solution(x0, kernel) == enumerate_canonical(x0, kernel, rows)


@settings(max_examples=150, deadline=None)
@given(small_lattices(), st.randoms(use_true_random=False))
def test_the_reduced_echelon_kernel_depends_only_on_the_lattice(lattice, rng):
    _, kernel, _ = lattice
    n = len(kernel[0])
    # a random unimodular recombination: adds of multiples, a shuffle, signs
    mixed = [list(v) for v in kernel]
    for _ in range(2 * len(mixed)):
        a, b = rng.randrange(len(mixed)), rng.randrange(len(mixed))
        if a != b:
            c = rng.randrange(-3, 4)
            mixed[a] = [x + c * y for x, y in zip(mixed[a], mixed[b])]
    rng.shuffle(mixed)
    mixed = [v if rng.random() < 0.5 else [-x for x in v] for v in mixed]
    basis, pivot_rows = _echelon_kernel(kernel, n)
    assert _echelon_kernel(mixed, n) == (basis, pivot_rows)
    for d, (vec, p) in enumerate(zip(basis, pivot_rows)):
        assert not any(vec[:p]) and vec[p] > 0
        for later, q in zip(basis[d + 1 :], pivot_rows[d + 1 :]):
            assert -later[q] <= 2 * vec[q] < later[q]


def test_canonical_solution_refuses_kernel_vectors_of_another_length():
    for kernel in ([[1]], [[1, 0, 0]], [[1, 0], [1]]):
        with pytest.raises(ShapeMismatch, match=r"^kernel vectors of lengths other than 2$"):
            canonical_smallest_solution([1, 2], kernel)
    assert canonical_smallest_solution([1, 2], []) == [1, 2]


def test_size_reduce_is_exact_beyond_float_range():
    # Shifts round to the nearest integer, halves up; the first two
    # quotients do not fit in a float.
    assert _size_reduce([10**400 + 1], [[3]], [0]) == [-1]
    assert _size_reduce([5 * 10**400 + 1], [[2 * 10**400]], [0]) == [-(10**400) + 1]
    assert _size_reduce([5, 7], [[2, 1], [0, 4]], [0, 1]) == [-1, 0]
