"""Seeds: exchange matrices, pairings, mutation tracks, move scripts,
equivalence reports, and the boxed product identity.

Value checks are hand-computed on the rank-2 words; structural oracles
are mutation involutivity on every track, compatibility preservation,
the permutation group action, and agreement between the tropical track
and the exact track's leading exponents.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import sys
from dataclasses import fields, replace
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from braidseed import seeds, transitions, words
from braidseed.cartan import (
    bilinear_form,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
    validate_cartan,
)
from braidseed.errors import (
    BraidseedError,
    BudgetExhausted,
    ConfigInvalid,
    ContextMismatch,
    ExchangeSetNotPreserved,
    FrozenIndex,
    InvalidBox,
    MinorNotReachable,
    NoIntegralSolution,
    ShapeMismatch,
)
from braidseed.lattices import _canonical_point, _reduce_echelon, canonical_smallest_solution
from braidseed.qlaurent import QuantumLaurent, right_divide
from braidseed.seeds import (
    EquivalenceReport,
    ExchangeMatrix,
    FourMoveIntermediate,
    MutationScript,
    check_compatibility,
    checked_mutation,
    exchange_check,
    exchange_vectors,
    gls_matrix,
    initial_seed,
    move_to_mutation_script,
    mutate_seed,
    permute_seed,
    seed_equivalence_report,
    seed_to_json,
    solve_lambda,
    tsystem_check,
    tsystem_sweep,
)
from braidseed.transitions import (
    OrderVerdict,
    bilex_compare,
    par_mutation,
    par_product,
    transition_apply,
)
from braidseed.words import (
    EMPTY_BOX,
    IBox,
    Move,
    MoveKind,
    Word,
    WordKind,
    apply_move,
    find_move_path,
    ibox_vector,
    make_ibox,
    resolve_ibox,
)
from test_lattices import matmul_vec, reference_canonical_point, solve_integer_system
from test_qlaurent import in_order, reference_product, reference_right_divide

BRAID = WordKind.POSITIVE_BRAID
REDUCED = WordKind.WEYL_REDUCED


def test_gls_matrix_a2_example():
    b = gls_matrix(preset("a2"), Word((1, 2, 1), REDUCED))
    assert b.entries == ((0, 0, -1), (0, 0, 1), (1, -1, 0))
    assert b.exchange == (3,)
    assert b.d_prime == (1, 1, 1)
    assert b.column(3) == (-1, 1, 0)


@pytest.mark.parametrize(
    "build",
    [
        gls_matrix,
        initial_seed,
        lambda cd, w: tsystem_check(cd, w, IBox(1, 3)),
        tsystem_sweep,
        words.enumerate_moves,
        lambda cd, w: find_move_path(cd, w, Word((1, 2, 1), BRAID)),
        lambda cd, w: words.words_equal_in_monoid(cd, Word((1, 2, 1), BRAID), w),
        lambda cd, w: seed_equivalence_report(cd, w, Word((1, 2, 1), BRAID)),
    ],
    ids=[
        "gls_matrix",
        "initial_seed",
        "tsystem_check",
        "tsystem_sweep",
        "enumerate_moves",
        "find_move_path",
        "words_equal_in_monoid",
        "seed_equivalence_report",
    ],
)
def test_letters_outside_the_index_set_are_refused(build):
    with pytest.raises(InvalidBox, match="letter 9 not in the index set"):
        build(preset("a2"), Word((1, 9, 1), BRAID))


def test_gls_matrix_no_repeats_no_exchange():
    b = gls_matrix(preset("a2"), Word((1, 2), REDUCED))
    assert b.exchange == ()
    assert b.entries == ((0, 0), (0, 0))


def test_gls_matrix_b2_d_skew():
    cd = preset("b2")
    for letters in [(1, 2, 1, 2), (2, 1, 2, 1)]:
        b = gls_matrix(cd, Word(letters, REDUCED))
        for k in range(1, 5):
            for l in b.exchange:
                if k in b.exchange:
                    lhs = b.d_prime[k - 1] * b.entry(k, l)
                    rhs = -b.d_prime[l - 1] * b.entry(l, k)
                    assert lhs == rhs


def test_solve_lambda_a2_canonical():
    b = gls_matrix(preset("a2"), Word((1, 2, 1), REDUCED))
    lam = solve_lambda(b)
    assert lam == ((0, 0, -1), (0, 0, 1), (1, -1, 0))
    assert check_compatibility(lam, b)


def test_solve_lambda_empty_exchange_is_zero():
    b = gls_matrix(preset("a2"), Word((1, 2), REDUCED))
    assert solve_lambda(b) == ((0, 0), (0, 0))


def pairing_system(b):
    """The pairing system over all C(n, 2) unknowns lambda_ij, i < j, in
    row-major order: one row per (i, j) in K x K^ex."""
    n = b.n
    unknowns = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {pair: t for t, pair in enumerate(unknowns)}
    rows = []
    rhs = []
    for i in range(1, n + 1):
        for j in b.exchange:
            row = [0] * len(unknowns)
            for k in range(1, n + 1):
                coeff = b.entry(k, j)
                if coeff == 0 or k == i:
                    continue
                if i < k:
                    row[index[(i, k)]] += coeff
                else:
                    row[index[(k, i)]] -= coeff
            rows.append(row)
            rhs.append(-2 * b.d_prime[j - 1] if i == j else 0)
    return rows, rhs


def reference_solve_lambda(b):
    """solve_lambda by the general integer solver on the C(n, 2) system."""
    n = b.n
    rows, rhs = pairing_system(b)
    if not rows:
        return tuple((0,) * n for _ in range(n))
    solution = iter(canonical_smallest_solution(*solve_integer_system(rows, rhs)))
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = next(solution)
            lam[j][i] = -lam[i][j]
    return tuple(tuple(row) for row in lam)


def outcome(solve, b):
    try:
        return solve(b)
    except NoIntegralSolution as err:
        return type(err)


# Exchange matrices without a compatible pairing, and the error that
# refuses each.  A zero column, two equal columns (both leading at row 1)
# and the column (0, 4) (with d' = 1 it needs lambda_12 = -1/2) have no
# leading +-1 in a row of their own; the units of ((0, 1), (1, 0)) give a
# Lambda_0 with a non-skew exchange block.
INFEASIBLE = [
    (ExchangeMatrix(((0, 0), (0, 0)), (1,), (1, 1)), ShapeMismatch, "column 1 "),
    (ExchangeMatrix(((0, 1, 1), (0, 0, 0), (0, 0, 0)), (2, 3), (1, 1, 1)), ShapeMismatch,
     "column 3 "),
    (ExchangeMatrix(((0, 0), (4, 0)), (1,), (1, 1)), ShapeMismatch, "column 1 "),
    (ExchangeMatrix(((0, 1), (1, 0)), (1, 2), (1, 1)), NoIntegralSolution,
     "no skew-symmetric integer pairing"),
]


def test_solve_lambda_infeasible():
    for b, error, reason in INFEASIBLE:
        with pytest.raises(error, match=reason):
            solve_lambda(b)
        assert outcome(reference_solve_lambda, b) is NoIntegralSolution


@st.composite
def exchange_matrices(draw):
    """Skew-symmetrizable exchange part d_k b_kl = -d_l b_lk on random
    exchange slots, arbitrary integer rows on the frozen slots."""
    n = draw(st.integers(1, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exchange = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=n))))
    entries = [[0] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            c = draw(st.integers(-2, 2))
            entries[k][l], entries[l][k] = c * d[l], -c * d[k]
    for k in range(n):
        if k + 1 not in exchange:
            entries[k] = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            entries[k][k] = 0
    return ExchangeMatrix(tuple(map(tuple, entries)), exchange, tuple(d))


def has_unit_pivots(b):
    """Each exchange column's first nonzero entry is +-1, in a row of its own."""
    leads = []
    for j in b.exchange:
        column = b.column(j)
        lead = next((k for k, v in enumerate(column) if v), None)
        if lead is None or abs(column[lead]) != 1:
            return False
        leads.append(lead)
    return len(set(leads)) == len(leads)


@st.composite
def unit_pivot_matrices(draw):
    """Arbitrary integer entries, except that exchange column j is 0 above a
    row r_j of its own and +-1 at it; r_j is drawn among all rows, the
    diagonal included.  About one in four has a compatible pairing."""
    n = draw(st.integers(1, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exchange = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n))))
    leads = draw(st.permutations(range(n)))
    entries = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    for k in range(n):
        entries[k][k] = 0
    for j, r in zip(exchange, leads):
        for k in range(r):
            entries[k][j - 1] = 0
        entries[r][j - 1] = draw(st.sampled_from([1, -1]))
    return ExchangeMatrix(tuple(map(tuple, entries)), exchange, tuple(d))


@settings(max_examples=200, deadline=None)
@given(unit_pivot_matrices())
def test_solve_lambda_matches_the_reference_on_random_matrices(b):
    assert has_unit_pivots(b)
    assert outcome(solve_lambda, b) == outcome(reference_solve_lambda, b)


@settings(max_examples=200, deadline=None)
@given(exchange_matrices())
def test_solve_lambda_refuses_matrices_without_unit_pivots(b):
    if has_unit_pivots(b):
        assert outcome(solve_lambda, b) == outcome(reference_solve_lambda, b)
    else:
        with pytest.raises(ShapeMismatch):
            solve_lambda(b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_lambda_matches_the_reference_on_gls_matrices(data):
    cd = data.draw(st.sampled_from([preset(name) for name in ("a2", "b3", "c3", "a4", "d4")]))
    letters = data.draw(st.lists(st.sampled_from(cd.index_set), max_size=10))
    b = gls_matrix(cd, Word(tuple(letters), BRAID))
    lam = solve_lambda(b)
    assert lam == reference_solve_lambda(b)
    assert check_compatibility(lam, b)


def test_check_compatibility_rejects_perturbation():
    b = gls_matrix(preset("a2"), Word((1, 2, 1), REDUCED))
    lam = [list(row) for row in solve_lambda(b)]
    lam[0][2] += 1
    lam[2][0] -= 1
    assert not check_compatibility(lam, b)
    with pytest.raises(ShapeMismatch):
        check_compatibility(lam[:2], b)


def naive_compatibility_failures(lam, b):
    """The equations sum_k lambda_ik b_kj = -2 d'_j delta_ij, (i, j) in
    K x K^ex (1-based), that fail, each summed entry by entry."""
    n = b.n
    return [
        (i, j)
        for j in b.exchange
        for i in range(1, n + 1)
        if sum(lam[i - 1][k - 1] * b.entry(k, j) for k in range(1, n + 1))
        != (-2 * b.d_prime[j - 1] if i == j else 0)
    ]


def test_check_compatibility_fails_on_each_kind_of_equation():
    b = gls_matrix(preset("a2"), Word((1, 2, 1, 2), BRAID))
    lam = [list(row) for row in solve_lambda(b)]
    assert check_compatibility(lam, b) and not naive_compatibility_failures(lam, b)
    # a nonzero off-diagonal sum
    nudged = [list(row) for row in lam]
    nudged[0][3] += 1
    nudged[3][0] -= 1
    assert naive_compatibility_failures(nudged, b) == [(1, 3), (4, 3)]
    assert not check_compatibility(nudged, b)
    # a diagonal sum other than -2 d'_j
    doubled = replace(b, d_prime=tuple(2 * d for d in b.d_prime))
    assert naive_compatibility_failures(lam, doubled) == [(3, 3), (4, 4)]
    assert not check_compatibility(lam, doubled)
    # a ragged or short pairing
    for ragged in (lam[:3], [*lam[:3], lam[3][:3]], [*lam[:3], lam[3] + [0]]):
        with pytest.raises(ShapeMismatch, match=r"^pairing size does not match K = \[1, 4\]$"):
            check_compatibility(ragged, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_compatibility_matches_the_naive_sums(data):
    cd = preset(data.draw(st.sampled_from(["a2", "b2", "a3", "b3", "c3", "d4"])))
    b = gls_matrix(cd, random_word(data, cd, max_length=8))
    n = b.n
    kind = data.draw(st.sampled_from(["random", "solution", "nudged", "rescaled"]))
    if kind == "random":
        lam = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            lam[i][j] = data.draw(st.integers(-2, 2))
            lam[j][i] = -lam[i][j]
    else:
        lam = [list(row) for row in solve_lambda(b)]
    if kind == "nudged" and n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        lam[i][j] += 1
        lam[j][i] -= 1
    if kind == "rescaled":
        b = replace(b, d_prime=tuple(data.draw(st.integers(1, 3)) for _ in b.d_prime))
    assert check_compatibility(lam, b) == (not naive_compatibility_failures(lam, b))


def test_initial_seed_a2():
    seed = initial_seed(preset("a2"), Word((1, 2, 1), REDUCED), exact=True)
    assert seed.trop == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert seed.labels == ("D[1,3]", "D[2,2]", "D[3,3]")
    assert seed.lam == seed.torus_lam
    assert [v.leading()[0] for v in seed.exact] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_exchange_vectors_and_relation_a2():
    seed = initial_seed(preset("a2"), Word((1, 2, 1), REDUCED), exact=True)
    up, down = exchange_vectors(seed.b, 3)
    assert up == (0, 1, -1)
    assert down == (1, 0, -1)
    mutated = mutate_seed(seed, 3)
    chk = exchange_check(seed, 3, mutated)
    assert chk.verified is True
    assert (chk.alpha_doubled, chk.beta_doubled) == (-1, 1)
    assert mutated.trop[2] == (1, 0, 0)
    exps = sorted(mutated.exact[2].terms)
    assert exps == [(0, 1, -1), (1, 0, -1)]


def test_exchange_check_fails_on_a_wrong_mutation():
    seed = initial_seed(preset("a2"), Word((1, 2, 1), REDUCED), exact=True)
    assert exchange_check(seed, 3, mutate_seed(seed, 3)).verified is True
    assert exchange_check(seed, 3, seed).verified is False


def test_mutate_seed_rejects_frozen_index():
    seed = initial_seed(preset("a2"), Word((1, 2, 1), REDUCED))
    with pytest.raises(FrozenIndex):
        mutate_seed(seed, 1)
    with pytest.raises(FrozenIndex):
        exchange_check(seed, 2, seed)


def random_words(rng, cd, count, max_length):
    n = len(cd.index_set)
    out = []
    for _ in range(count):
        length = rng.randint(2, max_length)
        out.append(Word(tuple(rng.randint(1, n) for _ in range(length)), BRAID))
    return out


def test_mutation_involution_all_tracks():
    rng = random.Random(7)
    for cd in [preset(n) for n in ["a1xa1", "a2", "b2", "a3", "b3", "a4", "d4", "b4"]]:
        for w in random_words(rng, cd, 4, 6):
            seed = initial_seed(cd, w, exact=w.length <= 5)
            for k in seed.b.exchange:
                once = mutate_seed(seed, k)
                assert check_compatibility(once.lam, once.b)
                twice = mutate_seed(once, k)
                assert twice.b.entries == seed.b.entries
                assert twice.lam == seed.lam
                assert twice.trop == seed.trop
                assert twice.exact == seed.exact


def test_mutated_trop_matches_exact_leading():
    rng = random.Random(11)
    for name in ["a2", "b2", "a3"]:
        cd = preset(name)
        for w in random_words(rng, cd, 3, 5):
            seed = initial_seed(cd, w, exact=True)
            for k in seed.b.exchange:
                mutated = mutate_seed(seed, k)
                pars = []
                for exps in mutated.exact[k - 1].terms:
                    par = tuple(
                        sum(e * v[t] for e, v in zip(exps, seed.trop))
                        for t in range(w.length)
                    )
                    pars.append(par)
                top = pars[0]
                for par in pars[1:]:
                    if bilex_compare(par, top) is OrderVerdict.GREATER:
                        top = par
                assert top == mutated.trop[k - 1]


@functools.cache
def exact_w0_seed(name):
    cd = preset(name)
    return initial_seed(cd, Word(finite_type_data(cd).longest_word, REDUCED), exact=True)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["a3", "b3"]), st.lists(st.integers(0, 99), max_size=4))
def test_exchange_relation_holds_after_mutation_sequences(name, picks):
    seed = exact_w0_seed(name)
    for pick in picks:
        seed = mutate_seed(seed, seed.b.exchange[pick % len(seed.b.exchange)])
    for k in seed.b.exchange:
        assert exchange_check(seed, k, mutate_seed(seed, k)).verified is True


def test_exchange_check_refuses_a_mutated_seed_without_the_exact_track():
    cd = preset("b3")
    w = Word((1, 2, 1, 2), BRAID)
    seed = initial_seed(cd, w, exact=True)
    with pytest.raises(ContextMismatch, match="mutated seed has none"):
        exchange_check(seed, 3, mutate_seed(initial_seed(cd, w), 3))


def test_a_checked_mutation_multiplies_each_exchange_monomial_out_once(monkeypatch):
    """checked_mutation's numerator and exchange check share one product
    per exchange monomial, its factors after the first, and nothing more:
    the left side X_k * mu_k(X_k) is the bar image of the numerator, not a
    product.  The memo lives on the thawed state, so a second call on the
    same seed forms them all again, and a Seed holds no memo."""
    assert "_products" not in {f.name for f in fields(seeds.Seed)}
    w0_seed = exact_w0_seed("c3")
    starts = [w0_seed, mutate_seed(w0_seed, w0_seed.b.exchange[0])]
    product = seeds.torus_product
    calls = []

    def counting(lam, f, g):
        calls.append((f, g))
        return product(lam, f, g)

    monkeypatch.setattr(seeds, "torus_product", counting)
    for seed in starts:
        for k in seed.b.exchange:
            factors = [
                sum(v for v in vec if v > 0) for vec in exchange_vectors(seed.b, k)
            ]
            for _ in range(2):
                calls.clear()
                mutated, check = checked_mutation(seed, k)
                assert check.verified is True
                assert len(calls) == sum(max(f - 1, 0) for f in factors)
            assert mutated == mutate_seed(seed, k)


def reference_exchange_monomial(seed, vec, shift):
    """q^(shift/2) times the based exchange monomial of vec, multiplied out
    from the current variables with reference_product and shifted as an
    object with q_shift."""
    n = seed.b.n
    support = [i for i, v in enumerate(vec) if v]
    doubled = shift + sum(
        vec[i] * vec[j] * seed.lam[i][j] for t, i in enumerate(support) for j in support[:t]
    )
    factors = [seed.exact[j] for j, power in enumerate(vec) for _ in range(max(power, 0))]
    product = factors[0] if factors else QuantumLaurent.monomial(n, (0,) * n)
    for factor in factors[1:]:
        product = reference_product(seed.torus_lam, product, factor)
    return product.q_shift(doubled)


def parent_exchange_rule(seed, k, mutated):
    """The exchange relation as exchange_check once decided it from the
    mutated seed alone: X_k times mutated's variable at k against the right
    side q^(alpha/2) M_up + q^(beta/2) M_down of the exchange vectors with
    slot k set to 0, through the reference kernels."""
    row = seed.lam[k - 1]
    up, down = (
        reference_exchange_monomial(seed, vec[: k - 1] + (0,) + vec[k:], sum(map(mul, vec, row)))
        for vec in exchange_vectors(seed.b, k)
    )
    return reference_product(seed.torus_lam, seed.exact[k - 1], mutated.exact[k - 1]) == up + down


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exchange_check_decides_as_the_relation_on_the_mutated_variable(data):
    """exchange_check agrees with parent_exchange_rule on mutate_seed's
    output and on three wrong variants: the new variable q-shifted,
    another slot's variable in its place, and the unmutated seed.  The
    mutation is checked_mutation's, with exchange_check's verdict."""
    cd = preset(data.draw(st.sampled_from(["a3", "b3", "c3", "d4"])))
    seed = initial_seed(cd, random_word(data, cd, max_length=6), exact=True)
    assume(seed.b.exchange)
    for pick in data.draw(st.lists(st.integers(0, 99), max_size=3)):
        seed = mutate_seed(seed, seed.b.exchange[pick % len(seed.b.exchange)])
    k = data.draw(st.sampled_from(seed.b.exchange))
    mutated = mutate_seed(seed, k)
    check = exchange_check(seed, k, mutated)
    assert checked_mutation(seed, k) == (mutated, check)
    other = data.draw(st.sampled_from([j for j in range(1, seed.b.n + 1) if j != k]))
    variants = [mutated, seed]
    for wrong in (mutated.exact[k - 1].q_shift(2), mutated.exact[other - 1]):
        exact = mutated.exact[: k - 1] + (wrong,) + mutated.exact[k:]
        variants.append(replace(mutated, exact=exact))
    verdicts = [exchange_check(seed, k, v).verified for v in variants]
    assert verdicts == [parent_exchange_rule(seed, k, v) for v in variants]
    assert verdicts == [True, False, False, False]
    assert all(
        replace(exchange_check(seed, k, v), verified=None) == replace(check, verified=None)
        for v in variants
    )


def reference_exact_step(seed, k):
    """The exchange numerator at k, the new variable and the exchange
    relation's verdict, through the reference kernels and two-object sums
    up.q_shift(a) + down.q_shift(b)."""
    vectors = exchange_vectors(seed.b, k)
    row = seed.lam[k - 1]
    up, down = (
        reference_exchange_monomial(seed, vec, -2 * sum(map(mul, vec[k:], row[k:])))
        for vec in vectors
    )
    numerator = up + down
    new = reference_right_divide(seed.torus_lam, numerator, seed.exact[k - 1])
    up, down = (
        reference_exchange_monomial(seed, vec[: k - 1] + (0,) + vec[k:], sum(map(mul, vec, row)))
        for vec in vectors
    )
    lhs = reference_product(seed.torus_lam, seed.exact[k - 1], new)
    return numerator, new, lhs == up + down


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_steps_equal_the_reference_kernels_in_insertion_order(data):
    """Products, divisions and exchange sums of the exact track keep the
    term and entry order of the one-object-per-step reference kernels.  A
    quotient's order follows from its values alone, so the exchange
    numerator is compared in order too."""
    cd = preset(data.draw(st.sampled_from(["a2", "b2", "a3", "b3", "c3"])))
    seed = initial_seed(cd, random_word(data, cd, max_length=6), exact=True)
    assume(seed.b.exchange)
    for pick in data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=5)):
        k = seed.b.exchange[pick % len(seed.b.exchange)]
        numerator, new, holds = reference_exact_step(seed, k)
        vectors = exchange_vectors(seed.b, k)
        numerator_now = seeds._exchange_sum(seeds._SeedState(seed), k, vectors)
        assert in_order(numerator_now) == in_order(numerator)
        mutated = mutate_seed(seed, k)
        assert in_order(mutated.exact[k - 1]) == in_order(new)
        assert mutated.exact[: k - 1] + mutated.exact[k:] == seed.exact[: k - 1] + seed.exact[k:]
        assert exchange_check(seed, k, mutated).verified is holds is True
        seed = mutated


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_variables_are_bar_invariant_and_the_check_is_the_reference_relation(data):
    """Along random words and mutation sequences every exact variable is
    bar-invariant, and the check, which reads the left side off the bar
    image of the step's numerator, decides as the relation multiplied out
    through the reference kernels."""
    cd = preset(data.draw(st.sampled_from(["a2", "b2", "a3", "b3", "c3", "d4"])))
    seed = initial_seed(cd, random_word(data, cd, max_length=6), exact=True)
    assume(seed.b.exchange)
    assert seeds._SeedState(seed).skew
    for pick in data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=5)):
        k = seed.b.exchange[pick % len(seed.b.exchange)]
        numerator, new, holds = reference_exact_step(seed, k)
        mutated, check = checked_mutation(seed, k)
        assert all(x.bar_invariant() for x in mutated.exact)
        assert mutated.exact[k - 1] == new
        assert check.verified is holds is parent_exchange_rule(seed, k, mutated) is True
        seed = mutated


def test_a_pairing_that_is_not_skew_fails_every_exact_check():
    """bar reverses products only under a skew pairing, so a torus_lam
    with a symmetric part fails the check even where the divisions are
    exact; the tropical track decides no skewness."""
    seed = initial_seed(preset("a3"), Word((1, 2, 1, 3, 2, 1), REDUCED), exact=True)
    tilted = tuple(
        tuple(v + (i == j) for j, v in enumerate(row)) for i, row in enumerate(seed.torus_lam)
    )
    assert not seeds._SeedState(replace(seed, torus_lam=tilted)).skew
    assert not seeds._SeedState(replace(seed, exact=None)).skew
    for k in seed.b.exchange:
        assert checked_mutation(seed, k)[1].verified is True
        assert checked_mutation(replace(seed, torus_lam=tilted), k)[1].verified is False



def test_a_long_alternating_exact_walk_keeps_its_period_and_its_bounds():
    """Thirty alternating mutations at the two exchange slots of a2's
    1,2,1,2, a walk around the pentagon: every step equals the reference
    step, the exact track is back at its start after each tenth step and
    only then, and each variable's exponent bound is its largest
    |exponent|.  Bounds that added up from step to step would pass the
    packing bound within about 25 steps and refuse the walk."""
    start = seed = initial_seed(preset("a2"), Word((1, 2, 1, 2), BRAID), exact=True)
    for step in range(1, 31):
        k = start.b.exchange[step % 2]
        numerator, new, holds = reference_exact_step(seed, k)
        seed = mutate_seed(seed, k)
        assert in_order(seed.exact[k - 1]) == in_order(new) and holds
        assert (seed.exact == start.exact) == (step % 10 == 0)
        for var in seed.exact:
            assert var._bound == max(abs(a) for exps in var.terms for a in exps)

def test_permute_seed_group_action():
    rng = random.Random(3)
    cd = preset("a3")
    w = Word((1, 2, 1, 3, 2, 1), REDUCED)
    seed = initial_seed(cd, w, exact=True)
    n = w.length
    identity = tuple(range(1, n + 1))
    assert permute_seed(seed, identity) == seed
    for _ in range(5):
        rho = list(identity)
        sigma = list(identity)
        rng.shuffle(rho)
        rng.shuffle(sigma)
        composed = tuple(rho[sigma[i] - 1] for i in range(n))
        left = permute_seed(permute_seed(seed, tuple(rho)), tuple(sigma))
        assert left == permute_seed(seed, composed)
    with pytest.raises(ExchangeSetNotPreserved):
        permute_seed(seed, (1, 1, 2, 3, 4, 5))


def test_move_scripts_per_kind():
    script = move_to_mutation_script(
        preset("a1xa1"), Word((1, 2), REDUCED), Move(MoveKind.TWO, 1)
    )
    assert script.mutations == ()
    assert script.permutation == (2, 1)
    script = move_to_mutation_script(
        preset("a2"), Word((1, 2, 1), REDUCED), Move(MoveKind.THREE, 1)
    )
    assert script.mutations == (3,)
    assert script.permutation == (2, 1, 3)
    script = move_to_mutation_script(
        preset("b2"), Word((1, 2, 1, 2), REDUCED), Move(MoveKind.FOUR, 1)
    )
    assert script.mutations == (4, 3, 4)
    assert script.permutation == (2, 1, 4, 3)
    script = move_to_mutation_script(
        preset("b2"), Word((2, 1, 2, 1), REDUCED), Move(MoveKind.FOUR, 1)
    )
    assert script.mutations == (3, 4, 3)
    assert script.permutation == (2, 1, 4, 3)


def test_move_scripts_read_the_word_index_not_the_gls_matrix(monkeypatch):
    calls = []
    monkeypatch.setattr(
        seeds, "gls_matrix", lambda *args: calls.append(args) or gls_matrix(*args)
    )
    cd = preset("b3")
    w = Word(finite_type_data(cd).longest_word, REDUCED)
    path = find_move_path(cd, w, Word(tuple(reversed(w.letters)), REDUCED))
    for move in path:
        script = move_to_mutation_script(cd, w, move)
        assert all(k in gls_matrix(cd, w).exchange for k in script.mutations)
        w = apply_move(w, move)
    assert path and calls == []


@pytest.mark.parametrize("letters", [(1, 2, 1, 9), (9, 1, 2, 1), (1, 9, 1)])
def test_move_script_refuses_letters_outside_the_index_set(letters):
    with pytest.raises(InvalidBox, match="letter 9 not in the index set"):
        move_to_mutation_script(
            preset("a2"), Word(letters, BRAID), Move(MoveKind.THREE, 1)
        )


def test_equivalence_a2():
    report = seed_equivalence_report(
        preset("a2"), Word((1, 2, 1), REDUCED), Word((2, 1, 2), REDUCED)
    )
    assert report.match
    assert report.exact_verified is True
    assert report.lam_gauge == ((0,) * 3,) * 3
    assert len(report.path) == 1


def test_equivalence_b2_both_orientations():
    cd = preset("b2")
    for letters in [(1, 2, 1, 2), (2, 1, 2, 1)]:
        wa = Word(letters, REDUCED)
        wb = Word(tuple(reversed(letters)), REDUCED)
        report = seed_equivalence_report(cd, wa, wb)
        assert report.match
        assert report.exact_verified is True
        assert len(report.four_move_intermediates) == 1
        inter = report.four_move_intermediates[0]
        assert inter.value == 1
        assert inter.value == inter.displayed


def test_exact_equivalence_divides_once_per_script_mutation(monkeypatch):
    divisions = []

    def counting(*args):
        divisions.append(args)
        return right_divide(*args)

    monkeypatch.setattr(seeds, "right_divide", counting)
    cd = preset("b2")
    report = seed_equivalence_report(
        cd, Word((1, 2, 1, 2), REDUCED), Word((2, 1, 2, 1), REDUCED), exact=True
    )
    script = move_to_mutation_script(cd, Word((1, 2, 1, 2), REDUCED), report.path[0])
    assert report.exact_verified is True
    assert len(report.path) == 1 and len(script.mutations) > 1
    assert len(divisions) == len(script.mutations) == len(report.exchange_checks)


def test_equivalence_a3_pairs():
    cd = preset("a3")
    pairs = [
        ((1, 2, 1, 3, 2, 1), (3, 2, 3, 1, 2, 3)),
        ((1, 2, 1, 3, 2, 1), (2, 1, 3, 2, 1, 3)),
        ((1, 2, 3, 1, 2, 1), (3, 2, 1, 3, 2, 3)),
    ]
    for a, b in pairs:
        report = seed_equivalence_report(cd, Word(a, REDUCED), Word(b, REDUCED))
        assert len(report.path) >= 2
        assert report.match
        assert report.exact_verified is True


def test_equivalence_identical_words_is_trivial():
    w = Word((1, 2, 1), REDUCED)
    report = seed_equivalence_report(preset("a2"), w, w)
    assert report.path == ()
    assert report.match
    assert report.trop_match


# The equivalence walk as it was before the slot map: the seed is permuted
# after every move, and each target vector is folded through
# transition_apply along the reversed path on its own.
def reference_equivalence_report(cd, w, w2, exact):
    path = tuple(find_move_path(cd, w, w2))
    seed = initial_seed(cd, w, exact=exact)
    current = w
    checks, intermediates = [], []
    for move in path:
        script = move_to_mutation_script(cd, current, move)
        for t, k in enumerate(script.mutations):
            previous, seed = seed, mutate_seed(seed, k)
            checks.append(exchange_check(previous, k, seed))
            if t == 0 and move.kind is MoveKind.FOUR:
                p = move.position
                intermediates.append(
                    FourMoveIntermediate(move, seed.b.entry(p + 1, p + 3))
                )
        seed = permute_seed(seed, script.permutation)
        current = apply_move(current, move)
    target = initial_seed(cd, w2)
    n = w.length
    transported = []
    for vec in target.trop:
        u = w2
        for move in reversed(path):
            vec = transition_apply(cd, u, move, vec, "weighted")
            u = apply_move(u, move)
        transported.append(vec)
    gauge = tuple(
        tuple(seed.lam[i][j] - target.lam[i][j] for j in range(n)) for i in range(n)
    )
    ex = target.b.exchange
    exact_verified = None
    if exact:
        exact_verified = all(c.verified for c in checks) if checks else True
    return EquivalenceReport(
        path=path,
        b_exchange_match=all(
            seed.b.entry(t, l) == target.b.entry(t, l)
            for t in range(1, n + 1)
            for l in ex
        )
        and seed.b.exchange == ex
        and seed.b.d_prime == target.b.d_prime,
        b_full_match=seed.b.entries == target.b.entries,
        trop_match=seed.trop == target.trop,
        transported_match=seed.trop == tuple(transported),
        lam_gauge=gauge,
        lam_gauge_in_kernel=all(
            sum(gauge[i][k - 1] * target.b.entry(k, l) for k in range(1, n + 1)) == 0
            for i in range(n)
            for l in ex
        ),
        exchange_checks=tuple(checks),
        exact_verified=exact_verified,
        four_move_intermediates=tuple(intermediates),
    )


def random_w0_pair(cd, rng):
    """Two reduced words of w0, each a random walk of up to 60 moves."""
    pair = []
    for _ in "ab":
        w = Word(finite_type_data(cd).longest_word, REDUCED)
        for _ in range(rng.randint(0, 60)):
            w = apply_move(w, rng.choice(words.enumerate_moves(cd, w).moves))
        pair.append(w)
    return pair


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["a3", "b3", "c3", "A4", "D4", "B4", "D5"]), st.integers(0, 2**32))
def test_slot_map_walk_equals_the_permute_per_move_walk(name, rng_seed):
    # B4 paths carry 4-moves with 3-mutation scripts, so their reports have
    # four_move_intermediates; D5 words are the longest, 20 letters
    rng = random.Random(rng_seed)
    cd = preset(name)
    w, w2 = random_w0_pair(cd, rng)
    tracks = [False, True] if name in ("b3", "c3") else [False]
    for exact in tracks:
        report = seed_equivalence_report(cd, w, w2, exact=exact)
        assert report == reference_equivalence_report(cd, w, w2, exact)
        assert report.match


def test_each_report_validates_each_move_window_once(monkeypatch):
    # the walk, its scripts and the pull-back of the target all read the
    # windows of words._path_windows
    calls = []

    def counting(*args):
        calls.append(args)
        return words_move_window(*args)

    words_move_window = words._move_window
    for module in (words, seeds, transitions):
        monkeypatch.setattr(module, "_move_window", counting)
    for cd, tracks in ((preset("b3"), (False, True)), (preset("b4"), (False,))):
        w0 = finite_type_data(cd).longest_word
        w, w2 = Word(w0, REDUCED), Word(w0[::-1], REDUCED)
        for exact in tracks:
            calls.clear()
            report = seed_equivalence_report(cd, w, w2, exact)
            assert report.match and report.four_move_intermediates
            assert len(calls) == len(report.path) > 0


def test_the_exact_walk_multiplies_each_exchange_monomial_out_once(monkeypatch):
    """The check after an in-place step reads the products its numerator
    formed, so the walk makes no more products than a fresh seed per step.
    Each product multiplies out an exchange monomial in _current_monomial;
    no step forms a left side X_k * mu_k(X_k), whose two factors are a
    division's divisor and quotient."""
    product, divide = seeds.torus_product, seeds.right_divide
    calls, divided = [], []

    def counting(*args):
        calls.append((sys._getframe(1).f_code.co_name, args[1], args[2]))
        return product(*args)

    def dividing(lam, numerator, divisor):
        quotient = divide(lam, numerator, divisor)
        divided.append((divisor, quotient))
        return quotient

    monkeypatch.setattr(seeds, "torus_product", counting)
    monkeypatch.setattr(seeds, "right_divide", dividing)
    for name in ("b3", "c3"):
        cd = preset(name)
        w0 = finite_type_data(cd).longest_word
        w, w2 = Word(w0, REDUCED), Word(w0[::-1], REDUCED)
        calls.clear()
        divided.clear()
        report = seed_equivalence_report(cd, w, w2, exact=True)
        walked = list(calls)
        steps = list(divided)
        calls.clear()
        assert report == reference_equivalence_report(cd, w, w2, True)
        assert report.exact_verified is True
        assert 0 < len(walked) <= len(calls)
        assert len(steps) == len(report.exchange_checks) > 0
        assert {caller for caller, _, _ in walked} == {"_current_monomial"}
        for divisor, quotient in steps:
            assert not any(
                f == divisor and g == quotient or f == quotient and g == divisor
                for _, f, g in walked
            )


def test_a_script_mutation_at_a_frozen_slot_raises_frozen_index(monkeypatch):
    # scripts mutate only at exchange slots, so a frozen one takes a broken
    # script; the walk refuses it as mutate_seed does, naming the seed slot
    monkeypatch.setattr(
        seeds,
        "_window_script",
        lambda cd, n, m, i, j, p: MutationScript((1,), tuple(range(1, n + 1))),
    )
    cd = preset("a2")
    with pytest.raises(FrozenIndex) as info:
        seed_equivalence_report(cd, Word((1, 2, 1), REDUCED), Word((2, 1, 2), REDUCED))
    assert str(info.value) == "index 1 is not in the exchange set (3,)"
    seed = initial_seed(cd, Word((1, 2, 1), REDUCED))
    with pytest.raises(FrozenIndex, match=r"^index 1 is not in the exchange set \(3,\)$"):
        mutate_seed(seed, 1)


def test_tsystem_reduced_a2():
    report = tsystem_check(preset("a2"), Word((1, 2, 1), REDUCED), IBox(1, 3))
    assert not report.degenerate
    assert report.identity_holds
    assert report.left_sum == (1, 0, 1)
    assert report.lower_sum == (0, 1, 0)
    assert report.lower_verdict is OrderVerdict.LESS
    assert report.match


def test_a_dominant_lower_term_fails_the_match():
    # tsystem_sweep counts such a box as a lower-dominant failure and the
    # CLI's lower-not-dominant comparison differs, so match fails too
    report = tsystem_check(preset("a2"), Word((1, 2, 1), REDUCED), IBox(1, 3))
    assert report.match
    assert not replace(report, lower_verdict=OrderVerdict.GREATER).match


def test_tsystem_exact_a2():
    report = tsystem_check(
        preset("a2"), Word((1, 2, 1), REDUCED), IBox(1, 3), exact=True
    )
    assert report.exact_verified is True
    assert (report.a_doubled, report.b_doubled) == (1, -1)
    assert report.match


def test_tsystem_braid_box_and_exact():
    cd = preset("a2")
    w = Word((1, 2, 1, 2), BRAID)
    report = tsystem_check(cd, w, IBox(1, 3))
    assert report.identity_holds
    assert report.lower_verdict is OrderVerdict.LESS
    report = tsystem_check(cd, w, IBox(2, 4), exact=True)
    assert report.exact_verified is True


def test_tsystem_degenerate_box():
    report = tsystem_check(preset("a2"), Word((1, 2, 1), REDUCED), IBox(2, 2))
    assert report.degenerate
    assert report.match
    with pytest.raises(MinorNotReachable):
        tsystem_check(preset("a2"), Word((1, 2, 1), REDUCED), IBox(2, 2), exact=True)


def test_tsystem_exact_rejects_unreachable():
    with pytest.raises(MinorNotReachable):
        tsystem_check(
            preset("b2"), Word((1, 2, 1, 2), REDUCED), IBox(1, 3), exact=True
        )
    with pytest.raises(MinorNotReachable):
        tsystem_check(
            preset("a2"), Word((1, 2, 1, 2), BRAID), IBox(1, 1), exact=True
        )
    # the next 1 after the box is the last letter of the word
    with pytest.raises(MinorNotReachable, match="not right-anchored"):
        tsystem_check(
            preset("a2"), Word((1, 2, 1, 2, 1), BRAID), IBox(1, 3), exact=True
        )
    # the empty box has no identity to check, in either mode
    for exact in (False, True):
        with pytest.raises(InvalidBox, match="empty box"):
            tsystem_check(
                preset("a2"), Word((1, 2, 1), REDUCED), EMPTY_BOX, exact=exact
            )


def test_tsystem_exact_weights_the_lower_term_by_the_cartan_entries():
    # b2 has c_21 = -2: the lower term of the 1-box [3, 5] of 2,2,1,2,1 is
    # D[4, 4] squared, which is the up exchange monomial at slot 5; a lower
    # term that took each adjacent letter once left the box unreachable
    cd = preset("b2")
    report = tsystem_check(cd, Word((2, 2, 1, 2, 1), BRAID), IBox(3, 5), exact=True)
    assert report.lower_sum == (0, 0, 0, 2, 0)
    assert report.exact_verified is True and report.match
    assert (report.a_doubled, report.b_doubled) == (0, -4)


def test_tsystem_sweep_small_words():
    rng = random.Random(19)
    for name in ["a2", "b2", "a3"]:
        cd = preset(name)
        for w in random_words(rng, cd, 4, 8):
            for a in range(1, w.length + 1):
                for b in range(a, w.length + 1):
                    if w.letter(a) != w.letter(b):
                        continue
                    report = tsystem_check(cd, w, IBox(a, b))
                    if not report.degenerate:
                        assert report.identity_holds
                        if report.lower_verdict is not OrderVerdict.INCOMPARABLE:
                            assert report.lower_verdict is not OrderVerdict.GREATER


def reference_tsystem_terms(cd, w, box):
    """The tropical fields of tsystem_check computed from one i-box object
    per term: the lower product sums the boxes [a+(j), b-(j)] of the
    letters j adjacent to i, each -c_ji times, as in the T-system."""
    resolved = resolve_ibox(w, box)
    a, b = resolved.lo, resolved.hi
    i = w.letter(a)
    a_plus, b_minus = w.after(a, i), w.before(b, i)

    def vec(lo, hi):
        return ibox_vector(w, make_ibox(lo, hi))

    left = par_product(vec(a_plus, b), vec(a, b_minus))
    right = par_product(vec(a, b), vec(a_plus, b_minus))
    lower = (0,) * w.length
    for j in cd.index_set:
        for _ in range(0 if j == i else -cd.entry(j, i)):
            lower = par_product(lower, vec(w.after(a, j), w.before(b, j)))
    verdict = bilex_compare(lower, right)
    return resolved, a_plus > b, left == right, left, right, lower, verdict


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tsystem_and_initial_seed_boxes_match_the_ibox_reference(data):
    cd = preset(data.draw(st.sampled_from(["a2", "b2", "c2", "a3", "b3", "c3"])))
    letters = st.lists(st.sampled_from(cd.index_set), min_size=1, max_size=10)
    w = Word(tuple(data.draw(letters)), BRAID)
    for a, i in enumerate(w.letters, 1):
        for b in w.positions[i]:
            if b < a:
                continue
            report = tsystem_check(cd, w, IBox(a, b))
            assert (
                report.box,
                report.degenerate,
                report.identity_holds,
                report.left_sum,
                report.right_sum,
                report.lower_sum,
                report.lower_verdict,
            ) == reference_tsystem_terms(cd, w, IBox(a, b))
    seed = initial_seed(cd, w)
    anchored = [IBox(s, w.length, brace=True) for s in range(1, w.length + 1)]
    boxes = [resolve_ibox(w, box) for box in anchored]
    assert seed.trop == tuple(ibox_vector(w, box) for box in boxes)
    assert seed.labels == tuple(f"D[{box.lo},{box.hi}]" for box in boxes)


def test_tsystem_and_initial_seed_read_boxes_from_the_word_index(monkeypatch):
    # one tsystem_check resolves the caller's box and no other; initial
    # seeds resolve none: every other box is read from Word.positions
    calls = dict.fromkeys(["resolve_ibox", "make_ibox", "ibox_vector"], 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(words, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (words, seeds):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    cd = preset("a3")
    w = Word((1, 2, 3, 1, 2, 1, 3, 2, 1), BRAID)
    report = tsystem_check(cd, w, IBox(1, 9))
    assert report.identity_holds and report.lower_sum == (0, 1, 0, 0, 1, 0, 0, 1, 0)
    assert calls == {"resolve_ibox": 1, "make_ibox": 0, "ibox_vector": 0}
    calls.update(dict.fromkeys(calls, 0))
    seed = initial_seed(cd, w)
    assert seed.labels[:3] == ("D[1,9]", "D[2,8]", "D[3,7]")
    assert calls == {"resolve_ibox": 0, "make_ibox": 0, "ibox_vector": 0}


def reference_tsystem_sweep(cd, w):
    """The campaign's sweep as one tsystem_check per i-box [a, b], in the
    order of a and then b; each check's tropical fields must equal those
    of one i-box object per term."""
    checked = degenerate = 0
    failures = []
    for a, i in enumerate(w.letters, 1):
        for b in w.positions[i]:
            if b < a:
                continue
            result = tsystem_check(cd, w, IBox(a, b))
            assert (
                result.box,
                result.degenerate,
                result.identity_holds,
                result.left_sum,
                result.right_sum,
                result.lower_sum,
                result.lower_verdict,
            ) == reference_tsystem_terms(cd, w, IBox(a, b))
            checked += 1
            if result.degenerate:
                degenerate += 1
                continue
            if result.left_sum != result.right_sum:
                failures.append({"box": [a, b], "kind": "identity"})
            if result.lower_verdict is OrderVerdict.GREATER:
                failures.append({"box": [a, b], "kind": "lower-dominant"})
    return checked, degenerate, failures


def random_word(data, cd, max_length=10):
    """A word of length 1..max_length over cd, reduced or not; its kind
    says which."""
    letters = tuple(
        data.draw(st.lists(st.sampled_from(cd.index_set), min_size=1, max_size=max_length))
    )
    reduced = roots_of_word(cd, letters).all_positive
    return Word(letters, REDUCED if reduced else BRAID)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tsystem_sweep_equals_one_check_per_box(data):
    cd = preset(
        data.draw(st.sampled_from(["a2", "b2", "c2", "a3", "b3", "c3", "d4", "a4"]))
    )
    w = random_word(data, cd)
    assert tsystem_sweep(cd, w) == reference_tsystem_sweep(cd, w)


def test_tsystem_sweep_reads_every_box_with_two_letters_once(monkeypatch):
    # every box passes, so the totals alone would not show a skipped box
    boxes = []
    terms = seeds._tsystem_terms

    def recorded(n, ks, s, t, mask):
        boxes.append((ks[s], ks[t]))
        return terms(n, ks, s, t, mask)

    monkeypatch.setattr(seeds, "_tsystem_terms", recorded)
    cd = preset("b3")
    w = Word((1, 2, 3, 1, 2, 1, 3, 2, 1, 3), BRAID)
    checked, degenerate, failures = tsystem_sweep(cd, w)
    expected = [
        (a, b) for a, i in enumerate(w.letters, 1) for b in w.positions[i] if b > a
    ]
    assert boxes == expected
    assert (checked, degenerate, failures) == (len(expected) + w.length, w.length, [])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutation_is_an_involution_that_keeps_compatibility(data):
    cd = preset(data.draw(st.sampled_from(["a4", "d4", "b3", "c3"])))
    w = random_word(data, cd)
    seed = initial_seed(cd, w)
    for k in seed.b.exchange:
        once = mutate_seed(seed, k)
        twice = mutate_seed(once, k)
        assert twice.b.entries == seed.b.entries
        assert twice.lam == seed.lam
        assert twice.trop == seed.trop
        assert check_compatibility(once.lam, once.b)


def column_mutate_lam(lam, b, k):
    """The Lambda mutation as it summed the down column before it read
    exchange_vectors."""
    n = b.n
    down = [max(0, -v) for v in b.column(k)]
    out = [list(row) for row in lam]
    for j in range(1, n + 1):
        if j == k:
            continue
        total = -lam[k - 1][j - 1]
        for d, row in zip(down, lam):
            total += d * row[j - 1]
        out[k - 1][j - 1] = total
        out[j - 1][k - 1] = -total
    out[k - 1][k - 1] = 0
    return tuple(tuple(row) for row in out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lambda_mutation_reads_the_down_exchange_vector(data):
    cd = preset(data.draw(st.sampled_from(["a3", "b3", "c3", "d4"])))
    seed = initial_seed(cd, random_word(data, cd))
    # every exchange index of the initial seed, then of one mutated seed
    for _ in range(2):
        for k in seed.b.exchange:
            assert mutate_seed(seed, k).lam == column_mutate_lam(seed.lam, seed.b, k)
        if not seed.b.exchange:
            break
        seed = mutate_seed(seed, data.draw(st.sampled_from(seed.b.exchange)))


def dense_mutate_b(b, k):
    """The B mutation as it rebuilt every row of B."""
    row_k = b.entries[k - 1]
    rows = []
    for i, row in enumerate(b.entries, 1):
        b_ik = row[k - 1]
        sign = -1 if b_ik < 0 else 1
        rows.append(
            tuple(
                -b_ij if i == k or j == k else b_ij + sign * max(b_ik * b_kj, 0)
                for j, (b_ij, b_kj) in enumerate(zip(row, row_k), 1)
            )
        )
    return ExchangeMatrix(tuple(rows), b.exchange, b.d_prime)


def dense_mutate_lam(lam, b, k):
    """The Lambda mutation as it summed row k through every column of Lambda."""
    _, down = exchange_vectors(b, k)
    row = [sum(map(mul, down, column)) for column in zip(*lam)]
    row[k - 1] = 0
    out = [list(r) for r in lam]
    out[k - 1] = row
    for r, v in zip(out, row):
        r[k - 1] = -v
    return tuple(map(tuple, out))


def dense_exchange_parameters(seed, k):
    """_exchange_parameters as it formed the exchange vectors itself."""
    pars = []
    for vec in exchange_vectors(seed.b, k):
        par = (0,) * seed.b.n
        for power, trop in zip(vec, seed.trop):
            if power > 0:
                par = tuple(p + power * t for p, t in zip(par, trop))
        pars.append(par)
    return tuple(pars)


def dense_mutate_seed(seed, k):
    """mutate_seed with every row of B and every column of Lambda rewritten.
    The exact track's numerator is the one formula both versions share."""
    if k not in seed.b.exchange:
        raise FrozenIndex(f"index {k} is not in the exchange set {seed.b.exchange}")
    n = seed.b.n
    new_trop_k = par_mutation(seed.trop[k - 1], *dense_exchange_parameters(seed, k))
    trop = tuple(new_trop_k if t == k - 1 else seed.trop[t] for t in range(n))
    exact = seed.exact
    if exact is not None:
        numerator = seeds._exchange_sum(seeds._SeedState(seed), k, exchange_vectors(seed.b, k))
        new_var = right_divide(seed.torus_lam, numerator, exact[k - 1])
        exact = tuple(new_var if t == k - 1 else exact[t] for t in range(n))
    labels = tuple(
        f"mu{k}({seed.labels[t]})" if t == k - 1 else seed.labels[t] for t in range(n)
    )
    return replace(
        seed,
        b=dense_mutate_b(seed.b, k),
        lam=dense_mutate_lam(seed.lam, seed.b, k),
        trop=trop,
        labels=labels,
        exact=exact,
    )


def _outcome(mutate, seed, k):
    try:
        return mutate(seed, k)
    except BraidseedError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_support_mutation_equals_the_dense_mutation(data):
    cd = preset(data.draw(st.sampled_from(["a3", "b3", "c3", "d4"])))
    w = random_word(data, cd)
    seed = initial_seed(cd, w, exact=w.length <= 5)
    # any slot, so frozen indices are drawn too
    for k in data.draw(st.lists(st.integers(1, w.length), max_size=6)):
        fast = _outcome(mutate_seed, seed, k)
        assert fast == _outcome(dense_mutate_seed, seed, k)
        if not isinstance(fast, seeds.Seed):
            break
        seed = fast


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_script_indices_and_exact_box_slots_are_exchange_slots(data):
    # stands in for the runtime checks these indices once had: the window
    # i j i (j) of a move, and the box [ks[s], ...] of a letter, put an
    # earlier copy of the letter before p+2, p+3 and ks[s+1]
    cd = preset(data.draw(st.sampled_from(["a3", "b3", "c3", "d4", "a4"])))
    w = random_word(data, cd, max_length=12)
    exchange = gls_matrix(cd, w).exchange
    for m in words.enumerate_moves(cd, w).moves:
        assert set(move_to_mutation_script(cd, w, m).mutations) <= set(exchange)
    for ks in w.positions.values():
        assert set(ks[1:]) <= set(exchange)


def test_seed_to_json_shape():
    seed = initial_seed(preset("a2"), Word((1, 2, 1), REDUCED), exact=True)
    payload = seed_to_json(seed)
    assert payload["labels"] == ["D[1,3]", "D[2,2]", "D[3,3]"]
    assert payload["exchange"] == [3]
    assert payload["B"][2] == [1, -1, 0]
    assert payload["variables"]["tropical"][0] == [1, 0, 1]
    assert len(payload["variables"]["exact"]) == 3
    assert payload["word"] == {"letters": [1, 2, 1], "kind": "weyl-reduced"}


def w0_seed(name):
    cd = preset(name)
    return initial_seed(cd, Word(finite_type_data(cd).longest_word, REDUCED))


# Pairing of the seed of each family's canonical longest word: the largest
# |lambda_ij| and the SHA-256 of the JSON list of lambda_ij, i < j, in
# row-major order.  Computed by the unpruned search, which checked every
# coordinate only at the leaves, on the C(n, 2) system; D6 (length 30),
# out of that system's reach, by the left-kernel solve.  A6 (length 21)
# needs 1,565 search nodes, within the default budget (2,121 before the
# search pruned on the whole size histogram); the same pairing came from
# the search that checked a coordinate only at the next pivot row, which
# needed a budget of 50,000,000 (SHA-256 of repr(lam) starts
# fc7bd30ae8fca88f on both).
W0_LAMBDA = {
    "A3": (1, "9b91ed4f75c793a794ded4d274c54ada87040a51052d3b7afaef8794bb0c9488"),
    "B3": (2, "903274a933f5cc34db5b0e19a63ad6fc1e76e58578b5d3cde8ba529492982ba0"),
    "A4": (1, "2b12d172d92f8206cd163a7cfc0e7acaaf01bd047a47ba02f93da4b07164aac3"),
    "D4": (2, "dd2d15958f3f5587fdfa6df1dc21daf00e7270ee9f6257fea59a849024d633d9"),
    "B4": (3, "5b202ddf05c02cd28c25b8da3c205a3e81dc53f4576a9e61f822954047ac3f50"),
    "D5": (2, "53b77f2e9d9ef81a59c8d00d0adf26fadf1c60ccca4fcdb7bfe89ea157b4a25f"),
    "D6": (2, "d97a9eafeefc5664629db3237ad9b1bc9c0440983badb2fb4ed4eb3148dc46f2"),
    "A6": (2, "8f304ae98cf0918dba0636497967fc4e4b9514cece70f0f766fa68573ed823c3"),
}


@pytest.mark.parametrize("family", sorted(W0_LAMBDA))
def test_w0_lambda_matches_pinned_values(family):
    largest, digest = W0_LAMBDA[family]
    seed = w0_seed(family)
    n = seed.b.n
    upper = [seed.lam[i][j] for i in range(n) for j in range(i + 1, n)]
    assert max(map(abs, upper)) == largest
    assert hashlib.sha256(json.dumps(upper).encode()).hexdigest() == digest
    assert check_compatibility(seed.lam, seed.b)


@pytest.mark.parametrize("matrix", [preset(name).matrix for name in ("a3", "a4", "d4", "b4")])
def test_wedge_lattice_is_the_kernel_of_the_pairing_system(matrix, monkeypatch):
    cd = validate_cartan(matrix)
    b = gls_matrix(cd, Word(finite_type_data(cd).longest_word, REDUCED))
    seen = []

    def record(x0, basis, pivot_rows):
        seen.append((x0, basis, pivot_rows))
        return _canonical_point(x0, basis, pivot_rows)

    monkeypatch.setattr(seeds, "_canonical_point", record)
    solve_lambda(b)
    [(x0, wedges, pivot_rows)] = seen
    rows, rhs = pairing_system(b)
    assert matmul_vec(rows, x0) == rhs
    _, kernel = solve_integer_system(rows, rhs)
    assert len(wedges) == len(kernel)
    # each basis lies in the lattice of the other: an integer solution exists
    for basis, other in [(wedges, kernel), (kernel, wedges)]:
        columns = [list(col) for col in zip(*basis)]
        for vec in other:
            solve_integer_system(columns, vec)
    # reduced echelon form: each vector is 0 before its positive pivot, and
    # every later pivot entry of it lies in [-step/2, step/2)
    assert pivot_rows == sorted(set(pivot_rows))
    for d, (vec, p) in enumerate(zip(wedges, pivot_rows)):
        assert not any(vec[:p]) and vec[p] > 0
        for later, q in zip(wedges[d + 1 :], pivot_rows[d + 1 :]):
            assert -later[q] <= 2 * vec[q] < later[q]


@pytest.mark.parametrize(
    "matrix, nodes",
    [(preset(name).matrix, nodes) for name, nodes in (("a6", 1_565), ("b5", 2_058), ("d6", 3_440))],
)
def test_w0_pairing_search_needs_exactly_its_pinned_nodes(matrix, nodes, monkeypatch):
    cd = validate_cartan(matrix)
    b = gls_matrix(cd, Word(finite_type_data(cd).longest_word, REDUCED))
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(nodes))
    lam = solve_lambda(b)
    assert check_compatibility(lam, b)
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(nodes - 1))
    with pytest.raises(BudgetExhausted, match=f"after {nodes - 1} nodes"):
        solve_lambda(b)


# built at import: the tests that draw from them set small budgets, which a
# family name of preset must fit
W0_LATTICE_FAMILIES = {name: preset(name) for name in ("A3", "B3", "A4", "D4", "B4", "D5")}


@functools.cache
def w0_lattice(family):
    """(x0, basis, pivot_rows) that solve_lambda searches for the seed of
    the family's canonical longest word."""
    cd = W0_LATTICE_FAMILIES[family]
    b = gls_matrix(cd, Word(finite_type_data(cd).longest_word, REDUCED))
    seen = []

    def record(x0, basis, pivot_rows):
        # the solve goes on from x0 itself: nothing is searched here, so
        # no budget applies
        seen.append((x0, basis, pivot_rows))
        return list(x0)

    search, seeds._canonical_point = seeds._canonical_point, record
    try:
        solve_lambda(b)
    finally:
        seeds._canonical_point = search
    [lattice] = seen
    return lattice


@st.composite
def reduced_echelon_lattices(draw):
    """x0 + span(basis) in Z^n, n <= 12: one to six echelon vectors with
    positive steps at increasing pivot rows, entries in [-3, 3], reduced at
    every later pivot as the search requires."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, min(6, n)))
    rows = st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim, unique=True)
    pivot_rows = sorted(draw(rows))
    entry = st.integers(-3, 3)
    basis = []
    for p in pivot_rows:
        rest = draw(st.lists(entry, min_size=n - p - 1, max_size=n - p - 1))
        basis.append([0] * p + [draw(st.integers(1, 3))] + rest)
    x0 = draw(st.lists(entry, min_size=n, max_size=n))
    return x0, _reduce_echelon(basis, pivot_rows), pivot_rows


def assert_the_search_tree_is_the_plain_one(lattice, monkeypatch):
    """_canonical_point finds the plain reference's point within exactly
    the reference's node count, and one node less stops it with the
    reference's message."""
    x0, basis, pivot_rows = lattice
    point, nodes = reference_canonical_point(x0, basis, pivot_rows, budget=10**7)
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(nodes))
    assert _canonical_point(x0, basis, pivot_rows) == point
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(nodes - 1))
    with pytest.raises(BudgetExhausted) as stopped:
        _canonical_point(x0, basis, pivot_rows)
    with pytest.raises(BudgetExhausted) as reference:
        reference_canonical_point(x0, basis, pivot_rows, nodes - 1)
    assert str(stopped.value) == str(reference.value)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lattice=st.one_of(
        reduced_echelon_lattices(),
        st.sampled_from(sorted(W0_LATTICE_FAMILIES)).map(w0_lattice),
    )
)
def test_the_search_visits_the_nodes_of_the_plain_search(lattice, monkeypatch):
    assert_the_search_tree_is_the_plain_one(lattice, monkeypatch)


@pytest.mark.parametrize("family", sorted(W0_LATTICE_FAMILIES))
def test_the_w0_searches_visit_the_nodes_of_the_plain_search(family, monkeypatch):
    assert_the_search_tree_is_the_plain_one(w0_lattice(family), monkeypatch)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_back_substitution_gives_the_reference_lambda(data):
    names = ["a2", "b3", "c3", "a4", "b4", "c4", "d4"]
    cd = preset(data.draw(st.sampled_from(names)))
    b = gls_matrix(cd, random_word(data, cd, max_length=14))
    # every exchange column j of a GLS matrix starts with -1 at row j-
    assert has_unit_pivots(b)
    assert solve_lambda(b) == reference_solve_lambda(b)


def minor_pairing(cd, letters):
    """The pairing of the initial quantum minors, in closed form: with
    gamma_k = w_{i_k} - s_{i_n}...s_{i_k}(w_{i_k}) in root coordinates,
    lambda_kl = (gamma_k, gamma_l) - 2 d_{i_k} [alpha_{i_k}] gamma_l for
    k < l.  gamma_k is built by reflections from 0: s_{i_m} acts on
    w_{i_k} - v by s_{i_m}(w_{i_k} - v) + delta(i_m, i_k) alpha_{i_m}."""
    n = len(letters)
    gammas = []
    for k, i in enumerate(letters):
        gamma = cd.simple_root(i)
        for j in letters[k + 1 :]:
            gamma = reflect_root(cd, j, gamma)
            if j == i:
                gamma = tuple(x + y for x, y in zip(gamma, cd.simple_root(i)))
        gammas.append(gamma)
    d = dict(zip(cd.index_set, cd.symmetrizer))
    lam = [[0] * n for _ in range(n)]
    for k, i in enumerate(letters):
        for l in range(k + 1, n):
            value = bilinear_form(cd, gammas[k], gammas[l])
            value -= 2 * d[i] * gammas[l][cd.position[i]]
            lam[k][l], lam[l][k] = value, -value
    return lam


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_minor_pairing_is_compatible_with_the_gls_matrix(data):
    # so it lies in the affine lattice that solve_lambda searches
    names = ["a2", "b2", "a3", "b3", "c3", "a4", "b4", "c4", "d4"]
    cd = preset(data.draw(st.sampled_from(names)))
    w = random_word(data, cd, max_length=14)
    assert check_compatibility(minor_pairing(cd, w.letters), gls_matrix(cd, w))


def test_a5_w0_seed_is_compatible():
    seed = w0_seed("a5")
    assert check_compatibility(seed.lam, seed.b)


def test_b4_word_with_huge_particular_solution_builds_a_seed():
    # The particular solution and kernel basis of this word reach entries
    # whose quotients overflow a float; size reduction must stay exact.
    cd = preset("b4")
    w = Word((1, 2, 1, 3, 4, 3, 4, 2, 3, 4, 3, 1, 2, 3, 4, 3), REDUCED)
    seed = initial_seed(cd, w)
    assert check_compatibility(seed.lam, seed.b)
    assert max(abs(v) for row in seed.lam for v in row) == 4


@pytest.mark.parametrize("value", ["0", "-3", "lots"])
def test_a_seed_build_refuses_a_bad_budget_env(monkeypatch, value):
    # the a3 w0 seed has three free rows, so its pairing is searched
    monkeypatch.setenv("BRAIDSEED_BUDGET", value)
    with pytest.raises(ConfigInvalid, match="BRAIDSEED_BUDGET"):
        initial_seed(preset("a3"), Word((1, 2, 1, 3, 2, 1), REDUCED))


def test_lambda_search_is_bounded_by_the_budget(monkeypatch):
    # the A6 w0 pairing search needs 1,565 nodes
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1000")
    cd = preset("a6")
    b = gls_matrix(cd, Word(finite_type_data(cd).longest_word, REDUCED))
    with pytest.raises(BudgetExhausted):
        solve_lambda(b)
