"""Quantum torus arithmetic: coefficients, products, exact division.

Oracles: explicit normal-ordering swap counts for based monomials,
multiply-then-divide round trips, associativity on random elements, and
the straightforward sum-of-products kernels kept below as references.
"""
from __future__ import annotations

import random
import time
from heapq import heapify, heappop, heappush
from operator import add, mul, neg, sub
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed import qlaurent
from braidseed.errors import (
    BraidseedError,
    BudgetExhausted,
    ContextMismatch,
    NonExactDivision,
    NotRepresentable,
    ShapeMismatch,
)
from braidseed.words import default_budget
from braidseed.qlaurent import (
    QHalf,
    QuantumLaurent,
    commutation_doubled,
    lambda_pairing,
    right_divide,
    shifted_sum,
    torus_product,
)


def test_qhalf_ring_basics():
    one = QHalf.one()
    u = QHalf.q_power(1)
    assert one + (-one) == QHalf()
    assert (one + u) * (one - u) == QHalf({0: 1, 2: -1})
    assert u * u == QHalf.q_power(2)
    assert u.shift(3) == QHalf.q_power(4)
    assert not QHalf({0: 0})


def test_qhalf_division_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        a = QHalf({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(3)})
        b = QHalf({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(2)})
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).divide(b) == a


def test_qhalf_division_inexact():
    with pytest.raises(NonExactDivision):
        QHalf({0: 1}).divide(QHalf({0: 1, 1: 1}))
    with pytest.raises(NonExactDivision):
        QHalf({0: 3}).divide(QHalf({0: 2}))
    with pytest.raises(NonExactDivision):
        QHalf.one().divide(QHalf())


def ordered_form(lam, exps, coeff):
    """Map a based monomial to (doubled power, exps) of its ordered form."""
    r = len(exps)
    doubled = sum(
        exps[i] * exps[j] * lam[i][j] for i in range(r) for j in range(r) if i > j
    )
    return doubled, tuple(exps)


def brute_product(lam, a, b):
    """Ordered-product oracle: swap X_j^bj leftwards one factor at a time."""
    r = len(a)
    doubled = 0
    for i in range(r):
        for j in range(r):
            if j < i:
                # X_i^{a_i} passes X_j^{b_j}: each swap gives q^{l_ij}
                doubled += 2 * a[i] * b[j] * lam[i][j]
    return doubled, tuple(x + y for x, y in zip(a, b))


def test_torus_product_matches_normal_ordering_oracle():
    lam = [[0, 1], [-1, 0]]
    rng = random.Random(8)
    for _ in range(60):
        a = [rng.randrange(-2, 3) for _ in range(2)]
        b = [rng.randrange(-2, 3) for _ in range(2)]
        f = QuantumLaurent.monomial(2, a)
        g = QuantumLaurent.monomial(2, b)
        prod = torus_product(lam, f, g)
        assert len(prod.terms) == 1
        (exps, coeff), = prod.terms.items()
        # compare via ordered forms: based(a)*based(b) and the result
        da, _ = ordered_form(lam, a, 1)
        db, _ = ordered_form(lam, b, 1)
        swap, summed = brute_product(lam, a, b)
        dres, _ = ordered_form(lam, exps, 1)
        got_doubled = next(iter(coeff.terms))
        assert exps == summed
        assert da + db + swap == dres + got_doubled


def test_torus_commutation_relation():
    lam = [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]
    rng = random.Random(13)
    for _ in range(40):
        a = [rng.randrange(-2, 3) for _ in range(3)]
        b = [rng.randrange(-2, 3) for _ in range(3)]
        f = QuantumLaurent.monomial(3, a)
        g = QuantumLaurent.monomial(3, b)
        ab = torus_product(lam, f, g)
        ba = torus_product(lam, g, f)
        t = commutation_doubled(lam, a, b)
        assert ab == ba.q_shift(t)
        assert t == 2 * lambda_pairing(lam, a, b)


def random_element(rng, rank, nterms=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(-2, 3) for _ in range(rank))
        terms[exps] = QHalf({rng.randrange(-2, 3): rng.randrange(-2, 3)})
    return QuantumLaurent(rank, terms)


def test_torus_product_associative_and_unital():
    lam = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]
    one = QuantumLaurent.monomial(3, (0, 0, 0))
    rng = random.Random(21)
    for _ in range(25):
        f = random_element(rng, 3)
        g = random_element(rng, 3)
        h = random_element(rng, 3)
        assert torus_product(lam, f, one) == f
        assert torus_product(lam, one, f) == f
        left = torus_product(lam, torus_product(lam, f, g), h)
        right = torus_product(lam, f, torus_product(lam, g, h))
        assert left == right


def test_binomial_times_generator_expansion():
    # (X1 + X2) * X1 with l_12 = 1
    lam = [[0, 1], [-1, 0]]
    f = QuantumLaurent.monomial(2, (1, 0)) + QuantumLaurent.monomial(2, (0, 1))
    g = QuantumLaurent.monomial(2, (1, 0))
    prod = torus_product(lam, f, g)
    assert prod.terms[(2, 0)] == QHalf.one()
    # X2 X1 = q^(l_21/2) X^(1,1) in based form
    assert prod.terms[(1, 1)] == QHalf.q_power(-1)


def test_right_divide_round_trip():
    lam = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
    rng = random.Random(34)
    for _ in range(30):
        f = random_element(rng, 3, nterms=2)
        d = random_element(rng, 3, nterms=2)
        if f.is_zero() or d.is_zero():
            continue
        num = torus_product(lam, f, d)
        assert right_divide(lam, num, d) == f


def test_right_divide_inexact_raises():
    lam = [[0, 0], [0, 0]]
    x1 = QuantumLaurent.generator(2, 1)
    x2 = QuantumLaurent.generator(2, 2)
    with pytest.raises(NonExactDivision):
        right_divide(lam, x1 + x2, x1 + x1)
    with pytest.raises(NonExactDivision):
        right_divide(lam, x1, QuantumLaurent(2))


def test_torus_product_context_checks():
    lam = [[0, 1], [-1, 0]]
    x1 = QuantumLaurent.generator(2, 1)
    with pytest.raises(ContextMismatch):
        torus_product(lam, x1, QuantumLaurent.generator(3, 1))
    with pytest.raises(ContextMismatch):
        torus_product([[0]], x1, x1)


@pytest.mark.parametrize("pairing, scale", [(lambda_pairing, 1), (commutation_doubled, 2)])
def test_pairings_refuse_ragged_vectors_and_a_ragged_lambda(pairing, scale):
    lam = [[0, 1], [-1, 0]]
    assert pairing(lam, (1, 0), (0, 1)) == scale
    # too long and too short: an IndexError, and a silently truncated sum
    with pytest.raises(ContextMismatch, match=r"^vector lengths 3, 2 != Lambda size 2$"):
        pairing(lam, (1, 2, 3), (1, 1))
    with pytest.raises(ContextMismatch, match=r"^vector lengths 1, 2 != Lambda size 2$"):
        pairing(lam, (1,), (1, 1))
    with pytest.raises(ContextMismatch, match=r"^vector lengths 2, 1 != Lambda size 2$"):
        pairing(lam, (1, 1), (1,))
    with pytest.raises(ShapeMismatch, match=r"^Lambda of size 2 is not square$"):
        pairing([[0, 1], [-1]], (1, 1), (1, 1))


def test_right_divide_checks_its_context_before_its_zero_shortcuts():
    x1 = QuantumLaurent.generator(2, 1)
    with pytest.raises(ContextMismatch, match=r"^Lambda size 1 != rank 2$"):
        right_divide([[0]], QuantumLaurent(2), x1)
    with pytest.raises(ContextMismatch, match=r"^ranks 3 != 2$"):
        right_divide([[0, 1], [-1, 0]], QuantumLaurent(3), x1)
    with pytest.raises(ContextMismatch, match=r"^ranks 2 != 3$"):
        right_divide([[0, 1], [-1, 0]], x1, QuantumLaurent(3))


def reference_coefficient_quotient(num, den):
    """Long division of doubled-exponent dicts from the top entry down:
    the quotient dict, or None when a remainder is left."""
    num, quo = dict(num), {}
    top, lead = max(den), den[max(den)]
    floor = min(num) - min(den)
    while num:
        deg = max(num)
        if deg - top < floor or num[deg] % lead:
            return None
        k, c = deg - top, num[deg] // lead
        quo[k] = c
        for dk, dv in den.items():
            num[dk + k] = num.get(dk + k, 0) - c * dv
            if not num[dk + k]:
                del num[dk + k]
    return quo


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-12, 12).filter(bool), min_size=1, max_size=5),
    st.dictionaries(st.integers(-3, 3), st.sampled_from((1, -1, 2, -3)), min_size=1, max_size=2),
)
def test_coefficient_division_matches_the_long_division(entries, divisor):
    """One-entry divisors divide entry by entry, longer ones by long
    division: both give the reference's quotient, entry order included,
    or its message, on products and on arbitrary numerators."""
    c, d = QHalf(entries), QHalf(divisor)
    for num in (c * d, c):
        quotient = reference_coefficient_quotient(num.terms, d.terms)
        if quotient is None:
            with pytest.raises(NonExactDivision) as err:
                num.divide(d)
            assert str(err.value) == f"coefficient {num.terms} is not divisible by {d.terms}"
        else:
            assert list(num.divide(d).terms.items()) == list(quotient.items())


def test_a_one_entry_divisor_names_the_whole_coefficient():
    divisible = QHalf({1: 4, 3: 6, -1: 2})
    assert list(divisible.divide(QHalf({2: 2})).terms.items()) == [(1, 3), (-1, 2), (-3, 1)]
    with pytest.raises(NonExactDivision) as err:
        QHalf({1: 4, 3: 6, -1: 3}).divide(QHalf({2: 2}))
    assert str(err.value) == "coefficient {1: 4, 3: 6, -1: 3} is not divisible by {2: 2}"


# Reference kernels: one QHalf sum per term pair, and a remainder rebuilt
# by `remainder - product` on every elimination step.  The library's
# kernels must agree with them term by term, in insertion order too, since
# NonExactDivision messages print coefficient dicts.


def _reference_grlex_key(exps):
    return (sum(exps), exps)


def reference_product(lam, f, g):
    if f.rank != g.rank:
        raise ContextMismatch(f"ranks {f.rank} != {g.rank}")
    if len(lam) != f.rank:
        raise ContextMismatch(f"Lambda size {len(lam)} != rank {f.rank}")
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            coeff = (ca * cb).shift(lambda_pairing(lam, ea, eb))
            total = out.get(key, QHalf()) + coeff
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return QuantumLaurent(f.rank, out)


def reference_right_divide(lam, numerator, divisor):
    if divisor.is_zero():
        raise NonExactDivision("division by zero")
    out = {}
    remainder = numerator
    e_d, c_d = divisor.leading()
    previous_key = None
    steps = 0
    while not remainder.is_zero():
        steps += 1
        if steps > 10000:
            raise NonExactDivision("division failed to terminate within bound")
        e_r, c_r = remainder.leading()
        key = _reference_grlex_key(e_r)
        if previous_key is not None and key >= previous_key:
            raise NonExactDivision("leading term failed to decrease")
        previous_key = key
        e_y = tuple(a - b for a, b in zip(e_r, e_d))
        shift = lambda_pairing(lam, e_y, e_d)
        c_y = c_r.shift(-shift).divide(c_d)
        out[e_y] = out.get(e_y, QHalf()) + c_y
        piece = QuantumLaurent.monomial(numerator.rank, e_y, c_y)
        remainder = remainder - reference_product(lam, piece, divisor)
    return QuantumLaurent(numerator.rank, out)


def in_order(x):
    """Terms and coefficient entries in insertion order."""
    return [(e, list(c.terms.items())) for e, c in x.terms.items()]


def outcome(divide, lam, numerator, divisor):
    try:
        return "quotient", in_order(divide(lam, numerator, divisor))
    except NonExactDivision as err:
        return "NonExactDivision", str(err)


NONZERO = st.integers(-2, 2).filter(bool)
COEFFS = st.dictionaries(st.integers(-3, 3), NONZERO, min_size=1, max_size=2)


@st.composite
def torus_context(draw):
    """Rank 2-4 and a random antisymmetric Lambda with entries in [-2, 2]."""
    rank = draw(st.integers(2, 4))
    lam = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            lam[i][j] = draw(st.integers(-2, 2))
            lam[j][i] = -lam[i][j]
    return rank, lam


def element(draw, rank, max_terms, coeffs=COEFFS):
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms))
    return QuantumLaurent(rank, {e: QHalf(c) for e, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernels_match_the_reference_on_exact_pairs(data):
    rank, lam = data.draw(torus_context())
    f = element(data.draw, rank, 5)
    d = element(data.draw, rank, 5)
    for left, right in ((f, d), (d, f)):
        assert in_order(torus_product(lam, left, right)) == in_order(
            reference_product(lam, left, right)
        )
    num = torus_product(lam, f, d)
    quotient = right_divide(lam, num, d)
    assert quotient == f
    assert in_order(quotient) == in_order(reference_right_divide(lam, num, d))


# A leading divisor coefficient of +-3 makes most inexact divisions stop at
# a non-divisible coefficient.  A unit one usually runs to the 10,000-step
# bound, which costs the reference about 0.3 s, so it is drawn rarely, and
# divisor coefficients are single q-powers: a longer one would make the
# remainder's coefficients grow at every one of those steps.
LEAD_FACTORS = st.sampled_from((3, -3, 3, -3, 3, -3, 1))
MONOMIAL_COEFFS = st.dictionaries(st.integers(-3, 3), NONZERO, min_size=1, max_size=1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inexact_divisions_fail_like_the_reference(data):
    rank, lam = data.draw(torus_context())
    num = element(data.draw, rank, 5)
    d = element(data.draw, rank, 2, MONOMIAL_COEFFS)
    e_d, c_d = d.leading()
    factor = data.draw(LEAD_FACTORS)
    d = QuantumLaurent(
        rank, {**d.terms, e_d: QHalf({k: factor * v for k, v in c_d.terms.items()})}
    )
    assert outcome(right_divide, lam, num, d) == outcome(
        reference_right_divide, lam, num, d
    )


def test_edge_case_divisions_fail_like_the_reference():
    x1 = QuantumLaurent.generator(2, 1)
    x2 = QuantumLaurent.generator(2, 2)
    binomial = QuantumLaurent.monomial(2, (0, 1), QHalf({1: 1, -1: 2}))
    one = QuantumLaurent.monomial(2, (0, 0))
    cases = [
        ([[0, 0], [0, 0]], x1 + x2, x1 + x1),
        ([[0, 0], [0, 0]], x1, QuantumLaurent(2)),
        ([[0, 1], [-1, 0]], x1, x1 + x2),
        ([[0, -2], [2, 0]], x1 + x2, binomial + one),
        ([[0, 1], [-1, 0]], QuantumLaurent(2), x1 + x2),
    ]
    for lam, num, d in cases:
        assert outcome(right_divide, lam, num, d) == outcome(
            reference_right_divide, lam, num, d
        )
    assert outcome(right_divide, [[0, 1], [-1, 0]], x1, x1 + x2) == (
        "NonExactDivision",
        "division failed to terminate within bound",
    )


def test_inexact_division_stops_after_exactly_10000_steps():
    # the remainder of 2^m X1 / (2 X1 + X2) has coefficient +-2^(m+1-s) at
    # step s, so the first odd one, at step m + 1, is not divisible by 2
    lam = [[0, 0], [0, 0]]
    d = QuantumLaurent(2, {(1, 0): QHalf({0: 2}), (0, 1): QHalf({0: 1})})
    last = QuantumLaurent.monomial(2, (1, 0), QHalf({0: 2**9999}))
    with pytest.raises(NonExactDivision, match=r"^coefficient \{0: -1\} is not divisible"):
        right_divide(lam, last, d)
    beyond = QuantumLaurent.monomial(2, (1, 0), QHalf({0: 2**10000}))
    with pytest.raises(NonExactDivision, match="^division failed to terminate within bound$"):
        right_divide(lam, beyond, d)


def test_a_monomial_over_a_three_term_divisor_exhausts_the_work_budget(monkeypatch):
    # X1^2 has no finite quotient by this divisor, and the coefficients of
    # the remainder grow at every step: the 10,000-step bound alone let the
    # division run for minutes.  About 180 steps use up the default budget
    # of coefficient products, in well under a second on a 2-vCPU host.
    monkeypatch.delenv("BRAIDSEED_BUDGET", raising=False)
    lam = [[0, 1, -1], [-1, 0, 2], [1, -2, 0]]
    num = QuantumLaurent.monomial(3, (2, 0, 0))
    d = QuantumLaurent(
        3,
        {
            (1, 0, 0): QHalf({0: 1}),
            (0, 1, 0): QHalf({0: 1, 1: 2}),
            (0, 0, 1): QHalf({2: 1, 0: -1}),
        },
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="over 200000 coefficient products"):
        right_divide(lam, num, d)
    assert time.perf_counter() - start < 10


def test_the_division_work_bound_is_the_search_budget(monkeypatch):
    lam = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
    rng = random.Random(55)
    f = random_element(rng, 3, nterms=4)
    d = random_element(rng, 3, nterms=3)
    num = torus_product(lam, f, d)
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    with pytest.raises(BudgetExhausted, match="over 2 coefficient products"):
        right_divide(lam, num, d)
    monkeypatch.delenv("BRAIDSEED_BUDGET")
    assert right_divide(lam, num, d) == f


def test_right_divide_makes_no_products_and_no_validated_elements(monkeypatch):
    lam = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
    rng = random.Random(55)
    f = random_element(rng, 3, nterms=4)
    d = random_element(rng, 3, nterms=3)
    num = torus_product(lam, f, d)
    calls = {"product": 0, "init": 0, "steps": 0}
    product = qlaurent.torus_product
    init = QuantumLaurent.__init__
    divide = qlaurent._divide

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_divide(num, den):
        calls["steps"] += 1
        return divide(num, den)

    monkeypatch.setattr(qlaurent, "torus_product", counted_product)
    monkeypatch.setattr(QuantumLaurent, "__init__", counted_init)
    monkeypatch.setattr(qlaurent, "_divide", counted_divide)
    assert right_divide(lam, num, d) == f
    assert calls["steps"] == len(f.terms) > 1
    assert calls["product"] == 0
    assert calls["init"] == 0


# ---------------------------------------------------------------------------
# Shape and integer rules of the kernels


def test_a_lambda_that_is_not_square_is_refused_by_every_kernel():
    """Lambda [[0, 1], [-1]] once gave X1 X2 = q^(1/2) X^(1,1); the kernels
    now refuse it as lambda_pairing does."""
    lam = [[0, 1], [-1]]
    x1 = QuantumLaurent.generator(2, 1)
    x2 = QuantumLaurent.generator(2, 2)
    message = r"^Lambda of size 2 is not square$"
    with pytest.raises(ShapeMismatch, match=message):
        lambda_pairing(lam, (1, 0), (0, 1))
    with pytest.raises(ShapeMismatch, match=message):
        torus_product(lam, x1, x2)
    with pytest.raises(ShapeMismatch, match=message):
        torus_product(lam, x1 + x2, x2)
    with pytest.raises(ShapeMismatch, match=message):
        right_divide(lam, x1, x2)
    with pytest.raises(ShapeMismatch, match=message):
        right_divide(lam, QuantumLaurent(2), x2)
    with pytest.raises(ShapeMismatch, match=r"^Lambda of size 2 is not square$"):
        torus_product([[0, 1, 2], [-1, 0, 1]], x1, x2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QHalf({1: 2.7}), "coefficient entry 2.7 is not an integer"),
        (lambda: QHalf({1: 0.0}), "coefficient entry 0.0 is not an integer"),
        (lambda: QHalf({1.5: 2}), "doubled q-exponent 1.5 is not an integer"),
        (lambda: QHalf({0: Fraction(4, 2)}), "coefficient entry Fraction(2, 1) is not an integer"),
        (lambda: QHalf({0: "3"}), "coefficient entry '3' is not an integer"),
        (
            lambda: QuantumLaurent(2, {(1.9, 0): QHalf.one()}),
            "exponent 1.9 is not an integer",
        ),
        (
            lambda: QuantumLaurent(2, {(0, 1): QHalf.one(), (1, 2.0): QHalf.one()}),
            "exponent 2.0 is not an integer",
        ),
        (lambda: QuantumLaurent.monomial(1, (Decimal(1),)), "exponent Decimal('1') is not an integer"),
        (lambda: QuantumLaurent(2.0), "rank 2.0 is not an integer"),
        # doubled q-shifts: each once gave float keys or a bare TypeError
        (
            lambda: QuantumLaurent.generator(2, 1).q_shift(1.5),
            "doubled q-exponent 1.5 is not an integer",
        ),
        (
            lambda: QuantumLaurent.generator(2, 1).q_shift("1"),
            "doubled q-exponent '1' is not an integer",
        ),
        (lambda: QHalf.one().shift(0.5), "doubled q-exponent 0.5 is not an integer"),
        (lambda: QHalf.one().shift("1"), "doubled q-exponent '1' is not an integer"),
        (
            lambda: shifted_sum([(QuantumLaurent.generator(2, 1), 0.5)]),
            "doubled q-exponent 0.5 is not an integer",
        ),
        (
            lambda: shifted_sum([(QuantumLaurent(2), 0), (QuantumLaurent(2), 1.0)]),
            "doubled q-exponent 1.0 is not an integer",
        ),
        (lambda: QuantumLaurent.generator(2, 1.0), "slot 1.0 is not an integer"),
        (lambda: QuantumLaurent.generator(2.0, 1), "rank 2.0 is not an integer"),
    ],
)
def test_non_integers_are_refused_not_truncated(build, message):
    with pytest.raises(NotRepresentable) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("coeff", [3, 0, {0: 1}, "1", None])
def test_a_coefficient_that_is_not_a_qhalf_is_refused(coeff):
    """An int coefficient was once stored as it was: x + x then had the
    int 6 as a coefficient and torus_product raised AttributeError."""
    with pytest.raises(NotRepresentable) as err:
        QuantumLaurent(2, {(0, 1): QHalf.one(), (1, 0): coeff})
    assert str(err.value) == f"coefficient {coeff!r} is not a QHalf"


def test_slots_outside_the_rank_and_empty_sums_are_context_mismatches():
    # slot 0 once wrapped to X_2, and slot 3 and an empty sum were IndexError
    assert QuantumLaurent.generator(2, 2).terms == {(0, 1): QHalf.one()}
    for slot in (0, -1, 3):
        with pytest.raises(ContextMismatch) as err:
            QuantumLaurent.generator(2, slot)
        assert str(err.value) == f"slot {slot} is not in [1, 2]"
    with pytest.raises(ContextMismatch, match="^a shifted sum needs at least one part$"):
        shifted_sum([])


def test_what_operator_index_accepts_is_taken_as_an_integer():
    numpy = pytest.importorskip("numpy")
    coeff = QHalf({numpy.int64(2): numpy.int32(-3), True: 1})
    assert list(coeff.terms.items()) == [(2, -3), (1, 1)]
    assert all(type(k) is int and type(v) is int for k, v in coeff.terms.items())
    x = QuantumLaurent(2, {(numpy.int16(1), False): coeff})
    assert x.terms == {(1, 0): coeff}
    assert all(type(e) is int for e in next(iter(x.terms)))


BOUND = qlaurent._EXPONENT_BOUND


def test_exponents_beyond_the_packing_bound_are_refused():
    assert BOUND == 2**31 - 1
    edge = QuantumLaurent(2, {(BOUND, -BOUND): QHalf.one(), (-BOUND, 0): QHalf.one()})
    assert list(edge.terms) == [(BOUND, -BOUND), (-BOUND, 0)]
    for exps in ((BOUND + 1, 0), (0, -BOUND - 1)):
        with pytest.raises(NotRepresentable) as err:
            QuantumLaurent(2, {exps: QHalf.one()})
        assert str(err.value) == (
            f"exponent vector {exps} is beyond the packing bound {BOUND}"
        )


def test_a_kernel_that_could_pass_the_packing_bound_is_refused():
    lam = [[0, 1], [-1, 0]]
    half = QuantumLaurent.monomial(2, (BOUND // 2, 0))
    # the bounds add: BOUND // 2 twice fits, once more does not
    assert torus_product(lam, half, half).terms == {(2 * (BOUND // 2), 0): QHalf.one()}
    over = QuantumLaurent.monomial(2, (0, BOUND // 2 + 2))
    with pytest.raises(NotRepresentable) as err:
        torus_product(lam, half, over)
    assert str(err.value) == f"product could reach exponents beyond the packing bound {BOUND}"
    # a one-term divisor moves no term: bn + bd must fit
    assert right_divide(lam, half, half).terms == {(0, 0): QHalf.one()}
    with pytest.raises(NotRepresentable, match="^division could reach"):
        right_divide(lam, half, over)
    # a longer divisor may drift 2 bd per step for 10,000 steps
    x1, x2 = QuantumLaurent.generator(2, 1), QuantumLaurent.generator(2, 2)
    far = QuantumLaurent.monomial(2, (BOUND - 20002, 0))
    assert right_divide(lam, torus_product(lam, far, x1 + x2), x1 + x2) == far
    beyond = QuantumLaurent.monomial(2, (BOUND - 20000, 0))
    with pytest.raises(NotRepresentable) as err:
        right_divide(lam, beyond, x1 + x2)
    assert str(err.value) == f"division could reach exponents beyond the packing bound {BOUND}"



def test_a_quotient_is_bounded_by_its_own_exponents():
    """A quotient's bound is its largest |exponent|, not the numerator's
    and the divisor's bounds added, for multi-term and one-term divisors."""
    lam = [[0, 1], [-1, 0]]
    x1, x2 = QuantumLaurent.generator(2, 1), QuantumLaurent.generator(2, 2)
    y = QuantumLaurent.monomial(2, (3, -1)) + x2
    for divisor in (x1 + x2, QuantumLaurent.monomial(2, (-2, 5), QHalf({1: 3, 4: -1}))):
        quotient = right_divide(lam, torus_product(lam, y, divisor), divisor)
        assert quotient == y and quotient._bound == 3

EXTREMES = st.sampled_from((0, 1, -1, 2, -2, BOUND, -BOUND, BOUND - 1, 1 - BOUND))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(st.tuples(*[EXTREMES] * r), min_size=1, max_size=6)))
def test_packed_keys_order_and_unpack_exactly_up_to_the_bound(vectors):
    """leading() is the grlex maximum and the view gives back every
    exponent vector, also at +-BOUND, where a carry between digits would
    show; a q_shift and a negation keep the tuples they were built with,
    and a sum, which keeps none, unpacks the same ones."""
    rank = len(vectors[0])
    terms = {v: QHalf({i: 1}) for i, v in enumerate(vectors)}
    x = QuantumLaurent(rank, terms)
    assert x.terms == terms and list(x.terms) == list(terms)
    assert x.leading() == max(terms.items(), key=lambda t: (sum(t[0]), t[0]))
    for y in (x.q_shift(2), -x, x + x, x + QuantumLaurent(rank)):
        assert list(y.terms) == list(terms)
    assert (x + x).leading()[0] == x.leading()[0]


# ---------------------------------------------------------------------------
# The tuple-keyed kernels that packed keys replaced, kept as they were: on
# {exponent tuple: QHalf} views, with the grlex order read from
# (degree, exponents) tuples.  The packed kernels must agree with them on
# values, term order, entry order, exception types and messages.


def _tuple_grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _tuple_heap_key(exps: tuple) -> tuple:
    return (-sum(exps), tuple(map(neg, exps)), exps)


def _tuple_image(lam, b) -> list:
    return [sum(map(mul, row, b)) for row in lam]


def _tuple_check_context(lam, f, g) -> None:
    if f.rank != g.rank:
        raise ContextMismatch(f"ranks {f.rank} != {g.rank}")
    if len(lam) != f.rank:
        raise ContextMismatch(f"Lambda size {len(lam)} != rank {f.rank}")


def _tuple_accumulate(acc: dict, pairs, sign: int) -> list:
    fresh = []
    for key, a, b, shift in pairs:
        if len(b) == 1:
            ((k2, factor),) = b.items()
            entries, shift = a, shift + k2
        elif len(a) == 1:
            ((k1, factor),) = a.items()
            entries, shift = b, shift + k1
        else:
            entries, factor = {}, 1
            for k1, v1 in a.items():
                for k2, v2 in b.items():
                    k = k1 + k2
                    entries[k] = entries.get(k, 0) + v1 * v2
        factor *= sign
        coeff = acc.get(key)
        if coeff is None:
            coeff = acc[key] = {}
            fresh.append(key)
        for k, v in entries.items():
            if v:
                k += shift
                v = coeff.get(k, 0) + factor * v
                if v:
                    coeff[k] = v
                else:
                    del coeff[k]
        if not coeff:
            del acc[key]
    return fresh


def tuple_torus_product(lam, f, g) -> dict:
    _tuple_check_context(lam, f, g)
    f_terms, g_terms = f.terms, g.terms
    if len(g_terms) <= len(f_terms):
        pieces = [(b, cb.terms, _tuple_image(lam, b)) for b, cb in g_terms.items()]
        pairs = [
            (tuple(map(add, a, b)), ca.terms, cb, sum(map(mul, a, image)))
            for a, ca in f_terms.items()
            for b, cb, image in pieces
        ]
    else:
        transposed = tuple(zip(*lam))
        images = [_tuple_image(transposed, a) for a in f_terms]
        pieces = [(b, cb.terms) for b, cb in g_terms.items()]
        pairs = [
            (tuple(map(add, a, b)), ca.terms, cb, sum(map(mul, image, b)))
            for (a, ca), image in zip(f_terms.items(), images)
            for b, cb in pieces
        ]
    acc: dict = {}
    _tuple_accumulate(acc, pairs, 1)
    return {e: QHalf(c) for e, c in acc.items()}


def tuple_shifted_sum(parts) -> dict:
    (first, shift), rest = parts[0], parts[1:]
    for x, _ in rest:
        if x.rank != first.rank:
            raise ContextMismatch(f"ranks {first.rank} != {x.rank}")
    acc = {e: {k + shift: v for k, v in c.terms.items()} for e, c in first.terms.items()}
    _tuple_accumulate(
        acc, [(e, c.terms, {0: 1}, s) for x, s in rest for e, c in x.terms.items()], 1
    )
    return {e: QHalf(c) for e, c in acc.items()}


def tuple_right_divide(lam, numerator, divisor) -> dict:
    _tuple_check_context(lam, numerator, divisor)
    if divisor.is_zero():
        raise NonExactDivision("division by zero")
    out: dict = {}
    if numerator.is_zero():
        return out
    d_terms = divisor.terms
    e_d = max(d_terms, key=_tuple_grlex_key)
    c_d = d_terms[e_d]
    lead_image = _tuple_image(lam, e_d)
    pieces = [(b, cb.terms, _tuple_image(lam, b)) for b, cb in d_terms.items()]
    remainder = {e: dict(c.terms) for e, c in numerator.terms.items()}
    heap = [_tuple_heap_key(e) for e in remainder]
    heapify(heap)
    entries = sum(len(cb) for _, cb, _ in pieces)
    budget = default_budget()
    previous_key = None
    steps = work = 0
    while remainder:
        steps += 1
        if steps > 10000:
            raise NonExactDivision("division failed to terminate within bound")
        key = heappop(heap)
        while key[2] not in remainder:
            key = heappop(heap)
        if previous_key is not None and key <= previous_key:
            raise NonExactDivision("leading term failed to decrease")
        previous_key = key
        e_r = key[2]
        e_y = tuple(map(sub, e_r, e_d))
        shift = sum(map(mul, e_y, lead_image))
        c_r = QHalf({k - shift: v for k, v in remainder[e_r].items()})
        c_y = out[e_y] = c_r.divide(c_d)
        work += len(c_y.terms) * entries
        if work > budget:
            raise BudgetExhausted(
                f"division stopped after {steps} steps: over {budget} coefficient products"
            )
        pairs = [
            (tuple(map(add, e_y, b)), c_y.terms, cb, sum(map(mul, e_y, image)))
            for b, cb, image in pieces
        ]
        for e in _tuple_accumulate(remainder, pairs, -1):
            heappush(heap, _tuple_heap_key(e))
    return out


# ---------------------------------------------------------------------------
# The QHalf-based sums that shifted_sum and the term map replaced, kept as
# they were: a merge through QHalf.__add__ and a QHalf per term.


def reference_add(x, y):
    if x.rank != y.rank:
        raise ContextMismatch(f"ranks {x.rank} != {y.rank}")
    out = dict(x.terms)
    for e, coeff in y.terms.items():
        total = out.get(e, QHalf()) + coeff
        if total:
            out[e] = total
        elif e in out:
            del out[e]
    return QuantumLaurent(x.rank, out)


def reference_neg(x):
    return QuantumLaurent(x.rank, {e: -c for e, c in x.terms.items()})


def reference_sub(x, y):
    return reference_add(x, reference_neg(y))


def reference_q_shift(x, doubled):
    return QuantumLaurent(x.rank, {e: c.shift(doubled) for e, c in x.terms.items()})


def reference_shifted_sum(parts):
    total = None
    for x, s in parts:
        shifted = reference_q_shift(x, s)
        total = shifted if total is None else reference_add(total, shifted)
    return total


def settled(kernel, *args):
    """("value", terms and entries in order) or (error type, message)."""
    try:
        value = kernel(*args)
    except BraidseedError as err:
        return type(err).__name__, str(err)
    terms = value if isinstance(value, dict) else value.terms
    return "value", [(e, list(c.terms.items())) for e, c in terms.items()]


ENTRY = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def packed_case(draw):
    """A rank 1-4 context, a left factor f and a divisor d of 1-4 terms,
    and a numerator: f * d (exact), or f alone (mostly inexact).  A
    one-term divisor often has a multi-entry, non-unit coefficient."""
    rank = draw(st.integers(1, 4))
    lam = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            lam[i][j] = draw(st.integers(-2, 2))
            lam[j][i] = -lam[i][j]
    vectors = st.tuples(*[st.integers(-2, 2)] * rank)
    coeffs = st.dictionaries(st.integers(-3, 3), ENTRY, min_size=1, max_size=3)
    terms = st.dictionaries(vectors, coeffs.map(QHalf), min_size=1, max_size=4)
    f, d = QuantumLaurent(rank, draw(terms)), QuantumLaurent(rank, draw(terms))
    numerator = draw(st.sampled_from(("product", "left")))
    budget = draw(st.sampled_from((None, None, 1, 4, 30, 300)))
    return lam, f, d, numerator, budget


@settings(max_examples=150, deadline=None)
@given(packed_case(), st.integers(-4, 4))
def test_packed_kernels_match_the_tuple_keyed_ones(case, shift):
    lam, f, d, numerator, budget = case
    num = torus_product(lam, f, d) if numerator == "product" else f
    for left, right in ((f, d), (d, f), (num, d)):
        assert settled(torus_product, lam, left, right) == settled(
            tuple_torus_product, lam, left, right
        )
    parts = [(f, shift), (d, -shift), (num, 1)]
    assert settled(shifted_sum, parts) == settled(tuple_shifted_sum, parts)
    with pytest.MonkeyPatch.context() as patch:
        if budget is None:
            patch.delenv("BRAIDSEED_BUDGET", raising=False)
        else:
            patch.setenv("BRAIDSEED_BUDGET", str(budget))
        # a multi-term divisor of an arbitrary numerator can run to the
        # 10,000-step bound; the default budget stops it well before
        assert settled(right_divide, lam, num, d) == settled(tuple_right_divide, lam, num, d)


@st.composite
def sum_case(draw):
    """Rank 1-4 elements x, y and z on a small support, so that terms and
    coefficient entries often cancel, and an element of another rank."""
    rank = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(-1, 1)] * rank)
    coeffs = st.dictionaries(st.integers(-2, 2), ENTRY, min_size=1, max_size=3)
    terms = st.dictionaries(vectors, coeffs.map(QHalf), max_size=4)
    x, y, z = (QuantumLaurent(rank, draw(terms)) for _ in range(3))
    other = QuantumLaurent(draw(st.sampled_from([r for r in range(1, 6) if r != rank])))
    return x, y, z, other


@settings(max_examples=150, deadline=None)
@given(sum_case(), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_sums_match_the_qhalf_based_ones(case, shifts):
    """x + y, x - y, -x, x.q_shift(s) and shifted_sum agree with the
    QHalf-based references on values, term order, entry order and the
    message of a rank mismatch."""
    x, y, z, other = case
    s1, s2, s3 = shifts
    parts = [(x, s1), (y, s2), (z, s3)]
    for got, want in [
        ((add, x, y), (reference_add, x, y)),
        ((sub, x, y), (reference_sub, x, y)),
        ((neg, x), (reference_neg, x)),
        ((QuantumLaurent.q_shift, x, s1), (reference_q_shift, x, s1)),
        ((shifted_sum, parts), (reference_shifted_sum, parts)),
        ((shifted_sum, parts[:1]), (reference_shifted_sum, parts[:1])),
        ((add, x, other), (reference_add, x, other)),
        ((sub, other, y), (reference_sub, other, y)),
        ((shifted_sum, [*parts, (other, 0)]), (reference_shifted_sum, [*parts, (other, 0)])),
    ]:
        assert settled(*got) == settled(*want)
    assert settled(add, x, other)[0] == "ContextMismatch"


def reference_bar(x):
    """The bar involution through the public view: each coefficient's
    q^(k/2) entry moved to q^(-k/2), each based monomial kept."""
    return QuantumLaurent(
        x.rank, {e: QHalf({-k: v for k, v in c.terms.items()}) for e, c in x.terms.items()}
    )


@st.composite
def skew_context(draw):
    """Rank 1-4 and a random skew-symmetric Lambda with entries in [-2, 2]."""
    rank = draw(st.integers(1, 4))
    lam = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            lam[i][j] = draw(st.integers(-2, 2))
            lam[j][i] = -lam[i][j]
    return rank, lam


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bar_is_an_involution_that_reverses_products(data):
    """bar(bar(x)) = x and bar(f g) = bar(g) bar(f) under a skew Lambda;
    bar keeps every based monomial, and bar_invariant is bar(x) == x."""
    rank, lam = data.draw(skew_context())
    f, g = element(data.draw, rank, 4), element(data.draw, rank, 4)
    for x in (f, g):
        assert x.bar().bar() == x
        assert in_order(x.bar()) == in_order(reference_bar(x))
        assert x.bar()._bound == x._bound
        assert x.bar_invariant() is (x.bar() == x)
        assert (x + x.bar()).bar_invariant()
    assert torus_product(lam, f, g).bar() == torus_product(lam, g.bar(), f.bar())


def test_bar_reverses_products_only_under_a_skew_lambda():
    # X1 X1 = q^(1/2) X1^2 under Lambda = [[1]], whose bar is q^(-1/2) X1^2
    x1 = QuantumLaurent.generator(1, 1)
    assert x1.bar_invariant() and QuantumLaurent(1).bar_invariant()
    square = torus_product([[1]], x1, x1)
    assert square == QuantumLaurent.monomial(1, (2,), QHalf.q_power(1))
    assert square.bar() != torus_product([[1]], x1.bar(), x1.bar())
    assert not square.bar_invariant()
    assert not x1.q_shift(1).bar_invariant()
