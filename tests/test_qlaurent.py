"""Quantum torus arithmetic: coefficients, products, exact division.

Oracles: explicit normal-ordering swap counts for based monomials,
multiply-then-divide round trips, associativity on random elements, and
the straightforward sum-of-products kernels kept below as references.
"""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed import qlaurent
from braidseed.errors import BudgetExhausted, ContextMismatch, NonExactDivision, ShapeMismatch
from braidseed.qlaurent import (
    QHalf,
    QuantumLaurent,
    commutation_doubled,
    lambda_pairing,
    right_divide,
    torus_product,
)


def test_qhalf_ring_basics():
    one = QHalf.one()
    u = QHalf.q_power(1)
    assert one + (-one) == QHalf.zero()
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
        QHalf.one().divide(QHalf.zero())


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
        right_divide(lam, x1, QuantumLaurent.zero(2))


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
        right_divide([[0]], QuantumLaurent.zero(2), x1)
    with pytest.raises(ContextMismatch, match=r"^ranks 3 != 2$"):
        right_divide([[0, 1], [-1, 0]], QuantumLaurent.zero(3), x1)
    with pytest.raises(ContextMismatch, match=r"^ranks 2 != 3$"):
        right_divide([[0, 1], [-1, 0]], x1, QuantumLaurent.zero(3))


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
            total = out.get(key, QHalf.zero()) + coeff
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
        out[e_y] = out.get(e_y, QHalf.zero()) + c_y
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
        ([[0, 0], [0, 0]], x1, QuantumLaurent.zero(2)),
        ([[0, 1], [-1, 0]], x1, x1 + x2),
        ([[0, -2], [2, 0]], x1 + x2, binomial + one),
        ([[0, 1], [-1, 0]], QuantumLaurent.zero(2), x1 + x2),
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
    divide = QHalf.divide

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_divide(self, other):
        calls["steps"] += 1
        return divide(self, other)

    monkeypatch.setattr(qlaurent, "torus_product", counted_product)
    monkeypatch.setattr(QuantumLaurent, "__init__", counted_init)
    monkeypatch.setattr(QHalf, "divide", counted_divide)
    assert right_divide(lam, num, d) == f
    assert calls["steps"] == len(f.terms) > 1
    assert calls["product"] == 0
    assert calls["init"] == 0
