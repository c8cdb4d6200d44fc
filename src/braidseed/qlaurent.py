"""Exact arithmetic in a quantum torus over ZZ[q^(1/2), q^(-1/2)].

Coefficients are Laurent polynomials in q^(1/2); their exponents are
stored doubled so every arithmetic step stays in plain integers.  Torus
elements are finite sums of based monomials X^a indexed by integer
exponent vectors; the based normalization makes the product rule
X^a X^b = q^(Lambda(a,b)/2) X^(a+b) with Lambda(a,b) = sum a_i b_j l_ij.
Coefficient entries and exponents are whatever operator.index accepts;
anything else is NotRepresentable (errors.as_int).

Each term of a rank-r element is keyed by one int, the Kronecker packing

    key(a) = |a| B^r + a_1 B^(r-1) + ... + a_r,   |a| = a_1 + ... + a_r,

with B = 2^32 and signed digits.  The key is linear, so key(a + b) is
key(a) + key(b), one int add.  While every |a_i| is at most
M = 2^31 - 1, two vectors' digits differ by at most 2M < B, so no
difference carries into the digit above it: the key is one-to-one, and
int order compares |a| first, then a_1, a_2, ... -- the graded
lexicographic order.  The total degree is the top digit and needs no
bound.  So a carry must be impossible, and every element carries a
bound on its |a_i|: the exact maximum when built from exponent tuples
and for a quotient, whose steps unpack them all (right_divide says why),
the larger one for a sum, and the two bounds added for a product.  An
exponent beyond M, and a product or division whose terms could pass M,
is refused with NotRepresentable.

The exponent tuples, which the Lambda dot products and the public view
terms = {exponent tuple: QHalf} read, are unpacked from an element's
keys when first read, and kept.  A product or sum builds none, so one
that is only compared, like an exchange relation's right side, never
does; a quotient keeps the tuples its steps unpack.

A torus element stores each coefficient in one form, the plain dict
{doubled_q: int} of its nonzero entries, which every kernel computes in;
a QHalf enters through the constructor and is built again only where a
caller asks for one (terms and leading).  Each rule of the torus has one
home.  _accumulate merges every sum: the term pairs of a product, of a
division step and of a shifted_sum, of which x + y and x - y are the
two-part cases; a pair with a one-entry coefficient, the common case,
merges its entry products straight in.  _divide divides every
coefficient, and QHalf.divide wraps it; a one-entry divisor divides entry
by entry.  _scaled is the one term map, of -x and x.q_shift(s); bar is
the one home of the bar involution, which negates every doubled
q-exponent and fixes each based monomial.  Under a skew Lambda bar
reverses products, bar(f g) = bar(g) bar(f); bar_invariant tests
bar(x) == x entry by entry and builds no element.  _image is the one
Lambda rule: Lambda(a, b) is a . (Lambda b) in lambda_pairing and in
the kernels, where the images of one factor's terms (the divisor's, in
a division) are computed once and each term pair then costs one O(r)
dot product.  Division keeps its remainder in a
{key: {doubled_q: int}} dict and takes the leading term from a heap of
negated keys; a one-term divisor c X^e instead divides the numerator's
terms in one pass, in grlex order.  Terms and coefficient entries keep
the insertion order of a sum of QHalf objects, so the messages of
NonExactDivision, which print coefficient dicts, do not depend on the
kernel.  Every doubled q-shift passes the integer rule.
"""
from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from operator import index, mul
from struct import Struct
from typing import Mapping, Sequence

from .errors import (
    BudgetExhausted,
    ContextMismatch,
    NonExactDivision,
    NotRepresentable,
    ShapeMismatch,
    as_int,
    default_budget,
)

# One digit of a packed key, and the largest |exponent| its signed digits hold.
_DIGIT = 1 << 32
_EXPONENT_BOUND = (1 << 31) - 1
# Elimination steps after which an inexact division gives up.
_MAX_STEPS = 10000


class QHalf:
    """Laurent polynomial in q^(1/2) with integer coefficients.

    Keys of ``terms`` are doubled exponents: key k stands for q^(k/2).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                k = as_int(k, NotRepresentable, "doubled q-exponent")
                v = as_int(v, NotRepresentable, "coefficient entry")
                if v:
                    self.terms[k] = v

    @classmethod
    def _wrap(cls, terms: dict) -> "QHalf":
        """Coefficient over a dict built in this module (int keys, no
        zero values); the dict is not copied."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def one(cls) -> "QHalf":
        return cls._wrap({0: 1})

    @classmethod
    def q_power(cls, doubled: int, coeff: int = 1) -> "QHalf":
        return cls({doubled: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, QHalf) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QHalf") -> "QHalf":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return QHalf(out)

    def __neg__(self) -> "QHalf":
        return QHalf._wrap({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "QHalf") -> "QHalf":
        return self + (-other)

    def __mul__(self, other: "QHalf") -> "QHalf":
        out: dict[int, int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return QHalf(out)

    def shift(self, doubled: int) -> "QHalf":
        """Multiply by q^(doubled/2)."""
        doubled = as_int(doubled, NotRepresentable, "doubled q-exponent")
        return QHalf._wrap({k + doubled: v for k, v in self.terms.items()})

    def divide(self, other: "QHalf") -> "QHalf":
        """Exact division; raises NonExactDivision on any remainder (_divide)."""
        return QHalf._wrap(_divide(self.terms, other.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == 0:
                bits.append(str(v))
            elif k % 2 == 0:
                bits.append(f"{v}*q^{k // 2}")
            else:
                bits.append(f"{v}*q^{k}/2")
        return " + ".join(bits)


def _divide(num: dict, den: dict) -> dict:
    """num / den on doubled-exponent dicts, the one coefficient division;
    raises NonExactDivision on any remainder.

    By a one-entry divisor c q^(d/2) each entry is checked and divided on
    its own, in descending degree order: the quotient, entry order
    included, and the message are those of the long division below.
    """
    if not den:
        raise NonExactDivision("division by zero coefficient")
    if len(den) == 1:
        ((lo_d, den_lead),) = den.items()
        quo = {}
        for k in sorted(num, reverse=True):
            lead = num[k]
            if lead % den_lead:
                raise NonExactDivision(f"coefficient {num} is not divisible by {den}")
            quo[k - lo_d] = lead // den_lead
        return quo
    if not num:
        return {}
    lo_d = min(den)
    rem = {k - lo_d: v for k, v in num.items()}
    d = {k - lo_d: v for k, v in den.items()}
    den_deg = max(d)
    den_lead = d[den_deg]
    # an exact Laurent quotient has min degree exactly min(rem) here,
    # so quotient terms below that bound prove inexactness
    quo_floor = min(rem)
    quo = {}
    while rem:
        deg = max(rem)
        lead = rem[deg]
        k = deg - den_deg
        if k < quo_floor or lead % den_lead != 0:
            raise NonExactDivision(f"coefficient {num} is not divisible by {den}")
        # the leading entry cancels and every other lands below it, so
        # each k is new and each c nonzero
        c = quo[k] = lead // den_lead
        for dk, dv in d.items():
            key = dk + k
            val = rem.get(key, 0) - c * dv
            if val:
                rem[key] = val
            elif key in rem:
                del rem[key]
    return quo


@cache
def _packing(rank: int) -> tuple:
    """The weights B^r + B^(r-1-i) of slots i = 0 .. r-1, so that
    key(a) = a . weights, and the unpacking of a key to its exponent tuple.

    Adding 2^31 to every low digit makes each one a_i + 2^31, in [1, B),
    so the low r digits of key + bias are read off without borrows;
    flipping bit 31 of each leaves a_i mod 2^32, which the r big-endian
    signed 32-bit fields of its bytes read back as a_i.
    """
    weights = tuple(_DIGIT**rank + _DIGIT ** (rank - 1 - i) for i in range(rank))
    bias = sum(_DIGIT**i for i in range(rank)) << 31
    low, size, fields = _DIGIT**rank - 1, 4 * rank, Struct(f">{rank}i").unpack

    def unpack(key: int) -> tuple:
        return fields((((key + bias) & low) ^ bias).to_bytes(size, "big"))

    return weights, unpack


class QuantumLaurent:
    """Finite sum of based monomials coeff * X^a in a rank-r torus.

    _terms maps each term's packed key to its coefficient in its one
    stored form, the nonzero dict {doubled_q: int}, in term order; every
    |a_i| of a term is at most _bound.  _exps maps the keys to their
    exponent tuples, or is None until _exponents() first unpacks them.
    terms is the public view, which wraps each coefficient in a QHalf.
    Sums go through shifted_sum, -x and q_shift through _scaled.
    """

    __slots__ = ("rank", "_terms", "_exps", "_bound")

    def __init__(self, rank: int, terms: Mapping[Sequence[int], QHalf] | None = None):
        self.rank = rank = as_int(rank, NotRepresentable, "rank")
        self._terms: dict[int, dict] = {}
        self._exps: dict[int, tuple] = {}
        self._bound = 0
        if terms:
            for exps, coeff in terms.items():
                try:
                    exps = tuple(map(index, exps))
                except TypeError:
                    # refused at the first entry that is not an integer
                    exps = tuple(as_int(e, NotRepresentable, "exponent") for e in exps)
                if len(exps) != rank:
                    raise ContextMismatch(
                        f"exponent vector {exps} does not have rank {rank}"
                    )
                bound = max(map(abs, exps)) if exps else 0
                if bound > _EXPONENT_BOUND:
                    raise NotRepresentable(
                        f"exponent vector {exps} is beyond the packing bound {_EXPONENT_BOUND}"
                    )
                if not isinstance(coeff, QHalf):
                    raise NotRepresentable(f"coefficient {coeff!r} is not a QHalf")
                if coeff.terms:
                    key = sum(map(mul, exps, _packing(rank)[0]))
                    self._terms[key] = coeff.terms
                    self._exps[key] = exps
                    self._bound = max(self._bound, bound)

    @classmethod
    def _wrap(cls, rank: int, terms: dict, bound: int, exps: dict | None = None) -> "QuantumLaurent":
        """Element over a dict built in this module (packed keys, nonzero
        doubled-exponent dicts), a bound on its exponents, and its keys'
        exponent tuples if already at hand; the dicts are not copied."""
        out = object.__new__(cls)
        out.rank = rank
        out._terms = terms
        out._bound = bound
        out._exps = exps
        return out

    def _exponents(self) -> dict:
        """{key: exponent tuple} of the terms, unpacked on first read."""
        exps = self._exps
        if exps is None:
            unpack = _packing(self.rank)[1]
            exps = self._exps = {key: unpack(key) for key in self._terms}
        return exps

    @property
    def terms(self) -> dict:
        """{exponent tuple: QHalf}, in term order."""
        exps = self._exponents()
        return {exps[key]: QHalf._wrap(coeff) for key, coeff in self._terms.items()}

    @classmethod
    def monomial(
        cls, rank: int, exps: Sequence[int], coeff: QHalf | None = None
    ) -> "QuantumLaurent":
        return cls(rank, {tuple(exps): QHalf.one() if coeff is None else coeff})

    @classmethod
    def generator(cls, rank: int, slot: int) -> "QuantumLaurent":
        """X_slot (1-based slot index); a slot outside [1, rank] is
        ContextMismatch."""
        rank = as_int(rank, NotRepresentable, "rank")
        slot = as_int(slot, NotRepresentable, "slot")
        if not 1 <= slot <= rank:
            raise ContextMismatch(f"slot {slot} is not in [1, {rank}]")
        exps = [0] * rank
        exps[slot - 1] = 1
        return cls.monomial(rank, exps)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumLaurent)
            and self.rank == other.rank
            and self._terms == other._terms
        )

    def __hash__(self):
        terms = frozenset((key, frozenset(c.items())) for key, c in self._terms.items())
        return hash((self.rank, terms))

    def __add__(self, other: "QuantumLaurent") -> "QuantumLaurent":
        return shifted_sum([(self, 0), (other, 0)])

    def __sub__(self, other: "QuantumLaurent") -> "QuantumLaurent":
        return shifted_sum([(self, 0), (-other, 0)])

    def _scaled(self, sign: int, doubled: int) -> "QuantumLaurent":
        """sign * q^(doubled/2) * self: the one term map.  The keys, the
        bound and the exponent tuples stay."""
        doubled = as_int(doubled, NotRepresentable, "doubled q-exponent")
        terms = {
            key: {k + doubled: sign * v for k, v in c.items()} for key, c in self._terms.items()
        }
        return QuantumLaurent._wrap(self.rank, terms, self._bound, self._exps)

    def bar(self) -> "QuantumLaurent":
        """The bar involution q^(1/2) -> q^(-1/2), X^a -> X^a: every doubled
        q-exponent negated.  The keys, the bound and the exponent tuples
        stay.  Under a skew Lambda it is a ring anti-automorphism, so
        bar(f g) = bar(g) bar(f)."""
        terms = {key: {-k: v for k, v in c.items()} for key, c in self._terms.items()}
        return QuantumLaurent._wrap(self.rank, terms, self._bound, self._exps)

    def bar_invariant(self) -> bool:
        """bar(self) == self, read off the entries: each q^(k/2) entry
        equals its q^(-k/2) one."""
        return all(c.get(-k) == v for c in self._terms.values() for k, v in c.items())

    def __neg__(self) -> "QuantumLaurent":
        return self._scaled(-1, 0)

    def q_shift(self, doubled: int) -> "QuantumLaurent":
        return self._scaled(1, doubled)

    def leading(self) -> tuple[tuple, QHalf]:
        """Graded-lexicographically largest term: the largest key."""
        if not self._terms:
            raise NonExactDivision("zero element has no leading term")
        key = max(self._terms)
        return self._exponents()[key], QHalf._wrap(self._terms[key])

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = [f"({c!r})*X^{list(e)}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits)


# the coefficient 1, a right factor that leaves a left one's entries as they are
_UNIT = {0: 1}


def _check_square(lam: Sequence[Sequence[int]]) -> None:
    """The shape rule of every pairing and kernel: Lambda is square."""
    n = len(lam)
    if not set(map(len, lam)) <= {n}:
        raise ShapeMismatch(f"Lambda of size {n} is not square")


def lambda_pairing(lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> int:
    """Lambda(a, b) = sum_ij a_i b_j l_ij.  A vector whose length is not
    the size of Lambda is ContextMismatch, as in torus_product, and a
    Lambda that is not square is ShapeMismatch, as there too."""
    n = len(lam)
    if len(a) != n or len(b) != n:
        raise ContextMismatch(f"vector lengths {len(a)}, {len(b)} != Lambda size {n}")
    _check_square(lam)
    return sum(map(mul, a, _image(lam, b)))


def _image(lam: Sequence[Sequence[int]], b: Sequence[int]) -> list:
    """Lambda b, so that Lambda(a, b) = a . (Lambda b): the one Lambda rule."""
    return [sum(map(mul, row, b)) for row in lam]


def _check_context(lam: Sequence[Sequence[int]], f: QuantumLaurent, g: QuantumLaurent) -> None:
    if f.rank != g.rank:
        raise ContextMismatch(f"ranks {f.rank} != {g.rank}")
    if len(lam) != f.rank:
        raise ContextMismatch(f"Lambda size {len(lam)} != rank {f.rank}")
    _check_square(lam)


def _check_reach(reach: int, what: str) -> None:
    """Refuse a kernel whose terms could have an |exponent| of reach."""
    if reach > _EXPONENT_BOUND:
        raise NotRepresentable(
            f"{what} could reach exponents beyond the packing bound {_EXPONENT_BOUND}"
        )


def _accumulate(acc: dict, pairs, sign: int) -> list:
    """acc[key] += sign * q^(shift/2) * a * b on doubled-exponent dicts,
    for each (key, a, b, shift) of pairs in turn: the one merge rule of
    every sum: products, right divisions and shifted sums.

    a * b is summed first, then merged entry by entry; zero entries and
    empty terms are dropped at once, so a term that cancels and comes back
    is re-appended, exactly as in a sum of QHalf objects.  When a or b has
    one entry, the entry products are the other's entries moved and
    scaled, all nonzero and with distinct keys, so they merge straight in,
    in the same order.  Returns the keys that were not in acc when their
    pair was merged.
    """
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


def torus_product(
    lam: Sequence[Sequence[int]], f: QuantumLaurent, g: QuantumLaurent
) -> QuantumLaurent:
    """Product of based-monomial sums: X^a X^b = q^(Lambda(a,b)/2) X^(a+b).

    Lambda(a, b) is read as a . (Lambda b) when g has no more terms than
    f, and as (Lambda^T a) . b otherwise, so only the smaller factor's
    terms are multiplied by Lambda; each term pair then costs one O(r)
    dot product and one key add, and coefficients accumulate in plain int
    dicts.  The product's exponent tuples are unpacked when first read.
    """
    _check_context(lam, f, g)
    bound = f._bound + g._bound
    _check_reach(bound, "product")
    f_vecs, g_vecs = f._exponents(), g._exponents()
    if len(g._terms) <= len(f._terms):
        g_vecs = {kb: _image(lam, b) for kb, b in g_vecs.items()}
    else:
        transposed = tuple(zip(*lam))
        f_vecs = {ka: _image(transposed, a) for ka, a in f_vecs.items()}
    pieces = [(kb, cb, g_vecs[kb]) for kb, cb in g._terms.items()]
    pairs = [
        (ka + kb, ca, cb, sum(map(mul, u, v)))
        for ka, ca in f._terms.items()
        for u in (f_vecs[ka],)
        for kb, cb, v in pieces
    ]
    acc: dict = {}
    _accumulate(acc, pairs, 1)
    return QuantumLaurent._wrap(f.rank, acc, bound)


def shifted_sum(parts: Sequence[tuple]) -> QuantumLaurent:
    """The sum of q^(shift/2) * x over the (x, shift) of parts, in one pass:
    terms and coefficient entries come in the order of
    x1.q_shift(s1) + x2.q_shift(s2) + ..., with no shifted copies.  No
    parts, or parts of two ranks, are ContextMismatch."""
    if not parts:
        raise ContextMismatch("a shifted sum needs at least one part")
    rank = parts[0][0].rank
    checked = []
    for x, shift in parts:
        if x.rank != rank:
            raise ContextMismatch(f"ranks {rank} != {x.rank}")
        checked.append((x, as_int(shift, NotRepresentable, "doubled q-exponent")))
    acc: dict = {}
    _accumulate(acc, [(key, c, _UNIT, s) for x, s in checked for key, c in x._terms.items()], 1)
    return QuantumLaurent._wrap(rank, acc, max(x._bound for x, _ in parts))


def right_divide(
    lam: Sequence[Sequence[int]], numerator: QuantumLaurent, divisor: QuantumLaurent
) -> QuantumLaurent:
    """The unique Y with Y * divisor = numerator; raises NonExactDivision.

    Leading-term elimination under the graded-lexicographic order.  The
    remainder is one mutable {key: {doubled_q: int}} dict whose keys sit,
    negated, in a heap; entries of terms that have since cancelled are
    skipped when popped.  Each step divides the leading coefficient by the
    divisor's and subtracts c_y X^(e_y) * divisor in place, with the
    Lambda images of the divisor's terms computed once; e_y is unpacked
    from its key, the leading key minus the divisor's.  The order is
    translation invariant, so every new term ranks below the one being
    eliminated: the leading term strictly falls and exact divisions
    terminate.  By a one-term divisor c X^e a step cancels the leading
    term and forms no other, so the steps take the numerator's terms once,
    from the largest key down, with no heap and no merge.  Inexact
    divisions stop after 10,000 steps (NonExactDivision), or earlier with
    BudgetExhausted once the coefficient products formed, quotient entries
    times divisor entries summed over the steps, exceed default_budget():
    the remainder of an inexact division can grow at every step.  The
    context is checked first, as in torus_product, so a zero numerator or
    divisor of another torus raises ContextMismatch.

    Each step moves a term by e_b - e_d for a divisor term e_b, at most
    2 bd in each slot for the divisor's bound bd, so no term of 10,000
    steps passes bn + bd + 20,000 bd for the numerator's bound bn, and
    that must fit the packing (one-term divisors: bn + bd).  The
    quotient's bound is the largest |exponent| of the tuples its steps
    unpacked, not bn + bd: a cluster variable is a quotient whose
    numerator's bound adds up those of the variables before it, so bounds
    added along a sequence of mutations would grow with no end while the
    exponents themselves stay small.
    """
    _check_context(lam, numerator, divisor)
    if divisor.is_zero():
        raise NonExactDivision("division by zero")
    rank = numerator.rank
    if numerator.is_zero():
        return QuantumLaurent._wrap(rank, {}, 0)
    d_exps = divisor._exponents()
    k_d = max(divisor._terms)
    e_d, c_d = d_exps[k_d], divisor._terms[k_d]
    lead_image = _image(lam, e_d)
    budget = default_budget()
    bound = numerator._bound + divisor._bound
    if len(divisor._terms) == 1:
        _check_reach(bound, "division")
        pieces = []
        remainder = numerator._terms
        order = sorted(remainder, reverse=True)
    else:
        _check_reach(bound + 2 * _MAX_STEPS * divisor._bound, "division")
        pieces = [(kb, cb, _image(lam, d_exps[kb])) for kb, cb in divisor._terms.items()]
        remainder = {key: dict(c) for key, c in numerator._terms.items()}
        heap = [-key for key in remainder]
        heapify(heap)
        order = _leading_keys(heap, remainder)
    unpack = _packing(rank)[1]
    entries = sum(map(len, divisor._terms.values()))
    out: dict[int, dict] = {}
    exps = {}
    previous = None
    steps = work = 0
    for key in order:
        steps += 1
        if steps > _MAX_STEPS:
            raise NonExactDivision("division failed to terminate within bound")
        if previous is not None and key >= previous:
            raise NonExactDivision("leading term failed to decrease")
        previous = key
        k_y = key - k_d
        e_y = exps[k_y] = unpack(k_y)
        shift = sum(map(mul, e_y, lead_image))
        c_y = out[k_y] = _divide({k - shift: v for k, v in remainder[key].items()}, c_d)
        work += len(c_y) * entries
        if work > budget:
            raise BudgetExhausted(
                f"division stopped after {steps} steps: over {budget} coefficient products"
            )
        if pieces:
            pairs = [
                (k_y + kb, c_y, cb, sum(map(mul, e_y, image)))
                for kb, cb, image in pieces
            ]
            for new in _accumulate(remainder, pairs, -1):
                heappush(heap, -new)
    if rank:
        tuples = exps.values()
        bound = max(max(map(max, tuples)), -min(map(min, tuples)))
    return QuantumLaurent._wrap(rank, out, bound, exps)


def _leading_keys(heap: list, remainder: dict):
    """The leading keys of remainder as it changes between reads: popped
    from heap, which holds them negated, skipping keys that have left
    remainder since they were pushed."""
    while remainder:
        key = -heappop(heap)
        while key not in remainder:
            key = -heappop(heap)
        yield key


def commutation_doubled(
    lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]
) -> int:
    """Doubled exponent t with X^a X^b = q^(t/2) X^b X^a; t = 2*Lambda(a,b)."""
    return 2 * lambda_pairing(lam, a, b)
