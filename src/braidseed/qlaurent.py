"""Exact arithmetic in a quantum torus over ZZ[q^(1/2), q^(-1/2)].

Coefficients are Laurent polynomials in q^(1/2); their exponents are
stored doubled so every arithmetic step stays in plain integers.  Torus
elements are finite sums of based monomials X^a indexed by integer
exponent vectors; the based normalization makes the product rule
X^a X^b = q^(Lambda(a,b)/2) X^(a+b) with Lambda(a,b) = sum a_i b_j l_ij.

The product and right-division kernels work on plain dicts
{exponent: {doubled_q: int}} and wrap the result once.  They read
Lambda(a, b) as a . (Lambda b): the Lambda images of one factor's terms
(the divisor's, in a division) are computed once, and each term pair then
costs one O(r) dot product.  Division keeps its remainder in such a dict
and takes the leading term from a heap.  A product, a division step and
a shifted_sum each hand all their term pairs to one _accumulate call,
the one home of the merge rule; a pair with a one-entry coefficient, the
common case, merges its entry products straight in.  A one-entry QHalf
divisor divides entry by entry.  Terms and coefficient entries keep the
insertion order of a sum of QHalf objects, so the messages of
NonExactDivision, which print coefficient dicts, do not depend on the
kernel.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, mul, neg, sub
from typing import Mapping, Sequence

from .errors import BudgetExhausted, ContextMismatch, NonExactDivision, ShapeMismatch
from .words import default_budget


class QHalf:
    """Laurent polynomial in q^(1/2) with integer coefficients.

    Keys of ``terms`` are doubled exponents: key k stands for q^(k/2).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v:
                    self.terms[int(k)] = int(v)

    @classmethod
    def _wrap(cls, terms: dict) -> "QHalf":
        """Coefficient over a dict built in this module (int keys, no
        zero values); the dict is not copied."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "QHalf":
        return cls()

    @classmethod
    def one(cls) -> "QHalf":
        return cls({0: 1})

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
        if doubled == 0:
            return self
        return QHalf._wrap({k + doubled: v for k, v in self.terms.items()})

    def divide(self, other: "QHalf") -> "QHalf":
        """Exact division; raises NonExactDivision on any remainder.

        By a one-entry divisor c q^(d/2) each entry is checked and divided
        on its own, in descending degree order: the quotient, entry order
        included, and the message are those of the long division below.
        """
        if other.is_zero():
            raise NonExactDivision("division by zero coefficient")
        if len(other.terms) == 1:
            ((lo_d, den_lead),) = other.terms.items()
            quo = {}
            for k in sorted(self.terms, reverse=True):
                lead = self.terms[k]
                if lead % den_lead:
                    raise NonExactDivision(
                        f"coefficient {self.terms} is not divisible by {other.terms}"
                    )
                quo[k - lo_d] = lead // den_lead
            return QHalf._wrap(quo)
        if self.is_zero():
            return QHalf()
        lo_d = min(other.terms)
        num = {k - lo_d: v for k, v in self.terms.items()}
        den = {k - lo_d: v for k, v in other.terms.items()}
        den_deg = max(den)
        den_lead = den[den_deg]
        # an exact Laurent quotient has min degree exactly min(num) here,
        # so quotient terms below that bound prove inexactness
        quo_floor = min(num)
        quo: dict[int, int] = {}
        while num:
            deg = max(num)
            lead = num[deg]
            if deg - den_deg < quo_floor or lead % den_lead != 0:
                raise NonExactDivision(
                    f"coefficient {self.terms} is not divisible by {other.terms}"
                )
            c = lead // den_lead
            k = deg - den_deg
            quo[k] = quo.get(k, 0) + c
            for dk, dv in den.items():
                key = dk + k
                val = num.get(key, 0) - c * dv
                if val:
                    num[key] = val
                elif key in num:
                    del num[key]
        return QHalf(quo)

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


class QuantumLaurent:
    """Finite sum of based monomials coeff * X^a in a rank-r torus."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Sequence[int], QHalf] | None = None):
        self.rank = rank
        self.terms: dict[tuple, QHalf] = {}
        if terms:
            for exps, coeff in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != rank:
                    raise ContextMismatch(
                        f"exponent vector {key} does not have rank {rank}"
                    )
                if coeff:
                    self.terms[key] = coeff

    @classmethod
    def _wrap(cls, rank: int, terms: dict) -> "QuantumLaurent":
        """Element over a dict built in this module (rank-r tuple keys,
        nonzero QHalf values); the dict is not copied."""
        out = object.__new__(cls)
        out.rank = rank
        out.terms = terms
        return out

    @classmethod
    def zero(cls, rank: int) -> "QuantumLaurent":
        return cls(rank)

    @classmethod
    def monomial(
        cls, rank: int, exps: Sequence[int], coeff: QHalf | None = None
    ) -> "QuantumLaurent":
        return cls(rank, {tuple(exps): QHalf.one() if coeff is None else coeff})

    @classmethod
    def generator(cls, rank: int, slot: int) -> "QuantumLaurent":
        """X_slot (1-based slot index)."""
        exps = [0] * rank
        exps[slot - 1] = 1
        return cls.monomial(rank, exps)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumLaurent)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __add__(self, other: "QuantumLaurent") -> "QuantumLaurent":
        if self.rank != other.rank:
            raise ContextMismatch(f"ranks {self.rank} != {other.rank}")
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = out.get(exps, QHalf.zero()) + coeff
            if total:
                out[exps] = total
            elif exps in out:
                del out[exps]
        return QuantumLaurent._wrap(self.rank, out)

    def __neg__(self) -> "QuantumLaurent":
        return QuantumLaurent._wrap(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "QuantumLaurent") -> "QuantumLaurent":
        return self + (-other)

    def q_shift(self, doubled: int) -> "QuantumLaurent":
        return QuantumLaurent._wrap(
            self.rank, {e: c.shift(doubled) for e, c in self.terms.items()}
        )

    def leading(self) -> tuple[tuple, QHalf]:
        """Graded-lexicographically largest term."""
        if not self.terms:
            raise NonExactDivision("zero element has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c!r})*X^{list(e)}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits)


# the coefficient 1, a right factor that leaves a left one's entries as they are
_UNIT = {0: 1}


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _heap_key(exps: tuple) -> tuple:
    """Min-heap key that pops the graded-lexicographically largest first."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


def lambda_pairing(lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> int:
    """Lambda(a, b) = sum_ij a_i b_j l_ij.  A vector whose length is not
    the size of Lambda is ContextMismatch, as in torus_product, and a
    Lambda that is not square is ShapeMismatch."""
    n = len(lam)
    if len(a) != n or len(b) != n:
        raise ContextMismatch(f"vector lengths {len(a)}, {len(b)} != Lambda size {n}")
    if any(len(row) != n for row in lam):
        raise ShapeMismatch(f"Lambda of size {n} is not square")
    total = 0
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = lam[i]
        for j, bj in enumerate(b):
            if bj:
                total += ai * bj * row[j]
    return total


def _image(lam: Sequence[Sequence[int]], b: Sequence[int]) -> list:
    """Lambda b, so that Lambda(a, b) = a . (Lambda b)."""
    return [sum(map(mul, row, b)) for row in lam]


def _check_context(lam: Sequence[Sequence[int]], f: QuantumLaurent, g: QuantumLaurent) -> None:
    if f.rank != g.rank:
        raise ContextMismatch(f"ranks {f.rank} != {g.rank}")
    if len(lam) != f.rank:
        raise ContextMismatch(f"Lambda size {len(lam)} != rank {f.rank}")


def _accumulate(acc: dict, pairs, sign: int) -> list:
    """acc[key] += sign * q^(shift/2) * a * b on doubled-exponent dicts,
    for each (key, a, b, shift) of pairs in turn: the one merge rule of
    products, right divisions and shifted sums.

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
    dot product, and coefficients accumulate in plain int dicts.
    """
    _check_context(lam, f, g)
    if len(g.terms) <= len(f.terms):
        pieces = [(b, cb.terms, _image(lam, b)) for b, cb in g.terms.items()]
        pairs = [
            (tuple(map(add, a, b)), ca.terms, cb, sum(map(mul, a, image)))
            for a, ca in f.terms.items()
            for b, cb, image in pieces
        ]
    else:
        transposed = tuple(zip(*lam))
        images = [_image(transposed, a) for a in f.terms]
        pieces = [(b, cb.terms) for b, cb in g.terms.items()]
        pairs = [
            (tuple(map(add, a, b)), ca.terms, cb, sum(map(mul, image, b)))
            for (a, ca), image in zip(f.terms.items(), images)
            for b, cb in pieces
        ]
    acc: dict = {}
    _accumulate(acc, pairs, 1)
    return QuantumLaurent._wrap(f.rank, {e: QHalf._wrap(c) for e, c in acc.items()})


def shifted_sum(parts: Sequence[tuple]) -> QuantumLaurent:
    """The sum of q^(shift/2) * x over the (x, shift) of parts, in one pass:
    terms and coefficient entries come in the order of
    x1.q_shift(s1) + x2.q_shift(s2) + ..., with no shifted copies."""
    (first, shift), rest = parts[0], parts[1:]
    for x, _ in rest:
        if x.rank != first.rank:
            raise ContextMismatch(f"ranks {first.rank} != {x.rank}")
    acc = {e: {k + shift: v for k, v in c.terms.items()} for e, c in first.terms.items()}
    _accumulate(
        acc, [(e, c.terms, _UNIT, s) for x, s in rest for e, c in x.terms.items()], 1
    )
    return QuantumLaurent._wrap(first.rank, {e: QHalf._wrap(c) for e, c in acc.items()})


def right_divide(
    lam: Sequence[Sequence[int]], numerator: QuantumLaurent, divisor: QuantumLaurent
) -> QuantumLaurent:
    """The unique Y with Y * divisor = numerator; raises NonExactDivision.

    Leading-term elimination under the graded-lexicographic order.  The
    remainder is one mutable {exponent: {doubled_q: int}} dict whose
    exponents sit in a heap; entries of terms that have since cancelled
    are skipped when popped.  Each step divides the leading coefficient
    by the divisor's and subtracts c_y X^(e_y) * divisor in place, with
    the Lambda images of the divisor's terms computed once.  The order is
    translation invariant, so every new term ranks below the one being
    eliminated: the leading term strictly falls and exact divisions
    terminate.  Inexact ones stop after 10,000 steps (NonExactDivision),
    or earlier with BudgetExhausted once the coefficient products formed,
    quotient entries times divisor entries summed over the steps, exceed
    default_budget(): the remainder of an inexact division can grow at
    every step.  The context is checked first, as in torus_product, so a
    zero numerator or divisor of another torus raises ContextMismatch.
    """
    _check_context(lam, numerator, divisor)
    if divisor.is_zero():
        raise NonExactDivision("division by zero")
    out: dict[tuple, QHalf] = {}
    if numerator.is_zero():
        return QuantumLaurent._wrap(numerator.rank, out)
    e_d, c_d = divisor.leading()
    lead_image = _image(lam, e_d)
    pieces = [(b, cb.terms, _image(lam, b)) for b, cb in divisor.terms.items()]
    remainder = {e: dict(c.terms) for e, c in numerator.terms.items()}
    heap = [_heap_key(e) for e in remainder]
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
        c_r = QHalf._wrap({k - shift: v for k, v in remainder[e_r].items()})
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
        for e in _accumulate(remainder, pairs, -1):
            heappush(heap, _heap_key(e))
    return QuantumLaurent._wrap(numerator.rank, out)


def commutation_doubled(
    lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]
) -> int:
    """Doubled exponent t with X^a X^b = q^(t/2) X^b X^a; t = 2*Lambda(a,b)."""
    return 2 * lambda_pairing(lam, a, b)
