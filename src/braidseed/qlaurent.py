"""Exact arithmetic in a quantum torus over ZZ[q^(1/2), q^(-1/2)].

Coefficients are Laurent polynomials in q^(1/2); their exponents are
stored doubled so every arithmetic step stays in plain integers.  Torus
elements are finite sums of based monomials X^a indexed by integer
exponent vectors; the based normalization makes the product rule
X^a X^b = q^(Lambda(a,b)/2) X^(a+b) with Lambda(a,b) = sum a_i b_j l_ij.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import ContextMismatch, NonExactDivision


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
        return QHalf({k: -v for k, v in self.terms.items()})

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
        return QHalf({k + doubled: v for k, v in self.terms.items()})

    def divide(self, other: "QHalf") -> "QHalf":
        """Exact division; raises NonExactDivision on any remainder."""
        if other.is_zero():
            raise NonExactDivision("division by zero coefficient")
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
        return QuantumLaurent(self.rank, out)

    def __neg__(self) -> "QuantumLaurent":
        return QuantumLaurent(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "QuantumLaurent") -> "QuantumLaurent":
        return self + (-other)

    def q_shift(self, doubled: int) -> "QuantumLaurent":
        return QuantumLaurent(
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


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def lambda_pairing(lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> int:
    """Lambda(a, b) = sum_ij a_i b_j l_ij."""
    total = 0
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = lam[i]
        for j, bj in enumerate(b):
            if bj:
                total += ai * bj * row[j]
    return total


def torus_product(
    lam: Sequence[Sequence[int]], f: QuantumLaurent, g: QuantumLaurent
) -> QuantumLaurent:
    """Product of based-monomial sums: X^a X^b = q^(Lambda(a,b)/2) X^(a+b)."""
    if f.rank != g.rank:
        raise ContextMismatch(f"ranks {f.rank} != {g.rank}")
    if len(lam) != f.rank:
        raise ContextMismatch(f"Lambda size {len(lam)} != rank {f.rank}")
    out: dict[tuple, QHalf] = {}
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


def torus_power(
    lam: Sequence[Sequence[int]], f: QuantumLaurent, n: int
) -> QuantumLaurent:
    if n < 0:
        raise NonExactDivision("negative powers need explicit division")
    out = QuantumLaurent.monomial(f.rank, (0,) * f.rank)
    for _ in range(n):
        out = torus_product(lam, out, f)
    return out


def right_divide(
    lam: Sequence[Sequence[int]], numerator: QuantumLaurent, divisor: QuantumLaurent
) -> QuantumLaurent:
    """The unique Y with Y * divisor = numerator; raises NonExactDivision.

    Leading-term elimination under the graded-lexicographic order; the
    order is translation invariant, so each step strictly lowers the
    remainder's leading term and exact divisions terminate.
    """
    if divisor.is_zero():
        raise NonExactDivision("division by zero")
    out: dict[tuple, QHalf] = {}
    remainder = numerator
    e_d, c_d = divisor.leading()
    previous_key = None
    steps = 0
    while not remainder.is_zero():
        steps += 1
        if steps > 10000:
            raise NonExactDivision("division failed to terminate within bound")
        e_r, c_r = remainder.leading()
        key = _grlex_key(e_r)
        if previous_key is not None and key >= previous_key:
            raise NonExactDivision("leading term failed to decrease")
        previous_key = key
        e_y = tuple(a - b for a, b in zip(e_r, e_d))
        shift = lambda_pairing(lam, e_y, e_d)
        c_y = c_r.shift(-shift).divide(c_d)
        out[e_y] = out.get(e_y, QHalf.zero()) + c_y
        piece = QuantumLaurent.monomial(numerator.rank, e_y, c_y)
        remainder = remainder - torus_product(lam, piece, divisor)
    return QuantumLaurent(numerator.rank, out)


def commutation_doubled(
    lam: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]
) -> int:
    """Doubled exponent t with X^a X^b = q^(t/2) X^b X^a; t = 2*Lambda(a,b)."""
    return 2 * lambda_pairing(lam, a, b)
