"""Seeds attached to words: exchange matrices, compatible pairings,
mutation with exact and tropical variable tracks, move scripts, and
equivalence verification between the seeds of monoid-equal words.

Position conventions are 1-based throughout, matching the word layer.
The exact track stores every cluster variable as a Laurent element of
the initial quantum torus; mutated variables are produced by exact
right division, so any internal inconsistency surfaces as
NonExactDivision instead of a silently wrong result.  The division proves
mu_k(X_k) * X_k = N for the exchange numerator N, and the exchange check
reads the other order X_k * mu_k(X_k) off bar(N): both variables are
bar-invariant and the torus pairing is skew, or the check fails.  The only
products of a step are its exchange monomials, multiplied out once in
_current_monomial.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, compress
from operator import itemgetter, mul, sub
from typing import Optional, Sequence

from .cartan import CartanData, _check_letters
from .errors import (
    ContextMismatch,
    ExchangeSetNotPreserved,
    FrozenIndex,
    InvalidBox,
    MinorNotReachable,
    NoIntegralSolution,
    ShapeMismatch,
)
from .lattices import _canonical_point, _reduce_echelon, column_echelon
from .qlaurent import QuantumLaurent, right_divide, shifted_sum, torus_product
from .transitions import (
    OrderVerdict,
    _transport,
    bilex_compare,
    par_mutation,
    par_product,
)
from .words import (
    EmptyBox,
    IBox,
    Move,
    MoveKind,
    Word,
    _box_vector,
    _move_window,
    _path_windows,
    _positions_vector,
    find_move_path,
    resolve_ibox,
)


@dataclass(frozen=True)
class ExchangeMatrix:
    """Full K x K integer matrix with a designated exchange column set.

    entries[k-1][l-1] holds b_{kl}; exchange lists K^ex; d_prime[s-1] is
    the symmetrizer value attached to position s (meaningful on K^ex).
    """

    entries: tuple
    exchange: tuple
    d_prime: tuple

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, k: int, l: int) -> int:
        return self.entries[k - 1][l - 1]

    def column(self, l: int) -> tuple:
        return tuple(map(itemgetter(l - 1), self.entries))


def gls_matrix(cd: CartanData, w: Word) -> ExchangeMatrix:
    """Exchange matrix of the word's initial seed.

    b_{kl} is 1 when l = k-, -1 when l = k+, the Cartan entry c_{i_k i_l}
    when l- < k- < l < k, its negative when k- < l- < k < l, else 0.
    K^ex is the positions k with a k-, in ascending order.  A letter
    outside the index set raises InvalidBox.
    """
    _check_letters(cd, w.positions)
    letters = w.letters
    n = len(letters)
    # minus[s] = s-, plus[s] = s+, 0 when there is none (plus[0] is unread)
    minus, plus, last = [0] * (n + 1), [0] * (n + 1), {}
    for s, i in enumerate(letters, 1):
        minus[s] = last.get(i, 0)
        plus[minus[s]] = s
        last[i] = s
    rows = []
    for k in range(1, n + 1):
        # every l of a Cartan entry has l or l- strictly between k- and k
        row = [0] * n
        low, cartan = minus[k], cd.matrix[cd.position[letters[k - 1]]]
        if low:
            row[low - 1] = 1
        if plus[k]:
            row[plus[k] - 1] = -1
        for s in range(low + 1, k):
            c = cartan[cd.position[letters[s - 1]]]
            if minus[s] < low:
                row[s - 1] = c
            if plus[s] > k:
                row[plus[s] - 1] = -c
        rows.append(tuple(row))
    exchange = tuple(k for k in range(1, n + 1) if minus[k])
    return ExchangeMatrix(tuple(rows), exchange, tuple(map(cd.sym, letters)))


def solve_lambda(b: ExchangeMatrix) -> tuple:
    """Canonical skew-symmetric pairing compatible with the exchange matrix.

    Solves sum_k lambda_{ik} b_{kj} = -2 d'_j delta_{ij} for all i in K
    and j in K^ex over the integers, then picks the canonical smallest
    solution (max-norm first, then absolute entries in row-major order,
    then nonnegative entries preferred).

    The solutions are Lambda_0 + span(u_a ^ u_b), u a basis of the left
    kernel of the exchange columns, both found by _back_substitute.  B must
    have the shape of a gls_matrix: each exchange column a first nonzero
    entry +-1 in a row of its own (-1 at row j- of column j).  Any other B
    raises ShapeMismatch, and a B of that shape with no compatible pairing
    raises NoIntegralSolution.
    """
    n = b.n
    if not b.exchange:
        return tuple((0,) * n for _ in range(n))
    return _canonical_pairing(n, *_back_substitute(b))


def _pairs(n: int) -> list:
    """The unknowns lambda_ij, i < j, in row-major order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _back_substitute(b: ExchangeMatrix) -> tuple:
    """(Lambda_0 over _pairs, a left-kernel basis), for a B whose exchange
    columns j each have their first nonzero entry, +-1, at a row r_j of
    their own; any other B raises ShapeMismatch.

    Lambda_0 is 0 on the pairs of two free rows (no r_j) and is filled on
    the pairs (a, c), a < c, a descending, then c descending: row i's
    equation at j gives lambda_{i r_j} from entries already filled, with
    (i, r_j) = (a, c) when c = r_j, else (c, a) when a = r_j.  Every other
    pair is forced by the equations, so any solution minus the wedges of
    its free x free entries is Lambda_0: when Lambda_0 fails
    check_compatibility there is no solution, and NoIntegralSolution is
    raised.  Each equation that filled an entry holds, since every entry
    it reads was filled before and stays; the others, at j in rows r_j
    and the later r_k, are the ones checked.  The left kernel has one
    vector per free row l: 1 at l, 0 at the other free rows, and u_{r_j} =
    -b_{r_j j} sum_{k > r_j} u_k b_kj, r_j descending.  Each sum runs over
    the whole column j: it is 0 above r_j, and the entry at r_j is still 0
    when it is read.
    """
    n = b.n
    pivots = {}  # r_j -> (j - 1, b_{r_j j}, column j)
    for j in b.exchange:
        column = b.column(j)
        r = next(compress(range(n), column), None)
        if r is None or column[r] not in (1, -1) or r in pivots:
            raise ShapeMismatch(
                f"exchange column {j} has no leading +-1 in a row of its own"
            )
        pivots[r] = (j - 1, column[r], column)
    lam = [[0] * n for _ in range(n)]
    for a in reversed(range(n)):
        for c in reversed(range(a + 1, n)):
            if c in pivots:
                i, r = a, c
            elif a in pivots:
                i, r = c, a
            else:
                continue
            j, unit, column = pivots[r]
            rhs = -2 * b.d_prime[j] if i == j else 0
            lam[i][r] = unit * (rhs - sum(map(mul, lam[i], column)))
            lam[r][i] = -lam[i][r]
    # row i's equation at j filled lambda_{i r_j} unless i = r_j or i is a
    # later pivot row
    pivot_rows = sorted(pivots)
    for k, r in enumerate(pivot_rows):
        j, _, column = pivots[r]
        for i in pivot_rows[k:]:
            if sum(map(mul, lam[i], column)) != (-2 * b.d_prime[j] if i == j else 0):
                raise NoIntegralSolution("no skew-symmetric integer pairing is compatible with B")
    descending = sorted(pivots.items(), reverse=True)
    kernel = []
    for free in (l for l in range(n) if l not in pivots):
        u = [0] * n
        u[free] = 1
        for r, (_, unit, column) in descending:
            u[r] = -unit * sum(map(mul, u, column))
        kernel.append(u)
    return [lam[i][j] for i, j in _pairs(n)], kernel


def _wedge(pairs: list, u: Sequence[int], v: Sequence[int]) -> list:
    """u ^ v over the pairs."""
    return [u[i] * v[j] - v[i] * u[j] for i, j in pairs]


def _canonical_pairing(n: int, x0: list, free: list) -> tuple:
    """The canonical point of x0 + span(u_a ^ u_b), u the left-kernel basis
    free, as a skew matrix.  Once the u are in column echelon form, u_a
    leading at row lead_a, u_a ^ u_b leads at the pair (lead_a, lead_b):
    the wedges in (a, b) order are an echelon basis with no elimination
    over the pairs, reduced and searched as canonical_smallest_solution
    would."""
    pairs = _pairs(n)
    point = x0
    if len(free) > 1:
        H, leads = column_echelon(list(zip(*free)))
        us = [([row[c] for row in H], lead) for lead, c in leads]
        basis = [_wedge(pairs, u, v) for (u, _), (v, _) in combinations(us, 2)]
        # the pair (i, j) comes after the n - 1 + ... + n - i pairs of rows < i
        pivot_rows = [i * (2 * n - i - 1) // 2 + j - i - 1 for (_, i), (_, j) in combinations(us, 2)]
        point = _canonical_point(x0, _reduce_echelon(basis, pivot_rows), pivot_rows)
    lam = [[0] * n for _ in range(n)]
    for (i, j), value in zip(pairs, point):
        lam[i][j], lam[j][i] = value, -value
    return tuple(tuple(row) for row in lam)


def check_compatibility(lam: Sequence[Sequence[int]], b: ExchangeMatrix) -> bool:
    """True iff sum_k lambda_{ik} b_{kj} = -2 d'_j delta_{ij} on K x K^ex.

    Checked one exchange column at a time: the column's sums over all rows
    i are compared with the expected column at once."""
    n = b.n
    if len(lam) != n or any(len(row) != n for row in lam):
        raise ShapeMismatch(f"pairing size does not match K = [1, {n}]")
    expected = [0] * n
    for j in b.exchange:
        column = b.column(j)
        expected[j - 1] = -2 * b.d_prime[j - 1]
        if [sum(map(mul, row, column)) for row in lam] != expected:
            return False
        expected[j - 1] = 0
    return True


@dataclass(frozen=True)
class Seed:
    """Quantum seed: current exchange data plus both variable tracks.

    torus_lam is the pairing of the initial torus and never changes along
    mutations; lam is the current seed's pairing.  exact is None when the
    exact track is disabled.  A seed holds values only: the products that
    a mutation forms live on the _SeedState it thaws into.
    """

    word: Word
    b: ExchangeMatrix
    lam: tuple
    trop: tuple
    labels: tuple
    torus_lam: tuple
    exact: Optional[tuple] = None


def initial_seed(cd: CartanData, w: Word, exact: bool = False) -> Seed:
    """Seed with variables the right-anchored boxes [s, l} of the word."""
    b = gls_matrix(cd, w)
    return _word_seed(w, b, solve_lambda(b), exact)


def _word_seed(w: Word, b: ExchangeMatrix, lam: tuple, exact: bool) -> Seed:
    """initial_seed of w from its gls_matrix b and solve_lambda(b), so a
    caller that meets one exchange matrix on many words solves it once."""
    n = w.length
    trops = []
    labels = []
    for s, i in enumerate(w.letters, 1):
        last = w.positions[i][-1]
        trops.append(_box_vector(w, i, s, last))
        labels.append(f"D[{s},{last}]")
    exact_track = None
    if exact:
        exact_track = tuple(QuantumLaurent.generator(n, s) for s in range(1, n + 1))
    return Seed(
        word=w,
        b=b,
        lam=lam,
        trop=tuple(trops),
        labels=tuple(labels),
        torus_lam=lam,
        exact=exact_track,
    )


class _SeedState:
    """A seed's exchange data and variable tracks, mutated in place: the
    walk of seed_equivalence_report, and mutate_seed, checked_mutation and
    exchange_check between thawing a seed and freezing the result.  b and
    lam are lists of row lists, trop and exact lists of slots (exact is
    None when the exact track is off); exchange, d_prime and torus_lam
    never change.  skew says whether torus_lam is skew-symmetric, the
    condition under which bar reverses products, decided once per thaw and
    only when the exact track is on (otherwise False).

    _products is the memo of _current_monomial for the current variables,
    owned by the state and empty on every thaw.  A product reads exact
    only at the slots of its key's positive powers, so a mutation at k
    drops exactly the entries with a positive power at k, into a new dict;
    the two products of the exchange numerator at k have power 0 there
    and stay for the step's exchange check.
    """

    __slots__ = (
        "b", "exchange", "d_prime", "lam", "trop", "exact", "torus_lam", "skew", "_products"
    )

    def __init__(self, seed: Seed):
        self.b = [list(row) for row in seed.b.entries]
        self.exchange = seed.b.exchange
        self.d_prime = seed.b.d_prime
        self.lam = [list(row) for row in seed.lam]
        self.trop = list(seed.trop)
        self.exact = None if seed.exact is None else list(seed.exact)
        self.torus_lam = lam = seed.torus_lam
        self.skew = self.exact is not None and list(map(tuple, lam)) == [
            tuple(-v for v in column) for column in zip(*lam)
        ]
        self._products = {}

    def freeze(self, seed: Seed, k: int) -> Seed:
        """The state as a Seed: seed mutated at k, slot k's label wrapped
        in mu_k."""
        labels = seed.labels[: k - 1] + (f"mu{k}({seed.labels[k - 1]})",) + seed.labels[k:]
        return Seed(
            word=seed.word,
            b=ExchangeMatrix(tuple(map(tuple, self.b)), self.exchange, self.d_prime),
            lam=tuple(map(tuple, self.lam)),
            trop=tuple(self.trop),
            labels=labels,
            torus_lam=self.torus_lam,
            exact=None if self.exact is None else tuple(self.exact),
        )


def _exchange_vectors(column: Sequence[int], k: int) -> tuple:
    up = [max(v, 0) for v in column]
    down = [max(-v, 0) for v in column]
    up[k - 1] = -1
    down[k - 1] = -1
    return tuple(up), tuple(down)


def exchange_vectors(b: ExchangeMatrix, k: int) -> tuple:
    """The two exchange monomial exponent vectors at k, each with -1 in slot k."""
    return _exchange_vectors(b.column(k), k)


def _pairings(lam: Sequence[Sequence[int]], k: int, vectors: tuple) -> tuple:
    """Lambda(e_k, v) for each exchange vector v: the doubled q-exponents
    alpha and beta of the exchange relation at k."""
    row = lam[k - 1]
    return tuple(sum(map(mul, vec, row)) for vec in vectors)


def _mutate_in_place(state: _SeedState, k: int) -> tuple:
    """Mutation at an exchange index k, in place: the one home of the B,
    Lambda, tropical and exact mutation rules.  Returns the exchange
    vectors at k, their _pairings under the Lambda before the step, X_k
    before the step and the exchange numerator N that the step divided by
    it, so that mu_k(X_k) * X_k = N (both None when the exact track is
    off).

    The exchange vectors are formed once from B's column k.  The tropical
    track applies the parameter mutation rule to the two monomials'
    parameters; the exact track divides the exchange numerator by the
    current variable's Laurent form.  Of B only the rows i with b_ik != 0
    change, to b_ij + sign(b_ik) max(b_ik b_kj, 0) off column k and -b_ik
    in it, and row k is negated.  Lambda' = E^T Lambda E for the down
    vector: row k becomes Lambda(down, e_j), summed over down's support,
    and column k its negative.
    """
    if k not in state.exchange:
        raise FrozenIndex(f"index {k} is not in the exchange set {state.exchange}")
    b, lam, trop = state.b, state.lam, state.trop
    column = [row[k - 1] for row in b]
    vectors = _exchange_vectors(column, k)
    pairings = _pairings(lam, k, vectors)
    trop[k - 1] = par_mutation(trop[k - 1], *_exchange_parameters(trop, vectors))
    x_k = numerator = None
    if state.exact is not None:
        x_k = state.exact[k - 1]
        numerator = _exchange_sum(state, k, vectors)
        state.exact[k - 1] = right_divide(state.torus_lam, numerator, x_k)
        state._products = {
            key: product for key, product in state._products.items() if not key[k - 1]
        }
    row_k = b[k - 1]
    support_k = [(j, b_kj) for j, b_kj in enumerate(row_k) if b_kj]
    for i, b_ik in enumerate(column):
        if b_ik and i != k - 1:
            row = b[i]
            for j, b_kj in support_k:
                if b_ik * b_kj > 0:
                    row[j] += abs(b_ik) * b_kj
            row[k - 1] = -b_ik
    b[k - 1] = [-v for v in row_k]
    row = [0] * len(lam)
    for t, power in enumerate(vectors[1]):
        if power:
            row = [x + power * y for x, y in zip(row, lam[t])]
    row[k - 1] = 0
    for r, v in zip(lam, row):
        r[k - 1] = -v
    lam[k - 1] = row
    return vectors, pairings, x_k, numerator


def _current_monomial(state: _SeedState, vec: Sequence[int], shift: int = 0) -> tuple:
    """The ordered product of the state's current variables to the given
    powers and its doubled q-prefactor: the based-monomial prefactor of
    the current pairing plus shift.  The monomial is q^(doubled/2) times
    the product.

    The prefactor sums v_i v_j l_ij over i > j in vec's support, the -1
    in slot k of an exchange vector included; a slot with a negative
    power contributes no factor to the product.  The product is formed
    once and kept in state._products under vec with its negative powers
    set to 0, so a step's exchange numerator (-1 at k) and its exchange
    check's right side (0 at k) share it; the callers apply the
    prefactors in their one shifted_sum.
    """
    lam = state.lam
    support = [i for i, v in enumerate(vec) if v]
    doubled = shift + sum(
        vec[i] * vec[j] * lam[i][j] for t, i in enumerate(support) for j in support[:t]
    )
    key = tuple(v if v > 0 else 0 for v in vec)
    product = state._products.get(key)
    if product is None:
        factors = [state.exact[j] for j, power in enumerate(key) for _ in range(power)]
        product = factors[0] if factors else QuantumLaurent.monomial(len(key), key)
        for factor in factors[1:]:
            product = torus_product(state.torus_lam, product, factor)
        state._products[key] = product
    return product, doubled


def _exchange_sum(state: _SeedState, k: int, vectors: tuple) -> QuantumLaurent:
    """q^c1 m_a + q^c2 m_a' where m is the ordered product skipping slot k,
    for the exchange vectors at k.

    Each based monomial X^a of the current seed (with exponent -1 in slot
    k) is rewritten as q^c * (product over the other slots) * X_k^{-1};
    moving X_k^{-1} to the right end gives q^(-sum_{j>k} a_j l_kj).  The
    returned element is that numerator, so dividing by X_k's Laurent form
    on the right yields the mutated variable.
    """
    row = state.lam[k - 1]
    return shifted_sum(
        [_current_monomial(state, vec, -2 * sum(map(mul, vec[k:], row[k:]))) for vec in vectors]
    )


def _exchange_parameters(trop: Sequence, vectors: tuple) -> tuple:
    """Tropical parameters of the up and down exchange monomials: the
    current parameters summed to each monomial's powers, leaving out slot k
    (its only negative power)."""
    pars = []
    for vec in vectors:
        par = (0,) * len(trop)
        for power, t in zip(vec, trop):
            if power > 0:
                par = tuple(p + power * x for p, x in zip(par, t))
        pars.append(par)
    return tuple(pars)


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutation at an exchange index; returns a new seed: the seed thawed
    into a _SeedState, one _mutate_in_place step, and the state frozen
    with slot k's label wrapped in mu_k."""
    state = _SeedState(seed)
    _mutate_in_place(state, k)
    return state.freeze(seed, k)


@dataclass(frozen=True)
class ExchangeCheck:
    """Outcome of verifying X_k * mu_k(X_k) = q^(alpha/2) M1 + q^(beta/2) M2.

    alpha_doubled and beta_doubled are the doubled q-exponents attached to
    the up and down exchange monomials; verified is None when the exact
    track is off.
    """

    slot: int
    alpha_doubled: int
    beta_doubled: int
    verified: Optional[bool]


def _checked_step(state: _SeedState, s: int, slot: int) -> ExchangeCheck:
    """One step, _mutate_in_place at state slot s, and its ExchangeCheck
    reported at slot.  On the exact track the check verifies X_s * mu_s(X_s)
    == q^(alpha/2) M_up + q^(beta/2) M_down: the only place where both
    sides are decided, with no product formed.

    The step's division proved mu_s(X_s) * X_s = N for the numerator N it
    divided.  Under a skew torus_lam bar reverses products, so when X_s and
    mu_s(X_s) are both bar-invariant, as quantum cluster variables are
    (Berenstein-Zelevinsky 2005), X_s * mu_s(X_s) = bar(N).  The check is
    therefore: state.skew, both variables bar-invariant, and bar(N) equal
    to the right side.

    The right side reads the exchange vectors with slot s set to 0, which
    read neither X_s nor row and column s of Lambda: the state after the
    step gives the same right side as before it, from the products that
    the step's numerator left in the state's memo.
    """
    vectors, pairings, x_s, numerator = _mutate_in_place(state, s)
    verified = None
    if x_s is not None:
        right = shifted_sum(
            [
                _current_monomial(state, vec[: s - 1] + (0,) + vec[s:], pairing)
                for vec, pairing in zip(vectors, pairings)
            ]
        )
        verified = (
            state.skew
            and x_s.bar_invariant()
            and state.exact[s - 1].bar_invariant()
            and numerator.bar() == right
        )
    return ExchangeCheck(slot, *pairings, verified)


def checked_mutation(seed: Seed, k: int) -> tuple:
    """(mutate_seed(seed, k), the ExchangeCheck of that step), from one
    _checked_step."""
    state = _SeedState(seed)
    check = _checked_step(state, k, k)
    return state.freeze(seed, k), check


def exchange_check(seed: Seed, k: int, mutated: Seed) -> ExchangeCheck:
    """Verify the exchange relation at k, given mutated = mutate_seed(seed, k):
    the relation of the step at k holds, and mutated's variable at k is the
    step's.  A variable that meets the relation is the step's, since the
    quantum torus has no zero divisors.  A frozen k is refused by the
    step, before the tracks are compared."""
    if k in seed.b.exchange and seed.exact is not None and mutated.exact is None:
        raise ContextMismatch(
            f"exchange check at {k}: the seed has an exact track and the "
            "mutated seed has none"
        )
    state = _SeedState(seed)
    check = _checked_step(state, k, k)
    if not check.verified:
        return check
    return replace(check, verified=mutated.exact[k - 1] == state.exact[k - 1])


def permute_seed(seed: Seed, rho: Sequence[int]) -> Seed:
    """Relabel slots: new slot i carries the data of old slot rho(i).

    rho is a 1-based image tuple; the exchange set is transported, and
    the symmetrizer values move with their slots.
    """
    n = seed.b.n
    if sorted(rho) != list(range(1, n + 1)):
        raise ExchangeSetNotPreserved(f"{rho} is not a permutation of [1, {n}]")
    exact = None
    if seed.exact is not None:
        exact = _relabelled(seed.exact, rho)
    return replace(
        seed,
        b=_permuted_b(seed.b.entries, seed.b.exchange, seed.b.d_prime, rho),
        lam=_permuted(seed.lam, rho),
        trop=_relabelled(seed.trop, rho),
        labels=_relabelled(seed.labels, rho),
        exact=exact,
    )


def _relabelled(slots: Sequence, rho: Sequence[int]) -> tuple:
    """New slot i carries old slot rho(i)."""
    return tuple(slots[r - 1] for r in rho)


def _permuted(matrix: Sequence[Sequence[int]], rho: Sequence[int]) -> tuple:
    """Rows and columns relabelled: entry (i, j) is old entry (rho(i), rho(j))."""
    return tuple(tuple(row[c - 1] for c in rho) for row in _relabelled(matrix, rho))


def _permuted_b(entries, exchange: tuple, d_prime: tuple, rho: Sequence[int]):
    """B relabelled by rho; the exchange set is transported, and the
    symmetrizer values move with their slots."""
    return ExchangeMatrix(
        _permuted(entries, rho),
        tuple(i for i, r in enumerate(rho, 1) if r in exchange),
        _relabelled(d_prime, rho),
    )


@dataclass(frozen=True)
class MutationScript:
    """Mutations in application order, then a slot permutation."""

    mutations: tuple
    permutation: tuple


def _transpositions(n: int, *pairs) -> tuple:
    rho = list(range(1, n + 1))
    for a, b in pairs:
        rho[a - 1], rho[b - 1] = rho[b - 1], rho[a - 1]
    return tuple(rho)


def move_to_mutation_script(cd: CartanData, w: Word, m: Move) -> MutationScript:
    """Compile a word move into the seed operations realizing it.

    Swap moves permute two slots; triple moves mutate once and permute;
    quadruple moves need three mutations (the two stated orders agree)
    and the double transposition of both window slot pairs.  The window
    i j i (j) puts an earlier copy of its letter before each script index
    p+2 and p+3, so every script index is an exchange slot of w.
    """
    _check_letters(cd, w.positions)
    return _window_script(cd, w.length, m, *_move_window(w, m, cd))


def _window_script(cd: CartanData, n: int, m: Move, i, j, p: int) -> MutationScript:
    """move_to_mutation_script of m on a word of length n whose window
    (i, j, p) has been validated."""
    if m.kind is MoveKind.TWO:
        return MutationScript((), _transpositions(n, (p, p + 1)))
    if m.kind is MoveKind.THREE:
        muts = (p + 2,)
        perm = _transpositions(n, (p, p + 1))
    else:
        if cd.entry(j, i) == -1:
            muts = (p + 2, p + 3, p + 2)
        else:
            muts = (p + 3, p + 2, p + 3)
        perm = _transpositions(n, (p, p + 1), (p + 2, p + 3))
    return MutationScript(muts, perm)


@dataclass(frozen=True)
class FourMoveIntermediate:
    """Recomputed entry b'_{p+1,p+3} after the first script mutation."""

    move: Move
    value: int
    displayed: int = 1


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of a script-transported seed against the target's seed."""

    path: tuple
    b_exchange_match: bool
    b_full_match: bool
    trop_match: bool
    transported_match: bool
    lam_gauge: tuple
    lam_gauge_in_kernel: bool
    exchange_checks: tuple
    exact_verified: Optional[bool]
    four_move_intermediates: tuple

    @property
    def match(self) -> bool:
        """Script transport reproduced the target seed.

        The tropical gate is transported_match: mutated vectors stay in
        the source word's coordinates, so they are compared against the
        target's vectors pulled back along the reversed path.  trop_match
        records the raw comparison for the coordinate-fixed cases.
        """
        core = (
            self.b_exchange_match
            and self.transported_match
            and self.lam_gauge_in_kernel
        )
        if self.exact_verified is None:
            return core
        return core and self.exact_verified


def seed_equivalence_report(
    cd: CartanData,
    w: Word,
    w2: Word,
    exact: Optional[bool] = None,
) -> EquivalenceReport:
    """Walk a move path from w to w2, compiling each move to a script and
    replaying it on the seed of w; compare the outcome with the seed of w2.

    The whole walk runs on one _SeedState, mutated in place by
    _mutate_in_place: no seed is built per step.  Each move's window is
    validated once (words._path_windows); the scripts and the pull-back of
    the target's tropical vectors along the reversed path, in one pass,
    read the same windows.  The state is never relabelled along the walk:
    slot[k-1] is the state slot holding word slot k, every script mutation
    runs at its state slot, and each script's permutation is composed into
    slot.  Mutation commutes with relabelling, so the state read through
    slot, as it is compared with the target's seed, is the seed of
    permuting after every move; each mutation is one _checked_step, whose
    exchange check keeps the word slot.

    exact=None runs the exact track iff the word has length <= 6.
    """
    path = tuple(find_move_path(cd, w, w2))
    if exact is None:
        exact = w.length <= 6
    state = _SeedState(initial_seed(cd, w, exact=exact))
    windows = _path_windows(cd, w, path)
    n = w.length
    slot = list(range(1, n + 1))
    checks = []
    intermediates = []
    for move, window in zip(path, windows):
        script = _window_script(cd, n, move, *window)
        for t, k in enumerate(script.mutations):
            checks.append(_checked_step(state, slot[k - 1], k))
            if t == 0 and move.kind is MoveKind.FOUR:
                p = move.position
                intermediates.append(
                    FourMoveIntermediate(move, state.b[slot[p] - 1][slot[p + 2] - 1])
                )
        slot = _relabelled(slot, script.permutation)
    b = _permuted_b(state.b, state.exchange, state.d_prime, slot)
    trop = _relabelled(state.trop, slot)
    target = initial_seed(cd, w2, exact=False)
    columns = [target.b.column(l) for l in target.b.exchange]
    b_exchange_match = (
        b.exchange == target.b.exchange
        and b.d_prime == target.b.d_prime
        and all(b.column(l) == c for l, c in zip(target.b.exchange, columns))
    )
    transported = _transport(
        cd,
        path[::-1],
        [(j, i, p) for i, j, p in reversed(windows)],
        target.trop,
        "weighted",
    )
    gauge = tuple(
        tuple(map(sub, row, target_row))
        for row, target_row in zip(_permuted(state.lam, slot), target.lam)
    )
    in_kernel = all(sum(map(mul, row, c)) == 0 for c in columns for row in gauge)
    exact_verified = None
    if exact:
        exact_verified = all(c.verified for c in checks) if checks else True
    return EquivalenceReport(
        path=path,
        b_exchange_match=b_exchange_match,
        b_full_match=b.entries == target.b.entries,
        trop_match=trop == target.trop,
        transported_match=trop == transported,
        lam_gauge=gauge,
        lam_gauge_in_kernel=in_kernel,
        exchange_checks=tuple(checks),
        exact_verified=exact_verified,
        four_move_intermediates=tuple(intermediates),
    )


@dataclass(frozen=True)
class TSystemReport:
    """Boxed product identity for one box; the exchange fields are set
    only by an exact check."""

    box: IBox
    degenerate: bool
    identity_holds: bool
    left_sum: tuple
    right_sum: tuple
    lower_sum: tuple
    lower_verdict: OrderVerdict
    a_doubled: Optional[int] = None
    b_doubled: Optional[int] = None
    exact_verified: Optional[bool] = None

    @property
    def match(self) -> bool:
        """The identity holds, the lower term does not dominate the main
        sum, and an exact check, if any, verified the exchange relation."""
        if self.degenerate:
            return True
        ok = self.identity_holds and self.lower_verdict is not OrderVerdict.GREATER
        if self.exact_verified is not None:
            ok = ok and self.exact_verified
        return ok


def _lower_powers(cd: CartanData, w: Word, i) -> tuple:
    """The power -c_ji of each position of w whose letter j is adjacent to
    i, 0 at the other positions: the T-system exponent of D[a+(j), b-(j)]."""
    return tuple(0 if j == i else -cd.entry(j, i) for j in w.letters)


def _tsystem_terms(n: int, ks: tuple, s: int, t: int, powers: tuple) -> tuple:
    """Tropical terms of the box [a, b] = [ks[s], ks[t]] of a letter i whose
    positions are ks: (left sum, right sum, lower sum, lower verdict).

    The boxes [a+,b], [a,b-], [a,b] and [a+,b-] hold the positions
    ks[s+1:t+1], ks[s:t], ks[s:t+1] and ks[s+1:t].  The box [a+(j), b-(j)]
    of a letter j adjacent to i holds exactly the j's strictly inside
    (a, b), so the lower product, each such box to the power -c_ji, is
    _lower_powers of i sliced to (a, b).
    """
    left = par_product(
        _positions_vector(n, ks[s + 1 : t + 1]), _positions_vector(n, ks[s:t])
    )
    right = par_product(
        _positions_vector(n, ks[s : t + 1]), _positions_vector(n, ks[s + 1 : t])
    )
    a, b = ks[s], ks[t]
    lower = (0,) * a + powers[a : b - 1] + (0,) * (n - max(a, b - 1))
    return left, right, lower, bilex_compare(lower, right)


def tsystem_sweep(cd: CartanData, w: Word) -> tuple:
    """Tropical boxed identity and lower-term dominance over every i-box of
    w: (boxes checked, degenerate boxes, failures), the failures in the
    order of the boxes (a, b).

    The letters are checked once and each letter gets one _lower_powers;
    every box is read from slices of its letter's positions by the same
    per-box terms as tsystem_check.  A box [a, b] is degenerate exactly
    when b is the first position of its letter at or after a.
    """
    _check_letters(cd, w.positions)
    n = w.length
    powers = {i: _lower_powers(cd, w, i) for i in w.positions}
    seen = dict.fromkeys(w.positions, 0)
    checked = degenerate = 0
    failures = []
    for a, i in enumerate(w.letters, 1):
        ks = w.positions[i]
        s = seen[i]
        seen[i] = s + 1
        checked += len(ks) - s
        degenerate += 1
        for t in range(s + 1, len(ks)):
            left, right, _, verdict = _tsystem_terms(n, ks, s, t, powers[i])
            if left != right:
                failures.append({"box": [a, ks[t]], "kind": "identity"})
            if verdict is OrderVerdict.GREATER:
                failures.append({"box": [a, ks[t]], "kind": "lower-dominant"})
    return checked, degenerate, failures


def tsystem_check(
    cd: CartanData, w: Word, box: IBox, exact: bool = False
) -> TSystemReport:
    """Check the boxed product identity at one box.

    Only the caller's box is resolved; the boxes [a+,b], [a,b-], [a,b] and
    [a+,b-] of its letter i are sliced from the word's position index.
    The tropical check verifies vec[a+,b] + vec[a,b-] = vec[a,b] +
    vec[a+,b-] and compares the lower product, each letter j adjacent to i
    strictly inside (a, b) to the power -c_ji, against the main sum in the
    bi-lex order.  exact=True (the exact mode) also realizes the identity
    as the exchange relation at slot a+ when the box is right-anchored and
    the exchange monomials match the boxed terms; otherwise it raises
    MinorNotReachable.  A letter outside the index set or the empty box
    raises InvalidBox.
    """
    _check_letters(cd, w.positions)
    if isinstance(box, EmptyBox):
        raise InvalidBox("the empty box has no T-system identity")
    resolved = resolve_ibox(w, box)
    a, b = resolved.lo, resolved.hi
    i = w.letter(a)
    ks = w.positions[i]
    s, t = ks.index(a), ks.index(b)
    left, right, lower, verdict = _tsystem_terms(
        w.length, ks, s, t, _lower_powers(cd, w, i)
    )
    degenerate = s == t
    report = TSystemReport(
        box=resolved,
        degenerate=degenerate,
        identity_holds=left == right,
        left_sum=left,
        right_sum=right,
        lower_sum=lower,
        lower_verdict=verdict,
    )
    if not exact:
        return report
    if degenerate:
        raise MinorNotReachable(f"box {resolved} is degenerate for the exact mode")
    if t + 1 < len(ks):
        raise MinorNotReachable(
            f"box {resolved} is not right-anchored; its minors are not "
            "variables of the initial seed"
        )
    seed = initial_seed(cd, w, exact=True)
    k = ks[s + 1]  # an exchange slot: ks[s] carries its letter before it
    par_up, par_down = _exchange_parameters(seed.trop, exchange_vectors(seed.b, k))
    if par_down != right or par_up != lower:
        raise MinorNotReachable(
            f"the exchange monomials at slot {k} do not realize the boxed terms"
        )
    _, check = checked_mutation(seed, k)
    return replace(
        report,
        a_doubled=check.beta_doubled,
        b_doubled=check.alpha_doubled,
        exact_verified=check.verified,
    )


def seed_to_json(seed: Seed) -> dict:
    """Serializable seed dump; exact forms are keyed by exponent vector."""
    payload = {
        "labels": list(seed.labels),
        "B": [list(row) for row in seed.b.entries],
        "Lambda": [list(row) for row in seed.lam],
        "exchange": list(seed.b.exchange),
        "d_prime": list(seed.b.d_prime),
        "variables": {"tropical": [list(v) for v in seed.trop]},
        "word": {"letters": list(seed.word.letters), "kind": seed.word.kind.value},
    }
    if seed.exact is not None:
        payload["variables"]["exact"] = [
            {
                "terms": [
                    {"exponents": list(e), "coefficient": sorted(c.terms.items())}
                    for e, c in sorted(var.terms.items())
                ]
            }
            for var in seed.exact
        ]
    return payload
