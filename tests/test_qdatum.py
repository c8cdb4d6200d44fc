"""Height functions, adapted words, the repetition lattice, and the
inverse quantum Cartan series.

Oracles: the adapted-word certificate is replayed step by step, lattice
windows are compared against the word-position enumeration, the root
bijection is checked against the reflection-ordered root list of the
adapted word, and the series is cross-checked by dense convolution.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import fields
from functools import cached_property

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed import qdatum
from braidseed.cartan import (
    CartanData,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
    validate_cartan,
    weyl_act,
)
from braidseed.errors import (
    BraidseedError,
    DimensionMismatch,
    HeightParityViolation,
    NonContiguousWindow,
    NotASource,
    NotFiniteType,
    NotInvertibleAtOrder,
    NotSimplyLaced,
    PointOutsideLattice,
    SeriesOrderInsufficient,
)
from braidseed.qdatum import (
    BHLWindow,
    QDatum,
    RepetitionPoint,
    a_monomial,
    adapted_word,
    b_hl,
    cartan_tilde,
    delta_window,
    extended_sequence,
    n_form,
    phi_inverse,
    phi_map,
    pk_sequence,
    source_reflect,
    validate_height,
)
from braidseed.seeds import gls_matrix
from braidseed.words import Word, WordKind


def sample_heights(rng, cd):
    """Random valid height function via a random BFS labeling."""
    labels = list(cd.index_set)
    heights = {labels[0]: rng.randint(-3, 3)}
    while len(heights) < len(labels):
        for i in labels:
            if i in heights:
                continue
            for j in labels:
                if cd.entry(i, j) == -1 and j in heights:
                    heights[i] = heights[j] + rng.choice((-1, 1))
                    break
    return tuple(heights[i] for i in labels)


def test_validate_height_examples():
    qd = validate_height(preset("a2"), (1, 0))
    assert qd.arrows == ((1, 2),)
    assert qd.is_source(1) and not qd.is_source(2)
    with pytest.raises(HeightParityViolation):
        validate_height(preset("a2"), (0, 2))
    qd = validate_height(preset("a1"), (7,))
    assert qd.arrows == ()
    with pytest.raises(NotSimplyLaced):
        validate_height(preset("b2"), (1, 0))
    with pytest.raises(DimensionMismatch):
        validate_height(preset("a2"), (1, 0, 1))


def test_source_reflect():
    qd = validate_height(preset("a2"), (1, 0))
    lowered = source_reflect(qd, 1)
    assert lowered.heights == (-1, 0)
    assert lowered.is_source(2)
    with pytest.raises(NotASource):
        source_reflect(qd, 2)
    assert source_reflect(validate_height(preset("a1"), (7,)), 1).heights == (5,)


def test_adapted_word_examples():
    assert adapted_word(validate_height(preset("a2"), (1, 0))).letters == (1, 2, 1)
    assert adapted_word(validate_height(preset("a2"), (0, 1))).letters == (2, 1, 2)
    assert adapted_word(validate_height(preset("a1"), (0,))).letters == (1,)


def test_adapted_word_monotone_chain():
    # greedy source extraction would emit (3,2,1,3,2,1) here, which is a
    # valid source sequence but not reduced; the window allots vertex 1
    # only one occurrence
    qd = validate_height(preset("a3"), (0, 1, 2))
    w = adapted_word(qd)
    assert w.letters == (3, 2, 1, 3, 2, 3)
    assert roots_of_word(preset("a3"), w.letters).all_positive


def test_adapted_word_certificate():
    rng = random.Random(5)
    for name in ["a1", "a2", "a3"]:
        cd = preset(name)
        data = finite_type_data(cd)
        for _ in range(4):
            qd = validate_height(cd, sample_heights(rng, cd))
            w = adapted_word(qd)
            assert w.length == len(data.positive_roots)
            running = qd
            for letter in w.letters:
                assert running.is_source(letter)
                running = source_reflect(running, letter)
            seen = roots_of_word(cd, w.letters)
            assert len(set(seen.roots)) == w.length


def test_extended_sequence():
    cd = preset("a2")
    qd = validate_height(cd, (1, 0))
    w0 = adapted_word(qd)
    star = cd._star
    assert star == {1: 2, 2: 1}
    assert extended_sequence(w0, star, 4) == 2
    assert extended_sequence(w0, star, -2) == 2
    a1 = validate_height(preset("a1"), (0,))
    for k in range(-4, 5):
        assert extended_sequence(adapted_word(a1), {1: 1}, k) == 1


def test_pk_sequence_a2():
    qd = validate_height(preset("a2"), (1, 0))
    points = pk_sequence(qd, 1, 3)
    assert points == [
        RepetitionPoint(1, 1),
        RepetitionPoint(2, 0),
        RepetitionPoint(1, -1),
    ]
    assert set(points) == delta_window(qd, 0)
    assert len(set(points)) == 3


def test_pk_sequence_backward_levels_increase():
    rng = random.Random(9)
    for name in ["a2", "a3"]:
        cd = preset(name)
        qd = validate_height(cd, sample_heights(rng, cd))
        points = pk_sequence(qd, -6, 8)
        assert len(set(points)) == len(points)
        for pt in points:
            assert (pt.level - qd.height(pt.vertex)) % 2 == 0
        by_vertex = {}
        for pt in reversed(points):
            by_vertex.setdefault(pt.vertex, []).append(pt.level)
        for levels in by_vertex.values():
            assert levels == sorted(levels)
            for a, b in zip(levels, levels[1:]):
                assert b - a == 2


def test_delta_window_sizes():
    rng = random.Random(13)
    for name in ["a1", "a2", "a3"]:
        cd = preset(name)
        count = len(finite_type_data(cd).positive_roots)
        for _ in range(3):
            qd = validate_height(cd, sample_heights(rng, cd))
            for k in (-1, 0, 1, 2):
                assert len(delta_window(qd, k)) == count
            assert set(pk_sequence(qd, 1, count)) == delta_window(qd, 0)


def test_delta_window_a1_example():
    qd = validate_height(preset("a1"), (0,))
    assert delta_window(qd, 0) == {RepetitionPoint(1, 0)}


def test_phi_base_and_steps():
    qd = validate_height(preset("a2"), (1, 0))
    assert injective_root(qd, 1) == (1, 0)
    assert injective_root(qd, 2) == (1, 1)
    assert phi_map(qd, RepetitionPoint(1, 1)) == ((1, 0), 0)
    assert phi_map(qd, RepetitionPoint(2, 0)) == ((1, 1), 0)
    assert phi_map(qd, RepetitionPoint(1, -1)) == ((0, 1), 0)
    a1 = validate_height(preset("a1"), (3,))
    assert phi_map(a1, RepetitionPoint(1, 5)) == ((1,), 1)
    with pytest.raises(PointOutsideLattice):
        phi_map(qd, RepetitionPoint(1, 0))
    # an even-parity float level is not a lattice point either
    for call in (
        lambda: phi_map(qd, RepetitionPoint(1, 3.0)),
        lambda: b_hl(qd, (RepetitionPoint(1, 3.0),)),
    ):
        with pytest.raises(PointOutsideLattice, match="level 3.0 is not an integer"):
            call()


def test_phi_matches_word_roots():
    # exhaustive over small heights: random sampling can miss the monotone
    # chains, which are exactly the configurations that stress extraction
    for name in ["a1", "a2", "a3"]:
        cd = preset(name)
        for xi in itertools.product(range(-3, 4), repeat=len(cd.index_set)):
            try:
                qd = validate_height(cd, xi)
            except HeightParityViolation:
                continue
            w = adapted_word(qd)
            roots = roots_of_word(cd, w.letters).roots
            for k, pt in enumerate(pk_sequence(qd, 1, w.length), start=1):
                assert phi_map(qd, pt) == (tuple(roots[k - 1]), 0)


def test_phi_injective_with_round_trip():
    rng = random.Random(23)
    for name in ["a2", "a3"]:
        cd = preset(name)
        data = finite_type_data(cd)
        qd = validate_height(cd, sample_heights(rng, cd))
        seen = {}
        for pt in sorted(
            set().union(*(delta_window(qd, k) for k in (-1, 0, 1))),
            key=lambda p: (p.level, p.vertex),
        ):
            value = phi_map(qd, pt)
            assert value not in seen
            seen[value] = pt
            assert phi_inverse(qd, value[0], value[1]) == pt
        window_zero = {phi_map(qd, pt) for pt in delta_window(qd, 0)}
        roots = {tuple(beta) for beta in data.positive_roots}
        assert window_zero == {(beta, 0) for beta in roots}


def test_b_hl_matches_gls():
    qd = validate_height(preset("a2"), (1, 0))
    points = pk_sequence(qd, 1, 3)
    window = b_hl(qd, points)
    assert window.positions == (1, 2, 3)
    direct = gls_matrix(preset("a2"), Word((1, 2, 1), WordKind.WEYL_REDUCED))
    assert window.entries == direct.entries
    assert window.entry(points[2], points[0]) == 1


def test_b_hl_shifted_windows_agree():
    qd = validate_height(preset("a3"), (2, 1, 0))
    first = b_hl(qd, pk_sequence(qd, 1, 5))
    second = b_hl(qd, pk_sequence(qd, 1 + 6, 5 + 6))
    assert first.entries != ()
    assert second.positions == tuple(k + 6 for k in first.positions)
    star = preset("a3")._star
    for a, b in zip(first.points, second.points):
        assert b.vertex == star[a.vertex]
    assert b_hl(qd, ()) == BHLWindow((), (), ())


def test_b_hl_entry_agrees_with_entries_on_every_pair_of_points():
    qd = validate_height(preset("d4"), (0, 1, 0, 2))
    window = b_hl(qd, pk_sequence(qd, 5, 16))
    for (r, a), (c, b) in itertools.product(enumerate(window.points), repeat=2):
        assert window.entry(a, b) == window.entries[r][c]
    with pytest.raises(ValueError, match=r"^\(1,100\) is not a point of the window$"):
        window.entry(window.points[0], RepetitionPoint(1, 100))


def test_b_hl_rejects_gaps():
    qd = validate_height(preset("a2"), (1, 0))
    points = pk_sequence(qd, 1, 3)
    with pytest.raises(NonContiguousWindow):
        b_hl(qd, (points[0], points[2]))
    with pytest.raises(NonContiguousWindow, match=r"^point \(1,1\) is repeated at position 1$"):
        b_hl(qd, (points[1], points[0], points[0]))


def test_cartan_tilde_a1_series():
    series = cartan_tilde(preset("a1"), 6)
    values = [series.entry(1, 1, u) for u in range(0, 7)]
    assert values == [0, 1, 0, -1, 0, 1, 0]
    assert series.entry(1, 1, -3) == 0
    with pytest.raises(SeriesOrderInsufficient):
        series.entry(1, 1, 7)


def brute_inverse_series(cd, u_max):
    """Dense series inversion of q*C(q) = I + qD + q^2 I over fractions."""
    from fractions import Fraction

    n = len(cd.index_set)
    labels = list(cd.index_set)
    coeffs = [[[Fraction(0)] * n for _ in range(n)] for _ in range(u_max)]
    p = [
        [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)],
        [
            [Fraction(cd.entry(labels[a], labels[b]) if a != b else 0) for b in range(n)]
            for a in range(n)
        ],
        [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)],
    ]
    for m in range(u_max):
        target = [
            [Fraction(1 if (m == 0 and a == b) else 0) for b in range(n)]
            for a in range(n)
        ]
        for v in (1, 2):
            if m - v >= 0:
                for a in range(n):
                    for b in range(n):
                        for t in range(n):
                            target[a][b] -= p[v][a][t] * coeffs[m - v][t][b]
        coeffs[m] = target
    return coeffs


def test_cartan_tilde_matches_dense_inversion():
    contexts = [preset(name) for name in ("a1", "a2", "a3", "a1xa1")]
    for cd in contexts + [preset("d4")]:
        series = cartan_tilde(cd, 8)
        dense = brute_inverse_series(cd, 8)
        labels = list(cd.index_set)
        for u in range(1, 9):
            for a, i in enumerate(labels):
                for b, j in enumerate(labels):
                    assert series.entry(i, j, u) == dense[u - 1][a][b]
    assert cartan_tilde(preset("a2"), 4).entry(1, 2, 2) == 1


def test_cartan_tilde_convolution_identity():
    for name in ["a2", "a3"]:
        cd = preset(name)
        u_max = 7
        series = cartan_tilde(cd, u_max)
        labels = list(cd.index_set)
        n = len(labels)
        for u in range(0, u_max - 1):
            for a in range(n):
                for b in range(n):
                    total = series.entry(labels[a], labels[b], u + 1)
                    total += series.entry(labels[a], labels[b], u - 1)
                    for t in range(n):
                        if a != t:
                            total += cd.entry(labels[a], labels[t]) * series.entry(
                                labels[t], labels[b], u
                            )
                    assert total == (1 if (u == 0 and a == b) else 0)


def test_n_form_values_and_antisymmetry():
    series = cartan_tilde(preset("a1"), 6)
    up = RepetitionPoint(1, 2)
    down = RepetitionPoint(1, 0)
    assert n_form(series, up, down) == 2
    assert n_form(series, down, up) == -2
    assert n_form(series, up, up) == 0
    a2 = cartan_tilde(preset("a2"), 10)
    qd = validate_height(preset("a2"), (1, 0))
    window = sorted(delta_window(qd, 0), key=lambda p: (p.vertex, p.level))
    for x in window:
        for y in window:
            assert n_form(a2, x, y) == -n_form(a2, y, x)
            shifted = n_form(
                a2,
                RepetitionPoint(x.vertex, x.level + 2),
                RepetitionPoint(y.vertex, y.level + 2),
            )
            assert shifted == n_form(a2, x, y)


def four_entry_n_form(series, p1, p2):
    """Reference n_form: the four coefficient reads, each raising beyond
    the computed order."""
    i, p = p1.vertex, p1.level
    j, q = p2.vertex, p2.level
    return (
        series.entry(i, j, p - q - 1)
        - series.entry(i, j, p - q + 1)
        - series.entry(i, j, q - p - 1)
        + series.entry(i, j, q - p + 1)
    )


@pytest.mark.parametrize("u_max", [1, 2, 3, 5, 7])
def test_n_form_reads_the_four_entry_formula_from_its_rows(u_max):
    # a value or the same error and message at every level difference,
    # inside the computed rows and up to four orders beyond them, where
    # n_form refuses without reading a coefficient
    contexts = [preset(name) for name in ("a1", "a2", "a3", "a1xa1")]
    for cd in contexts + [preset("d4")]:
        series = cartan_tilde(cd, u_max)
        for i, j in itertools.product(cd.index_set, repeat=2):
            for d in range(-u_max - 4, u_max + 5):
                for base in (0, 3):
                    x, y = RepetitionPoint(i, base + d), RepetitionPoint(j, base)
                    assert result(n_form, series, x, y) == result(
                        four_entry_n_form, series, x, y
                    )
        fresh = cartan_tilde(cd, u_max)  # the rows take no part in ==, hash, repr
        assert series == fresh and hash(series) == hash(fresh)
        assert repr(series) == repr(fresh)


def test_non_integer_inputs_are_refused_naming_the_argument():
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    a2 = preset("a2")
    with pytest.raises(HeightParityViolation, match=r"^xi_1 = 1\.5 is not an integer$"):
        validate_height(a2, (1.5, 0))
    with pytest.raises(HeightParityViolation, match=r"^xi_1 = '1' is not an integer$"):
        validate_height(a2, ("1", 0))
    with pytest.raises(HeightParityViolation, match=r"^xi_2 = None is not an integer$"):
        validate_height(a2, (1, None))
    qd = validate_height(a2, (Index(1), 0))
    assert qd == validate_height(a2, (1, 0)) and type(qd.heights[0]) is int
    with pytest.raises(PointOutsideLattice, match=r"^k = 0\.5 is not an integer$"):
        delta_window(qd, 0.5)
    assert delta_window(qd, Index(-1)) == delta_window(qd, -1)
    assert all(type(pt.level) is int for pt in delta_window(qd, Index(2)))
    with pytest.raises(NotInvertibleAtOrder, match=r"^u_max = 2\.5 is not an integer$"):
        cartan_tilde(a2, 2.5)
    assert cartan_tilde(a2, Index(3)) == cartan_tilde(a2, 3)
    for kind in (HeightParityViolation, PointOutsideLattice, NotInvertibleAtOrder):
        assert issubclass(kind, BraidseedError)


def _integer_entry_points():
    """Each Q-datum query that takes an integer (a height, a level, a
    position, an order), as a call of that integer value, with every other
    argument one that the value 1 makes valid.  Vertex labels are not
    integers here: they are looked up in the index set."""
    a1 = preset("a1")
    qd = validate_height(a1, (1,))
    low = validate_height(a1, (0,))
    w0, star = adapted_word(qd), a1._star
    series = cartan_tilde(a1, 4)
    window = b_hl(qd, [RepetitionPoint(1, 1)])
    return {
        "validate_height": lambda v: validate_height(a1, (v,)),
        "delta_window": lambda v: delta_window(qd, v),
        "cartan_tilde": lambda v: cartan_tilde(a1, v),
        "extended_sequence": lambda v: extended_sequence(w0, star, v),
        "pk_sequence lo": lambda v: pk_sequence(qd, v, 2),
        "pk_sequence hi": lambda v: pk_sequence(qd, 0, v),
        "in_lattice": lambda v: qdatum.in_lattice(qd, RepetitionPoint(1, v)),
        "phi_map": lambda v: phi_map(qd, RepetitionPoint(1, v)),
        "phi_inverse": lambda v: phi_inverse(qd, (1,), v),
        "b_hl": lambda v: b_hl(qd, [RepetitionPoint(1, v)]),
        "BHLWindow.entry": lambda v: window.entry(RepetitionPoint(1, v), RepetitionPoint(1, 1)),
        "CartanSeries.entry": lambda v: series.entry(1, 1, v),
        "n_form": lambda v: n_form(series, RepetitionPoint(1, v), RepetitionPoint(1, 3)),
        "a_monomial": lambda v: a_monomial(low, 1, v),
    }


@pytest.mark.parametrize(
    "value", [1, True, numpy.int64(1), 1.0, "1"], ids=["int", "bool", "int64", "float", "str"]
)
def test_one_integer_rule_for_every_q_datum_entry_point(value):
    # operator.index decides: what it accepts is the integer 1 everywhere,
    # with the answer of 1; anything else is refused everywhere with a typed
    # error (in_lattice, a predicate, answers False)
    accepted = {}
    for name, call in _integer_entry_points().items():
        try:
            answer = call(value)
        except BraidseedError:
            accepted[name] = False
        else:
            accepted[name] = answer is not False
            assert not accepted[name] or answer == call(1), name
    expected = not isinstance(value, (float, str))
    assert accepted == dict.fromkeys(accepted, expected)


def test_a_monomial():
    qd = validate_height(preset("a2"), (1, 0))
    exps = a_monomial(qd, 1, 0)
    assert exps == {
        RepetitionPoint(1, -1): 1,
        RepetitionPoint(1, 1): 1,
        RepetitionPoint(2, 0): -1,
    }
    assert sum(exps.values()) == 2 - 1
    a1 = validate_height(preset("a1"), (0,))
    exps = a_monomial(a1, 1, 1)
    assert exps == {RepetitionPoint(1, 0): 1, RepetitionPoint(1, 2): 1}
    with pytest.raises(PointOutsideLattice):
        a_monomial(qd, 1, 1)
    with pytest.raises(PointOutsideLattice, match="level 0.0 is not an integer"):
        a_monomial(qd, 2, 1.0)


def test_w0_height_action():
    rng = random.Random(29)
    for name in ["a1", "a2", "a3"]:
        cd = preset(name)
        data = finite_type_data(cd)
        star = cd._star
        for _ in range(3):
            qd = validate_height(cd, sample_heights(rng, cd))
            running = qd
            for letter in adapted_word(qd).letters:
                running = source_reflect(running, letter)
            for i in cd.index_set:
                assert running.height(i) == qd.height(star[i]) - data.coxeter_number


# ---------------------------------------------------------------------------
# phi_map and phi_inverse against their reference definitions


def _all_heights(cd, b):
    out = []
    for xi in itertools.product(range(-b, b + 1), repeat=len(cd.index_set)):
        try:
            out.append(validate_height(cd, xi))
        except HeightParityViolation:
            continue
    return out


def _blocks(*matrices):
    n = sum(len(m) for m in matrices)
    out = [[0] * n for _ in range(n)]
    at = 0
    for m in matrices:
        for a, row in enumerate(m):
            out[at + a][at : at + len(row)] = row
        at += len(m)
    return out


def component_coxeter_numbers(cd):
    """vertex -> 2|R+_C|/|C|, C the connected component of the vertex:
    the positive roots of a reducible system are each supported on one
    component."""
    roots = finite_type_data(cd).positive_roots
    out = {}
    for t, i in enumerate(cd.index_set):
        component = {t}
        for _ in cd.index_set:  # closure over the edges
            component |= {u for s in component for u in range(cd.rank) if cd.matrix[s][u]}
        count = sum(1 for beta in roots if any(beta[s] for s in component))
        out[i] = 2 * count // len(component)
    return out


def largest_coxeter_number(cd):
    return max(component_coxeter_numbers(cd).values())


# name -> (context, b); every valid height with entries in [-b, b] is checked
ORACLE_CONTEXTS = {
    "a1": (preset("a1"), 3),
    "a2": (preset("a2"), 3),
    "a3": (preset("a3"), 3),
    "a4": (preset("a4"), 1),
    "d4": (preset("d4"), 1),
    # reducible, with no common Coxeter number: 2|R+|/|I| is 8/3 and 18/5
    "a1xa2": (validate_cartan(_blocks([[2]], preset("a2").matrix)), 1),
    "a2xa3": (validate_cartan(_blocks(preset("a2").matrix, preset("a3").matrix)), 1),
}
ORACLE_HEIGHTS = {
    name: _all_heights(cd, b) for name, (cd, b) in ORACLE_CONTEXTS.items()
}


def _adapted_pass(qd: QDatum) -> tuple:
    """One full source-extraction pass: every vertex exactly once.

    Extracted vertices are excluded even if reflection makes them
    sources again; a remaining source always exists because the running
    orientation stays acyclic.
    """
    order = []
    remaining = set(qd.cartan.index_set)
    running = qd
    while remaining:
        source = min(
            (i for i in remaining if running.is_source(i)),
            key=lambda i: qd.cartan.position[i],
        )
        order.append(source)
        remaining.remove(source)
        running = source_reflect(running, source)
    return tuple(order)


def injective_root(qd: QDatum, i):
    """Sum of simple roots over vertices with an oriented path into i."""
    cd = qd.cartan
    reached = {i}
    frontier = [i]
    while frontier:
        target = frontier.pop()
        for a, b in qd.arrows:
            if b == target and a not in reached:
                reached.add(a)
                frontier.append(a)
    total = [0] * len(cd.index_set)
    for j in reached:
        for t, v in enumerate(cd.simple_root(j)):
            total[t] += v
    return tuple(total)


def reflection_phi_map(qd, pt):
    """Reference phi_map: the base level of each vertex carries its
    injective root at winding zero, and each 2 levels up (down) applies
    (undoes) the simple reflections of one source-extraction pass one at a
    time; a negative image is negated and moves the winding by 1."""
    order = _adapted_pass(qd)
    steps = (pt.level - qd.height(pt.vertex)) // 2
    if steps < 0:
        order = tuple(reversed(order))
    root, level = injective_root(qd, pt.vertex), 0
    for _ in range(abs(steps)):
        moved = root
        for i in order:
            moved = reflect_root(qd.cartan, i, moved)
        if all(v >= 0 for v in moved):
            root = moved
        else:
            root = tuple(-v for v in moved)
            level += 1 if steps > 0 else -1
    return root, level


def search_phi_inverse(qd, root, level):
    """Reference phi_inverse, a bounded search: every level within
    2h(|level| + 2) of each height, vertex by vertex, lowest level first,
    h the largest Coxeter number of a component."""
    h = largest_coxeter_number(qd.cartan)
    bound = 2 * h * (abs(level) + 2)
    target = (tuple(root), level)
    for i in qd.cartan.index_set:
        base = qd.height(i)
        for p in range(base - bound, base + bound + 1, 2):
            pt = RepetitionPoint(i, p)
            if phi_map(qd, pt) == target:
                return pt
    raise PointOutsideLattice(f"no lattice point maps to {target}")


def outcome(f, *args):
    try:
        return f(*args)
    except PointOutsideLattice as err:
        return "PointOutsideLattice", str(err)


@pytest.mark.parametrize("name", sorted(ORACLE_CONTEXTS))
def test_phi_map_matches_reflection_steps(name):
    cd, _ = ORACLE_CONTEXTS[name]
    # a vertex's orbit has period at most h steps (2h levels), h the
    # largest Coxeter number of a component, so offsets out to 10h levels
    # cover five periods each way
    reach = 10 * largest_coxeter_number(cd)
    offsets = sorted(set(range(-12, 13, 2)) | set(range(-reach, reach + 1, 2)))
    for qd in ORACLE_HEIGHTS[name]:
        for i in cd.index_set:
            for offset in offsets:
                pt = RepetitionPoint(i, qd.height(i) + offset)
                assert phi_map(qd, pt) == reflection_phi_map(qd, pt)


@pytest.mark.parametrize("name", sorted(ORACLE_CONTEXTS))
def test_phi_inverse_matches_the_bounded_search(name):
    cd, _ = ORACLE_CONTEXTS[name]
    n = len(cd.index_set)
    roots = finite_type_data(cd).positive_roots
    # the zero vector and 2 alpha_1 are never images; the lowest and the
    # highest root at windings -3 and 3 lie farthest from the height
    targets = [((0,) * n, 0), ((2,) + (0,) * (n - 1), 0), ((2,) + (0,) * (n - 1), 1)]
    targets += [(beta, level) for beta in roots for level in (-1, 0, 1)]
    targets += [(beta, level) for beta in (roots[0], roots[-1]) for level in (-3, 3)]
    for qd in ORACLE_HEIGHTS[name]:
        for root, level in targets:
            assert outcome(phi_inverse, qd, root, level) == outcome(
                search_phi_inverse, qd, root, level
            )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_phi_inverse_undoes_phi_map_far_from_the_height(data):
    name = data.draw(st.sampled_from(sorted(ORACLE_CONTEXTS)))
    cd, _ = ORACLE_CONTEXTS[name]
    qd = data.draw(st.sampled_from(ORACLE_HEIGHTS[name]))
    i = data.draw(st.sampled_from(cd.index_set))
    h = largest_coxeter_number(cd)
    pt = RepetitionPoint(i, qd.height(i) + 2 * data.draw(st.integers(-5 * h, 5 * h)))
    root, level = phi_map(qd, pt)
    assert phi_inverse(qd, root, level) == pt


def test_phi_inverse_round_trips_beyond_the_global_coxeter_number():
    # A1^24 x A6: 2|R+|/|I| = 3 is below the A6 Coxeter number 7, so 40
    # steps down the last vertex the preimage lies beyond 2h(|level| + 2)
    # levels for h = 3; phi_inverse reads a position, with no such bound
    n = 30
    matrix = [[2 if a == b else -1 if a >= 24 and abs(a - b) == 1 and b >= 24 else 0
               for b in range(n)] for a in range(n)]
    qd = validate_height(validate_cartan(matrix), [0] * 24 + list(range(6)))
    near, far = RepetitionPoint(n, 5 - 60), RepetitionPoint(n, 5 - 80)
    assert phi_inverse(qd, *phi_map(qd, near)) == near
    root, level = phi_map(qd, far)
    assert (root, level) == (qd.cartan.simple_root(25), -10)
    assert phi_inverse(qd, root, level) == far


def test_phi_inverse_calls_no_phi_map_and_one_adapted_pass(monkeypatch):
    # the one adapted pass is the adapted_word behind the Q-datum's
    # extension index, which both maps read
    counts = {"phi_map": 0, "adapted_word": 0}
    for fname in counts:
        real = getattr(qdatum, fname)

        def counting(*args, _real=real, _name=fname):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qdatum, fname, counting)
    qd = validate_height(preset("d4"), (0, 1, 0, 2))
    pt = RepetitionPoint(4, 2 + 2 * 17)
    root, level = qdatum.phi_map(qd, pt)
    assert counts == {"phi_map": 1, "adapted_word": 1}
    assert phi_inverse(qd, root, level) == pt
    with pytest.raises(PointOutsideLattice):
        phi_inverse(qd, (0, 0, 0, 0), 2)
    assert counts == {"phi_map": 1, "adapted_word": 1}
    # on a fresh Q-datum phi_inverse alone builds the index once
    fresh = validate_height(preset("d4"), (0, 1, 0, 2))
    for shift in range(-20, 21):
        assert phi_inverse(fresh, root, level + shift) == RepetitionPoint(
            4, pt.level + 6 * shift
        )
    assert counts == {"phi_map": 1, "adapted_word": 2}


def test_phi_walks_count_against_the_budget(monkeypatch):
    # both maps read the extension index and walk nothing, so they answer
    # at any level even under a budget of 5
    far = RepetitionPoint(2, 300)
    monkeypatch.setenv("BRAIDSEED_BUDGET", "5")
    qd = validate_height(preset("a2"), (1, 0))
    root, level = phi_map(qd, far)
    assert (root, level) == ((1, 1), 100)
    assert phi_inverse(qd, root, level) == far
    assert phi_inverse(validate_height(preset("a2"), (1, 0)), root, level) == far


def test_phi_map_refuses_affine_orientations():
    # affine A3 has no longest word, so there is no extension to index
    cycle = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    qd = validate_height(validate_cartan(cycle), (0, 1, 0, 1))
    for pt in (RepetitionPoint(1, 0), RepetitionPoint(1, 10), RepetitionPoint(2, -7)):
        with pytest.raises(NotFiniteType):
            phi_map(qd, pt)
    with pytest.raises(NotFiniteType):
        phi_inverse(qd, (1, 0, 0, 0), 0)


# ---------------------------------------------------------------------------
# The extension index against the reflection replays and position walks it
# replaced


def replay_adapted_word(qd):
    """Reference adapted word: the level loop over (xi_{i*} - h, xi_i], h
    the Coxeter number of the component of i."""
    cd = qd.cartan
    data = finite_type_data(cd)
    h = component_coxeter_numbers(cd)
    points = []
    for i in cd.index_set:
        lower = qd.height(data.star[cd.position[i]]) - h[i]
        p = qd.height(i)
        while p > lower:
            points.append((-p, cd.position[i], i))
            p -= 2
    return Word(tuple(i for _, _, i in sorted(points)), WordKind.WEYL_REDUCED)


def sink_unreflect(qd, i):
    """Inverse reflection: raise the height of a sink vertex by 2."""
    cd = qd.cartan
    if not all(qd.height(j) > qd.height(i) for j in cd.index_set if cd.entry(i, j) == -1):
        raise NotASource(f"vertex {i} is not a sink, cannot unreflect")
    heights = list(qd.heights)
    heights[cd.position[i]] += 2
    return QDatum(cd, tuple(heights))


def replay_pk_sequence(qd, lo, hi):
    """Reference pk_sequence: source reflections replayed forward from
    position 1, sink unreflections backward from position 0."""
    w0 = replay_adapted_word(qd)
    star = qd.cartan._star
    points = {}
    running = qd
    for k in range(1, hi + 1):
        letter = extended_sequence(w0, star, k)
        points[k] = RepetitionPoint(letter, running.height(letter))
        running = source_reflect(running, letter)
    running = qd
    for k in range(0, lo - 1, -1):
        letter = extended_sequence(w0, star, k)
        running = sink_unreflect(running, letter)
        points[k] = RepetitionPoint(letter, running.height(letter))
    return [points[k] for k in range(lo, hi + 1)]


def walk_position_of_point(qd, pt):
    """Reference position: walk the extension forward from position 1 (a
    level at or below the height) or backward from 0, counting occurrences."""
    qdatum._require_point(qd, pt)
    w0 = replay_adapted_word(qd)
    star = qd.cartan._star
    base = qd.height(pt.vertex)
    if pt.level <= base:
        wanted, k, step = (base - pt.level) // 2, 0, 1
    else:
        wanted, k, step = (pt.level - base) // 2 - 1, 1, -1
    seen = 0
    while True:
        k += step
        if extended_sequence(w0, star, k) == pt.vertex:
            if seen == wanted:
                return k
            seen += 1


def walk_b_hl(qd, points):
    """Reference b_hl over walk_position_of_point."""
    if not points:
        return BHLWindow((), (), ())
    located = sorted(
        ((walk_position_of_point(qd, pt), pt) for pt in points), key=lambda t: t[0]
    )
    positions = tuple(k for k, _ in located)
    for a, b in zip(positions, positions[1:]):
        if b != a + 1:
            raise NonContiguousWindow(f"positions {positions} skip {a + 1}..{b - 1}")
    ordered = tuple(pt for _, pt in located)
    letters = tuple(pt.vertex for pt in ordered)
    matrix = gls_matrix(qd.cartan, Word(letters, WordKind.POSITIVE_BRAID))
    return BHLWindow(ordered, positions, matrix.entries)


def result(f, *args):
    try:
        return f(*args)
    except BraidseedError as err:
        return type(err).__name__, str(err)


EXTENSION_CONTEXTS = {
    "a1": preset("a1"),
    "a2": preset("a2"),
    "a3": preset("a3"),
    "a4": preset("a4"),
    "d4": preset("d4"),
    "a1xa1": preset("a1xa1"),
    "a1xa2": validate_cartan(_blocks([[2]], preset("a2").matrix)),
}


def draw_qdatum(data, cd):
    """A random valid height: each vertex one step from an earlier
    neighbour (every context above labels its components that way), or
    free when it has none."""
    heights = {}
    for i in cd.index_set:
        earlier = [j for j in heights if cd.entry(i, j) == -1]
        if earlier:
            heights[i] = heights[earlier[0]] + data.draw(st.sampled_from((-1, 1)))
        else:
            heights[i] = data.draw(st.integers(-4, 4))
    return validate_height(cd, [heights[i] for i in cd.index_set])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extension_index_matches_the_replays_and_walks(data):
    cd = EXTENSION_CONTEXTS[data.draw(st.sampled_from(sorted(EXTENSION_CONTEXTS)))]
    qd = draw_qdatum(data, cd)
    length = len(finite_type_data(cd).positive_roots)
    assert adapted_word(qd) == replay_adapted_word(qd)
    lo, hi = -3 * length, 3 * length
    points = pk_sequence(qd, lo, hi)
    assert points == replay_pk_sequence(qd, lo, hi)
    for k, pt in enumerate(points, start=lo):
        assert qdatum._position_of_point(qd, pt) == walk_position_of_point(qd, pt) == k
    # any point: off the lattice, outside the index set, or far away
    vertex = data.draw(st.sampled_from(cd.index_set + (0,)))
    pt = RepetitionPoint(vertex, data.draw(st.integers(-8 * length, 8 * length)))
    assert result(qdatum._position_of_point, qd, pt) == result(
        walk_position_of_point, qd, pt
    )
    # a shuffled window beyond 4l, sometimes with a gap
    start = data.draw(st.integers(4 * length + 1, 6 * length))
    size = data.draw(st.integers(1, length + 2))
    window = pk_sequence(qd, start, start + size - 1)
    if size > 2 and data.draw(st.booleans()):
        del window[data.draw(st.integers(1, size - 2))]
    window = data.draw(st.permutations(window))
    assert result(b_hl, qd, window) == result(walk_b_hl, qd, window)


def test_extension_index_refuses_like_the_replays_without_a_coxeter_number():
    # A1 x A2: 2|R+|/|I| = 8/3 is no Coxeter number, but each component
    # has its own (2 and 3), so the index and the replays agree
    qd = validate_height(validate_cartan(_blocks([[2]], preset("a2").matrix)), (0, 0, 1))
    pt = RepetitionPoint(2, 0)
    assert pk_sequence(qd, -8, 8) == replay_pk_sequence(qd, -8, 8)
    assert qdatum._position_of_point(qd, pt) == walk_position_of_point(qd, pt)
    window = pk_sequence(qd, 3, 6)
    assert b_hl(qd, window) == walk_b_hl(qd, window)
    assert b_hl(qd, [pt]) == walk_b_hl(qd, [pt])


@pytest.mark.parametrize(
    "matrix,heights",
    [
        # 2|R+|/|I| = 3 is no component's Coxeter number (A1: 2, A3: 4):
        # with it the windows would hold 12 letters for 9 roots
        (_blocks([[2]], [[2]], [[2]], preset("a3").matrix), (0, 0, 0, 0, 1, 2)),
        # 2|R+|/|I| = 4 again differs from every component's (A1: 2, D4: 6)
        (_blocks(preset("d4").matrix, [[2]], [[2]], [[2]], [[2]]), (0, 1, 0, 0, 0, 0, 0, 0)),
        # A1^24 x A6: 2|R+|/|I| = 3
        (_blocks(*[[[2]]] * 24, preset("a6").matrix), (0,) * 24 + (0, 1, 2, 3, 4, 5)),
    ],
    ids=["a1^3xa3", "d4xa1^4", "a1^24xa6"],
)
def test_windows_need_h_to_be_every_components_coxeter_number(matrix, heights):
    # each vertex's windows step by its own component's Coxeter number, so
    # no common h is needed and every route answers
    qd = validate_height(validate_cartan(matrix), heights)
    cd = qd.cartan
    count = len(finite_type_data(cd).positive_roots)
    word = adapted_word(qd)
    assert word == replay_adapted_word(qd)
    assert word.length == count and roots_of_word(cd, word.letters).all_positive
    for k in (-1, 0, 1):
        assert len(delta_window(qd, k)) == count
    assert set(pk_sequence(qd, 1, count)) == delta_window(qd, 0)
    pt = RepetitionPoint(1, heights[0])
    assert b_hl(qd, [pt]) == walk_b_hl(qd, [pt])
    for i in cd.index_set:
        far = RepetitionPoint(i, qd.height(i) - 6)
        assert phi_inverse(qd, *phi_map(qd, far)) == far


def test_extension_index_makes_one_adapted_word_and_no_other_reflection(monkeypatch):
    counts = {"adapted_word": 0, "source_reflect outside adapted_word": 0}
    inside = []
    real_adapted_word, real_source_reflect = qdatum.adapted_word, qdatum.source_reflect

    def counting_adapted_word(qd):
        counts["adapted_word"] += 1
        inside.append(True)
        try:
            return real_adapted_word(qd)
        finally:
            inside.pop()

    def counting_source_reflect(qd, i):
        if not inside:
            counts["source_reflect outside adapted_word"] += 1
        return real_source_reflect(qd, i)

    monkeypatch.setattr(qdatum, "adapted_word", counting_adapted_word)
    monkeypatch.setattr(qdatum, "source_reflect", counting_source_reflect)
    qd = validate_height(preset("d4"), (0, 1, 0, 2))
    length = 12
    points = qdatum.pk_sequence(qd, -3 * length, 3 * length)
    for k, pt in enumerate(points, start=-3 * length):
        assert qdatum._position_of_point(qd, pt) == k
    window = qdatum.b_hl(qd, qdatum.pk_sequence(qd, 4 * length + 1, 5 * length))
    assert window.positions == tuple(range(4 * length + 1, 5 * length + 1))
    assert counts == {"adapted_word": 1, "source_reflect outside adapted_word": 0}


# ---------------------------------------------------------------------------
# The diagram's facts belong to the CartanData


FACT_CONTEXTS = {
    **{f"a{n}": preset(f"a{n}") for n in range(1, 6)},
    "d4": preset("d4"),
    "d5": preset("d5"),
    "e6": preset("e6"),
    # labels that are not positions, on a reducible diagram
    "a2xa3": validate_cartan(_blocks(preset("a2").matrix, preset("a3").matrix), index_set="abcde"),
}


@pytest.mark.parametrize("name", sorted(FACT_CONTEXTS))
def test_the_diagram_facts_equal_their_definitions(name):
    cd = FACT_CONTEXTS[name]
    labels = cd.index_set
    assert cd._neighbours == {
        i: tuple(j for j in labels if cd.entry(i, j) == -1) for i in labels
    }
    assert cd._star == dict(zip(labels, finite_type_data(cd).star))
    w0 = finite_type_data(cd).longest_word
    for i in labels:
        # w0(alpha_i) = -alpha_{i*}, and * is an involution
        image = weyl_act(cd, w0, cd.simple_root(i))
        assert image == tuple(-v for v in cd.simple_root(cd._star[i]))
        assert cd._star[cd._star[i]] == i
    assert cd._periods == component_coxeter_numbers(cd)


def test_height_queries_derive_each_diagram_fact_once(monkeypatch):
    # many heights on one CartanData: each fact is derived once, on the
    # CartanData, and no datum or series keeps a copy
    cd = preset("a4")
    counts = {"_neighbours": 0, "_star": 0, "_periods": 0}
    for name in counts:
        fact = vars(CartanData)[name]

        def counting(self, real=fact.func, name=name):
            counts[name] += 1
            return real(self)

        monkeypatch.setattr(fact, "func", counting)
    data = _all_heights(cd, 2)
    assert len(data) == 24
    for qd in data:
        top = max(cd.index_set, key=qd.height)
        assert qd.arrows and qd.is_source(top)
        assert adapted_word(qd) == replay_adapted_word(qd)
        source_reflect(qd, top)
        for pt in delta_window(qd, 1):
            assert phi_inverse(qd, *phi_map(qd, pt)) == pt
            a_monomial(qd, pt.vertex, pt.level + 1)
    series = cartan_tilde(cd, 6)
    n_form(series, RepetitionPoint(1, 0), RepetitionPoint(2, 3))
    assert counts == {"_neighbours": 1, "_star": 1, "_periods": 1}
    allowed = {f.name for f in fields(QDatum)} | {"_adapted_word", "_extension"}
    assert all(set(vars(qd)) <= allowed for qd in data)
    assert {
        name for name, value in vars(QDatum).items() if isinstance(value, cached_property)
    } == {"_adapted_word", "_extension"}


def _vertex_entry_points():
    """Each Q-datum query that takes a vertex on its own, not inside a
    point of the lattice, as a call of that vertex, with every other
    argument one that the vertex 1 makes valid."""
    a2 = preset("a2")
    qd = validate_height(a2, (1, 0))
    series = cartan_tilde(a2, 4)
    return {
        "QDatum.is_source": lambda v: qd.is_source(v),
        "source_reflect": lambda v: source_reflect(qd, v),
        "CartanSeries.entry": lambda v: series.entry(v, 1, 2),
        "CartanSeries.entry at u <= 0": lambda v: series.entry(1, v, 0),
        "CartanSeries.entry beyond u_max": lambda v: series.entry(v, 2, 9),
        "n_form": lambda v: n_form(series, RepetitionPoint(v, 0), RepetitionPoint(2, 1)),
        "n_form beyond u_max": lambda v: n_form(
            series, RepetitionPoint(1, 0), RepetitionPoint(v, 20)
        ),
    }


@pytest.mark.parametrize("name", sorted(_vertex_entry_points()))
def test_a_vertex_outside_the_index_set_is_refused_naming_it(name):
    call = _vertex_entry_points()[name]
    try:
        call(1)
    except SeriesOrderInsufficient:
        pass  # the vertex 1 is read; only the order is out of reach
    for vertex in (9, 0, "1"):
        with pytest.raises(
            PointOutsideLattice,
            match=rf"^vertex {re.escape(repr(vertex))} is not in the index set$",
        ):
            call(vertex)
