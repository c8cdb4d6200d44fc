"""Piecewise-linear transition maps, the bi-lex order, and i-box transport.

Value checks are hand-computed; structural oracles are the involution of
every move, reversal conjugation between the two quadruple-window maps,
and weight preservation for swap/triple windows on reduced words.
"""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed.cartan import finite_type_data, preset, roots_of_word
from braidseed.errors import (
    CaseNotTabulated,
    IncomparableLeadingTerms,
    InvalidBox,
    LengthMismatch,
    MoveNotApplicable,
    NegativeEntry,
    UnsupportedCartanPair,
)
from braidseed.transitions import (
    CONVENTIONS,
    _check_convention,
    _window_image,
    OrderVerdict,
    bilex_compare,
    par_mutation,
    par_product,
    transition_along_path,
    transition_along_path_many,
    transition_apply,
    transition_apply_many,
    verify_ibox_transition,
)
from braidseed.words import (
    IBox,
    Move,
    MoveKind,
    Word,
    WordKind,
    _move_window,
    apply_move,
    enumerate_moves,
    find_move_path,
    make_ibox,
)

BRAID = WordKind.POSITIVE_BRAID


def weight(cd, w, vec):
    roots = roots_of_word(cd, w.letters).roots
    n = len(cd.index_set)
    total = [0] * n
    for a, beta in zip(vec, roots):
        for t in range(n):
            total[t] += a * beta[t]
    return tuple(total)


def test_bilex_examples():
    assert bilex_compare((1, 0, 0), (0, 0, 1)) is OrderVerdict.INCOMPARABLE
    assert bilex_compare((0, 1, 0), (1, 0, 1)) is OrderVerdict.LESS
    assert bilex_compare((1, 0, 1), (0, 1, 0)) is OrderVerdict.GREATER
    assert bilex_compare((2, 1), (2, 1)) is OrderVerdict.EQUAL
    assert bilex_compare((0, 1, 1), (1, 1, 0)) is OrderVerdict.INCOMPARABLE
    with pytest.raises(LengthMismatch):
        bilex_compare((1, 0), (1, 0, 0))


def test_bilex_antisymmetry():
    rng = random.Random(7)
    flip = {
        OrderVerdict.LESS: OrderVerdict.GREATER,
        OrderVerdict.GREATER: OrderVerdict.LESS,
        OrderVerdict.EQUAL: OrderVerdict.EQUAL,
        OrderVerdict.INCOMPARABLE: OrderVerdict.INCOMPARABLE,
    }
    for _ in range(200):
        n = rng.randrange(1, 6)
        a = tuple(rng.randrange(0, 3) for _ in range(n))
        b = tuple(rng.randrange(0, 3) for _ in range(n))
        assert bilex_compare(b, a) is flip[bilex_compare(a, b)]
        assert bilex_compare(a, a) is OrderVerdict.EQUAL


def test_transition_swap_window():
    cd = preset("a1xa1")
    w = Word((1, 2))
    m = Move(MoveKind.TWO, 1)
    assert transition_apply(cd, w, m, (3, 5)) == (5, 3)
    assert transition_apply(cd, apply_move(w, m), m, (5, 3)) == (3, 5)


def test_transition_triple_window_values():
    cd = preset("a2")
    w = Word((1, 2, 1))
    m = Move(MoveKind.THREE, 1)
    assert transition_apply(cd, w, m, (1, 0, 1)) == (0, 1, 0)
    assert transition_apply(cd, apply_move(w, m), m, (0, 1, 0)) == (1, 0, 1)
    assert transition_apply(cd, w, m, (0, 0, 0)) == (0, 0, 0)
    assert transition_apply(cd, w, m, (1, 1, 1)) == (1, 1, 1)
    assert transition_apply(cd, w, m, (0, 0, 1)) == (1, 0, 0)
    assert transition_apply(cd, w, m, (2, 1, 0)) == (1, 0, 3)


def test_transition_quadruple_window_values():
    cd = preset("b2")
    w = Word((1, 2, 1, 2))
    m = Move(MoveKind.FOUR, 1)
    assert transition_apply(cd, w, m, (0, 0, 1, 0)) == (1, 0, 0, 1)
    assert transition_apply(cd, w, m, (0, 0, 0, 1)) == (1, 0, 0, 0)
    assert transition_apply(cd, w, m, (0, 0, 0, 0)) == (0, 0, 0, 0)
    wr = Word((2, 1, 2, 1))
    assert transition_apply(cd, wr, m, (0, 1, 0, 0)) == (1, 0, 0, 1)
    back = transition_apply(cd, apply_move(w, m), m, (1, 0, 0, 1))
    assert back == (0, 0, 1, 0)


def test_transition_rejects_bad_windows():
    cd = preset("a2")
    with pytest.raises(MoveNotApplicable):
        transition_apply(cd, Word((1, 2)), Move(MoveKind.THREE, 1), (0, 0))
    with pytest.raises(MoveNotApplicable):
        transition_apply(cd, Word((1, 2, 1)), Move(MoveKind.TWO, 1), (0, 0, 0))
    with pytest.raises(MoveNotApplicable):
        transition_apply(
            cd, Word((1, 2, 1), BRAID), Move(MoveKind.FOUR, 1), (0, 0, 0)
        )
    g2 = preset("g2")
    with pytest.raises(UnsupportedCartanPair):
        transition_apply(
            g2, Word((1, 2, 1, 2), BRAID), Move(MoveKind.FOUR, 1), (0, 0, 0, 0)
        )
    with pytest.raises(LengthMismatch):
        transition_apply(cd, Word((1, 2, 1)), Move(MoveKind.THREE, 1), (0, 0))


@pytest.mark.parametrize(
    "letters, move", [((1, 9), Move(MoveKind.TWO, 1)), ((2, 9, 2), Move(MoveKind.THREE, 1))]
)
def test_a_window_letter_outside_the_index_set_is_refused(letters, move):
    # before, formatting the kind-mismatch message raised a raw KeyError
    cd, w = preset("a2"), Word(letters, BRAID)
    zeros = (0,) * len(letters)
    calls = [
        lambda: transition_apply(cd, w, move, zeros),
        lambda: transition_apply_many(cd, w, move, np.zeros((1, len(letters)), dtype=np.int64)),
        lambda: transition_along_path_many(cd, w, (move,), [zeros]),
        lambda: verify_ibox_transition(cd, w, move, IBox(1, 1)),
    ]
    for call in calls:
        with pytest.raises(InvalidBox, match="letter 9 not in the index set"):
            call()


def test_transition_involution_exhaustive():
    cases = [
        ("a1xa1", (1, 2), Move(MoveKind.TWO, 1), 4),
        ("a2", (1, 2, 1), Move(MoveKind.THREE, 1), 4),
        ("a2", (2, 1, 2, 1), Move(MoveKind.THREE, 2), 3),
        ("b2", (1, 2, 1, 2), Move(MoveKind.FOUR, 1), 4),
        ("b2", (2, 1, 2, 1), Move(MoveKind.FOUR, 1), 4),
        ("b2", (1, 1, 2, 1, 2), Move(MoveKind.FOUR, 2), 3),
        ("a3", (1, 3, 2, 1, 3), Move(MoveKind.TWO, 1), 3),
        ("a3", (1, 3, 2, 1, 3), Move(MoveKind.TWO, 4), 3),
    ]
    for name, letters, move, bound in cases:
        cd = preset(name)
        w = Word(letters, BRAID)
        wp = apply_move(w, move)
        for vec in itertools.product(range(bound), repeat=len(letters)):
            there = transition_apply(cd, w, move, vec)
            assert all(v >= 0 for v in there)
            assert transition_apply(cd, wp, move, there) == vec


def test_transition_reversal_conjugation():
    # Reversing the word and the vector swaps the two quadruple-window maps.
    cd = preset("b2")
    w = Word((1, 2, 1, 2))
    wr = Word((2, 1, 2, 1))
    m = Move(MoveKind.FOUR, 1)
    for vec in itertools.product(range(4), repeat=4):
        image = transition_apply(cd, w, m, vec)
        mirrored = transition_apply(cd, wr, m, vec[::-1])
        assert image[::-1] == mirrored


def test_transition_preserves_weight_on_swap_and_triple():
    rng = random.Random(21)
    cases = [
        ("a1xa1", (1, 2)),
        ("a2", (1, 2, 1)),
        ("a3", (1, 3, 2, 1, 3, 2)),
        ("a3", (1, 2, 1, 3, 2, 1)),
        ("b3", (2, 1, 2, 3, 2)),
    ]
    for name, letters in cases:
        cd = preset(name)
        w = Word(letters)
        assert roots_of_word(cd, letters).all_positive
        for move in enumerate_moves(cd, w).moves:
            if move.kind is MoveKind.FOUR:
                continue
            wp = apply_move(w, move)
            for _ in range(25):
                vec = tuple(rng.randrange(0, 4) for _ in letters)
                image = transition_apply(cd, w, move, vec)
                assert weight(cd, w, vec) == weight(cd, wp, image)


def test_transition_many_matches_scalar():
    rng = random.Random(5)
    cases = [
        ("a1xa1", (1, 2), Move(MoveKind.TWO, 1)),
        ("a2", (1, 2, 1), Move(MoveKind.THREE, 1)),
        ("b2", (1, 2, 1, 2), Move(MoveKind.FOUR, 1)),
        ("b2", (2, 1, 2, 1), Move(MoveKind.FOUR, 1)),
    ]
    for name, letters, move in cases:
        cd = preset(name)
        w = Word(letters, BRAID)
        rows = [
            tuple(rng.randrange(0, 5) for _ in letters) for _ in range(40)
        ]
        batch = transition_apply_many(cd, w, move, np.array(rows, dtype=np.int64))
        for row, out in zip(rows, batch):
            assert tuple(int(v) for v in out) == transition_apply(cd, w, move, row)
    with pytest.raises(LengthMismatch):
        transition_apply_many(
            preset("a2"),
            Word((1, 2, 1)),
            Move(MoveKind.THREE, 1),
            np.zeros((2, 4), dtype=np.int64),
        )


def test_transition_along_path_round_trip():
    cd = preset("a2")
    w = Word((1, 2, 1))
    path = find_move_path(cd, w, Word((2, 1, 2)))
    assert len(path) == 1
    rng = random.Random(3)
    for _ in range(20):
        vec = tuple(rng.randrange(0, 5) for _ in range(3))
        there = transition_along_path(cd, w, path, vec)
        back = transition_along_path(cd, Word((2, 1, 2)), list(reversed(path)), there)
        assert back == vec

    cd3 = preset("a3")
    start = Word((1, 2, 1, 3, 2, 1))
    goal = Word((3, 2, 3, 1, 2, 3))
    path = find_move_path(cd3, start, goal)
    assert len(path) >= 2
    for _ in range(20):
        vec = tuple(rng.randrange(0, 4) for _ in range(6))
        there = transition_along_path(cd3, start, path, vec)
        back = transition_along_path(cd3, goal, list(reversed(path)), there)
        assert back == vec


def test_par_product_and_mutation():
    assert par_product((1, 0, 2), (0, 3, 1)) == (1, 3, 3)
    with pytest.raises(LengthMismatch):
        par_product((1, 0), (1, 0, 0))

    assert par_mutation((0, 0, 1), (0, 1, 0), (1, 0, 1)) == (1, 0, 0)
    assert par_mutation((1, 0), (2, 1), (2, 1)) == (1, 1)
    with pytest.raises(IncomparableLeadingTerms):
        par_mutation((0, 0, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(NegativeEntry):
        par_mutation((2, 0, 0), (1, 0, 0), (1, 0, 0))


def check_report(cd, w, move, box, rule, expected):
    report = verify_ibox_transition(cd, w, move, box)
    assert report.rule == rule
    assert report.expected == expected
    assert report.actual == expected
    assert report.match


def test_ibox_transport_swap_window():
    cd = preset("a1xa1")
    w = Word((1, 2))
    m = Move(MoveKind.TWO, 1)
    check_report(cd, w, m, IBox(1, 1), "a=k,b=k", (0, 1))
    check_report(cd, w, m, IBox(2, 2), "a=k+1,b=k+1", (1, 0))

    cd3 = preset("a3")
    w3 = Word((1, 3, 2))
    check_report(cd3, w3, Move(MoveKind.TWO, 1), IBox(3, 3), "generic", (0, 0, 1))
    check_report(cd3, w3, Move(MoveKind.TWO, 1), make_ibox(3, 2), "empty", (0, 0, 0))


def test_ibox_transport_triple_window():
    cd = preset("a2")
    w = Word((1, 2, 1, 2, 1), BRAID)
    m = Move(MoveKind.THREE, 2)
    check_report(cd, w, m, IBox(1, 1), "generic", (1, 0, 0, 0, 0))
    check_report(cd, w, m, IBox(1, 3), "b=k", (1, 1, 0, 1, 0))
    check_report(cd, w, m, IBox(1, 5), "generic", (1, 1, 0, 1, 1))
    check_report(cd, w, m, IBox(2, 2), "b=k-1", (0, 0, 0, 1, 0))
    check_report(cd, w, m, IBox(3, 3), "a=k,b=k", (0, 1, 0, 1, 0))
    check_report(cd, w, m, IBox(3, 5), "a=k", (0, 1, 0, 1, 1))
    check_report(cd, w, m, IBox(4, 4), "a=k+1", (0, 1, 0, 0, 0))
    check_report(cd, w, m, IBox(2, 4), "a=k-1,b=k+1", (0, 0, 1, 0, 0))
    check_report(cd, w, Move(MoveKind.THREE, 3), IBox(1, 5), "b=k+1", (1, 0, 0, 1, 0))


def test_ibox_transport_quadruple_window():
    cd = preset("b2")
    w = Word((1, 2, 1, 2, 1, 2), BRAID)
    m = Move(MoveKind.FOUR, 1)
    check_report(cd, w, m, IBox(1, 5), "a=k", (0, 1, 0, 1, 1, 0))
    check_report(cd, w, m, IBox(2, 6), "a=k+1", (1, 0, 1, 0, 0, 1))
    check_report(cd, w, m, IBox(3, 5), "a=k+2", (1, 0, 0, 1, 1, 0))
    check_report(cd, w, m, IBox(4, 6), "a=k+3", (1, 0, 0, 0, 0, 1))
    check_report(cd, w, m, IBox(5, 5), "generic", (0, 0, 0, 0, 1, 0))
    with pytest.raises(CaseNotTabulated):
        verify_ibox_transition(cd, w, m, IBox(1, 3))
    with pytest.raises(CaseNotTabulated):
        verify_ibox_transition(cd, w, m, IBox(2, 4))
    wr = Word((2, 1, 2, 1, 2, 1), BRAID)
    with pytest.raises(CaseNotTabulated):
        verify_ibox_transition(cd, wr, m, IBox(5, 5))


def test_ibox_transport_randomized_triple():
    # Every triple-window transport row agrees with the transition map on
    # longer words as well.
    cd = preset("a3")
    w = Word((2, 1, 2, 1, 3, 2, 1), BRAID)
    moves = [m for m in enumerate_moves(cd, w).moves if m.kind is MoveKind.THREE]
    assert moves
    for m in moves:
        for lo in range(1, w.length + 1):
            for hi in range(lo, w.length + 1):
                if w.letters[lo - 1] != w.letters[hi - 1]:
                    continue
                report = verify_ibox_transition(cd, w, m, IBox(lo, hi))
                assert report.match


def test_transition_convention_agrees_off_quadruple():
    cd = preset("b2")
    rng = random.Random(11)
    cases = [
        (Word((1, 2), WordKind.WEYL_REDUCED), Move(MoveKind.TWO, 1)),
        (Word((1, 2, 1), WordKind.WEYL_REDUCED), Move(MoveKind.THREE, 1)),
    ]
    cda = preset("a1xa1")
    cd3 = preset("a2")
    for cdx, w, m in [
        (cda, *cases[0]),
        (cd3, *cases[1]),
    ]:
        for _ in range(20):
            vec = tuple(rng.randrange(4) for _ in range(w.length))
            assert transition_apply(cdx, w, m, vec, "tabulated") == transition_apply(
                cdx, w, m, vec, "weighted"
            )
    with pytest.raises(ValueError):
        transition_apply(cd, Word((1, 2, 1, 2), WordKind.WEYL_REDUCED),
                         Move(MoveKind.FOUR, 1), (0, 0, 0, 0), "other")


@pytest.mark.parametrize(
    "cartan,letters,move",
    [
        ("a1xa1", (1, 2), Move(MoveKind.TWO, 1)),
        ("a2", (1, 2, 1), Move(MoveKind.THREE, 1)),
        ("b2", (1, 2, 1, 2), Move(MoveKind.FOUR, 1)),
    ],
)
def test_unknown_convention_is_refused_on_every_window(cartan, letters, move):
    # the convention is checked before the window is read, so a 2- or
    # 3-move window refuses "bogus" exactly as a 4-move window does
    cd = preset(cartan)
    w = Word(letters, WordKind.POSITIVE_BRAID)
    vec = tuple(range(1, len(letters) + 1))
    with pytest.raises(ValueError, match="unknown transition convention 'bogus'"):
        transition_apply(cd, w, move, vec, "bogus")
    assert transition_apply_many(
        cd, w, move, np.array([vec], dtype=np.int64)
    ).tolist() == [list(transition_apply(cd, w, move, vec))]


def test_transition_weighted_preserves_weight_on_quadruple():
    # The weighted convention keeps sum(a_s * beta_s) fixed across a
    # quadruple window in both Cartan orientations; the tabulated one
    # does not (witness vector included).
    cd = preset("b2")
    m = Move(MoveKind.FOUR, 1)
    for letters in [(1, 2, 1, 2), (2, 1, 2, 1)]:
        w = Word(letters, WordKind.WEYL_REDUCED)
        wp = apply_move(w, m)
        for vec in itertools.product(range(3), repeat=4):
            out = transition_apply(cd, w, m, vec, "weighted")
            assert weight(cd, wp, out) == weight(cd, w, vec)
    w = Word((1, 2, 1, 2), WordKind.WEYL_REDUCED)
    wp = apply_move(w, m)
    witness = (0, 0, 1, 0)
    tab = transition_apply(cd, w, m, witness, "tabulated")
    assert tab == (1, 0, 0, 1)
    assert weight(cd, wp, tab) != weight(cd, w, witness)
    assert transition_apply(cd, w, m, witness, "weighted") == (2, 0, 0, 1)


def test_transition_weighted_round_trip():
    cd = preset("b2")
    m = Move(MoveKind.FOUR, 1)
    for letters in [(1, 2, 1, 2), (2, 1, 2, 1)]:
        w = Word(letters, WordKind.WEYL_REDUCED)
        wp = apply_move(w, m)
        for vec in itertools.product(range(3), repeat=4):
            out = transition_apply(cd, w, m, vec, "weighted")
            back = transition_apply(cd, wp, m, out, "weighted")
            assert back == vec


def braid_words(names):
    """(preset name, positive-braid word of length 1..8) over the presets."""
    return st.sampled_from(names).flatmap(
        lambda name: st.lists(
            st.sampled_from(preset(name).index_set), min_size=1, max_size=8
        ).map(lambda letters: (name, Word(tuple(letters), BRAID)))
    )


@settings(max_examples=150, deadline=None)
@given(braid_words(["a2", "b2", "a3", "b3", "c3"]), st.data())
def test_scalar_and_batch_transitions_agree(named_word, data):
    name, w = named_word
    cd = preset(name)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=w.length, max_size=w.length),
            min_size=1,
            max_size=5,
        )
    )
    for m in enumerate_moves(cd, w).moves:
        batch = transition_apply_many(cd, w, m, np.array(rows, dtype=np.int64))
        for row, out in zip(rows, batch):
            assert tuple(int(v) for v in out) == transition_apply(cd, w, m, row)


@settings(max_examples=150, deadline=None)
@given(braid_words(["a2", "b2", "a3", "b3", "g2"]))
def test_transitions_accept_exactly_the_enumerated_moves(named_word):
    name, w = named_word
    cd = preset(name)
    listed = set(enumerate_moves(cd, w).moves)
    zero = (0,) * w.length
    for kind in MoveKind:
        for position in range(0, w.length + 2):
            m = Move(kind, position)
            try:
                transition_apply(cd, w, m, zero)
            except (MoveNotApplicable, UnsupportedCartanPair):
                assert m not in listed
                continue
            assert m in listed
            k = position - 1
            i, j = w.letters[k], w.letters[k + 1]
            rewrite = tuple(i if t % 2 else j for t in range(kind.window))
            assert apply_move(w, m).letters == (
                w.letters[:k] + rewrite + w.letters[k + len(rewrite) :]
            )


def window_transition_apply(cd, w, m, a, convention="tabulated"):
    """transition_apply as it rewrote its one window before it became the
    one-move case of transition_along_path_many."""
    _check_convention(convention)
    if len(a) != w.length:
        raise LengthMismatch(f"vector length {len(a)} != word length {w.length}")
    i, j, k = _move_window(w, m, cd)
    end = k - 1 + m.kind.window
    image = _window_image(cd, m, i, j, a[k - 1 : end], convention, min)
    return (*a[: k - 1], *image, *a[end:])


@settings(max_examples=200, deadline=None)
@given(braid_words(["a2", "b2", "c2", "g2", "a3", "b3", "c3"]), st.data())
def test_transition_apply_is_the_one_window_rewrite(named_word, data):
    name, w = named_word
    cd = preset(name)
    vec = data.draw(
        st.lists(st.integers(-3, 6), min_size=w.length - 1, max_size=w.length + 1)
    )
    convention = data.draw(st.sampled_from(CONVENTIONS + ("bogus",)))
    for kind in MoveKind:
        for position in range(0, w.length + 2):
            args = (cd, w, Move(kind, position), tuple(vec), convention)
            try:
                expected = window_transition_apply(*args)
            except Exception as err:  # compared by type and message
                with pytest.raises(type(err)) as info:
                    transition_apply(*args)
                assert str(info.value) == str(err)
                continue
            assert transition_apply(*args) == expected


def fold_transition_apply(cd, w, path, a, convention):
    for move in path:
        a = window_transition_apply(cd, w, move, a, convention)
        w = apply_move(w, move)
    return a


def _outcome(f, *args):
    """The value of f(*args), or the type of what it raised."""
    try:
        return f(*args)
    except Exception as err:  # compared by type
        return type(err)


@settings(max_examples=150, deadline=None)
@given(braid_words(["a2", "b2", "a3", "b3", "c3"]), st.data())
def test_one_walk_equals_one_fold_per_vector(named_word, data):
    name, w = named_word
    cd = preset(name)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    path, current = [], w
    for _ in range(rng.randint(0, 12)):
        moves = enumerate_moves(cd, current).moves
        if not moves:
            break
        path.append(rng.choice(moves))
        current = apply_move(current, path[-1])
    if path and rng.random() < 0.3:
        # a move that does not apply where it stands in the path
        path.insert(rng.randrange(len(path) + 1), Move(rng.choice(list(MoveKind)), 1))
    vectors = data.draw(
        st.lists(
            st.lists(st.integers(-3, 6), min_size=w.length, max_size=w.length),
            min_size=1,
            max_size=5,
        )
    )
    if path and rng.random() < 0.3:
        vectors[rng.randrange(len(vectors))].append(0)
    for convention in CONVENTIONS:
        scalar = [
            _outcome(transition_along_path, cd, w, path, v, convention) for v in vectors
        ]
        assert scalar == [
            _outcome(fold_transition_apply, cd, w, path, tuple(v), convention)
            for v in vectors
        ]
        errors = [e for e in scalar if isinstance(e, type)]
        many = _outcome(transition_along_path_many, cd, w, path, vectors, convention)
        if errors:
            assert many in errors
        else:
            assert many == tuple(scalar)


def test_one_walk_refuses_a_wrong_length_on_the_empty_path():
    w = Word((1, 2, 1))
    with pytest.raises(LengthMismatch):
        transition_along_path_many(preset("a2"), w, (), [(0, 0, 0), (0, 0)])
    assert transition_along_path_many(preset("a2"), w, (), [(1, 2, 3)]) == ((1, 2, 3),)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["a2", "b2", "a3"]), st.data())
def test_batch_transitions_stay_exact_near_the_int64_limit(name, data):
    cd = preset(name)
    letters = {"a2": (1, 2, 1), "b2": (1, 2, 1, 2), "a3": (1, 2, 1, 3, 2, 1)}[name]
    w = Word(letters, BRAID)
    big = st.integers(2**62 - 2**20, 2**62)
    entry = st.one_of(big, big.map(lambda v: -v), st.integers(-5, 5))
    rows = data.draw(
        st.lists(
            st.lists(entry, min_size=w.length, max_size=w.length),
            min_size=1,
            max_size=4,
        )
    )
    for m in enumerate_moves(cd, w).moves:
        batch = transition_apply_many(cd, w, m, np.array(rows, dtype=np.int64))
        assert [list(map(int, out)) for out in batch] == [
            list(transition_apply(cd, w, m, row)) for row in rows
        ]


def test_batch_transition_of_the_a2_overflow_witnesses():
    cd = preset("a2")
    w = Word((1, 2, 1))
    arr = np.array([(2**62, 2**62, 0), (-(2**63), 0, 5)], dtype=np.int64)
    out = transition_apply_many(cd, w, Move(MoveKind.THREE, 1), arr)
    assert out.tolist() == [[2**62, 0, 2**63], [2**63 + 5, -(2**63), 0]]
    empty = np.zeros((0, 3), dtype=np.int64)
    assert transition_apply_many(cd, w, Move(MoveKind.THREE, 1), empty).shape == (0, 3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["a4", "b4", "d4"]), st.data())
def test_transport_is_invertible_and_path_independent(name, data):
    # the paper's invariance beyond the exhaustive caps: a random reduced
    # word of at least half the length of w0, a random walk of moves from
    # it, and the move-graph search's path between the same two words
    cd = preset(name)
    longest = len(finite_type_data(cd).longest_word)
    letters = ()
    for _ in range(data.draw(st.integers((longest + 1) // 2, longest))):
        extensions = [
            i for i in cd.index_set if roots_of_word(cd, letters + (i,)).all_positive
        ]
        letters += (data.draw(st.sampled_from(extensions)),)
    w = Word(letters, WordKind.WEYL_REDUCED)
    walk, current = [], w
    for _ in range(data.draw(st.integers(0, 12))):
        walk.append(data.draw(st.sampled_from(enumerate_moves(cd, current).moves)))
        current = apply_move(current, walk[-1])
    searched = find_move_path(cd, w, current)
    vectors = data.draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=w.length, max_size=w.length).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    for convention in CONVENTIONS:
        there = transition_along_path_many(cd, w, walk, vectors, convention)
        back = transition_along_path_many(cd, current, walk[::-1], there, convention)
        assert back == tuple(vectors)
        assert transition_along_path_many(cd, w, searched, vectors, convention) == there
