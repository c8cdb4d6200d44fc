"""Move rewriting, move-graph search, and i-box combinatorics.

The independent oracle for connectivity of reduced words is the Weyl group
itself: two reduced words are related by 2-/3-/4-moves exactly when they
multiply to the same element.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed.cartan import (
    PRESET_MATRICES,
    _WeylWalk,
    _check_letters,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
)
from braidseed.errors import (
    BudgetExhausted,
    ConfigInvalid,
    InvalidBox,
    MoveNotApplicable,
    NotConnected,
    UnsupportedCartanPair,
)
from braidseed.seeds import gls_matrix, seed_equivalence_report
from braidseed.words import (
    default_budget,
    EMPTY_BOX,
    EmptyBox,
    IBox,
    NeighborIndex,
    Move,
    MoveKind,
    Word,
    WordKind,
    _bfs,
    _check_no_sixmove_pairs,
    _move_window,
    apply_move,
    enumerate_moves,
    find_move_path,
    ibox_vector,
    make_ibox,
    move_to_json,
    neighbor_index,
    resolve_ibox,
    words_equal_in_monoid,
)


def weyl_element(cd, letters):
    """Images of the simple roots under s_{i_1}...s_{i_l}; faithful."""
    images = []
    for j in cd.index_set:
        v = cd.simple_root(j)
        for i in reversed(letters):
            v = reflect_root(cd, i, v)
        images.append(v)
    return tuple(images)


def test_enumerate_moves_examples():
    cd = preset("a2")
    scan = enumerate_moves(cd, Word((1, 2, 1)))
    assert scan.moves == (Move(MoveKind.THREE, 1),)
    assert scan.unsupported == ()

    scan = enumerate_moves(cd, Word((1, 2, 1, 2), WordKind.POSITIVE_BRAID))
    assert scan.moves == (Move(MoveKind.THREE, 1), Move(MoveKind.THREE, 2))

    scan = enumerate_moves(preset("a1xa1"), Word((1, 2)))
    assert scan.moves == (Move(MoveKind.TWO, 1),)

    scan = enumerate_moves(preset("b2"), Word((1, 2, 1, 2)))
    assert scan.moves == (Move(MoveKind.FOUR, 1),)


def test_enumerate_moves_reports_sixmove_windows():
    cd = preset("g2")
    scan = enumerate_moves(cd, Word((1, 2, 1, 2, 1, 2), WordKind.POSITIVE_BRAID))
    assert scan.moves == ()
    assert scan.unsupported == (1,)


def test_apply_move_examples():
    assert apply_move(Word((1, 2, 1)), Move(MoveKind.THREE, 1)).letters == (2, 1, 2)
    assert apply_move(Word((1, 2)), Move(MoveKind.TWO, 1)).letters == (2, 1)
    assert apply_move(Word((1, 2, 1, 2)), Move(MoveKind.FOUR, 1)).letters == (2, 1, 2, 1)


def test_apply_move_rejects_bad_windows():
    with pytest.raises(MoveNotApplicable):
        apply_move(Word((1, 2, 1)), Move(MoveKind.THREE, 2))
    with pytest.raises(MoveNotApplicable):
        apply_move(Word((1, 2, 2)), Move(MoveKind.THREE, 1))
    with pytest.raises(MoveNotApplicable):
        apply_move(Word((1, 1)), Move(MoveKind.TWO, 1))
    with pytest.raises(MoveNotApplicable):
        apply_move(Word((1, 2, 1, 1)), Move(MoveKind.FOUR, 1))


def test_moves_are_involutions_exhaustively():
    # every move kind flips its own window back at the same position
    for name in ("a1xa1", "a2", "b2", "a3", "b3"):
        cd = preset(name)
        for length in range(2, 9 if cd.rank == 2 else 7):
            for letters in itertools.product(cd.index_set, repeat=length):
                w = Word(letters, WordKind.POSITIVE_BRAID)
                for move in enumerate_moves(cd, w).moves:
                    w2 = apply_move(w, move)
                    assert w2.length == w.length
                    assert w2.kind == w.kind
                    assert apply_move(w2, move).letters == letters


def test_moves_preserve_reducedness_and_root_multiset():
    rng = random.Random(5)
    for name in ("a2", "b2", "a3"):
        cd = preset(name)
        for _ in range(40):
            letters = tuple(rng.choice(cd.index_set) for _ in range(rng.randint(1, 6)))
            w = Word(letters, WordKind.POSITIVE_BRAID)
            roots, reduced = roots_of_word(cd, letters)
            for move in enumerate_moves(cd, w).moves:
                w2 = apply_move(w, move)
                roots2, reduced2 = roots_of_word(cd, w2.letters)
                assert reduced2 == reduced
                if reduced:
                    assert Counter(roots2) == Counter(roots)


def test_find_move_path_examples():
    cd = preset("a2")
    path = find_move_path(cd, Word((1, 2, 1)), Word((2, 1, 2)))
    assert path == [Move(MoveKind.THREE, 1)]

    cd3 = preset("a3")
    start = Word((1, 2, 1, 3, 2, 1))
    goal = Word((3, 2, 3, 1, 2, 3))
    path = find_move_path(cd3, start, goal)
    assert len(path) >= 1
    w = start
    for move in path:
        w = apply_move(w, move)
    assert w.letters == goal.letters

    with pytest.raises(NotConnected) as info:
        find_move_path(cd, Word((1, 2, 1)), Word((1, 1, 2), WordKind.POSITIVE_BRAID))
    assert info.value.definitive


def test_find_move_path_is_shortest():
    cd = preset("a3")
    start = Word((1, 2, 1, 3, 2, 1))
    # a path to itself is empty; one move away is length one
    assert find_move_path(cd, start, start) == []
    neighbor = apply_move(start, enumerate_moves(cd, start).moves[0])
    assert len(find_move_path(cd, start, neighbor)) == 1


def test_words_equal_examples():
    cd = preset("a2")
    assert words_equal_in_monoid(cd, Word((1, 2, 1)), Word((2, 1, 2)))
    assert not words_equal_in_monoid(
        cd,
        Word((1, 2), WordKind.POSITIVE_BRAID),
        Word((2, 1), WordKind.POSITIVE_BRAID),
    )
    b2 = preset("b2")
    assert words_equal_in_monoid(b2, Word((1, 2, 1, 2)), Word((2, 1, 2, 1)))
    assert not words_equal_in_monoid(cd, Word((1, 2, 1)), Word((1, 2)))


def test_words_equal_matches_weyl_oracle_on_reduced_words():
    rng = random.Random(31)
    for name in ("b2", "a3"):
        cd = preset(name)
        reduced_words = []
        for _ in range(50):
            letters = tuple(rng.choice(cd.index_set) for _ in range(4))
            if roots_of_word(cd, letters).all_positive:
                reduced_words.append(letters)
        for u in reduced_words[:8]:
            for v in reduced_words[:8]:
                same = weyl_element(cd, u) == weyl_element(cd, v)
                got = words_equal_in_monoid(
                    cd, Word(u), Word(v)
                )
                assert got == same


def test_sixmove_pairs_are_rejected():
    cd = preset("g2")
    with pytest.raises(UnsupportedCartanPair):
        words_equal_in_monoid(cd, Word((1, 2)), Word((2, 1)))
    with pytest.raises(UnsupportedCartanPair):
        find_move_path(cd, Word((1, 2, 1)), Word((2, 1, 2)))
    # single-letter words never trip the guard
    assert words_equal_in_monoid(cd, Word((1, 1), WordKind.POSITIVE_BRAID), Word((1, 1), WordKind.POSITIVE_BRAID))


def test_budget_exhaustion(monkeypatch):
    cd = preset("a3")
    u = Word((1, 2, 1, 3, 2, 1))
    v = Word((3, 2, 3, 1, 2, 3))
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    with pytest.raises(NotConnected) as info:
        find_move_path(cd, u, v)
    assert not info.value.definitive
    # two reduced words of w0 are equal by Matsumoto's theorem, unsearched
    assert words_equal_in_monoid(cd, u, v)
    # with s1 in front neither word is reduced, but the common prefix
    # cancels and leaves the reduced pair
    u1, v1 = (Word((1,) + x.letters, WordKind.POSITIVE_BRAID) for x in (u, v))
    assert words_equal_in_monoid(cd, u1, v1)
    # s1 w0 = w0 s3 shares no prefix or suffix, so equality needs the search
    v2 = Word(v.letters + (3,), WordKind.POSITIVE_BRAID)
    with pytest.raises(BudgetExhausted):
        words_equal_in_monoid(cd, u1, v2)
    monkeypatch.delenv("BRAIDSEED_BUDGET")
    assert words_equal_in_monoid(cd, u1, v2)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    cd = preset("a3")
    with pytest.raises(NotConnected) as info:
        find_move_path(cd, Word((1, 2, 1, 3, 2, 1)), Word((3, 2, 3, 1, 2, 3)))
    assert not info.value.definitive


def test_a_stopped_search_names_its_budget_not_a_missing_path(monkeypatch):
    cd = preset("a3")
    u, v = Word((1, 2, 1, 3, 2, 1)), Word((3, 2, 3, 1, 2, 3))
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    with pytest.raises(NotConnected) as info:
        find_move_path(cd, u, v)
    assert str(info.value) == (
        "move-graph search from (1, 2, 1, 3, 2, 1) to (3, 2, 3, 1, 2, 3) "
        "stopped after 2 words"
    )
    # a definitive refusal still says there is no path
    with pytest.raises(NotConnected, match=r"^no move path from \(1, 2, 1\)") as info:
        find_move_path(cd, Word((1, 2, 1)), Word((2, 3, 2)))
    assert info.value.definitive


@pytest.mark.parametrize("value", ["0", "-3", "lots"])
def test_a_bad_budget_env_is_config_invalid_for_every_reader(monkeypatch, value):
    monkeypatch.setenv("BRAIDSEED_BUDGET", value)
    with pytest.raises(ConfigInvalid, match="BRAIDSEED_BUDGET"):
        default_budget()


def test_an_explicit_budget_of_0_is_not_the_default(monkeypatch):
    # an empty BRAIDSEED_BUDGET asks for the default; 0 is refused
    cd = preset("a3")
    u, v = Word((1, 2, 1, 3, 2, 1)), Word((3, 2, 3, 1, 2, 3))
    monkeypatch.setenv("BRAIDSEED_BUDGET", "")
    assert len(find_move_path(cd, u, v)) > 1
    monkeypatch.setenv("BRAIDSEED_BUDGET", "0")
    with pytest.raises(ConfigInvalid, match=r"^BRAIDSEED_BUDGET: must be >= 1, got 0$"):
        find_move_path(cd, u, v)


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_1_is_refused_before_the_target_test(monkeypatch, budget):
    # a target one move away, or the start itself, needs no word of budget,
    # and reduced words of one Weyl element need no search: the budget is
    # refused all the same
    cd = preset("a3")
    u, v = Word((1, 2, 1)), Word((2, 1, 2))
    monkeypatch.setenv("BRAIDSEED_BUDGET", str(budget))
    for call, w2 in (
        (find_move_path, v),
        (find_move_path, u),
        (words_equal_in_monoid, v),
        (words_equal_in_monoid, Word((1, 2, 1, 3), WordKind.POSITIVE_BRAID)),
    ):
        with pytest.raises(
            ConfigInvalid, match=f"^BRAIDSEED_BUDGET: must be >= 1, got {budget}$"
        ):
            call(cd, u, w2)
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1")
    assert find_move_path(cd, u, v) == [Move(MoveKind.THREE, 1)]
    assert words_equal_in_monoid(cd, u, v)


def test_budget_counts_the_words_of_every_round(monkeypatch):
    # every move of the start is up, so round 0 discovers only the start;
    # round 1 walks depth-first straight along the 12-move path and reaches
    # the target as its 13th word, the start included, so 1 + 13 words are
    # charged
    cd = preset("b3")
    u, v = Word((2, 1, 3, 2, 1, 3, 2, 3, 1)), Word((3, 1, 2, 1, 3, 2, 1, 3, 2))
    monkeypatch.setenv("BRAIDSEED_BUDGET", "14")
    assert len(find_move_path(cd, u, v)) == 12
    monkeypatch.setenv("BRAIDSEED_BUDGET", "13")
    with pytest.raises(NotConnected) as info:
        find_move_path(cd, u, v)
    assert not info.value.definitive


def test_unconnectable_words_are_refused_before_the_budget(monkeypatch):
    # moves keep the Weyl element and reducedness, so these pairs are
    # answered without a search: a budget of 2 words is never charged
    cd = preset("a3")
    monkeypatch.setenv("BRAIDSEED_BUDGET", "2")
    for u, v in (
        (Word((1, 2, 1)), Word((2, 3, 2))),  # reduced, different inversion sets
        (Word((1, 2, 1)), Word((1, 1, 2), WordKind.POSITIVE_BRAID)),  # target not reduced
        (Word((2, 1, 2, 1), WordKind.POSITIVE_BRAID), Word((1, 2, 3, 2))),  # start not
        # neither reduced, different Weyl elements: s2 s1 s3 against s1 s2 s3
        (Word((2, 1, 3, 1, 1), WordKind.POSITIVE_BRAID),
         Word((1, 1, 1, 2, 3), WordKind.POSITIVE_BRAID)),
    ):
        with pytest.raises(NotConnected) as info:
            find_move_path(cd, u, v)
        assert info.value.definitive
        assert not words_equal_in_monoid(cd, u, v)


# Rank-4 contexts: A4, D4 (node 4 attached to node 2), and B4 in the
# orientation of the b3 preset (c_43 = -2).
# Reduced words of w0 drawn by seeded random walks in the move graph, and
# the moves of find_move_path between them as found by the search that
# listed each word's moves with enumerate_moves.
PINNED_PATHS = [
    ("A4", "1231423121", "3423123413",
     "2@4 2@7 3@5 2@4 3@2 2@1 2@5 2@4 3@2 3@7 3@5 2@4 2@3 2@2 2@7 3@5 2@4 2@9"),
    ("A4", "2341213421", "1342341213",
     "2@3 2@2 2@4 2@5 3@6 2@5 3@3 3@1 2@3 3@4 3@2 2@6 2@5 3@7 2@6 3@4 2@3 2@9"),
    ("D4", "213213423124", "214232412314",
     "2@6 2@5 3@7 3@9 2@8 3@6 3@4 2@3 3@8 2@7 2@6 3@4"),
    ("D4", "321432341214", "432342124321",
     "2@3 2@4 2@8 2@7 3@5 2@11 3@9 3@7 2@6 3@4 3@2 2@1 2@4 2@9"),
    ("B4", "2312341324134234", "1234123124314234", "2@2 3@3 3@1 2@3 2@5 2@4 2@7 2@11"),
    ("B4", "2132134342312434", "2342314231423214",
     "2@2 3@3 4@6 2@5 2@4 2@3 3@9 2@8 3@6 2@5 3@11 2@13 2@12 2@11 4@8 2@7 2@11 2@10 2@14 "
     "3@12"),
]


@pytest.mark.parametrize("family, start, end, moves", PINNED_PATHS)
def test_find_move_path_matches_pinned_moves(family, start, end, moves):
    cd = preset(family)
    u = Word(tuple(map(int, start)), WordKind.WEYL_REDUCED)
    v = Word(tuple(map(int, end)), WordKind.WEYL_REDUCED)
    path = find_move_path(cd, u, v)
    assert " ".join(f"{m.kind.window}@{m.position}" for m in path) == moves
    for move in path:
        u = apply_move(u, move)
    assert u == v


# The braid relations as each reader derived them per letter pair before
# the relation table of the context: the window i j i ... of the length
# that c_ij * c_ji selects, None when the pair has no relation.
RELATION_LENGTH = (2, 3, 4, 6)


def relation_window(i, j, prod):
    if prod >= len(RELATION_LENGTH):
        return None
    return tuple(j if t % 2 else i for t in range(RELATION_LENGTH[prod]))


def scan_moves(cd, w):
    """enumerate_moves as it scanned before the relation table."""
    letters = w.letters
    moves = []
    unsupported = []
    for k in range(1, len(letters)):
        i, j = letters[k - 1], letters[k]
        if i == j:
            continue
        window = relation_window(i, j, cd.pair_product(i, j))
        if window is None or letters[k - 1 : k - 1 + len(window)] != window:
            continue
        if len(window) == 6:
            unsupported.append(k)
        else:
            moves.append(Move(MoveKind(len(window)), k))
    return tuple(moves), tuple(unsupported)


def scan_move_window(w, m, cd):
    """The Cartan side of _move_window before the relation table."""
    k, size = m.position, m.kind.window
    if k < 1 or k + size - 1 > w.length:
        raise MoveNotApplicable(f"{m} window leaves the word")
    window = w.letters[k - 1 : k - 1 + size]
    i, j = window[0], window[1]
    if i == j:
        raise MoveNotApplicable(f"{m} window letters are equal")
    prod = cd.pair_product(i, j)
    if prod == 3:
        raise UnsupportedCartanPair(f"{m}: letters {i!r}, {j!r} form a 6-move Cartan pair")
    if prod >= len(RELATION_LENGTH) or RELATION_LENGTH[prod] != size:
        raise MoveNotApplicable(f"{m}: c_ij*c_ji = {prod} does not match the move kind")
    shape = relation_window(i, j, prod)
    if window != shape:
        raise MoveNotApplicable(f"{m}: window {window} is not of shape {shape}")
    return i, j, k


def scan_sixmove_pairs(cd, letters):
    present = sorted(set(letters), key=cd.position.__getitem__)
    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            if cd.pair_product(present[a], present[b]) == 3:
                raise UnsupportedCartanPair(
                    f"letters {present[a]!r}, {present[b]!r} have c_ij*c_ji = 3; "
                    "their braid relation is outside the move system"
                )


def search_words_equal(cd, w, w2, budget=None):
    """words_equal_in_monoid as it searched on its own before it asked
    find_move_path."""
    _check_letters(cd, w.positions)
    _check_letters(cd, w2.positions)
    scan_sixmove_pairs(cd, w.letters + w2.letters)
    if w.length != w2.length:
        return False
    budget = default_budget() if budget is None else budget
    status, _ = _bfs(cd, w, w2.letters, budget)
    if status == "budget":
        raise BudgetExhausted(f"move-graph search stopped after {budget} words")
    return status == "found"


def relation_contexts():
    """Every preset (g2 for the 6-move), B4, D4 and E6."""
    return [preset(name) for name in (*sorted(PRESET_MATRICES), "b4", "d4", "e6")]


RELATION_CONTEXTS = relation_contexts()


def windowed_letters(data, cd, extra=()):
    """Letters of cd (and the extra ones) concatenated from alternating
    windows i j i ... of length 1 to 6, so every relation shape occurs."""
    alphabet = st.sampled_from(cd.index_set + tuple(extra))
    segments = data.draw(
        st.lists(st.tuples(alphabet, alphabet, st.integers(1, 6)), max_size=4)
    )
    return tuple(j if t % 2 else i for i, j, size in segments for t in range(size))


def test_the_relation_table_is_the_per_pair_window():
    for cd in RELATION_CONTEXTS:
        for i in cd.index_set:
            for j in cd.index_set:
                if i != j:
                    prod = cd.pair_product(i, j)
                    assert cd._relations.get((i, j)) == relation_window(i, j, prod)
                    assert (i, i) not in cd._relations


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_move_readers_of_the_relation_table_agree_with_the_per_pair_scans(data):
    cd = data.draw(st.sampled_from(RELATION_CONTEXTS))
    w = Word(windowed_letters(data, cd), WordKind.POSITIVE_BRAID)
    assert enumerate_moves(cd, w) == scan_moves(cd, w)
    for kind in MoveKind:
        for position in range(0, w.length + 2):
            m = Move(kind, position)
            assert _outcome(_move_window, w, m, cd) == _outcome(scan_move_window, w, m, cd)
    assert _outcome(_check_no_sixmove_pairs, cd, w.letters) == _outcome(
        scan_sixmove_pairs, cd, w.letters
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_words_equal_in_monoid_answers_as_its_own_search_did(data):
    cd = data.draw(st.sampled_from(RELATION_CONTEXTS))
    u = Word(windowed_letters(data, cd, extra=(9,) * data.draw(st.integers(0, 1))),
             WordKind.POSITIVE_BRAID)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    choice = data.draw(st.sampled_from(["walk", "walk", "other", "longer", "shorter"]))
    if choice == "walk" and 9 not in u.letters:
        v = _random_walk(cd, u, rng, rng.randint(0, 12))
    elif choice == "other":
        v = Word(windowed_letters(data, cd), WordKind.POSITIVE_BRAID)
    elif choice == "longer":
        v = Word(u.letters + (cd.index_set[0],), WordKind.POSITIVE_BRAID)
    else:
        v = Word(u.letters[1:], WordKind.POSITIVE_BRAID)
    budget = data.draw(st.integers(1, 50))
    expected = _outcome(search_words_equal, cd, u, v, budget)
    x, y = strip_common_ends(u.letters, v.letters)
    if expected[0] is BudgetExhausted and all(
        roots_of_word(cd, z).all_positive for z in (x, y)
    ):
        # the search ran out, and the words cancel down to two reduced
        # words: Matsumoto decides
        expected = "value", weyl_element(cd, x) == weyl_element(cd, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BRAIDSEED_BUDGET", str(budget))
        assert _outcome(words_equal_in_monoid, cd, u, v) == expected


def strip_common_ends(x, y):
    """x and y without their longest common prefix, and then without the
    longest common suffix of what is left."""
    p = 0
    while p < min(len(x), len(y)) and x[p] == y[p]:
        p += 1
    x, y = x[p:], y[p:]
    s = 0
    while s < min(len(x), len(y)) and x[len(x) - 1 - s] == y[len(y) - 1 - s]:
        s += 1
    return x[: len(x) - s], y[: len(y) - s]


@pytest.mark.parametrize("rank", [7, 8])
def test_reduced_words_of_one_element_are_equal_without_a_search(monkeypatch, rank):
    # w0 against reverse(w0) runs the move-graph search out of its budget
    # at rank 7 and 8; one walk per word answers, and a budget of 1 word
    # is never charged
    cd = preset(f"e{rank}")
    w0 = finite_type_data(cd).longest_word
    u, v = Word(w0), Word(w0[::-1])
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1")
    assert words_equal_in_monoid(cd, u, v)


# The move-graph search as it was before the up-move bound: one unpruned
# BFS, kept as the reference for the bounded one.
def reference_bfs(cd, start, target, budget):
    if start.letters == target:
        return "found", []
    rules = {}
    alphabet = set(start.letters)
    for i in alphabet:
        for j in alphabet - {i}:
            prod = cd.pair_product(i, j)
            window = relation_window(i, j, prod)
            if window is not None and len(window) < 6:
                rules[(i, j)] = (window, relation_window(j, i, prod), MoveKind(len(window)))
    visited = {start.letters: None}
    queue = deque([start.letters])
    while queue:
        current = queue.popleft()
        for k, pair in enumerate(zip(current, current[1:])):
            rule = rules.get(pair)
            if rule is None:
                continue
            window, rewrite, kind = rule
            end = k + len(window)
            if current[k:end] != window:
                continue
            nxt = current[:k] + rewrite + current[end:]
            if nxt in visited:
                continue
            visited[nxt] = (current, kind, k + 1)
            if nxt == target:
                path = []
                while visited[nxt] is not None:
                    nxt, kind, position = visited[nxt]
                    path.append(Move(kind, position))
                path.reverse()
                return "found", path
            if len(visited) >= budget:
                return "budget", None
            queue.append(nxt)
    return "exhausted", None


MOVE_GRAPHS = [preset(name) for name in ("a2", "b2", "a3", "b3", "c3", "a4", "d4", "b4")]


def _random_walk(cd, w, rng, steps):
    for _ in range(steps):
        moves = enumerate_moves(cd, w).moves
        if not moves:
            break
        w = apply_move(w, rng.choice(moves))
    return w


def assert_windows_monotone(cd, w, target):
    """Every applicable move of the reduced word w holds one rank-2 packet:
    its window is monotone in the positions of its roots in target's order."""
    order = {beta: t for t, beta in enumerate(roots_of_word(cd, target).roots)}
    labels = [order[beta] for beta in roots_of_word(cd, w.letters).roots]
    for move in enumerate_moves(cd, w).moves:
        window = labels[move.position - 1 : move.position - 1 + move.kind.window]
        assert window in (sorted(window), sorted(window, reverse=True))


def draw_pair(data):
    """A move graph and two words of it: mostly two random walks from one
    reduced word in the upper half of the lengths, whose move graphs are the
    large ones; otherwise a positive-braid word and a random walk from it or
    a random word."""
    cd = data.draw(st.sampled_from(MOVE_GRAPHS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if rng.random() < 0.75:
        top = len(finite_type_data(cd).positive_roots)
        length = rng.randint(top // 2, top)
        base = []
        while len(base) < length:
            i = rng.choice(cd.index_set)
            if roots_of_word(cd, base + [i]).all_positive:
                base.append(i)
        start, target = (
            _random_walk(cd, Word(tuple(base)), rng, rng.randint(0, 200)) for _ in "st"
        )
    else:
        kind = WordKind.POSITIVE_BRAID
        length = rng.randint(0, 7)
        start, target = (
            Word(tuple(rng.choice(cd.index_set) for _ in range(length)), kind)
            for _ in "st"
        )
        if rng.random() < 0.5:
            target = _random_walk(cd, start, rng, rng.randint(0, 20))
    return cd, start, target


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bounded_search_finds_the_paths_of_the_unpruned_one(data):
    cd, start, target = draw_pair(data)
    budget = data.draw(st.sampled_from([2, 50, 200_000]))
    status, path = _bfs(cd, start, target.letters, budget)
    expected, reference_path = reference_bfs(cd, start, target.letters, 10**7)
    if status == "found":
        assert (expected, path) == ("found", reference_path)
    if status == "exhausted":
        assert expected == "exhausted"
    if roots_of_word(cd, start.letters).all_positive and expected == "found":
        w = start
        assert_windows_monotone(cd, w, target.letters)
        for move in reference_path:
            w = apply_move(w, move)
            assert_windows_monotone(cd, w, target.letters)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_common_prefix_and_suffix_cancel(data):
    cd, x, y = draw_pair(data)
    alphabet = st.sampled_from(cd.index_set)
    prefix, suffix = (tuple(data.draw(st.lists(alphabet, max_size=4))) for _ in "ps")
    u, v = (Word(prefix + z.letters + suffix, WordKind.POSITIVE_BRAID) for z in (x, y))
    budget = data.draw(st.sampled_from([2, 50, 2_000]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BRAIDSEED_BUDGET", str(budget))
        answer = _outcome(words_equal_in_monoid, cd, u, v)
    expected = _outcome(search_words_equal, cd, u, v, budget)
    if expected[0] is not BudgetExhausted:
        assert answer == expected
    if all(roots_of_word(cd, z.letters).all_positive for z in (x, y)):
        # Br+ is cancellative: u = v iff x = y, whatever the search reached
        assert answer == ("value", weyl_element(cd, x.letters) == weyl_element(cd, y.letters))


def draw_reduced_word(rng, cd, length):
    """A reduced word of the given length, letter by letter at random."""
    letters = []
    while len(letters) < length:
        i = rng.choice(cd.index_set)
        if roots_of_word(cd, letters + [i]).all_positive:
            letters.append(i)
    return tuple(letters)


REDUCED_PAIR_GRAPHS = [preset(name) for name in ("a3", "b3", "c3", "a4", "b4", "d4")]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduced_words_of_one_element_end_only_in_found_or_budget(data):
    # moves connect the reduced words of one Weyl element (Matsumoto 1964),
    # so the rounds of _bfs never exhaust them
    cd = data.draw(st.sampled_from(REDUCED_PAIR_GRAPHS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    top = len(finite_type_data(cd).positive_roots)
    if rng.random() < 0.5:
        # two reduced words of w0, one in ten of them past the first round
        base = draw_reduced_word(rng, cd, top)
        start, target = Word(base), Word(draw_reduced_word(rng, cd, top))
    else:
        base = draw_reduced_word(rng, cd, rng.randint(2, top))
        start, target = (_random_walk(cd, Word(base), rng, rng.randint(0, 200)) for _ in "st")
    expected = reference_bfs(cd, start, target.letters, 10**7)
    assert expected[0] == "found"
    assert _bfs(cd, start, target.letters, 10**7) == expected
    for budget in range(2, 51):
        assert _bfs(cd, start, target.letters, budget)[0] in ("found", "budget")
    # another element, or a word that is not reduced, is refused before
    # any round, within a budget of 1 word
    other = draw_reduced_word(rng, cd, len(base))
    if weyl_element(cd, other) != weyl_element(cd, base):
        assert _bfs(cd, start, other, 1) == ("exhausted", None)
    unreduced = Word(start.letters[:1] + start.letters[:-1], WordKind.POSITIVE_BRAID)
    for u, v in ((start, unreduced), (unreduced, start)):
        assert _bfs(cd, u, v.letters, 1) == ("exhausted", None)


def test_a_word_reached_with_fewer_up_moves_is_expanded_again():
    # the depth-first round first reaches some words of this B4 pair along
    # longer paths; searched only from there, it returned another 43-move
    # path.  The moves are those of reference_bfs.
    cd = preset("b4")
    u = Word((4, 3, 1, 2, 1, 3, 4, 3, 2, 4, 3, 4, 1, 3, 2, 3))
    v = Word((2, 1, 3, 4, 2, 3, 1, 4, 3, 2, 1, 3, 2, 4, 3, 4))
    path = find_move_path(cd, u, v)
    assert " ".join(f"{m.kind.window}@{m.position}" for m in path) == (
        "2@2 2@1 2@5 3@3 2@2 2@6 2@5 2@7 2@12 2@11 2@10 3@8 3@6 4@3 2@6 2@8 2@7 "
        "4@11 3@9 2@8 3@6 2@5 2@4 2@3 3@1 2@11 2@14 3@12 4@9 2@8 3@6 2@5 3@3 2@9 "
        "2@8 4@5 2@4 2@12 4@13 3@11 3@9 2@8 2@7"
    )


# The bounded search as it was before its rounds went depth-first: each
# round one BFS that skips the moves beyond the round's up-move bound, kept
# as the reference for the depth-first rounds.
def rounds_bfs(cd, start, target, budget):
    if start.letters == target:
        return "found", []
    walk, goal = _WeylWalk(cd, start.letters), _WeylWalk(cd, target)
    if walk.reduced != goal.reduced:
        return "exhausted", None
    start_labels = (0,) * len(target)
    if walk.reduced:
        order = {beta: t for t, beta in enumerate(goal.roots)}
        if order.keys() != set(walk.roots):
            return "exhausted", None
        start_labels = tuple(order[beta] for beta in walk.roots)
    elif walk.images != goal.images:
        return "exhausted", None
    relations = cd._relations
    spent = 0
    bound = 0
    while True:
        visited = {start.letters: None}
        queue = deque([(start.letters, start_labels, 0)])
        pruned = False
        while queue:
            current, labels, ups = queue.popleft()
            for k, pair in enumerate(zip(current, current[1:])):
                window = relations.get(pair)
                if window is None:
                    continue
                end = k + len(window)
                if current[k:end] != window:
                    continue
                up = ups + (labels[k] < labels[k + 1])
                if up > bound:
                    pruned = True
                    continue
                nxt = current[:k] + relations[pair[::-1]] + current[end:]
                if nxt in visited:
                    continue
                visited[nxt] = (current, end - k, k + 1)
                if nxt == target:
                    path = []
                    while visited[nxt] is not None:
                        nxt, size, position = visited[nxt]
                        path.append(Move(MoveKind(size), position))
                    path.reverse()
                    return "found", path
                if spent + len(visited) >= budget:
                    return "budget", None
                queue.append((nxt, labels[:k] + labels[k:end][::-1] + labels[end:], up))
        if not pruned:
            return "exhausted", None
        spent += len(visited)
        bound += 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_depth_first_rounds_answer_as_the_breadth_first_rounds(data):
    cd, start, target = draw_pair(data)
    reduced = roots_of_word(cd, start.letters).all_positive
    for budget in (2, 5, 20, 50, 300, 200_000):
        status, path = _bfs(cd, start, target.letters, budget)
        expected = rounds_bfs(cd, start, target.letters, budget)
        if expected[0] != "budget" or not reduced:
            assert (status, path) == expected
        elif status != "budget":
            # it discovers fewer words, and finds the path of an ample budget
            assert (status, path) == ("found", reference_bfs(cd, start, target.letters, 10**7)[1])


# Two reduced words of the D5 longest word drawn by seeded random walks in
# its move graph, 38 moves apart; the unpruned search ran out of the default
# budget of 200,000 words before reaching the second from the first.
D5_FAR_PAIR = ("21232543253413523543", "12321432531423531234")


def test_far_d5_longest_words_compare_within_the_default_budget():
    cd = preset("d5")
    u, v = (Word(tuple(map(int, w))) for w in D5_FAR_PAIR)
    report = seed_equivalence_report(cd, u, v, exact=False)
    assert report.match and report.lam_gauge_in_kernel
    assert len(report.path) == 38
    for move in report.path:
        u = apply_move(u, move)
    assert u == v


def test_a_common_prefix_cancels_before_the_weyl_test(monkeypatch):
    # neither word is reduced, and the search of the whole words ran out of
    # the default budget; without s1 they are reduced words of w0, so no
    # word is searched
    cd = preset("d5")
    w0 = finite_type_data(cd).longest_word
    u, v = (Word((1,) + x, WordKind.POSITIVE_BRAID) for x in (w0, w0[::-1]))
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1")
    assert words_equal_in_monoid(cd, u, v)


def test_e6_longest_word_compares_with_its_reverse():
    # 152 moves apart; the breadth-first rounds ran out of the default
    # budget before reaching reverse(w0) from w0
    cd = preset("e6")
    w0 = finite_type_data(cd).longest_word
    u, v = Word(w0), Word(tuple(reversed(w0)))
    report = seed_equivalence_report(cd, u, v, exact=False)
    assert report.match
    assert report.lam_gauge == ((0,) * 36,) * 36
    assert len(report.path) == 152
    for move in report.path:
        u = apply_move(u, move)
    assert u == v


def test_neighbor_index_examples():
    w = Word((1, 2, 1))
    assert neighbor_index(w, 3)[:2] == (1, 4)
    assert (w.before(1, 2), w.after(1, 2)) == (0, 2)
    w2 = Word((1, 2, 1, 2))
    rec2 = neighbor_index(w2, 2)
    assert rec2.minus == 0
    assert rec2.plus == 4
    with pytest.raises(InvalidBox):
        neighbor_index(w, 0)


def test_ibox_vector_examples():
    w = Word((1, 2, 1))
    assert ibox_vector(w, IBox(1, 3)) == (1, 0, 1)
    assert ibox_vector(w, IBox(2, 2)) == (0, 1, 0)
    w2 = Word((1, 2, 1, 2))
    box = IBox(1, 4, brace=True)
    assert resolve_ibox(w2, box) == IBox(1, 3)
    assert ibox_vector(w2, box) == (1, 0, 1, 0)


def test_ibox_validation_and_empty():
    w = Word((1, 2, 1, 2))
    with pytest.raises(InvalidBox):
        ibox_vector(w, IBox(1, 2))
    with pytest.raises(InvalidBox):
        ibox_vector(w, IBox(0, 3))
    assert make_ibox(3, 2) is EMPTY_BOX
    assert ibox_vector(w, EMPTY_BOX) == (0, 0, 0, 0)
    # brace box whose endpoints agree resolves to itself
    assert resolve_ibox(w, IBox(1, 3, brace=True)) == IBox(1, 3)


def test_ibox_vector_counts_letter_occurrences():
    rng = random.Random(77)
    cd = preset("a3")
    for _ in range(30):
        letters = tuple(rng.choice(cd.index_set) for _ in range(rng.randint(2, 7)))
        w = Word(letters, WordKind.POSITIVE_BRAID)
        a = rng.randint(1, w.length)
        matches = [k for k in range(a, w.length + 1) if letters[k - 1] == letters[a - 1]]
        b = rng.choice(matches)
        vec = ibox_vector(w, IBox(a, b))
        assert sum(vec) == len([k for k in matches if k <= b])


def test_move_json_names_the_window_length_and_position():
    for move in (Move(MoveKind.TWO, 3), Move(MoveKind.THREE, 1), Move(MoveKind.FOUR, 5)):
        assert move_to_json(move) == {"kind": str(move.kind.window), "pos": move.position}


# Scanning reference copies of the positional readers as they were before
# the word index: every lookup is a linear pass over the word.
def scan_neighbor_index(w, a, j=None):
    """a- and a+ of the letter j, by default the letter at a."""
    if not 1 <= a <= w.length:
        raise InvalidBox(f"position {a} outside [1, {w.length}]")
    target = w.letter(a) if j is None else j
    minus = max((k for k in range(1, a) if w.letter(k) == target), default=0)
    plus = min(
        (k for k in range(a + 1, w.length + 1) if w.letter(k) == target),
        default=w.length + 1,
    )
    return NeighborIndex(minus, plus)


def scan_resolve_ibox(w, box):
    if isinstance(box, EmptyBox):
        return EMPTY_BOX
    a, b = box.lo, box.hi
    if not 1 <= a <= b <= w.length:
        raise InvalidBox(f"box {box} outside [1, {w.length}]")
    if not box.brace:
        if w.letter(a) != w.letter(b):
            raise InvalidBox(f"box {box}: endpoints carry different letters")
        return IBox(a, b, brace=False)
    if w.letter(a) == w.letter(b):
        return IBox(a, b, brace=False)
    c = max(k for k in range(a, b) if w.letter(k) == w.letter(a))
    return IBox(a, c, brace=False)


def scan_ibox_vector(w, box):
    if isinstance(box, EmptyBox):
        return (0,) * w.length
    resolved = scan_resolve_ibox(w, box)
    target = w.letter(resolved.lo)
    return tuple(
        1 if resolved.lo <= k <= resolved.hi and w.letter(k) == target else 0
        for k in range(1, w.length + 1)
    )


def scan_gls_entries(cd, w):
    n = w.length
    minus = [0] + [scan_neighbor_index(w, s).minus for s in range(1, n + 1)]
    rows = []
    for k in range(1, n + 1):
        row = []
        for l in range(1, n + 1):
            if l == k:
                row.append(0)
            elif minus[k] == l:
                row.append(1)
            elif minus[l] == k:
                row.append(-1)
            elif minus[l] < minus[k] < l < k:
                row.append(cd.entry(w.letter(k), w.letter(l)))
            elif minus[k] < minus[l] < k < l:
                row.append(-cd.entry(w.letter(k), w.letter(l)))
            else:
                row.append(0)
        rows.append(tuple(row))
    exchange = tuple(s for s in range(1, n + 1) if minus[s] >= 1)
    return tuple(rows), exchange


def _outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return "value", f(*args)
    except Exception as err:  # compared by type and message
        return type(err), str(err)


INDEX_CONTEXTS = [
    preset("a2"),
    preset("b3"),
    preset("d4"),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_word_index_readers_agree_with_scans(data):
    cd = data.draw(st.sampled_from(INDEX_CONTEXTS))
    letters = data.draw(st.lists(st.sampled_from(cd.index_set), max_size=24))
    w = Word(tuple(letters), WordKind.POSITIVE_BRAID)
    n = w.length
    absent = [j for j in cd.index_set if j not in letters] + [99]
    for a in range(0, n + 2):
        assert _outcome(neighbor_index, w, a) == _outcome(scan_neighbor_index, w, a)
        for j in (*cd.index_set, *absent) if 1 <= a <= n else ():
            assert (w.before(a, j), w.after(a, j)) == scan_neighbor_index(w, a, j)
    boxes = [EMPTY_BOX] + [
        IBox(lo, hi, brace)
        for lo in range(0, n + 2)
        for hi in range(0, n + 2)
        for brace in (False, True)
    ]
    for box in boxes:
        assert _outcome(resolve_ibox, w, box) == _outcome(scan_resolve_ibox, w, box)
        assert _outcome(ibox_vector, w, box) == _outcome(scan_ibox_vector, w, box)
    b = gls_matrix(cd, w)
    assert (b.entries, b.exchange) == scan_gls_entries(cd, w)


def test_word_positions_index():
    w = Word((2, 1, 2, 3, 2))
    assert w.positions == {2: (1, 3, 5), 1: (2,), 3: (4,)}
    assert (w.before(3, 2), w.after(3, 2)) == (1, 5)
    assert (w.before(1, 2), w.after(5, 2)) == (0, 6)
    assert (w.before(4, 7), w.after(0, 7)) == (0, 6)
    # the cached index takes no part in equality or hashing
    assert w == Word(w.letters) and hash(w) == hash(Word(w.letters))
