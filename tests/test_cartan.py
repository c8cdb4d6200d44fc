"""Cartan matrix validation and root arithmetic, checked against a brute-force
Weyl group built by BFS on permutation-of-roots representations."""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidseed import cartan
from braidseed.cartan import (
    FiniteTypeData,
    bilinear_form,
    PRESET_MATRICES,
    cartan_from_json,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
    validate_cartan,
    weyl_act,
)
from braidseed.errors import (
    BudgetExhausted,
    DimensionMismatch,
    InvalidBox,
    NotFiniteType,
    NotGCM,
    NotSymmetrizable,
)


def weyl_group_by_bfs(cd):
    """Enumerate the Weyl group as matrices acting on root coordinates.

    Each element is stored as the tuple of images of the simple roots, which
    is a faithful representation.  Returns {element: length} computed by BFS
    from the identity, plus the identity element itself.
    """
    identity = tuple(cd.simple_root(i) for i in cd.index_set)
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for elt in frontier:
            for i in cd.index_set:
                # right multiplication by s_i: new images are elt applied to s_i(alpha_j)
                image = tuple(
                    apply_elt(cd, elt, reflect_root(cd, i, cd.simple_root(j)))
                    for j in cd.index_set
                )
                if image not in lengths:
                    lengths[image] = lengths[elt] + 1
                    nxt.append(image)
        frontier = nxt
    return lengths


def apply_elt(cd, elt, x):
    out = [0] * cd.rank
    for a in range(cd.rank):
        if x[a]:
            for b in range(cd.rank):
                out[b] += x[a] * elt[a][b]
    return tuple(out)


def elt_of_word(cd, word):
    elt = tuple(cd.simple_root(i) for i in cd.index_set)
    for i in word:
        elt = tuple(
            apply_elt(cd, elt, reflect_root(cd, i, cd.simple_root(j)))
            for j in cd.index_set
        )
    return elt


def test_validate_rejects_non_gcm():
    with pytest.raises(NotGCM):
        validate_cartan([[1]])
    with pytest.raises(NotGCM):
        validate_cartan([[2, 1], [-1, 2]])
    with pytest.raises(NotGCM):
        validate_cartan([[2, 0], [-1, 2]])
    with pytest.raises(NotGCM):
        validate_cartan([])


def test_validate_rejects_bad_symmetrizer():
    with pytest.raises(NotSymmetrizable):
        validate_cartan([[2, -1], [-2, 2]], opt_symmetrizer=[1, 1])
    with pytest.raises(NotSymmetrizable):
        validate_cartan([[2, -1], [-1, 2]], opt_symmetrizer=[0, 0])


def test_minimal_symmetrizer_values():
    assert preset("a2").symmetrizer == (1, 1)
    # d_i c_ij = d_j c_ji with c_12 = -1, c_21 = -2 forces d_1 = 2 d_2
    assert preset("b2").symmetrizer == (2, 1)
    assert preset("c2").symmetrizer == (1, 2)
    assert preset("g2").symmetrizer == (3, 1)
    assert preset("b3").symmetrizer == (2, 2, 1)
    assert preset("a1xa1").symmetrizer == (1, 1)


def test_symmetrizer_equation_holds():
    for name in ("a2", "b2", "c2", "g2", "a3", "b3", "c3"):
        cd = preset(name)
        for i in cd.index_set:
            for j in cd.index_set:
                assert cd.sym(i) * cd.entry(i, j) == cd.sym(j) * cd.entry(j, i)


def two_walk_symmetrizer(matrix):
    """_minimal_symmetrizer as it was before it found each component in
    its own walk: one walk for the components, then one per component for
    the ratios."""
    n = len(matrix)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp, stack = [start], [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and matrix[i][j] != 0:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    ratio = [None] * n
    for comp in comps:
        ratio[comp[0]] = Fraction(1)
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                want = ratio[i] * Fraction(matrix[i][j], matrix[j][i])
                if ratio[j] is None:
                    ratio[j] = want
                    stack.append(j)
                elif ratio[j] != want:
                    raise NotSymmetrizable("inconsistent symmetrizer ratios on a cycle")
        denom = 1
        for i in comp:
            denom = denom * ratio[i].denominator // gcd(denom, ratio[i].denominator)
        values = [int(ratio[i] * denom) for i in comp]
        g = 0
        for v in values:
            g = gcd(g, v)
        for i, v in zip(comp, values):
            ratio[i] = v // g
    return tuple(int(r) for r in ratio)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_walk_per_component_finds_the_two_walk_symmetrizer(data):
    # a zero pattern with several components, filled either from a hidden
    # symmetrizer (symmetrizable) or freely (mostly not, once there is a cycle)
    n = data.draw(st.integers(1, 7))
    hidden = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    free = data.draw(st.booleans())
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.integers(0, 2)):
                continue
            if free:
                matrix[i][j], matrix[j][i] = (-data.draw(st.integers(1, 4)) for _ in "ij")
            else:
                x = data.draw(st.integers(1, 2))
                matrix[i][j], matrix[j][i] = -hidden[j] * x, -hidden[i] * x
    try:
        expected = two_walk_symmetrizer(matrix)
    except NotSymmetrizable as err:
        with pytest.raises(NotSymmetrizable, match=str(err)):
            cartan._minimal_symmetrizer(matrix)
        return
    assert cartan._minimal_symmetrizer(matrix) == expected


def test_bilinear_form_symmetric_and_even_diagonal():
    rng = random.Random(11)
    for name in ("a2", "b2", "g2", "b3"):
        cd = preset(name)
        for _ in range(25):
            x = tuple(rng.randint(-3, 3) for _ in range(cd.rank))
            y = tuple(rng.randint(-3, 3) for _ in range(cd.rank))
            assert bilinear_form(cd, x, y) == bilinear_form(cd, y, x)
        for i in cd.index_set:
            a = cd.simple_root(i)
            assert bilinear_form(cd, a, a) == 2 * cd.sym(i)


def test_reflection_is_involution_and_preserves_form():
    rng = random.Random(7)
    for name in ("a2", "b2", "g2", "a3"):
        cd = preset(name)
        for _ in range(20):
            x = tuple(rng.randint(-4, 4) for _ in range(cd.rank))
            y = tuple(rng.randint(-4, 4) for _ in range(cd.rank))
            for i in cd.index_set:
                assert reflect_root(cd, i, reflect_root(cd, i, x)) == x
                assert bilinear_form(cd, reflect_root(cd, i, x), reflect_root(cd, i, y)) == bilinear_form(cd, x, y)


def test_roots_of_word_reduced_detection_against_bfs_lengths():
    rng = random.Random(23)
    for name in ("a2", "b2", "a3"):
        cd = preset(name)
        lengths = weyl_group_by_bfs(cd)
        for _ in range(60):
            word = [rng.choice(cd.index_set) for _ in range(rng.randint(0, 6))]
            verdict = roots_of_word(cd, word).all_positive
            assert verdict == (lengths[elt_of_word(cd, word)] == len(word))


def test_roots_of_word_values_a2():
    cd = preset("a2")
    roots, ok = roots_of_word(cd, (1, 2, 1))
    assert ok
    assert roots == ((1, 0), (1, 1), (0, 1))


def test_letters_outside_the_index_set_are_refused():
    cd = preset("a2")
    for call in [
        lambda: roots_of_word(cd, (1, 99)),
        lambda: weyl_act(cd, (1, 99), (1, 0)),
        lambda: reflect_root(cd, 99, (1, 0)),
    ]:
        with pytest.raises(InvalidBox, match="letter 99 not in the index set"):
            call()


def fold_reflections(cd, letters, x):
    """s_{i_1} ... s_{i_k} x as a fold of single reflections, rightmost
    first: s_i x = x - (sum_j x_j c_ij) alpha_i."""
    v = list(x)
    for i in reversed(letters):
        p = cd.position[i]
        v[p] -= sum(v[j] * cd.matrix[p][j] for j in range(cd.rank))
    return tuple(v)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weyl_act_and_reflect_root_fold_single_reflections(data):
    cd = preset(data.draw(st.sampled_from(sorted(PRESET_MATRICES))))
    letters = data.draw(st.lists(st.sampled_from(cd.index_set), max_size=8))
    x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=cd.rank, max_size=cd.rank)))
    assert weyl_act(cd, letters, x) == fold_reflections(cd, letters, x)
    i = data.draw(st.sampled_from(cd.index_set))
    assert reflect_root(cd, i, x) == fold_reflections(cd, (i,), x)


def test_root_vectors_of_the_wrong_length_are_refused():
    cd = preset("a2")
    for x in [(), (1,), (1, 0, 0)]:
        for call in [
            lambda: weyl_act(cd, (1, 2), x),
            lambda: weyl_act(cd, (), x),
            lambda: reflect_root(cd, 1, x),
            lambda: bilinear_form(cd, x, (1, 0)),
            lambda: bilinear_form(cd, (1, 0), x),
        ]:
            with pytest.raises(DimensionMismatch, match="root vector length mismatch"):
                call()


def test_roots_of_reduced_word_are_distinct_inversions():
    cd = preset("b2")
    roots, ok = roots_of_word(cd, (1, 2, 1, 2))
    assert ok
    assert len(set(roots)) == 4
    # these are exactly the positive roots of B2
    assert set(roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_finite_type_data_against_bfs():
    expected_sizes = {"a2": 3, "b2": 4, "g2": 6, "a3": 6, "b3": 9, "c3": 9}
    for name, count in expected_sizes.items():
        cd = preset(name)
        data = finite_type_data(cd)
        assert len(data.positive_roots) == count
        lengths = weyl_group_by_bfs(cd)
        assert max(lengths.values()) == count
        assert lengths[elt_of_word(cd, data.longest_word)] == count
        assert len(data.longest_word) == count


def test_longest_word_canonical_choice():
    assert finite_type_data(preset("a2")).longest_word == (1, 2, 1)
    assert finite_type_data(preset("b2")).longest_word == (1, 2, 1, 2)


def plain_greedy_w0(cd):
    """The greedy walk with no flags: after every letter re-test the image
    w(alpha_i) of every index, and append the first that is positive.  The
    images follow w -> w s_j as elt_of_word does, on s_j(alpha_i) computed
    once per pair."""
    simple = [cd.simple_root(i) for i in cd.index_set]
    reflected = {j: [reflect_root(cd, j, x) for x in simple] for j in cd.index_set}
    images, word = tuple(simple), []
    while ascents := [i for i, x in zip(cd.index_set, images) if min(x) >= 0]:
        word.append(ascents[0])
        images = tuple(apply_elt(cd, images, y) for y in reflected[ascents[0]])
    return tuple(word)


@pytest.mark.parametrize("name", ["a30", "b12", "d20", "e8"])
def test_the_flagged_walk_gives_the_plain_greedy_word(name):
    cd = preset(name)
    assert finite_type_data(cd).longest_word == plain_greedy_w0(cd)


def test_star_involution():
    cd = preset("a3")
    data = finite_type_data(cd)
    assert data.star == (3, 2, 1)
    for name in ("a2", "b2", "g2", "b3"):
        cd = preset(name)
        data = finite_type_data(cd)
        # star is an involution and w0 sends alpha_i to -alpha_{i*}
        for n, i in enumerate(cd.index_set):
            j = data.star[n]
            assert data.star[cd.position[j]] == i
            assert weyl_act(cd, data.longest_word, cd.simple_root(i)) == tuple(
                -c for c in cd.simple_root(j)
            )
    assert finite_type_data(preset("a2")).star == (2, 1)


def test_coxeter_numbers():
    assert finite_type_data(preset("a2")).coxeter_number == 3
    assert finite_type_data(preset("b2")).coxeter_number == 4
    assert finite_type_data(preset("g2")).coxeter_number == 6
    assert finite_type_data(preset("a3")).coxeter_number == 4
    assert finite_type_data(preset("b3")).coxeter_number == 6


def test_affine_matrix_not_finite_type():
    affine = validate_cartan([[2, -2], [-2, 2]])
    with pytest.raises(NotFiniteType):
        finite_type_data(affine)


def test_affine_data_is_refused_before_the_roots_are_closed(monkeypatch):
    steps = []
    append = cartan._WeylWalk.append
    monkeypatch.setattr(
        cartan._WeylWalk, "append", lambda walk, j: steps.append(j) or append(walk, j)
    )
    affine_a3 = validate_cartan(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    )
    with pytest.raises(NotFiniteType, match="not positive definite"):
        finite_type_data(affine_a3)
    assert steps == []
    finite_type_data(preset("b3"))
    assert len(steps) >= 1
    # hyperbolic: minors 2, 3, then the determinant -8
    hyperbolic = validate_cartan([[2, -1, -1], [-1, 2, -2], [-1, -2, 2]])
    with pytest.raises(NotFiniteType, match="minor of order 3 is -8"):
        finite_type_data(hyperbolic)


def matrix(name):
    """The matrix of a preset, as lists."""
    return [list(row) for row in preset(name).matrix]


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for a, row in enumerate(b):
            m[start + a][start : start + len(b)] = row
        start += len(b)
    return m


def finite_matrices():
    out = [matrix(f"a{n}") for n in range(1, 9)]
    out += [matrix(f"b{n}") for n in range(2, 8)]
    out += [matrix(f"c{n}") for n in range(3, 8)]
    out += [matrix(f"d{n}") for n in range(4, 9)]
    out += [matrix(f"e{n}") for n in range(6, 9)]
    out += [[list(row) for row in zip(*matrix("f4"))]]  # F4 with c_23 = -2
    out += [cartan.PRESET_MATRICES["g2"]]
    out += [
        block_sum(matrix("a1"), matrix("a1")),
        block_sum(matrix("a1"), matrix("a2")),
        block_sum(matrix("a2"), matrix("b2")),
        block_sum(matrix("a1"), matrix("a1"), matrix("a1")),
        block_sum(matrix("a3"), cartan.PRESET_MATRICES["g2"]),
    ]
    return out


def old_finite_type_data(cd):
    """The closure, greedy replay and star search that the walk replaced."""
    roots = {cd.simple_root(i) for i in cd.index_set}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in cd.index_set:
            gamma = reflect_root(cd, i, beta)
            if all(c >= 0 for c in gamma) and gamma not in roots:
                roots.add(gamma)
                frontier.append(gamma)
    word = []
    while True:
        ascents = [
            i
            for i in cd.index_set
            if all(c >= 0 for c in weyl_act(cd, word, cd.simple_root(i)))
        ]
        if not ascents:
            break
        word.append(ascents[0])
    assert len(word) == len(roots)
    star = []
    for i in cd.index_set:
        neg = tuple(-c for c in weyl_act(cd, word, cd.simple_root(i)))
        (target,) = [j for j in cd.index_set if cd.simple_root(j) == neg]
        star.append(target)
    twice = 2 * len(roots)
    return FiniteTypeData(
        positive_roots=tuple(sorted(roots, key=lambda r: (sum(r), r))),
        longest_word=tuple(word),
        star=tuple(star),
        coxeter_number=twice // cd.rank if twice % cd.rank == 0 else None,
    )


def test_the_walk_gives_the_old_finite_type_data():
    matrices = finite_matrices()
    rng = random.Random(14)
    cases = [validate_cartan(m) for m in matrices]
    for _ in range(20):
        m = rng.choice([m for m in matrices if len(m) <= 6])
        order = rng.sample(range(len(m)), len(m))
        labels = [f"v{rng.randrange(100)}_{a}" for a in range(len(m))]
        rng.shuffle(labels)
        permuted = [[m[a][b] for b in order] for a in order]
        cases.append(validate_cartan(permuted, index_set=labels))
    assert len(cases) == 54
    for cd in cases:
        assert finite_type_data(cd) == old_finite_type_data(cd)
    refused = [
        ("2 is 0", [[2, -2], [-2, 2]]),  # affine A1
        ("4 is 0", [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]),
        ("3 is -8", [[2, -1, -1], [-1, 2, -2], [-1, -2, 2]]),  # hyperbolic
        ("2 is 0", [[2, -1], [-4, 2]]),
    ]
    for message, m in refused:
        with pytest.raises(NotFiniteType, match=f"leading principal minor of order {message}"):
            finite_type_data(validate_cartan(m))


WALK_TYPES = {
    name: preset(name) for name in ("a2", "b2", "c2", "g2", "a3", "b3", "c3", "a4", "d4")
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_walk_agrees_with_prefix_replays(data):
    cd = WALK_TYPES[data.draw(st.sampled_from(sorted(WALK_TYPES)))]
    letters = data.draw(st.lists(st.sampled_from(cd.index_set), max_size=12))
    roots = tuple(
        weyl_act(cd, letters[:k], cd.simple_root(i)) for k, i in enumerate(letters)
    )
    positive = all(all(c >= 0 for c in beta) for beta in roots)
    assert roots_of_word(cd, letters) == (roots, positive)
    assert cartan._WeylWalk(cd, letters).images == [
        weyl_act(cd, letters, cd.simple_root(i)) for i in cd.index_set
    ]


def test_minors_agree_with_the_rank_two_classification():
    # rank 2 is of finite type exactly when c_12 * c_21 <= 3
    for a in range(5):
        for b in range(5):
            if (a == 0) != (b == 0):
                continue
            cd = validate_cartan([[2, -a], [-b, 2]])
            assert (cartan._first_nonpositive_minor(cd) is None) == (a * b <= 3)


def cartan_json(cd):
    return json.dumps(
        {"indices": cd.index_set, "matrix": cd.matrix, "symmetrizer": cd.symmetrizer}
    )


def test_json_round_trip():
    for name in ("a2", "b2", "g2", "b3"):
        cd = preset(name)
        again = cartan_from_json(cartan_json(cd))
        assert again == cd
    custom = validate_cartan([[2, -1], [-1, 2]], index_set=["x", "y"])
    assert cartan_from_json(cartan_json(custom)) == custom


def test_pair_product_classification():
    cd = preset("b2")
    assert cd.pair_product(1, 2) == 2
    assert preset("a2").pair_product(1, 2) == 1
    assert preset("g2").pair_product(1, 2) == 3
    assert preset("a1xa1").pair_product(1, 2) == 0


def test_the_nine_fixed_presets_keep_their_matrices():
    # looked up before any family name, so verify all keeps its contexts;
    # the seven that are family names are also the family builder's
    fixed = {
        "a1": [[2]],
        "a1xa1": [[2, 0], [0, 2]],
        "a2": [[2, -1], [-1, 2]],
        "b2": [[2, -1], [-2, 2]],
        "c2": [[2, -2], [-1, 2]],
        "g2": [[2, -1], [-3, 2]],
        "a3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "b3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        "c3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    }
    assert PRESET_MATRICES == fixed
    for name, m in fixed.items():
        assert preset(name) == preset(name.upper()) == validate_cartan(m)
        if name not in ("a1xa1", "g2"):
            assert cartan._finite_family(name[0], int(name[1])) == preset(name)


def identity(n):
    return tuple(range(1, n + 1))


def swap_last_two(n):
    return identity(n - 2) + (n, n - 1)


# name -> (|R+|, Coxeter number, star involution) of each finite family
# from rank 1 to 8 (Bourbaki, Plates I-IX)
FAMILY_TABLE = {
    **{f"a{n}": (n * (n + 1) // 2, n + 1, identity(n)[::-1]) for n in range(1, 9)},
    **{f"b{n}": (n * n, 2 * n, identity(n)) for n in range(2, 8)},
    **{f"c{n}": (n * n, 2 * n, identity(n)) for n in range(2, 8)},
    **{
        f"d{n}": (n * (n - 1), 2 * n - 2, swap_last_two(n) if n % 2 else identity(n))
        for n in range(4, 9)
    },
    "e6": (36, 12, (6, 2, 5, 4, 3, 1)),
    "e7": (63, 18, identity(7)),
    "e8": (120, 30, identity(8)),
    "f4": (24, 12, identity(4)),
}


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_each_family_name_is_its_finite_type(name):
    positive, coxeter, star = FAMILY_TABLE[name]
    cd = preset(name)
    assert cd == preset(name.upper())
    assert cd.index_set == identity(len(star))
    data = finite_type_data(cd)  # NotFiniteType unless positive definite
    assert len(data.positive_roots) == len(data.longest_word) == positive
    assert data.coxeter_number == coxeter
    assert data.star == star


def test_the_family_orientations():
    # b<n> keeps c_{n,n-1} = -2 and c<n> is its transpose; d<n> attaches n
    # to n-2; e<n> joins 1-3 and 2-4; f4 has c_32 = -2
    for n in range(2, 8):
        b, c = preset(f"b{n}"), preset(f"c{n}")
        assert b.entry(n, n - 1) == -2 and b.entry(n - 1, n) == -1
        assert c.matrix == tuple(zip(*b.matrix))
    assert preset("d5")._neighbours == {1: (2,), 2: (1, 3), 3: (2, 4, 5), 4: (3,), 5: (3,)}
    assert preset("e6")._neighbours == {
        1: (3,), 2: (4,), 3: (1, 4), 4: (2, 3, 5), 5: (4, 6), 6: (5,)
    }
    f4 = preset("f4")
    assert (f4.entry(3, 2), f4.entry(2, 3)) == (-2, -1)
    assert f4.symmetrizer == (2, 2, 1, 1)  # 1 and 2 long, as in b<n> all but n


@pytest.mark.parametrize(
    "name",
    ["a0", "b1", "c1", "d3", "e5", "e9", "f5", "g3", "a03", "a-1", "a 3", "e6 ", "a1xa2",
     "ａ6", "", 5, None],
)
def test_any_other_name_is_an_unknown_preset(name):
    with pytest.raises(NotGCM, match=rf"^unknown Cartan preset {re.escape(repr(name))}$"):
        preset(name)


def test_a_family_past_the_budget_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setenv("BRAIDSEED_BUDGET", "63")
    message = "^type-E context of rank 8 has 64 matrix cells, over the budget of 63$"
    with pytest.raises(BudgetExhausted, match=message):
        preset("e8")
    with pytest.raises(BudgetExhausted, match="^type-D context of rank 8 "):
        preset("D8")
    assert preset("e7").rank == 7
    monkeypatch.setenv("BRAIDSEED_BUDGET", "1")
    assert preset("c3").rank == 3  # the fixed table is not budgeted
    monkeypatch.delenv("BRAIDSEED_BUDGET")
    with pytest.raises(BudgetExhausted, match="rank 448 has 200704 matrix cells"):
        preset("a448")
    # the numeral and the cell count are past Python's 4,300-digit limit
    message = "^type-D context of a 4400-digit rank, over the budget of 200000$"
    with pytest.raises(BudgetExhausted, match=message):
        preset("d" + "9" * 4400)
    with pytest.raises(BudgetExhausted, match="^type-B context of a 2200-digit rank, "):
        preset("b" + "9" * 2200)


@pytest.mark.parametrize(
    "matrix, symmetrizer, error, message",
    [
        ([[2.9, -1.5], [-1, 2]], None, NotGCM, "entry c[0][0] = 2.9"),
        ([[2, -1.0], [-1, 2]], None, NotGCM, "entry c[0][1] = -1.0"),
        ([["2", "-1"], ["-1", "2"]], None, NotGCM, "entry c[0][0] = '2'"),
        ([[2, -1], [-1, Fraction(2)]], None, NotGCM, "entry c[1][1] = Fraction(2, 1)"),
        ([[2, -1], [-2, 2]], [2, 1.0], NotSymmetrizable, "symmetrizer entry d[1] = 1.0"),
        ([[2, -1], [-2, 2]], ["2", 1], NotSymmetrizable, "symmetrizer entry d[0] = '2'"),
    ],
)
def test_validate_refuses_entries_that_are_not_integers(matrix, symmetrizer, error, message):
    with pytest.raises(error, match=rf"^{re.escape(message)} is not an integer$"):
        validate_cartan(matrix, symmetrizer)


def test_validate_takes_any_integer_entries():
    b2 = np.array([[2, -1], [-2, 2]])
    assert validate_cartan(b2, np.array([2, 1])) == preset("b2")
    assert validate_cartan([[2, -1], [-2, 2]], [2, True]) == preset("b2")
