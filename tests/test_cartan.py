"""Cartan matrix validation and root arithmetic, checked against a brute-force
Weyl group built by BFS on permutation-of-roots representations."""
from __future__ import annotations

import random

import pytest

from braidseed import cartan
from braidseed.cartan import (
    bilinear_form,
    cartan_from_json,
    cartan_to_json,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
    validate_cartan,
    weyl_act,
)
from braidseed.errors import NotFiniteType, NotGCM, NotSymmetrizable


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
    closures = []
    closure = cartan._positive_root_closure
    monkeypatch.setattr(
        cartan, "_positive_root_closure", lambda cd: closures.append(cd) or closure(cd)
    )
    affine_a3 = validate_cartan(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    )
    with pytest.raises(NotFiniteType, match="not positive definite"):
        finite_type_data(affine_a3)
    assert closures == []
    finite_type_data(preset("b3"))
    assert len(closures) == 1
    # hyperbolic: minors 2, 3, then the determinant -8
    hyperbolic = validate_cartan([[2, -1, -1], [-1, 2, -2], [-1, -2, 2]])
    with pytest.raises(NotFiniteType, match="minor of order 3 is -8"):
        finite_type_data(hyperbolic)


def test_minors_agree_with_the_rank_two_classification():
    # rank 2 is of finite type exactly when c_12 * c_21 <= 3
    for a in range(5):
        for b in range(5):
            if (a == 0) != (b == 0):
                continue
            cd = validate_cartan([[2, -a], [-b, 2]])
            assert (cartan._first_nonpositive_minor(cd) is None) == (a * b <= 3)


def test_json_round_trip():
    for name in ("a2", "b2", "g2", "b3"):
        cd = preset(name)
        again = cartan_from_json(cartan_to_json(cd))
        assert again == cd
    custom = validate_cartan([[2, -1], [-1, 2]], index_set=["x", "y"])
    assert cartan_from_json(cartan_to_json(custom)) == custom


def test_pair_product_classification():
    cd = preset("b2")
    assert cd.pair_product(1, 2) == 2
    assert preset("a2").pair_product(1, 2) == 1
    assert preset("g2").pair_product(1, 2) == 3
    assert preset("a1xa1").pair_product(1, 2) == 0
