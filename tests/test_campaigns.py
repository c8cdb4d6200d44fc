"""The verify-all campaigns against their per-word loops.

roundtrip_campaign transforms the rows of one window class together, and
mutation_campaign and exact_exchange_campaign check one seed per exchange
matrix, in a table that verify all shares across its contexts.  Each is
compared here with the loop it replaced, with a fault injected so that the
failure paths, their order and the at-most-3-per-pair rule are compared
too.  The seed campaigns rest on a premise tested here as well: apart from
its word, a seed is a function of its exchange matrix.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from braidseed import cli, seeds
from braidseed.cli import (
    CAMPAIGN_RNG_SEED,
    ENTRY_CAP_DEFAULT,
    campaign_contexts,
    exact_exchange_campaign,
    mutation_campaign,
    roundtrip_campaign,
    torus_campaign,
    tsystem_campaign,
)
from braidseed.seeds import (
    _word_seed,
    check_compatibility,
    exchange_check,
    gls_matrix,
    initial_seed,
    mutate_seed,
    solve_lambda,
)
from braidseed.transitions import OrderVerdict
from braidseed.words import Word, WordKind, apply_move, enumerate_moves

CONTEXTS = campaign_contexts(3)
NAMES = [name for name, _ in CONTEXTS]


def braid_words(cd, lo, hi):
    for length in range(lo, hi + 1):
        for letters in itertools.product(cd.index_set, repeat=length):
            yield Word(letters, WordKind.POSITIVE_BRAID)


def roundtrip_per_pair(cd, length_cap, entry_cap=ENTRY_CAP_DEFAULT):
    """roundtrip_campaign as one pair of transition_apply_many calls per
    (word, move) pair, through whatever cli.transition_apply_many is."""
    rng = random.Random(CAMPAIGN_RNG_SEED)
    checked = 0
    failures = []
    for w in braid_words(cd, 2, length_cap):
        for m in enumerate_moves(cd, w).moves:
            wp = apply_move(w, m)
            width = m.kind.window
            lead = m.position - 1
            combos = np.array(
                list(itertools.product(range(entry_cap + 1), repeat=width)),
                dtype=np.int64,
            )
            arr = np.zeros((len(combos) + 1, w.length), dtype=np.int64)
            arr[:-1, lead : lead + width] = combos
            arr[-1] = [rng.randint(0, entry_cap) for _ in range(w.length)]
            image = cli.transition_apply_many(cd, w, m, arr)
            back = cli.transition_apply_many(cd, wp, m, image)
            checked += len(arr)
            if not np.array_equal(back, arr):
                bad = np.nonzero((back != arr).any(axis=1))[0]
                for idx in bad[:3]:
                    failures.append(
                        {"word": list(w.letters), "move": str(m), "vector": arr[idx].tolist()}
                    )
    return checked, failures


# Faults chosen by a row's content alone, so they hit the same rows whether
# the rows are transformed one pair or one window class at a time.  The
# first picks at least 3 window patterns of every width, the zero one among
# them, so a pair's first 3 failures are window rows; the second picks no
# window pattern shorter than its word, so the dense witness rows fail.
FAULTS = {
    "sum-0-mod-7": lambda arr: arr.sum(axis=1) % 7 == 0,
    "no-zero-entry": lambda arr: (arr != 0).all(axis=1),
}


def corrupt_rows(apply, fault):
    """apply, with 1 added to the first entry of every row the fault picks
    from the input rows."""

    def corrupted(cd, w, m, arr):
        out = apply(cd, w, m, arr)
        out[fault(np.asarray(arr)), 0] += 1
        return out

    return corrupted


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name,cd", CONTEXTS, ids=NAMES)
def test_roundtrips_by_class_equal_the_per_pair_loop_with_faults(
    name, cd, fault, monkeypatch
):
    monkeypatch.setattr(
        cli, "transition_apply_many", corrupt_rows(cli.transition_apply_many, FAULTS[fault])
    )
    for cap in range(2, 7):
        expected = roundtrip_per_pair(cd, cap)
        assert roundtrip_campaign(cd, cap) == expected, (name, cap)
        if expected[0]:
            assert expected[1], (name, cap)


def test_the_sum_fault_reaches_the_three_failures_of_a_pair(monkeypatch):
    monkeypatch.setattr(
        cli,
        "transition_apply_many",
        corrupt_rows(cli.transition_apply_many, FAULTS["sum-0-mod-7"]),
    )
    _, failures = roundtrip_campaign(dict(CONTEXTS)["a3"], 4)
    per_pair = Counter((tuple(f["word"]), f["move"]) for f in failures)
    assert max(per_pair.values()) == 3


def mutations_per_word(cd, length_cap):
    """mutation_campaign with one initial_seed per word."""
    checked = 0
    failures = []
    for w in braid_words(cd, 1, length_cap):
        seed = initial_seed(cd, w)
        for k in seed.b.exchange:
            once = cli.mutate_seed(seed, k)
            twice = cli.mutate_seed(once, k)
            checked += 1
            if (
                twice.b.entries != seed.b.entries
                or twice.lam != seed.lam
                or twice.trop != seed.trop
            ):
                failures.append({"word": list(w.letters), "k": k, "kind": "involution"})
            if not check_compatibility(once.lam, once.b):
                failures.append({"word": list(w.letters), "k": k, "kind": "compatibility"})
    return checked, failures


def exchanges_per_word(cd, length_cap):
    """exact_exchange_campaign with one initial_seed per word."""
    checked = 0
    failures = []
    for w in braid_words(cd, 1, length_cap):
        seed = initial_seed(cd, w, exact=True)
        for k in seed.b.exchange:
            check = exchange_check(seed, k, mutate_seed(seed, k))
            checked += 1
            if not check.verified:
                failures.append({"word": list(w.letters), "k": k})
    return checked, failures


def lower_sum(rows):
    """Sum of the strictly lower entries of an exchange matrix's rows."""
    return sum(v for r, row in enumerate(rows) for v in row[:r])


def faulty_mutation(mutate):
    """mutate, broken on the seeds whose B has an even lower_sum: the first
    tropical vector gains 1 in its first entry, which breaks involution.
    The fault reads only what the checks read, so it breaks whole
    exchange-matrix classes and spares others."""

    def broken(seed, k):
        out = mutate(seed, k)
        if lower_sum(seed.b.entries) % 2:
            return out
        first = (out.trop[0][0] + 1,) + tuple(out.trop[0][1:])
        return replace(out, trop=(first,) + out.trop[1:])

    return broken


def faulty_step(step):
    """The in-place step, broken on the states whose B has an even
    lower_sum before the step: the new exact variable at k is shifted by
    q, which breaks the exchange relation of every checked mutation."""

    def broken(state, k):
        even = lower_sum(state.b) % 2 == 0
        out = step(state, k)
        if even and state.exact is not None:
            state.exact[k - 1] = state.exact[k - 1].q_shift(2)
        return out

    return broken


def inject_faults(monkeypatch):
    """faulty_mutation into the mutation campaign's mutate_seed, and
    faulty_step into the step that every exact mutation runs."""
    monkeypatch.setattr(cli, "mutate_seed", faulty_mutation(cli.mutate_seed))
    monkeypatch.setattr(seeds, "_mutate_in_place", faulty_step(seeds._mutate_in_place))


def counting(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("name,cd", CONTEXTS, ids=NAMES)
def test_one_pairing_solve_per_exchange_matrix(name, cd, monkeypatch):
    calls = counting(monkeypatch, "solve_lambda")
    for campaign, reference, cap in (
        (mutation_campaign, mutations_per_word, 4),
        (exact_exchange_campaign, exchanges_per_word, 3),
    ):
        distinct = {gls_matrix(cd, w) for w in braid_words(cd, 1, cap)}
        calls.clear()
        assert campaign(cd, cap) == reference(cd, cap)
        assert len(calls) == len(distinct), (name, campaign.__name__)
        assert {b for (b,) in calls} == distinct


@pytest.mark.parametrize("name,cd", CONTEXTS, ids=NAMES)
def test_seed_campaigns_equal_the_per_word_loops_with_faults(name, cd, monkeypatch):
    inject_faults(monkeypatch)
    for campaign, reference, cap in (
        (mutation_campaign, mutations_per_word, 4),
        (exact_exchange_campaign, exchanges_per_word, 3),
    ):
        checked, failures = reference(cd, cap)
        assert campaign(cd, cap) == (checked, failures), (name, campaign.__name__)
        if checked:
            # the fault breaks some words and spares others
            exchanging = {
                w.letters
                for w in braid_words(cd, 1, cap)
                if gls_matrix(cd, w).exchange
            }
            failing = {tuple(f["word"]) for f in failures}
            assert failing and failing < exchanging, (name, campaign.__name__)


def test_a_seed_is_a_function_of_its_exchange_matrix():
    """Every word of length <= 5 in every campaign context, grouped by
    gls_matrix across contexts: one group gives one seed, word apart, and
    the strictly lower +1 entries of B are the links (k, k-)."""
    groups = {}
    for _, cd in CONTEXTS:
        for w in braid_words(cd, 1, 5):
            b = gls_matrix(cd, w)
            links = {(k, w.before(k, w.letter(k))) for k in range(1, w.length + 1)}
            lower_ones = {
                (k, l)
                for k in range(1, w.length + 1)
                for l in range(1, k)
                if b.entry(k, l) == 1
            }
            assert lower_ones == {(k, l) for k, l in links if l}, w.letters
            groups.setdefault(b, []).append((cd, w))
    assert any(len({id(cd) for cd, _ in words}) > 1 for words in groups.values())
    for b, words in groups.items():
        lam = solve_lambda(b)
        seeds = [_word_seed(w, b, lam, True) for _, w in words]
        for seed in seeds[1:]:
            assert replace(seed, word=seeds[0].word) == seeds[0], seed.word.letters


def verify_all(*extra):
    argv = ["verify", "all", "--rank-cap", "3", "--length-cap", "4", *extra]
    return cli.dispatch(cli.parse_args(argv))


@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
def test_verify_all_reports_every_word_of_every_context_with_faults(
    exact, monkeypatch
):
    inject_faults(monkeypatch)
    report = verify_all(*(["--exact"] if exact else []))
    assert report.verdict == "Mismatch"
    seed_campaigns = [("mutations", "mutation-failures", mutations_per_word, 4)]
    if exact:
        seed_campaigns.append(("exchange-steps", "exchange-failures", exchanges_per_word, 4))
    for name, cd in CONTEXTS:
        for checked_label, failures_label, reference, cap in seed_campaigns:
            checked, failures = reference(cd, cap)
            assert report.section(f"{checked_label}-{name}").left == checked, name
            assert report.section(f"{failures_label}-{name}").left == failures, name


def test_verify_all_checks_each_exchange_matrix_once_per_run(monkeypatch):
    solves = counting(monkeypatch, "solve_lambda")
    mutations = counting(monkeypatch, "mutate_seed")
    distinct = {
        gls_matrix(cd, w) for _, cd in CONTEXTS for w in braid_words(cd, 1, 4)
    }
    assert verify_all().verdict == "Match"
    assert len(solves) == len(distinct)
    assert {b for (b,) in solves} == distinct
    assert len(mutations) == 2 * sum(len(b.exchange) for b in distinct)


# Faults for the failure rows that the faults above never produce: the
# compatibility kind of the mutation campaign, the torus campaign's {a, b}
# rows and both kinds of the T-system campaign.  Each reference lists the
# rows its fault injects, since without a fault every campaign is empty.


def perturbed_lambda(mutate):
    """mutate, with the once-mutated Lambda perturbed: mutating a slot k not
    yet mutated adds 1 to Lambda at (1, l), l the first nonzero entry of
    column k of B, and mutating it back takes that 1 off first.  So the
    once-mutated pair is never compatible, and mutating twice still gives
    the seed back."""

    def shift(seed, k, by):
        l = next(t for t, v in enumerate(seed.b.column(k), 1) if v)
        first = seed.lam[0][: l - 1] + (seed.lam[0][l - 1] + by,) + seed.lam[0][l:]
        return replace(seed, lam=(first,) + seed.lam[1:])

    def broken(seed, k):
        if seed.labels[k - 1].startswith("mu"):
            return mutate(shift(seed, k, -1), k)
        return shift(mutate(seed, k), k, 1)

    return broken


def compatibility_failures(cd, length_cap):
    return [
        {"word": list(w.letters), "k": k, "kind": "compatibility"}
        for w in braid_words(cd, 1, length_cap)
        for k in gls_matrix(cd, w).exchange
    ]


def shifted_commutation(doubled):
    """doubled, off by 2 on the pairs whose first entries agree."""
    return lambda lam, a, b: doubled(lam, a, b) + 2 * (a[0] == b[0])


def shifted_torus_failures(rank, pairs=200):
    """The {a, b} rows of shifted_commutation: the campaign's pairs drawn
    again, in order, kept where the first entries agree."""
    rng = random.Random(CAMPAIGN_RNG_SEED)
    failures = []
    for _ in range(pairs):
        a = [rng.randint(-3, 3) for _ in range(rank)]
        b = [rng.randint(-3, 3) for _ in range(rank)]
        if a[0] == b[0]:
            failures.append({"a": a, "b": b})
    return failures


def faulty_tsystem_terms(terms):
    """terms, whose left sum gains 1 on the boxes that start at position 1
    and whose lower verdict is Greater on the boxes [ks[s], ks[s + 2]]."""

    def broken(n, ks, s, t, powers):
        left, right, lower, verdict = terms(n, ks, s, t, powers)
        if ks[s] == 1:
            left = (left[0] + 1,) + left[1:]
        if t == s + 2:
            verdict = OrderVerdict.GREATER
        return left, right, lower, verdict

    return broken


def faulty_tsystem_failures(cd, length_cap):
    """The rows of faulty_tsystem_terms, box by box in campaign order."""
    failures = []
    for w in braid_words(cd, 1, length_cap):
        for a, i in enumerate(w.letters, 1):
            later = [b for b in w.positions[i] if b > a]
            for t, b in enumerate(later, 1):
                row = {"word": list(w.letters), "box": [a, b]}
                if a == 1:
                    failures.append({**row, "kind": "identity"})
                if t == 2:
                    failures.append({**row, "kind": "lower-dominant"})
    return failures


def test_a_perturbed_once_mutated_lambda_fails_compatibility_only(monkeypatch):
    monkeypatch.setattr(cli, "mutate_seed", perturbed_lambda(cli.mutate_seed))
    cd = dict(CONTEXTS)["a2"]
    assert mutation_campaign(cd, 2) == (
        2,
        [
            {"word": [1, 1], "k": 2, "kind": "compatibility"},
            {"word": [2, 2], "k": 2, "kind": "compatibility"},
        ],
    )
    for name, cd in CONTEXTS:
        expected = compatibility_failures(cd, 4)
        assert mutation_campaign(cd, 4) == (len(expected), expected), name
    report = verify_all()
    assert report.verdict == "Mismatch"
    for name, cd in CONTEXTS:
        failures = report.section(f"mutation-failures-{name}").left
        assert failures == compatibility_failures(cd, 4), name


def test_a_shifted_commutation_fails_the_torus_pairs_it_shifts(monkeypatch):
    monkeypatch.setattr(
        cli, "commutation_doubled", shifted_commutation(cli.commutation_doubled)
    )
    cd = dict(CONTEXTS)["a2"]
    assert torus_campaign(cd, 3, pairs=6) == (
        6, [{"a": [-2, -3, 3], "b": [-2, 2, 0]}]
    )
    for name, cd in CONTEXTS:
        assert torus_campaign(cd, 5) == (200, shifted_torus_failures(5)), name
    report = verify_all("--exact")
    assert report.verdict == "Mismatch"
    for name, _ in CONTEXTS:
        failures = report.section(f"torus-failures-{name}").left
        assert failures == shifted_torus_failures(4), name
        assert report.section(f"exchange-failures-{name}").agree, name


def test_faulty_tsystem_terms_fail_identity_and_lower_dominance(monkeypatch):
    monkeypatch.setattr(
        seeds, "_tsystem_terms", faulty_tsystem_terms(seeds._tsystem_terms)
    )
    assert tsystem_campaign(dict(CONTEXTS)["a1"], 3) == (
        10,
        [
            {"word": [1, 1], "box": [1, 2], "kind": "identity"},
            {"word": [1, 1, 1], "box": [1, 2], "kind": "identity"},
            {"word": [1, 1, 1], "box": [1, 3], "kind": "identity"},
            {"word": [1, 1, 1], "box": [1, 3], "kind": "lower-dominant"},
        ],
    )
    report = verify_all()
    assert report.verdict == "Mismatch"
    for name, cd in CONTEXTS:
        failures = report.section(f"tsystem-failures-{name}").left
        assert failures == faulty_tsystem_failures(cd, 4), name
        assert report.section(f"mutation-failures-{name}").agree, name
