"""The four seeded workloads of the braidseed benchmark.

Each workload builds its Cartan contexts (timed as set-up), then turns the
workload seed into one round: a list of instances, each a call into the
public API of braidseed plus a known-answer check of its output.  The
benchmark repeats the round until the measuring time is used up.

Program functions are looked up on the module at call time, so the tracer's
wrappers see the calls the benchmark makes.
"""
from __future__ import annotations

import hashlib
import itertools
from array import array
from dataclasses import dataclass
from typing import Any, Callable


class WrongAnswer(Exception):
    """An output failed its known-answer check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Instance:
    """One verdict: run() calls the program and is timed; check(output)
    raises WrongAnswer or returns the number of work items verified;
    render(output) is the canonical text compared between traced and
    untraced runs."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], int]
    render: Callable[[Any], str] = repr


def type_a(n: int) -> list:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def type_b(n: int) -> list:
    """B_n in the orientation of the b3 preset: c_{n,n-1} = -2."""
    m = type_a(n)
    m[n - 1][n - 2] = -2
    return m


def type_d(n: int) -> list:
    """D_n: a path 1..n-1 with vertex n attached to n-2."""
    m = type_a(n)
    m[n - 2][n - 1] = m[n - 1][n - 2] = 0
    m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


def cartan_context(bs, matrix) -> tuple:
    """(CartanData, FiniteTypeData) of a Cartan matrix."""
    cd = bs.cartan.validate_cartan(matrix)
    return cd, bs.cartan.finite_type_data(cd)


class MoveGraph:
    """The move graph of one component of reduced words: the words, as
    bytes of their letters (small integers), in the BFS discovery order
    from the first word, and for each word the indices of its neighbours in
    enumerate_moves order.  It is built once with the program's own
    enumerate_moves and apply_move; a BFS over the indices then visits the
    words in the same order as the program's search, so the position of a
    target in it is the work a path search to it does.  Integer arrays keep
    it smaller than the program's search, so it stays below the program in
    peak_rss_mb."""

    def __init__(self, bs, cd, letters: tuple):
        Word = bs.words.Word
        self.words = [bytes(letters)]
        index = {self.words[0]: 0}
        self.ends = array("i")  # neighbours of word i: targets[ends[i-1]:ends[i]]
        self.targets = array("i")
        for current in self.words:  # the list grows behind the loop: a FIFO queue
            word = Word(tuple(current))
            for move in bs.words.enumerate_moves(cd, word).moves:
                nxt = bytes(bs.words.apply_move(word, move).letters)
                if nxt not in index:
                    index[nxt] = len(self.words)
                    self.words.append(nxt)
                self.targets.append(index[nxt])
            self.ends.append(len(self.targets))

    def bfs_order(self, start: int) -> list:
        """Indices of the words in BFS discovery order from word start."""
        seen = bytearray(len(self.words))
        seen[start] = 1
        order = [start]
        for i in order:
            for j in self.targets[self.ends[i - 1] if i else 0:self.ends[i]]:
                if not seen[j]:
                    seen[j] = 1
                    order.append(j)
        return order


def stratified_pairs(
    bs, cd, w0: tuple, rng, starts: int, per_start: int, skip: float
) -> list:
    """Seeded pairs (a, b) of reduced words of w0.

    The starts a are drawn uniformly from the component.  The targets of a
    start sit at the midpoints of per_start equal slices of the BFS order
    from a, after its first skip share (a itself left out), so every round
    asks the path search for the same amount of work whatever the seed.
    """
    graph = MoveGraph(bs, cd, w0)
    pairs = []
    for a in rng.sample(sorted(graph.words), starts):
        order = graph.bfs_order(graph.words.index(a))[1:]
        first = int(skip * len(order))
        span = len(order) - first
        for k in range(per_start):
            b = graph.words[order[first + (2 * k + 1) * span // (2 * per_start)]]
            pairs.append((tuple(a), tuple(b)))
    return pairs


def check_path(bs, a: tuple, b: tuple, path) -> None:
    word = bs.words.Word(a)
    for move in path:
        word = bs.words.apply_move(word, move)
    expect(word.letters == b, f"move path from {a} does not reach {b}")


def equivalence_instance(bs, family: str, cd, a: tuple, b: tuple, exact: bool):
    Word, kind = bs.words.Word, bs.words.WordKind.WEYL_REDUCED

    def run():
        return bs.seeds.seed_equivalence_report(
            cd, Word(a, kind), Word(b, kind), exact=exact
        )

    def check(report) -> int:
        label = f"{family} {a} -> {b}"
        expect(report.match, f"{label}: transported seed does not match")
        expect(report.lam_gauge_in_kernel, f"{label}: Lambda gauge outside the kernel")
        if exact:
            expect(report.exact_verified is True, f"{label}: exact track not verified")
        check_path(bs, a, b, report.path)
        return 1

    word_text = "".join(map(str, a)) + " -> " + "".join(map(str, b))
    return Instance(f"{family} pair {word_text}", run, check)


# ---------------------------------------------------------------------------
# campaign-sweep


CAMPAIGN_ARGV = ["verify", "all", "--rank-cap", "3", "--length-cap", "4", "--format", "json"]
# Known answers of CAMPAIGN_ARGV, from the commit that defined the benchmark:
# the SHA-256 of the JSON report bytes and the summed work-item counts.
CAMPAIGN_DIGEST = "d579d93d67410b13361a1c92411031bb3217b69bb67d4c020d34af337b2c0694"
CAMPAIGN_ITEMS = 22684
CAMPAIGN_ITEM_SECTIONS = ("round-trips-", "mutations-", "tsystem-boxes-")


def campaign_contexts(bs) -> dict:
    """The presets `verify all --rank-cap 3` runs on.  Only set-up times
    them: the command builds its own contexts on every pass."""
    return {"campaign": bs.cli.campaign_contexts(3)}


def campaign_round(bs, contexts, rng) -> list:
    """One in-process `verify all`: parse, dispatch, emit.  The campaign's
    inputs are fixed by the command line, so the seed draws nothing."""

    def run():
        config = bs.cli.parse_args(CAMPAIGN_ARGV)
        report = bs.cli.dispatch(config)
        return report, bs.reports.emit_report(report, config.format)

    def check(output) -> int:
        report, blob = output
        expect(report.verdict == "Match", f"verify all verdict {report.verdict}")
        expect(report.exit_code == 0, f"verify all exit code {report.exit_code}")
        digest = hashlib.sha256(blob).hexdigest()
        expect(digest == CAMPAIGN_DIGEST, f"report digest {digest} != {CAMPAIGN_DIGEST}")
        items = sum(
            s.left
            for s in report.sections
            if s.name.startswith(CAMPAIGN_ITEM_SECTIONS)
        )
        expect(items == CAMPAIGN_ITEMS, f"{items} campaign items != {CAMPAIGN_ITEMS}")
        return items

    return [Instance("verify all", run, check, render=lambda output: output[1].decode())]


# ---------------------------------------------------------------------------
# longest-word


# family -> (matrix, starts, targets per start, share of the BFS order
# skipped).  The median instance is the middle of 48 D4 pairs, and the ten
# slowest after the D5 seed are B4 pairs, so the tail is the middle of 20 B4
# pairs: neither is an extreme of a few.  Pairs of one start share its cost,
# so the tail needs many B4 starts.  B4 targets lie in the far half of the
# BFS order: with targets spread over the whole order, the middle of the B4
# pairs fell between the near and the far targets and moved by a fifth from
# seed to seed.
LONGEST_PAIRS = {
    "A4": (type_a(4), 8, 2, 0),
    "D4": (type_d(4), 24, 2, 0),
    "B4": (type_b(4), 10, 2, 0.5),
}
# The A5 seed did not finish within the time limit when the benchmark was
# defined; it is the frontier instance that keeps decided_share below 1.
LONGEST_FRONTIER = {"D5": type_d(5), "A5": type_a(5)}


def longest_contexts(bs) -> dict:
    families = {name: spec[0] for name, spec in LONGEST_PAIRS.items()}
    families.update(LONGEST_FRONTIER)
    return {name: cartan_context(bs, matrix) for name, matrix in families.items()}


def longest_round(bs, contexts, rng) -> list:
    instances = []
    for family, (_, starts, per_start, skip) in LONGEST_PAIRS.items():
        cd, data = contexts[family]
        for a, b in stratified_pairs(bs, cd, data.longest_word, rng, starts, per_start, skip):
            instances.append(equivalence_instance(bs, family, cd, a, b, exact=False))
    for family in LONGEST_FRONTIER:
        instances.append(frontier_instance(bs, family, *contexts[family]))
    rng.shuffle(instances)  # a change of host speed mid-round hits every family alike
    return instances


def frontier_instance(bs, family: str, cd, data) -> Instance:
    """Seed of the canonical longest word: the pairing solve is the frontier."""
    word = bs.words.Word(data.longest_word, bs.words.WordKind.WEYL_REDUCED)

    def run():
        return bs.seeds.initial_seed(cd, word)

    def check(seed) -> int:
        expect(
            bs.seeds.check_compatibility(seed.lam, seed.b),
            f"{family} w0 seed: Lambda is not compatible with B",
        )
        return 1

    return Instance(f"{family} w0 seed", run, check)


# ---------------------------------------------------------------------------
# exact-track


EXACT_FAMILIES = ("b3", "c3")
# Known answers of exact_exchange_campaign(cd, 4) per campaign context.
EXCHANGE_STEPS = {
    "a1": 6, "a1xa1": 46, "a2": 46, "a3": 156,
    "b2": 46, "b3": 156, "c2": 46, "c3": 156,
}
TORUS_PAIRS = 200


def exact_contexts(bs) -> dict:
    contexts = {name: cartan_context(bs, bs.cartan.PRESET_MATRICES[name])
                for name in EXACT_FAMILIES}
    contexts["campaign"] = bs.cli.campaign_contexts(3)
    return contexts


def exact_round(bs, contexts, rng) -> list:
    """Every reduced word of w0 in B3 and C3 paired with the canonical w0
    word, in both directions, plus the exact campaigns of every rank <= 3
    context.  Exact pair costs are heavy-tailed (a few ms to 0.4 s, steeply
    rising with path length), so a seeded sample that fits in a round would
    move the round's cost by a quarter from seed to seed; the seed only
    orders the instances."""
    instances = []
    for family in EXACT_FAMILIES:
        cd, data = contexts[family]
        w0 = tuple(data.longest_word)
        for other in map(tuple, sorted(MoveGraph(bs, cd, w0).words)):
            if other == w0:
                continue
            instances.append(equivalence_instance(bs, family, cd, other, w0, exact=True))
            instances.append(equivalence_instance(bs, family, cd, w0, other, exact=True))
    for name, cd in contexts["campaign"]:
        instances.append(campaign_instance(bs, name, cd, "exchange"))
        instances.append(campaign_instance(bs, name, cd, "torus"))
    rng.shuffle(instances)
    return instances


def campaign_instance(bs, name: str, cd, kind: str) -> Instance:
    if kind == "exchange":
        want = EXCHANGE_STEPS[name]

        def run():
            return bs.cli.exact_exchange_campaign(cd, 4)
    else:
        want = TORUS_PAIRS

        def run():
            return bs.cli.torus_campaign(cd, min(6, 2 * cd.rank), TORUS_PAIRS)

    def check(output) -> int:
        checked, failures = output
        expect(failures == [], f"{kind} campaign on {name}: failures {failures[:3]}")
        expect(checked == want, f"{kind} campaign on {name}: {checked} checks != {want}")
        return 1

    return Instance(f"{kind} campaign {name}", run, check)


# ---------------------------------------------------------------------------
# qdatum-sweep


# family -> (matrix, b, heights per round).  The ten slowest instances are
# the D4 heights and the top of 12 A4 heights, so the tail sits inside the A4
# group rather than at the extreme of the A3 heights.
QDATUM_FAMILIES = {
    "A3": (type_a(3), 5, 30),
    "A4": (type_a(4), 2, 12),
    "D4": (type_d(4), 2, 3),
}
SERIES_ORDER = 40
SERIES_LEVELS = range(-4, 5)


def qdatum_contexts(bs) -> dict:
    return {name: cartan_context(bs, spec[0]) for name, spec in QDATUM_FAMILIES.items()}


def valid_heights(bs, cd, b: int, shift: int) -> list:
    """Every height with entries in [-b, b] that passes validate_height,
    translated by shift (translation keeps validity and every answer)."""
    out = []
    for xi in itertools.product(range(-b, b + 1), repeat=cd.rank):
        try:
            bs.qdatum.validate_height(cd, xi)
        except bs.errors.HeightParityViolation:
            continue
        out.append(tuple(v + shift for v in xi))
    return out


def qdatum_round(bs, contexts, rng) -> list:
    """A seeded sample of the valid heights of each family, translated by a
    seeded shift, plus the quantum Cartan series checks.  Every valid height
    of D4 with b = 1 alone takes about 10 s, too long for one round."""
    instances = []
    for family, (_, b, count) in QDATUM_FAMILIES.items():
        cd, data = contexts[family]
        heights = valid_heights(bs, cd, b, rng.randint(-3, 3))
        for xi in rng.sample(heights, count):
            instances.append(height_instance(bs, family, cd, data, xi))
        instances.append(series_instance(bs, family, cd))
    rng.shuffle(instances)
    return instances


def height_instance(bs, family: str, cd, data, xi: tuple) -> Instance:
    qdatum = bs.qdatum
    roots = len(data.positive_roots)

    def run():
        qd = qdatum.validate_height(cd, xi)
        word = qdatum.adapted_word(qd)
        windows = [qdatum.delta_window(qd, k) for k in (-1, 0, 1)]
        points = sorted(set().union(*windows), key=lambda pt: (pt.vertex, pt.level))
        trips = []
        for pt in points:
            root, level = qdatum.phi_map(qd, pt)
            trips.append((pt, (root, level), qdatum.phi_inverse(qd, root, level)))
        return word, windows, trips

    def check(output) -> int:
        word, windows, trips = output
        label = f"{family} height {xi}"
        expect(word.length == roots, f"{label}: adapted word of length {word.length}")
        expect(
            bs.cartan.roots_of_word(cd, word.letters).all_positive,
            f"{label}: adapted word is not reduced",
        )
        for window in windows:
            expect(len(window) == roots, f"{label}: window of size {len(window)} != {roots}")
        images = [value for _, value, _ in trips]
        expect(len(set(images)) == len(images), f"{label}: phi is not injective")
        for pt, value, back in trips:
            expect(back == pt, f"{label}: phi_inverse(phi({pt})) = {back}")
        return len(trips)

    def render(output) -> str:
        word, windows, trips = output
        return repr((word, [sorted(map(str, w)) for w in windows], trips))

    return Instance(f"{family} height {xi}", run, check, render)


def series_instance(bs, family: str, cd) -> Instance:
    qdatum = bs.qdatum
    Point = qdatum.RepetitionPoint

    def run():
        series = qdatum.cartan_tilde(cd, SERIES_ORDER)
        rows = []
        for i, j in itertools.product(cd.index_set, repeat=2):
            for p, q in itertools.product(SERIES_LEVELS, repeat=2):
                x, y = Point(i, p), Point(j, q)
                rows.append((
                    x,
                    y,
                    qdatum.n_form(series, x, y),
                    qdatum.n_form(series, y, x),
                    qdatum.n_form(series, Point(i, p + 2), Point(j, q + 2)),
                ))
        return rows

    def check(rows) -> int:
        for x, y, value, swapped, shifted in rows:
            expect(value == -swapped, f"{family}: N({x},{y}) is not antisymmetric")
            expect(shifted == value, f"{family}: N({x},{y}) is not translation invariant")
        return 0

    return Instance(f"{family} series", run, check)


@dataclass(frozen=True)
class Workload:
    """A workload's set-up (its Cartan contexts) and its seeded round.  The
    reason for each workload is recorded in BENCHMARK.json and the README."""

    name: str
    contexts: Callable
    round: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign-sweep", campaign_contexts, campaign_round),
        Workload("longest-word", longest_contexts, longest_round),
        Workload("exact-track", exact_contexts, exact_round),
        Workload("qdatum-sweep", qdatum_contexts, qdatum_round),
    )
}
