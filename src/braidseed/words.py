"""Words over a Cartan index set, the 2-/3-/4-move rewriting system, search
over the move graph, and i-box index combinatorics.

The move-graph search returns the lexicographically least shortest path:
of the shortest paths, the smallest by move positions in order.  Between
reduced words it deepens iteratively on the rank-2 packets of roots still
out of the target's order, depth-first in each round, and finds the same
path as an unbounded BFS from far fewer words; between non-reduced words
it is one BFS.  Words that moves cannot connect (their reducedness or
Weyl elements differ) are refused without a search.

Positions are 1-based throughout.  Where a letter occurs is read only
from the word's position index, Word.positions, directly or through
Word.before and Word.after; neighbours a-/a+, i-boxes and exchange slots
all come from it, and so does every box vector: _positions_vector marks
a slice of one letter's positions.  _box_vector bisects the slice in
[lo, hi] for ibox_vector and the right-anchored boxes of initial seeds;
the T-system terms in seeds slice by index, ks[s:t+1] for the box
[ks[s], ks[t]] of a letter with positions ks.

The braid relations come from one table per Cartan context,
CartanData._relations, cached with it like its finite-type data: (i, j)
maps to the window i j i ... of length 2, 3, 4 or 6 by c_ij * c_ji, and
the rewrite is the window of (j, i).  enumerate_moves, the move-graph
search, the kind check of _move_window and the 6-move refusal all read it.
6-move windows (c_ij * c_ji = 3) are detected and refused rather than
rewritten.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .cartan import CartanData, _alternating, _check_letters, _WeylWalk, roots_of_word
from .errors import (
    BudgetExhausted,
    InvalidBox,
    MoveNotApplicable,
    NotConnected,
    UnsupportedCartanPair,
    default_budget,
)


class WordKind(Enum):
    WEYL_REDUCED = "weyl-reduced"
    POSITIVE_BRAID = "positive-braid"


@dataclass(frozen=True)
class Word:
    letters: tuple
    kind: WordKind = WordKind.WEYL_REDUCED

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    def letter(self, k: int):
        """Letter at 1-based position k."""
        return self.letters[k - 1]

    @cached_property
    def positions(self) -> dict:
        """letter -> ascending positions carrying it, letters in order of
        first occurrence; built once per word."""
        out = {}
        for k, i in enumerate(self.letters, 1):
            out.setdefault(i, []).append(k)
        return {i: tuple(ks) for i, ks in out.items()}

    def before(self, a: int, i) -> int:
        """Last position < a carrying letter i; 0 when there is none."""
        ks = self.positions.get(i, ())
        t = bisect_left(ks, a)
        return ks[t - 1] if t else 0

    def after(self, a: int, i) -> int:
        """First position > a carrying letter i; length + 1 when there is none."""
        ks = self.positions.get(i, ())
        t = bisect_right(ks, a)
        return ks[t] if t < len(ks) else self.length + 1

    def replace(self, k: int, new_window: Sequence) -> "Word":
        """New word with positions k..k+len(new_window)-1 overwritten."""
        out = list(self.letters)
        out[k - 1 : k - 1 + len(new_window)] = list(new_window)
        return Word(tuple(out), self.kind)


def validate_word(cd: CartanData, w: Word) -> None:
    """Check letters lie in the index set; WeylReduced words must be reduced."""
    _check_letters(cd, w.positions)
    if w.kind is WordKind.WEYL_REDUCED:
        if not roots_of_word(cd, w.letters).all_positive:
            raise MoveNotApplicable(
                f"word {w.letters} is not a reduced expression"
            )


class MoveKind(Enum):
    TWO = 2
    THREE = 3
    FOUR = 4

    @property
    def window(self) -> int:
        return self.value


# Move kinds by the text naming them on the command line and in JSON.
MOVE_KINDS = {str(kind.window): kind for kind in MoveKind}


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    position: int  # leftmost index of the affected window, 1-based

    def __str__(self) -> str:
        return f"{self.kind.name.title()}@{self.position}"


class MoveScan(NamedTuple):
    moves: tuple
    unsupported: tuple  # leftmost positions of 6-move windows


def _move_window(w: Word, m: Move, cd: Optional[CartanData] = None) -> tuple:
    """Validate the window of m in w and return (i, j, k).

    Checks, in order: the window lies in the word, its first two letters
    differ, both are in the index set (InvalidBox) and their relation in
    cd's table has m's length (only when cd is given; 6-move pairs are
    UnsupportedCartanPair), and the window alternates i j i ...
    """
    k = m.position
    size = m.kind.window
    if k < 1 or k + size - 1 > w.length:
        raise MoveNotApplicable(f"{m} window leaves the word")
    window = w.letters[k - 1 : k - 1 + size]
    i, j = window[0], window[1]
    if i == j:
        raise MoveNotApplicable(f"{m} window letters are equal")
    if cd is not None:
        _check_letters(cd, (i, j))
        relation = cd._relations.get((i, j), ())
        if len(relation) == 6:
            raise UnsupportedCartanPair(
                f"{m}: letters {i!r}, {j!r} form a 6-move Cartan pair"
            )
        if len(relation) != size:
            raise MoveNotApplicable(
                f"{m}: c_ij*c_ji = {cd.pair_product(i, j)} does not match the move kind"
            )
    shape = _alternating(i, j, size)
    if window != shape:
        raise MoveNotApplicable(f"{m}: window {window} is not of shape {shape}")
    return i, j, k


def _windows(relations: dict, letters: tuple, lo: int = 0, hi: Optional[int] = None):
    """(k, window) for each relation window of letters whose 0-based start k
    lies in [lo, hi), in ascending k; at most one window starts at k, the
    one relation of the letter pair there."""
    top = len(letters) - 1 if hi is None else min(hi, len(letters) - 1)
    for k in range(lo, top):
        window = relations.get(letters[k : k + 2])
        if window is not None and letters[k : k + len(window)] == window:
            yield k, window


def enumerate_moves(cd: CartanData, w: Word) -> MoveScan:
    """All applicable moves, plus positions of 6-move windows we refuse."""
    _check_letters(cd, w.letters)
    moves = []
    unsupported = []
    for k, window in _windows(cd._relations, w.letters):
        if len(window) == 6:
            unsupported.append(k + 1)
        else:
            moves.append(Move(MoveKind(len(window)), k + 1))
    return MoveScan(tuple(moves), tuple(unsupported))


def apply_move(w: Word, m: Move) -> Word:
    """Rewrite the window of m; shape-level applicability is checked here.

    The Cartan-entry side of applicability is established by enumerate_moves;
    this function only needs the letters to match the window pattern.
    """
    i, j, k = _move_window(w, m)
    return w.replace(k, _alternating(j, i, m.kind.window))


def _path_windows(cd: CartanData, w: Word, path: Sequence[Move]) -> list:
    """(i, j, k) of each move of path, walked from w: every window is
    validated once, by _move_window against cd, and rewritten to j i j ...
    without a second check.  Walked back from the end of the path, move t
    meets its window with i and j swapped."""
    windows = []
    for move in path:
        i, j, k = _move_window(w, move, cd)
        windows.append((i, j, k))
        w = w.replace(k, _alternating(j, i, move.kind.window))
    return windows


def _check_no_sixmove_pairs(cd: CartanData, letters: Sequence) -> None:
    present = sorted(set(letters), key=cd.position.__getitem__)
    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            if len(cd._relations.get((present[a], present[b]), ())) == 6:
                raise UnsupportedCartanPair(
                    f"letters {present[a]!r}, {present[b]!r} have c_ij*c_ji = 3; "
                    "their braid relation is outside the move system"
                )


def _bfs(cd: CartanData, start: Word, target: tuple, budget: int):
    """Search the move graph from start for target.

    Returns ('found', path) when target is reached, ('exhausted', None) when
    target is provably not connected to start, ('budget', None) once
    `budget` words have been discovered, counted over all rounds.  The path
    is the lexicographically least shortest one: of the shortest paths, the
    smallest by move positions in order.

    Moves keep reducedness and the Weyl element (Matsumoto-Tits), so two
    words that differ in either are refused before any search, by one test
    on one cartan._WeylWalk per word: its reducedness and its final images
    w(alpha_i), which fix the Weyl element.  Two reduced words of one
    element have one inversion set, so each root of start is a root of
    target and gets a label below.  Non-reduced words are then searched by one plain BFS; reduced
    words left are of one element, so moves connect them (Matsumoto 1964)
    and their rounds end only in 'found' or 'budget'.

    A reduced word carries labels: the positions of its roots beta_k in
    target's root order.  A move reverses the labels of its window, one
    whole rank-2 packet of roots (a commuting pair, an A2 triple or a B2
    quadruple), so it changes the number h of packets out of target order
    by exactly one: up when labels[k] < labels[k+1].  A path of length d
    thus makes (d - h(start)) / 2 up moves, and h is an exact lower bound on
    the distance.  Round e = 0, 1, ... of this iterative deepening (Korf
    1985) is a depth-first search, moves in ascending position, over the
    paths of at most e up moves.  Earlier rounds found no path, so every
    path of round e to target has length h(start) + 2e = d, and the first
    one found is the least shortest path.  A word reached again is expanded
    again only with fewer up moves than before, and is not counted again.
    A word other than target that the round discovers lies nearer start
    than target, so a BFS of the round would discover it too before
    answering.  Some path makes e up moves, so round e at the latest
    finds one, unless the budget is spent first.

    Works on letter tuples and reads cd's relation table through _windows,
    as enumerate_moves does; a word's move starts are its parent's, with
    only the windows near the rewrite scanned again.  Callers have refused
    6-move pairs, so none of its windows is a 6-move.
    """
    if start.letters == target:
        return "found", []
    walk, goal = _WeylWalk(cd, start.letters), _WeylWalk(cd, target)
    if walk.reduced != goal.reduced or walk.images != goal.images:
        return "exhausted", None
    relations = cd._relations
    if not walk.reduced:
        return _plain_bfs(relations, start.letters, target, budget)
    order = {beta: t for t, beta in enumerate(goal.roots)}
    start_labels = tuple(order[beta] for beta in walk.roots)
    start_ks = [k for k, _ in _windows(relations, start.letters)]
    spent = 0  # words discovered by the finished rounds
    bound = 0  # up moves allowed in this round
    while True:
        fewest = {start.letters: 0}  # word -> fewest up moves it was expanded with
        # frames: word, labels, up moves, move starts, pending starts, move to it
        stack = [(start.letters, start_labels, 0, start_ks, iter(start_ks), None)]
        while stack:
            current, labels, ups, ks, pending, _ = stack[-1]
            for k in pending:
                up = ups + (labels[k] < labels[k + 1])
                if up > bound:
                    continue
                rewrite = relations[current[k + 1], current[k]]
                end = k + len(rewrite)
                nxt = current[:k] + rewrite + current[end:]
                seen = fewest.get(nxt)
                if seen is not None and seen <= up:
                    continue
                fewest[nxt] = up
                if nxt == target:
                    steps = [frame[5] for frame in stack[1:]] + [(end - k, k + 1)]
                    return "found", [Move(MoveKind(size), at) for size, at in steps]
                if spent + len(fewest) >= budget:
                    return "budget", None
                # windows are at most 4 letters long, so only those starting
                # in [k - 3, end) can overlap the rewrite
                lo = max(k - 3, 0)
                nxt_ks = (
                    ks[: bisect_left(ks, lo)]
                    + [j for j, _ in _windows(relations, nxt, lo, end)]
                    + ks[bisect_left(ks, end) :]
                )
                nxt_labels = labels[:k] + labels[k:end][::-1] + labels[end:]
                stack.append((nxt, nxt_labels, up, nxt_ks, iter(nxt_ks), (end - k, k + 1)))
                break
            else:
                stack.pop()
        spent += len(fewest)
        bound += 1


def _plain_bfs(relations: dict, start: tuple, target: tuple, budget: int):
    """_bfs's protocol by one BFS, moves in ascending position."""
    visited = {start: None}  # word -> (previous word, window length, position)
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for k, window in _windows(relations, current):
            end = k + len(window)
            nxt = current[:k] + relations[window[1::-1]] + current[end:]
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
            if len(visited) >= budget:
                return "budget", None
            queue.append(nxt)
    return "exhausted", None


def _checked_pair(cd: CartanData, w: Word, w2: Word) -> int:
    """default_budget(), once both words' letters are in cd and no letter
    pair of theirs needs a 6-move; refused in that order."""
    budget = default_budget()
    _check_letters(cd, w.positions)
    _check_letters(cd, w2.positions)
    _check_no_sixmove_pairs(cd, w.letters + w2.letters)
    return budget


def find_move_path(cd: CartanData, w: Word, w2: Word) -> list:
    """The lexicographically least shortest move sequence from w to w2: of
    the shortest paths, the smallest by move positions in order.  _bfs finds
    it depth-first per round for reduced words, by one BFS otherwise.

    Raises NotConnected with definitive=True when w2 cannot be reached from
    w: their lengths, reducedness or Weyl elements differ, or the finite
    component of a non-reduced w was enumerated without meeting w2;
    definitive=False, naming the stopped search, once the default_budget()
    words discovered, over all rounds of _bfs, are spent, the only way it
    fails on two reduced words of one Weyl element.  A budget that
    default_budget() refuses is ConfigInvalid, before any other check.
    """
    budget = _checked_pair(cd, w, w2)
    if w.length != w2.length:
        raise NotConnected("words of different lengths", definitive=True)
    status, path = _bfs(cd, w, w2.letters, budget)
    if status == "found":
        return path
    if status == "budget":
        raise NotConnected(
            f"move-graph search from {w.letters} to {w2.letters} stopped "
            f"after {budget} words",
            definitive=False,
        )
    raise NotConnected(f"no move path from {w.letters} to {w2.letters}", definitive=True)


def words_equal_in_monoid(cd: CartanData, w: Word, w2: Word) -> bool:
    """Positive-braid-monoid equality.

    The letters and 6-move pairs are refused and different lengths are
    unequal, as in find_move_path.  The monoid is cancellative, so
    p x s = p y s iff x = y: the longest common prefix and then suffix are
    stripped.  Two reduced words x, y are equal iff they are reduced words
    of one Weyl element (Matsumoto 1964): their cartan._WeylWalk final
    images agree, so no search is needed.  Any other pair is decided on the
    full words by move-graph connectivity, since the defining relations are
    length-homogeneous: one _bfs answers, found is True, exhausted is False,
    and a spent budget is BudgetExhausted.  A budget that default_budget()
    refuses is ConfigInvalid, before any other check.
    """
    budget = _checked_pair(cd, w, w2)
    if w.length != w2.length:
        return False
    x, y = w.letters, w2.letters
    while x and x[0] == y[0]:
        x, y = x[1:], y[1:]
    while x and x[-1] == y[-1]:
        x, y = x[:-1], y[:-1]
    walk, walk2 = _WeylWalk(cd, x), _WeylWalk(cd, y)
    if walk.reduced and walk2.reduced:
        return walk.images == walk2.images
    status, _ = _bfs(cd, w, w2.letters, budget)
    if status == "budget":
        raise BudgetExhausted(f"move-graph search stopped after {budget} words")
    return status == "found"


class NeighborIndex(NamedTuple):
    minus: int
    plus: int


def neighbor_index(w: Word, a: int) -> NeighborIndex:
    """a- and a+ for the letter at a: a- is the previous position with the
    same letter (0 when none), a+ the next one (length+1 when none)."""
    if not 1 <= a <= w.length:
        raise InvalidBox(f"position {a} outside [1, {w.length}]")
    i = w.letter(a)
    return NeighborIndex(w.before(a, i), w.after(a, i))


@dataclass(frozen=True)
class EmptyBox:
    """Box with no positions: zero vector, unit torus element."""


EMPTY_BOX = EmptyBox()


@dataclass(frozen=True)
class IBox:
    lo: int
    hi: int
    brace: bool = False  # brace=True encodes the half-open [a, b} convention

    def __str__(self) -> str:
        close = "}" if self.brace else "]"
        return f"[{self.lo},{self.hi}{close}"


def make_ibox(lo: int, hi: int, brace: bool = False):
    """IBox constructor that collapses inverted ranges to the empty box."""
    if lo > hi:
        return EMPTY_BOX
    return IBox(lo, hi, brace)


def resolve_ibox(w: Word, box):
    """Closed box [a, c] underlying box; EMPTY_BOX passes through.

    A brace box [a, b} resolves to [a, b] when i_a = i_b and otherwise to
    [a, c] with c the last position before b carrying i_a; a itself always
    qualifies, so the resolution never fails for a <= b.
    """
    if isinstance(box, EmptyBox):
        return EMPTY_BOX
    a, b = box.lo, box.hi
    if not 1 <= a <= b <= w.length:
        raise InvalidBox(f"box {box} outside [1, {w.length}]")
    if not box.brace:
        if w.letter(a) != w.letter(b):
            raise InvalidBox(f"box {box}: endpoints carry different letters")
        return IBox(a, b, brace=False)
    return IBox(a, w.before(b + 1, w.letter(a)), brace=False)


def _positions_vector(n: int, ks) -> tuple:
    """0/1 vector of length n marking the positions ks."""
    out = [0] * n
    for k in ks:
        out[k - 1] = 1
    return tuple(out)


def _box_vector(w: Word, i, lo: int, hi: int) -> tuple:
    """0/1 vector of the positions of letter i in [lo, hi]; zero when lo > hi."""
    ks = w.positions[i]
    return _positions_vector(w.length, ks[bisect_left(ks, lo) : bisect_right(ks, hi)])


def ibox_vector(w: Word, box) -> tuple:
    """0/1 vector marking the positions of the box letter inside the box."""
    if isinstance(box, EmptyBox):
        return (0,) * w.length
    resolved = resolve_ibox(w, box)
    return _box_vector(w, w.letter(resolved.lo), resolved.lo, resolved.hi)


def move_to_json(m: Move) -> dict:
    return {"kind": str(m.kind.window), "pos": m.position}
