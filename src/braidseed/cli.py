"""Command-line front end: subcommand routing, verification campaigns, and
deterministic report emission.

Every subcommand produces a single report whose exit status encodes the
outcome: 0 when all comparisons agree (Match), 1 when at least one differs
(Mismatch), 2 when the computation raised a domain error (Error).  Campaign
sections are assembled in input enumeration order, so identical inputs give
byte-identical reports.

Words are read as positive-braid words unless --kind weyl-reduced is given;
reduced words are then certified before use.  The Cartan context comes from
--cartan, naming either a JSON file or a preset (a1xa1, g2, or a finite
family such as a2, b3, d5 or e8: cartan.preset); `verify
tsystem` can infer a simply-laced type-A context from the word's letters.
A route without a context, `verify all`, takes no --cartan.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .cartan import (
    CartanData,
    PRESET_MATRICES,
    _finite_family,
    cartan_from_json,
    finite_type_data,
    preset,
    roots_of_word,
)
from .errors import BraidseedError, BudgetExhausted, ConfigInvalid, NotFiniteType, default_budget
from .qdatum import (
    RepetitionPoint,
    adapted_word,
    cartan_tilde,
    delta_window,
    n_form,
    phi_inverse,
    phi_map,
    pk_sequence,
    validate_height,
)
from .qlaurent import QuantumLaurent, commutation_doubled, torus_product
from .reports import (
    Report,
    base_metadata,
    comparison,
    echo,
    emit_report,
    error_report,
    report_from_sections,
)
from .seeds import (
    Seed,
    _word_seed,
    check_compatibility,
    checked_mutation,
    gls_matrix,
    initial_seed,
    mutate_seed,
    seed_equivalence_report,
    seed_to_json,
    solve_lambda,
    tsystem_check,
    tsystem_sweep,
)
from .transitions import (
    CONVENTIONS,
    OrderVerdict,
    transition_apply,
    transition_apply_many,
    verify_ibox_transition,
)
from .words import (
    EmptyBox,
    MOVE_KINDS,
    Move,
    MoveKind,
    Word,
    WordKind,
    apply_move,
    enumerate_moves,
    find_move_path,
    ibox_vector,
    make_ibox,
    move_to_json,
    resolve_ibox,
    validate_word,
    words_equal_in_monoid,
)

LENGTH_CAP_DEFAULT = 8
RANK_CAP_DEFAULT = 3
ENTRY_CAP_DEFAULT = 4
CAMPAIGN_RNG_SEED = 20240823


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand path plus validated options."""

    command: tuple
    cartan_file: Optional[str]
    exact: bool
    output: Optional[str]
    format: str
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_letters(text: str) -> tuple:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigInvalid("word: empty letter list")
    out = []
    for item in items:
        try:
            out.append(int(item))
        except ValueError:
            out.append(item)
    return tuple(out)


def _parse_ints(text: str, flag: str) -> tuple:
    try:
        return tuple(int(t.strip()) for t in text.split(",") if t.strip())
    except ValueError as err:
        raise ConfigInvalid(f"{flag}: expected comma-separated integers") from err


def _parse_move(text: str) -> Move:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ConfigInvalid("move: expected KIND,POSITION (e.g. 3,2)")
    kind = MOVE_KINDS.get(parts[0])
    if kind is None:
        raise ConfigInvalid(f"move: unknown kind {parts[0]!r}, expected 2, 3, or 4")
    try:
        position = int(parts[1])
    except ValueError as err:
        raise ConfigInvalid("move: position must be an integer") from err
    return Move(kind, position)


# Option groups: (flag, argparse keywords) pairs, combined per route by
# COMMANDS in the order they appear in --help.
FORMATS = ("text", "json")
COMMON = (
    ("--format", dict(choices=FORMATS, default="text")),
    ("--output", dict(default=None, help="report destination file")),
)
CARTAN_NAMES = "a1xa1, g2, a<n>, b<n>, c<n>, d<n>, e6, e7, e8 or f4"
CARTAN = (("--cartan", dict(default=None, help=f"JSON file, or a preset: {CARTAN_NAMES}")),)
WORD = (
    ("--word", dict(action="append", default=[], help="comma-separated letters")),
    (
        "--kind",
        dict(
            choices=[k.value for k in WordKind],
            default=WordKind.POSITIVE_BRAID.value,
        ),
    ),
)
EXACT = (("--exact", dict(action="store_true")),)
HEIGHT = (("--height", dict(required=True, help="comma-separated heights")),)
MOVE = (("--move", dict(required=True, help="KIND,POSITION")),)
BRACE = (("--brace", dict(action="store_true")),)
BOX = (("--box", dict(required=True, help="lo,hi")),) + BRACE
VECTOR = (
    ("--vector", dict(action="append", default=[], required=True)),
    ("--convention", dict(choices=CONVENTIONS, default="tabulated")),
)
OUT = (("--out", dict(default=None, help="write the seed JSON here")),)
AT = (("--at", dict(required=True, help="mutation slot sequence k1,k2,...")),)
K = (("--k", dict(type=int, default=0)),)
POINT = (("--point", dict(required=True, help="vertex,level")),)
RANGE = (("--range", dict(type=int, default=6, dest="level_range")),)
SWEEP_BOX = (
    ("--box", dict(default=None, help="lo,hi; omit to sweep all boxes")),
) + BRACE
CAPS = (
    ("--length-cap", dict(type=int, default=LENGTH_CAP_DEFAULT)),
    ("--rank-cap", dict(type=int, default=RANK_CAP_DEFAULT)),
)

# Namespace keys held by RunConfig fields; every other key is a handler
# option and is hashed into the report's meta inputs.
_CONFIG_KEYS = ("group", "action", "cartan", "exact", "output", "format")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigInvalid, so they end in an Error report.

    An argument starting with '-' and a digit is a value, never a flag, so
    `--height -1,0` reads as `--height=-1,0` (no flag starts with a digit).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise ConfigInvalid(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing leaves
    it as it was: an append action copies its default list before adding
    to it, and the list reaches RunConfig only as a tuple."""
    parser = _Parser(
        prog="braidseed",
        description="exact combinatorics of words, transitions, and quantum seeds",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for (group, action), (_, context, _, options) in COMMANDS.items():
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(
                dest="action", required=True
            )
        sub = groups[group].add_parser(action)
        for flag, kwargs in COMMON + (() if context is None else CARTAN) + options:
            sub.add_argument(flag, **kwargs)
    return parser


def parse_args(argv=None) -> RunConfig:
    """The RunConfig of argv; a usage error or a BRAIDSEED_BUDGET that
    default_budget() refuses is ConfigInvalid."""
    ns = vars(_build_parser().parse_args(argv))
    default_budget()
    options = {k: v for k, v in ns.items() if k not in _CONFIG_KEYS}
    if "word" in options:
        options["words"] = tuple(_parse_letters(w) for w in options.pop("word"))
    if "vector" in options:
        vectors = options.pop("vector")
        options["vectors"] = tuple(_parse_ints(v, "vector") for v in vectors)
    return RunConfig(
        command=(ns["group"], ns["action"]),
        cartan_file=ns.get("cartan"),
        exact=ns.get("exact", False),
        output=ns["output"],
        format=ns["format"],
        options=options,
    )


# ---------------------------------------------------------------------------
# shared handler plumbing


def _infer_a_type(words) -> CartanData:
    """Type-A context of rank max-letter, for letter alphabets 1..n, from
    the family builder, whose budget refusal it names as inferred."""
    letters = {x for w in words for x in w}
    if not letters or any(not isinstance(x, int) or x < 1 for x in letters):
        raise ConfigInvalid("cartan: cannot infer a context from these letters")
    try:
        return _finite_family("a", max(letters))
    except BudgetExhausted as err:
        raise BudgetExhausted(f"cartan: an inferred {err}") from None


def _context(config: RunConfig, how: str) -> CartanData:
    """The Cartan context of a route: "load" reads --cartan, "infer" also
    falls back to the type-A context of the words when --cartan is absent."""
    ref = config.cartan_file
    if ref is None and how == "infer":
        return _infer_a_type(config.options.get("words", ()))
    if ref is None:
        raise ConfigInvalid("cartan: missing --cartan")
    # os.path.exists, unlike Path.exists, is False for a name no file can
    # have, such as one over 255 bytes
    if os.path.exists(ref):
        try:
            text = Path(ref).read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigInvalid(f"cartan: cannot read {ref}: {err}") from err
        return cartan_from_json(text)
    return preset(ref)


def _build_words(config: RunConfig, cd: CartanData, expect: int) -> tuple:
    raw = config.options.get("words", ())
    if len(raw) != expect:
        raise ConfigInvalid(
            f"word: expected {expect} --word option(s), got {len(raw)}"
        )
    kind = WordKind(config.options.get("kind", WordKind.POSITIVE_BRAID.value))
    out = []
    for letters in raw:
        w = Word(letters, kind)
        validate_word(cd, w)
        out.append(w)
    return tuple(out)


def _build_box(config: RunConfig):
    bounds = _parse_ints(config.options["box"], "box")
    if len(bounds) != 2:
        raise ConfigInvalid("box: expected lo,hi")
    lo, hi = bounds
    return make_ibox(lo, hi, brace=config.options["brace"])


def _qdatum(config: RunConfig, cd: CartanData):
    return validate_height(cd, _parse_ints(config.options["height"], "height"))


def _metadata(config: RunConfig, cd: Optional[CartanData] = None) -> dict:
    inputs = {"options": {k: v for k, v in sorted(config.options.items())}}
    if cd is not None:
        inputs["cartan"] = {
            "indices": cd.index_set,
            "matrix": cd.matrix,
            "symmetrizer": cd.symmetrizer,
        }
    return base_metadata(config.command, inputs)


def _seed_core(seed) -> dict:
    payload = seed_to_json(seed)
    return {
        "B": payload["B"],
        "Lambda": payload["Lambda"],
        "tropical": payload["variables"]["tropical"],
        "exact": payload["variables"].get("exact"),
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_cartan_check(config: RunConfig, cd: CartanData) -> list:
    n = len(cd.index_set)
    symmetrized = [
        [cd.symmetrizer[i] * cd.matrix[i][j] for j in range(n)] for i in range(n)
    ]
    transposed = [[symmetrized[j][i] for j in range(n)] for i in range(n)]
    sections = [
        echo("index-set", cd.index_set),
        echo("symmetrizer", cd.symmetrizer),
        comparison("symmetrized", symmetrized, transposed),
    ]
    try:
        data = finite_type_data(cd)
    except NotFiniteType:
        sections.append(comparison("finite-type", False, True))
    else:
        sections.append(comparison("finite-type", True, True))
        sections.append(echo("positive-roots", len(data.positive_roots)))
        sections.append(echo("coxeter-number", data.coxeter_number))
        sections.append(
            comparison(
                "longest-word-length", len(data.longest_word), len(data.positive_roots)
            )
        )
        sections.append(
            comparison(
                "longest-word-reduced",
                roots_of_word(cd, data.longest_word).all_positive,
                True,
            )
        )
    return sections


def _cmd_words_moves(config: RunConfig, cd: CartanData, w: Word) -> list:
    scan = enumerate_moves(cd, w)
    sections = [echo("word", w.letters)]
    doubled = []
    for m in scan.moves:
        moved = apply_move(w, m)
        sections.append(echo(f"result-{m}", moved.letters))
        doubled.append(list(apply_move(moved, m).letters))
    sections.append(
        comparison("involutive", doubled, [list(w.letters)] * len(scan.moves))
    )
    sections.append(echo("unsupported-windows", scan.unsupported))
    return sections


def _cmd_words_path(config: RunConfig, cd: CartanData, w: Word, w2: Word) -> list:
    path = find_move_path(cd, w, w2)
    current = w
    for m in path:
        current = apply_move(current, m)
    return [
        echo("path", [move_to_json(m) for m in path]),
        echo("length", len(path)),
        comparison("replay", current.letters, w2.letters),
    ]


def _cmd_words_equal(config: RunConfig, cd: CartanData, w: Word, w2: Word) -> list:
    equal = words_equal_in_monoid(cd, w, w2)
    return [comparison("equal-in-monoid", equal, True)]


def _cmd_words_ibox(config: RunConfig, cd: CartanData, w: Word) -> list:
    box = _build_box(config)
    resolved = resolve_ibox(w, box)
    sections = []
    if isinstance(resolved, EmptyBox):
        sections.append(echo("empty", True))
    else:
        sections.append(echo("resolved", {"lo": resolved.lo, "hi": resolved.hi}))
        sections.append(
            comparison(
                "endpoint-letters", w.letter(resolved.lo), w.letter(resolved.hi)
            )
        )
    sections.append(echo("vector", ibox_vector(w, box)))
    return sections


def _cmd_transition_apply(config: RunConfig, cd: CartanData, w: Word) -> list:
    m = _parse_move(config.options["move"])
    convention = config.options["convention"]
    wp = apply_move(w, m)
    sections = [echo("move", move_to_json(m)), echo("moved-word", wp.letters)]
    for idx, vec in enumerate(config.options["vectors"], start=1):
        image = transition_apply(cd, w, m, vec, convention)
        back = transition_apply(cd, wp, m, image, convention)
        sections.append(echo(f"image-{idx}", image))
        sections.append(comparison(f"round-trip-{idx}", back, vec))
    return sections


def _cmd_transition_verify_ibox(config: RunConfig, cd: CartanData, w: Word) -> list:
    m = _parse_move(config.options["move"])
    result = verify_ibox_transition(cd, w, m, _build_box(config))
    return [
        echo("rule", result.rule),
        comparison("transported-vector", result.actual, result.expected),
    ]


def _cmd_seed_build(config: RunConfig, cd: CartanData, w: Word) -> list:
    seed = initial_seed(cd, w, exact=config.exact)
    payload = seed_to_json(seed)
    sections = [
        echo("labels", payload["labels"]),
        echo("B", payload["B"]),
        echo("Lambda", payload["Lambda"]),
        echo("exchange", payload["exchange"]),
        echo("d-prime", payload["d_prime"]),
        echo("tropical", payload["variables"]["tropical"]),
        comparison("compatible", check_compatibility(seed.lam, seed.b), True),
    ]
    out = config.options["out"]
    if out:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            Path(out).write_text(blob)
        except OSError as err:
            raise ConfigInvalid(f"out: cannot write {out}: {err}") from err
        sections.append(echo("written", out))
    return sections


def _cmd_seed_mutate(config: RunConfig, cd: CartanData, w: Word) -> list:
    slots = _parse_ints(config.options["at"], "at")
    if not slots:
        raise ConfigInvalid("at: empty mutation sequence")
    seed = initial_seed(cd, w, exact=config.exact)
    current = seed
    sections = []
    for idx, k in enumerate(slots, start=1):
        current, check = checked_mutation(current, k)
        if config.exact:
            sections.append(comparison(f"exchange-step-{idx}", check.verified, True))
            sections.append(
                echo(
                    f"exchange-exponents-{idx}",
                    {"alpha2": check.alpha_doubled, "beta2": check.beta_doubled},
                )
            )
    restored = current
    for k in reversed(slots):
        restored = mutate_seed(restored, k)
    sections.extend(
        [
            echo("B", [list(row) for row in current.b.entries]),
            echo("Lambda", [list(row) for row in current.lam]),
            echo("tropical", [list(v) for v in current.trop]),
            echo("labels", list(current.labels)),
            comparison("involutive", _seed_core(restored), _seed_core(seed)),
            comparison("compatible", check_compatibility(current.lam, current.b), True),
        ]
    )
    return sections


def _equivalence_sections(report) -> list:
    sections = [
        echo("path", [str(m) for m in report.path]),
        comparison("exchange-columns", report.b_exchange_match, True),
        echo("full-b-equal", report.b_full_match),
        comparison("transported-tropical", report.transported_match, True),
        echo("raw-tropical-equal", report.trop_match),
        comparison("lambda-gauge-in-kernel", report.lam_gauge_in_kernel, True),
        echo("lambda-gauge", report.lam_gauge),
        echo(
            "four-move-entries",
            [
                {"move": str(fm.move), "value": fm.value, "displayed": fm.displayed}
                for fm in report.four_move_intermediates
            ],
        ),
    ]
    if report.exact_verified is not None:
        sections.append(comparison("exchange-relations", report.exact_verified, True))
        sections.append(
            echo(
                "exchange-checks",
                [
                    {
                        "slot": c.slot,
                        "alpha2": c.alpha_doubled,
                        "beta2": c.beta_doubled,
                    }
                    for c in report.exchange_checks
                ],
            )
        )
    return sections


def _cmd_seed_verify_equivalence(
    config: RunConfig, cd: CartanData, w: Word, w2: Word
) -> list:
    # --exact forces the exact track; else the library's rule (length <= 6)
    exact = True if config.exact else None
    return _equivalence_sections(seed_equivalence_report(cd, w, w2, exact=exact))


def _tsystem_sections(result) -> list:
    sections = [
        echo("box", {"lo": result.box.lo, "hi": result.box.hi}),
        echo("degenerate", result.degenerate),
    ]
    if result.degenerate:
        return sections
    sections.append(
        comparison("tropical-identity", result.left_sum, result.right_sum)
    )
    sections.append(echo("lower-verdict", result.lower_verdict.name))
    sections.append(
        comparison(
            "lower-not-dominant",
            result.lower_verdict is not OrderVerdict.GREATER,
            True,
        )
    )
    if result.exact_verified is not None:
        sections.append(comparison("exact-exchange", result.exact_verified, True))
        sections.append(
            echo(
                "exchange-exponents",
                {"alpha2": result.a_doubled, "beta2": result.b_doubled},
            )
        )
    return sections


def _cmd_seed_tsystem(config: RunConfig, cd: CartanData, w: Word) -> list:
    box = _build_box(config)
    return _tsystem_sections(tsystem_check(cd, w, box, exact=config.exact))


def _cmd_verify_tsystem(config: RunConfig, cd: CartanData, w: Word) -> list:
    if config.options["box"] is not None:
        return _cmd_seed_tsystem(config, cd, w)
    if config.exact or config.options["brace"]:
        raise ConfigInvalid("box: --exact and --brace check one box; give --box")
    checked, degenerate, failures = tsystem_sweep(cd, w)
    return [
        echo("boxes-checked", checked),
        echo("degenerate", degenerate),
        comparison("failures", failures, []),
    ]


def _cmd_qdatum_build(config: RunConfig, cd: CartanData) -> list:
    qd = _qdatum(config, cd)
    data = finite_type_data(cd)
    word = adapted_word(qd)
    return [
        echo("heights", qd.heights),
        echo("arrows", sorted(qd.arrows)),
        echo("sources", [i for i in cd.index_set if qd.is_source(i)]),
        echo("adapted-word", word.letters),
        comparison("adapted-length", word.length, len(data.positive_roots)),
        comparison(
            "adapted-reduced", roots_of_word(cd, word.letters).all_positive, True
        ),
    ]


def _cmd_qdatum_adapted_word(config: RunConfig, cd: CartanData) -> list:
    qd = _qdatum(config, cd)
    data = finite_type_data(cd)
    word = adapted_word(qd)
    roots = roots_of_word(cd, word.letters)
    return [
        echo("word", word.letters),
        comparison("length", word.length, len(data.positive_roots)),
        comparison("reduced", roots.all_positive, True),
        comparison("roots-distinct", len(set(roots.roots)), word.length),
    ]


def _cmd_qdatum_window(config: RunConfig, cd: CartanData) -> list:
    qd = _qdatum(config, cd)
    data = finite_type_data(cd)
    k = config.options["k"]
    window = delta_window(qd, k)
    points = sorted((pt.vertex, pt.level) for pt in window)
    sections = [
        echo("k", k),
        echo("points", points),
        comparison("size", len(window), len(data.positive_roots)),
    ]
    if k == 0:
        period = pk_sequence(qd, 1, len(data.positive_roots))
        sections.append(
            comparison(
                "period-image", sorted((p.vertex, p.level) for p in period), points
            )
        )
    return sections


def _cmd_qdatum_phi(config: RunConfig, cd: CartanData) -> list:
    qd = _qdatum(config, cd)
    raw = _parse_letters(config.options["point"])
    if len(raw) != 2 or not isinstance(raw[1], int):
        raise ConfigInvalid("point: expected vertex,level")
    pt = RepetitionPoint(raw[0], raw[1])
    root, level = phi_map(qd, pt)
    back = phi_inverse(qd, root, level)
    return [
        echo("phi", {"root": root, "level": level}),
        comparison("round-trip", (back.vertex, back.level), (pt.vertex, pt.level)),
    ]


def _cmd_qdatum_ntab(config: RunConfig, cd: CartanData) -> list:
    span = config.options["level_range"]
    if span < 1:
        raise ConfigInvalid("range: must be >= 1")
    series = cartan_tilde(cd, 2 * span + 4)
    levels = range(-span, span + 1)
    sections = []
    table = {}
    for i in cd.index_set:
        for j in cd.index_set:
            row = [
                n_form(series, RepetitionPoint(i, p), RepetitionPoint(j, 0))
                for p in levels
            ]
            table[(i, j)] = row
            sections.append(echo(f"n-{i}-{j}", row))
    forward = [table[(i, j)] for i in cd.index_set for j in cd.index_set]
    reverse = [
        [
            -n_form(series, RepetitionPoint(j, 0), RepetitionPoint(i, p))
            for p in levels
        ]
        for i in cd.index_set
        for j in cd.index_set
    ]
    sections.append(comparison("antisymmetric", forward, reverse))
    shifted = [
        [
            n_form(series, RepetitionPoint(i, p + 2), RepetitionPoint(j, 2))
            for p in levels
        ]
        for i in cd.index_set
        for j in cd.index_set
    ]
    sections.append(comparison("translation-invariant", shifted, forward))
    return sections


# ---------------------------------------------------------------------------
# verification campaigns


def campaign_contexts(rank_cap: int) -> list:
    """Preset contexts with rank <= rank_cap and no 6-move windows."""
    out = []
    for name in sorted(PRESET_MATRICES):
        cd = preset(name)
        if len(cd.index_set) > rank_cap:
            continue
        pairs = itertools.combinations(cd.index_set, 2)
        if any(cd.pair_product(i, j) > 2 for i, j in pairs):
            continue
        out.append((name, cd))
    return out


def _iter_braid_words(cd: CartanData, length_cap: int, lo: int):
    for length in range(lo, length_cap + 1):
        for letters in itertools.product(cd.index_set, repeat=length):
            yield Word(letters, WordKind.POSITIVE_BRAID)


# Rows at which a round-trip group is transformed: until then its pairs
# keep only their dense rows, so this bounds the campaign's arrays whatever
# the caps.
_ROUNDTRIP_BATCH_ROWS = 8192


def roundtrip_campaign(cd: CartanData, length_cap: int) -> tuple:
    """Move-then-reverse-move identity over all words, moves, and window
    exponent patterns, plus one dense random vector per pair.

    Transition formulas read only the window coordinates, so exhausting the
    window combinations together with a dense off-window witness covers all
    vectors with entries <= ENTRY_CAP_DEFAULT.  The map of a move reads
    nothing of the word but its window letters, so the (word, move) pairs
    of one word length are grouped by the move and those letters.  Every
    row of a group's pairs, none deduplicated, goes through one pair of
    transition_apply_many calls on the group's first word, when the group
    reaches _ROUNDTRIP_BATCH_ROWS rows and at the end of its length.  The
    dense rows are drawn in (word, move) order, and the failures, at most 3
    per pair, come back in (word, move, row) order.
    """
    rng = random.Random(CAMPAIGN_RNG_SEED)
    patterns = {
        kind.window: np.array(
            list(itertools.product(range(ENTRY_CAP_DEFAULT + 1), repeat=kind.window)),
            dtype=np.int64,
        )
        for kind in MoveKind
    }
    checked = 0
    found = []
    pair = 0
    for length in range(2, length_cap + 1):
        groups = {}
        for w in _iter_braid_words(cd, length, lo=length):
            for m in enumerate_moves(cd, w).moves:
                width = m.kind.window
                lead = m.position - 1
                pairs = groups.setdefault((m, w.letters[lead : lead + width]), [])
                dense = [rng.randint(0, ENTRY_CAP_DEFAULT) for _ in range(length)]
                pairs.append((pair, w.letters, dense))
                pair += 1
                if len(pairs) * (len(patterns[width]) + 1) >= _ROUNDTRIP_BATCH_ROWS:
                    checked += _roundtrip_batch(cd, m, patterns[width], pairs, found)
                    pairs.clear()
        for (m, _), pairs in groups.items():
            if pairs:
                checked += _roundtrip_batch(cd, m, patterns[m.kind.window], pairs, found)
    found.sort(key=itemgetter(0, 1))
    return checked, [failure for _, _, failure in found]


def _roundtrip_batch(
    cd: CartanData, m: Move, window: np.ndarray, pairs: list, found: list
) -> int:
    """Round trip of the rows of the (pair number, letters, dense row)
    pairs of one group: per pair, each window pattern at the move's window
    with zeros elsewhere, then its dense row.  Appends (pair number, row,
    failure) for at most 3 rows per pair to found and returns the number
    of rows checked."""
    w = Word(pairs[0][1], WordKind.POSITIVE_BRAID)
    lead = m.position - 1
    per_pair = len(window) + 1
    arr = np.zeros((len(pairs), per_pair, w.length), dtype=np.int64)
    arr[:, :-1, lead : lead + m.kind.window] = window
    arr[:, -1] = [dense for _, _, dense in pairs]
    arr = arr.reshape(-1, w.length)
    back = transition_apply_many(
        cd, apply_move(w, m), m, transition_apply_many(cd, w, m, arr)
    )
    bad = np.nonzero((back != arr).any(axis=1))[0].tolist()
    for p, rows in itertools.groupby(bad, key=lambda row: row // per_pair):
        number, letters, _ = pairs[p]
        for row in itertools.islice(rows, 3):
            failure = {
                "word": list(letters),
                "move": str(m),
                "vector": arr[row].tolist(),
            }
            found.append((number, row, failure))
    return len(arr)


def _seed_class_campaign(
    cd: CartanData, length_cap: int, exact: bool, check, classes
) -> tuple:
    """Exchange slots and failures of the seeds of all words of length
    1..length_cap, in (word, failure) order, running check on one seed per
    exchange matrix B = gls_matrix.

    Apart from its word, a seed is a function of B: Lambda is
    solve_lambda(B); the strictly lower +1 entries of B are exactly the
    links b_{k,k-} (off the diagonal c_ij <= 0, and an earlier position of
    the letter of k forces k- >= it), which fix the tropical track and the
    labels; the exact track depends on n alone.  Neither mutate_seed nor
    checked_mutation reads the word.  So check(seed) is kept in classes by
    B (a new table when None), which callers may share across contexts.
    """
    classes = {} if classes is None else classes
    checked = 0
    failures = []
    for w in _iter_braid_words(cd, length_cap, lo=1):
        b = gls_matrix(cd, w)
        if b not in classes:
            classes[b] = check(_word_seed(w, b, solve_lambda(b), exact))
        checked += len(b.exchange)
        failures += ({"word": list(w.letters), **f} for f in classes[b])
    return checked, failures


def _mutation_failures(seed: Seed) -> list:
    """{k, kind} for each exchange slot k where mutating twice does not
    give back (B, Lambda, tropical), or the once-mutated pair is not
    compatible."""
    failures = []
    for k in seed.b.exchange:
        once = mutate_seed(seed, k)
        twice = mutate_seed(once, k)
        if (
            twice.b.entries != seed.b.entries
            or twice.lam != seed.lam
            or twice.trop != seed.trop
        ):
            failures.append({"k": k, "kind": "involution"})
        if not check_compatibility(once.lam, once.b):
            failures.append({"k": k, "kind": "compatibility"})
    return failures


def mutation_campaign(cd: CartanData, length_cap: int, classes=None) -> tuple:
    """Mutation involutivity on (B, Lambda, tropical) plus compatibility of
    every once-mutated seed, at every exchange slot of the seed of every
    word of length 1..length_cap, each exchange matrix checked once
    (_seed_class_campaign)."""
    return _seed_class_campaign(cd, length_cap, False, _mutation_failures, classes)


def tsystem_campaign(cd: CartanData, length_cap: int) -> tuple:
    """Tropical boxed identity and lower-term dominance over all i-boxes."""
    checked = 0
    failures = []
    for w in _iter_braid_words(cd, length_cap, lo=1):
        boxes, _, found = tsystem_sweep(cd, w)
        checked += boxes
        failures += ({"word": list(w.letters), **f} for f in found)
    return checked, failures


def torus_campaign(cd: CartanData, word_length: int, pairs: int = 200) -> tuple:
    """Based-monomial commutation X^a X^b = q^Lambda(a,b) X^b X^a on random
    Laurent exponent pairs in one seed context per word length."""
    rng = random.Random(CAMPAIGN_RNG_SEED)
    letters = tuple(
        cd.index_set[t % len(cd.index_set)] for t in range(word_length)
    )
    seed = initial_seed(cd, Word(letters, WordKind.POSITIVE_BRAID))
    rank = len(letters)
    checked = 0
    failures = []
    for _ in range(pairs):
        a = tuple(rng.randint(-3, 3) for _ in range(rank))
        b = tuple(rng.randint(-3, 3) for _ in range(rank))
        x_a, x_b = QuantumLaurent.monomial(rank, a), QuantumLaurent.monomial(rank, b)
        left = torus_product(seed.lam, x_a, x_b)
        right = torus_product(seed.lam, x_b, x_a).q_shift(
            commutation_doubled(seed.lam, a, b)
        )
        checked += 1
        if left != right:
            failures.append({"a": list(a), "b": list(b)})
    return checked, failures


def _exchange_failures(seed: Seed) -> list:
    """{k} for each exchange slot k where the exact exchange relation of
    the mutation at k fails."""
    return [{"k": k} for k in seed.b.exchange if not checked_mutation(seed, k)[1].verified]


def exact_exchange_campaign(cd: CartanData, length_cap: int, classes=None) -> tuple:
    """Exchange relation of every executed mutation on exact seeds, each
    exchange matrix checked once (_seed_class_campaign)."""
    return _seed_class_campaign(cd, length_cap, True, _exchange_failures, classes)


def _cmd_verify_all(config: RunConfig, _: None) -> list:
    length_cap = config.options["length_cap"]
    rank_cap = config.options["rank_cap"]
    if length_cap < 1:
        raise ConfigInvalid("length-cap: must be >= 1")
    if rank_cap < 1:
        raise ConfigInvalid("rank-cap: must be >= 1")
    # (checked label, failures label, campaign, arguments after cd); the
    # campaigns are read from the module at run time, so wrappers installed
    # on it see the calls.  Each seed campaign has one table for the run.
    campaigns = [
        ("round-trips", "round-trip-failures", roundtrip_campaign, (length_cap,)),
        ("mutations", "mutation-failures", mutation_campaign, (min(length_cap, 6), {})),
        ("tsystem-boxes", "tsystem-failures", tsystem_campaign, (length_cap,)),
    ]
    if config.exact:
        campaigns += [
            ("torus-pairs", "torus-failures", torus_campaign, (min(length_cap, 6),)),
            (
                "exchange-steps",
                "exchange-failures",
                exact_exchange_campaign,
                (min(length_cap, 4), {}),
            ),
        ]
    contexts = campaign_contexts(rank_cap)
    budget = default_budget()
    for name, cd in contexts:
        # the words of length 1..length_cap, counted before any campaign runs
        words = 0
        for length in range(1, length_cap + 1):
            words += len(cd.index_set) ** length
            if words > budget:
                raise BudgetExhausted(
                    f"length-cap: the words of {name} up to length "
                    f"{length_cap} are over the budget of {budget}"
                )
    sections = [echo("contexts", [name for name, _ in contexts])]
    for name, cd in contexts:
        for checked_label, failures_label, campaign, args in campaigns:
            checked, failures = campaign(cd, *args)
            sections.append(echo(f"{checked_label}-{name}", checked))
            sections.append(comparison(f"{failures_label}-{name}", failures, []))
    return sections


# Every route, declared once: (group, action) -> (handler, context, number of
# --word options, option groups after COMMON, which every route takes, and
# CARTAN, which every route with a context takes).  The context is "load"
# (--cartan), "infer" (--cartan, else the type-A context of the words) or
# None.  dispatch calls handler(config, cd, *words) and reports the sections
# it returns; the subparsers are added in table order.
COMMANDS = {
    ("cartan", "check"): (_cmd_cartan_check, "load", 0, ()),
    ("words", "moves"): (_cmd_words_moves, "load", 1, WORD),
    ("words", "path"): (_cmd_words_path, "load", 2, WORD),
    ("words", "equal"): (_cmd_words_equal, "load", 2, WORD),
    ("words", "ibox"): (_cmd_words_ibox, "load", 1, WORD + BOX),
    ("transition", "apply"): (_cmd_transition_apply, "load", 1, WORD + MOVE + VECTOR),
    ("transition", "verify-ibox"): (
        _cmd_transition_verify_ibox, "load", 1, WORD + MOVE + BOX
    ),
    ("seed", "build"): (_cmd_seed_build, "load", 1, WORD + EXACT + OUT),
    ("seed", "mutate"): (_cmd_seed_mutate, "load", 1, WORD + EXACT + AT),
    ("seed", "verify-equivalence"): (
        _cmd_seed_verify_equivalence, "load", 2, WORD + EXACT
    ),
    ("seed", "tsystem"): (_cmd_seed_tsystem, "load", 1, WORD + EXACT + BOX),
    ("qdatum", "build"): (_cmd_qdatum_build, "load", 0, HEIGHT),
    ("qdatum", "adapted-word"): (_cmd_qdatum_adapted_word, "load", 0, HEIGHT),
    ("qdatum", "window"): (_cmd_qdatum_window, "load", 0, HEIGHT + K),
    ("qdatum", "phi"): (_cmd_qdatum_phi, "load", 0, HEIGHT + POINT),
    ("qdatum", "ntab"): (_cmd_qdatum_ntab, "load", 0, RANGE),
    ("verify", "corollary"): (_cmd_seed_verify_equivalence, "load", 2, WORD + EXACT),
    ("verify", "tsystem"): (_cmd_verify_tsystem, "infer", 1, WORD + EXACT + SWEEP_BOX),
    ("verify", "all"): (_cmd_verify_all, None, 0, EXACT + CAPS),
}


def dispatch(config: RunConfig) -> Report:
    """Build the context and words of a configuration, and turn the sections
    of its handler into the report."""
    route = COMMANDS.get(config.command)
    if route is None:
        raise ConfigInvalid(f"command: unknown subcommand {config.command}")
    handler, context, word_count, _ = route
    cd = None if context is None else _context(config, context)
    words = _build_words(config, cd, word_count)
    return report_from_sections(handler(config, cd, *words), _metadata(config, cd))


def _named_format(argv) -> str:
    """The value of the last --format in argv when it is a valid format,
    else text: the format of a report on arguments that did not parse."""
    named = None
    for t, arg in enumerate(argv):
        if arg == "--format":
            named = argv[t + 1] if t + 1 < len(argv) else None
        elif arg.startswith("--format="):
            named = arg.partition("=")[2]
    return named if named in FORMATS else "text"


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except BraidseedError as err:
        report = error_report(type(err).__name__, str(err), base_metadata(("parse",)))
        fmt = _named_format(sys.argv[1:] if argv is None else argv)
        sys.stdout.write(emit_report(report, fmt).decode("utf-8"))
        return report.exit_code
    try:
        report = dispatch(config)
    except BraidseedError as err:
        report = error_report(type(err).__name__, str(err), _metadata(config))
    blob = emit_report(report, config.format)
    if config.output:
        try:
            Path(config.output).write_bytes(blob)
            return report.exit_code
        except OSError as err:
            message = f"output: cannot write {config.output}: {err}"
            report = error_report(ConfigInvalid.__name__, message, _metadata(config))
            blob = emit_report(report, config.format)
    sys.stdout.write(blob.decode("utf-8"))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
