"""Exact combinatorics of braid-word moves, piecewise-linear transition
maps, and quantum seed mutation.

The package layers are importable on their own: Cartan data and root
systems (cartan), words and moves (words), transition maps (transitions),
integer lattice solving (lattices), quantum Laurent arithmetic (qlaurent),
seeds and mutation (seeds), repetition-lattice combinatorics (qdatum),
and deterministic reports plus the command-line front end (reports, cli).
"""

from .cartan import (
    CartanData,
    FiniteTypeData,
    cartan_from_json,
    finite_type_data,
    preset,
    reflect_root,
    roots_of_word,
    validate_cartan,
    weyl_act,
)
from .errors import BraidseedError
from .qdatum import (
    QDatum,
    RepetitionPoint,
    a_monomial,
    adapted_word,
    b_hl,
    cartan_tilde,
    delta_window,
    n_form,
    phi_inverse,
    phi_map,
    pk_sequence,
    validate_height,
)
from .qlaurent import (
    QHalf,
    QuantumLaurent,
    commutation_doubled,
    lambda_pairing,
    right_divide,
    torus_product,
)
from .reports import VERSION, Report, emit_report, parse_report
from .seeds import (
    EquivalenceReport,
    ExchangeMatrix,
    Seed,
    TSystemReport,
    check_compatibility,
    checked_mutation,
    exchange_check,
    exchange_vectors,
    gls_matrix,
    initial_seed,
    move_to_mutation_script,
    mutate_seed,
    permute_seed,
    seed_equivalence_report,
    seed_to_json,
    solve_lambda,
    tsystem_check,
    tsystem_sweep,
)
from .transitions import (
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
from .words import (
    IBox,
    Move,
    MoveKind,
    Word,
    WordKind,
    apply_move,
    enumerate_moves,
    find_move_path,
    ibox_vector,
    make_ibox,
    neighbor_index,
    resolve_ibox,
    validate_word,
    words_equal_in_monoid,
)

__version__ = VERSION
