"""setmax: how many sets fit on a board of n cards.

Cards with d ternary properties are points of a d-dimensional space over
the 3-element field; a set is a line.  The package counts the sets on a
board, searches for the board maximizing that count (exhaustively, with
pruning and symmetry reduction), runs a greedy lower-bound heuristic, and
ships verified reference boards.
"""

from .counting import Board, BoardParseError, DuplicateCardError, count_sets, count_sets_bruteforce, delta_sets, list_sets
from .geometry import (
    AffineMap,
    DegeneratePairError,
    DependentPointsError,
    Flat,
    SingularMapError,
    all_lines,
    apply_affine,
    cube_of,
    decode_card,
    deck_size,
    encode_card,
    is_line,
    span_flat,
    third_card,
)
from .heuristics import CmmTrace, CmmTurn, cmm_run
from .catalog import Fixture, fixture, fixtures, verify_all
from .search import (
    BudgetExceededError,
    Checkpoint,
    CheckpointError,
    SearchConfig,
    SearchResult,
    TableRow,
    bound_remaining,
    checkpoint_load,
    checkpoint_save,
    max_sets_naive,
    max_sets_pruned,
    resume_search,
    run_search,
    run_table,
    search_space,
)

__version__ = "0.1.0"
