"""setmax: how many sets fit on a board of n cards.

Cards with d ternary properties are points of a d-dimensional space over
the 3-element field; a set is a line.  The package counts the sets on a
board, searches for the board maximizing that count (exhaustively, with
pruning and symmetry reduction), runs a greedy lower-bound heuristic, and
ships verified reference boards.

Importing the package loads none of its modules: each exported name (and
each submodule, as an attribute) is imported on first access (PEP 562), so
a process pays only for the engines it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "counting": "Board BoardParseError DuplicateCardError count_sets count_sets_bruteforce delta_sets list_sets",
        "geometry": "AffineMap DegeneratePairError DependentPointsError Flat SingularMapError all_lines apply_affine "
        "cube_of decode_card deck_size encode_card is_line span_flat third_card",
        "heuristics": "CmmTrace CmmTurn cmm_run",
        "catalog": "Fixture fixture fixtures verify_all",
        "search": "BudgetExceededError Checkpoint CheckpointError SearchConfig SearchResult TableRow bound_remaining "
        "checkpoint_load checkpoint_save max_sets_naive max_sets_pruned resume_search run_search run_table "
        "search_space",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
