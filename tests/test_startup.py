"""What a fresh process loads, and the names the package exports.

`import setmax` loads no submodule, each exported name resolves on first
access, and the pool machinery (concurrent.futures.process, which pulls in
multiprocessing) loads only when a run starts a pool.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import setmax

SRC = str(Path(setmax.__file__).resolve().parents[1])
FIXTURE = str(Path(setmax.__file__).resolve().parent / "fixtures" / "twelve_fourteen.board")
POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "counting": ["Board", "BoardParseError", "DuplicateCardError", "count_sets", "count_sets_bruteforce",
                 "delta_sets", "list_sets"],
    "geometry": ["AffineMap", "DegeneratePairError", "DependentPointsError", "Flat", "SingularMapError",
                 "all_lines", "apply_affine", "cube_of", "decode_card", "deck_size", "encode_card", "is_line",
                 "span_flat", "third_card"],
    "heuristics": ["CmmTrace", "CmmTurn", "cmm_run"],
    "catalog": ["Fixture", "fixture", "fixtures", "verify_all"],
    "search": ["BudgetExceededError", "Checkpoint", "CheckpointError", "SearchConfig", "SearchResult", "TableRow",
               "bound_remaining", "checkpoint_load", "checkpoint_save", "max_sets_naive", "max_sets_pruned",
               "resume_search", "run_search", "run_table", "search_space"],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def fresh(code: str) -> tuple[set, object]:
    """Run `code` in a fresh interpreter that imports setmax from the tree
    under test.  Return the modules loaded at its end and the JSON value
    the code left in `out` (None by default)."""
    script = f"out = None\n{code}\nimport json, sys\nprint(json.dumps([sorted(sys.modules), out]))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules, out = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), out


def test_import_loads_no_submodule():
    modules, _ = fresh("import setmax")
    assert {m for m in modules if m.startswith("setmax.")} == set()


ONE_WORKER_RUNS = {
    "max_sets_pruned": "from setmax import SearchConfig, max_sets_pruned\n"
                       "assert max_sets_pruned(SearchConfig(3, 9)).max_sets == 12",
    "run_table": "from setmax import run_table\n"
                 "assert [r.max_sets for r in run_table(3, 3, 6)] == [1, 1, 2, 3]",
    "checkpoint_then_resume": "from setmax import SearchConfig, max_sets_pruned, resume_search\n"
                              "path = {tmp!r}\n"
                              "assert not max_sets_pruned(SearchConfig(3, 10, checkpoint_path=path,"
                              " stop_after_nodes=2000)).complete\n"
                              "assert resume_search(path).complete",
    "cli_count": "import contextlib, io\n"
                 "from setmax import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
                 f"    assert cli.main(['count', {FIXTURE!r}]) == 0\n"
                 "out = text.getvalue()",
}


@pytest.mark.parametrize("run", sorted(ONE_WORKER_RUNS))
def test_one_worker_run_loads_no_pool(run, tmp_path):
    modules, _ = fresh(ONE_WORKER_RUNS[run].format(tmp=str(tmp_path / "run.ckpt")))
    assert modules & POOL_MODULES == set()


def test_count_loads_only_counting_and_geometry():
    modules, out = fresh(ONE_WORKER_RUNS["cli_count"])
    assert out == "14\n"
    assert {m for m in modules if m.startswith("setmax")} == {"setmax", "setmax.cli", "setmax.counting",
                                                             "setmax.geometry"}
    # geometry's records are plain classes: dataclasses would pull in
    # inspect and its own imports.
    assert "dataclasses" not in modules


def test_first_pool_loads_the_pool_machinery():
    # A two-worker run, the first pool of its process, answers as one worker.
    modules, (one, two) = fresh(
        "from setmax import SearchConfig, max_sets_pruned\n"
        "out = [(r.max_sets, list(r.witness)) for r in"
        " (max_sets_pruned(SearchConfig(3, 10, threads=t)) for t in (1, 2))]"
    )
    assert one == two and one[0] == 12
    assert POOL_MODULES <= modules


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_resolve_to_the_submodule_objects(module):
    sub = import_module(f"setmax.{module}")
    for name in EXPORTS[module]:
        assert getattr(setmax, name) is getattr(sub, name), name


def test_export_listing():
    assert setmax.__version__ == "0.1.0"
    assert sorted(setmax.__all__) == sorted(NAMES | {"__version__"})
    assert NAMES | {"__version__"} <= set(dir(setmax))
    namespace = {}
    exec("from setmax import *", namespace)
    assert NAMES | {"__version__"} <= set(namespace)
    assert namespace["resume_search"] is import_module("setmax.search").resume_search


def test_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        setmax.no_such_name
    with pytest.raises(ImportError):
        exec("from setmax import no_such_name", {})


def test_submodules_are_attributes():
    modules, _ = fresh("import setmax\nassert setmax.search.run_search is setmax.run_search")
    assert "setmax.search" in modules
