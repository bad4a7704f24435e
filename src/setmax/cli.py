"""Command-line front end: count boards, search maxima, build tables,
run the greedy heuristic, and verify the shipped reference boards.

Card syntax everywhere is 0-based digits, e.g. `0,1,2,0`.  Exit codes:
0 success, 2 parse failure or a path that cannot be read or written,
3 verification mismatch, 4 budget exceeded, 5 checkpoint corruption,
130 Ctrl-C outside a search's walk (a walk returns its result so far),
141 stdout closed by its reader; 130 and 141 are what a shell reports for
a SIGINT or SIGPIPE death.

Commands raise their errors; `main` alone turns each one into its message
on stderr and its exit code, and lets an error of any other type
propagate with its traceback.  Each command imports its engine when it
runs, so `setmax count` loads neither the search nor the catalog.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4
EXIT_CHECKPOINT = 5
EXIT_INTERRUPT = 130  # 128 + SIGINT
EXIT_PIPE = 141  # 128 + SIGPIPE

THREADS_ENV = "SET_SEARCH_THREADS"


def integer(text: str) -> int:
    """A decimal integer: ASCII digits after an optional minus sign.  int()
    alone would also read "1_0", "+1", " 1" and other scripts' digits
    ("３", "٣")."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def decimal(text: str) -> float:
    """A decimal number: ASCII digits with at most one ".".  float() alone
    would also read "1_0", " 2 ", "1e3", "inf" and other scripts' digits."""
    if not (text.isascii() and text.replace(".", "", 1).isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def _threads(args) -> int:
    """The worker count: --threads, else $SET_SEARCH_THREADS, else 1."""
    if args.threads is not None:
        return args.threads
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        value = integer(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from None
    return value


def _output(path):
    """The destination of a command's output: the file at `path`, opened
    for writing, or stdout when the path is None or "-"."""
    return nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8", newline="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setmax",
        description="Maximum-set solvers for boards of cards with 2-8 ternary properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count the sets in a board file")
    p.add_argument("board_file", help="board text file (one card per line, digits 0-2)")
    p.add_argument("--props", type=integer, default=None, help="number of properties (inferred by default)")
    p.add_argument("--list-lines", action="store_true", help="also print each set, three cards per stanza")
    p.add_argument("--oracle", action="store_true", help="use the brute-force triple counter")

    # Each flag's dest is its SearchConfig field, and an omitted flag stays
    # None, so SearchConfig alone holds the defaults.
    p = sub.add_parser("search", help="maximum sets over all boards of a given size")
    p.add_argument("--props", dest="dim", metavar="PROPS", type=integer, required=True)
    p.add_argument("--cards", dest="n", metavar="CARDS", type=integer, required=True)
    p.add_argument("--mode", choices=("naive", "pruned"))
    p.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                   help="fix the first two cards via affine equivalence (pruned mode)")
    p.add_argument("--threads", type=integer, help=f"worker count (default ${THREADS_ENV} or 1)")
    p.add_argument("--checkpoint", dest="checkpoint_path", metavar="CHECKPOINT",
                   help="checkpoint file to write/resume")
    p.add_argument("--resume", action="store_true", help="resume from --checkpoint")
    p.add_argument("--stop-after-nodes", type=integer, help="stop (checkpointing) after visiting this many nodes")
    p.add_argument("--report-interval", type=decimal, help="seconds between periodic checkpoints")
    p.add_argument("--budget", dest="naive_budget", metavar="BUDGET", type=integer,
                   help="naive-mode triple-check budget")

    p = sub.add_parser("table", help="maximum sets for a range of board sizes (CSV)")
    p.add_argument("--props", type=integer, required=True)
    p.add_argument("--from", dest="n_from", type=integer, required=True)
    p.add_argument("--to", dest="n_to", type=integer, required=True)
    p.add_argument("--out", default=None, help="output path ('-' or default: stdout)")
    p.add_argument("--threads", type=integer, default=None)
    p.add_argument("--pretty", action="store_true", help="aligned table instead of CSV")

    p = sub.add_parser("cmm", help="greedy consecutive-maximization trace (CSV)")
    p.add_argument("--props", type=integer, required=True)
    p.add_argument("--upto", type=integer, default=None, help="stop after this many turns")
    p.add_argument("--out", default=None, help="CSV output path ('-' or default: stdout)")
    p.add_argument("--board-out", default=None, help="write the final board here ('-' for stdout)")

    p = sub.add_parser("verify", help="recount every reference board and check the constructions")
    p.add_argument("--json", dest="json_out", default=None,
                   help="write a machine-readable report to this path ('-' for stdout)")

    p = sub.add_parser("fixtures", help="list, show or export the reference boards")
    p.add_argument("--show", metavar="NAME", default=None, help="print one board")
    p.add_argument("--export", metavar="DIR", default=None, help="write all boards to a directory")

    return parser


def _cmd_count(args) -> int:
    from .counting import Board, card_text, count_sets, count_sets_bruteforce, list_sets

    board = Board.parse_file(args.board_file, dim=args.props)
    count = count_sets_bruteforce(board) if args.oracle else count_sets(board)
    print(count)
    if args.list_lines:
        for line in list_sets(board):
            print()
            for card in line:
                print(card_text(card, board.dim))
    return EXIT_OK


def _print_search_result(result, symmetry: bool) -> None:
    print(result.max_sets)
    if result.witness is None:
        print("witness: none")
    else:
        print("witness (canonical orbit):" if symmetry else "witness:")
        sys.stdout.write(result.witness.to_text())
    print(f"nodes_visited: {result.nodes_visited}")
    print(f"configs_pruned: {result.configs_pruned}")
    print(f"elapsed_seconds: {result.elapsed:.3f}")
    print(f"complete: {'true' if result.complete else 'false'}")


def _cmd_search(args) -> int:
    from . import search

    if args.resume and args.checkpoint_path is None:
        raise ValueError("--resume requires --checkpoint")
    given = vars(args) | {"threads": _threads(args)}
    config = search.SearchConfig(**{k: v for k, v in given.items() if v is not None and k not in ("command", "resume")})
    result = search.resume_search(**vars(config)) if args.resume else search.run_search(config)
    _print_search_result(result, config.mode == "pruned" and config.symmetry)
    return EXIT_OK


def _write_pretty(rows, out) -> None:
    """Write the table right-aligned, each column as wide as its widest
    cell and never narrower than its minimum width."""
    lines = [("n", "max_sets", "search_space", "nodes", "elapsed_s", "complete")]
    for r in rows:
        complete = "true" if r.complete else "false"
        cells = (r.n, r.max_sets, r.search_space, r.nodes_visited, f"{r.elapsed_seconds:.2f}", complete)
        lines.append([str(cell) for cell in cells])
    widths = [max(w, *map(len, column)) for w, column in zip((3, 9, 14, 12, 10, 9), zip(*lines))]
    for line in lines:
        out.write(" ".join(map(str.rjust, line, widths)) + "\n")


def _cmd_table(args) -> int:
    from . import search

    threads = _threads(args)
    # Refuse a bad table before its destination is opened.
    search.table_configs(args.props, args.n_from, args.n_to, threads=threads)
    with _output(args.out) as out:
        rows = search.run_table(args.props, args.n_from, args.n_to, None if args.pretty else out, threads=threads)
        if args.pretty:
            _write_pretty(rows, out)
    return EXIT_OK


def _cmd_cmm(args) -> int:
    from . import heuristics

    trace = heuristics.cmm_run(args.props, args.upto)
    with _output(args.out) as f:
        trace.write_csv(f)
    if args.board_out is not None:
        with _output(args.board_out) as f:
            f.write(trace.final_board.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    import json

    from . import catalog

    report = catalog.verify_all()
    for r in report.fixtures:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.fixture}: expected={r.expected} got={r.got}")
    for c in report.checks:
        status = "ok  " if c.ok else "FAIL"
        print(f"{status} {c.check}: {c.detail}")
    if args.json_out is not None:
        with _output(args.json_out) as f:
            f.write(json.dumps(report.to_json_obj(), indent=2) + "\n")
    if not report.ok:
        return EXIT_VERIFY
    print("all reference boards verified")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from . import catalog

    if args.show is not None:
        sys.stdout.write(catalog.fixture(args.show).board.to_text())
        return EXIT_OK
    if args.export is not None:
        os.makedirs(args.export, exist_ok=True)
        for f in catalog.fixtures():
            path = os.path.join(args.export, f"{f.name}.board")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(f"# {f.description}\n")
                fp.write(f.board.to_text())
            print(path)
        return EXIT_OK
    for f in catalog.fixtures():
        print(f"{f.name:20s} {len(f.board):3d} cards  {f.expected_sets:3d} sets  {f.description}")
    return EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "search": _cmd_search,
    "table": _cmd_table,
    "cmm": _cmd_cmm,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
}


def _exit_code(exc: Exception) -> int | None:
    """The exit code of a command error, or None for an error of no known
    type (a bug, which keeps its traceback)."""
    # A search error was raised by a loaded setmax.search; reading it from
    # sys.modules keeps the other commands from importing the search.
    search = sys.modules.get(f"{__package__}.search")
    if search is not None:
        if isinstance(exc, search.BudgetExceededError):
            return EXIT_BUDGET
        if isinstance(exc, search.CheckpointError):
            return EXIT_CHECKPOINT
    if isinstance(exc, (ValueError, OSError, KeyError)):
        return EXIT_PARSE
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (`setmax ... | head`).  Point stdout
        # at devnull so that the flush at exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except KeyboardInterrupt:
        # Ctrl-C outside a search's walk; inside, the walk returns its
        # result so far.
        return EXIT_INTERRUPT
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        # A KeyError's str() is the repr of its text.
        print(exc.args[0] if isinstance(exc, KeyError) and exc.args else exc, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
