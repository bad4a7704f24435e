"""The benchmark's four workloads and the answer gate they share.

Each workload runs in rounds.  A round does the workload's work, checks
every answer against a reference, and fills the counters the end-to-end
metrics come from.  Search inputs are fixed; the round's seeded `rng`
drives only the random boards, the affine images the gate recounts and
the slice points of the checkpoint chain.

Every workload touches all three engines (DFS, counting, greedy), because
every end-to-end metric must be reported on every workload.  The engines a
workload is not about appear only in its answer gate, as a small share of
its time, so that workload still shows "no change" when they change.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from setmax import catalog, cli, search
from setmax.counting import Board, count_sets, count_sets_bruteforce, delta_sets, list_sets
from setmax.geometry import AffineMap, apply_affine, third_rows
from setmax.heuristics import cmm_run

import speed

# References.  TABLE3 and D4 are the exact maxima M_d(n); GREEDY holds the
# cumulative set count of the greedy trace at given (dim, turn).
TABLE3 = dict(zip(range(3, 28), (
    1, 1, 2, 3, 5, 8, 12, 12, 13, 14, 16, 19, 23, 26, 30, 36, 41, 47, 54, 62, 71, 81, 92, 104, 117,
)))
D4 = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 12, 10: 12}
EXACT = {3: TABLE3, 4: D4}
GREEDY = {(3, 18): 35, (3, 27): 117, (4, 81): 1080, (5, 243): 9801, (6, 729): 88452}
FIXTURES = {
    "line3": 1, "five_two": 2, "six_three": 3, "seven_five": 5, "magic_square_plane": 12,
    "magic_square_skew": 12, "eight_eight": 8, "eleven_thirteen": 13, "twelve_fourteen": 14,
}


@dataclass(frozen=True)
class Size:
    """How much work each workload does per round; FULL is the benchmark,
    SMOKE the same code paths at minimal size."""

    table3_ranges: tuple        # run_table calls, as (n_from, n_to)
    d4_rows: tuple              # d=4 rows searched in full
    d4_budget_row: tuple        # (n, stop_after_nodes) for the d=4 row capped by a node budget
    pool_rows: tuple            # d=3 rows searched with two workers
    chain: tuple                # (n, min slice, max slice) of the checkpointed d=3 chain
    cmm_dims: tuple             # full greedy traces run by greedy_count
    boards: tuple               # (dim, n, how many) random boards counted by greedy_count
    gate_rows_d4: tuple         # d=4 rows the greedy_count gate searches
    min_pass_s: float           # least time spent on timed passes per throughput figure
    delta_boards: tuple         # (dim, n) board sizes whose delta_sets the probe times
    probe_dims: tuple           # third_rows builds timed by the layer probe
    probe_rows: tuple           # (dim, n) rows the probe times; the first also at two workers
    probe_chain: tuple          # (n, slice) of the probe's d=3 checkpoint chain


FULL = Size(
    table3_ranges=((3, 11), (12, 12), (21, 27)),
    d4_rows=(8, 9),
    d4_budget_row=(10, 1_500_000),
    pool_rows=(10, 11, 12),
    chain=(11, 100_000, 150_000),
    cmm_dims=(4, 5, 6),
    boards=((4, 12, 8), (4, 27, 8), (4, 81, 1), (6, 200, 4)),
    gate_rows_d4=(3, 4, 5, 6),
    min_pass_s=0.4,
    delta_boards=((4, 27), (6, 200)),
    probe_dims=(4, 5, 6),
    probe_rows=((3, 12), (4, 8)),
    probe_chain=(11, 100_000),
)

SMOKE = Size(
    table3_ranges=((3, 9), (25, 27)),
    d4_rows=(5, 6),
    d4_budget_row=(7, 100_000),
    pool_rows=(8, 9),
    chain=(10, 20_000, 40_000),
    cmm_dims=(3, 4),
    boards=((4, 12, 2), (4, 27, 2), (5, 40, 1)),
    gate_rows_d4=(3, 4),
    min_pass_s=0.02,
    delta_boards=((4, 27),),
    probe_dims=(3, 4),
    probe_rows=((3, 9), (4, 5)),
    probe_chain=(9, 5_000),
)

# Dimensions whose third-card tables a workload uses; set-up warms them.
DIMS = {"table3": (3,), "d4_rows": (4,), "pool_resume": (3,), "greedy_count": (4, 5, 6)}


class Round:
    """One round of a workload: the checks on its answers, the records the
    determinism check compares, and the counters behind the metrics."""

    def __init__(self, tracer, rng, root: Path, scratch: Path):
        self.tr = tracer
        self.rng = rng
        self.root = root
        self.scratch = scratch
        self.checks: list[tuple[str, bool, str]] = []
        self.records: dict[str, dict] = {}
        self.notes: list[str] = []
        self.nodes = 0
        self.pruned = 0
        self.steps: dict[str, float] = {}
        self.raw_steps: dict[str, float] = {}
        self.search_steps: set[str] = set()
        self.factors: list[float] = []
        self.overhead_s = 0.0
        self.count_rates: list[float] = []
        self.cmm_rates: list[float] = []
        self.pool_nodes: list[int] = []
        self.wall_s = None

    def check(self, label: str, got, want) -> None:
        self.checks.append((label, got == want, f"got {got!r}, want {want!r}"))

    def check_true(self, label: str, ok: bool, detail: str) -> None:
        self.checks.append((label, bool(ok), detail))

    def record(self, key: str, fields: dict) -> None:
        """Keep a result for the determinism check.  A key seen before in
        this round (the same row reached another way) must agree with it."""
        for problem in merge_records(self.records, {key: fields}):
            self.check_true(f"{key} repeats", False, problem)

    def speed(self, *, start: bool = False, all_cpus: bool = False) -> float:
        """The calibration factor now (see speed.py).  At the start of a
        step, also place the process: on every CPU for the worker pool,
        else pinned to the fastest one."""
        t0 = time.perf_counter()
        with self.tr.span("bench.calibrate"):
            if all_cpus:
                f = speed.factor_all_cpus()
            else:
                f = speed.pin_fastest() if start else speed.factor()
        self.factors.append(f)
        self.overhead_s += time.perf_counter() - t0
        return f

    def add_step(self, name: str, raw_s: float, factor: float, *, search: bool = False) -> None:
        """Book raw_s seconds, measured at calibration `factor`, to a named
        step.  Steps repeat from round to round; the run reports each
        step's median, in reference-speed seconds."""
        self.raw_steps[name] = self.raw_steps.get(name, 0.0) + raw_s
        self.steps[name] = self.steps.get(name, 0.0) + raw_s * factor
        if search:
            self.search_steps.add(name)

    @contextmanager
    def timed(self, name: str, *, search: bool = False, all_cpus: bool = False):
        """Time the block as a step, scaled by the mean of the calibration
        factors taken just before and just after it."""
        f0 = self.speed(start=True, all_cpus=all_cpus)
        t0 = time.perf_counter()
        yield
        raw = time.perf_counter() - t0
        self.add_step(name, raw, (f0 + self.speed(all_cpus=all_cpus)) / 2, search=search)

    def rate(self, fn, units: int, min_s: float) -> list[float]:
        """Units of fn() per reference-speed second, one figure per pass.
        Passes run for min_s (at least three); each calls fn() for at least
        5 ms and is scaled by a calibration taken just before it."""
        rates = []
        t_start = time.perf_counter()
        overhead = self.overhead_s
        self.speed(start=True)
        end = time.perf_counter() + min_s
        while len(rates) < 3 or time.perf_counter() < end:
            f = self.speed()
            calls = 0
            t0 = time.perf_counter()
            while True:
                fn()
                calls += 1
                seconds = time.perf_counter() - t0
                if seconds >= 0.005:
                    break
            rates.append(units * calls / (seconds * f))
        # Timed passes measure a rate; they are not part of the workload.
        self.overhead_s = overhead + time.perf_counter() - t_start
        return rates

    @property
    def search_s(self) -> float:
        return sum(self.steps[s] for s in self.search_steps)

    def total_s(self) -> float:
        """The round in reference-speed seconds: its steps, plus the rest of
        its wall time scaled by the round's mean calibration factor.
        Calibrations and rate passes are measurement, not workload, and
        are left out."""
        rest = self.wall_s - sum(self.raw_steps.values()) - self.overhead_s
        return sum(self.steps.values()) + rest * sum(self.factors) / len(self.factors)


def merge_records(base: dict, new: dict) -> list[str]:
    """Merge `new` into `base` (key -> fields) and describe every field the
    two hold with different values.  Records of one row made by different
    routes carry different fields; only the shared ones are compared."""
    problems = []
    for key, fields in new.items():
        old = base.setdefault(key, {})
        for name in sorted(old.keys() & fields.keys()):
            if old[name] != fields[name]:
                problems.append(f"{key}.{name}: {old[name]!r}, then {fields[name]!r}")
        old.update(fields)
    return problems


def search_row(rd: Round, dim: int, n: int, **config):
    cfg = search.SearchConfig(dim=dim, n=n, **config)
    with rd.timed(f"d{dim}n{n}@{cfg.threads}w", search=True, all_cpus=cfg.threads > 1), rd.tr.span(
        "search.max_sets_pruned", dim=dim, n=n, threads=cfg.threads
    ) as attrs:
        result = search.max_sets_pruned(cfg)
        attrs.update(nodes=result.nodes_visited, pruned=result.configs_pruned)
    rd.nodes += result.nodes_visited
    rd.pruned += result.configs_pruned
    return result


def check_witness(rd: Round, label: str, result, n: int) -> None:
    """The witness has n cards and recounts, by both counters, to the
    claimed maximum."""
    w = result.witness
    with rd.tr.span("counting.count_sets_bruteforce", n=n):
        recount = (len(w), count_sets(w), count_sets_bruteforce(w))
    rd.check(f"{label} witness", recount, (n, result.max_sets, result.max_sets))


def check_row(rd: Round, dim: int, n: int, result, *, workers: int = 1) -> None:
    """An exact row: maximum and completeness against the reference, the
    witness recount, and a determinism record.  Node counters are recorded
    only for one worker; they depend on scheduling with more."""
    label = f"d{dim}n{n}" + ("" if workers == 1 else f"@{workers}w")
    rd.check(f"{label} max", (result.max_sets, result.complete), (EXACT[dim][n], True))
    check_witness(rd, label, result, n)
    record = {"max": result.max_sets, "witness": list(result.witness.cards)}
    if workers == 1:
        record.update(nodes=result.nodes_visited, pruned=result.configs_pruned)
    rd.record(f"d{dim}n{n}", record)


def check_greedy_bound(rd: Round, trace, ns) -> list[tuple[Board, int]]:
    """The greedy trace never beats the exact maximum, and its n-card
    prefix recounts to its cumulative column.  Returns those prefixes."""
    boards = []
    for n in ns:
        cum = trace.cumulative_at(n)
        want = EXACT[trace.dim][n]
        rd.check_true(f"cmm d{trace.dim} turn {n} <= M", cum <= want, f"greedy {cum}, exact {want}")
        boards.append((Board(trace.dim, (t.card for t in trace.turns[:n])), cum))
    return boards


def greedy_gate(rd: Round, dim: int, ns, size: Size) -> list[tuple[Board, int]]:
    with rd.tr.span("heuristics.cmm_run", dim=dim):
        trace = cmm_run(dim)
    boards = check_greedy_bound(rd, trace, ns)
    with rd.tr.span("heuristics.cmm_run.passes", dim=dim):
        rd.cmm_rates += rd.rate(lambda: cmm_run(dim), 3 ** dim, size.min_pass_s)
    return boards


def count_gate(rd: Round, boards, size: Size) -> None:
    """Every board, and its image under a seeded affine map (such maps send
    lines to lines), recounts to its claimed value; timed passes over the
    same boards give the round's count rate."""
    checked = []
    for board, want in boards:
        with rd.tr.span("geometry.apply_affine", n=len(board)):
            image = apply_affine(AffineMap.random(board.dim, rd.rng), board)
        checked += [(board, want), (image, want)]
    with rd.tr.span("counting.count_sets", boards=len(checked)):
        for i, (board, want) in enumerate(checked):
            rd.check(f"count board {i} (d={board.dim}, n={len(board)})", count_sets(board), want)
    only = [b for b, _ in checked]
    with rd.tr.span("counting.count_sets.passes", boards=len(only)):
        rd.count_rates += rd.rate(lambda: [count_sets(b) for b in only], len(only), size.min_pass_s)


def table3(rd: Round, size: Size) -> None:
    """The exact d=3 table through run_table at one worker."""
    ns = []
    for lo, hi in size.table3_ranges:
        out = io.StringIO()
        f0 = rd.speed(start=True)
        with rd.tr.span("search.run_table", dim=3, n_from=lo, n_to=hi) as attrs:
            rows = search.run_table(3, lo, hi, out, threads=1)
            attrs["nodes"] = sum(r.nodes_visited for r in rows)
        factor = (f0 + rd.speed()) / 2
        rd.nodes += attrs["nodes"]
        for row in rows:
            rd.add_step(f"d3n{row.n}", row.elapsed_seconds, factor, search=True)
        csv_rows = out.getvalue().splitlines()[1:]
        rd.check(f"table d3 {lo}..{hi} csv rows", len(csv_rows), hi - lo + 1)
        for row, line in zip(rows, csv_rows):
            cols = line.split(",")
            rd.check(f"d3n{row.n} max", (row.max_sets, row.complete), (TABLE3[row.n], True))
            rd.check(f"d3n{row.n} csv", (int(cols[1]), cols[5]), (TABLE3[row.n], "true"))
            rd.record(f"d3n{row.n}", {"max": row.max_sets, "nodes": row.nodes_visited})
            ns.append(row.n)
    count_gate(rd, greedy_gate(rd, 3, ns, size), size)


def d4_rows(rd: Round, size: Size) -> None:
    """d=4 rows in full, then one row capped by a fixed node budget, so every
    round does the same work however far the engine is from finishing it."""
    boards = []
    for n in size.d4_rows:
        result = search_row(rd, 4, n)
        check_row(rd, 4, n, result)
        boards.append((result.witness, result.max_sets))
    n, budget = size.d4_budget_row
    result = search_row(rd, 4, n, stop_after_nodes=budget)
    if result.complete:
        check_row(rd, 4, n, result)
        rd.notes.append(f"d4n{n}: complete within the {budget}-node budget")
    else:
        # An unfinished search has only visited real boards, so its best
        # can never exceed the true maximum.
        rd.check_true(
            f"d4n{n} partial best <= M", result.max_sets <= D4[n],
            f"best so far {result.max_sets}, exact {D4[n]}",
        )
        check_witness(rd, f"d4n{n} partial", result, n)
        rd.record(f"d4n{n}@{budget}", {
            "max": result.max_sets, "witness": list(result.witness.cards),
            "nodes": result.nodes_visited, "pruned": result.configs_pruned,
        })
        rd.notes.append(
            f"d4n{n}: incomplete by design after {result.nodes_visited} nodes "
            f"(budget {budget}), best so far {result.max_sets}"
        )
    boards.append((result.witness, result.max_sets))
    boards += greedy_gate(rd, 4, (*size.d4_rows, n), size)
    count_gate(rd, boards, size)


def run_chain(rd: Round, n: int, lo: int, hi: int, path: Path):
    """Search d=3 row n as a chain of node-budget slices, each resumed from
    the checkpoint the previous one wrote.  Returns the final result and
    each resume call's seconds."""
    budget = rd.rng.randint(lo, hi)
    cfg = search.SearchConfig(
        dim=3, n=n, checkpoint_path=str(path), stop_after_nodes=budget, report_interval=3600.0
    )
    resume_s = []
    with rd.timed(f"chain d3n{n}", search=True):
        with rd.tr.span("search.max_sets_pruned", dim=3, n=n, stop_after_nodes=budget):
            result = search.max_sets_pruned(cfg)
        while not result.complete:
            budget = result.nodes_visited + rd.rng.randint(lo, hi)
            with rd.tr.span("search.resume_search", stop_after_nodes=budget):
                t0 = time.perf_counter()
                result = search.resume_search(path, stop_after_nodes=budget, report_interval=3600.0)
                resume_s.append(time.perf_counter() - t0)
    path.unlink()
    rd.nodes += result.nodes_visited
    rd.pruned += result.configs_pruned
    return result, resume_s


def pool_resume(rd: Round, size: Size) -> None:
    """The same DFS through the two-worker pool, then as a checkpoint chain."""
    boards = []
    for n in size.pool_rows:
        result = search_row(rd, 3, n, threads=2)
        check_row(rd, 3, n, result, workers=2)
        rd.pool_nodes.append(result.nodes_visited)
        boards.append((result.witness, result.max_sets))
    n, lo, hi = size.chain
    result, resume_s = run_chain(rd, n, lo, hi, rd.scratch / "chain.ckpt")
    # Recorded under the plain row key: a resumed run must end with the
    # same result, counters included, as an uninterrupted one.
    check_row(rd, 3, n, result)
    rd.notes.append(f"chain d3n{n}: {len(resume_s) + 1} slices")
    boards.append((result.witness, result.max_sets))
    boards += greedy_gate(rd, 3, (*size.pool_rows, n), size)
    count_gate(rd, boards, size)


def random_boards(rd: Round, size: Size) -> list[tuple[Board, int]]:
    """Seeded random boards with reference counts: the triple-enumerating
    oracle up to 27 cards, the digit-wise line lister above that."""
    out = []
    for dim, n, k in size.boards:
        for _ in range(k):
            board = Board(dim, rd.rng.sample(range(3 ** dim), n))
            want = count_sets_bruteforce(board) if n <= 27 else len(list_sets(board))
            out.append((board, want))
    return out


def greedy_count(rd: Round, size: Size) -> None:
    """Greedy traces, counting on random boards, the fixture catalog and the
    CLI; the search runs only in the gate, on a few small d=4 rows."""
    traces = {}
    for dim in size.cmm_dims:
        with rd.timed(f"cmm d{dim}"), rd.tr.span("heuristics.cmm_run", dim=dim):
            traces[dim] = trace = cmm_run(dim)
        for (d, turn), want in GREEDY.items():
            if d == dim:
                rd.check(f"cmm d{dim} turn {turn}", trace.cumulative_at(turn), want)
    rd.cmm_rates.append(sum(len(t.turns) for t in traces.values()) / sum(
        rd.steps[f"cmm d{dim}"] for dim in size.cmm_dims
    ))

    with rd.timed("random boards"):
        boards = random_boards(rd, size)
    with rd.timed("count check"), rd.tr.span("counting.count_sets", boards=len(boards)):
        for i, (board, want) in enumerate(boards):
            rd.check(f"count random board {i} (d={board.dim}, n={len(board)})", count_sets(board), want)
    with rd.timed("delta check"), rd.tr.span("counting.delta_sets", boards=len(boards)):
        for i, (board, want) in enumerate(boards):
            free = [c for c in range(3 ** board.dim) if c not in board]
            if free:
                c = rd.rng.choice(free)
                rd.check(
                    f"delta random board {i} (+{c})",
                    delta_sets(board, c), count_sets(board.with_card(c)) - want,
                )
    only = [b for b, _ in boards]
    with rd.tr.span("counting.count_sets.passes", boards=len(only)):
        rd.count_rates += rd.rate(lambda: [count_sets(b) for b in only], len(only), size.min_pass_s)

    with rd.tr.span("catalog.verify_all"):
        report = catalog.verify_all()
    rd.check("verify_all", (report.ok, [r.got for r in report.fixtures]), (True, list(FIXTURES.values())))
    fixture_dir = rd.root / "src" / "setmax" / "fixtures"
    for name, want in FIXTURES.items():
        out = io.StringIO()
        with rd.tr.span("cli.main", argv="count"), redirect_stdout(out):
            code = cli.main(["count", str(fixture_dir / f"{name}.board")])
        rd.check(f"cli count {name}", (code, out.getvalue().split()[:1]), (0, [str(want)]))

    for n in size.gate_rows_d4:
        result = search_row(rd, 4, n)
        check_row(rd, 4, n, result)
    check_greedy_bound(rd, traces[4], size.gate_rows_d4)


WORKLOADS = {
    "table3": table3,
    "d4_rows": d4_rows,
    "pool_resume": pool_resume,
    "greedy_count": greedy_count,
}


def warm(dims) -> None:
    """Build the third-card tables a workload uses before it is timed."""
    for d in dims:
        third_rows(d)
