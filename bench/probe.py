"""Per-layer probe: timed calls into each module's public functions on
fixed inputs, run by every traced run so that each workload reports every
per-layer metric.  Its answers go through the same gate as the workload's.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

from setmax import catalog, cli, search
from setmax.counting import Board, count_sets, delta_sets
from setmax.heuristics import cmm_run

from workloads import EXACT, FIXTURES, Round, Size, check_row, run_chain, search_row

# Runs in a fresh interpreter, so third_rows builds its cached tables from
# scratch.  Prints each build's seconds and the peak-RSS growth of the last.
_GEOMETRY_PROBE = """
import json, resource, sys, time
from setmax.geometry import third_rows
out = {}
for d in map(int, sys.argv[1:]):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    third_rows(d)
    out[d] = time.perf_counter() - t0
    out["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(json.dumps(out))
"""


def _median_ms(rd: Round, name: str, fn, repeats: int, *, all_cpus: bool = False) -> float:
    """Median of `repeats` calls of fn(), in reference-speed milliseconds."""
    for i in range(repeats):
        with rd.timed(f"{name}#{i}", all_cpus=all_cpus):
            fn()
    return statistics.median(rd.steps[f"{name}#{i}"] for i in range(repeats)) * 1e3


def run_probe(rd: Round, size: Size) -> dict[str, float]:
    tr = rd.tr
    m: dict[str, float] = {}

    dims = [str(d) for d in size.probe_dims]
    f0 = rd.speed(start=True)
    with tr.span("geometry.third_rows.subprocess", dims=dims):
        proc = subprocess.run(
            [sys.executable, "-c", _GEOMETRY_PROBE, *dims], cwd=rd.root,
            env=dict(os.environ, PYTHONPATH=str(rd.root / "src")),
            capture_output=True, text=True, timeout=170, check=True,
        )
    factor = (f0 + rd.speed()) / 2
    built = json.loads(proc.stdout)
    for d in dims:
        m[f"geometry.third_rows_s.d{d}"] = built[d] * factor
    m[f"geometry.rss_mb.d{dims[-1]}"] = built["rss_mb"]

    with tr.span("counting.probe"):
        for dim, n, k in size.boards:
            boards = [Board(dim, rd.rng.sample(range(3 ** dim), n)) for _ in range(k)]
            rates = rd.rate(lambda: [count_sets(b) for b in boards], k, size.min_pass_s)
            m[f"counting.count_sets_us.d{dim}n{n}"] = 1e6 / statistics.median(rates)
            if (dim, n) in size.delta_boards:
                pairs = [(b, rd.rng.choice([c for c in range(3 ** dim) if c not in b])) for b in boards]
                rates = rd.rate(lambda: [delta_sets(b, c) for b, c in pairs], k, size.min_pass_s)
                m[f"counting.delta_sets_us.d{dim}n{n}"] = 1e6 / statistics.median(rates)

    ones = []
    for i, (dim, n) in enumerate(size.probe_rows):
        one = search_row(rd, dim, n)
        ones.append(one)
        check_row(rd, dim, n, one)
        m[f"search.row_s.d{dim}n{n}"] = rd.steps[f"d{dim}n{n}@1w"]
        m[f"search.row_nodes.d{dim}n{n}"] = one.nodes_visited
        if i == 0:
            two = search_row(rd, dim, n, threads=2)
            check_row(rd, dim, n, two, workers=2)
            m["search.pool_speedup"] = rd.steps[f"d{dim}n{n}@1w"] / rd.steps[f"d{dim}n{n}@2w"]
            m["search.pool_nodes_drift"] = two.nodes_visited - one.nodes_visited
    nodes = sum(r.nodes_visited for r in ones)
    m["search.prune_ratio"] = sum(r.configs_pruned for r in ones) / nodes
    m["search.node_us"] = sum(rd.steps[f"d{dim}n{n}@1w"] for dim, n in size.probe_rows) / nodes * 1e6

    def pool_start():
        with tr.span("search.max_sets_pruned", dim=3, n=3, threads=2):
            r = search.max_sets_pruned(search.SearchConfig(dim=3, n=3, threads=2))
        rd.check("pool start-up d3n3@2w max", r.max_sets, EXACT[3][3])

    m["search.pool_startup_s"] = _median_ms(rd, "pool start", pool_start, 5, all_cpus=True) / 1e3

    n, step = size.probe_chain
    path = rd.scratch / "probe.ckpt"
    cfg = search.SearchConfig(
        dim=3, n=n, checkpoint_path=str(path), stop_after_nodes=step, report_interval=3600.0
    )
    with tr.span("search.max_sets_pruned", dim=3, n=n, stop_after_nodes=step):
        search.max_sets_pruned(cfg)
    with tr.span("search.checkpoint_load"):
        m["search.checkpoint_load_ms"] = _median_ms(rd, "load", lambda: search.checkpoint_load(path), 20)
    cp = search.checkpoint_load(path)
    copy = rd.scratch / "probe-copy.ckpt"
    with tr.span("search.checkpoint_save"):
        m["search.checkpoint_save_ms"] = _median_ms(rd, "save", lambda: search.checkpoint_save(cp, copy), 20)
    m["search.checkpoint_bytes"] = copy.stat().st_size
    rd.check("checkpoint save/load round trip", search.checkpoint_load(copy), cp)
    copy.unlink()
    path.unlink()
    result, resume_s = run_chain(rd, n, step, step, path)
    check_row(rd, 3, n, result)
    # The chain's calibration factor, applied to its median resume call.
    factor = rd.steps[f"chain d3n{n}"] / rd.raw_steps[f"chain d3n{n}"]
    m["search.resume_call_s"] = statistics.median(resume_s) * factor

    for dim in size.cmm_dims:
        with rd.timed(f"cmm d{dim}"), tr.span("heuristics.cmm_run", dim=dim):
            trace = cmm_run(dim)
        m[f"heuristics.cmm_run_s.d{dim}"] = rd.steps[f"cmm d{dim}"]
        rd.check(f"cmm d{dim} turns", len(trace.turns), 3 ** dim)

    with tr.span("catalog.verify_all"):
        m["catalog.verify_all_ms"] = _median_ms(rd, "verify_all", lambda: rd.check_true(
            "verify_all", catalog.verify_all().ok, "catalog recount"), 5)
    board_file = str(rd.root / "src" / "setmax" / "fixtures" / "twelve_fourteen.board")

    def cli_count():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["count", board_file])
        rd.check("cli count twelve_fourteen", (code, out.getvalue().split()[:1]),
                 (0, [str(FIXTURES["twelve_fourteen"])]))

    with tr.span("cli.main", argv="count"):
        m["cli.count_ms"] = _median_ms(rd, "cli count", cli_count, 5)
    return m
