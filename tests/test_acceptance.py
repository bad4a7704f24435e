"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with -s to see them all);
shared heavy computations live in module-scoped fixtures.
"""

import random
import time
from itertools import combinations

import pytest

from setmax.catalog import verify_all
from setmax.counting import Board, count_sets, count_sets_bruteforce, list_sets
from setmax.geometry import (
    AffineMap,
    all_lines,
    apply_affine,
    is_line,
    span_flat,
    third_card,
    third_value,
)
from setmax.heuristics import cmm_run
from setmax.search import (
    BudgetExceededError,
    SearchConfig,
    max_sets_naive,
    max_sets_pruned,
    resume_search,
    run_table,
)

TABLE3 = [1, 1, 2, 3, 5, 8, 12, 12, 13, 14, 16, 19, 23, 26, 30, 36, 41, 47, 54, 62, 71, 81, 92, 104, 117]
TABLE2_PREFIX = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5}
FAST_SIZES = set(range(3, 13)) | set(range(21, 28))


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def table3_t1():
    t0 = time.monotonic()
    rows = run_table(3, 3, 27, threads=1)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def d4_results():
    out = {}
    t0 = time.monotonic()
    for n in (3, 4, 5):
        out[("naive", n)] = max_sets_naive(SearchConfig(dim=4, n=n, mode="naive"))
    naive_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    for n in (6, 7):
        out[("pruned", n)] = max_sets_pruned(SearchConfig(dim=4, n=n))
    pruned_elapsed = time.monotonic() - t0
    return out, naive_elapsed, pruned_elapsed


def test_criterion_1_fixture_suite():
    t0 = time.monotonic()
    rep = verify_all()
    elapsed = time.monotonic() - t0
    got = [r.got for r in rep.fixtures]
    ok = rep.ok and got == [1, 2, 3, 5, 12, 12, 8, 13, 14] and elapsed < 1.0
    report(1, ok, f"all nine reference boards verified, counts {got} ({elapsed:.2f}s)")


def test_criterion_2_four_property_maxima(d4_results):
    results, naive_elapsed, pruned_elapsed = d4_results
    naive_vals = {n: results[("naive", n)].max_sets for n in (3, 4, 5)}
    pruned_vals = {n: results[("pruned", n)].max_sets for n in (6, 7)}
    gated = False
    try:
        max_sets_naive(SearchConfig(dim=4, n=7, mode="naive"))
    except BudgetExceededError:
        gated = True
    ok = (
        naive_vals == {3: 1, 4: 1, 5: 2}
        and naive_elapsed < 600
        and pruned_vals == {6: 3, 7: 5}
        and pruned_elapsed < 600
        and gated
    )
    report(
        2,
        ok,
        f"4-property maxima: naive n=3..5 -> {sorted(naive_vals.values())} in {naive_elapsed:.1f}s, "
        f"pruned n=6,7 -> {sorted(pruned_vals.values())} in {pruned_elapsed:.1f}s, naive n=7 budget-gated",
    )


def test_criterion_3_three_property_table(table3_t1):
    rows, full_elapsed = table3_t1
    values = [r.max_sets for r in rows]
    fast_elapsed = sum(r.elapsed_seconds for r in rows if r.n in FAST_SIZES)
    ok = (
        values == TABLE3
        and all(r.complete for r in rows)
        and fast_elapsed < 15 * 60
        and full_elapsed < 12 * 3600
    )
    report(
        3,
        ok,
        f"3-property table n=3..27 exact ({len(values)} rows), fast sizes {fast_elapsed:.1f}s, "
        f"full table {full_elapsed:.1f}s",
    )


def test_criterion_4_greedy_trace_values():
    t0 = time.monotonic()
    trace3 = cmm_run(3)
    t3 = time.monotonic() - t0
    t0 = time.monotonic()
    trace4 = cmm_run(4)
    t4 = time.monotonic() - t0
    ok = (
        trace3.cumulative_at(18) == 35
        and trace3.cumulative_at(27) == 117
        and trace4.cumulative_at(81) == 1080
        and t3 < 60
        and t4 < 60
    )
    report(
        4,
        ok,
        f"greedy trace: d=3 turn18={trace3.cumulative_at(18)} turn27={trace3.cumulative_at(27)} "
        f"({t3:.1f}s), d=4 turn81={trace4.cumulative_at(81)} ({t4:.1f}s)",
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = []
    for d, top in ((2, 9), (3, 8)):
        for n in range(3, top + 1):
            a = max_sets_naive(SearchConfig(dim=d, n=n, mode="naive")).max_sets
            b = max_sets_pruned(SearchConfig(dim=d, n=n)).max_sets
            if a != b:
                mismatches.append((d, n, a, b))
    rng = random.Random(501)
    count_mismatches = 0
    for _ in range(500):
        board = Board(4, rng.sample(range(81), rng.randrange(0, 13)))
        if count_sets(board) != count_sets_bruteforce(board):
            count_mismatches += 1
    elapsed = time.monotonic() - t0
    ok = not mismatches and count_mismatches == 0 and elapsed < 300
    report(
        5,
        ok,
        f"pruned==naive on d=2 n3..9 and d=3 n3..8, pair==brute on 500 random boards ({elapsed:.1f}s)",
    )


def _forbidden_outside_triples(board):
    """A set plus three outside cards whose three pairs each complete back
    into the set: impossible in this geometry, so any hit is a solver bug."""
    d = board.dim
    found = []
    for line in list_sets(board):
        inside = set(line)
        outside = [c for c in board if c not in inside]
        for s, t, u in combinations(outside, 3):
            p, q, r = third_value(s, t, d), third_value(t, u, d), third_value(s, u, d)
            if {p, q, r} <= inside and len({p, q, r}) == 3:
                found.append((line, (s, t, u)))
    return found


def test_criterion_6_property_suite(table3_t1, d4_results):
    t0 = time.monotonic()
    rng = random.Random(601)
    problems = []

    for _ in range(500):
        d = rng.choice((2, 3, 4, 5))
        a, b = rng.sample(range(3 ** d), 2)
        t = third_card(a, b, d)
        if not (is_line(a, b, t, d) and third_card(b, a, d) == t and third_card(a, t, d) == b):
            problems.append(f"third-card algebra broke at d={d} ({a},{b})")

    for d in (2, 3, 4):
        if len(all_lines(d)) != 3 ** (d - 1) * (3 ** d - 1) // 2:
            problems.append(f"line count formula failed at d={d}")

    spans = 0
    while spans < 1000:
        pts = rng.sample(range(81), 3)
        if is_line(*pts, 4):
            continue
        flat = span_flat(pts, 4)
        if len(flat.cards) != 9 or count_sets(Board(4, flat.cards)) != 12:
            problems.append(f"span of {pts} is not a 9-card/12-set square")
        spans += 1

    for _ in range(100):
        d = rng.choice((3, 4))
        m = AffineMap.random(d, rng)
        board = Board(d, rng.sample(range(3 ** d), rng.randrange(3, 13)))
        if count_sets(apply_affine(m, board)) != count_sets(board):
            problems.append("affine map changed a set count")

    rows, _ = table3_t1
    values = [r.max_sets for r in rows]
    d2_values = [r.max_sets for r in run_table(2, 3, 9)]
    if values != sorted(values) or d2_values != sorted(d2_values):
        problems.append("max_sets not monotone in board size")

    results, _, _ = d4_results
    for n in (6, 7):
        witness = results[("pruned", n)].witness
        if _forbidden_outside_triples(witness):
            problems.append(f"forbidden two-outside-card pattern on the n={n} witness")

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 300
    report(6, ok, f"algebra, line counts, spans, affine invariance, monotonicity, "
                  f"witness structure all hold ({elapsed:.1f}s)" if ok else "; ".join(problems))


def test_criterion_7_checkpoint_resume():
    ref = max_sets_pruned(SearchConfig(dim=3, n=13))
    import tempfile, os

    ok = ref.max_sets == 16
    details = []
    for stop in (500_000, 1_800_000, 3_000_000):
        path = tempfile.mktemp(suffix=".ckpt")
        r = max_sets_pruned(
            SearchConfig(dim=3, n=13, checkpoint_path=path, stop_after_nodes=stop)
        )
        while not r.complete:
            r = resume_search(path)
        same = (r.max_sets, r.nodes_visited, r.configs_pruned, r.witness) == (
            ref.max_sets,
            ref.nodes_visited,
            ref.configs_pruned,
            ref.witness,
        )
        ok = ok and same
        details.append(f"stop@{stop}: {'identical' if same else 'DIVERGED'}")
        os.unlink(path)
    report(7, ok, f"d=3 n=13 -> {ref.max_sets}; kill/resume " + ", ".join(details))


def test_criterion_8_thread_determinism(table3_t1):
    rows1, _ = table3_t1
    col1 = [r.max_sets for r in rows1]
    cols = {1: col1}
    for threads in (4, 8):
        t0 = time.monotonic()
        rows = run_table(3, 3, 27, threads=threads)
        elapsed = time.monotonic() - t0
        cols[threads] = [r.max_sets for r in rows]
        print(f"    threads={threads}: {elapsed:.1f}s")
    ok = cols[1] == cols[4] == cols[8] == TABLE3
    report(8, ok, "full 3-property table identical at 1, 4 and 8 threads")
