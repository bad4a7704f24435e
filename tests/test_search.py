import errno
import io
import json
import os
import subprocess
import sys
import time
from concurrent import futures
from dataclasses import replace
from itertools import combinations, count, product
from math import comb
from types import SimpleNamespace

import pytest

from setmax import cli, heuristics, search
from setmax.counting import Board, count_sets, count_sets_bruteforce, delta_sets
from setmax.geometry import all_lines, decode_card, encode_card, third_rows
from setmax.heuristics import cmm_run
from setmax.search import (
    BudgetExceededError,
    Checkpoint,
    CheckpointError,
    SearchConfig,
    bound_remaining,
    checkpoint_load,
    checkpoint_save,
    max_sets_naive,
    max_sets_pruned,
    resume_search,
    run_table,
    search_space,
    table_configs,
)


def naive(d, n, **kw):
    return max_sets_naive(SearchConfig(dim=d, n=n, mode="naive", **kw))


def pruned(d, n, **kw):
    return max_sets_pruned(SearchConfig(dim=d, n=n, **kw))


def outcome(r):
    return (r.max_sets, list(r.witness.cards), r.nodes_visited, r.configs_pruned)


def reference_walk(dim, n, *, symmetry=True, prune=True, stop_at=None, dual=True, cap=True, stats=None, at=None,
                   floor=-1):
    """The per-candidate depth-first walk the gain-array engine replaced.

    Scores every candidate by a loop over the chosen cards and visits the
    candidates of each level one by one.  A candidate is pruned iff its
    score plus the bound is below the best so far or below floor + 1.
    Runs to the end, or until `stop_at` nodes are counted, and returns the
    state the engine saves: the frontier (stack, next_card) and best,
    witness, nodes, pruned.
    An `at` dict, keyed by node counts, receives under each key it
    passes the state the walk would return with that stop_at.
    A `stats` dict receives the number of pushes under "pushes", and
    under "idle" the number of idle pushes: those whose child level makes
    no push and does not raise best.

    With `dual`, a pruned row with k = 3**dim - n < n is the engine's
    min-walk over k-card boards: the score starts at L - k r + C(k, 2),
    each card subtracts the sets it completes, no bound is added, and the
    witness is the walked board.  With `cap`, its base is the first k
    cards of search._cap(dim) when k is at most its size.  Otherwise its
    base with symmetry is symmetry_base(k), whose candidates start at the
    card after its last.  A walk whose base holds all its cards visits
    nothing, and its best is the base's score, with the base as witness.
    Without `dual` every row walks n cards.
    """
    deck = 3 ** dim
    k = deck - n
    complement = dual and prune and k < n
    size = k if complement else n
    base = []
    if prune and symmetry:
        base = list(symmetry_base(size) if complement else (0, 1))
    if complement and cap and k <= len(search._cap(dim)):
        base = list(search._cap(dim)[:k])
    need = size - len(base)
    rows = third_rows(dim)
    if complement:
        r = (deck - 1) // 2
        cnt, sign = deck * r // 3 - k * r + comb(k, 2), -1
        bound = [0] * (size + 1)
    else:
        cnt, sign = 0, 1
        bound = [bound_remaining(s, n) for s in range(n + 1)]

    def new_sets(card, chosen, member):
        return sign * (sum(member[rows[card][b]] for b in chosen) >> 1)

    member = bytearray(deck)
    chosen = []
    for x in base:
        cnt += new_sets(x, chosen, member)
        member[x] = 1
        chosen.append(x)
    best, witness, nodes, pruned = (-1, None, 0, 0) if need else (cnt, list(base), 0, 0)
    stack, cnt_stack = [], []
    # busy[i + 1]: the child level of push stack[i] has pushed or raised
    # best; busy[0] stands for the top level, which no push opens.
    busy = [True]
    pushes = idle = 0
    c = base[-1] + 1 if base else 0
    while need and nodes != stop_at:
        if at is not None and nodes in at and at[nodes] is None:
            at[nodes] = {"stack": list(stack), "next_card": c, "best": best, "witness": witness,
                         "nodes": nodes, "pruned": pruned}
        limit = deck - (need - len(stack) - 1)
        if c >= limit:
            if not stack:
                break
            p = stack.pop()
            cnt = cnt_stack.pop()
            idle += not busy.pop()
            member[p] = 0
            chosen.pop()
            c = p + 1
            continue
        ncnt = cnt + new_sets(c, chosen, member)
        nodes += 1
        if len(chosen) + 1 == size:
            if ncnt > best:
                best, witness = ncnt, chosen + [c]
                busy[-1] = True
        elif prune and ncnt + bound[len(chosen) + 1] < max(best, floor + 1):
            pruned += 1
        else:
            pushes += 1
            busy[-1] = True
            busy.append(False)
            stack.append(c)
            cnt_stack.append(cnt)
            member[c] = 1
            chosen.append(c)
            cnt = ncnt
        c += 1
    if stats is not None:
        stats.update(pushes=pushes, idle=idle)
    return {"stack": stack, "next_card": c, "best": best, "witness": witness, "nodes": nodes, "pruned": pruned}


def reference_outcome(dim, n, *, floor=-1, **kw):
    """The reference walk's result as `outcome` gives the engine's: a
    min-walk's witness is the complement of its walked board, and a best
    that no walked board raises above a floor of 0 or more is the floor,
    witnessed by the greedy prefix."""
    st = reference_walk(dim, n, floor=floor, **kw)
    best, witness = st["best"], st["witness"]
    if floor >= 0 and best <= floor:
        best, witness = floor, greedy_witness(dim, n, symmetry=kw.get("symmetry", True))
    elif len(witness) != n:
        witness = [x for x in range(3 ** dim) if x not in witness]
    return (best, witness, st["nodes"], st["pruned"])


def greedy_witness(dim, n, *, symmetry=True):
    """The greedy trace's n-card prefix as a sorted card list.  With
    symmetry, from d = 3 on, the last digit of every card is swapped with
    its third-last, which sends the trace's second card, 9, to card 1."""
    cards = cmm_run(dim, n).final_board.cards
    if symmetry and dim >= 3:
        digits = [list(decode_card(c, dim)) for c in cards]
        for v in digits:
            v[-1], v[-3] = v[-3], v[-1]
        cards = map(encode_card, digits)
    return sorted(cards)


def plan_floor(dim, n, **kw):
    """The floor of the plan the engine walks for this row."""
    return search._plan(SearchConfig(dim, n, **kw)).floor


def symmetry_base(k):
    """The base a min-walk of k cards starts from with symmetry on when k
    does not fit the cap: cards 0, 1 and 3 for k >= 4, else the first k of
    cards 0 and 1.  A min-walk row that fits the cap walks from it once
    set_plan gives it this base."""
    return (0, 1, 3) if k >= 4 else (0, 1)[:k]


def set_plan(monkeypatch, **fields):
    """Give every plan the engine makes these field values."""
    real = search._plan
    monkeypatch.setattr(search, "_plan", lambda config: replace(real(config), **fields))


class TestBoundRemaining:
    def test_single_step(self):
        assert bound_remaining(11, 12) == 5

    def test_empty_sum(self):
        assert bound_remaining(7, 7) == 0

    def test_is_cumulative(self):
        assert bound_remaining(3, 6) == 3 // 2 + 4 // 2 + 5 // 2

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            bound_remaining(8, 7)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            bound_remaining(-1, 7)

    @pytest.mark.parametrize("size", [True, 2.0, 2.5])
    def test_rejects_non_int_size(self, size):
        with pytest.raises(ValueError, match="integers"):
            bound_remaining(size, 5)
        with pytest.raises(ValueError, match="integers"):
            bound_remaining(0, size)

    def test_closed_form_is_the_defining_sum(self):
        for n in range(90):
            for a in range(n + 1):
                assert bound_remaining(a, n) == sum(m // 2 for m in range(a, n)), (a, n)

    @pytest.mark.parametrize("dim,top", [(3, 13), (5, 39)])
    def test_plan_slack_is_bound_remaining(self, dim, top):
        for n in range(3, top + 1):
            slack = search._plan(SearchConfig(dim=dim, n=n)).slack
            assert slack == tuple(sum(m // 2 for m in range(size + 1, n)) for size in range(n))


class TestConfig:
    def test_board_size_range(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=2)
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=28)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=5, mode="fast")

    @pytest.mark.parametrize("threads", [0, -2, 1.5, 2.0, "2", True, None])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ValueError, match="threads"):
            max_sets_pruned(SearchConfig(dim=3, n=10, threads=threads))

    @pytest.mark.parametrize(
        "field,value",
        [("stop_after_nodes", v) for v in (-5, "5", 5.0, True)]
        + [("report_interval", v) for v in (0, -1.5, "x", None, True, float("nan"))]
        + [pytest.param("report_interval", 10**400, id="report_interval-10**400")]
        + [("naive_budget", v) for v in (-1, "x", 1.5, None, True)]
        + [("symmetry", v) for v in ("no", 1, None)],
    )
    def test_numeric_inputs_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(dim=3, n=10, mode="naive", **{field: value})

    def test_numeric_inputs_accepted(self):
        SearchConfig(dim=3, n=10, stop_after_nodes=0, report_interval=1, naive_budget=0)
        SearchConfig(dim=3, n=10, stop_after_nodes=None, report_interval=0.5)
        SearchConfig(dim=3, n=10, report_interval=float("inf"))

    def test_negative_stop_cli_exit_code(self, capsys):
        code = cli.main(["search", "--props", "3", "--cards", "10", "--stop-after-nodes", "-5"])
        assert code == cli.EXIT_PARSE == 2
        assert "stop_after_nodes" in capsys.readouterr().err


class TestNaive:
    def test_d3_n4(self):
        assert naive(3, 4).max_sets == 1

    def test_d2_n9_full_plane(self):
        assert naive(2, 9).max_sets == 12

    def test_witness_is_lexicographically_first_maximizer(self):
        r = naive(2, 3)
        assert r.max_sets == 1
        assert r.witness.cards == (0, 1, 2)

    def test_budget_refusal_names_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            naive(4, 7)
        assert err.value.estimate == search_space(4, 7)
        assert "e+" in str(err.value) or str(err.value.estimate) in str(err.value)

    @pytest.mark.parametrize("dim,n", [(2, n) for n in range(3, 10)] + [(3, n) for n in range(3, 6)])
    def test_walk_visits_the_closed_form(self, dim, n):
        # Level s holds the C(3**d - n + s, s) prefixes of s cards that leave
        # room for the rest, and the hockey-stick identity sums them over
        # s = 1..n: the skips of the naive walk count every node it passes.
        r = naive(dim, n)
        assert r.complete and r.configs_pruned == 0
        assert r.nodes_visited == sum(comb(3 ** dim - n + s, s) for s in range(1, n + 1)) == comb(3 ** dim + 1, n) - 1

    def test_search_space_matches_cost_model(self):
        from math import comb

        assert search_space(3, 12) == comb(27, 12) * comb(12, 3)

    @pytest.mark.parametrize("n", [True, 2.0, 2.5])
    def test_search_space_rejects_non_int_size(self, n):
        with pytest.raises(ValueError, match="board size must be an integer"):
            search_space(3, n)


class TestPruned:
    def test_d3_n12(self):
        r = pruned(3, 12)
        assert r.max_sets == 14
        assert r.complete

    def test_d2_range_agrees_with_naive(self):
        # Rows 5..9 fit the 4-card cap of AG(2, 3) and walk nothing, with
        # symmetry on or off; every witness recounts.
        for n in range(3, 10):
            exact = naive(2, n).max_sets
            for symmetry in (True, False):
                r = pruned(2, n, symmetry=symmetry)
                assert r.max_sets == count_sets_bruteforce(r.witness) == exact
                assert r.nodes_visited == 0 or n < 5

    def test_d3_small_range_agrees_with_naive(self):
        for n in range(3, 8):
            assert pruned(3, n).max_sets == naive(3, n).max_sets

    def test_witness_achieves_the_maximum(self):
        for n in (6, 9, 12):
            r = pruned(3, n)
            assert count_sets(r.witness) == r.max_sets
            assert count_sets_bruteforce(r.witness) == r.max_sets

    def test_without_symmetry_matches_naive_witness(self, monkeypatch):
        # With no floor the pruned walk finds the naive engine's first
        # maximizer; the greedy board would stand in for it.
        set_plan(monkeypatch, floor=-1)
        for n in (4, 6):
            exact = naive(3, n)
            free = pruned(3, n, symmetry=False)
            assert free.max_sets == exact.max_sets
            assert free.witness == exact.witness

    def test_results_and_fixtures_pickle_and_copy(self):
        import copy
        import pickle
        from dataclasses import asdict

        from setmax import catalog

        for value in (pruned(3, 9), catalog.fixture("twelve_fourteen")):
            for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert clone == value
            assert asdict(value) == vars(value)


REFERENCE_ROWS = (
    [(2, n) for n in range(3, 10)]
    + [(3, n) for n in list(range(3, 13)) + list(range(18, 28))]
    + [(4, n) for n in range(3, 8)]
)

# The rows of REFERENCE_ROWS the engine answers by a min-walk over the
# 3**d - n missing cards.
COMPLEMENT_ROWS = [(d, n) for d, n in REFERENCE_ROWS if 3 ** d - n < n]


class TestReferenceWalk:
    """The block-scoring engine visits, counts and witnesses exactly as the
    one-by-one walk does."""

    @pytest.mark.parametrize("dim,n", REFERENCE_ROWS)
    def test_pruned_row_matches_reference(self, dim, n):
        assert outcome(pruned(dim, n)) == reference_outcome(dim, n, floor=plan_floor(dim, n))

    @pytest.mark.parametrize("dim,n", COMPLEMENT_ROWS)
    def test_complement_row_matches_max_walk(self, dim, n):
        # The reference walk over n-card boards shares no step with the
        # min-walk but the candidate order.
        assert reference_walk(dim, n, dual=False)["best"] == pruned(dim, n).max_sets

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_pruned_without_symmetry_matches_reference(self, n):
        floor = plan_floor(3, n, symmetry=False)
        assert outcome(pruned(3, n, symmetry=False)) == reference_outcome(3, n, symmetry=False, floor=floor)

    @pytest.mark.parametrize("n", [3, 5])
    def test_naive_matches_reference(self, n):
        assert outcome(naive(3, n)) == reference_outcome(3, n, symmetry=False, prune=False)

    @pytest.mark.parametrize("dim,n", [(4, 7), (3, 11)])
    def test_look_ahead_skips_pushes(self, dim, n, monkeypatch):
        # The engine skips the pushes whose child level can do nothing, so
        # it adds fewer cards to a gain array than the one-by-one walk
        # pushes, and counts exactly as that walk does.  It makes every
        # push whose child level does something, and few of the idle ones:
        # without the tie test (and the floor) it made 57 % of them on
        # (4, 7) and 35 % on (3, 11).
        stats = {}
        ref = reference_outcome(dim, n, stats=stats, floor=plan_floor(dim, n))
        real_add = search.add_to_gain
        adds = count()

        def add_to_gain(*args):
            next(adds)
            real_add(*args)

        monkeypatch.setattr(search, "add_to_gain", add_to_gain)
        assert outcome(pruned(dim, n)) == ref
        made = next(adds)
        assert made < stats["pushes"]
        assert made - (stats["pushes"] - stats["idle"]) < stats["idle"] / 4

    @pytest.mark.parametrize("dim,n", [(4, 7), (3, 11), (3, 17)])
    def test_every_check_sees_the_reference_frontier(self, dim, n):
        # Wherever the first unit's walk (the unseeded one) stops, its
        # frontier is the one-by-one walk's at the same node count, once
        # levels whose next card has reached their limit are popped:
        # however the engine groups candidates into steps, it stops only
        # at a step end, between whole candidates, never inside a push.
        # A walk asked to stop 1024 nodes on stops at the first step end
        # past that, and is compared at every such stop.
        plan = search._plan(SearchConfig(dim, n))
        u = search._units(plan)[0]
        state = search._fresh_state(u)
        seen = []
        while True:
            search._dfs_segment(plan, state, u, stop_after_nodes=state["nodes"] + 1024)
            if search._exhausted(u, state):
                break
            seen.append(json.loads(json.dumps(state)))
        assert len(seen) >= 8
        at = dict.fromkeys(st["nodes"] for st in seen)
        reference_walk(dim, n, stop_at=seen[-1]["nodes"] + 1, at=at)
        assert at[seen[0]["nodes"]] == reference_walk(dim, n, stop_at=seen[0]["nodes"])

        def popped(st):
            stack, c = list(st["stack"]), st["next_card"]
            while stack and c >= plan.limit(len(plan.base) + len(stack)):
                c = stack.pop() + 1
            return {**st, "stack": stack, "next_card": c}

        for st in seen:
            assert popped(st) == popped(at[st["nodes"]])

    def test_d7_takes_only_the_thirds_it_needs(self):
        # d=7 is above the built pair table: a push reads its few thirds
        # from rows composed of two smaller built tables.
        t0 = time.monotonic()
        r = pruned(7, 4)
        elapsed = time.monotonic() - t0
        assert (r.max_sets, r.complete) == (1, True)
        assert count_sets(r.witness) == 1
        assert elapsed < 2.0


# Rows small enough to walk with and without the floor.
FLOOR_ROWS = [(2, n) for n in range(3, 10)] + [(3, n) for n in range(3, 14)] + [(4, n) for n in range(3, 10)]


class TestFloor:
    """A max-walk over n <= 3**d / 2 cards prunes against the greedy prefix's
    set count plus one."""

    @pytest.mark.parametrize("dim,n", FLOOR_ROWS)
    def test_floor_on_and_off(self, dim, n, monkeypatch):
        # The floor keeps the maximum, each witness recounts, and without
        # it the engine counts as the one-by-one walk without one.
        on = pruned(dim, n)
        set_plan(monkeypatch, floor=-1)
        off = pruned(dim, n)
        assert on.max_sets == off.max_sets
        for r in (on, off):
            assert r.complete and len(r.witness) == n
            assert count_sets(r.witness) == count_sets_bruteforce(r.witness) == r.max_sets
        assert outcome(off) == reference_outcome(dim, n)

    def test_which_plans_have_a_floor(self):
        # Every pruned plan, with symmetry on or off, walks above the greedy
        # prefix's count as its floor, or has k missing cards that fit the
        # cap: then it starts from the cap's first k cards, has no unit and
        # no floor, and reports its offset.  The naive plan has no floor.
        rows = [(dim, n) for dim in (2, 3, 4) for n in range(3, 3 ** dim + 1)]
        rows += [(5, n) for n in (3, 121, 122, 150, 202, 203, 210, 211, 240, 241, 243)]
        rows += [(6, n) for n in (3, 364, 365, 500, 648, 649, 664, 665, 727, 729)]
        for dim, n in rows:
            deck = 3 ** dim
            r, k = (deck - 1) // 2, deck - n
            greedy = cmm_run(dim, n).cumulative_at(n)
            offset = deck * r // 3 - k * r + comb(k, 2)
            cap = search._cap(dim)
            for symmetry in (True, False):
                plan = search._plan(SearchConfig(dim, n, symmetry=symmetry))
                if k < n and k <= len(cap):
                    assert (plan.floor, plan.base, plan.offset) == (-1, cap[:k], offset), (dim, n, symmetry)
                    assert search._units(plan) == []
                else:
                    assert plan.floor == greedy, (dim, n, symmetry)
            plan = search._plan(SearchConfig(dim, n, mode="naive"))
            assert plan.floor == -1

    def test_one_greedy_trace_serves_many_rows(self, monkeypatch):
        # A row reads its greedy prefix from a trace of min(3**d, the next
        # power of two >= n) turns, so the plans of d=6 n=365..729 (floors
        # up to n=648) run two traces, of 512 and 729 turns, not one per row.
        real, calls = heuristics.cmm_run, []

        def cmm_run(dim, upto=None):
            calls.append((dim, upto))
            return real(dim, upto)

        monkeypatch.setattr(heuristics, "cmm_run", cmm_run)
        search._trace.cache_clear()
        floors = [search._plan(SearchConfig(6, n)).floor for n in range(365, 730)]
        assert sorted(calls) == [(6, 512), (6, 729)]
        assert floors[648 - 365] >= 0 and floors[649 - 365] == -1

    def test_largest_floor_reads_the_whole_d8_trace(self):
        # d=8 n=6240 misses 321 cards, one more than the 320-card cap, so
        # its plan takes its floor from the whole 6561-turn trace.
        plan = search._plan(SearchConfig(8, 6240))
        assert plan.floor == 6171775
        assert plan.floor == cmm_run(8).cumulative_at(6240)

    @pytest.mark.parametrize("dim,n", [(3, n) for n in range(4, 13)] + [(4, n) for n in range(4, 10)])
    def test_floor_below_the_maximum_keeps_the_walks_witness(self, dim, n, monkeypatch):
        # A floor of M - 1 prunes only below M, so the walk finds the
        # maximizers and reports the first, as the walk without a floor.
        with monkeypatch.context() as m:
            set_plan(m, floor=-1)
            free = pruned(dim, n)
        set_plan(monkeypatch, floor=free.max_sets - 1)
        low = pruned(dim, n)
        assert (low.max_sets, low.witness) == (free.max_sets, free.witness)


def _fewest_sets(dim, k):
    """m_d(k) by brute force: the fewest sets on any k-card board."""
    return min(count_sets(Board(dim, cards)) for cards in combinations(range(3 ** dim), k))


@pytest.mark.parametrize("dim,k", [(2, k) for k in range(10)] + [(3, k) for k in range(5)])
def test_complement_identity(dim, k):
    # M_d(N - k) = L - k r + C(k, 2) - m_d(k), with the naive engine's
    # maximum on the left (a board of fewer than 3 cards holds no set).
    lines = all_lines(dim)
    r = sum(1 for line in lines if 0 in line)
    n = 3 ** dim - k
    top = naive(dim, n).max_sets if n >= 3 else 0
    assert top == len(lines) - k * r + comb(k, 2) - _fewest_sets(dim, k)


def _frontier_kind(dim, n, st, floor=-1):
    """Where a frontier lies: inside a leaf level, inside a run of pruned
    candidates that lasts to the end of its level, or elsewhere."""
    stack, c = st["stack"], st["next_card"]
    need = n - 2
    first = stack[-1] + 1 if stack else 2
    limit = 3 ** dim - (need - len(stack) - 1)
    if not first < c < limit:
        return "edge"
    if len(stack) == need - 1:
        return "leaf"
    board = Board(dim, [0, 1] + stack)
    cnt = count_sets(board)
    slack = bound_remaining(len(board) + 1, n)
    if all(cnt + delta_sets(board, x) + slack < max(st["best"], floor + 1) for x in range(c - 1, limit)):
        return "prune run"
    return "other"


class TestResumeInsideBlocks:
    """Frontiers inside the blocks the engine scores at once, on d=3 n=12,
    a row that spans several units and slices under its floor."""

    @pytest.mark.parametrize("stop,kind", [(1_000_000, "leaf"), (603_001, "prune run")])
    def test_resume_from_reference_frontier(self, tmp_path, stop, kind):
        # A frontier the one-by-one walk saves mid-block, as an older
        # checkpoint would hold it, resumes to the uninterrupted result.
        # It goes under its unit, after the units before it walked whole.
        plan = search._plan(SearchConfig(3, 12))
        st = reference_walk(3, 12, stop_at=stop, floor=plan.floor)
        assert _frontier_kind(3, 12, st, plan.floor) == kind
        unit = st["stack"][0]
        if st["witness"] is None or st["witness"][2] != unit:
            # A unit's best is its own; one an earlier unit reached comes
            # back as the seed.
            st.update(best=-1, witness=None)
        units = {}
        for u in range(search._units(plan)[0], unit):
            seed = max([plan.floor + 1] + [f["best"] for f in units.values()])
            units[u] = search._fresh_state(u)
            search._dfs_segment(plan, units[u], u, seed_best=seed)
            assert search._exhausted(u, units[u])
        for key in ("nodes", "pruned"):
            st[key] -= sum(f[key] for f in units.values())
        units[unit] = st
        path = tmp_path / "mid.ckpt"
        checkpoint_save(Checkpoint(SearchConfig(3, 12), units), path)
        assert outcome(resume_search(path)) == outcome(pruned(3, 12))

    def test_stop_and_resume_chain(self, tmp_path):
        ref = pruned(3, 12)
        deck = 27
        for stop in (100_000, 500_001, 1_234_567):
            path = tmp_path / f"stop{stop}.ckpt"
            r = pruned(3, 12, checkpoint_path=str(path), stop_after_nodes=stop)
            assert not r.complete
            # One step scores at most one level's candidates past the stop.
            assert stop <= r.nodes_visited < stop + deck
            while not r.complete:
                r = resume_search(path, stop_after_nodes=r.nodes_visited + 150_000)
            assert outcome(r) == outcome(ref)


class TestParallel:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_same_result_as_sequential(self, threads):
        # No board of these rows beats the floor, so every slice prunes
        # against the floor + 1 whatever the schedule: the counters match
        # as well as the maximum and the witness.
        for n in (10, 11):
            seq = pruned(3, n)
            assert seq.max_sets == plan_floor(3, n)
            par = pruned(3, n, threads=threads)
            assert par.max_sets == seq.max_sets
            assert par.witness == seq.witness
            assert outcome(par) == outcome(seq)

    def test_symmetry_off_witness_deterministic(self):
        seq = pruned(3, 8, symmetry=False)
        par = pruned(3, 8, symmetry=False, threads=2)
        assert (par.max_sets, par.witness) == (seq.max_sets, seq.witness)

    def test_naive_parallel(self):
        assert naive(3, 5, threads=2).max_sets == 2

    def test_pool_units_stop_at_the_budget(self):
        # Each of the two running slices stops at the budget left when it
        # started, overshooting it by less than a deck; no slice starts
        # after a stop.
        budget = 100_000
        r = pruned(4, 10, threads=2, stop_after_nodes=budget)
        assert not r.complete
        assert r.nodes_visited < 2 * (budget + 81)

    def test_one_worker_pool_counts_as_sequential(self, tmp_path):
        # A one-worker pool runs the units in order, each seeded with the
        # best of the units before it: the sequential walk, split up.
        path = _units_checkpoint(tmp_path, {})
        assert outcome(resume_search(path, threads=1)) == outcome(pruned(3, 10))

    def test_checkpoint_bytes_match_across_worker_counts(self, tmp_path):
        # No board of d=3 n=10 beats its floor, so no counter depends on the
        # schedule, and a run saves its units in card order: one worker and
        # two write the same file.
        files = []
        for threads in (1, 2):
            path = tmp_path / f"{threads}.ckpt"
            assert pruned(3, 10, threads=threads, checkpoint_path=str(path)).complete
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_pool_saves_hold_running_units(self, tmp_path, monkeypatch):
        # The pool's saves come at slice ends, so a periodic save holds
        # the frontier a running unit's last slice left, not only units
        # that ended.  The clock ticks once per reading: every slice end
        # comes a report_interval after the last save.
        monkeypatch.setattr(search, "_SLICE", 4096)
        saves = _tick_and_record_saves(monkeypatch)
        path = tmp_path / "pool.ckpt"
        assert pruned(3, 11, threads=2, checkpoint_path=str(path), report_interval=1).complete
        assert any(f["stack"] for _, units in saves[:-1] for f in units.values())
        ref = pruned(3, 11)
        r = resume_search(path, threads=2)
        assert r.complete and (r.max_sets, r.witness) == (ref.max_sets, ref.witness)

    def test_ctrl_c_in_pool_wait(self, tmp_path, monkeypatch):
        # The first wait is interrupted: the run starts no further unit,
        # keeps the frontiers its two running units return, and saves.
        # No board of d=3 n=12 beats its floor, so every slice prunes
        # against the floor + 1, no counter depends on the schedule, and
        # the resumed run counts as one that was never interrupted.
        # The pool machinery is imported when a run starts a pool, so the
        # patches go on the concurrent.futures names the runner looks up.
        real_wait = futures.wait
        waits = count()

        def wait(*args, **kw):
            if next(waits) == 0:
                raise KeyboardInterrupt
            return real_wait(*args, **kw)

        monkeypatch.setattr(futures, "wait", wait)
        path = tmp_path / "pool.ckpt"
        try:
            r = pruned(3, 12, threads=2, checkpoint_path=str(path))
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped the run")
        assert not r.complete
        assert sorted(checkpoint_load(path).units) == [2, 3]
        monkeypatch.undo()
        ref = pruned(3, 12)
        assert ref.max_sets == plan_floor(3, 12)
        assert outcome(resume_search(path, threads=2)) == outcome(ref)

    def test_pool_file_resumes_in_process(self, tmp_path, monkeypatch):
        # `threads`, not the file, decides where the units run.
        path = tmp_path / "pool.ckpt"
        assert not pruned(3, 10, threads=2, checkpoint_path=str(path), stop_after_nodes=10_000).complete

        def no_pool(*args, **kw):
            raise AssertionError("a one-worker resume started a process pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        ref = pruned(3, 10)
        r = resume_search(path, threads=1)
        assert r.complete and (r.max_sets, r.witness) == (ref.max_sets, ref.witness)

    def test_pool_starts_only_when_a_unit_waits(self, monkeypatch):
        # d=3 n=20 fits the cap and has no unit to walk, so two workers
        # start no pool; d=3 n=10 walks and starts exactly one.
        pools = []

        class Pool(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kw):
                pools.append(self)
                super().__init__(*args, **kw)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
        assert pruned(3, 20, threads=2).nodes_visited == 0
        assert pools == []
        assert pruned(3, 10, threads=2).complete
        assert len(pools) == 1

    def test_in_process_file_resumes_in_pool(self, tmp_path, monkeypatch):
        path = tmp_path / "one.ckpt"
        assert not pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        assert any(f["stack"] for f in checkpoint_load(path).units.values())
        pools = []

        class Pool(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kw):
                pools.append(self)
                super().__init__(*args, **kw)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
        ref = pruned(3, 10)
        r = resume_search(path, threads=2)
        assert len(pools) == 1
        assert r.complete and (r.max_sets, r.witness) == (ref.max_sets, ref.witness)


class TestComplementRows:
    """Rows past half the deck through the pool and checkpoints.  d=3
    n=14..17 walk boards of 13..10 missing cards, more than the 9-card cap
    of AG(3, 3), so they walk in full above their floor."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_pool_matches_sequential(self, n):
        seq = pruned(3, n)
        par = pruned(3, n, threads=2)
        assert (par.max_sets, par.witness) == (seq.max_sets, seq.witness)
        assert len(par.witness) == n and count_sets_bruteforce(par.witness) == par.max_sets
        if seq.max_sets == plan_floor(3, n):
            # No board beats the floor (n=16 and 17), so no counter depends
            # on the schedule.
            assert outcome(par) == outcome(seq)

    def test_one_worker_pool_counts_as_sequential(self, tmp_path):
        path = tmp_path / "units.ckpt"
        checkpoint_save(Checkpoint(SearchConfig(3, 16), {}), path)
        assert outcome(resume_search(path, threads=1)) == outcome(pruned(3, 16))

    def test_stop_and_resume_chain(self, tmp_path):
        ref = pruned(3, 14)
        path = tmp_path / "chain.ckpt"
        r = pruned(3, 14, checkpoint_path=str(path), stop_after_nodes=20_000)
        assert not r.complete
        while not r.complete:
            r = resume_search(path, stop_after_nodes=r.nodes_visited + 100_000)
        assert outcome(r) == outcome(ref)

    def test_witness_of_the_row_size_rejected(self, tmp_path, capsys):
        # A saved witness is a walked board of 10 cards, not its complement.
        path = tmp_path / "stack.ckpt"
        assert not pruned(3, 17, checkpoint_path=str(path), stop_after_nodes=20_000).complete
        payload = json.loads(path.read_text())
        unit = next(f for f in payload["units"].values() if f["witness"])
        walked = unit["witness"]
        assert len(walked) == 10
        unit["witness"] = [x for x in range(27) if x not in walked]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="is not 10 distinct cards"):
            resume_search(path)
        code = cli.main(["search", "--props", "3", "--cards", "17", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert "is not 10 distinct cards" in capsys.readouterr().err

    def test_best_is_the_score_of_the_walked_witness(self, tmp_path):
        # A min-walk unit's best is L - k r + C(k, 2) = 117 - 10 * 13 + 45
        # minus the sets on its walked 10-card witness; one more is refused.
        path = tmp_path / "stack.ckpt"
        assert not pruned(3, 17, checkpoint_path=str(path), stop_after_nodes=20_000).complete
        payload = json.loads(path.read_text())
        unit = next(f for f in payload["units"].values() if f["witness"])
        assert unit["best"] == 32 - count_sets(Board(3, unit["witness"]))
        unit["best"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="but its witness scores"):
            resume_search(path)

    def test_version_2_file_refused(self, tmp_path):
        # A version 2 build walked the 17 cards of this row itself: its
        # plan, had it recorded one, would have size 17, not 10.
        path = tmp_path / "v2.ckpt"
        checkpoint_save(Checkpoint(SearchConfig(3, 17), {}), path)
        payload = json.loads(path.read_text())
        assert payload["plan"]["size"] == 10
        payload["plan"]["size"] = 17
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="plan; fields that differ: size$"):
            resume_search(path)

    def test_file_of_the_two_card_base_refused(self, tmp_path, capsys, monkeypatch):
        # A file an earlier build saved walking d=3 n=15 (k = 12) from cards
        # 0 and 1 names another plan.  A file of row 16 (k = 11) saved from
        # cards 0, 1 and 3, the plan this build walks, still resumes.
        for n, base in ((15, (0, 1)), (16, (0, 1, 3))):
            path = tmp_path / f"{n}.ckpt"
            with monkeypatch.context() as m:
                set_plan(m, base=base)
                assert not pruned(3, n, checkpoint_path=str(path), stop_after_nodes=0).complete
            code = cli.main(["search", "--props", "3", "--cards", str(n), "--checkpoint", str(path), "--resume"])
            out, err = capsys.readouterr()
            if n == 15:
                assert code == cli.EXIT_CHECKPOINT == 5
                assert err.endswith("plan; fields that differ: base\n")
            else:
                assert code == 0 and out.splitlines()[0] == "26" and out.splitlines()[-1] == "complete: true"


# Every row of d=2 and d=3 the engine answers through its complement, near-full
# rows (k <= 2) aside, with its maximum.
MIN_WALK_MAXIMA = {(2, 5): 2, (2, 6): 3}
MIN_WALK_MAXIMA.update(zip([(3, n) for n in range(14, 25)], [19, 23, 26, 30, 36, 41, 47, 54, 62, 71, 81]))
MIN_WALK_ROWS = list(MIN_WALK_MAXIMA)


def _offset(dim, n):
    """L - k r + C(k, 2) for k = 3**dim - n: the sets outside a k-card cap."""
    deck = 3 ** dim
    r, k = (deck - 1) // 2, deck - n
    return deck * r // 3 - k * r + comb(k, 2)


@pytest.mark.parametrize("dim,size", [(2, 4), (3, 9), (4, 20), (5, 40), (6, 80), (7, 160), (8, 320)])
def test_cap(dim, size):
    # Each cap is sorted, starts with cards 0 and 1, and holds no set by
    # either counter.
    cap = search._cap(dim)
    assert len(cap) == size and list(cap) == sorted(set(cap)) and cap[:2] == (0, 1)
    assert count_sets(Board(dim, cap)) == 0
    if dim <= 6:
        assert count_sets_bruteforce(Board(dim, cap)) == 0


class TestTarget:
    """A row whose k missing cards fit the cap has its target, the offset
    L - k r + C(k, 2), as its maximum: the cap's first k cards leave it,
    and no k cards leave more.  The engine reports it with no walk."""

    @pytest.mark.parametrize("dim,n", MIN_WALK_ROWS)
    def test_target_on_and_off(self, dim, n, monkeypatch):
        # Given the symmetry base instead of the cap, with no floor, a row
        # that fits the cap walks, finds the same maximum and counts as the
        # one-by-one walk.  Rows 14..17 do not fit the cap and walk from
        # that base above their floor, with or without the edit.
        plan = search._plan(SearchConfig(dim, n))
        on = pruned(dim, n)
        base = symmetry_base(plan.size)
        set_plan(monkeypatch, base=base)
        off = pruned(dim, n)
        assert on.max_sets == off.max_sets == MIN_WALK_MAXIMA[dim, n]
        if plan.floor < 0:
            assert on.nodes_visited == 0 and on.max_sets == _offset(dim, n)
        else:
            assert outcome(on) == outcome(off)
        for r in (on, off):
            assert r.complete and len(r.witness) == n
            assert count_sets(r.witness) == count_sets_bruteforce(r.witness) == r.max_sets
        assert outcome(off) == reference_outcome(dim, n, floor=plan.floor, cap=False)

    @pytest.mark.parametrize("n", range(18, 28))
    def test_target_on_and_off_without_symmetry(self, n, monkeypatch):
        on = pruned(3, n, symmetry=False)
        set_plan(monkeypatch, base=())
        off = pruned(3, n, symmetry=False)
        assert on.complete and on.nodes_visited == 0 and off.complete
        assert on.max_sets == off.max_sets == _offset(3, n)
        for r in (on, off):
            assert len(r.witness) == n and count_sets_bruteforce(r.witness) == r.max_sets

    @pytest.mark.parametrize("dim,cap", [(2, 4), (3, 9), (4, 20), (5, 40), (6, 80)])
    def test_which_plans_have_a_target(self, dim, cap):
        # A pruned min-walk row with k <= cap, near-full rows included,
        # starts from the cap's first k cards with symmetry on or off, so it
        # has no unit and no floor; every other plan walks.
        assert len(search._cap(dim)) == cap
        deck = 3 ** dim
        for n in range(deck // 2 + 1, deck + 1):
            k = deck - n
            for symmetry in (True, False):
                plan = search._plan(SearchConfig(dim, n, symmetry=symmetry))
                settled = (plan.base, plan.floor, search._units(plan)) == (search._cap(dim)[:k], -1, [])
                assert settled == (k <= cap), (n, symmetry)
        for config in (SearchConfig(dim, deck - 3, mode="naive"), SearchConfig(dim, 3)):
            assert search._units(search._plan(config))

    @pytest.mark.parametrize("n", range(61, 82))
    def test_d4_top_row(self, n):
        # M_4(81 - k) = L - k r + C(k, 2) - m_4(k) with L = 1080 and r = 40,
        # and a cap of k <= 20 cards holds no set, so m_4(k) = 0.
        k = 81 - n
        r = pruned(4, n)
        assert r.complete and r.nodes_visited == 0
        assert r.max_sets == 1080 - 40 * k + comb(k, 2)
        assert len(r.witness) == n and count_sets(r.witness) == r.max_sets
        assert count_sets(Board(4, [x for x in range(81) if x not in r.witness.cards])) == 0

    def test_top_rows_at_every_setting(self, monkeypatch):
        # Every row of d=4 n=61..81 and d=5 n=203..243 fits the cap: with
        # symmetry on and off and at one and two workers it reports its
        # offset, complete, with no walk and no pool, and the complement of
        # its witness holds no set.
        def no_pool(*args, **kw):
            raise AssertionError("a run with no unit to walk started a pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        for dim, rows in ((4, range(61, 82)), (5, range(203, 244))):
            for n in rows:
                for symmetry, threads in product((True, False), (1, 2)):
                    r = pruned(dim, n, symmetry=symmetry, threads=threads)
                    assert (r.max_sets, r.nodes_visited, r.complete) == (_offset(dim, n), 0, True), (dim, n)
                    held = set(r.witness.cards)
                    missing = [x for x in range(3 ** dim) if x not in held]
                    assert len(missing) == 3 ** dim - n and count_sets(Board(dim, missing)) == 0

    def test_pool_gives_the_one_worker_witness(self):
        seq = pruned(4, 62)
        par = pruned(4, 62, threads=2)
        assert par.complete and (par.max_sets, par.witness) == (seq.max_sets, seq.witness)

    def test_resume_of_a_file_at_the_target_returns_at_once(self, tmp_path, monkeypatch):
        # A row that fits the cap saves no unit, and resuming its file walks
        # nothing.
        path = tmp_path / "cap.ckpt"
        ref = pruned(4, 70, checkpoint_path=str(path))
        assert ref.complete and ref.max_sets == _offset(4, 70)
        assert checkpoint_load(path).units == {}

        def no_walk(*args, **kw):
            raise AssertionError("a unit started")

        monkeypatch.setattr(search, "_dfs_segment", no_walk)
        for threads in (1, 2):
            again = resume_search(path, threads=threads)
            assert again.complete and outcome(again) == outcome(ref)

    def test_file_of_the_previous_build_refused(self, tmp_path, capsys):
        # The previous build recorded a target in every plan: -1 on a row
        # that walks, and on a row that fits the cap its offset, which it
        # walked to from the symmetry base.  Both files are refused, naming
        # the fields that differ.
        for n, old, differ in (
            (10, {"target": -1}, "target"),
            (20, {"base": [0, 1, 3], "lo": 4, "target": _offset(3, 20)}, "base, lo, target"),
        ):
            path = tmp_path / f"{n}.ckpt"
            checkpoint_save(Checkpoint(SearchConfig(3, n), {}), path)
            payload = json.loads(path.read_text())
            payload["plan"].update(old)
            path.write_text(json.dumps(payload))
            code = cli.main(["search", "--props", "3", "--cards", str(n), "--checkpoint", str(path), "--resume"])
            assert code == cli.EXIT_CHECKPOINT == 5
            assert capsys.readouterr().err.endswith(f"plan; fields that differ: {differ}\n")


class TestLowerBounds:
    """Every on/off combination of the reductions a min-walk stacks, the
    base 0, 1, 3 (with symmetry on) and the floor, keeps each row's
    maximum, as does the target: a row whose missing cards fit the cap is
    settled at its offset with no walk.  Each witness recounts."""

    @pytest.mark.parametrize("dim,n", MIN_WALK_ROWS)
    def test_floor_and_target_on_and_off(self, dim, n, monkeypatch):
        # The engine's own plan is one of the runs: the cap's first k cards
        # with no floor on rows that fit it, else the base 0, 1, 3 above the
        # floor.  On rows with k = 3 the base 0, 1, 3 is the whole walked
        # board.
        plan = search._plan(SearchConfig(dim, n))
        fits = plan.size <= len(search._cap(dim))
        own = search._cap(dim)[:plan.size] if fits else (0, 1, 3)
        assert plan.base == own
        assert search._units(plan) == ([] if fits else list(range(own[-1] + 1, plan.limit(len(own)))))
        greedy = cmm_run(dim, n).cumulative_at(n)
        runs = {(plan.base, plan.floor): pruned(dim, n)}
        for base, floor in product([(0, 1, 3), (0, 1)], {greedy, -1}):
            with monkeypatch.context() as m:
                set_plan(m, base=base, floor=floor)
                runs[base, floor] = pruned(dim, n)
        for key, r in runs.items():
            assert r.complete and r.max_sets == MIN_WALK_MAXIMA[dim, n], key
            assert len(r.witness) == n and count_sets(r.witness) == count_sets_bruteforce(r.witness) == r.max_sets
        if fits:
            assert runs[plan.base, -1].nodes_visited == 0
            walked = symmetry_base(plan.size)
            assert outcome(runs[walked, -1]) == reference_outcome(dim, n, cap=False)

    @pytest.mark.parametrize("n", [15, 16, 17])
    def test_floor_on_and_off_above_the_cap(self, n, monkeypatch):
        # These rows do not fit the cap.  The greedy board reaches their
        # maximum, so with the floor the walk finds nothing above it and
        # the witness is the greedy board; without it the engine counts as
        # the one-by-one walk without one.
        on = pruned(3, n)
        assert on.max_sets == plan_floor(3, n)
        assert list(on.witness.cards) == greedy_witness(3, n)
        set_plan(monkeypatch, floor=-1)
        off = pruned(3, n)
        assert on.max_sets == off.max_sets
        for r in (on, off):
            assert r.complete and len(r.witness) == n
            assert count_sets(r.witness) == count_sets_bruteforce(r.witness) == r.max_sets
        assert outcome(off) == reference_outcome(3, n)
        assert off.nodes_visited > on.nodes_visited


def _parent_plan(dim, n, symmetry):
    """The plan an earlier build recorded for a near-full row: a max-walk
    over the row's own n cards, with no floor and a target of -1."""
    base = [0, 1] if symmetry else []
    slack = [bound_remaining(size + 1, n) for size in range(n)]
    return {"dim": dim, "size": n, "base": base, "lo": len(base), "offset": 0, "step": 1, "slack": slack,
            "floor": -1, "target": -1}


class TestNearFullRows:
    """Rows with k = 3**d - n <= 2 missing cards fit every cap, so they
    report M_d(n) = L - k r + C(k, 2) with no walk, with symmetry on or
    off."""

    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("dim,k", [(dim, k) for dim in range(2, 7) for k in (0, 1, 2)])
    def test_row(self, dim, k, symmetry, tmp_path, capsys):
        deck = 3 ** dim
        n = deck - k
        res = pruned(dim, n, symmetry=symmetry)
        assert res.complete and res.max_sets == _offset(dim, n) and res.nodes_visited == 0
        assert len(res.witness) == n and count_sets(res.witness) == res.max_sets
        if n <= 27:
            assert count_sets_bruteforce(res.witness) == res.max_sets
            # The walk without the cap finds the same first board.
            ref = reference_outcome(dim, n, symmetry=symmetry, cap=False)
            assert outcome(res)[:2] == ref[:2]
        # A checkpoint of the row round-trips.
        path = tmp_path / "row.ckpt"
        assert outcome(pruned(dim, n, symmetry=symmetry, checkpoint_path=str(path))) == outcome(res)
        assert checkpoint_load(path).config == SearchConfig(dim, n, symmetry=symmetry)
        assert outcome(resume_search(path)) == outcome(res)
        # A file the earlier max-walk of the row wrote names another plan.
        # Its base differs unless it is the row's first k of cards 0 and 1.
        payload = json.loads(path.read_text())
        payload.update(plan=_parent_plan(dim, n, symmetry), units={})
        path.write_text(json.dumps(payload))
        moved = k < 2 if symmetry else k > 0
        differ = ["lo", "offset", "size", "slack", "step", "target"] + (["base"] if moved else [])
        argv = ["search", "--props", str(dim), "--cards", str(n), "--checkpoint", str(path), "--resume"]
        assert cli.main(argv + ([] if symmetry else ["--no-symmetry"])) == cli.EXIT_CHECKPOINT == 5
        assert f"plan; fields that differ: {', '.join(sorted(differ))}\n" in capsys.readouterr().err


class TestNaiveCheckpoint:
    """The naive engine is the walk whose plan prunes nothing: it stops and
    resumes through the same run and file format as the pruned engine, and
    its plan alone keeps a resume of either mode off the other's file."""

    def _stopped(self, tmp_path, threads=1):
        path = tmp_path / "naive.ckpt"
        r = naive(3, 6, threads=threads, checkpoint_path=str(path), stop_after_nodes=50_000)
        assert not r.complete
        return path, r

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stop_and_resume_chain(self, tmp_path, threads):
        ref = naive(3, 6)
        assert (ref.nodes_visited, ref.configs_pruned) == (376_739, 0)
        path, r = self._stopped(tmp_path, threads)
        resumes = 0
        while not r.complete:
            r = resume_search(path, threads=threads, stop_after_nodes=r.nodes_visited + 50_000)
            resumes += 1
        assert resumes >= 3
        assert outcome(r) == outcome(ref)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_resume_under_either_symmetry_flag(self, tmp_path, threads):
        # The naive plan ignores the flag, so each resume may flip it.
        ref = naive(3, 6)
        path = tmp_path / "naive.ckpt"
        r = naive(3, 6, symmetry=False, threads=threads, checkpoint_path=str(path), stop_after_nodes=50_000)
        symmetry = False
        while not r.complete:
            symmetry = not symmetry
            r = resume_search(path, dim=3, n=6, mode="naive", symmetry=symmetry, threads=threads,
                              stop_after_nodes=r.nodes_visited + 50_000)
        assert outcome(r) == outcome(ref)

    def test_pruned_resume_under_the_other_symmetry_flag_refused(self, tmp_path):
        path = tmp_path / "pruned.ckpt"
        assert not pruned(3, 6, checkpoint_path=str(path), stop_after_nodes=0).complete
        with pytest.raises(CheckpointError, match=r"\(3, 6, 'pruned', True\), not \(3, 6, 'pruned', False\)"):
            resume_search(path, dim=3, n=6, symmetry=False)

    def test_pruned_resume_refused(self, tmp_path, capsys):
        path, _ = self._stopped(tmp_path)
        saved = path.read_bytes()
        with pytest.raises(CheckpointError, match=r"\(3, 6, 'naive', True\), not \(3, 6, 'pruned', True\)"):
            resume_search(path, dim=3, n=6, mode="pruned")
        code = cli.main(["search", "--props", "3", "--cards", "6", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert path.read_bytes() == saved

    def test_naive_resume_of_pruned_file_refused(self, tmp_path):
        path = tmp_path / "pruned.ckpt"
        assert not pruned(3, 6, checkpoint_path=str(path), stop_after_nodes=0).complete
        code = cli.main(["search", "--props", "3", "--cards", "6", "--mode", "naive", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5

    def test_naive_plan_differs_from_every_pruned_plan(self):
        for symmetry in (True, False):
            plans = {search._plan(SearchConfig(3, 6, mode, symmetry)) for mode in ("naive", "pruned")}
            assert len(plans) == 2

    def test_resume_over_budget_refused(self, tmp_path, capsys):
        # Refused before any unit starts, and the file is left as it was.
        path, _ = self._stopped(tmp_path)
        saved = path.read_bytes()
        with pytest.raises(BudgetExceededError) as err:
            resume_search(path, naive_budget=10)
        assert err.value.estimate == search_space(3, 6)
        code = cli.main(["search", "--props", "3", "--cards", "6", "--mode", "naive", "--budget", "10",
                         "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_BUDGET == 4
        assert "budget" in capsys.readouterr().err
        assert path.read_bytes() == saved


class TestCheckpoint:
    def test_kill_and_resume_three_points(self, tmp_path):
        # Stops in units 2, 3 and 5 of a row that spans several slices.
        ref = pruned(3, 12)
        for stop in (300_000, 750_000, 1_400_000):
            path = tmp_path / f"stop{stop}.ckpt"
            r = pruned(3, 12, checkpoint_path=str(path), stop_after_nodes=stop)
            assert not r.complete
            while not r.complete:
                r = resume_search(path)
            assert r.max_sets == 14
            assert (r.max_sets, r.nodes_visited, r.configs_pruned, r.witness) == (
                ref.max_sets,
                ref.nodes_visited,
                ref.configs_pruned,
                ref.witness,
            )

    def test_resume_from_final_checkpoint_is_identity(self, tmp_path):
        path = tmp_path / "done.ckpt"
        ref = pruned(3, 9, checkpoint_path=str(path))
        assert _every_unit_exhausted(path)
        again = resume_search(path)
        assert again.complete
        assert outcome(again) == outcome(ref)

    def test_resume_from_final_units_checkpoint_is_identity(self, tmp_path):
        path = tmp_path / "done.ckpt"
        ref = pruned(3, 9, threads=2, checkpoint_path=str(path))
        assert ref.complete and _every_unit_exhausted(path)
        again = resume_search(path, threads=2)
        assert again.complete
        assert outcome(again) == outcome(ref)

    def test_parallel_units_resume(self, tmp_path):
        # Pool units stop inside their walks and are seeded with the best
        # known when they start.  No board of d=3 n=10 beats the floor, so
        # each slice prunes against the floor + 1, and the counters match
        # an uninterrupted two-worker run as well as the answer.
        ref = pruned(3, 10, threads=2)
        path = tmp_path / "units.ckpt"
        r = pruned(3, 10, threads=2, checkpoint_path=str(path), stop_after_nodes=10_000)
        while not r.complete:
            r = resume_search(path, threads=2)
        assert (r.max_sets, r.witness) == (ref.max_sets, ref.witness)
        assert outcome(r) == outcome(ref)

    def test_resume_of_another_search_refused(self, tmp_path):
        # The file is refused before the walk, and left as it was.
        path = tmp_path / "run.ckpt"
        assert not pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        saved = path.read_bytes()
        with pytest.raises(CheckpointError, match=r"\(3, 10, 'pruned', True\), not \(4, 12, 'pruned', True\)"):
            resume_search(path, dim=4, n=12)
        assert path.read_bytes() == saved
        assert outcome(resume_search(path, dim=3, n=10)) == outcome(pruned(3, 10))

    @pytest.mark.parametrize("path", ["missing/run.ckpt", "plain.txt/run.ckpt", "run.ckpt"])
    def test_unwritable_path_refused_before_the_walk(self, tmp_path, monkeypatch, path):
        (tmp_path / "plain.txt").write_text("")
        (tmp_path / "run.ckpt").mkdir()

        def no_walk(*args, **kw):
            raise AssertionError("a unit started")

        monkeypatch.setattr(search, "_dfs_segment", no_walk)
        with pytest.raises(ValueError, match="run.ckpt"):
            pruned(3, 8, checkpoint_path=str(tmp_path / path))

    @pytest.mark.parametrize("path", ["", "missing/"])
    def test_path_naming_no_file_refused_before_the_walk(self, tmp_path, monkeypatch, path):
        # Unrefused, the walk would run to its end, and the save to
        # "<path>.tmp" would then fail and lose the result.
        def no_walk(*args, **kw):
            raise AssertionError("a unit started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(search, "_dfs_segment", no_walk)
        with pytest.raises(ValueError, match="names no file"):
            pruned(3, 8, checkpoint_path=path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        # A rename that fails as on a full disk leaves no temporary file.
        path = tmp_path / "run.ckpt"
        assert not pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        saved = path.read_bytes()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

        with monkeypatch.context() as m, pytest.raises(OSError) as err:
            m.setattr(os, "replace", full_disk)
            checkpoint_save(Checkpoint(SearchConfig(3, 10), {}), path)
        assert err.value.errno == errno.ENOSPC
        assert sorted(tmp_path.iterdir()) == [path] and path.read_bytes() == saved

    def test_file_holds_the_search_not_the_run_settings(self, tmp_path):
        path = tmp_path / "run.ckpt"
        assert not pruned(3, 10, threads=2, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        assert checkpoint_load(path).config == SearchConfig(3, 10)
        assert json.loads(path.read_text())["config"] == {"dim": 3, "n": 10, "mode": "pruned", "symmetry": True}

    def test_units_saved_in_card_order(self, tmp_path):
        # Saved in the order units end, a pool's file would depend on
        # scheduling; the run saves in card order whatever order it read.
        plan = search._plan(SearchConfig(3, 10))
        units = {}
        for u in (3, 2):
            units[u] = search._fresh_state(u)
            search._dfs_segment(plan, units[u], u, seed_best=-1)
        path = _units_checkpoint(tmp_path, units)
        assert list(json.loads(path.read_text())["units"]) == ["3", "2"]
        assert not resume_search(path, stop_after_nodes=30_000).complete
        saved = list(json.loads(path.read_text())["units"])
        assert len(saved) > 2 and saved == sorted(saved, key=int)

    def test_card_order_past_unit_9(self, tmp_path):
        # d=3 n=5 has units 2..24, and no board beats its floor, so every
        # slice prunes against the floor + 1 and the file does not depend on
        # scheduling.  One worker and two save the keys in numeric order,
        # where a string sort would put "10" before "2".
        files = []
        for threads in (1, 2):
            path = tmp_path / f"{threads}.ckpt"
            r = pruned(3, 5, threads=threads, checkpoint_path=str(path))
            assert r.complete and r.max_sets == plan_floor(3, 5)
            assert list(json.loads(path.read_text())["units"]) == [str(u) for u in range(2, 25)]
            assert sorted(checkpoint_load(path).units) == list(range(2, 25))
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_restated_search_resumes(self, tmp_path):
        path = tmp_path / "run.ckpt"
        assert not pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        assert outcome(resume_search(path, dim=3, n=10, mode="pruned", symmetry=True)) == outcome(pruned(3, 10))

    def test_report_clock_spans_units(self, tmp_path, monkeypatch):
        # A fake clock that ticks once per reading, and slices small enough
        # that units span many of them.  No unit of d=4 n=7 reads it as
        # often as `interval` times, yet the run saves once per interval,
        # and not once per unit or once per slice.
        monkeypatch.setattr(search, "_SLICE", 4096)
        saves = _tick_and_record_saves(monkeypatch)
        # Under its floor the row reads the clock about 110 times, its
        # largest unit 21 of them.
        interval = 25
        path = tmp_path / "run.ckpt"
        assert pruned(4, 7, checkpoint_path=str(path), report_interval=interval).complete
        units = checkpoint_load(path).units
        # A unit reads the clock once per slice end.
        slices = max(f["nodes"] for f in units.values()) // search._SLICE + 1
        assert 10 < slices < interval
        periodic = [t for t, _ in saves[:-1]]
        assert 3 <= len(periodic) and len(saves) < len(units)
        assert all(interval <= b - a <= interval + 1 for a, b in zip([1.0] + periodic, periodic))

    def test_budgeted_run_ignores_the_slice_size(self, tmp_path, monkeypatch):
        # A walk stops at the first step end past its limit, and a slice
        # end between steps leaves the frontier a walk that never paused
        # there passes through, so a budgeted one-worker run stops at the
        # same frontier whatever the slice size.
        seen = set()
        for size in (4096, 1 << 18, 1 << 40):
            monkeypatch.setattr(search, "_SLICE", size)
            path = tmp_path / f"{size}.ckpt"
            r = pruned(4, 10, checkpoint_path=str(path), stop_after_nodes=1_500_000)
            assert not r.complete
            seen.add(json.dumps([outcome(r), json.loads(path.read_text())["units"]]))
        assert len(seen) == 1

    def test_budgeted_run_stops_within_a_deck(self):
        # A one-worker run stops at the first step end past its budget, and
        # one step adds fewer nodes than the 81-card deck holds: a level's
        # prune run and the push or skip after it, or a leaf level.  The
        # budgets lie on both sides of the 262,144-node slice size.
        for budget in (1, 4095, 4097, 99_999, 262_144, 262_145, 777_777, 1_500_000):
            r = pruned(4, 10, stop_after_nodes=budget)
            assert not r.complete
            assert budget <= r.nodes_visited < budget + 81, budget

    @pytest.mark.parametrize("n, budget", [(12, 1_500_000), (14, "sixth-unit")])
    def test_one_worker_slice_schedule(self, monkeypatch, n, budget):
        # One worker walks the units in card order, each unit's slices back
        # to back.  A slice is seeded with the floor + 1 or the best of every
        # slice before it, whichever is higher, and stops a slice's worth of
        # nodes past its start, or where the run's budget runs out if sooner.
        # No board of d=3 n=12 beats its floor; d=3 n=14 is a min-walk above
        # the cap, and its budget ends inside its sixth unit.
        if budget == "sixth-unit":
            budget = _budget_inside_unit(3, n, 5)
        monkeypatch.setattr(search, "_SLICE", 4096)
        real_walk, calls = search._dfs_segment, []

        def walk(plan, state, u, *, seed_best, stop_after_nodes):
            before = state["nodes"]
            real_walk(plan, state, u, seed_best=seed_best, stop_after_nodes=stop_after_nodes)
            calls.append((u, before, seed_best, stop_after_nodes, state["best"], state["nodes"]))
            return state

        monkeypatch.setattr(search, "_dfs_segment", walk)
        assert not pruned(3, n, stop_after_nodes=budget).complete
        units = [u for u, *_ in calls]
        assert units == sorted(units) and len(set(units)) > 5
        if n == 14:
            assert units[-1] == search._units(search._plan(SearchConfig(3, n)))[5]
        floor, best, spent, last = plan_floor(3, n), -1, 0, (None, 0)
        for u, before, seed, stop, unit_best, after in calls:
            left = budget - spent
            assert before == (last[1] if u == last[0] else 0)
            assert seed == max(floor + 1, best)
            assert stop == before + min(search._SLICE, left)
            best, spent, last = max(best, unit_best), spent + after - before, (u, after)
        assert left < search._SLICE

    @pytest.mark.parametrize("joined", [False, True])
    def test_interrupt_inside_a_step(self, tmp_path, monkeypatch, joined):
        # A KeyboardInterrupt inside a push, before or after the card has
        # joined the board, leaves the unit at the frontier its slice
        # started from, and the run resumes to the uninterrupted result.
        real_add = search.add_to_gain
        calls = count()

        def add_to_gain(gain, chosen, card, rows, step=1):
            interrupt = next(calls) == 3000
            if interrupt and not joined:
                raise KeyboardInterrupt
            real_add(gain, chosen, card, rows, step)
            if interrupt:
                raise KeyboardInterrupt

        monkeypatch.setattr(search, "add_to_gain", add_to_gain)
        path = tmp_path / "run.ckpt"
        try:
            r = pruned(3, 10, checkpoint_path=str(path))
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped the run")
        assert not r.complete
        monkeypatch.undo()
        assert outcome(resume_search(path)) == outcome(pruned(3, 10))

    def test_sigint_is_caught_at_every_instruction(self, tmp_path):
        # Real SIGINTs land wherever the walk is, inside a step too.  Each
        # run returns unfinished with a checkpoint that loads, which needs
        # its frontiers to be ones the walk could have left.  Each SIGINT
        # is sent 5-17 ms of wall time after the run's first walk starts:
        # a stall of the process cannot land it before the run starts, and
        # it cannot land after the run ends, as a SIGINT timed by the
        # process's CPU time sometimes did in full test runs.
        script = f"""
import os, signal
from setmax import search
search.max_sets_pruned(search.SearchConfig(4, 5))
real_walk, delays = search._dfs_segment, []

def walk(*args, **kw):
    if delays:
        signal.setitimer(signal.ITIMER_REAL, delays.pop())
    return real_walk(*args, **kw)

search._dfs_segment = walk
signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))
for i in range(60):
    path = {str(tmp_path)!r} + f"/{{i}}.ckpt"
    delays.append(0.005 + 0.0002 * i)
    r = search.max_sets_pruned(search.SearchConfig(4, 10, checkpoint_path=path))
    assert not r.complete
    search.checkpoint_load(path)
print("ok")
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        payload = {"format": "setmax-checkpoint", "version": 999, "config": {}, "units": {}}
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_text('{"hello": 1}')
        with pytest.raises(CheckpointError):
            checkpoint_load(path)


def _budget_inside_unit(dim, n, index):
    """A node budget that ends a one-worker run of the row halfway through
    its unit `index` (0 for the first): the row's units walked once, in
    card order, each seeded as a one-worker run seeds it."""
    plan = search._plan(SearchConfig(dim, n))
    best, spent = plan.floor + 1, 0
    for u in search._units(plan)[:index + 1]:
        state = search._dfs_segment(plan, search._fresh_state(u), u, seed_best=best)
        best = max(best, state["best"])
        spent += state["nodes"]
    return spent - state["nodes"] // 2


def _tick_and_record_saves(monkeypatch):
    """Make search's clock tick once per reading, and return the list each
    checkpoint save appends (clock before the save, saved units) to."""
    clock = [0.0]

    def monotonic():
        clock[0] += 1
        return clock[0]

    saves = []
    real_save = search.checkpoint_save

    def save(cp, path):
        saves.append((clock[0], json.loads(json.dumps(cp.units))))
        real_save(cp, path)

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(search, "checkpoint_save", save)
    return saves


def _every_unit_exhausted(path):
    cp = checkpoint_load(path)
    units = search._units(search._plan(cp.config))
    return sorted(cp.units) == units and all(search._exhausted(u, cp.units[u]) for u in units)


def _edited_checkpoint(tmp_path, edit):
    """A d=3 n=10 checkpoint stopped inside a unit, with `edit` applied to
    that unit's frontier."""
    path = tmp_path / "edited.ckpt"
    r = pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000)
    assert not r.complete
    payload = json.loads(path.read_text())
    (st,) = [f for f in payload["units"].values() if len(f["stack"]) >= 2]
    edit(st)
    path.write_text(json.dumps(payload))
    return path


BAD_FRONTIERS = {
    "stack repeats a card": lambda st: st.update(stack=[st["stack"][0]] * 2),
    "stack decreases": lambda st: st.update(stack=st["stack"][::-1]),
    "stack below lo": lambda st: st.update(stack=[1] + st["stack"][1:]),
    "stack beyond deck": lambda st: st.update(stack=[2, 27]),
    "stack fills the board": lambda st: st.update(stack=list(range(2, 10)), next_card=10),
    "next_card beyond level": lambda st: st.update(next_card=27),
    "next_card not above stack": lambda st: st.update(next_card=st["stack"][-1]),
    "witness too short": lambda st: st.update(witness=[0, 1, 2]),
    "witness repeats a card": lambda st: st.update(witness=[0] * 10),
    "witness beyond deck": lambda st: st.update(witness=list(range(18, 28))),
    "best above its witness's score": lambda st: st.update(best=99),
    "best without a witness": lambda st: st.update(best=50, witness=None),
}


def _edited_file(tmp_path, edit):
    """A d=3 n=10 checkpoint whose unit 2 has not begun, with `edit` applied
    to the file."""
    path = tmp_path / "edited.ckpt"
    checkpoint_save(Checkpoint(SearchConfig(3, 10), {2: search._fresh_state(2)}), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


BAD_FILES = {
    "stack state is a number": (lambda p: p["units"].update({"2": 5}), "unit 2 5 is not a mapping"),
    "units state is a number": (lambda p: p.update(units=5), "units 5 is not a mapping"),
    "config is a list": (lambda p: p.update(config=[1, 2]), "config"),
    "dim is a string": (lambda p: p["config"].update(dim="x"), "dimension"),
    "n beyond the deck": (lambda p: p["config"].update(n=99), "board size"),
    "n is a float": (lambda p: p["config"].update(n=10.0), "board size"),
    "mode is naive": (lambda p: p["config"].update(mode="naive"), "another walk plan"),
    "symmetry is a string": (lambda p: p["config"].update(symmetry="yes"), "symmetry"),
    "no unit map": (lambda p: p.pop("units"), "missing field 'units'"),
    "stack state lacks pruned": (lambda p: p["units"]["2"].pop("pruned"), "pruned"),
    # The last format: a `kind` and one `state`, the whole walk's frontier.
    "version 4 file": (
        lambda p: p.update(version=4, kind="stack", state=p.pop("units")["2"]),
        "file has 4, this build reads 5",
    ),
    "plan missing": (lambda p: p.pop("plan"), "records no walk plan"),
    # A version 2 build walked the n cards of the complement row n=18; the
    # min-walk has no floor, and starts from cards 0, 1 and 3.
    "plan walks the n cards of a complement row": (
        lambda p: (p["config"].update(n=18), p["plan"].update(size=18)),
        "plan; fields that differ: base, floor, offset, size, slack, step",
    ),
    # The previous build recorded the first work unit as `lo`.
    "plan of the previous build": (lambda p: p["plan"].update(lo=2), "plan; fields that differ: lo"),
    # A build before the floor recorded none.
    "plan without a floor": (lambda p: p["plan"].pop("floor"), "plan; fields that differ: floor"),
    "plan base edited": (lambda p: p["plan"].update(base=[0, 2]), "plan; fields that differ: base"),
    "plan slack edited": (lambda p: p["plan"]["slack"].__setitem__(3, 0), "plan; fields that differ: slack"),
}


class TestCheckpointValidation:
    @pytest.mark.parametrize("case", list(BAD_FILES))
    def test_corrupt_file_rejected(self, tmp_path, case):
        edit, reason = BAD_FILES[case]
        path = _edited_file(tmp_path, edit)
        with pytest.raises(CheckpointError, match=reason):
            resume_search(path)

    def test_corrupt_file_cli_exit_code(self, tmp_path, capsys):
        for case, (edit, reason) in BAD_FILES.items():
            path = _edited_file(tmp_path, edit)
            code = cli.main(["search", "--props", "3", "--cards", "10", "--checkpoint", str(path), "--resume"])
            assert code == cli.EXIT_CHECKPOINT == 5, case
            assert reason in capsys.readouterr().err, case

    @pytest.mark.parametrize("case", list(BAD_FRONTIERS))
    def test_rejected_on_resume(self, tmp_path, case):
        path = _edited_checkpoint(tmp_path, BAD_FRONTIERS[case])
        with pytest.raises(CheckpointError):
            resume_search(path)

    def test_cli_exit_code(self, tmp_path, capsys):
        path = _edited_checkpoint(tmp_path, BAD_FRONTIERS["stack decreases"])
        code = cli.main(["search", "--props", "3", "--cards", "10", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        # The reversed stack leaves the walk at its first card, the old top
        # card, which lies past the top level [u, u + 1).
        (key, st), = [(k, f) for k, f in json.loads(path.read_text())["units"].items() if len(f["stack"]) >= 2]
        reason = (
            f"checkpoint unit {key} holds no frontier of its walk: "
            f"card {st['stack'][0]} is past the end {int(key) + 1} of level 2"
        )
        assert reason in capsys.readouterr().err


def _units_checkpoint(tmp_path, units):
    """A d=3 n=10 checkpoint file whose unit map is `units`, keyed as the
    file spells them."""
    path = tmp_path / "units.ckpt"
    checkpoint_save(Checkpoint(SearchConfig(3, 10), {}), path)
    payload = json.loads(path.read_text())
    payload["units"] = units
    path.write_text(json.dumps(payload))
    return path


# The exhausted frontier unit 2's walk leaves: a valid unit map entry.
UNIT_2 = {"stack": [], "next_card": 3, "best": 12, "witness": list(range(10)), "nodes": 5, "pruned": 0}

BAD_UNITS = {
    "done is a list": ([1, 2], "not a mapping of units"),
    "key is not a unit": ({"2": UNIT_2, "999": UNIT_2}, "not a work unit"),
    "result is not a mapping": ({"2": 5}, "unit 2 5 is not a mapping"),
    "result lacks pruned": ({"2": {k: v for k, v in UNIT_2.items() if k != "pruned"}}, "missing field 'pruned'"),
    "best is a string": ({"2": {**UNIT_2, "best": "x"}}, "best 'x' is not an integer"),
    "nodes is a float": ({"2": {**UNIT_2, "nodes": 1.5}}, "nodes 1.5 is not an integer"),
    "witness repeats a card": ({"2": {**UNIT_2, "witness": [0] * 10}}, "witness"),
    "stack starts at another unit's card": ({"2": {**UNIT_2, "stack": [3], "next_card": 4}}, "no frontier of its walk"),
    "next_card before the unit": ({"3": {**UNIT_2, "next_card": 2}}, "no frontier of its walk"),
    "next_card beyond the unit": ({"2": {**UNIT_2, "next_card": 4}}, "no frontier of its walk"),
    "best above its witness's score": ({"2": {**UNIT_2, "best": 99}}, "has best 99, but its witness scores 12"),
    "best without a witness": ({"2": {**UNIT_2, "best": 50, "witness": None}}, "has best 50, but its witness scores -1"),
    "witness without a best": ({"2": {**UNIT_2, "best": -1}}, "has best -1, but its witness scores 12"),
    "nodes negative": ({"2": {**UNIT_2, "nodes": -1}}, "counts 0 prunes of -1 nodes"),
    "pruned negative": ({"2": {**UNIT_2, "pruned": -1}}, "counts -1 prunes of 5 nodes"),
    "pruned above nodes": ({"2": {**UNIT_2, "pruned": 6}}, "counts 6 prunes of 5 nodes"),
    # 21 ends level 3 (the second card after the base): it is no candidate.
    "stack card past its level": ({"2": {**UNIT_2, "stack": [2, 21], "next_card": 22}}, "past the end 21 of level 3"),
    # A board of unit 3's walk, with its own score.
    "witness of another unit's walk": (
        {"2": {**UNIT_2, "witness": [0, 1, 3, 6, 9, 12, 15, 18, 21, 24]}},
        "no board of unit 2's walk",
    ),
    "unit holds an extra field": ({"2": {**UNIT_2, "done": True}}, "holds fields beyond a frontier: done"),
    "witness out of order": ({"2": {**UNIT_2, "witness": [0, 1, 2, 4, 3, 5, 6, 7, 8, 9]}}, "no board of unit 2's walk"),
    # False == 0 and 1.0 == 1, so these match the base [0, 1] as values.
    "witness base card a bool": ({"2": {**UNIT_2, "witness": [False, *range(1, 10)]}}, "is not 10 distinct cards"),
    "witness base card a float": ({"2": {**UNIT_2, "witness": [0, 1.0, *range(2, 10)]}}, "is not 10 distinct cards"),
}
# int() reads each of these keys as unit 2, but the file spells a unit as
# str(u) does.
MISSPELLED_KEYS = ["02", " 2", "2.0", "+2"]
BAD_UNITS.update({f"key {key!r}": ({key: UNIT_2}, "not a work unit") for key in MISSPELLED_KEYS})


class TestUnitsCheckpointValidation:
    def test_valid_unit_accepted(self, tmp_path):
        path = _units_checkpoint(tmp_path, {"2": UNIT_2})
        assert resume_search(path, threads=2).complete

    @pytest.mark.parametrize("dim,n,mode", [(3, 10, "pruned"), (3, 17, "pruned"), (4, 7, "pruned"), (3, 6, "naive")])
    def test_every_frontier_of_the_walk_accepted(self, dim, n, mode):
        # Every frontier a unit's walk leaves passes the check: fresh, at
        # each stop and at the end, for every unit of the row, each seeded
        # as a one-worker run seeds it.  A walk asked to stop 4096 nodes on
        # stops at the first step end past that.
        plan = search._plan(SearchConfig(dim, n, mode=mode))
        checked = count()
        best = -1
        for u in search._units(plan):
            state = search._fresh_state(u)
            while True:
                saved = json.loads(json.dumps(state))
                assert search._check_units(plan, {str(u): saved}) == {u: saved}
                next(checked)
                if search._exhausted(u, state):
                    break
                search._dfs_segment(plan, state, u, seed_best=best, stop_after_nodes=state["nodes"] + 4096)
            best = max(best, state["best"])
        assert next(checked) > 2 * len(search._units(plan))

    @pytest.mark.parametrize("case", list(BAD_UNITS))
    def test_rejected_on_resume(self, tmp_path, case):
        units, reason = BAD_UNITS[case]
        path = _units_checkpoint(tmp_path, units)
        with pytest.raises(CheckpointError, match=reason):
            resume_search(path)

    def test_cli_exit_code(self, tmp_path, capsys):
        path = _units_checkpoint(tmp_path, BAD_UNITS["key is not a unit"][0])
        code = cli.main(["search", "--props", "3", "--cards", "10", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert "not a work unit" in capsys.readouterr().err

    @pytest.mark.parametrize("key", MISSPELLED_KEYS)
    def test_misspelled_key_cli_exit_code(self, tmp_path, capsys, key):
        path = _units_checkpoint(tmp_path, {key: UNIT_2})
        code = cli.main(["search", "--props", "3", "--cards", "10", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert f"checkpoint unit {key!r} is not a work unit" in capsys.readouterr().err


class TestRunTable:
    def test_d2_table_values_and_csv(self):
        sink = io.StringIO()
        rows = run_table(2, 3, 9, sink)
        assert [r.max_sets for r in rows] == [1, 1, 2, 3, 5, 8, 12]
        lines = sink.getvalue().splitlines()
        assert lines[0] == "n,max_sets,search_space,nodes_visited,elapsed_seconds,complete"
        assert len(lines) == 8
        assert lines[1].startswith("3,1,84,")
        assert all(line.endswith(",true") for line in lines[1:])

    def test_monotone_in_board_size(self):
        rows = run_table(3, 3, 10)
        values = [r.max_sets for r in rows]
        assert values == sorted(values)

    @pytest.mark.parametrize("bounds", [(3.0, 5), (3, 5.0), (True, 5)])
    def test_range_must_be_ints(self, bounds):
        # range() would raise TypeError on a float bound.
        with pytest.raises(ValueError, match="need integers"):
            table_configs(3, *bounds)
        with pytest.raises(ValueError, match="need integers"):
            run_table(3, *bounds)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            run_table(2, 5, 4)
        with pytest.raises(ValueError):
            run_table(2, 3, 10)
