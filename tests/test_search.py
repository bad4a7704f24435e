import io
import json
import subprocess
import sys
import time
from concurrent import futures
from itertools import combinations, count
from math import comb
from types import SimpleNamespace

import pytest

from setmax import cli, search
from setmax.counting import Board, count_sets, count_sets_bruteforce, delta_sets
from setmax.geometry import all_lines, third_rows
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
)


def naive(d, n, **kw):
    return max_sets_naive(SearchConfig(dim=d, n=n, mode="naive", **kw))


def pruned(d, n, **kw):
    return max_sets_pruned(SearchConfig(dim=d, n=n, **kw))


def outcome(r):
    return (r.max_sets, list(r.witness.cards), r.nodes_visited, r.configs_pruned)


def reference_walk(dim, n, *, symmetry=True, prune=True, stop_at=None, dual=True, stats=None):
    """The per-candidate depth-first walk the gain-array engine replaced.

    Scores every candidate by a loop over the chosen cards and visits the
    candidates of each level one by one.  Runs to the end, or until
    `stop_at` nodes are counted, and returns the state the engine saves:
    the frontier (stack, next_card) and best, witness, nodes, pruned.
    A `stats` dict receives the number of pushes under "pushes", and
    under "idle" the number of idle pushes: those whose child level makes
    no push and does not raise best.

    With `dual`, a pruned row with 3 <= k = 3**dim - n < n is the engine's
    min-walk over k-card boards: the score starts at L - k r + C(k, 2),
    each card subtracts the sets it completes, no bound is added, and the
    witness is the walked board.  Without it every row walks n cards.
    """
    deck = 3 ** dim
    k = deck - n
    complement = dual and prune and 3 <= k < n
    size = k if complement else n
    base = [0, 1] if prune and symmetry else []
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
    best, witness, nodes, pruned = -1, None, 0, 0
    stack, cnt_stack = [], []
    # busy[i + 1]: the child level of push stack[i] has pushed or raised
    # best; busy[0] stands for the top level, which no push opens.
    busy = [True]
    pushes = idle = 0
    c = len(base)
    while nodes != stop_at:
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
        elif prune and ncnt + bound[len(chosen) + 1] < best:
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


def reference_outcome(dim, n, **kw):
    """The reference walk's result as `outcome` gives the engine's: a
    min-walk's witness is the complement of its walked board."""
    st = reference_walk(dim, n, **kw)
    witness = st["witness"]
    if len(witness) != n:
        witness = [x for x in range(3 ** dim) if x not in witness]
    return (st["best"], witness, st["nodes"], st["pruned"])


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
        + [("naive_budget", v) for v in (-1, "x", 1.5, None, True)]
        + [("symmetry", v) for v in ("no", 1, None)],
    )
    def test_numeric_inputs_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(dim=3, n=10, mode="naive", **{field: value})

    def test_numeric_inputs_accepted(self):
        SearchConfig(dim=3, n=10, stop_after_nodes=0, report_interval=1, naive_budget=0)
        SearchConfig(dim=3, n=10, stop_after_nodes=None, report_interval=0.5)

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

    def test_search_space_matches_cost_model(self):
        from math import comb

        assert search_space(3, 12) == comb(27, 12) * comb(12, 3)


class TestPruned:
    def test_d3_n12(self):
        r = pruned(3, 12)
        assert r.max_sets == 14
        assert r.complete

    def test_d2_range_agrees_with_naive(self):
        for n in range(3, 10):
            assert pruned(2, n).max_sets == naive(2, n).max_sets

    def test_d3_small_range_agrees_with_naive(self):
        for n in range(3, 8):
            assert pruned(3, n).max_sets == naive(3, n).max_sets

    def test_witness_achieves_the_maximum(self):
        for n in (6, 9, 12):
            r = pruned(3, n)
            assert count_sets(r.witness) == r.max_sets
            assert count_sets_bruteforce(r.witness) == r.max_sets

    def test_without_symmetry_matches_naive_witness(self):
        for n in (4, 6):
            exact = naive(3, n)
            free = pruned(3, n, symmetry=False)
            assert free.max_sets == exact.max_sets
            assert free.witness == exact.witness


REFERENCE_ROWS = (
    [(2, n) for n in range(3, 10)]
    + [(3, n) for n in list(range(3, 13)) + list(range(18, 28))]
    + [(4, n) for n in range(3, 8)]
)

# The rows of REFERENCE_ROWS the engine answers by a min-walk over the
# 3**d - n missing cards.
COMPLEMENT_ROWS = [(d, n) for d, n in REFERENCE_ROWS if 3 <= 3 ** d - n < n]


class TestReferenceWalk:
    """The block-scoring engine visits, counts and witnesses exactly as the
    one-by-one walk does."""

    @pytest.mark.parametrize("dim,n", REFERENCE_ROWS)
    def test_pruned_row_matches_reference(self, dim, n):
        assert outcome(pruned(dim, n)) == reference_outcome(dim, n)

    @pytest.mark.parametrize("dim,n", COMPLEMENT_ROWS)
    def test_complement_row_matches_max_walk(self, dim, n):
        # The reference walk over n-card boards shares no step with the
        # min-walk but the candidate order.
        assert reference_walk(dim, n, dual=False)["best"] == pruned(dim, n).max_sets

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_pruned_without_symmetry_matches_reference(self, n):
        assert outcome(pruned(3, n, symmetry=False)) == reference_outcome(3, n, symmetry=False)

    @pytest.mark.parametrize("n", [3, 5])
    def test_naive_matches_reference(self, n):
        assert outcome(naive(3, n)) == reference_outcome(3, n, symmetry=False, prune=False)

    @pytest.mark.parametrize("dim,n", [(4, 7), (3, 11)])
    def test_look_ahead_skips_pushes(self, dim, n, monkeypatch):
        # The engine skips the pushes whose child level can do nothing, so
        # it adds fewer cards to a gain array than the one-by-one walk
        # pushes, and counts exactly as that walk does.  It makes every
        # push whose child level does something, and few of the idle ones:
        # without the tie test it made 57 % of them on (4, 7) and 35 % on
        # (3, 11).
        stats = {}
        ref = reference_outcome(dim, n, stats=stats)
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

    def test_d7_takes_only_the_thirds_it_needs(self):
        # d=7 is above the built pair table: a push reads its few thirds
        # from rows composed of two smaller built tables.
        t0 = time.monotonic()
        r = pruned(7, 4)
        elapsed = time.monotonic() - t0
        assert (r.max_sets, r.complete) == (1, True)
        assert count_sets(r.witness) == 1
        assert elapsed < 2.0


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


def _frontier_kind(dim, n, st):
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
    if all(cnt + delta_sets(board, x) + slack < st["best"] for x in range(c - 1, limit)):
        return "prune run"
    return "other"


class TestResumeInsideBlocks:
    @pytest.mark.parametrize("stop,kind", [(100_000, "leaf"), (500_001, "prune run")])
    def test_resume_from_reference_frontier(self, tmp_path, stop, kind):
        # A frontier the one-by-one walk saves mid-block, as an older
        # checkpoint would hold it, resumes to the uninterrupted result.
        # It goes under its unit, after the units before it walked whole;
        # it keeps the walk's best so far, which seeds its unit as the
        # best of those units would.
        st = reference_walk(4, 7, stop_at=stop)
        assert _frontier_kind(4, 7, st) == kind
        plan = search._plan(SearchConfig(4, 7))
        unit = st["stack"][0]
        units = {}
        for u in range(plan.lo, unit):
            seed = max([-1] + [f["best"] for f in units.values()])
            units[str(u)] = search._fresh_state(u)
            search._dfs_segment(plan, units[str(u)], end=u + 1, seed_best=seed)
            assert search._exhausted(u, units[str(u)])
        for key in ("nodes", "pruned"):
            st[key] -= sum(f[key] for f in units.values())
        units[str(unit)] = st
        path = tmp_path / "mid.ckpt"
        checkpoint_save(Checkpoint(4, 7, "pruned", True, units), path)
        assert outcome(resume_search(path)) == outcome(pruned(4, 7))

    def test_stop_and_resume_chain(self, tmp_path):
        ref = pruned(4, 7)
        deck = 81
        for stop in (100_000, 500_001, 1_234_567):
            path = tmp_path / f"stop{stop}.ckpt"
            r = pruned(4, 7, checkpoint_path=str(path), stop_after_nodes=stop)
            assert not r.complete
            # One step scores at most one level's candidates past the check.
            assert stop <= r.nodes_visited < stop + 4096 + deck
            while not r.complete:
                r = resume_search(path, stop_after_nodes=r.nodes_visited + 150_000)
            assert outcome(r) == outcome(ref)


class TestParallel:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_same_result_as_sequential(self, threads):
        seq = pruned(3, 10)
        par = pruned(3, 10, threads=threads)
        assert par.max_sets == seq.max_sets
        assert par.witness == seq.witness

    def test_symmetry_off_witness_deterministic(self):
        seq = pruned(3, 8, symmetry=False)
        par = pruned(3, 8, symmetry=False, threads=2)
        assert (par.max_sets, par.witness) == (seq.max_sets, seq.witness)

    def test_naive_parallel(self):
        assert naive(3, 5, threads=2).max_sets == 2

    def test_pool_units_stop_at_the_budget(self):
        # Each of the two running units stops at the budget left when it
        # started, overshooting it by less than a progress interval plus a
        # deck; no unit starts after a stop.
        budget = 100_000
        r = pruned(4, 10, threads=2, stop_after_nodes=budget)
        assert not r.complete
        assert r.nodes_visited < 2 * (budget + search._PROGRESS_EVERY + 81)

    def test_one_worker_pool_counts_as_sequential(self, tmp_path):
        # A one-worker pool runs the units in order, each seeded with the
        # best of the units before it: the sequential walk, split up.
        path = _units_checkpoint(tmp_path, {})
        assert outcome(resume_search(path, threads=1)) == outcome(pruned(3, 10))

    def test_interrupted_unit_is_not_done(self, tmp_path, monkeypatch):
        # The pool forks, so the patched walk reaches the workers: unit 2
        # stops at its first stop check, as a walk that catches
        # KeyboardInterrupt does.
        walk = search._dfs_segment

        def stop_unit_2(plan, state, **kw):
            if kw.get("end") == 3:
                kw["stop_after_nodes"] = 1
            return walk(plan, state, **kw)

        monkeypatch.setattr(search, "_dfs_segment", stop_unit_2)
        path = tmp_path / "units.ckpt"
        r = pruned(3, 10, threads=2, checkpoint_path=str(path))
        assert not r.complete
        # Unit 2 keeps the frontier it stopped at.
        unit_2 = checkpoint_load(path).units["2"]
        assert unit_2["nodes"] > 0 and not search._exhausted(2, unit_2)
        monkeypatch.undo()
        ref = pruned(3, 10)
        r = resume_search(path, threads=2)
        assert r.complete and (r.max_sets, r.witness) == (ref.max_sets, ref.witness)

    def test_ctrl_c_in_pool_wait(self, tmp_path, monkeypatch):
        # The first wait is interrupted: the run starts no further unit,
        # keeps the frontiers its two running units return, and saves.
        # Nothing is pruned at d=3 n=5, so no counter depends on the best a
        # unit is seeded with, and the resumed run counts as one that was
        # never interrupted.
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
            r = pruned(3, 5, threads=2, checkpoint_path=str(path))
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped the run")
        assert not r.complete
        assert sorted(checkpoint_load(path).units) == ["2", "3"]
        monkeypatch.undo()
        ref = pruned(3, 5)
        assert ref.configs_pruned == 0
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
    n=17 and 18 walk boards of 10 and 9 missing cards."""

    @pytest.mark.parametrize("n", [17, 18])
    def test_pool_matches_sequential(self, n):
        seq = pruned(3, n)
        par = pruned(3, n, threads=2)
        assert (par.max_sets, par.witness) == (seq.max_sets, seq.witness)
        assert len(par.witness) == n and count_sets_bruteforce(par.witness) == par.max_sets

    def test_one_worker_pool_counts_as_sequential(self, tmp_path):
        path = tmp_path / "units.ckpt"
        checkpoint_save(Checkpoint(3, 18, "pruned", True, {}), path)
        assert outcome(resume_search(path, threads=1)) == outcome(pruned(3, 18))

    def test_stop_and_resume_chain(self, tmp_path):
        ref = pruned(3, 18)
        path = tmp_path / "chain.ckpt"
        r = pruned(3, 18, checkpoint_path=str(path), stop_after_nodes=20_000)
        assert not r.complete
        while not r.complete:
            r = resume_search(path, stop_after_nodes=r.nodes_visited + 20_000)
        assert outcome(r) == outcome(ref)

    def test_witness_of_the_row_size_rejected(self, tmp_path, capsys):
        # A saved witness is a walked board of 9 cards, not its complement.
        path = tmp_path / "stack.ckpt"
        assert not pruned(3, 18, checkpoint_path=str(path), stop_after_nodes=20_000).complete
        payload = json.loads(path.read_text())
        unit = next(f for f in payload["units"].values() if f["witness"])
        walked = unit["witness"]
        assert len(walked) == 9
        unit["witness"] = [x for x in range(27) if x not in walked]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="is not 9 distinct cards"):
            resume_search(path)
        code = cli.main(["search", "--props", "3", "--cards", "18", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert "is not 9 distinct cards" in capsys.readouterr().err

    def test_best_is_the_score_of_the_walked_witness(self, tmp_path):
        # A min-walk unit's best is L - k r + C(k, 2) = 117 - 9 * 13 + 36
        # minus the sets on its walked 9-card witness; one more is refused.
        path = tmp_path / "stack.ckpt"
        assert not pruned(3, 18, checkpoint_path=str(path), stop_after_nodes=20_000).complete
        payload = json.loads(path.read_text())
        unit = next(f for f in payload["units"].values() if f["witness"])
        assert unit["best"] == 36 - count_sets(Board(3, unit["witness"]))
        unit["best"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="but its witness scores"):
            resume_search(path)

    def test_version_2_file_refused(self, tmp_path):
        # A version 2 build walked the 18 cards of this row itself: its
        # plan, had it recorded one, would have size 18, not 9.
        path = tmp_path / "v2.ckpt"
        checkpoint_save(Checkpoint(3, 18, "pruned", True, {}), path)
        payload = json.loads(path.read_text())
        assert payload["plan"]["size"] == 9
        payload["plan"]["size"] = 18
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="plan; fields that differ: size$"):
            resume_search(path)


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

    def test_pruned_resume_refused(self, tmp_path, capsys):
        path, _ = self._stopped(tmp_path)
        saved = path.read_bytes()
        with pytest.raises(CheckpointError, match=r"\(3, 6, 'naive', True\), not \(3, 6, 'pruned', True\)"):
            search.resume_checkpoint(SearchConfig(3, 6, checkpoint_path=str(path)))
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
        ref = pruned(3, 10)
        for stop in (30_000, 75_000, 140_000):
            path = tmp_path / f"stop{stop}.ckpt"
            r = pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=stop)
            assert not r.complete
            while not r.complete:
                r = resume_search(path)
            assert r.max_sets == 12
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
        # known when they start, so only the answer, not the counters,
        # matches an uninterrupted two-worker run.
        ref = pruned(3, 10, threads=2)
        path = tmp_path / "units.ckpt"
        r = pruned(3, 10, threads=2, checkpoint_path=str(path), stop_after_nodes=10_000)
        while not r.complete:
            r = resume_search(path, threads=2)
        assert (r.max_sets, r.witness) == (ref.max_sets, ref.witness)

    def test_resume_of_another_search_refused(self, tmp_path):
        # The file is refused before the walk, and left as it was.
        path = tmp_path / "run.ckpt"
        assert not pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000).complete
        saved = path.read_bytes()
        with pytest.raises(CheckpointError, match=r"\(3, 10, 'pruned', True\), not \(4, 12, 'pruned', True\)"):
            search.resume_checkpoint(SearchConfig(4, 12, checkpoint_path=str(path)))
        assert path.read_bytes() == saved
        assert outcome(search.resume_checkpoint(SearchConfig(3, 10, checkpoint_path=str(path)))) == outcome(pruned(3, 10))

    def test_resume_without_a_path_refused(self, monkeypatch):
        # Refused by name before any file is read.
        def load(path):
            raise AssertionError(f"read checkpoint {path!r}")

        monkeypatch.setattr(search, "checkpoint_load", load)
        with pytest.raises(ValueError, match="checkpoint_path is None"):
            search.resume_checkpoint(SearchConfig(3, 10))

    @pytest.mark.parametrize("path", ["missing/run.ckpt", "plain.txt/run.ckpt", "run.ckpt"])
    def test_unwritable_path_refused_before_the_walk(self, tmp_path, monkeypatch, path):
        (tmp_path / "plain.txt").write_text("")
        (tmp_path / "run.ckpt").mkdir()

        def no_walk(*args, **kw):
            raise AssertionError("a unit started")

        monkeypatch.setattr(search, "_dfs_segment", no_walk)
        with pytest.raises(ValueError, match="run.ckpt"):
            pruned(3, 8, checkpoint_path=str(tmp_path / path))

    def test_report_clock_spans_units(self, tmp_path, monkeypatch):
        # A fake clock that ticks once per reading.  No unit of d=4 n=7
        # reads it as often as `interval` times, yet the run saves once
        # per interval, and not once per unit.
        clock = [0.0]

        def monotonic():
            clock[0] += 1
            return clock[0]

        saves = []
        real_save = search.checkpoint_save

        def save(cp, path):
            saves.append(clock[0])
            real_save(cp, path)

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(search, "checkpoint_save", save)
        interval = 100
        path = tmp_path / "run.ckpt"
        assert pruned(4, 7, checkpoint_path=str(path), report_interval=interval).complete
        units = checkpoint_load(path).units
        # A unit reads the clock once per progress check and once at its end.
        assert max(f["nodes"] for f in units.values()) // search._PROGRESS_EVERY + 1 < interval
        periodic = saves[:-1]
        assert 3 <= len(periodic) and len(saves) < len(units)
        assert all(interval <= b - a <= interval + 1 for a, b in zip([1.0] + periodic, periodic))

    @pytest.mark.parametrize("joined", [False, True])
    def test_interrupt_inside_a_step(self, tmp_path, monkeypatch, joined):
        # A KeyboardInterrupt inside a push, before or after the card has
        # joined the board, leaves the frontier of the walk's last check,
        # and the run resumes to the uninterrupted result.
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
        # is sent after 5-17 ms of the process's own CPU time, so a stall
        # of the process cannot land it before the run starts.
        script = f"""
import os, signal
from setmax import search
search.max_sets_pruned(search.SearchConfig(4, 5))
signal.signal(signal.SIGVTALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))
for i in range(60):
    path = {str(tmp_path)!r} + f"/{{i}}.ckpt"
    signal.setitimer(signal.ITIMER_VIRTUAL, 0.005 + 0.0002 * i)
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


def _every_unit_exhausted(path):
    cp = checkpoint_load(path)
    units = search._units(search._plan(SearchConfig(cp.dim, cp.n)))
    return sorted(map(int, cp.units)) == units and all(search._exhausted(u, cp.units[str(u)]) for u in units)


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
    checkpoint_save(Checkpoint(3, 10, "pruned", True, {"2": search._fresh_state(2)}), path)
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
    # A version 2 build walked the n cards of the complement row n=18.
    "plan walks the n cards of a complement row": (
        lambda p: (p["config"].update(n=18), p["plan"].update(size=18)),
        "plan; fields that differ: offset, size, slack, step",
    ),
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
        assert "strictly increasing" in capsys.readouterr().err


def _units_checkpoint(tmp_path, units):
    """A d=3 n=10 checkpoint whose unit map is `units`."""
    path = tmp_path / "units.ckpt"
    checkpoint_save(Checkpoint(3, 10, "pruned", True, units), path)
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
}


class TestUnitsCheckpointValidation:
    def test_valid_unit_accepted(self, tmp_path):
        path = _units_checkpoint(tmp_path, {"2": UNIT_2})
        assert resume_search(path, threads=2).complete

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

    def test_range_validation(self):
        with pytest.raises(ValueError):
            run_table(2, 5, 4)
        with pytest.raises(ValueError):
            run_table(2, 3, 10)
