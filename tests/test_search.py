import io
import json
import time
from itertools import combinations
from math import comb

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


def reference_walk(dim, n, *, symmetry=True, prune=True, stop_at=None, dual=True):
    """The per-candidate depth-first walk the gain-array engine replaced.

    Scores every candidate by a loop over the chosen cards and visits the
    candidates of each level one by one.  Runs to the end, or until
    `stop_at` nodes are counted, and returns the state the engine saves:
    the frontier (stack, next_card) and best, witness, nodes, pruned.

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
    c = len(base)
    while nodes != stop_at:
        limit = deck - (need - len(stack) - 1)
        if c >= limit:
            if not stack:
                break
            p = stack.pop()
            cnt = cnt_stack.pop()
            member[p] = 0
            chosen.pop()
            c = p + 1
            continue
        ncnt = cnt + new_sets(c, chosen, member)
        nodes += 1
        if len(chosen) + 1 == size:
            if ncnt > best:
                best, witness = ncnt, chosen + [c]
        elif prune and ncnt + bound[len(chosen) + 1] < best:
            pruned += 1
        else:
            stack.append(c)
            cnt_stack.append(cnt)
            member[c] = 1
            chosen.append(c)
            cnt = ncnt
        c += 1
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

    @pytest.mark.parametrize("dim,top", [(3, 13), (5, 39)])
    def test_plan_slack_is_bound_remaining(self, dim, top):
        for n in range(3, top + 1):
            slack = search._plan(SearchConfig(dim=dim, n=n)).slack
            assert slack == tuple(bound_remaining(size + 1, n) for size in range(n))


class TestConfig:
    def test_board_size_range(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=2)
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=28)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=5, mode="fast")

    def test_naive_refuses_checkpointing(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=3, n=5, mode="naive", checkpoint_path="x.ckpt")

    @pytest.mark.parametrize("threads", [0, -2, 1.5, 2.0, "2", True, None])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ValueError, match="threads"):
            max_sets_pruned(SearchConfig(dim=3, n=10, threads=threads))

    @pytest.mark.parametrize(
        "field,value",
        [("stop_after_nodes", v) for v in (-5, "5", 5.0, True)]
        + [("report_interval", v) for v in (0, -1.5, "x", None, True, float("nan"))]
        + [("naive_budget", v) for v in (-1, "x", 1.5, None, True)],
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
        st = reference_walk(4, 7, stop_at=stop)
        assert _frontier_kind(4, 7, st) == kind
        path = tmp_path / "mid.ckpt"
        checkpoint_save(Checkpoint(4, 7, "pruned", True, "stack", st), path)
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
        saved = checkpoint_load(path)
        assert saved.kind == "units" and "2" not in saved.state["done"]
        monkeypatch.undo()
        ref = pruned(3, 10)
        r = resume_search(path, threads=2)
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
        checkpoint_save(Checkpoint(3, 18, "pruned", True, "units", {"done": {}}), path)
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
        walked = payload["state"]["witness"]
        assert len(walked) == 9
        payload["state"]["witness"] = [x for x in range(27) if x not in walked]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="is not 9 distinct cards"):
            resume_search(path)
        code = cli.main(["search", "--props", "3", "--cards", "18", "--checkpoint", str(path), "--resume"])
        assert code == cli.EXIT_CHECKPOINT == 5
        assert "is not 9 distinct cards" in capsys.readouterr().err

    def test_version_2_file_refused(self, tmp_path):
        # A version 2 build walked the 18 cards of this row itself: its
        # plan, had it recorded one, would have size 18, not 9.
        path = tmp_path / "v2.ckpt"
        checkpoint_save(Checkpoint(3, 18, "pruned", True, "stack", search._fresh_state(2)), path)
        payload = json.loads(path.read_text())
        assert payload["plan"]["size"] == 9
        payload["plan"]["size"] = 18
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="plan; fields that differ: size$"):
            resume_search(path)


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
        assert checkpoint_load(path).kind == "stack"
        again = resume_search(path)
        assert again.complete
        assert outcome(again) == outcome(ref)

    def test_resume_from_final_units_checkpoint_is_identity(self, tmp_path):
        path = tmp_path / "done.ckpt"
        ref = pruned(3, 9, threads=2, checkpoint_path=str(path))
        assert ref.complete and checkpoint_load(path).kind == "units"
        again = resume_search(path, threads=2)
        assert again.complete
        assert outcome(again) == outcome(ref)

    def test_parallel_units_resume(self, tmp_path):
        ref = pruned(3, 10, threads=2)
        path = tmp_path / "units.ckpt"
        r = pruned(3, 10, threads=2, checkpoint_path=str(path), stop_after_nodes=10_000)
        while not r.complete:
            r = resume_search(path, threads=2)
        assert (r.max_sets, r.nodes_visited, r.witness) == (
            ref.max_sets,
            ref.nodes_visited,
            ref.witness,
        )

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        payload = {"format": "setmax-checkpoint", "version": 999, "config": {}, "kind": "stack", "state": {}}
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


def _edited_checkpoint(tmp_path, edit):
    """A d=3 n=10 stack checkpoint with `edit` applied to its saved state."""
    path = tmp_path / "edited.ckpt"
    r = pruned(3, 10, checkpoint_path=str(path), stop_after_nodes=30_000)
    assert not r.complete
    payload = json.loads(path.read_text())
    assert payload["kind"] == "stack" and len(payload["state"]["stack"]) >= 2
    edit(payload["state"])
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
}


def _edited_file(tmp_path, edit):
    """A fresh d=3 n=10 stack checkpoint with `edit` applied to the file."""
    path = tmp_path / "edited.ckpt"
    checkpoint_save(Checkpoint(3, 10, "pruned", True, "stack", search._fresh_state(2)), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


BAD_FILES = {
    "stack state is a number": (lambda p: p.update(state=5), "state 5 is not a mapping"),
    "units state is a number": (lambda p: p.update(kind="units", state=5), "state 5 is not a mapping"),
    "config is a list": (lambda p: p.update(config=[1, 2]), "config"),
    "dim is a string": (lambda p: p["config"].update(dim="x"), "dimension"),
    "n beyond the deck": (lambda p: p["config"].update(n=99), "board size"),
    "n is a float": (lambda p: p["config"].update(n=10.0), "board size"),
    "mode is naive": (lambda p: p["config"].update(mode="naive"), "pruned mode"),
    "symmetry is a string": (lambda p: p["config"].update(symmetry="yes"), "symmetry"),
    "kind is finished": (lambda p: p.update(kind="finished"), "kind"),
    "stack state lacks pruned": (lambda p: p["state"].pop("pruned"), "pruned"),
    "units state lacks done": (lambda p: p.update(kind="units"), "done"),
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


def _units_checkpoint(tmp_path, done):
    """A d=3 n=10 `units` checkpoint whose finished units are `done`."""
    path = tmp_path / "units.ckpt"
    checkpoint_save(Checkpoint(3, 10, "pruned", True, "units", {"done": done}), path)
    return path


# The exhausted frontier unit 2's walk leaves: a valid `done` entry.
UNIT_2 = {"stack": [], "next_card": 3, "best": 12, "witness": list(range(10)), "nodes": 5, "pruned": 0}

BAD_UNITS = {
    "done is a list": ([1, 2], "not a mapping of units"),
    "key is not a unit": ({"2": UNIT_2, "999": UNIT_2}, "not a work unit"),
    "result is not a mapping": ({"2": 5}, "unit 2 5 is not a mapping"),
    "result lacks pruned": ({"2": {k: v for k, v in UNIT_2.items() if k != "pruned"}}, "missing field 'pruned'"),
    "best is a string": ({"2": {**UNIT_2, "best": "x"}}, "best 'x' is not an integer"),
    "nodes is a float": ({"2": {**UNIT_2, "nodes": 1.5}}, "nodes 1.5 is not an integer"),
    "witness repeats a card": ({"2": {**UNIT_2, "witness": [0] * 10}}, "witness"),
    "stack not empty": ({"2": {**UNIT_2, "stack": [2], "next_card": 3}}, "not exhausted"),
    "next_card inside the unit": ({"2": {**UNIT_2, "next_card": 2}}, "not exhausted"),
    "next_card beyond the unit": ({"2": {**UNIT_2, "next_card": 4}}, "not exhausted"),
}


class TestUnitsCheckpointValidation:
    def test_valid_unit_accepted(self, tmp_path):
        path = _units_checkpoint(tmp_path, {"2": UNIT_2})
        assert resume_search(path, threads=2).complete

    @pytest.mark.parametrize("case", list(BAD_UNITS))
    def test_rejected_on_resume(self, tmp_path, case):
        done, reason = BAD_UNITS[case]
        path = _units_checkpoint(tmp_path, done)
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
