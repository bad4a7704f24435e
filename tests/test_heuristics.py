import io
import random

import pytest

from setmax.counting import Board, count_sets, delta_sets, list_sets
from setmax.geometry import cube_count, cube_of, third_rows, third_value
from setmax.heuristics import cmm_run

# max_sets(3, n) for n = 3..27, from the pruned exhaustive search
EXACT_D3 = [1, 1, 2, 3, 5, 8, 12, 12, 13, 14, 16, 19, 23, 26, 30, 36, 41, 47, 54, 62, 71, 81, 92, 104, 117]


class TestTraceShape:
    def test_full_run_covers_the_deck(self):
        trace = cmm_run(3)
        assert len(trace.turns) == 27
        assert sorted(t.card for t in trace.turns) == list(range(27))
        assert [t.turn for t in trace.turns] == list(range(1, 28))

    def test_self_consistent_cumulative(self):
        trace = cmm_run(3)
        running = 0
        for i, t in enumerate(trace.turns, start=1):
            running += t.new_sets
            assert t.cumulative == running
            assert count_sets(Board(3, (x.card for x in trace.turns[:i]))) == running

    def test_deterministic(self):
        a, b = cmm_run(3), cmm_run(3)
        assert a.turns == b.turns

    def test_upto_is_a_prefix_of_the_full_run(self):
        full = cmm_run(3)
        for limit in (1, 2, 3, 7, 20):
            assert cmm_run(3, upto=limit).turns == full.turns[:limit]

    def test_upto_validation(self):
        with pytest.raises(ValueError):
            cmm_run(3, upto=0)
        with pytest.raises(ValueError):
            cmm_run(3, upto=28)

    @pytest.mark.parametrize("upto", [True, 2.5, 3.0])
    def test_upto_must_be_an_int(self, upto):
        # True would run one turn, and 2.5 would fail as a slice index.
        with pytest.raises(ValueError, match="turn limit must be an integer"):
            cmm_run(3, upto)


def reference_cmm(dim):
    """The O(deck**3) greedy loop the gain array replaced: every turn
    rescores every free card by a loop over the selected cards.  Returns
    the trace as (card, new_sets, cumulative) per turn."""
    deck = 3 ** dim
    rows = third_rows(dim)
    member = bytearray(deck)
    selected = []
    out = []

    def gain(c):
        return sum(member[rows[c][b]] for b in selected) >> 1

    def take(c):
        new = gain(c)
        member[c] = 1
        selected.append(c)
        out.append((c, new, (out[-1][2] if out else 0) + new))

    ncubes = cube_count(dim)
    second = 9 if ncubes >= 2 else 1
    for c in (0, second, third_value(0, second, dim)):
        take(c)
    special_turns = {3 * t + 1 for t in range(1, dim)}
    for turn in range(4, deck + 1):
        card = None
        if turn in special_turns:
            used = {c // 9 for c in selected}
            card = next((9 * cube for cube in range(ncubes) if cube not in used), None)
        if card is None:
            last_cube = selected[-1] // 9
            free = [c for c in range(deck) if not member[c]]
            card = max(free, key=lambda c: (gain(c), c // 9 != last_cube, -c))
        take(card)
    return out


class TestAgainstReference:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_trace_matches_reference_turn_by_turn(self, dim):
        got = [(t.card, t.new_sets, t.cumulative) for t in cmm_run(dim).turns]
        assert got == reference_cmm(dim)

    def test_d7_prefixes_recount(self):
        # d=7 is above the built pair table.  The trace reads rows composed
        # of two built tables; list_sets completes each pair digit by digit,
        # in packed digits, and reads neither those tables nor add_to_gain
        # (test_counting's TestTableFreeEngines checks this), so it is an
        # independent oracle.
        trace = cmm_run(7, upto=60)
        assert len(trace.turns) == 60
        for i, t in enumerate(trace.turns, start=1):
            assert len(list_sets(Board(7, (x.card for x in trace.turns[:i])))) == t.cumulative


class TestTraceValues:
    def test_d3_turn_18(self):
        assert cmm_run(3).cumulative_at(18) == 35

    def test_d3_endpoint_is_every_line(self):
        assert cmm_run(3).cumulative_at(27) == 117

    def test_d2_endpoint(self):
        assert cmm_run(2).cumulative_at(9) == 12

    @pytest.mark.parametrize("turn", [0, -1, True, 2.0, 28])
    def test_turn_outside_the_trace_refused(self, turn):
        with pytest.raises(ValueError, match=r"turn must be an integer in \[1, 27\]"):
            cmm_run(3).cumulative_at(turn)

    def test_never_beats_the_exhaustive_maximum(self):
        trace = cmm_run(3)
        for t in trace.turns[2:]:
            assert t.cumulative <= EXACT_D3[t.turn - 3]

    def test_seeding_uses_distinct_cubes_then_completes(self):
        trace = cmm_run(4, upto=3)
        c1, c2, c3 = (t.card for t in trace.turns)
        assert (c1, c2) == (0, 9)
        assert cube_of(c1, 4) != cube_of(c2, 4)
        assert trace.turns[2].new_sets == 1

    def test_special_turns_draw_from_unused_cubes(self):
        trace = cmm_run(4)
        for special in (4, 7, 10):
            chosen = trace.turns[special - 1].card
            before = {cube_of(t.card, 4) for t in trace.turns[: special - 1]}
            if len(before) < 9:
                assert cube_of(chosen, 4) not in before


class TestCountNewSets:
    def test_matches_recount_during_a_run(self):
        rng = random.Random(3)
        trace = cmm_run(3)
        for turn in rng.sample(range(4, 27), 8):
            partial = Board(3, (t.card for t in trace.turns[:turn]))
            nxt = trace.turns[turn]
            assert delta_sets(partial, nxt.card) == nxt.new_sets


class TestCsv:
    def test_csv_round_trips(self):
        import csv as csvmod

        trace = cmm_run(3, upto=5)
        sink = io.StringIO()
        trace.write_csv(sink)
        rows = list(csvmod.reader(io.StringIO(sink.getvalue())))
        assert rows[0] == ["turn", "card", "new_sets", "cumulative"]
        assert len(rows) == 6
        assert rows[1][1] == "0,0,0"
        assert int(rows[-1][3]) == trace.cumulative_at(5)

    def test_final_board_matches_turns(self):
        trace = cmm_run(2)
        assert trace.final_board == Board(2, range(9))
