import io
import pickle
import random

import pytest

from setmax.counting import Board, add_to_gain, count_sets, delta_sets, list_sets
from setmax.geometry import LOW_DIM, cube_count, cube_of, line_count, third_rows, third_value
from setmax.heuristics import CmmTurn, _lanes, cmm_run

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
        for dim in (3, 6):
            a, b = cmm_run(dim), cmm_run(dim)
            assert a is not b and a.turns is not b.turns
            assert a == b and a.turns == b.turns

    def test_upto_is_a_prefix_of_the_full_run(self):
        full = cmm_run(3)
        for limit in (1, 2, 3, 7, 20):
            assert cmm_run(3, upto=limit).turns == full.turns[:limit]

    @pytest.mark.parametrize("upto", [1, 2, 3, 4, 5, 16, 17, 300, 728])
    def test_d6_upto_is_a_prefix_of_the_full_run(self, upto):
        # Turns 4, 7, ..., 16 are special at d=6.
        assert cmm_run(6, upto).turns == cmm_run(6).turns[:upto]

    @pytest.mark.parametrize("upto", [1, 3, 4, 22, 23, 1000, 6240, 6560])
    def test_d8_upto_is_a_prefix_of_the_full_run(self, upto, trace8):
        # Turns 4, 7, ..., 22 are special at d=8.
        assert cmm_run(8, upto).turns == trace8.turns[:upto]

    def test_d8_full_run_covers_the_deck(self, trace8):
        # The last turns hold the largest two-byte lane values: card 6560
        # completes 3,280 pairs.
        assert sorted(t.card for t in trace8.turns) == list(range(3 ** 8))
        assert trace8.cumulative_at(6561) == line_count(8) == 7173360
        assert trace8.turns[-1].new_sets == 3280

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


def reference_cmm(dim, upto=None):
    """The O(deck**3) greedy loop the gain array replaced: every turn
    rescores every free card by a loop over the selected cards.  Returns
    the trace as (card, new_sets, cumulative) per turn, for `upto` turns
    (default: the whole deck)."""
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
    for turn in range(4, (upto or deck) + 1):
        card = None
        if turn in special_turns:
            used = {c // 9 for c in selected}
            card = next((9 * cube for cube in range(ncubes) if cube not in used), None)
        if card is None:
            last_cube = selected[-1] // 9
            free = [c for c in range(deck) if not member[c]]
            card = max(free, key=lambda c: (gain(c), c // 9 != last_cube, -c))
        take(card)
    return out[:upto]


def reference_gain_cmm(dim, upto=None):
    """The O(deck**2) greedy loop the byte lanes replaced: one gain list,
    raised through add_to_gain by a loop over the chosen cards on every
    turn, with taken cards parked at -deck.  Returns the trace as
    (card, new_sets, cumulative) per turn."""
    deck = 3 ** dim
    rows = third_rows(dim)
    gain = [0] * deck
    selected = []
    out = []
    ncubes = cube_count(dim)
    special_turns = {3 * t + 1 for t in range(1, dim)}
    for turn in range(1, (upto or deck) + 1):
        card = None
        if turn in special_turns:
            used = {c // 9 for c in selected}
            card = next((9 * cube for cube in range(ncubes) if cube not in used), None)
        if card is None:
            top = max(gain)
            card = gain.index(top)
            last_cube = selected[-1] // 9 if selected else None
            if card // 9 == last_cube and top in gain[9 * last_cube + 9 :]:
                card = gain.index(top, 9 * last_cube + 9)
        new = gain[card]
        add_to_gain(gain, selected, card, rows)
        gain[card] = -deck
        out.append((card, new, (out[-1][2] if out else 0) + new))
    return out


@pytest.fixture(scope="module")
def trace8():
    return cmm_run(8)


def triples(trace):
    return [(t.card, t.new_sets, t.cumulative) for t in trace.turns]


class TestAgainstReference:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_trace_matches_reference_turn_by_turn(self, dim):
        assert triples(cmm_run(dim)) == reference_cmm(dim)

    # Through the seeding, the special turns 4, 7, ..., 3d-2 and past them.
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("upto", [1, 2, 3, 4, 5, 8, 17, 27])
    def test_prefixes_match_both_references(self, dim, upto):
        want = reference_gain_cmm(dim, upto)
        assert len(want) == upto
        assert triples(cmm_run(dim, upto)) == want == reference_cmm(dim, upto)

    # Two-byte lanes: d=6 and 7 whole, d=8 for its first 2,048 turns.
    @pytest.mark.parametrize("dim, turns", [(6, 729), (7, 2187), (8, 2048)])
    def test_lanes_match_the_gain_loop_turn_by_turn(self, dim, turns):
        assert triples(cmm_run(dim, turns)) == reference_gain_cmm(dim, turns)

    def test_d7_prefixes_recount(self):
        # The trace gathers its raises through third_rows(5) and the third
        # of the two high digits; list_sets completes each pair digit by
        # digit, in packed digits, and reads neither third_rows nor the
        # lanes (test_counting's TestTableFreeEngines checks this), so it
        # is an independent oracle.
        trace = cmm_run(7, upto=60)
        assert len(trace.turns) == 60
        for i, t in enumerate(trace.turns, start=1):
            assert len(list_sets(Board(7, (x.card for x in trace.turns[:i])))) == t.cumulative


class TestTurnRecord:
    def test_fields_by_name(self):
        turn = cmm_run(3, upto=3).turns[2]
        assert (turn.turn, turn.card, turn.new_sets, turn.cumulative) == (3, third_value(0, 9, 3), 1, 1)
        assert turn == CmmTurn(turn=3, card=third_value(0, 9, 3), new_sets=1, cumulative=1)

    def test_assignment_refused(self):
        turn = cmm_run(3, upto=1).turns[0]
        with pytest.raises(AttributeError):
            turn.card = 5
        assert turn.card == 0

    def test_pickle_round_trip(self):
        trace = cmm_run(4)
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace
        assert all(type(t) is CmmTurn for t in back.turns)


class TestLaneTables:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
    def test_tables_match_third_value(self, dim):
        # Every raise row and high row in full; their composition, read as
        # the gather reads it, on every pair up to d=6 and sampled pairs above.
        width, block, raise_rows, high_rows, needles = _lanes(dim)
        low = min(dim, LOW_DIM)
        assert block == 3 ** low == len(raise_rows)
        assert width == (1 if dim <= 5 else 2)
        for a, row in enumerate(raise_rows):
            assert list(row[::width]) == [third_value(a, x, low) for x in range(block)]
            if width == 2:
                assert row[1::2] == b"\xff" * block
        blocks = 3 ** (dim - low)
        assert len(high_rows) == blocks
        for a, row in enumerate(high_rows):
            assert list(row) == [third_value(a, h, dim - low) for h in range(blocks)]
        assert [int.from_bytes(v, "little") for v in needles] == list(range((3 ** dim + 1) // 2 + 1))

        deck = 3 ** dim
        rng = random.Random(dim)
        pairs = [(a, b) for a in range(deck) for b in range(deck)] if dim <= 6 else [
            (rng.randrange(deck), rng.randrange(deck)) for _ in range(20000)
        ]
        for a, b in pairs:
            composed = high_rows[a // block][b // block] * block + raise_rows[a % block][width * (b % block)]
            assert composed == third_value(a, b, dim)


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
