"""Greedy turn-by-turn board construction (consecutive maximization).

Each turn picks the card that adds the most new internal sets.  Exact
ties prefer a card from a different cube than the previous pick, then the
lowest card id, so runs are reproducible.  On turns 4, 7, ..., 3d-2 it
instead takes the first card of a cube that has not been touched yet
(falling back to the greedy rule when none is left).

The rule needs no seed: its first three picks are one card from each of
the first two cubes and the card completing their set.

- Turn 1: every gain is 0, so the rule takes card 0.
- Turn 2: every free card gains 0, and the first one, card 1, lies in
  card 0's cube.  So the tie-break takes card 9, the first card of cube
  1, when a second cube exists (d >= 3), and card 1 at d = 2.
- Turn 3: the only positive gain is the third card of those two.

Special turns start at turn 4.

Every turn reads one gain array (see counting.add_to_gain) instead of
rescoring each free card, so a whole trace costs O(deck**2).

The resulting cumulative counts are a quick lower bound for the exact
search: usually tight, but not always (18 cards with 3 properties reach
35 here against a true maximum of 36).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import geometry
from .counting import Board, add_to_gain, card_text

TRACE_CSV_HEADER = ("turn", "card", "new_sets", "cumulative")


@dataclass(frozen=True)
class CmmTurn:
    turn: int
    card: int
    new_sets: int
    cumulative: int


@dataclass
class CmmTrace:
    dim: int
    turns: list[CmmTurn]

    @property
    def final_board(self) -> Board:
        return Board(self.dim, (t.card for t in self.turns))

    def cumulative_at(self, turn: int) -> int:
        """The set count after `turn` turns (ValueError outside the trace)."""
        if not geometry.is_int(turn) or not 1 <= turn <= len(self.turns):
            raise ValueError(f"turn must be an integer in [1, {len(self.turns)}], got {turn!r}")
        return self.turns[turn - 1].cumulative

    def write_csv(self, out) -> None:
        """Trace as CSV; the card column holds the user-facing digit form."""
        writer = csv.writer(out)
        writer.writerow(TRACE_CSV_HEADER)
        for t in self.turns:
            writer.writerow((t.turn, card_text(t.card, self.dim), t.new_sets, t.cumulative))


def cmm_run(dim: int, upto: int | None = None) -> CmmTrace:
    """Run the greedy construction for `upto` turns (default: the whole deck)."""
    geometry.check_dimension(dim)
    deck = 3 ** dim
    if upto is None:
        upto = deck
    if not geometry.is_int(upto) or not 1 <= upto <= deck:
        raise ValueError(f"turn limit must be an integer in [1, {deck}], got {upto!r}")

    rows = geometry.third_rows(dim)

    # gain[c] is the number of new sets card c would add.  Taken cards are
    # parked at -deck: at most (deck - 1) / 2 pairs complete to any one
    # card, so a parked entry stays below every untaken one and max(gain)
    # is always an untaken card.
    gain = [0] * deck
    selected: list[int] = []
    cumulative = 0
    turns: list[CmmTurn] = []

    ncubes = geometry.cube_count(dim)
    special_turns = {3 * t + 1 for t in range(1, dim)}
    for turn in range(1, upto + 1):
        card = None
        if turn in special_turns:
            used = {c // 9 for c in selected}
            for cube in range(ncubes):
                if cube not in used:
                    card = 9 * cube
                    break
        if card is None:
            # Largest gain, then outside the last pick's cube, then lowest
            # id.  Every card before the first maximizer gains less, so a
            # maximizer outside the last cube, if the first one is inside
            # it, lies after that cube.  Turn 1 has no last pick.
            top = max(gain)
            card = gain.index(top)
            last_cube = selected[-1] // 9 if selected else None
            if card // 9 == last_cube and top in gain[9 * last_cube + 9 :]:
                card = gain.index(top, 9 * last_cube + 9)
        new = gain[card]
        cumulative += new
        add_to_gain(gain, selected, card, rows)
        gain[card] = -deck
        turns.append(CmmTurn(turn, card, new, cumulative))

    return CmmTrace(dim, turns)
