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

Every turn reads one gain array, gain[x] being the number of sets card x
would add, instead of rescoring each free card.  The array is one int of
W-byte lanes, so a turn updates and searches all of it in a few bytes
and int operations, with no Python loop over the chosen cards:

- Lanes.  Lane x holds gain[x] + 1 while card x is free and 0 once it is
  taken, little-endian, W = 1 byte up to 243 cards and 2 above.  At most
  (deck - 1) / 2 chosen pairs complete to one card, so a free lane holds
  at most (deck + 1) / 2 < 256**W (122 at 243 cards, 3281 at 6561) and a
  taken one at most 1 before it is masked back to 0: lanes never carry.
- Raises.  When card c joins, gain[x] rises by one for each chosen b
  with third(c, b) = x.  third(c, .) is its own inverse, so that b is
  third(c, x): the cards raised are exactly the x with third(c, x)
  chosen, each by one.
- Gather.  third works digit by digit, so splitting x = 243 h + l at its
  five low digits (all of them below five properties) gives
  third(c, x) = 243 third(c_h, h) + third(c_l, l).  Block h of the
  raises is the row l -> third(c_l, l), one byte per lane, translated
  through block third(c_h, h) of the chosen set, a 256-byte table
  holding 1 at each chosen card: one bytes.translate per block, one
  block up to five properties and 3**(d - 5) above.  The blocks, joined
  in order and read as one int, are added to every lane at once and
  masked to the free lanes.
- Pick.  A turn raises each lane by at most one, so the largest free
  lane is at most the last maximum found plus the turns since.
  bytes.find (memchr at W = 1) looks for each value from that bound
  downwards; a taken lane holds 0 and never matches.  The first hit on
  a lane boundary is the lowest card holding the value, and the cube
  tie-break looks again from the first card after the last pick's cube.

A turn costs a few passes over the W * deck bytes of the lanes, and the
trace's CmmTurn tuples are built in one pass after the last turn: a
whole trace takes about 0.08 ms at d = 3, 0.26 ms at d = 4, 10 ms at
d = 6 and 0.4 to 0.6 s at d = 8 on a 2-vCPU machine.

The resulting cumulative counts are a quick lower bound for the exact
search: usually tight, but not always (18 cards with 3 properties reach
35 here against a true maximum of 36).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from . import geometry
from .counting import Board, card_text

# The largest deck whose lanes fit one byte: a lane holds up to
# (deck + 1) / 2, which is 122 at 243 cards and 365 at 729.
_BYTE_LANE_DECK = 243


class CmmTurn(NamedTuple):
    """One turn of a trace: the card taken, the sets it added and the set
    count after it.  A tuple, as a trace builds one per card of the deck."""

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
        writer.writerow(CmmTurn._fields)
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

    width, block, raise_rows, high_rows, needles = _lanes(dim)
    most = len(needles) - 1
    size = width * deck
    lane_bits = 8 * width
    lane_mask = (1 << lane_bits) - 1
    free = (1 << 8 * size) - 1
    gain = int.from_bytes(needles[1] * deck, "little")
    # chosen[j] is block j of the chosen set; tables[h] lists the blocks a
    # card of block h translates its raise rows through, in block order.
    chosen = [bytearray(256) for _ in high_rows]
    tables = [[chosen[j] for j in row] for row in high_rows]
    top = 1  # no free lane holds more
    last_cube = -1
    cards: list[int] = []
    news: list[int] = []

    ncubes = geometry.cube_count(dim)
    special_turns = {3 * t + 1 for t in range(1, dim)}
    for turn in range(1, upto + 1):
        lanes = gain.to_bytes(size, "little")
        card = -1
        if turn in special_turns:
            used = {c // 9 for c in cards}
            card = next((9 * cube for cube in range(ncubes) if cube not in used), -1)
        if card < 0:
            # Largest gain, then outside the last pick's cube, then lowest
            # id.  Every card before the first maximizer gains less, so a
            # maximizer outside the last cube, if the first one is inside
            # it, lies after that cube.  Turn 1 has no last pick.  A hit
            # off a lane boundary straddles two lanes and is skipped.
            while True:
                needle = needles[top]
                i = lanes.find(needle)
                while i > 0 and i % width:
                    i = lanes.find(needle, i + 1)
                if i >= 0:
                    break
                top -= 1
            card = i // width
            if card // 9 == last_cube:
                i = lanes.find(needle, width * (9 * last_cube + 9))
                while i > 0 and i % width:
                    i = lanes.find(needle, i + 1)
                if i >= 0:
                    card = i // width
            value = top
        else:
            value = int.from_bytes(lanes[width * card : width * card + width], "little")
        hi, lo = divmod(card, block)
        raises = b"".join(map(raise_rows[lo].translate, tables[hi]))
        chosen[hi][lo] = 1
        free ^= lane_mask << lane_bits * card
        gain = (gain + int.from_bytes(raises, "little")) & free
        if top < most:  # the turn raised each lane by at most one
            top += 1
        last_cube = card // 9
        cards.append(card)
        news.append(value - 1)

    turns = zip(range(1, upto + 1), cards, news, accumulate(news))
    return CmmTrace(dim, list(map(CmmTurn._make, turns)))


@functools.lru_cache(maxsize=None)
def _lanes(dim: int) -> tuple[int, int, tuple[bytes, ...], list, tuple[bytes, ...]]:
    """The fixed tables of a trace's byte lanes (see the module docstring):
    the lane width W, the block size 3**min(d, 5), the raise rows, the
    high rows and the W bytes of each lane value up to (deck + 1) / 2.

    Lane l of raise row a holds third(a, l) in its first byte and 255,
    which no block of the chosen set marks, in any other; high row a
    holds third(a, h) on the digits above the block, for every block h.
    """
    width = 1 if 3 ** dim <= _BYTE_LANE_DECK else 2
    low = min(dim, geometry.LOW_DIM)
    raise_rows = []
    for row in geometry.third_rows(low):
        lanes = bytearray(b"\xff" * (width * len(row)))
        lanes[::width] = bytes(row)
        raise_rows.append(bytes(lanes))
    needles = tuple(v.to_bytes(width, "little") for v in range((3 ** dim + 1) // 2 + 1))
    return width, 3 ** low, tuple(raise_rows), geometry.third_rows(dim - low), needles
