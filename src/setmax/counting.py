"""Boards of distinct cards and the engines that count the sets they contain.

add_to_gain is the pair-completion primitive of count_sets and the
search: it keeps a gain array as a list, one entry per card, raised by a
loop over the chosen cards.  The greedy trace (heuristics) keeps its gain
array as byte lanes instead, which a turn updates and searches whole,
and the walk, which reads single entries, keeps the list.  count_sets
adds a board's cards one at a time and counts each set once, at its last
card; count_sets_bruteforce enumerates all card triples and exists purely
as a cross-check oracle.  Boards are immutable once constructed.

count_sets_bruteforce and list_sets are table-free: neither reads
geometry.third_rows or add_to_gain, so a fault in the table or the gain
array cannot hide in a recount.  Both decode each card once into packed
digits, one base-3 digit per _FIELD-bit field (see _pack), and then test
whole cards with a few integer operations: the oracle adds three packed
cards and asks whether every field sum is 0, 3 or 6, and the lister
computes the third card of a pair in all fields at once.
"""

from __future__ import annotations

import functools
from itertools import combinations, product

from . import geometry


class DuplicateCardError(ValueError):
    """The same card appeared twice where distinct cards are required."""


class BoardParseError(ValueError):
    """A board text could not be parsed; carries source name and line number."""

    def __init__(self, source: str, line: int | None, message: str):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


# The one spelling of each digit in the board text format.
_DIGITS = {"0": 0, "1": 1, "2": 2}


def card_text(card: int, dim: int) -> str:
    """The board text of one card: its digits, joined by commas."""
    return ",".join(str(v) for v in geometry.decode_card(card, dim))


class Board(geometry._Record):
    """An immutable collection of distinct cards in a d-property deck.

    Cards are kept sorted, so equal boards compare equal field-wise, and a
    full-deck bitmask gives constant-time membership tests.
    """

    __slots__ = ("dim", "cards", "mask")

    def __init__(self, dim: int, cards=()):
        geometry.check_dimension(dim)
        cards = tuple(cards)
        mask = 0
        for c in cards:
            geometry.check_card(c, dim)
            bit = 1 << c
            if mask & bit:
                raise DuplicateCardError(f"card {c} appears more than once")
            mask |= bit
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cards", tuple(sorted(cards)))
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_coords(cls, dim: int, rows) -> "Board":
        return cls(dim, (geometry.encode_card(r) for r in rows))

    @classmethod
    def full_deck(cls, dim: int) -> "Board":
        return cls(dim, range(geometry.deck_size(dim)))

    @classmethod
    def parse(cls, text: str, *, dim: int | None = None, source: str = "<board>") -> "Board":
        """Parse the board text format: one card per line, comma-separated
        fields that are each exactly 0, 1 or 2 (surrounding blanks aside);
        blank lines and '#' comments are ignored.

        The dimension is inferred from the first card unless given.  An
        empty board defaults to the standard 4-property deck.
        """
        if dim is not None:
            geometry.check_dimension(dim)
        cards = []
        seen = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                digits = [_DIGITS[p.strip()] for p in line.split(",")]
            except KeyError:
                raise BoardParseError(source, lineno, f"not a card (each field must be 0, 1 or 2): {line!r}") from None
            if dim is None:
                dim = len(digits)
                if not geometry.MIN_DIMENSION <= dim <= geometry.MAX_DIMENSION:
                    raise BoardParseError(source, lineno, f"unsupported card width {dim}")
            elif len(digits) != dim:
                raise BoardParseError(
                    source, lineno, f"expected {dim} digits, got {len(digits)}: {line!r}"
                )
            card = geometry.encode_card(digits)
            if card in seen:
                raise BoardParseError(source, lineno, f"duplicate card: {line!r}")
            seen.add(card)
            cards.append(card)
        return cls(dim if dim is not None else 4, cards)

    @classmethod
    def parse_file(cls, path, *, dim: int | None = None) -> "Board":
        # utf-8-sig drops a leading byte-order mark, as Notepad writes.
        with open(path, "r", encoding="utf-8-sig") as f:
            return cls.parse(f.read(), dim=dim, source=str(path))

    def to_text(self) -> str:
        return "".join(card_text(c, self.dim) + "\n" for c in self.cards)

    def with_card(self, card: int) -> "Board":
        return Board(self.dim, self.cards + (card,))

    def coords(self) -> list[tuple[int, ...]]:
        return [geometry.decode_card(c, self.dim) for c in self.cards]

    def __len__(self) -> int:
        return len(self.cards)

    def __iter__(self):
        return iter(self.cards)

    def __contains__(self, card) -> bool:
        return geometry.is_int(card) and 0 <= card and self.mask >> card & 1 == 1

    def __repr__(self) -> str:
        return f"Board(dim={self.dim}, n={len(self.cards)})"

    def __reduce__(self):
        # mask is derived from the cards, so the constructor rebuilds it.
        return Board, (self.dim, self.cards)


def count_sets(board: Board) -> int:
    """Number of sets in the board, by pair completion.

    The cards join one at a time through add_to_gain.  gain[c], read just
    before c joins, counts the sets whose other two cards joined earlier,
    so each set is counted once, at its last card.  O(n^2).
    """
    rows = geometry.third_rows(board.dim)
    gain = [0] * geometry.deck_size(board.dim)
    chosen: list[int] = []
    total = 0
    for c in board.cards:
        total += gain[c]
        add_to_gain(gain, chosen, c, rows)
    return total


# Bits per packed digit field.  A field holds at most 5 + 6 = 11 in
# list_sets and 6 in count_sets_bruteforce, so 4 bits never carry.
_FIELD = 4


def _pack(digits) -> int:
    """One int holding each value of `digits` in its own _FIELD-bit field,
    the first value in the highest field."""
    p = 0
    for v in digits:
        p = p << _FIELD | v
    return p


def _packed_cards(board: Board) -> list[int]:
    """The board's cards in packed digits, in board order."""
    d = board.dim
    return [_pack(geometry.decode_card(c, d)) for c in board.cards]


@functools.lru_cache(maxsize=None)
def _line_sums(d: int) -> frozenset[int]:
    """The packed sums of the d-digit lines: every field is 0, 3 or 6."""
    return frozenset(map(_pack, product((0, 3, 6), repeat=d)))


def list_sets(board: Board) -> list[tuple[int, int, int]]:
    """The sets in the board, as sorted card triples in (a, b) pair order.

    Each pair a < b is completed digit by digit, in packed digits.  With
    `ones` the int holding 1 in each field, x = 6 * ones - pa - pb holds
    6 - a_i - b_i, in 2..6, in field i: no field borrows, since 6 is at
    least a_i + b_i.  Twice, subtract 3 from each field that is at least
    3: a field f <= 6 plus 5 stays below 16 and sets its bit 3 iff f >= 3,
    so ((x + 5 * ones) >> 3) & ones marks those fields.  The first round
    takes 2..6 to 0..3 and the second 0..3 to 0..2, keeping each field's
    value mod 3, so x ends as the packed (-a_i - b_i) mod 3: the third
    card.  A dict from the board's packed cards to their ids looks it up,
    and the triple is kept iff the third card is on the board above b.
    """
    cards = board.cards
    packed = _packed_cards(board)
    index = dict(zip(packed, cards))
    ones = _pack((1,) * board.dim)
    six = 6 * ones
    five = 5 * ones
    found = []
    for i, a in enumerate(cards):
        base = six - packed[i]
        for b, pb in zip(cards[i + 1 :], packed[i + 1 :]):
            x = base - pb
            x -= 3 * ((x + five) >> 3 & ones)
            x -= 3 * ((x + five) >> 3 & ones)
            if (t := index.get(x, -1)) > b:
                found.append((a, b, t))
    return found


def count_sets_bruteforce(board: Board) -> int:
    """Slow oracle: test all C(n,3) card triples against the line condition.

    Three distinct cards, as every triple of a board's cards is, form a
    line iff each digit sum a_i + b_i + c_i is 0 mod 3.  A sum of three digits is at most 6 and fits a field, so the sum of
    three packed cards carries nothing between fields and holds each digit
    sum in its own field.  The triple is a line iff every field is 0, 3 or
    6, i.e. iff the packed sum is one of the 3^d ints _line_sums(d) holds.
    """
    sums = _line_sums(board.dim)
    return sum(map(sums.__contains__, map(sum, combinations(_packed_cards(board), 3))))


def add_to_gain(gain: list[int], chosen: list[int], card: int, rows, step: int = 1) -> None:
    """Append `card` to `chosen`, keeping the gain array in step.

    gain[x] is `step` times the number of pairs of chosen cards whose
    third card is x, so with step 1 a card x outside `chosen` would add
    exactly gain[x] sets.  The search's min-walk passes step -1 and scores
    each set a card completes as a loss of one.  Adding a card costs one
    read of its row of `rows`, the shared geometry.third_rows(d), per
    chosen card.
    """
    row = rows[card]
    for b in chosen:
        gain[row[b]] += step
    chosen.append(card)


def delta_sets(board: Board, candidate: int) -> int:
    """How many sets adding `candidate` would create.

    Each new set contains the candidate plus a pair from the board, and the
    pair scan finds it twice (once through each of its board cards), so the
    tally divides by 2.
    """
    geometry.check_card(candidate, board.dim)
    if candidate in board:
        raise DuplicateCardError(f"card {candidate} is already on the board")
    mask = board.mask
    row = geometry.third_rows(board.dim)[candidate]
    tally = 0
    for b in board.cards:
        if mask >> row[b] & 1:
            tally += 1
    return tally // 2
