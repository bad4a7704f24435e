import random
from itertools import combinations

import pytest

from setmax import counting, geometry
from setmax.counting import (
    Board,
    BoardParseError,
    DuplicateCardError,
    count_sets,
    count_sets_bruteforce,
    delta_sets,
    list_sets,
)
from setmax.geometry import encode_card, is_line, line_count, third_value


def board_from(*coords):
    return Board.from_coords(len(coords[0]), coords)


FIVE_TWO = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0), (0, 0, 2, 0))
SEVEN_FIVE = FIVE_TWO[:4] + ((0, 0, 1, 1), (0, 0, 2, 0), (0, 0, 2, 1))
TWELVE_FOURTEEN = tuple(
    (0, 0, x, y) for x in range(3) for y in range(3)
) + ((0, 1, 0, 0), (0, 2, 2, 0), (0, 1, 2, 0))


class TestBoard:
    def test_cards_are_sorted_and_canonical(self):
        assert Board(4, (5, 2, 9)).cards == (2, 5, 9)
        assert Board(4, (9, 5, 2)) == Board(4, (2, 9, 5))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateCardError):
            Board(4, (1, 2, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Board(3, (27,))

    def test_membership(self):
        b = Board(4, (0, 80))
        assert 80 in b and 0 in b and 40 not in b
        assert -3 not in b and "x" not in b

    def test_bool_is_not_a_card(self):
        # check_card refuses bools, so membership does too.
        assert True not in Board(4, [1, 5])
        assert False not in Board(4, [0])
        with pytest.raises(ValueError):
            Board(4, [True])

    def test_parse_round_trip(self):
        b = board_from(*TWELVE_FOURTEEN)
        assert Board.parse(b.to_text()) == b

    def test_parse_ignores_comments_and_blanks(self):
        text = "# header\n\n0,0,0,0\n0,0,0,1  # trailing\n\n"
        assert Board.parse(text).cards == (0, 1)

    def test_parse_duplicate_reports_line(self):
        with pytest.raises(BoardParseError) as err:
            Board.parse("0,0,0,1\n0,0,0,1\n", source="dup.board")
        assert err.value.line == 2
        assert "dup.board" in str(err.value)

    def test_parse_bad_digit_reports_line(self):
        with pytest.raises(BoardParseError) as err:
            Board.parse("0,0,0,0\n0,0,0,3\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("field", ["+1", "0_2", "01", " 1.0", "\uff12", "", "-0"])
    def test_parse_takes_only_the_three_digits(self, field):
        # int() reads +1, 0_2, 01, -0 and a full-width 2 as digits; the
        # format takes only the fields 0, 1 and 2.
        with pytest.raises(BoardParseError, match=r"each field must be 0, 1 or 2") as err:
            Board.parse(f"0,0,0,0\n{field},0,0,0\n")
        assert err.value.line == 2

    def test_parse_file_drops_a_byte_order_mark(self, tmp_path):
        # Notepad and PowerShell 5's Out-File -Encoding utf8 start a file
        # with one; a string keeps the format's rules.
        b = board_from(*TWELVE_FOURTEEN)
        marked, plain = tmp_path / "marked.board", tmp_path / "plain.board"
        marked.write_bytes(b"\xef\xbb\xbf" + b.to_text().encode())
        plain.write_text(b.to_text())
        assert Board.parse_file(marked) == Board.parse_file(plain) == b
        with pytest.raises(BoardParseError):
            Board.parse("\ufeff" + b.to_text())

    def test_parse_width_mismatch(self):
        with pytest.raises(BoardParseError):
            Board.parse("0,0,0,0\n0,0,0\n")

    def test_parse_empty_defaults_to_four_properties(self):
        b = Board.parse("# nothing\n")
        assert len(b) == 0 and b.dim == 4

    def test_immutable(self):
        b = Board(4, (1,))
        with pytest.raises(AttributeError):
            b.dim = 3


class TestCountSets:
    def test_five_card_board(self):
        assert count_sets(board_from(*FIVE_TWO)) == 2

    def test_twelve_card_board(self):
        assert count_sets(board_from(*TWELVE_FOURTEEN)) == 14

    def test_empty_board(self):
        assert count_sets(Board(4)) == 0

    def test_seven_card_board_oracle(self):
        assert count_sets_bruteforce(board_from(*SEVEN_FIVE)) == 5

    def test_single_line(self):
        assert count_sets_bruteforce(Board(4, (0, 1, 2))) == 1

    def test_full_decks(self):
        assert count_sets(Board.full_deck(3)) == 117
        assert count_sets(Board.full_deck(2)) == 12

    def test_engines_agree_on_all_small_boards_d2(self):
        deck = list(range(9))
        for n in range(10):
            for cards in combinations(deck, n):
                b = Board(2, cards)
                assert count_sets(b) == count_sets_bruteforce(b)

    @pytest.mark.parametrize("d", [3, 4, 6, 7, 8])
    def test_engines_agree_on_random_boards(self, d):
        rng = random.Random(d * 1000 + 1)
        for _ in range(500):
            n = rng.randrange(0, 16)
            b = Board(d, rng.sample(range(3 ** d), n))
            assert count_sets(b) == count_sets_bruteforce(b)

    def test_pair_consumption_upper_bound(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randrange(0, 20)
            b = Board(4, rng.sample(range(81), n))
            assert count_sets(b) <= n * (n - 1) // 6


class TestListSets:
    def test_matches_count_and_lines_are_real(self):
        b = board_from(*TWELVE_FOURTEEN)
        lines = list_sets(b)
        assert len(lines) == count_sets(b)
        for a, x, t in lines:
            assert is_line(a, x, t, 4)
            assert a in b and x in b and t in b

    def test_lines_unique_and_sorted(self):
        b = Board.full_deck(2)
        lines = list_sets(b)
        assert len(set(lines)) == 12
        assert all(a < x < t for a, x, t in lines)


def reference_count(board):
    """The oracle's count by the defining condition, one triple at a time."""
    d = board.dim
    return sum(1 for a, b, c in combinations(board.cards, 3) if is_line(a, b, c, d))


def reference_list(board):
    """list_sets by completing each pair with third_value, in pair order."""
    cards = board.cards
    found = []
    for i, a in enumerate(cards):
        for b in cards[i + 1 :]:
            t = third_value(a, b, board.dim)
            if t > b and t in board:
                found.append((a, b, t))
    return found


def reference_boards(d):
    """Seeded boards of 0..3 cards, then random boards of up to 60 cards."""
    rng = random.Random(d * 31 + 7)
    deck = 3 ** d
    for n in range(4):
        yield Board(d, rng.sample(range(deck), n))
    for _ in range(20):
        yield Board(d, rng.sample(range(deck), rng.randrange(0, min(60, deck) + 1)))


@pytest.fixture
def table_free(monkeypatch):
    """Make the pair table, the gain array and the table engines raise, so
    a test passes only if the code under test uses none of them."""

    def refuse(*args, **kwargs):
        raise AssertionError("a table-free engine reached a table engine")

    monkeypatch.setattr(geometry, "third_rows", refuse)
    for name in ("add_to_gain", "count_sets", "delta_sets"):
        monkeypatch.setattr(counting, name, refuse)


@pytest.mark.usefixtures("table_free")
class TestTableFreeEngines:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_match_references(self, d):
        for b in reference_boards(d):
            assert count_sets_bruteforce(b) == reference_count(b)
            assert list_sets(b) == reference_list(b)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_decks(self, d):
        b = Board.full_deck(d)
        assert count_sets_bruteforce(b) == line_count(d)
        assert len(list_sets(b)) == line_count(d)

    def test_widest_cards(self):
        b = Board(8, (0, 1, 2, 6560))
        assert count_sets_bruteforce(b) == 1
        assert list_sets(b) == [(0, 1, 2)]


class TestDeltaSets:
    def test_completing_a_line(self):
        b = board_from((0, 0, 0, 0), (0, 0, 0, 1))
        assert delta_sets(b, encode_card((0, 0, 0, 2))) == 1

    def test_tenth_card_adds_nothing_to_a_square(self):
        square = Board(4, [encode_card((0, 0, x, y)) for x in range(3) for y in range(3)])
        for candidate in range(81):
            if candidate in square:
                continue
            assert delta_sets(square, candidate) == 0

    def test_matches_recount_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(500):
            d = rng.choice((3, 4, 7, 8))
            deck = 3 ** d
            n = rng.randrange(0, 15)
            cards = rng.sample(range(deck), n + 1)
            b = Board(d, cards[:-1])
            candidate = cards[-1]
            expected = count_sets(b.with_card(candidate)) - count_sets(b)
            assert delta_sets(b, candidate) == expected

    def test_duplicate_candidate_rejected(self):
        b = Board(4, (3, 4))
        with pytest.raises(DuplicateCardError):
            delta_sets(b, 3)
