from dataclasses import replace
from itertools import combinations

from setmax import catalog
from setmax.catalog import fixture, fixtures, verify_all
from setmax.counting import Board, count_sets, count_sets_bruteforce


EXPECTED = {
    "line3": 1,
    "five_two": 2,
    "six_three": 3,
    "seven_five": 5,
    "magic_square_plane": 12,
    "magic_square_skew": 12,
    "eight_eight": 8,
    "eleven_thirteen": 13,
    "twelve_fourteen": 14,
}


def test_all_nine_fixtures_present_with_expected_counts():
    found = {f.name: f.expected_sets for f in fixtures()}
    assert found == EXPECTED


def test_every_fixture_counts_right_under_both_engines():
    for f in fixtures():
        assert count_sets(f.board) == f.expected_sets, f.name
        assert count_sets_bruteforce(f.board) == f.expected_sets, f.name


def test_verify_all_passes():
    report = verify_all()
    assert report.ok
    assert [r.fixture for r in report.fixtures] == list(EXPECTED)
    assert all(r.ok for r in report.fixtures)
    assert {c.check for c in report.checks} == {
        "twelve_fourteen_extra_lines",
        "twelve_fourteen_embedded_square",
        "magic_square_skew_closure",
        "eight_eight_regular",
    }


def test_corrupted_fixture_is_reported(monkeypatch):
    broken = [replace(f, expected_sets=3) if f.name == "five_two" else f for f in fixtures()]
    monkeypatch.setattr(catalog, "fixtures", lambda: list(broken))
    report = verify_all()
    assert not report.ok
    bad = [r for r in report.fixtures if not r.ok]
    assert [(r.fixture, r.expected, r.got) for r in bad] == [("five_two", 3, 2)]


def test_json_report_shape():
    obj = verify_all().to_json_obj()
    assert obj["ok"] is True
    assert len(obj["fixtures"]) == 9
    for row in obj["fixtures"]:
        assert set(row) == {"fixture", "expected", "got", "pass"}
        assert row["pass"] is True


def test_eleven_thirteen_embeds_a_twelve_set_square():
    board = fixture("eleven_thirteen").board
    embedded = [
        sub
        for sub in combinations(board.cards, 9)
        if count_sets(Board(board.dim, sub)) == 12
    ]
    assert len(embedded) >= 1


def test_unknown_fixture_name():
    import pytest

    with pytest.raises(KeyError):
        fixture("no_such_board")
