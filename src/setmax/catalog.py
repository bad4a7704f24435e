"""Named reference boards with known set counts, and the checks over them.

Each fixture ships as a board file so the CLI can replay it; verify_all
recounts every fixture with both counting engines and runs a few
structural checks on the constructions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

from . import geometry
from .counting import Board, count_sets, count_sets_bruteforce, list_sets

# name -> (expected set count, what the construction is)
_REGISTRY = (
    ("line3", 1, "a single completed set"),
    ("five_two", 2, "a set plus two cards forming one more set through its first card"),
    ("six_three", 3, "six cards realizing three sets"),
    ("seven_five", 5, "seven cards realizing five sets"),
    ("magic_square_plane", 12, "the nine-card coordinate plane; every pair completes inside it"),
    ("magic_square_skew", 12, "a nine-card square not aligned with the coordinate axes"),
    ("eight_eight", 8, "the coordinate plane minus one card; each card sits on exactly three sets"),
    ("eleven_thirteen", 13, "a nine-card square plus a pair adding one set through its corner"),
    ("twelve_fourteen", 14, "the coordinate plane plus three cards adding two more sets"),
)


@dataclass(frozen=True)
class Fixture:
    name: str
    board: Board
    expected_sets: int
    description: str


@dataclass(frozen=True)
class FixtureResult:
    fixture: str
    expected: int
    got: int
    ok: bool


@dataclass(frozen=True)
class StructuralResult:
    check: str
    ok: bool
    detail: str


@dataclass
class CatalogReport:
    fixtures: list[FixtureResult]
    checks: list[StructuralResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.fixtures) and all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "fixtures": [
                {"fixture": r.fixture, "expected": r.expected, "got": r.got, "pass": r.ok}
                for r in self.fixtures
            ],
            "checks": [
                {"check": c.check, "pass": c.ok, "detail": c.detail} for c in self.checks
            ],
            "ok": self.ok,
        }


def _load_board(name: str) -> Board:
    text = files("setmax").joinpath(f"fixtures/{name}.board").read_text(encoding="utf-8")
    return Board.parse(text, source=f"{name}.board")


_cache: list[Fixture] | None = None


def fixtures() -> list[Fixture]:
    """All reference boards, in catalog order."""
    global _cache
    if _cache is None:
        _cache = [
            Fixture(name, _load_board(name), expected, description)
            for name, expected, description in _REGISTRY
        ]
    return list(_cache)


def fixture(name: str) -> Fixture:
    for f in fixtures():
        if f.name == name:
            return f
    raise KeyError(f"unknown fixture {name!r}")


def _check_extra_lines() -> tuple[bool, str]:
    board = fixture("twelve_fourteen").board
    square = Board(board.dim, board.cards[:9])
    extra = sorted(set(list_sets(board)) - set(list_sets(square)))
    want = sorted(
        tuple(sorted(geometry.encode_card(c) for c in triple))
        for triple in (
            (((0, 1, 0, 0)), ((0, 0, 1, 0)), ((0, 2, 2, 0))),
            (((0, 0, 2, 0)), ((0, 1, 2, 0)), ((0, 2, 2, 0))),
        )
    )
    return extra == want, f"lines beyond the nine-card square: {extra}"


def _check_embedded_square() -> tuple[bool, str]:
    board = fixture("twelve_fourteen").board
    first9 = board.cards[:9]
    ok = len(first9) == 9 and geometry.is_closed_under_completion(first9, board.dim)
    return ok, "first nine cards are closed under third-card completion"


def _check_skew_closure() -> tuple[bool, str]:
    from itertools import combinations

    board = fixture("magic_square_skew").board
    cards = set(board.cards)
    ok = True
    for triple in combinations(board.cards, 3):
        if geometry.is_line(*triple, board.dim):
            continue
        if set(geometry.span_flat(triple, board.dim).cards) != cards:
            ok = False
            break
    return ok, "every non-collinear triple spans the same nine cards"


def _check_eight_regular() -> tuple[bool, str]:
    board = fixture("eight_eight").board
    lines = list_sets(board)
    per_card = {c: sum(1 for ln in lines if c in ln) for c in board.cards}
    ok = len(lines) == 8 and all(v == 3 for v in per_card.values())
    return ok, f"each of the 8 cards lies on exactly 3 of its {len(lines)} sets"


# The structural checks, by the name each reports under, in report order.
_CHECKS = (
    ("twelve_fourteen_extra_lines", _check_extra_lines),
    ("twelve_fourteen_embedded_square", _check_embedded_square),
    ("magic_square_skew_closure", _check_skew_closure),
    ("eight_eight_regular", _check_eight_regular),
)


def verify_all() -> CatalogReport:
    """Recount every fixture with both engines and run the structural checks."""
    fixture_results = []
    for f in fixtures():
        fast = count_sets(f.board)
        slow = count_sets_bruteforce(f.board)
        fixture_results.append(
            FixtureResult(f.name, f.expected_sets, fast, fast == slow == f.expected_sets)
        )
    checks = [StructuralResult(name, *check()) for name, check in _CHECKS]
    return CatalogReport(fixture_results, checks)
