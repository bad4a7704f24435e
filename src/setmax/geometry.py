"""Points, lines and flats of the d-dimensional ternary affine space.

A card with d properties is a point of that space, encoded as an integer
in [0, 3**d) whose base-3 digits are the property values, most significant
digit first.  Three cards form a set exactly when they are collinear,
i.e. their coordinate-wise sum is 0 mod 3.  Everything here is a pure
function on immutable values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

MIN_DIMENSION = 2
MAX_DIMENSION = 8

# Largest dimension for which third_rows builds the full pairwise table;
# above this the table would not fit comfortably in memory, so its rows
# compute each entry digit-wise when it is read.
TABLE_MAX_DIM = 6


class DegeneratePairError(ValueError):
    """A pair operation received the same card twice."""


class DependentPointsError(ValueError):
    """span_flat received affinely dependent points (e.g. a collinear triple)."""


class SingularMapError(ValueError):
    """An affine map's matrix is not invertible mod 3."""


def check_dimension(d: int) -> int:
    if not isinstance(d, int) or isinstance(d, bool) or not MIN_DIMENSION <= d <= MAX_DIMENSION:
        raise ValueError(
            f"dimension must be an integer in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {d!r}"
        )
    return d


def deck_size(d: int) -> int:
    """Number of cards with d properties (3**d)."""
    return 3 ** check_dimension(d)


def check_card(card: int, d: int) -> int:
    if not isinstance(card, int) or isinstance(card, bool) or not 0 <= card < 3 ** d:
        raise ValueError(f"card id must be an integer in [0, {3 ** d}), got {card!r}")
    return card


def encode_card(coords) -> int:
    """Encode a coordinate vector (digits in {0,1,2}) as a card id.

    The first coordinate is the most significant base-3 digit, so
    encode_card((0,0,0,2)) == 2.
    """
    coords = tuple(coords)
    check_dimension(len(coords))
    value = 0
    for v in coords:
        if v not in (0, 1, 2):
            raise ValueError(f"coordinates must be digits in {{0,1,2}}, got {coords!r}")
        value = 3 * value + v
    return value


def decode_card(card: int, d: int) -> tuple[int, ...]:
    """Inverse of encode_card: the d property digits of a card."""
    check_dimension(d)
    check_card(card, d)
    digits = []
    for _ in range(d):
        digits.append(card % 3)
        card //= 3
    digits.reverse()
    return tuple(digits)


def third_value(a: int, b: int, d: int) -> int:
    """Unvalidated digit-wise third card; third_value(a, a, d) == a."""
    t = 0
    mul = 1
    for _ in range(d):
        t += (-(a % 3 + b % 3)) % 3 * mul
        a //= 3
        b //= 3
        mul *= 3
    return t


def third_card(a: int, b: int, d: int) -> int:
    """The unique card completing {a, b} to a set: digit-wise (-a-b) mod 3.

    Rejects a == b; the algebraic fixed point would silently hand back the
    input, which in this code base always means a caller bug.
    """
    check_dimension(d)
    check_card(a, d)
    check_card(b, d)
    if a == b:
        raise DegeneratePairError(f"third_card needs two distinct cards, got {a} twice")
    return third_value(a, b, d)


class _ThirdRow:
    """Row a of the third-card table above TABLE_MAX_DIM: row[b] is
    third_value(a, b, d), computed when it is read."""

    __slots__ = ("a", "d")

    def __init__(self, a: int, d: int):
        self.a = a
        self.d = d

    def __getitem__(self, b: int) -> int:
        return third_value(self.a, b, self.d)


@functools.lru_cache(maxsize=None)
def third_rows(d: int) -> list:
    """Rows of the third-card table: rows[a][b] == third_value(a, b, d)
    (the diagonal is a itself), for every supported d.

    Up to TABLE_MAX_DIM every row is a built list of ints; above it each
    row computes its entries digit-wise on demand, so the table costs one
    small object per card.  The rows are shared with every caller, so
    treat them as read-only.
    """
    check_dimension(d)
    n = 3 ** d
    if d > TABLE_MAX_DIM:
        return [_ThirdRow(a, d) for a in range(n)]
    return [[third_value(a, b, d) for b in range(n)] for a in range(n)]


def is_line(a: int, b: int, c: int, d: int) -> bool:
    """True iff the three cards are pairwise distinct and collinear.

    Checked against the defining condition (digit sums are 0 mod 3) rather
    than via third_card, so the two routes stay independent.
    """
    check_dimension(d)
    for x in (a, b, c):
        check_card(x, d)
    if a == b or b == c or a == c:
        return False
    for _ in range(d):
        if (a % 3 + b % 3 + c % 3) % 3:
            return False
        a //= 3
        b //= 3
        c //= 3
    return True


def all_lines(d: int) -> list[tuple[int, int, int]]:
    """Every line of the d-dimensional space exactly once, as sorted triples.

    There are 3**(d-1) * (3**d - 1) / 2 of them; each unordered pair
    determines one line and each line is produced by the pair of its two
    smallest cards.
    """
    check_dimension(d)
    n = 3 ** d
    lines = []
    for a, row in enumerate(third_rows(d)):
        for b in range(a + 1, n):
            t = row[b]
            if t > b:
                lines.append((a, b, t))
    return lines


def line_count(d: int) -> int:
    """Closed-form number of lines: 3**(d-1) * (3**d - 1) / 2."""
    check_dimension(d)
    return 3 ** (d - 1) * (3 ** d - 1) // 2


def lines_per_card(d: int) -> int:
    """Number of lines through any one card: (3**d - 1) / 2."""
    check_dimension(d)
    return (3 ** d - 1) // 2


@dataclass(frozen=True)
class Flat:
    """An affine subspace: 3**rank cards closed under third-card completion."""

    cards: frozenset[int]
    rank: int


def span_flat(points, d: int) -> Flat:
    """Close 1-3 affinely independent points under third-card completion.

    One point spans itself (rank 0), two a line (rank 1), three
    non-collinear points a nine-card square (rank 2) containing exactly
    12 lines.  Dependent input - repeated points or a collinear triple -
    is rejected rather than silently spanning something smaller.
    """
    check_dimension(d)
    points = list(points)
    for p in points:
        check_card(p, d)
    if not 1 <= len(points) <= 3:
        raise ValueError(f"span_flat takes 1-3 points, got {len(points)}")
    if len(set(points)) != len(points):
        raise DependentPointsError(f"span_flat needs distinct points, got {points!r}")
    if len(points) == 3 and is_line(points[0], points[1], points[2], d):
        raise DependentPointsError(
            f"the three points {points!r} are collinear and span only their own line"
        )
    cards = set(points)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(cards), 2):
            t = third_value(a, b, d)
            if t not in cards:
                cards.add(t)
                changed = True
    rank = {1: 0, 3: 1, 9: 2}[len(cards)]
    return Flat(frozenset(cards), rank)


def is_closed_under_completion(cards, d: int) -> bool:
    """True iff the third card of every pair in `cards` is also in `cards`."""
    cards = set(cards)
    for a, b in itertools.combinations(sorted(cards), 2):
        if third_value(a, b, d) not in cards:
            return False
    return True


def cube_count(d: int) -> int:
    """Number of nine-card cubes the deck splits into (3**(d-2))."""
    check_dimension(d)
    return 3 ** (d - 2)


def cube_of(card: int, d: int) -> int:
    """Cube index of a card: cards agreeing on the first d-2 coordinates share it.

    The first d-2 coordinates are the high base-3 digits, so the index is
    simply card // 9 and ranges over [0, 3**(d-2)).
    """
    check_dimension(d)
    check_card(card, d)
    return card // 9


def _det_mod3(matrix: list[list[int]]) -> int:
    """Determinant of a square matrix over the 3-element field."""
    m = [[v % 3 for v in row] for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % 3
        p = m[col][col]
        det = det * p % 3
        inv = p  # 1 and 2 are both self-inverse mod 3
        for r in range(col + 1, n):
            f = m[r][col] * inv % 3
            if f:
                m[r] = [(x - f * y) % 3 for x, y in zip(m[r], m[col])]
    return det


@dataclass(frozen=True)
class AffineMap:
    """An invertible map x -> Ax + t of the d-dimensional space onto itself.

    Such maps send lines to lines and therefore preserve set counts, which
    is what lets the search fix its first two cards.
    """

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]

    def __post_init__(self):
        d = len(self.translation)
        check_dimension(d)
        object.__setattr__(
            self, "matrix", tuple(tuple(v % 3 for v in row) for row in self.matrix)
        )
        object.__setattr__(self, "translation", tuple(v % 3 for v in self.translation))
        if len(self.matrix) != d or any(len(row) != d for row in self.matrix):
            raise ValueError(f"matrix must be {d}x{d} to match the translation")
        if _det_mod3([list(row) for row in self.matrix]) == 0:
            raise SingularMapError("matrix is singular mod 3; the map would collapse lines")

    @property
    def dim(self) -> int:
        return len(self.translation)

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        check_dimension(d)
        matrix = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        return cls(matrix, (0,) * d)

    @classmethod
    def translation_by(cls, coords) -> "AffineMap":
        coords = tuple(coords)
        ident = cls.identity(len(coords))
        return cls(ident.matrix, coords)

    @classmethod
    def random(cls, d: int, rng) -> "AffineMap":
        """A uniformly random invertible map, by rejection sampling the matrix."""
        check_dimension(d)
        while True:
            matrix = tuple(tuple(rng.randrange(3) for _ in range(d)) for _ in range(d))
            if _det_mod3([list(row) for row in matrix]) != 0:
                break
        translation = tuple(rng.randrange(3) for _ in range(d))
        return cls(matrix, translation)

    def apply_card(self, card: int) -> int:
        d = self.dim
        x = decode_card(card, d)
        y = [
            (sum(self.matrix[i][j] * x[j] for j in range(d)) + self.translation[i]) % 3
            for i in range(d)
        ]
        return encode_card(y)


def apply_affine(m: AffineMap, board):
    """Image of a board under an affine map; set counts are preserved."""
    from .counting import Board

    if m.dim != board.dim:
        raise ValueError(f"map dimension {m.dim} does not match board dimension {board.dim}")
    return Board(board.dim, (m.apply_card(c) for c in board))
