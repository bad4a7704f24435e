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

MIN_DIMENSION = 2
MAX_DIMENSION = 8

# Largest dimension for which third_rows builds the full pairwise table.
# A built table is 3**d lists of 3**d pointers to 3**d shared card ints:
# 4.3 MB at d=6, but 38 MB at d=7 and 344 MB at d=8, so above this each
# row is composed from two smaller built tables (see _ThirdRow).
TABLE_MAX_DIM = 6

# A composed row reads the low _LOW_DIM digits of its entries from
# third_rows(_LOW_DIM), whose deck has _LOW_DECK cards.
_LOW_DIM = 4
_LOW_DECK = 3 ** _LOW_DIM


class DegeneratePairError(ValueError):
    """A pair operation received the same card twice."""


class DependentPointsError(ValueError):
    """span_flat received affinely dependent points (e.g. a collinear triple)."""


class SingularMapError(ValueError):
    """An affine map's matrix is not invertible mod 3."""


def is_int(v) -> bool:
    """Whether v is an int that is not a bool (bool is a subclass of int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_dimension(d: int) -> int:
    if not is_int(d) or not MIN_DIMENSION <= d <= MAX_DIMENSION:
        raise ValueError(
            f"dimension must be an integer in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {d!r}"
        )
    return d


def deck_size(d: int) -> int:
    """Number of cards with d properties (3**d)."""
    return 3 ** check_dimension(d)


def check_card(card: int, d: int) -> int:
    if not is_int(card) or not 0 <= card < 3 ** d:
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
        if not is_int(v) or v not in (0, 1, 2):
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
    """Row a of the third-card table above TABLE_MAX_DIM, composed from the
    built tables of d - _LOW_DIM and _LOW_DIM digits.

    Split every card x as x = x_hi * 81 + x_lo, where x_lo holds the four
    low base-3 digits and x_hi the d - 4 high ones.  The third card is
    taken digit by digit, so its low four digits depend only on a_lo and
    b_lo and its high digits only on a_hi and b_hi:

        third(a, b, d) = third(a_hi, b_hi, d - 4) * 81 + third(a_lo, b_lo, 4).

    The row keeps row a_hi of third_rows(d - 4) and row a_lo of
    third_rows(4), both built tables because d - 4 <= 4 <= TABLE_MAX_DIM,
    so row[b] costs two list reads and no digit loop.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, a: int, d: int):
        self.hi = third_rows(d - _LOW_DIM)[a // _LOW_DECK]
        self.lo = third_rows(_LOW_DIM)[a % _LOW_DECK]

    def __getitem__(self, b: int) -> int:
        return self.hi[b // _LOW_DECK] * _LOW_DECK + self.lo[b % _LOW_DECK]


@functools.lru_cache(maxsize=None)
def _built_rows(d: int) -> list[list[int]]:
    """The full third-card table of d digits (d >= 0), by digit recursion.

    Split every card x as x = 3 * x' + x0, with x0 its lowest digit.  The
    third card is taken digit by digit, so appending a low digit to a and
    to b appends the third of those two digits to their third card:

        third(a, b, d) = 3 * third(a', b', d - 1) + (-(a0 + b0)) % 3.

    The cards b = 3 * b' + b0 run through b' in order and, within each b',
    through b0 = 0, 1, 2.  So row a is row a' of the d - 1 table with each
    entry p replaced by the three cards 3p + (-(a0 + b0)) % 3, b0 = 0, 1, 2;
    those triples depend only on a0 and p and are built once.  Every entry
    is taken from one list of the 3**d card ints, so the table holds one
    int object per card.
    """
    if d == 0:
        return [[0]]
    prev = _built_rows(d - 1)
    cards = list(range(3 ** d))
    triples = [
        [tuple(cards[3 * p + (-(a0 + b0)) % 3] for b0 in range(3)) for p in range(len(prev))]
        for a0 in range(3)
    ]
    return [
        list(itertools.chain.from_iterable(map(triples[a % 3].__getitem__, prev[a // 3])))
        for a in range(len(cards))
    ]


@functools.lru_cache(maxsize=None)
def third_rows(d: int) -> list:
    """Rows of the third-card table: rows[a][b] == third_value(a, b, d)
    (the diagonal is a itself), for every supported d.

    Up to TABLE_MAX_DIM every row is a list built by _built_rows, whose
    entries are shared card ints; above it every row is a _ThirdRow that
    composes its entries from two built tables, so the table costs one
    small object per card.  The rows are shared with every caller, so
    treat them as read-only.
    """
    check_dimension(d)
    if d > TABLE_MAX_DIM:
        return [_ThirdRow(a, d) for a in range(3 ** d)]
    return _built_rows(d)


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


class _Record:
    """An immutable record that compares, hashes, prints and pickles by its
    fields (the subclass's __slots__), as a frozen dataclass does."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Flat(_Record):
    """An affine subspace: 3**rank cards closed under third-card completion."""

    __slots__ = ("cards", "rank")

    def __init__(self, cards: frozenset[int], rank: int):
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "rank", rank)


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


class AffineMap(_Record):
    """An invertible map x -> Ax + t of the d-dimensional space onto itself.

    Such maps send lines to lines and therefore preserve set counts, which
    is what lets the search fix its first two cards.  The entries are kept
    reduced mod 3.
    """

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], translation: tuple[int, ...]):
        d = len(translation)
        check_dimension(d)
        for v in (*translation, *(v for row in matrix for v in row)):
            if not is_int(v):
                raise ValueError(f"matrix and translation entries must be integers, got {v!r}")
        matrix = tuple(tuple(v % 3 for v in row) for row in matrix)
        translation = tuple(v % 3 for v in translation)
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ValueError(f"matrix must be {d}x{d} to match the translation")
        if _det_mod3([list(row) for row in matrix]) == 0:
            raise SingularMapError("matrix is singular mod 3; the map would collapse lines")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)

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
    if m.dim != board.dim:
        raise ValueError(f"map dimension {m.dim} does not match board dimension {board.dim}")
    return type(board)(board.dim, map(m.apply_card, board))
