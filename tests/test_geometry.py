import random
from itertools import combinations

import pytest

from setmax import geometry
from setmax.counting import Board, count_sets
from setmax.geometry import (
    AffineMap,
    DegeneratePairError,
    DependentPointsError,
    SingularMapError,
    all_lines,
    apply_affine,
    cube_of,
    decode_card,
    deck_size,
    encode_card,
    is_line,
    span_flat,
    third_card,
    third_rows,
    third_value,
)


def brute_force_lines(d):
    """Independent line enumeration: every triple, checked by digit sums."""
    deck = 3 ** d
    found = []
    for a, b, c in combinations(range(deck), 3):
        da, db, dc = decode_card(a, d), decode_card(b, d), decode_card(c, d)
        if all((x + y + z) % 3 == 0 for x, y, z in zip(da, db, dc)):
            found.append((a, b, c))
    return found


class TestEncodeDecode:
    def test_zero_vector(self):
        assert encode_card((0, 0, 0, 0)) == 0

    def test_positional_value(self):
        assert encode_card((0, 0, 0, 2)) == 2

    def test_round_trip_against_independent_base3(self):
        # oracle: python's int() base-3 parser
        coords = (0, 1, 2, 0)
        expected = int("".join(str(v) for v in coords), 3)
        assert expected == 15
        assert encode_card(coords) == expected
        assert decode_card(encode_card(coords), 4) == coords

    def test_all_max_digits(self):
        assert decode_card(3 ** 4 - 1, 4) == (2, 2, 2, 2)

    def test_round_trip_exhaustive_d3(self):
        for card in range(27):
            assert encode_card(decode_card(card, 3)) == card

    @pytest.mark.parametrize("coords", [(0, 1, 3, 0), (0, 0, 0, 2.0), (0, 0, True, 0), (0, 1, 1.0, 0)],
                             ids=["digit-3", "float-2.0", "bool-True", "float-1.0"])
    def test_bad_digit_rejected(self, coords):
        with pytest.raises(ValueError, match="coordinates must be digits"):
            encode_card(coords)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            encode_card((0,))

    def test_out_of_range_card_rejected(self):
        with pytest.raises(ValueError):
            decode_card(81, 4)
        with pytest.raises(ValueError):
            decode_card(-1, 4)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            deck_size(1)
        with pytest.raises(ValueError):
            deck_size(9)


class TestThirdCard:
    def test_completes_vertical_line(self):
        a = encode_card((0, 0, 0, 0))
        b = encode_card((0, 0, 0, 1))
        assert third_card(a, b, 4) == encode_card((0, 0, 0, 2))

    def test_completes_skew_line(self):
        a = encode_card((0, 1, 0, 0))
        b = encode_card((0, 0, 1, 0))
        assert third_card(a, b, 4) == encode_card((0, 2, 2, 0))

    def test_degenerate_pair_rejected(self):
        c = encode_card((1, 1, 1, 1))
        with pytest.raises(DegeneratePairError):
            third_card(c, c, 4)

    def test_algebra_random_sweep(self):
        rng = random.Random(7)
        for d in (2, 3, 4, 5):
            deck = 3 ** d
            for _ in range(300):
                a, b = rng.sample(range(deck), 2)
                t = third_card(a, b, d)
                assert t not in (a, b)
                assert third_card(b, a, d) == t
                assert third_card(a, t, d) == b
                assert is_line(a, b, t, d)


class TestThirdRows:
    # Every row up to d=5, every 7th row at d=6.  The 0- and 1-digit tables
    # are the high digits of a split card.
    @pytest.mark.parametrize("d,step", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 7)])
    def test_built_rows_match_third_value(self, d, step):
        rows = third_rows(d)
        deck = 3 ** d
        assert len(rows) == deck
        for a in range(0, deck, step):
            assert rows[a] == [third_value(a, b, d) for b in range(deck)]

    @pytest.mark.parametrize("d", [7, 8])
    def test_composed_rows_match_third_value(self, d):
        rows = third_rows(d)
        deck = 3 ** d
        assert len(rows) == deck
        rng = random.Random(d)
        for _ in range(5000):
            a, b = rng.randrange(deck), rng.randrange(deck)
            assert rows[a][b] == third_value(a, b, d)
        for a in (0, 1, 80, 81, 242, 243, deck // 2, deck - 1):
            assert [rows[a][b] for b in range(deck)] == [third_value(a, b, d) for b in range(deck)]

    @pytest.mark.parametrize("d", [-1, 9, 2.5, "3"])
    def test_digit_count_outside_the_tables_refused(self, d):
        with pytest.raises(ValueError, match=r"digit count must be an integer in \[0, 8\]"):
            third_rows(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_built_table_shares_one_int_per_card(self, d):
        rows = third_rows(d)
        assert len({id(x) for row in rows for x in row}) == 3 ** d


class TestIsLine:
    def test_vertical_line(self):
        cards = [encode_card(c) for c in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2))]
        assert is_line(*cards, 4)

    def test_non_line(self):
        cards = [encode_card(c) for c in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))]
        assert not is_line(*cards, 4)

    def test_horizontal_line(self):
        cards = [encode_card(c) for c in ((0, 0, 2, 0), (0, 1, 2, 0), (0, 2, 2, 0))]
        assert is_line(*cards, 4)

    def test_repeated_card_is_not_a_line(self):
        assert not is_line(0, 0, 0, 4)
        assert not is_line(0, 1, 1, 4)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = rng.sample(range(81), 2)
            t = third_card(a, b, 4)
            assert is_line(b, t, a, 4) and is_line(t, a, b, 4)


class TestAllLines:
    @pytest.mark.parametrize("d,expected", [(2, 12), (3, 117), (4, 1080)])
    def test_counts(self, d, expected):
        lines = all_lines(d)
        assert len(lines) == expected
        assert len(set(lines)) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_force(self, d):
        assert sorted(all_lines(d)) == brute_force_lines(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_closed_form(self, d):
        assert len(all_lines(d)) == 3 ** (d - 1) * (3 ** d - 1) // 2
        assert geometry.line_count(d) == len(all_lines(d))

    @pytest.mark.parametrize("d,per_card", [(3, 13), (4, 40)])
    def test_lines_through_each_card(self, d, per_card):
        tally = {c: 0 for c in range(3 ** d)}
        for line in all_lines(d):
            for c in line:
                tally[c] += 1
        assert set(tally.values()) == {per_card}
        assert geometry.lines_per_card(d) == per_card


class TestSpanFlat:
    def test_coordinate_plane(self):
        pts = [encode_card(c) for c in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))]
        flat = span_flat(pts, 4)
        expected = {encode_card((0, 0, x, y)) for x in range(3) for y in range(3)}
        assert flat.cards == frozenset(expected)
        assert flat.rank == 2

    def test_skew_square_from_catalog(self):
        pts = [encode_card(c) for c in ((0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))]
        flat = span_flat(pts, 4)
        listed = {
            encode_card(c)
            for c in (
                (0, 0, 0, 0), (0, 1, 1, 0), (0, 2, 2, 0),
                (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1),
                (0, 0, 0, 2), (0, 1, 1, 2), (0, 2, 2, 2),
            )
        }
        assert flat.cards == frozenset(listed)

    def test_collinear_triple_rejected(self):
        with pytest.raises(DependentPointsError):
            span_flat((0, 1, 2), 4)

    def test_repeated_point_rejected(self):
        with pytest.raises(DependentPointsError):
            span_flat((5, 5, 7), 4)

    def test_pair_spans_its_line(self):
        flat = span_flat((0, 1), 4)
        assert flat.rank == 1
        assert flat.cards == frozenset((0, 1, 2))

    def test_single_point(self):
        assert span_flat((40,), 4) == geometry.Flat(frozenset((40,)), 0)

    def test_random_non_collinear_triples_give_nine_cards_twelve_sets(self):
        rng = random.Random(23)
        done = 0
        while done < 1000:
            pts = rng.sample(range(81), 3)
            if is_line(*pts, 4):
                continue
            flat = span_flat(pts, 4)
            assert len(flat.cards) == 9
            assert flat.rank == 2
            assert count_sets(Board(4, flat.cards)) == 12
            done += 1


class TestCubes:
    def test_shared_prefix_d4(self):
        for x in range(3):
            for y in range(3):
                assert cube_of(encode_card((0, 0, x, y)), 4) == 0

    def test_cube_index_count_d4(self):
        assert len({cube_of(c, 4) for c in range(81)}) == 9
        assert geometry.cube_count(4) == 9

    def test_prefix_split_d3(self):
        first = {cube_of(encode_card((1, x, y)), 3) for x in range(3) for y in range(3)}
        second = {cube_of(encode_card((0, x, y)), 3) for x in range(3) for y in range(3)}
        assert len(first) == 1 and len(second) == 1
        assert first != second


class TestAffineMap:
    def test_identity_fixes_everything(self):
        ident = AffineMap.identity(4)
        board = Board(4, range(0, 81, 5))
        assert apply_affine(ident, board) == board

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMapError):
            AffineMap(((1, 1), (2, 2)), (0, 0))

    @pytest.mark.parametrize(
        "matrix,translation",
        [(((1.5, 0), (0, 1)), (0, 0)), (((1, 0), (0, 1)), (0.5, 0)), (((True, 0), (0, 1)), (0, 0)),
         (((1, 0), (0, 1)), ("1", 0))],
        ids=["float entry", "float translation", "bool entry", "str translation"],
    )
    def test_entries_that_are_not_integers_rejected(self, matrix, translation):
        with pytest.raises(ValueError, match="must be integers"):
            AffineMap(matrix, translation)

    def test_translation_preserves_fourteen(self):
        from setmax.catalog import fixture

        board = fixture("twelve_fourteen").board
        shifted = apply_affine(AffineMap.translation_by((0, 0, 0, 1)), board)
        assert shifted != board
        assert count_sets(shifted) == 14

    def test_maps_lines_to_lines(self):
        rng = random.Random(99)
        for _ in range(100):
            m = AffineMap.random(4, rng)
            a, b = rng.sample(range(81), 2)
            t = third_card(a, b, 4)
            image = [m.apply_card(x) for x in (a, b, t)]
            assert is_line(*image, 4)

    def test_count_invariance_random_pairs(self):
        rng = random.Random(5)
        for _ in range(100):
            d = rng.choice((3, 4))
            m = AffineMap.random(d, rng)
            board = Board(d, rng.sample(range(3 ** d), rng.randrange(3, 14)))
            assert count_sets(apply_affine(m, board)) == count_sets(board)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_affine(AffineMap.identity(3), Board(4, (0, 1)))


class TestRecords:
    """Flat, AffineMap and Board are immutable records: built from their
    fields, compared, hashed, printed and pickled by them."""

    def test_affine_map_normalises_its_fields(self):
        m = AffineMap(matrix=((4, 0), (3, 2)), translation=(5, -1))
        assert (m.matrix, m.translation, m.dim) == (((1, 0), (0, 2)), (2, 2), 2)
        assert repr(m) == "AffineMap(matrix=((1, 0), (0, 2)), translation=(2, 2))"
        with pytest.raises(ValueError, match="2x2"):
            AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0))

    @pytest.mark.parametrize(
        "record,same,other,fields",
        [
            (geometry.Flat(frozenset((40,)), 0), geometry.Flat(cards=frozenset({40}), rank=0),
             geometry.Flat(frozenset((41,)), 0), ("cards", "rank")),
            (AffineMap.identity(3), AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 4)), (3, 0, 0)),
             AffineMap.translation_by((0, 0, 1)), ("matrix", "translation")),
            (Board(4, (40, 2)), Board(4, [2, 40]), Board(4, (41, 2)), ("dim", "cards", "mask")),
        ],
        ids=["Flat", "AffineMap", "Board"],
    )
    def test_value_semantics(self, record, same, other, fields):
        import copy
        import pickle

        assert record == same and hash(record) == hash(same) and repr(record) == repr(same)
        assert record != other and record != tuple(getattr(record, f) for f in fields)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == same
