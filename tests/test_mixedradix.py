import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from sawalk import mixedradix
from sawalk.mixedradix import (
    Coordinate,
    HasseStats,
    RadixSpec,
    SpaceTooLargeError,
    degree,
    hasse_dot,
    hasse_stats,
    iter_space,
    neighbors,
    parse_coordinate,
    parse_spec,
    permuted_indices,
    random_coordinate,
    rank_distance,
    sample_weight_positions,
)

BT22 = RadixSpec(((2, 2), (3, 2)))  # two binary then two ternary digits


def coord(spec, text):
    return parse_coordinate(spec, text)


class TestSpec:
    def test_size_and_bases(self):
        assert BT22.size == 36
        assert BT22.position_bases == (2, 2, 3, 3)
        assert BT22.segment_bounds == ((0, 2), (2, 4))

    def test_parse_spec_round_trip(self):
        assert parse_spec("2^2.3^2") == BT22
        assert parse_spec(str(BT22)) == BT22

    @pytest.mark.parametrize("text", ["2", "2^2.3"])
    def test_parse_spec_refuses_a_segment_without_its_length(self, text):
        with pytest.raises(ValueError, match="expected BASE\\^LENGTH"):
            parse_spec(text)

    @pytest.mark.parametrize("segments", [(), ((1, 3),), ((2, 0),)])
    def test_invalid_specs(self, segments):
        with pytest.raises(ValueError):
            RadixSpec(tuple(segments))

    def test_huge_spec_is_constructible(self):
        spec = RadixSpec(((2, 25), (3, 24)))
        assert spec.size == 2**25 * 3**24


class TestCoordinate:
    def test_text_round_trip(self):
        c = coord(BT22, "01.21")
        assert c.digits == (0, 1, 2, 1)
        assert str(c) == "01.21"
        assert parse_coordinate(BT22, "  01.21 ") == c

    def test_segment_access(self):
        c = coord(BT22, "10.02")
        assert [c.digits[start:end] for start, end in BT22.segment_bounds] == [(1, 0), (0, 2)]

    @pytest.mark.parametrize("text", ["0.21", "011.21", "01.31", "01"])
    def test_bad_text(self, text):
        with pytest.raises(ValueError):
            parse_coordinate(BT22, text)

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            Coordinate(BT22, (0, 2, 0, 0))
        with pytest.raises(ValueError):
            Coordinate(BT22, (0, 1, 0))


class TestRankDistance:
    def test_worked_ternary_example(self):
        spec = RadixSpec(((3, 4),))
        assert rank_distance(coord(spec, "2101"), coord(spec, "0201")) == 3

    def test_worked_quaternary_example(self):
        spec = RadixSpec(((4, 4),))
        assert rank_distance(coord(spec, "3210"), coord(spec, "0123")) == 8

    def test_worked_concatenated_example(self):
        assert rank_distance(coord(BT22, "00.10"), coord(BT22, "01.21")) == 3

    def test_identity(self):
        for text in ["00.00", "11.22", "10.21"]:
            c = coord(BT22, text)
            assert rank_distance(c, c) == 0

    def test_spec_mismatch(self):
        with pytest.raises(ValueError):
            rank_distance(coord(BT22, "00.00"), coord(RadixSpec(((3, 4),)), "0000"))

    def test_symmetry_and_triangle(self):
        rng = random.Random(5)
        spec = RadixSpec(((2, 3), (5, 2), (3, 2)))
        for _ in range(200):
            a = random_coordinate(spec, rng)
            b = random_coordinate(spec, rng)
            c = random_coordinate(spec, rng)
            assert rank_distance(a, b) == rank_distance(b, a)
            assert rank_distance(a, c) <= rank_distance(a, b) + rank_distance(b, c)


class TestNeighbors:
    def test_all_zero_concatenated(self):
        got = {str(c) for c in neighbors(coord(BT22, "00.00"))}
        assert got == {"10.00", "01.00", "00.10", "00.01"}

    def test_interior_ternary_digits(self):
        got = neighbors(coord(BT22, "10.11"))
        assert len(got) == 6
        binary_moves = [c for c in got if c.digits[:2] != (1, 0)]
        ternary_moves = [c for c in got if c.digits[2:] != (1, 1)]
        assert len(binary_moves) == 2 and len(ternary_moves) == 4

    def test_digit_range_boundaries(self):
        spec = RadixSpec(((3, 1),))
        assert [str(c) for c in neighbors(coord(spec, "0"))] == ["1"]
        assert sorted(str(c) for c in neighbors(coord(spec, "1"))) == ["0", "2"]
        assert [str(c) for c in neighbors(coord(spec, "2"))] == ["1"]

    def test_all_neighbors_at_distance_one(self):
        c = coord(BT22, "11.12")
        for nb in neighbors(c):
            assert rank_distance(c, nb) == 1


class TestPermutedIndices:
    def test_trivial_counts(self):
        rng = random.Random(0)
        assert permuted_indices(0, rng) == []
        assert permuted_indices(1, rng) == [0]

    def test_golden_value(self):
        # frozen from the reference stream at first implementation
        assert permuted_indices(4, random.Random(1901)) == [3, 2, 1, 0]
        assert permuted_indices(6, random.Random(1901)) == [5, 1, 3, 2, 0, 4]

    def test_reproducible(self):
        a = permuted_indices(50, random.Random(99))
        b = permuted_indices(50, random.Random(99))
        assert a == b and sorted(a) == list(range(50))

    def test_uniformity_over_pairs(self):
        # each of the two permutations of [0, 1] should appear about half the time
        hits = sum(permuted_indices(2, random.Random(seed))[0] for seed in range(4000))
        assert 0.45 < hits / 4000 < 0.55

    def test_draws_as_shuffle_draws(self):
        # the walk's fingerprints depend on the exact draws and the state after them
        ours, theirs = random.Random(2024), random.Random(2024)
        for count in range(60):
            for _ in range(300):
                expected = list(range(count))
                theirs.shuffle(expected)
                assert permuted_indices(count, ours) == expected
                assert ours.getstate() == theirs.getstate()


class TestRandomCoordinate:
    def test_forced_weights(self):
        rng = random.Random(1)
        assert sample_weight_positions(rng, 10, 10) == (1,) * 10
        assert sample_weight_positions(rng, 10, 0) == (0,) * 10

    def test_weight_too_large(self):
        with pytest.raises(ValueError):
            sample_weight_positions(random.Random(0), 3, 4)

    def test_stream_order(self):
        # one randrange(base) per position, left to right
        spec = RadixSpec(((2, 3), (3, 2), (5, 1)))
        rng = random.Random(8)
        expected = tuple(rng.randrange(base) for base in spec.position_bases)
        assert random_coordinate(spec, random.Random(8)).digits == expected

    def test_unconstrained_in_range(self):
        spec = RadixSpec(((2, 2), (4, 3)))
        rng = random.Random(3)
        for _ in range(100):
            c = random_coordinate(spec, rng)
            assert all(0 <= d < b for d, b in zip(c.digits, spec.position_bases))

    def test_weight_sampling_covers_positions(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            seen.add(sample_weight_positions(rng, 5, 2))
        assert len(seen) == 10  # C(5, 2) possible strings


class TestHasse:
    def test_binary_ternary_concatenation(self):
        stats = hasse_stats(BT22)
        assert (stats.vertex_count, stats.edge_count) == (36, 84)
        assert set(stats.degree_histogram) == {4, 5, 6}

    def test_ternary_cube(self):
        stats = hasse_stats(RadixSpec(((3, 3),)))
        assert stats.vertex_count == 27
        assert set(stats.degree_histogram) == {3, 4, 5, 6}

    def test_quaternary_square(self):
        stats = hasse_stats(RadixSpec(((4, 2),)))
        assert stats.vertex_count == 16
        assert set(stats.degree_histogram) == {2, 3, 4}

    def test_binary_hypercube_regular(self):
        stats = hasse_stats(RadixSpec(((2, 4),)))
        assert stats.vertex_count == 16
        assert stats.edge_count == 32
        assert stats.degree_histogram == {4: 16}

    def test_edge_count_halves_degree_sum(self):
        stats = hasse_stats(RadixSpec(((3, 2), (2, 3))))
        total = sum(deg * cnt for deg, cnt in stats.degree_histogram.items())
        assert stats.edge_count * 2 == total

    def test_cap(self):
        with pytest.raises(SpaceTooLargeError):
            hasse_dot(RadixSpec(((2, 30),)), enumeration_cap=10**6)

    def test_paper_space_is_counted_not_enumerated(self, monkeypatch):
        def no_enumeration(spec):
            raise AssertionError("the space was enumerated")

        monkeypatch.setattr(mixedradix, "iter_space", no_enumeration)
        stats = hasse_stats(RadixSpec(((2, 25), (3, 24))))
        assert stats.vertex_count == 9_476_762_676_643_233_792
        assert stats.edge_count == 270_087_736_284_332_163_072
        # each binary digit has one move; k of the ternary digits sit inside
        assert stats.degree_histogram == {
            49 + k: comb(24, k) * 2 ** (24 - k) * 2**25 for k in range(25)
        }

    def test_dot_output(self):
        text = hasse_dot(RadixSpec(((2, 1), (3, 1))))
        assert text.startswith("graph hasse {")
        assert '"0.0" -- "1.0";' in text
        assert '"0.0" -- "0.1";' in text
        assert '"0.2" -- "1.2";' in text
        # layered: the origin sits alone in the first rank group
        assert '{ rank=same; "0.0"; }' in text
        assert text.count("--") == hasse_stats(RadixSpec(((2, 1), (3, 1)))).edge_count

    def test_dot_refuses_base_above_36_before_enumerating(self, monkeypatch):
        def no_enumeration(spec):
            raise AssertionError("the space was enumerated")

        monkeypatch.setattr(mixedradix, "iter_space", no_enumeration)
        with pytest.raises(ValueError, match="DOT text supports bases up to 36, got 40"):
            hasse_dot(RadixSpec(((2, 1), (40, 1))))


SMALL_SPECS = [
    RadixSpec(((2, 2), (3, 2))),
    RadixSpec(((3, 3),)),
    RadixSpec(((4, 2),)),
    RadixSpec(((2, 4),)),
    RadixSpec(((5, 3),)),
    RadixSpec(((2, 3), (3, 2), (4, 1))),
    RadixSpec(((2, 10),)),
    RadixSpec(((2, 2), (3, 1), (12, 1))),
    RadixSpec(((36, 2),)),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_degree_formula_matches_enumeration(spec):
    for c in iter_space(spec):
        assert len(neighbors(c)) == degree(c)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_degree_histogram_matches_enumeration(spec):
    counted = Counter(len(neighbors(c)) for c in iter_space(spec))
    assert hasse_stats(spec).degree_histogram == counted


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_neighbor_reciprocity(spec):
    for c in iter_space(spec):
        for nb in neighbors(c):
            assert c in neighbors(nb)


@pytest.mark.parametrize("spec", SMALL_SPECS[:4], ids=str)
def test_edges_match_brute_force_pair_count(spec):
    coords = list(iter_space(spec))
    brute = sum(1 for a, b in combinations(coords, 2) if rank_distance(a, b) == 1)
    assert hasse_stats(spec).edge_count == brute
