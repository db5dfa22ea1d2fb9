import pickle
import random
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawalk import hpfold
from sawalk.engine import SearchConfig, run_search
from sawalk.hpfold import (
    MAX_BEADS,
    _fold_analysis,
    as_digits,
    decode_fold,
    default_penalty,
    make_problem,
    objective_value,
    target_energy,
    weight,
)
from sawalk.instances import load_instances
from sawalk.mixedradix import Coordinate, neighbors, rank_distance
from sawalk.render import ascii_conformation

LITERATURE = Path(__file__).resolve().parent.parent / "instances" / "hp_literature.instances"
HP10 = LITERATURE.with_name("hp10.instances")


def point(coord_b, coord_t):
    """The bytes a problem walks: colour digits, then turn digits, one a byte."""
    return bytes(as_digits(coord_b) + as_digits(coord_t))


ONE_PER_PLAN = [
    make_problem("A", coord_b="1001001001", energy_target=-4),
    make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4),
    make_problem("C", n=10, weight_target=4, energy_target=-4),
]


class TestWeight:
    def test_examples(self):
        assert weight("1001001001") == 4
        assert weight("0000000000") == 0
        assert weight("1111111111") == 10

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            weight("102")


# ten digits 1001001001, each as no reader of a chain takes it: padded text,
# Arabic-Indic digits, a float digit, bool digits
UNREAD_CHAINS = [
    " 1001001001",
    "\u0661\u0660\u0660\u0661\u0660\u0660\u0661\u0660\u0660\u0661",
    [1, 0, 0, 1, 0, 0, 1, 0, 0, 0.9],
    [True, False, False, True, False, False, True, False, False, True],
]


class TestOneReader:
    """Every caller reads a chain through hpfold.segments or its segment reader as_digits:
    exact ASCII digits, or ints taken as they are."""

    @pytest.mark.parametrize("chain", UNREAD_CHAINS, ids=["padded", "arabic-indic", "float-digit", "bool-digits"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda chain: make_problem("A", coord_b=chain, energy_target=-4),
            lambda chain: make_problem("B", coord_t=chain, weight_target=4, energy_target=-4),
            lambda chain: objective_value(chain, "211011011"),
            decode_fold,
            weight,
            lambda chain: ascii_conformation(chain, "211011011"),
        ],
        ids=["make_problem-A", "make_problem-B", "objective_value", "decode_fold", "weight", "ascii_conformation"],
    )
    def test_every_caller_refuses(self, read, chain):
        with pytest.raises(ValueError, match="segments must be"):
            read(chain)

    @pytest.mark.parametrize(
        "coord_b, coord_t",
        [
            ("1001001001", "211011011"),
            ([1, 0, 0, 1, 0, 0, 1, 0, 0, 1], (2, 1, 1, 0, 1, 1, 0, 1, 1)),
            (bytes([1, 0, 0, 1, 0, 0, 1, 0, 0, 1]), bytes([2, 1, 1, 0, 1, 1, 0, 1, 1])),
        ],
        ids=["text", "ints", "bytes"],
    )
    def test_text_and_ints_read_alike(self, coord_b, coord_t):
        assert hpfold.segments(coord_b, coord_t) == ((1, 0, 0, 1, 0, 0, 1, 0, 0, 1), (2, 1, 1, 0, 1, 1, 0, 1, 1))
        assert hpfold.segments(coord_b, coord_t, 10) == hpfold.segments(coord_b, coord_t)

    @pytest.mark.parametrize(
        "coord_b, coord_t, n, message",
        [
            ("1021", "222", None, "colour segments must be binary digits 0/1, got '1021'"),
            ("1001", "232", None, "turn segments must be ternary digits 0/1/2, got '232'"),
            ("1001", "22", None, "segments must be 4 digits 0/1 and 3 digits 0/1/2"),
            ("1001", "222", 5, "segments must be 5 digits 0/1 and 4 digits 0/1/2"),
        ],
        ids=["colour-digit", "turn-digit", "short-fold", "short-of-n"],
    )
    def test_refusals(self, coord_b, coord_t, n, message):
        with pytest.raises(ValueError, match=message):
            hpfold.segments(coord_b, coord_t, n)


class TestDecodeFold:
    def test_straight_line(self):
        out = decode_fold("22")
        assert out.positions == ((0, 0), (0, 1), (0, 2))
        assert out.feasible
        assert out.collision_count == 0
        assert out.first_collision_index is None

    def test_four_left_turns_close_a_square(self):
        out = decode_fold("0000")
        assert out.positions == ((0, 0), (-1, 0), (-1, -1), (0, -1), (0, 0))
        assert not out.feasible
        assert out.first_collision_index == 4
        assert out.collision_count == 1

    def test_known_optimal_fold_is_feasible(self):
        out = decode_fold("211011011")
        assert out.feasible
        assert len(out.positions) == 10
        assert len(set(out.positions)) == 10

    def test_steps_are_unit_moves(self):
        out = decode_fold("0120211")
        for (x0, y0), (x1, y1) in zip(out.positions, out.positions[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_collision_count_is_total(self):
        # seven left turns circle the unit square, overlapping from bead 4 on
        out = decode_fold("0000000")
        assert out.first_collision_index == 4
        assert out.collision_count == 4
        assert not out.feasible

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            decode_fold("2031")


class TestContacts:
    def test_all_polar_chain(self):
        assert objective_value("000000000", "21101101") == 0

    def test_straight_all_h(self):
        # chain bonds are not contacts
        assert objective_value("11111", "2222") == 0

    def test_requires_feasible(self):
        # a colliding fold scores its penalty whatever its colours
        for colors in ("11111", "00000", "10101"):
            assert objective_value(colors, "0000") == default_penalty(5, 4, 1)

    def test_contact_pairs_skip_consecutive(self):
        pairs = decode_fold("200100100").pairs
        assert all(j > i + 1 for i, j in pairs)
        assert (0, 3) in pairs and (0, 9) in pairs

    def test_contact_pairs_match_all_pairs_scan(self):
        # differential check against a quadratic scan of the decoded positions
        for turns in product((0, 1, 2), repeat=7):
            out = decode_fold(turns)
            if not out.feasible:
                assert out.pairs == ()
                continue
            pos = out.positions
            expected = [
                (i, j)
                for i in range(len(pos))
                for j in range(i + 2, len(pos))
                if abs(pos[i][0] - pos[j][0]) + abs(pos[i][1] - pos[j][1]) == 1
            ]
            assert out.pairs == tuple(expected)


class TestObjective:
    def test_known_solutions(self):
        assert objective_value("1001001001", "211011011") == -4
        assert objective_value("1001001001", "200100100") == -4

    def test_feasible_no_contacts(self):
        assert objective_value("0110", "222") == 0

    def test_penalty_for_closed_square(self):
        assert objective_value("10101", "0000") == 1

    def test_penalty_is_positive(self):
        rng = random.Random(2)
        for _ in range(500):
            turns = [rng.randrange(3) for _ in range(9)]
            out = decode_fold(turns)
            if not out.feasible:
                v = objective_value([rng.randrange(2) for _ in range(10)], turns)
                assert v >= 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective_value("101", "222")

    def test_rejects_non_ternary_turns(self):
        with pytest.raises(ValueError, match="ternary"):
            objective_value("101", "23")

    @pytest.mark.parametrize("colors", ["2002002002", "z00z00z00z"])
    def test_rejects_non_binary_colors(self, colors):
        with pytest.raises(ValueError, match="binary"):
            objective_value(colors, "211011011")

    def test_longest_supported_chain(self):
        # a U-fold of two columns of m all-H beads: m - 1 rungs are contacts
        m = MAX_BEADS // 2
        turns = "2" * (m - 1) + "11" + "2" * (m - 2)
        assert len(turns) == MAX_BEADS - 1
        assert objective_value("1" * MAX_BEADS, turns) == -(m - 1)

    def test_chains_past_the_packing_bound_are_rejected(self):
        # this feasible 131,074-bead U-fold wraps the packed lattice points
        # and would otherwise score as a collision
        m = (1 << 16) + 1
        turns = "2" * (m - 1) + "11" + "2" * (m - 2)
        with pytest.raises(ValueError, match="not supported"):
            objective_value("1" * (2 * m), turns)
        with pytest.raises(ValueError, match="not supported"):
            decode_fold(turns)

    def test_default_penalty_grading(self):
        # earlier first collision and extra collisions both score worse
        assert default_penalty(10, 4, 1) > default_penalty(10, 9, 1)
        assert default_penalty(10, 4, 3) > default_penalty(10, 4, 1)


class TestTargetEnergy:
    @pytest.mark.parametrize(
        "n,expected", [(4, -1), (10, -4), (16, -9), (25, -16)]
    )
    def test_known_values(self, n, expected):
        assert target_energy(n) == expected

    def test_monotone_nonincreasing(self):
        values = [target_energy(n) for n in range(3, 40)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_too_short_chain_is_refused(self):
        with pytest.raises(ValueError, match="chains need at least 3 beads"):
            target_energy(2)


class TestMakeProblem:
    def test_plan_a(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        assert p.n == 10 and p.weight_target == 4 and p.weight_cap == 5
        assert p.spec.size == 2**10 * 3**9

    def test_plan_a_weight_mismatch(self):
        with pytest.raises(ValueError):
            make_problem("A", coord_b="1001001001", weight_target=5, energy_target=-4)

    def test_plan_b(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        assert p.n == 10 and p.fixed_ternary == (2, 1, 1, 0, 1, 1, 0, 1, 1)

    def test_plan_b_needs_ternary(self):
        with pytest.raises(ValueError):
            make_problem("B", n=10, weight_target=4, energy_target=-4)

    def test_plan_c(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        assert p.fixed_binary is None and p.fixed_ternary is None

    def test_plan_a_rejects_fixed_turns(self):
        with pytest.raises(ValueError, match="ternary"):
            make_problem("A", coord_b="1001001001", coord_t="211011011", energy_target=-4)

    def test_plan_b_rejects_fixed_colors(self):
        # not even binary, and the walk would ignore it anyway
        with pytest.raises(ValueError, match="binary"):
            make_problem(
                "B", coord_b="1221001001", coord_t="211011011", weight_target=4, energy_target=-4
            )

    def test_plan_c_rejects_fixed_segments(self):
        with pytest.raises(ValueError):
            make_problem("C", n=10, weight_target=4, energy_target=-4, coord_b="1111000000")

    def test_bad_plan(self):
        with pytest.raises(ValueError):
            make_problem("D", n=10, weight_target=4, energy_target=-4)

    def test_positive_target_rejected(self):
        with pytest.raises(ValueError):
            make_problem("C", n=10, weight_target=4, energy_target=1)

    def test_chain_length_bound(self):
        assert make_problem("C", n=MAX_BEADS, weight_target=4, energy_target=-4).n == MAX_BEADS
        with pytest.raises(ValueError):
            make_problem("C", n=MAX_BEADS + 1, weight_target=4, energy_target=-4)

    def test_weight_cap_override(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4, weight_cap=6)
        assert p.weight_cap == 6

    @pytest.mark.parametrize(
        "plan, fields, message",
        [
            ("A", dict(n=10, energy_target=-4), "plan A requires the binary segment"),
            (
                "B",
                dict(coord_b="1001001001", coord_t="211011011", weight_target=4, energy_target=-4),
                "plan B searches the colors and admits no binary segment",
            ),
            ("B", dict(coord_t="211011011", energy_target=-4), "plan B requires a weight target"),
            ("C", dict(weight_target=4, energy_target=-4), "plan C requires the chain length"),
            ("C", dict(n=10, weight_target=4), "an energy target is required"),
            ("A", dict(n=5, coord_b="1010", energy_target=0), "binary segment has 4 digits, expected 5"),
            ("B", dict(n=5, coord_t="21", weight_target=2, energy_target=0), "ternary segment has 2 digits, expected 4"),
            ("C", dict(n=10, weight_target=4, energy_target=-4, weight_cap=3), "weight cap below the weight target"),
            ("A", dict(coord_b="1001001001", energy_target=-4, weight_cap=9), "plan A searches the fold and admits no weight cap"),
        ],
        ids=[
            "A-without-colours", "B-with-colours", "B-without-weight", "C-without-length",
            "no-energy-target", "A-colours-shorter-than-n", "B-turns-shorter-than-n", "cap-below-weight",
            "A-with-cap",
        ],
    )
    def test_refusals(self, plan, fields, message):
        with pytest.raises(ValueError, match=message):
            make_problem(plan, **fields)


class TestProblemChecksItself:
    """HPProblem checks its values on every construction, dataclasses.replace included."""

    @pytest.mark.parametrize(
        "index, change, message",
        [
            (2, dict(energy_target=3), "energy targets are zero or negative"),
            (2, dict(weight_target=11), "weight target 11 out of range for 10 beads"),
            (2, dict(weight_cap=3), "weight cap below the weight target makes the stop test unreachable"),
            (2, dict(n=2), "chains need 3 to 32768 beads, got 2"),
            (1, dict(fixed_ternary=(2,) * 8), "ternary segment has 8 digits, expected 9"),
            (0, dict(weight_target=3), "fixed binary segment has weight 4, not 3"),
        ],
        ids=["positive-target", "weight-above-n", "cap-below-weight", "short-chain", "short-fold", "A-off-its-weight"],
    )
    def test_replace_is_checked(self, index, change, message):
        # the three worked 10-bead records, plans A, B and C; the values are make_problem's messages
        problem = ONE_PER_PLAN[index]
        with pytest.raises(ValueError, match=message):
            replace(problem, **change)

    def test_plan_is_read_from_the_fixed_segments(self):
        a, b, c = load_instances(HP10)
        assert [a.plan, b.plan, c.plan] == ["A", "B", "C"]
        assert {f.name for f in fields(hpfold.HPProblem)} == {
            "n", "weight_target", "energy_target", "weight_cap", "fixed_binary", "fixed_ternary"
        }
        # fixing plan C's colours makes a plan A problem
        assert replace(c, fixed_binary=a.fixed_binary).plan == "A"


class TestPlanMoves:
    def _weights(self, problem, coords):
        return [sum(c[: problem.n]) for c in coords]

    def test_plan_a_moves_only_turns(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        c = point("1001001001", "211011011")
        moves = p.admissible_neighbors(c)
        assert all(m[:10] == c[:10] for m in moves)
        assert all(rank_distance(Coordinate(p.spec, tuple(c)), Coordinate(p.spec, tuple(m))) == 1 for m in moves)

    def test_plan_b_moves_only_colors_capped(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        c = point("1111100000", "211011011")  # weight 5 == cap
        moves = p.admissible_neighbors(c)
        assert all(m[10:] == c[10:] for m in moves)
        # at the cap no 0->1 flip is admissible
        assert set(self._weights(p, moves)) == {4}
        assert len(moves) == 5

    def test_plan_c_moves_both(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        c = point("1001001001", "211011011")
        moves = p.admissible_neighbors(c)
        binary_moves = [m for m in moves if m[:10] != c[:10]]
        ternary_moves = [m for m in moves if m[10:] != c[10:]]
        assert len(binary_moves) + len(ternary_moves) == len(moves)
        assert len(binary_moves) == 10  # weight 4 < cap: every flip admissible
        assert max(self._weights(p, binary_moves)) <= p.weight_cap

    @staticmethod
    def _admits(problem, pivot, move):
        """The plan's move rule, stated on a candidate from mixedradix.neighbors."""
        n = problem.n
        i = next(k for k, (a, b) in enumerate(zip(pivot, move)) if a != b)
        if i >= n:
            return problem.plan != "B"
        w = sum(move[:n])
        return problem.plan != "A" and (w <= problem.weight_cap or w < sum(pivot[:n]))

    @pytest.mark.parametrize(
        "problem",
        [
            make_problem("A", coord_b="1001001001", energy_target=-4),
            make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4),
            make_problem("C", n=10, weight_target=4, energy_target=-4),
            make_problem("C", n=10, weight_target=4, energy_target=-4, weight_cap=4),
        ],
        ids=["A", "B", "C", "C-at-cap"],
    )
    def test_order_matches_reference(self, problem):
        # same coordinates in the same order: the walk's permutation indexes this list
        rng = random.Random(7)
        for _ in range(500):
            pivot = problem.random_coordinate(rng)
            moves = problem.admissible_neighbors(pivot)
            for c in [pivot] + moves:
                reference = [m.digits for m in neighbors(Coordinate(problem.spec, tuple(c)))]
                expected = [bytes(m) for m in reference if self._admits(problem, c, m)]
                assert problem.admissible_neighbors(c) == expected

    def test_downward_weight_moves_always_allowed(self):
        p = make_problem("C", n=4, weight_target=2, energy_target=0, weight_cap=2)
        c = point("1100", "222")
        moves = p.admissible_neighbors(c)
        weights = self._weights(p, [m for m in moves if m[:4] != c[:4]])
        assert weights and all(w == 1 for w in weights)

    @pytest.mark.parametrize("p", ONE_PER_PLAN, ids="ABC")
    def test_moves_are_bytes(self, p):
        # the walk's points are bytes: no Coordinate per candidate
        rng = random.Random(8)
        for _ in range(30):
            moves = p.admissible_neighbors(p.random_coordinate(rng))
            assert moves and all(type(m) is bytes for m in moves)


class TestSolutionTest:
    def test_plan_a_ignores_weight(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        c = point("1001001001", "211011011")
        assert p.is_solution(c, -4)
        assert not p.is_solution(c, -3)

    def test_exact_weight_required(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        good = point("1001001001", "211011011")
        heavy = point("1101001001", "211011011")
        assert p.is_solution(good, -4)
        assert not p.is_solution(heavy, -4)

    def test_beyond_target_counts_as_solution(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-3)
        c = point("1001001001", "211011011")
        assert p.is_solution(c, -4)

    def test_target_override(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        c = point("1001001001", "211011011")
        assert not replace(p, energy_target=-5).is_solution(c, -4)
        assert replace(p, energy_target=0).is_solution(c, -4)


class TestSolutionKey:
    @pytest.mark.parametrize(
        "p",
        [
            make_problem("A", coord_b="1001001001", energy_target=-4),
            make_problem("C", n=10, weight_target=4, energy_target=-4),
        ],
        ids="AC",
    )
    def test_rotations_share_a_key_and_mirrors_do_not(self, p):
        keys = {p.solution_key("1001001001", first + "11011011") for first in "012"}
        assert keys == {("1001001001", "211011011")}
        mirror = p.solution_key("1001001001", "000100100")
        assert mirror == ("1001001001", "200100100") and mirror not in keys

    def test_plan_b_keys_are_verbatim(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        for turns in ("011011011", "111011011", "211011011"):
            assert p.solution_key("1001001001", turns) == ("1001001001", turns)


class TestRandomDraws:
    def test_plan_a_keeps_binary_fixed(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        rng = random.Random(6)
        for _ in range(30):
            c = p.random_coordinate(rng)
            assert c[:10] == bytes((1, 0, 0, 1, 0, 0, 1, 0, 0, 1))

    def test_plan_b_keeps_ternary_fixed_and_weight_exact(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        rng = random.Random(6)
        for _ in range(30):
            c = p.random_coordinate(rng)
            assert c[10:] == bytes((2, 1, 1, 0, 1, 1, 0, 1, 1))
            assert sum(c[:10]) == 4

    def test_plan_c_weight_exact(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        rng = random.Random(6)
        for _ in range(30):
            assert sum(p.random_coordinate(rng)[:10]) == 4

    @pytest.mark.parametrize("p", ONE_PER_PLAN, ids="ABC")
    def test_draws_are_bytes(self, p):
        rng = random.Random(6)
        for _ in range(30):
            c = p.random_coordinate(rng)
            assert type(c) is bytes and len(c) == p.spec.digit_count

    def test_objective_matches_module_function(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        rng = random.Random(10)
        for _ in range(100):
            c = p.random_coordinate(rng)
            assert p.objective(c) == objective_value(c[:10], c[10:])


class TestFoldSymmetries:
    def test_rotation_invariance(self):
        # the first turn digit only orients the whole fold on the grid, so its
        # three variants score alike; solution_key relies on this
        rng = random.Random(8)
        for _ in range(1000):
            bits = tuple(rng.randrange(2) for _ in range(8))
            turns = tuple(rng.randrange(3) for _ in range(7))
            values = {objective_value(bits, (d, *turns[1:])) for d in (0, 1, 2)}
            assert len(values) == 1

    def test_mirror_symmetry(self):
        # swapping left and right turns reflects the fold: same objective
        swap = {0: 1, 1: 0, 2: 2}
        rng = random.Random(9)
        for _ in range(1000):
            bits = tuple(rng.randrange(2) for _ in range(9))
            turns = tuple(rng.randrange(3) for _ in range(8))
            mirrored = tuple(swap[t] for t in turns)
            assert objective_value(bits, turns) == objective_value(bits, mirrored)

    def test_mirror_links_the_two_known_solutions(self):
        swap = {0: 1, 1: 0, 2: 2}
        mirrored = "".join(str(swap[int(ch)]) for ch in "200100100")
        assert mirrored == "211011011"

    def test_chain_reversal_preserves_energy_multiset(self):
        for bits in ["100110", "111111", "010010"]:
            forward = sorted(
                objective_value(bits, turns)
                for turns in product((0, 1, 2), repeat=5)
                if decode_fold(turns).feasible
            )
            backward = sorted(
                objective_value(bits[::-1], turns)
                for turns in product((0, 1, 2), repeat=5)
                if decode_fold(turns).feasible
            )
            assert forward == backward


def steep_penalty(n, first_collision, collision_count):
    # weighs its two inputs apart, so swapping them changes the value
    return 100 * collision_count + 7 * (n - first_collision)


_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # headings up, right, down, left


def _grown_turns(rng, n):
    """Turns of a random fold grown bead by bead onto free cells.

    A growth that boxes itself in goes on through a collision, so most
    folds are feasible and a few are not.
    """
    x = y = h = 0
    seen = {(0, 0)}
    turns = []
    for _ in range(n - 1):
        moves = []
        for t in (0, 1, 2):
            g = (h + (3, 1, 0)[t]) % 4
            cell = (x + _STEPS[g][0], y + _STEPS[g][1])
            moves.append((cell in seen, rng.random(), t, g, cell))
        _, _, t, h, (x, y) = min(moves)
        seen.add((x, y))
        turns.append(t)
    return turns


colorings = st.integers(3, 40).flatmap(
    lambda n: st.one_of(
        st.just((1,) * n),
        st.just((0,) * n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
    )
)


class TestTurnMoveValues:
    """Plan A values its pivot's turn moves from bitboards; they must equal
    the fold record's values whatever the pivot, colours, penalty or order.
    A test varies the penalty by patching the module's one rule."""

    @staticmethod
    def _assert_exact(problem, candidates):
        n = problem.n
        for c in candidates:
            expected = objective_value(c[:n], c[n:])
            assert problem.objective(c) == expected

    @staticmethod
    def _assert_table_holds(problem, candidates):
        # one entry per candidate, keyed by its digits
        assert list(hpfold._turn_moves[1]) == candidates

    @settings(deadline=None, max_examples=150)
    @given(
        colorings,
        st.integers(0, 2**32),
        st.booleans(),
        st.sampled_from([default_penalty, steep_penalty]),
    )
    def test_neighbours_match_the_record(self, bits, seed, grown, penalty):
        n = len(bits)
        rng = random.Random(seed)
        problem = make_problem("A", coord_b=bits, energy_target=0)
        if grown:
            turns = _grown_turns(rng, n)
        else:
            turns = [rng.randrange(3) for _ in range(n - 1)]
        pivot = point(bits, turns)
        # the default rule alone hides a first collision one late together
        # with a count one high; steep_penalty weighs the two apart
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hpfold, "default_penalty", penalty)
            candidates = problem.admissible_neighbors(pivot)
            if decode_fold(turns).feasible:
                # the bitboards, not the record, value every move of a feasible pivot
                self._assert_table_holds(problem, candidates)
            self._assert_exact(problem, candidates)

    @classmethod
    def _walk_moves(cls, problem, pivot, rng, steps):
        """Move from a feasible pivot to a random feasible move of it, again
        and again, checking every pivot's table and values on the way."""
        n = problem.n
        for _ in range(steps):
            candidates = problem.admissible_neighbors(pivot)
            cls._assert_table_holds(problem, candidates)
            cls._assert_exact(problem, candidates)
            # the move back to the last pivot keeps the list from being empty
            pivot = rng.choice([c for c in candidates if objective_value(c[:n], c[n:]) <= 0])

    @pytest.mark.parametrize("bits", ["1" * 18, "0" * 18, "101100101001101011", "000110110001001111"])
    def test_chain_of_moved_pivots(self, bits):
        # each pivot is a move of the last, so its boards come from the last
        # pivot's, which came from the pivot before, 250 times over
        rng = random.Random(bits)
        bits = as_digits(bits)
        problem = make_problem("A", coord_b=bits, energy_target=0)
        turns = _grown_turns(rng, 18)
        while not decode_fold(turns).feasible:
            turns = _grown_turns(rng, 18)
        self._walk_moves(problem, point(bits, turns), rng, 250)

    # bead 0 ringed by the other seven beads, all inside [-1, 1]^2
    RING = (1, 0, 0, 2, 0, 2, 0)

    def test_move_out_of_the_square_rebuilds_the_boards(self):
        bits = (1,) * 8
        problem = make_problem("A", coord_b=bits, energy_target=0)
        candidates = problem.admissible_neighbors(point(bits, self.RING))
        assert hpfold._turn_moves[0].stride == 6  # the layout of m = 1
        # turning right instead of straight at bead 3 swings beads 4..7 up to
        # (0, 2), (-1, 2), (-2, 2) and (-2, 1), out of the square
        stretched = candidates[4]
        assert stretched == point(bits, (1, 0, 0, 1, 0, 2, 0))
        candidates = problem.admissible_neighbors(stretched)
        # boards derived in the old layout would misplace the moved tail
        assert hpfold._turn_moves[0].stride == 10  # built again, for m = 2
        self._assert_table_holds(problem, candidates)
        self._assert_exact(problem, candidates)
        # the first move turns the whole fold about bead 0, so it is feasible
        self._walk_moves(problem, candidates[0], random.Random(8), 40)

    def test_move_into_a_collision_and_back(self):
        bits = (1, 0, 1, 1, 0, 1, 0, 1)
        problem = make_problem("A", coord_b=bits, energy_target=0)
        # a U: beads 0..3 up the column x = 0, beads 4..7 down x = 1
        u_fold = point(bits, (2, 2, 2, 1, 1, 2, 2))
        candidates = problem.admissible_neighbors(u_fold)
        # turning right at bead 2 swings bead 5 onto bead 1
        colliding = candidates[2]
        assert colliding == point(bits, (2, 2, 1, 1, 1, 2, 2))
        assert decode_fold(colliding[8:]).first_collision_index == 5
        candidates = problem.admissible_neighbors(colliding)
        # a colliding pivot has no boards, and its moves read the record
        assert hpfold._turn_moves == (None, {})
        self._assert_exact(problem, candidates)
        # the move back is a new pivot, built from its turns, and the walk
        # goes on deriving boards from there
        back = candidates[candidates.index(u_fold)]
        self._walk_moves(problem, back, random.Random(9), 40)

    def test_stale_table_and_other_problem(self):
        rng = random.Random(11)
        bits = tuple(rng.randrange(2) for _ in range(16))
        problem = make_problem("A", coord_b=bits, energy_target=0)
        other = make_problem("A", coord_b=(1,) * 16, energy_target=0)
        first = point(bits, _grown_turns(rng, 16))
        earlier = problem.admissible_neighbors(first)
        foreign = other.admissible_neighbors(point((1,) * 16, _grown_turns(rng, 16)))
        later = problem.admissible_neighbors(earlier[3])
        self._assert_table_holds(problem, later)
        # the earlier pivot's moves, outside the new table, in any order; the
        # move back to the first pivot has an equal-digit twin among them
        assert first in later
        self._assert_exact(problem, earlier[::-1] + later + earlier)
        # the table is keyed by digits, not identity: a copy is valued from
        # the table and still equals the record's value
        copies = [c[:16] + c[16:] for c in later]
        assert all(c is not d and c in hpfold._turn_moves[1] for c, d in zip(copies, later))
        self._assert_exact(problem, copies)
        self._assert_exact(other, foreign)
        # another problem's coordinates, valued by this one, read the record
        for c in foreign:
            assert problem.objective(c) == objective_value(c[:16], c[16:])

    def test_chain_past_the_memory_bound_reads_the_record(self):
        # a straight 130-bead chain reaches 129 cells from bead 0: its boards
        # would take about 2 * 132 * 259 * 130 bytes, past the 8 MiB bound
        bits = tuple(random.Random(5).randrange(2) for _ in range(130))
        problem = make_problem("A", coord_b=bits, energy_target=0)
        pivot = point(bits, (2,) * 129)
        candidates = problem.admissible_neighbors(pivot)
        assert hpfold._turn_moves == (None, {})
        self._assert_exact(problem, candidates)
        # folded into a 10-wide serpentine the same chain fits, and stays exact
        serpentine = ([2] * 9 + [1, 1] + [2] * 8 + [0, 0]) * 7
        pivot = point(bits, serpentine[:129])
        candidates = problem.admissible_neighbors(pivot)
        self._assert_table_holds(problem, candidates)
        self._assert_exact(problem, candidates)

    def test_walked_problem_pickles_and_compares_as_new(self):
        walked = make_problem("A", coord_b="10100110100101100101", energy_target=-9)
        fresh = make_problem("A", coord_b="10100110100101100101", energy_target=-9)
        result = run_search(SearchConfig(seed=3, probe_limit=3000), walked)
        assert hpfold._turn_moves[1]
        assert walked == fresh and hash(walked) == hash(fresh)
        assert pickle.dumps(walked) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(walked))
        assert restored == walked
        assert run_search(SearchConfig(seed=3, probe_limit=3000), restored) == result

    @pytest.mark.parametrize("index", range(3), ids=["A", "B", "C"])
    def test_walk_writes_nothing_to_its_problem(self, index):
        problem = load_instances(HP10)[index]
        fresh = load_instances(HP10)[index]
        before = dict(vars(problem))
        run_search(SearchConfig(seed=4, probe_limit=3000), problem)
        assert vars(problem) == before
        assert pickle.dumps(problem) == pickle.dumps(fresh)

    def test_stale_table_gives_only_true_values(self):
        # Q has P's colours, so a table that P's walk leaves gives Q real hits
        p = load_instances(LITERATURE)[0]
        q = replace(p, energy_target=p.energy_target + 1)
        r = make_problem("A", coord_b="01011010010110100101", energy_target=-7)
        pivot = point(p.fixed_binary, _grown_turns(random.Random(12), 20))
        candidates = p.admissible_neighbors(pivot)
        assert all(c in hpfold._turn_moves[1] for c in candidates)
        self._assert_exact(q, candidates)
        # whatever the last walk left, a walk equals the same walk from an empty table
        for seed in range(4):
            for problem in (p, q, r):
                config = SearchConfig(seed=seed, probe_limit=20_000)
                after_stale = run_search(config, problem)
                hpfold._turn_moves = (None, {})
                assert run_search(config, problem) == after_stale

    def test_walk_leaves_only_its_draws_in_the_fold_cache(self):
        # every pivot is a new fold, placed on bitboards without the record;
        # only the initial draw and each restart's draw are valued from the
        # cached record
        problem = load_instances(LITERATURE)[0]
        _fold_analysis.cache_clear()
        result = run_search(SearchConfig(seed=2), problem)
        assert result.walk_length > 10_000
        assert _fold_analysis.cache_info().currsize <= 1 + result.restarts
