import random

import pytest

from sawalk.engine import (
    FunctionProblem,
    SearchConfig,
    SearchResult,
    Trapped,
    VisitedBuffer,
    WalkState,
    best_neighbor,
    run_search,
    saw_step,
)
from sawalk.hpfold import make_problem
from sawalk.mixedradix import Coordinate, RadixSpec, parse_coordinate, rank_distance


def tiny_problem(target=0):
    """Toy objective on a 432-point space: distance to an arbitrary goal."""
    spec = RadixSpec(((2, 4), (3, 3)))
    goal = parse_coordinate(spec, "1011.201")

    def fn(coord):
        return rank_distance(coord, goal)

    return FunctionProblem(spec, fn, target)


class TestVisitedBuffer:
    def test_membership(self):
        spec = RadixSpec(((3, 2),))
        buf = VisitedBuffer(capacity=10)
        a = parse_coordinate(spec, "01")
        assert a not in buf
        buf.add(a)
        assert a in buf and len(buf) == 1

    def test_fifo_eviction(self):
        spec = RadixSpec(((5, 2),))
        buf = VisitedBuffer(capacity=3)
        coords = [parse_coordinate(spec, t) for t in ("00", "01", "02", "03")]
        for c in coords:
            buf.add(c)
        assert coords[0] not in buf  # oldest evicted
        assert all(c in buf for c in coords[1:])
        assert len(buf) == 3

    def test_duplicate_add_is_noop(self):
        spec = RadixSpec(((5, 2),))
        buf = VisitedBuffer(capacity=2)
        a, b = parse_coordinate(spec, "00"), parse_coordinate(spec, "01")
        buf.add(a)
        buf.add(a)
        buf.add(b)
        assert len(buf) == 2 and a in buf

    def test_duplicate_add_keeps_age(self):
        spec = RadixSpec(((5, 2),))
        buf = VisitedBuffer(capacity=2)
        a, b, c = (parse_coordinate(spec, t) for t in ("00", "01", "02"))
        for coord in (a, b, a, c):
            buf.add(coord)
        assert a not in buf
        assert b in buf and c in buf

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VisitedBuffer(capacity=0)


class TestBestNeighbor:
    def test_single_step_to_optimum(self):
        # weight-5 pivot one ternary move away from a -4 conformation
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4, weight_cap=5)
        pivot = problem.coordinate("1100101001", "021101111")
        visited = VisitedBuffer()
        visited.add(pivot)
        choice, value, probes = best_neighbor(pivot, problem, visited, random.Random(3))
        assert str(choice) == "1100101001.021101211"
        assert value == -4
        assert probes == len(problem.admissible_neighbors(pivot))

    def test_neighborhood_of_one(self):
        problem = tiny_problem()
        pivot = parse_coordinate(problem.spec, "0000.000")
        visited = VisitedBuffer()
        for nb in problem.admissible_neighbors(pivot)[:-1]:
            visited.add(nb)
        last = problem.admissible_neighbors(pivot)[-1]
        choice, value, probes = best_neighbor(pivot, problem, visited, random.Random(0))
        assert choice == last and probes == 1

    def test_trapped_raises(self):
        problem = tiny_problem()
        pivot = parse_coordinate(problem.spec, "0000.000")
        visited = VisitedBuffer()
        for nb in problem.admissible_neighbors(pivot):
            visited.add(nb)
        with pytest.raises(Trapped):
            best_neighbor(pivot, problem, visited, random.Random(0))

    def test_uphill_step_taken(self):
        # pivot is the goal itself: every neighbor is worse, one is still chosen
        spec = RadixSpec(((3, 2),))
        goal = parse_coordinate(spec, "11")
        problem = FunctionProblem(spec, lambda c: rank_distance(c, goal), 0)
        visited = VisitedBuffer()
        visited.add(goal)
        choice, value, _ = best_neighbor(goal, problem, visited, random.Random(1))
        assert value > 0

    def test_tie_break_is_uniform(self):
        # middle of a 3-point line: both neighbors score the same
        spec = RadixSpec(((3, 1),))
        problem = FunctionProblem(spec, lambda c: 0 if c.digits[0] != 1 else 5, 0)
        pivot = parse_coordinate(spec, "1")
        hits = 0
        trials = 10_000
        for seed in range(trials):
            visited = VisitedBuffer()
            visited.add(pivot)
            choice, _, _ = best_neighbor(pivot, problem, visited, random.Random(seed))
            hits += choice.digits[0] == 0
        assert 0.45 <= hits / trials <= 0.55


class TestSawStep:
    def test_normal_step(self):
        problem = tiny_problem()
        rng = random.Random(4)
        pivot = problem.random_coordinate(rng)
        state = WalkState(pivot, problem.objective(pivot), 0, VisitedBuffer())
        state.visited.add(pivot)
        probes = saw_step(state, problem, rng)
        assert state.walk_length == 1
        assert rank_distance(pivot, state.pivot) == 1
        assert state.pivot in state.visited
        assert probes >= 1
        assert state.restarts == 0

    def test_trapped_step_restarts(self):
        problem = tiny_problem()
        rng = random.Random(4)
        pivot = problem.random_coordinate(rng)
        state = WalkState(pivot, problem.objective(pivot), 0, VisitedBuffer())
        state.visited.add(pivot)
        for nb in problem.admissible_neighbors(pivot):
            state.visited.add(nb)
        probes = saw_step(state, problem, rng)
        assert state.restarts == 1
        assert state.walk_length == 1
        assert probes == 1  # the fresh pivot costs exactly one probe

    def test_step_never_revisits(self):
        problem = tiny_problem(target=-1)  # unreachable: walk keeps going
        rng = random.Random(11)
        pivot = problem.random_coordinate(rng)
        state = WalkState(pivot, problem.objective(pivot), 0, VisitedBuffer())
        state.visited.add(pivot)
        seen = {pivot}
        for _ in range(60):
            before = set()
            restarts_before = state.restarts
            saw_step(state, problem, rng)
            if state.restarts == restarts_before:
                assert state.pivot not in seen or state.pivot in state.visited
                assert state.pivot not in before
            seen.add(state.pivot)


class TestRunSearch:
    def test_deterministic(self):
        problem = make_problem("C", n=8, weight_target=3, energy_target=-2)
        a = run_search(SearchConfig(seed=42), problem)
        b = run_search(SearchConfig(seed=42), problem)
        assert a == b

    def test_distinct_seeds_differ(self):
        problem = make_problem("C", n=8, weight_target=3, energy_target=-2)
        a = run_search(SearchConfig(seed=1), problem)
        b = run_search(SearchConfig(seed=2), problem)
        assert (a.coordinate, a.probe_count) != (b.coordinate, b.probe_count)

    def test_solution_satisfies_stop_test(self):
        problem = make_problem("C", n=10, weight_target=4, energy_target=-3)
        for seed in range(10):
            res = run_search(SearchConfig(seed=seed), problem)
            assert not res.is_censored
            assert problem.is_solution(res.coordinate, res.value)
            assert sum(res.coordinate.digits[:10]) == 4

    def test_immediate_solution_has_walk_length_zero(self):
        problem = tiny_problem(target=10)  # any coordinate qualifies
        res = run_search(SearchConfig(seed=5), problem)
        assert res.walk_length == 0
        assert res.probe_count == 1
        assert res.probes_per_step == 1.0

    def test_probe_limit_one_censors(self):
        problem = tiny_problem(target=-1)
        res = run_search(SearchConfig(seed=5, probe_limit=1), problem)
        assert res.is_censored
        assert res.walk_length == 0
        assert res.probe_count == 1

    def test_censored_run_reports_best_seen(self):
        problem = tiny_problem(target=-1)
        res = run_search(SearchConfig(seed=5, probe_limit=500), problem)
        assert res.is_censored
        assert res.value == 0  # the goal scores 0; a 432-point space gets covered
        assert res.probe_count >= 500

    def test_probe_accounting_matches_objective_calls(self):
        problem = make_problem("C", n=8, weight_target=4, energy_target=-2)
        calls = 0
        real = problem.objective

        class Counting:
            spec = problem.spec
            admissible_neighbors = staticmethod(problem.admissible_neighbors)
            is_solution = staticmethod(problem.is_solution)
            random_coordinate = staticmethod(problem.random_coordinate)

            @staticmethod
            def objective(coord):
                nonlocal calls
                calls += 1
                return real(coord)

        res = run_search(SearchConfig(seed=9), Counting())
        assert calls == res.probe_count

    def test_best_value_sequence_monotone(self):
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4)
        values = []
        run_search(
            SearchConfig(seed=13),
            problem,
            observer=lambda event, coord, value: values.append(value),
        )
        best_seen = []
        current = values[0]
        for v in values:
            current = min(current, v)
            best_seen.append(current)
        assert best_seen == sorted(best_seen, reverse=True)

    def test_walk_segments_self_avoiding_distance_one(self):
        # 12-coordinate space, unreachable target: the walk must trap and restart
        spec = RadixSpec(((2, 2), (3, 1)))
        goal = parse_coordinate(spec, "11.2")
        problem = FunctionProblem(spec, lambda c: rank_distance(c, goal), -1)
        segments = [[]]

        def observer(event, coord, value):
            if event == "restart":
                segments.append([coord])
            else:
                segments[-1].append(coord)

        run_search(SearchConfig(seed=21, probe_limit=400, buffer_capacity=1000), problem, observer=observer)
        assert len(segments) > 1
        for segment in segments:
            assert len(set(segment)) == len(segment)
            for a, b in zip(segment, segment[1:]):
                assert rank_distance(a, b) == 1

    def test_small_space_terminates_uncensored(self):
        # with an unbounded buffer and a reachable target, restarts cover the space
        for seed in range(25):
            problem = tiny_problem(target=0)
            res = run_search(SearchConfig(seed=seed, probe_limit=10**6), problem)
            assert not res.is_censored

    def test_bound_improving_mode(self):
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4)
        res = run_search(SearchConfig(seed=3), problem, target=0)
        assert not res.is_censored
        assert res.value <= 0
        assert sum(res.coordinate.digits[:10]) == 4
        tighter = run_search(SearchConfig(seed=3), problem, target=res.value - 1)
        assert tighter.value <= res.value - 1 or tighter.is_censored

    def test_restart_draw_respects_weight_constraint(self):
        # 63 reachable coordinates, unreachable target: restarts are inevitable
        problem = make_problem("C", n=3, weight_target=1, energy_target=-9)
        restarted = []

        def observer(event, coord, value):
            if event == "restart":
                restarted.append(coord)

        run_search(
            SearchConfig(seed=2, probe_limit=1000),
            problem,
            observer=observer,
        )
        assert restarted
        assert all(sum(c.digits[:3]) == 1 for c in restarted)


class TestSearchResult:
    def test_probes_per_step(self):
        spec = RadixSpec(((2, 1),))
        c = Coordinate(spec, (0,))
        assert SearchResult(1, c, 0, 14, 7, False).probes_per_step == 2.0
        assert SearchResult(1, c, 0, 5, 0, False).probes_per_step == 5.0
