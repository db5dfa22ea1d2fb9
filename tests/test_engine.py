import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from sawalk import engine
from sawalk.engine import (
    FunctionProblem,
    SearchConfig,
    VisitedBuffer,
    run_search,
)
from sawalk.hpfold import as_digits, make_problem
from sawalk.mixedradix import Coordinate, RadixSpec, parse_coordinate, rank_distance


def tiny_problem(target=0):
    """Toy objective on a 432-point space: distance to an arbitrary goal."""
    spec = RadixSpec(((2, 4), (3, 3)))
    goal = parse_coordinate(spec, "1011.201")

    def fn(coord):
        return rank_distance(coord, goal)

    return FunctionProblem(spec, fn, target)


def line_problem():
    """A 5-point line scored by its digit, unreachable target, and its midpoint."""
    spec = RadixSpec(((5, 1),))
    return FunctionProblem(spec, lambda c: c.digits[0], -1), (2,)


class FixedStart:
    """A problem whose every random draw is one pivot (a digit tuple), so a walk starts there."""

    def __init__(self, problem, pivot):
        self._problem = problem
        self._pivot = pivot

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def random_coordinate(self, rng):
        return self._pivot


class Counting:
    """A problem whose objective calls are counted."""

    def __init__(self, problem):
        self._problem = problem
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def objective(self, coord):
        self.calls += 1
        return self._problem.objective(coord)


def walk_events(config, problem):
    """One walk: its result and its events as (event, coord, value, probes spent)."""
    counting = Counting(problem)
    events = []
    spent = 0

    def observer(event, coord, value):
        nonlocal spent
        events.append((event, coord, value, counting.calls - spent))
        spent = counting.calls

    return run_search(config, counting, observer=observer), events


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

    def test_membership_is_the_dicts_own_test(self):
        # the walk tests every candidate: `in` must not call back into Python
        assert VisitedBuffer.__contains__ is dict.__contains__


class TestSearchConfig:
    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"probe_limit": 0}, "probe limit must be at least 1"),
            ({"buffer_capacity": 0}, "buffer capacity must be at least 1"),
            ({"buffer_capacity": -3}, "buffer capacity must be at least 1"),
            # random.Random(-7) draws what Random(7) draws
            ({"seed": -7}, "seed must be at least 0, got -7"),
        ],
    )
    def test_limits_below_one_are_refused(self, limits, message):
        # refused when the config is built, not when the first run starts
        with pytest.raises(ValueError, match=message):
            SearchConfig(**limits)

    @pytest.mark.parametrize("field", [f.name for f in fields(SearchConfig)])
    def test_fields_cannot_be_assigned(self, field):
        # an assigned seed of -7 would run seed 7's walk and report -7
        config = SearchConfig(seed=7)
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, -7)


class TestBestNeighbor:
    """The step rule: probe every unvisited neighbor, move to the first strict minimum."""

    def test_single_step_to_optimum(self):
        # weight-5 pivot one ternary move away from a -4 conformation; the
        # weight-5 choice fails the stop test and the probe limit ends the walk
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4, weight_cap=5)
        pivot = as_digits("1100101001") + as_digits("021101111")
        result, events = walk_events(SearchConfig(seed=3, probe_limit=2), FixedStart(problem, pivot))
        assert [event for event, *_ in events] == ["init", "step"]
        _, choice, value, probes = events[1]
        assert str(choice) == "1100101001.021101211"
        assert value == -4
        assert probes == len(problem.admissible_neighbors(pivot))
        assert result.coordinate == choice and result.probe_count == 1 + probes

    def test_neighborhood_of_one(self):
        # at "1" the walk has come from "2", so only "0" is left to probe
        problem, start = line_problem()
        _, events = walk_events(SearchConfig(seed=0, probe_limit=4), FixedStart(problem, start))
        assert [(event, str(coord), probes) for event, coord, _, probes in events] == [
            ("init", "2", 1),
            ("step", "1", 2),
            ("step", "0", 1),
        ]

    def test_trapped_raises(self, monkeypatch):
        # every admissible neighbor of the pivot is already visited: the step
        # rule finds no move, probes nothing and hands over to a restart
        problem = tiny_problem()
        pivot = parse_coordinate(problem.spec, "0000.000").digits
        real = engine.VisitedBuffer

        def prefilled(capacity):
            buf = real(capacity)
            for nb in problem.admissible_neighbors(pivot):
                buf.add(nb)
            return buf

        monkeypatch.setattr(engine, "VisitedBuffer", prefilled)
        result, events = walk_events(SearchConfig(seed=0, probe_limit=2), FixedStart(problem, pivot))
        assert [(event, probes) for event, _, _, probes in events] == [("init", 1), ("restart", 1)]
        assert result.restarts == 1 and result.probe_count == 2

    def test_uphill_step_taken(self):
        # pivot is the goal itself: every neighbor is worse, one is still chosen
        spec = RadixSpec(((3, 2),))
        goal = parse_coordinate(spec, "11")
        problem = FunctionProblem(spec, lambda c: rank_distance(c, goal), -1)
        _, events = walk_events(SearchConfig(seed=1, probe_limit=2), FixedStart(problem, goal.digits))
        event, _, value, _ = events[1]
        assert event == "step" and value > 0

    def test_tie_break_is_uniform(self):
        # middle of a 3-point line: both neighbors score the same
        spec = RadixSpec(((3, 1),))
        problem = FunctionProblem(spec, lambda c: 0 if c.digits[0] != 1 else 5, 0)
        start = FixedStart(problem, (1,))
        hits = 0
        trials = 10_000
        for seed in range(trials):
            hits += run_search(SearchConfig(seed=seed), start).coordinate.digits[0] == 0
        assert 0.45 <= hits / trials <= 0.55


class TestSawStep:
    """One step of the walk: a move, or a restart from a trapped pivot."""

    def test_normal_step(self):
        problem = tiny_problem(target=-1)
        result, events = walk_events(SearchConfig(seed=4, probe_limit=2), problem)
        (_, pivot, _, _), (event, moved, _, probes) = events
        assert event == "step"
        assert rank_distance(pivot, moved) == 1
        assert probes == len(problem.admissible_neighbors(pivot.digits))
        assert result.walk_length == 1 and result.restarts == 0

    def test_trapped_step_restarts(self):
        # "0" has one neighbor, "1", already visited: the third step restarts
        problem, start = line_problem()
        result, events = walk_events(SearchConfig(seed=0, probe_limit=5), FixedStart(problem, start))
        assert events[-1][0] == "restart"
        assert events[-1][3] == 1  # the fresh pivot costs exactly one probe
        assert result.restarts == 1
        assert result.walk_length == 3  # the restart counts as a step

    def test_trapped_step_still_permutes(self, monkeypatch):
        # the trapped pivot's permutation is part of the seed's stream; the
        # engine looks the name up on each call, so the rebinding is seen
        counts = []
        real = engine.permuted_indices

        def counting(count, rng):
            counts.append(count)
            return real(count, rng)

        monkeypatch.setattr(engine, "permuted_indices", counting)
        problem, start = line_problem()
        run_search(SearchConfig(seed=0, probe_limit=5), FixedStart(problem, start))
        assert counts == [2, 2, 1]

    def test_step_never_revisits(self):
        # the default buffer retains all 432 coordinates; restarts may land
        # anywhere, but no step moves onto a pivot the walk has held
        problem = tiny_problem(target=-1)  # unreachable: walk keeps going
        result, events = walk_events(SearchConfig(seed=11, probe_limit=3000), problem)
        assert result.restarts > 0
        seen = set()
        for event, coord, _, _ in events:
            if event == "step":
                assert coord not in seen
            seen.add(coord)


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
            assert problem.is_solution(res.coordinate.digits, res.value)
            assert sum(res.coordinate.digits[:10]) == 4

    def test_immediate_solution_has_walk_length_zero(self):
        problem = tiny_problem(target=10)  # any coordinate qualifies
        res = run_search(SearchConfig(seed=5), problem)
        assert res.walk_length == 0
        assert res.probe_count == 1

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
        problem = Counting(make_problem("C", n=8, weight_target=4, energy_target=-2))
        res = run_search(SearchConfig(seed=9), problem)
        assert problem.calls == res.probe_count

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
        res = run_search(SearchConfig(seed=3), replace(problem, energy_target=0))
        assert not res.is_censored
        assert res.value <= 0
        assert sum(res.coordinate.digits[:10]) == 4
        tighter = run_search(SearchConfig(seed=3), replace(problem, energy_target=res.value - 1))
        assert tighter.value <= res.value - 1 or tighter.is_censored

    def test_observer_contract(self):
        # an all-P chain scores 0 on every feasible fold, so the walk wanders
        # the 3^9 folds until it traps
        problem = make_problem("C", n=10, weight_target=0, energy_target=-1, weight_cap=0)
        result, events = walk_events(SearchConfig(seed=3, probe_limit=60_000), problem)
        kinds = [event for event, *_ in events]
        assert kinds[0] == "init" and kinds.count("init") == 1
        assert len(kinds) - 1 == result.walk_length
        assert kinds.count("restart") == result.restarts > 0
        assert sum(probes for *_, probes in events) == result.probe_count
        # the problem walks digit tuples; each event gets a Coordinate built for it
        assert all(type(coord) is Coordinate and coord.spec == problem.spec for _, coord, *_ in events)

    def test_result_coordinate_is_built_from_the_digits(self):
        # a -4 conformation at the exact weight passes the stop test at once
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4)
        digits = as_digits("1001001001") + as_digits("211011011")
        result = run_search(SearchConfig(seed=3), FixedStart(problem, digits))
        assert result.walk_length == 0
        assert result.coordinate == Coordinate(problem.spec, digits)

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


class AsTuples:
    """A problem whose every candidate and draw reaches the engine as a digit tuple."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def admissible_neighbors(self, digits):
        return [tuple(c) for c in self._problem.admissible_neighbors(digits)]

    def random_coordinate(self, rng):
        return tuple(self._problem.random_coordinate(rng))


class TestPointType:
    """HPProblem walks bytes; handed the same digits as tuples, the engine
    must take the same walk.  Plan A's tuple walk misses the move table on
    every probe, so it values each move from the fold record, not the boards."""

    @pytest.mark.parametrize(
        "problem, probe_limit",
        [
            (make_problem("A", coord_b="10100110100101100101", energy_target=-9), 20_000),
            (make_problem("B", coord_t="211011011", weight_target=4, energy_target=-5), 2_000),
            (make_problem("C", n=12, weight_target=6, energy_target=-5), 20_000),
        ],
        ids="ABC",
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tuple_walk_equals_bytes_walk(self, problem, probe_limit, seed):
        config = SearchConfig(seed=seed, probe_limit=probe_limit)
        assert type(problem.random_coordinate(random.Random(seed))) is bytes
        walked = run_search(config, replace(problem))
        as_tuples = run_search(config, AsTuples(replace(problem)))
        assert walked.walk_length > 10
        assert as_tuples == walked
