"""Cross-cutting invariants, checked by property search and exhaustion."""
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawalk.engine import SearchConfig, run_search
from sawalk.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    RunRow,
    parse_rows_csv,
    result_text,
    rows_csv,
)
from sawalk.hpfold import (
    decode_fold,
    make_problem,
    objective_value,
    target_energy,
)
from sawalk.mixedradix import (
    Coordinate,
    RadixSpec,
    degree,
    neighbors,
    parse_coordinate,
    rank_distance,
)
from sawalk.oracle import OracleReport, parse_report, report_text

small_specs = st.lists(
    st.tuples(st.integers(2, 5), st.integers(1, 4)),
    min_size=1,
    max_size=3,
).map(lambda segments: RadixSpec(tuple(segments))).filter(lambda s: s.size <= 10_000)


@st.composite
def spec_and_coords(draw, count=1):
    spec = draw(small_specs)
    coords = tuple(
        Coordinate(
            spec,
            tuple(draw(st.integers(0, base - 1)) for base in spec.position_bases),
        )
        for _ in range(count)
    )
    return (spec, *coords)


class TestMetricProperties:
    @given(spec_and_coords(count=2))
    def test_symmetry(self, bundle):
        _, a, b = bundle
        assert rank_distance(a, b) == rank_distance(b, a)

    @given(spec_and_coords(count=1))
    def test_identity(self, bundle):
        _, a = bundle
        assert rank_distance(a, a) == 0

    @given(spec_and_coords(count=3))
    def test_triangle_inequality(self, bundle):
        _, a, b, c = bundle
        assert rank_distance(a, c) <= rank_distance(a, b) + rank_distance(b, c)

    @given(spec_and_coords(count=2))
    def test_positive_off_diagonal(self, bundle):
        _, a, b = bundle
        if a != b:
            assert rank_distance(a, b) >= 1


class TestNeighborhoodProperties:
    @given(spec_and_coords(count=1))
    def test_reciprocity_and_degree(self, bundle):
        _, c = bundle
        nbs = neighbors(c)
        assert len(nbs) == degree(c)
        assert len(set(nbs)) == len(nbs)
        for nb in nbs:
            assert rank_distance(c, nb) == 1
            assert c in neighbors(nb)

    @given(spec_and_coords(count=1))
    def test_text_round_trip(self, bundle):
        spec, c = bundle
        assert parse_coordinate(spec, str(c)) == c


class TestObjectiveProperties:
    @given(
        st.integers(4, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1),
            )
        )
    )
    def test_mirror_invariance(self, pair):
        bits, turns = pair
        mirrored = [{0: 1, 1: 0, 2: 2}[t] for t in turns]
        assert objective_value(bits, turns) == objective_value(bits, mirrored)

    @given(
        st.integers(4, 10).flatmap(
            lambda n: st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)
        )
    )
    def test_penalty_positive_iff_infeasible(self, turns):
        n = len(turns) + 1
        value = objective_value([1] * n, turns)
        if decode_fold(turns).feasible:
            assert value <= 0
        else:
            assert value >= 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_value_range_exhaustive(self, n):
        # every coordinate pair: feasible in [bound, 0], infeasible >= 1
        bound = target_energy(n)
        for turns in product((0, 1, 2), repeat=n - 1):
            feasible = decode_fold(turns).feasible
            for bits in product((0, 1), repeat=n):
                v = objective_value(bits, turns)
                if feasible:
                    assert bound <= v <= 0
                else:
                    assert v >= 1


class TestWalkProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_plan_c_runs_deterministic_and_within_oracle_bound(self, seed):
        problem = make_problem("C", n=8, weight_target=3, energy_target=-2)
        a = run_search(SearchConfig(seed=seed), problem)
        b = run_search(SearchConfig(seed=seed), problem)
        assert a == b
        if not a.is_censored:
            assert -3 <= a.value <= -2  # oracle floor for n=8 is -3

    def test_instrumented_plan_c_walk(self):
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4)
        segments = [[]]

        def observer(event, coord, value):
            if event == "restart":
                segments.append([coord])
            else:
                segments[-1].append(coord)

        result = run_search(SearchConfig(seed=97), problem, observer=observer)
        assert not result.is_censored
        total_steps = sum(len(s) for s in segments) - 1  # init event is not a step
        assert total_steps == result.walk_length
        for segment in segments:
            assert len(set(segment)) == len(segment)
            for a, b in zip(segment, segment[1:]):
                assert rank_distance(a, b) == 1

    def test_probe_recount_with_counting_wrapper(self):
        problem = make_problem("C", n=10, weight_target=4, energy_target=-3)
        calls = 0
        original = problem.objective

        class Wrapper:
            spec = problem.spec
            admissible_neighbors = staticmethod(problem.admissible_neighbors)
            is_solution = staticmethod(problem.is_solution)
            random_coordinate = staticmethod(problem.random_coordinate)

            @staticmethod
            def objective(coord):
                nonlocal calls
                calls += 1
                return original(coord)

        for seed in (1, 2, 3):
            calls = 0
            result = run_search(SearchConfig(seed=seed), Wrapper())
            assert calls == result.probe_count


class TestStreamIndependence:
    def test_runs_share_no_global_state(self):
        # interleaving other draws from the module RNG must not change results
        problem = make_problem("C", n=8, weight_target=3, energy_target=-2)
        before = run_search(SearchConfig(seed=77), problem)
        random.seed(123)
        random.random()
        after = run_search(SearchConfig(seed=77), problem)
        assert before == after


def segment_text(base, length):
    return st.text(alphabet="0123"[:base], min_size=length, max_size=length)


@st.composite
def run_row(draw, n):
    """A row as a run writes it: the first probe and at least one per step,
    and a penalty value only when censored."""
    walk_length = draw(st.integers(0, 2**30))
    cnt_probe = draw(st.integers(walk_length + 1, 2**40))
    is_censored = draw(st.booleans())
    return RunRow(
        seed=draw(st.integers(0, 2**64 - 1)),
        coord_b=draw(segment_text(2, n)),
        coord_t=draw(segment_text(3, n - 1)),
        value=draw(st.integers(-20, 40 if is_censored else 0)),
        cnt_probe=cnt_probe,
        walk_length=walk_length,
        is_censored=is_censored,
    )


def run_rows_of(n):
    return st.lists(run_row(n), min_size=1, max_size=8)


@st.composite
def oracle_reports(draw):
    """Reports as a scan writes them: every value counted at least once,
    so the text's ``evaluations`` and ``min-value`` follow from the counts."""
    histogram = draw(st.dictionaries(st.integers(-30, 30), st.integers(1, 10**9), min_size=1, max_size=8))
    argmin = draw(st.lists(st.tuples(segment_text(2, 6), segment_text(3, 5)), unique=True, max_size=6))
    return OracleReport(tuple(sorted(argmin)), histogram)


class TestFormatRoundTrips:
    @given(oracle_reports())
    def test_report_text_reads_back(self, report):
        assert parse_report(report_text(report)) == report

    @given(oracle_reports(), st.sampled_from(["evaluations", "min-value"]), st.integers(-5, 5).filter(bool))
    def test_inconsistent_report_text_is_refused(self, report, key, delta):
        # shift the line's value by delta, leaving the count lines as written
        lines = report_text(report).splitlines(keepends=True)
        [i] = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
        lines[i] = f"{key} = {int(lines[i].split(' = ')[1]) + delta}\n"
        with pytest.raises(ValueError):
            parse_report("".join(lines))

    @given(run_rows_of(6))
    def test_rows_csv_reads_back(self, rows):
        assert parse_rows_csv(rows_csv(rows)) == rows

    @given(run_rows_of(6))
    def test_json_result_reads_back(self, rows):
        config = ExperimentConfig(make_problem("C", n=6, weight_target=3, energy_target=-2))
        payload = json.loads(result_text(config, rows, "json"))
        assert payload["stats"]["sampleSize"] == len(rows)
        assert [tuple(record) for record in payload["rows"]] == [CSV_COLUMNS] * len(rows)
        assert [tuple(record.values()) for record in payload["rows"]] == [
            (r.seed, r.coord_b, r.coord_t, r.value, r.cnt_probe, r.walk_length, r.probes_per_step, int(r.is_censored))
            for r in rows
        ]
