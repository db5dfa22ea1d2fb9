import concurrent.futures
import json
import math
from dataclasses import FrozenInstanceError, fields

import pytest

from sawalk import harness
from sawalk.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    MetricStats,
    RunRow,
    aggregate,
    derive_seed,
    experiment_json,
    improving_campaign,
    parse_rows_csv,
    result_text,
    rows_csv,
    run_rows,
    stats,
)
from sawalk.hpfold import as_digits, make_problem


def plan_c(target=-4, **kwargs):
    return make_problem("C", n=10, weight_target=4, energy_target=target, **kwargs)


class TestStats:
    def test_interpolated_median(self):
        assert stats([1, 2, 3, 4]).median == 2.5

    def test_single_sample(self):
        s = stats([5])
        assert (s.median, s.mean, s.min, s.max) == (5, 5, 5, 5)
        assert s.stdev == 0.0

    def test_two_samples(self):
        s = stats([2, 4])
        assert s.mean == 3
        assert s.stdev == pytest.approx(math.sqrt(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats([])


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1901, 0) == derive_seed(1901, 0)

    def test_spread(self):
        seeds = {derive_seed(1901, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_depends_on_base(self):
        assert derive_seed(1901, 5) != derive_seed(1902, 5)


@pytest.fixture(scope="module")
def small_campaign():
    config = ExperimentConfig(plan_c(), sample_size=30, base_seed=1901)
    rows = run_rows(config)
    return config, rows


def solved_row(coord_b, coord_t):
    return RunRow(7, coord_b, coord_t, -4, 30, 3, False)


class TestRunRow:
    def test_probes_per_step(self):
        assert RunRow(1, "10", "2", 0, 14, 7, False).probes_per_step == 2.0
        # a run that stops at its first draw, or is censored there, took no step
        assert RunRow(1, "10", "2", 0, 5, 0, False).probes_per_step == 5.0
        assert RunRow(1, "10", "2", 0, 1, 0, False).probes_per_step == 1.0


class TestCampaign:
    def test_row_count_and_order(self, small_campaign):
        config, rows = small_campaign
        assert len(rows) == 30
        assert [r.seed for r in rows] == [derive_seed(1901, i) for i in range(30)]

    def test_uncensored_rows_satisfy_problem(self, small_campaign):
        config, rows = small_campaign
        problem = config.problem
        for row in rows:
            if not row.is_censored:
                digits = as_digits(row.coord_b) + as_digits(row.coord_t)
                assert problem.is_solution(digits, row.value)

    def test_unique_solutions_collapse_rotations(self, small_campaign):
        config, rows = small_campaign
        summary = aggregate(config, rows)
        # exactly two optimal conformations exist for this instance
        assert summary.unique_solutions == 2
        assert summary.censored_count == 0
        assert summary.beyond_target == 0

    def test_sharding_reproduces_single_shot(self, small_campaign):
        config, rows = small_campaign
        first = run_rows(config, range(0, 11))
        second = run_rows(config, range(11, 30))
        assert first + second == rows
        assert aggregate(config, first + second) == aggregate(config, rows)

    def test_reproducible_csv_bytes(self, small_campaign):
        config, rows = small_campaign
        again = run_rows(config)
        assert rows_csv(again) == rows_csv(rows)

    def test_parallel_matches_serial(self):
        serial = ExperimentConfig(plan_c(-3), sample_size=12, base_seed=5)
        parallel = ExperimentConfig(plan_c(-3), sample_size=12, base_seed=5, parallelism=2)
        assert run_rows(serial) == run_rows(parallel)

    @pytest.mark.parametrize(
        "parallelism, runs, cpus, processes",
        [(5000, 2, 64, 2), (4, 10, 2, 2), (3, 10, 64, 3), (2, 10, None, 1)],
    )
    def test_pool_has_at_most_one_process_per_run_and_cpu(
        self, parallelism, runs, cpus, processes, monkeypatch
    ):
        pools = []

        class InlinePool:
            """Stands in for ProcessPoolExecutor: maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        config = ExperimentConfig(plan_c(-3), sample_size=runs, base_seed=5, parallelism=parallelism)
        rows = run_rows(config)
        assert pools == [processes]
        assert rows == run_rows(ExperimentConfig(plan_c(-3), sample_size=runs, base_seed=5))

    @pytest.mark.parametrize(
        "coord_b, coord_t",
        [
            ("100100100x", "211011011"),
            ("1001001002", "211011011"),
            ("1001001001", "21101101x"),
            ("1001001001", "211011013"),
            ("100100100", "21101101"),
            ("1001001001", "2110110"),
        ],
    )
    def test_solved_row_that_does_not_fit_the_problem_is_refused(self, coord_b, coord_t):
        with pytest.raises(ValueError):
            aggregate(ExperimentConfig(plan_c()), [solved_row(coord_b, coord_t)])

    def test_solved_row_with_shifted_segments_is_refused(self):
        # 19 digits, as the problem has, but 11 colours and 8 turns
        with pytest.raises(ValueError, match="segments must be 10 digits 0/1"):
            aggregate(ExperimentConfig(plan_c()), [solved_row("10010010011", "21101101")])

    def test_probes_per_step_excludes_zero_step_runs(self):
        # weight-0 4-bead chains: every initial fold is feasible at value 0
        problem = make_problem("C", n=4, weight_target=0, energy_target=0)
        config = ExperimentConfig(problem, sample_size=5, base_seed=3)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        assert all(row.walk_length == 0 for row in rows)
        assert summary.probes_per_step is None
        assert summary.walk_length.max == 0

    def test_censored_rows_counted_but_not_solutions(self):
        config = ExperimentConfig(plan_c(), sample_size=6, base_seed=11, probe_limit=5)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        assert summary.censored_count == 6
        assert summary.unique_solutions == 0
        assert summary.beyond_target == 0
        assert summary.cnt_probe.max >= 5

    def test_beyond_target_counts_strictly_better(self):
        config = ExperimentConfig(plan_c(-3), sample_size=100, base_seed=1901)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        better = [r for r in rows if not r.is_censored and r.value < -3]
        assert summary.beyond_target == len(better) >= 1


class TestImprovingCampaign:
    def test_bound_ratchets_down(self):
        config = ExperimentConfig(plan_c(-2), sample_size=25, base_seed=7)
        bound, rows = improving_campaign(config)
        assert len(rows) == 25
        assert bound < -2
        floor = -2
        for row in rows:
            assert row.is_censored or row.value <= floor
            if not row.is_censored and row.value < floor:
                floor = row.value
        assert floor == bound

    def test_parallelism_above_one_is_refused_before_the_first_run(self, monkeypatch):
        # each run's target comes from the runs before it, so none can run beside another
        def no_run(config, index):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_one", no_run)
        config = ExperimentConfig(plan_c(-2), sample_size=3, parallelism=2)
        with pytest.raises(ValueError, match="one run at a time, got parallelism 2"):
            improving_campaign(config)

    def test_bound_starts_at_energy_target(self):
        config = ExperimentConfig(plan_c(-4), sample_size=10, base_seed=8)
        bound, rows = improving_campaign(config)
        assert bound == -4
        assert all(row.value <= -4 for row in rows if not row.is_censored)


class TestSerialization:
    def test_csv_round_trip(self):
        config = ExperimentConfig(plan_c(-3), sample_size=8, base_seed=2)
        rows = run_rows(config)
        assert parse_rows_csv(rows_csv(rows)) == rows

    def test_csv_header(self):
        text = rows_csv([])
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_rows_csv("a,b,c\n1,2,3\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_rows_csv("")

    @pytest.mark.parametrize("censored", ["2", "-1", "", "true", " 1"])
    def test_censored_flag_other_than_0_or_1_rejected(self, censored):
        # rows_csv writes only 0 or 1, so no other flag reads back unchanged
        text = ",".join(CSV_COLUMNS) + "\n7,1001001001,211011011,-4,30,3,10.0,"
        assert parse_rows_csv(text + "1\n")[0].is_censored
        with pytest.raises(ValueError, match="isCensored"):
            parse_rows_csv(text + censored + "\n")

    @pytest.mark.parametrize(
        "coord_b, coord_t",
        [
            ("xxxxxxxxxx", "211011011"),  # colours other than 0/1
            ("1001001002", "211011011"),
            ("1001001001", "21101101x"),  # turns other than 0/1/2
            ("1001001001", "211011013"),
            ("1001001001", "2110110112"),  # turns not one digit shorter
            ("1001001001", "21101101"),
            ("", ""),
        ],
    )
    def test_segments_no_writer_produces_are_rejected(self, coord_b, coord_t):
        header = ",".join(CSV_COLUMNS) + "\n"
        with pytest.raises(ValueError, match="segments must be"):
            parse_rows_csv(header + f"7,{coord_b},{coord_t},-4,30,3,10.0,1\n")

    @pytest.mark.parametrize(
        "record, refusal",
        [
            ("-1,1001001001,211011011,-4,30,3,10.0,1", "seed"),
            ("7,1001001001,211011011,-4,30,-1,-30.0,1", "walkLength"),
            ("7,1001001001,211011011,-4,3,3,1.0,1", "cntProbe"),  # fewer probes than a first and one per step
            ("7,1001001001,211011011,-4,0,0,0.0,1", "cntProbe"),
            ("5,1001001001,211011011,-4,-7,30,0.5,0", "cntProbe"),
            ("7,1001001001,211011011,-4,30,3,10.5,1", "probesPerStep"),
            ("7,1001001001,211011011,-4,30,0,0.0,1", "probesPerStep"),  # zero steps report cntProbe
            ("7,1001001001,211011011,3,30,3,10.0,0", "solved"),  # a solved row is feasible
        ],
    )
    def test_counts_no_run_produces_are_rejected(self, record, refusal):
        header = ",".join(CSV_COLUMNS) + "\n"
        with pytest.raises(ValueError, match=refusal):
            parse_rows_csv(header + record + "\n")

    def test_json_payload(self):
        config = ExperimentConfig(plan_c(-3), sample_size=4, base_seed=2)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        payload = json.loads(experiment_json(summary, rows))
        assert payload["stats"]["sampleSize"] == 4
        assert set(payload["rows"][0]) == set(CSV_COLUMNS)
        assert payload["stats"]["walkLength"]["median"] == summary.walk_length.median

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "rows.csv"
        config = ExperimentConfig(plan_c(-3), sample_size=3, base_seed=2)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        out.write_text(result_text(config, rows, "csv"))
        assert parse_rows_csv(out.read_text()) == rows

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(plan_c(), sample_size=0)
        with pytest.raises(ValueError):
            result_text(ExperimentConfig(plan_c()), [], "xml")

    @pytest.mark.parametrize("parallelism", [0, -4])
    def test_parallelism_below_one_is_refused(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be at least 1"):
            ExperimentConfig(plan_c(), parallelism=parallelism)

    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"probe_limit": 0}, "probe limit must be at least 1"),
            ({"buffer_capacity": 0}, "buffer capacity must be at least 1"),
            ({"probe_limit": 0, "buffer_capacity": 0}, "probe limit must be at least 1"),
            # derive_seed keeps 64 bits, so base seeds 2^64 apart would run one campaign
            ({"base_seed": -1}, "seed must be at least 0, got -1"),
            ({"base_seed": 2**64}, "base seed must be below 2\\^64, got 18446744073709551616"),
        ],
    )
    def test_run_limits_below_one_are_refused(self, limits, message):
        # refused when the config is built, before any run or worker starts
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(plan_c(), parallelism=2, **limits)

    @pytest.mark.parametrize("field", [f.name for f in fields(ExperimentConfig)])
    def test_fields_cannot_be_assigned(self, field):
        # the constructor's checks would not see an assigned value
        config = ExperimentConfig(plan_c())
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, 0)


class TestMetricStatsShape:
    def test_aggregate_matches_manual_stats(self):
        config = ExperimentConfig(plan_c(-3), sample_size=10, base_seed=4)
        rows = run_rows(config)
        summary = aggregate(config, rows)
        assert summary.walk_length == stats([r.walk_length for r in rows])
        assert summary.cnt_probe == stats([r.cnt_probe for r in rows])
        stepped = [r.probes_per_step for r in rows if r.walk_length > 0]
        assert summary.probes_per_step == stats(stepped)
