import concurrent.futures
import time
from concurrent.futures import Future
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawalk import oracle
from sawalk.engine import SearchConfig, run_search
from sawalk.harness import ExperimentConfig, RunRow, run_rows
from sawalk.hpfold import _fold_analysis, digits_text, make_problem, objective_value, target_energy
from sawalk.mixedradix import SpaceTooLargeError
from sawalk.oracle import (
    DEFAULT_DOMAIN_CAP,
    MAX_COLOR_DIGITS,
    OracleReport,
    _bead_masks,
    _bit_indices,
    _colorings,
    _place,
    _roots,
    _scan,
    _score_colorings,
    enumerate_optimum,
    merge_reports,
    parse_report,
    report_text,
)


def mirror_classes(n):
    """Plans A and C scan these: canonical turns whose first bend is a left turn."""
    return (3 ** (n - 2) + 1) // 2


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Let every multi-worker scan reach the pool, however small its domain."""
    monkeypatch.setattr(oracle, "MIN_CLASSES_PER_WORKER", 1)


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs each job as it is submitted
    and records the class range it was given."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.ranges = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, problem, lo, hi):
        self.ranges.append((lo, hi))
        future = Future()
        future.set_result(fn(problem, lo, hi))
        return future


@pytest.fixture
def inline_pools(monkeypatch, pool_at_any_size):
    """Start every multi-worker scan on an InlinePool; the pools started."""
    pools = []

    def inline_pool(max_workers):
        pools.append(InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool)
    return pools


@pytest.fixture(scope="module")
def plan_c_small():
    problem = make_problem("C", n=7, weight_target=3, energy_target=-2)
    return problem, enumerate_optimum(problem)


@st.composite
def small_problems(draw):
    plan = draw(st.sampled_from("ABC"))
    n = draw(st.integers(4, 7))
    if plan == "A":
        colors = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        return make_problem("A", coord_b=colors, energy_target=0)
    weight = draw(st.integers(0, n))
    if plan == "B":
        turns = "".join(draw(st.lists(st.sampled_from("012"), min_size=n - 1, max_size=n - 1)))
        return make_problem("B", coord_t=turns, weight_target=weight, energy_target=0)
    return make_problem("C", n=n, weight_target=weight, energy_target=0)


def binaries(problem):
    """The colourings a scan scores, as digit tuples in combinations order."""
    if problem.plan == "A":
        return [problem.fixed_binary]
    n = problem.n
    return [
        tuple(1 if i in ones else 0 for i in range(n))
        for ones in combinations(range(n), problem.weight_target)
    ]


def brute_force(problem):
    """Score every eligible pair one at a time, independently of the scan."""
    if problem.plan == "B":
        ternaries = [problem.fixed_ternary]
    else:
        ternaries = list(product((0, 1, 2), repeat=problem.n - 1))
    histogram: dict[int, int] = {}
    scored = []
    for turns, bits in product(ternaries, binaries(problem)):
        value = objective_value(bits, turns)
        histogram[value] = histogram.get(value, 0) + 1
        scored.append((value, bits, turns))
    min_value = min(histogram)
    argmin = {
        problem.solution_key(digits_text(bits), digits_text(turns))
        for value, bits, turns in scored
        if value == min_value
    }
    return OracleReport(tuple(sorted(argmin)), histogram)


def chain(plan, n):
    """Plan A (alternating colours) or plan C (half the beads H) on n beads."""
    if plan == "A":
        return make_problem("A", coord_b=("10" * n)[:n], energy_target=0)
    return make_problem("C", n=n, weight_target=n // 2, energy_target=0)


@pytest.fixture
def nothing_built(monkeypatch):
    """Fail the test if a scan builds a colouring, places a class or reads a fold record."""

    def built(*args):
        raise AssertionError("a refused domain was scanned")

    monkeypatch.setattr(oracle, "_colorings", built)
    monkeypatch.setattr(oracle, "_place", built)
    monkeypatch.setattr(oracle, "_fold_analysis", built)


class TestDomainSize:
    """A scan counts every eligible (colours, turns) pair; the cap counts classes."""

    def test_plan_c(self):
        p = make_problem("C", n=10, weight_target=4, energy_target=-4)
        assert enumerate_optimum(p).evaluations == 210 * 3**9 == 4_133_430

    def test_plan_a(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        assert enumerate_optimum(p).evaluations == 3**9

    def test_plan_b(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        assert enumerate_optimum(p).evaluations == 210

    def test_cap_refusal_reports_size(self, nothing_built):
        p = make_problem("C", n=20, weight_target=10, energy_target=-9)
        with pytest.raises(SpaceTooLargeError, match="classes") as err:
            enumerate_optimum(p, domain_cap=10**6)
        assert (err.value.size, err.value.cap) == (mirror_classes(20), 10**6)

    @pytest.mark.parametrize("plan", "AC")
    def test_default_cap_refuses_eighteen_beads(self, plan, nothing_built):
        with pytest.raises(SpaceTooLargeError, match="classes") as err:
            enumerate_optimum(chain(plan, 18))
        assert (err.value.size, err.value.cap) == (mirror_classes(18), DEFAULT_DOMAIN_CAP)
        assert err.value.size == 21_523_361

    @pytest.mark.parametrize("plan", "AC")
    def test_default_cap_admits_seventeen_beads(self, plan, monkeypatch):
        scanned = []
        monkeypatch.setattr(oracle, "_scan", lambda problem, lo, hi: scanned.append((lo, hi)))
        enumerate_optimum(chain(plan, 17))
        assert scanned == [(0, mirror_classes(17))] == [(0, 7_174_454)]

    def test_colourings_past_the_bound_are_refused_before_any_is_built(self, nothing_built):
        # plan B's one class passes the default cap, but each of its 40,116,600 pairs is a colouring
        p = make_problem("B", coord_t="2" * 27, weight_target=14, energy_target=0)
        with pytest.raises(SpaceTooLargeError, match="colour digits") as err:
            enumerate_optimum(p)
        assert (err.value.size, err.value.cap) == (28 * comb(28, 14), MAX_COLOR_DIGITS) == (1_123_264_800, 28 << 20)

    def test_few_colourings_of_a_long_chain_are_refused_before_any_is_built(self, nothing_built):
        # 979,300 colourings, under 2^20, but each of them is a 1400-digit tuple
        p = make_problem("B", coord_t="2" * 1399, weight_target=2, energy_target=0)
        with pytest.raises(SpaceTooLargeError, match="colour digits") as err:
            enumerate_optimum(p)
        assert (err.value.size, err.value.cap) == (1400 * comb(1400, 2), MAX_COLOR_DIGITS) == (1_371_020_000, 28 << 20)

    def test_long_plan_b_chain_is_read_from_the_record_not_placed(self, monkeypatch):
        # a 1400-bead serpentine: placing it would recurse once a bead, past
        # the default recursion limit of 1000, so its one fold stays unplaced
        def placed(*args):
            raise AssertionError("plan B's fold was placed")

        monkeypatch.setattr(oracle, "_place", placed)
        turns = (("2" * 8 + "00" + "2" * 8 + "11") * 200)[:1399]
        report = enumerate_optimum(make_problem("B", coord_t=turns, weight_target=1399, energy_target=0))
        assert report.evaluations == 1400
        assert report.histogram == {-1248: 1104, -1249: 292, -1250: 4}
        assert len(report.argmin) == 4

    def test_up_to_2_20_colourings_are_admitted_to_28_beads(self, monkeypatch):
        monkeypatch.setattr(oracle, "_scan", lambda problem, lo, hi: (lo, hi))
        for n in range(3, 29):
            for w in range(n + 1):
                if comb(n, w) <= 1 << 20:
                    p = make_problem("B", coord_t="2" * (n - 1), weight_target=w, energy_target=0)
                    assert enumerate_optimum(p) == (0, 1)


class TestKnownOptima:
    def test_plan_a_two_conformations(self):
        p = make_problem("A", coord_b="1001001001", energy_target=-4)
        report = enumerate_optimum(p)
        assert report.min_value == -4
        assert report.evaluations == 3**9
        assert report.argmin == (
            ("1001001001", "200100100"),
            ("1001001001", "211011011"),
        )

    def test_plan_b_unique_binary(self):
        p = make_problem("B", coord_t="211011011", weight_target=4, energy_target=-4)
        report = enumerate_optimum(p)
        assert report.min_value == -4
        assert report.evaluations == 210
        assert report.argmin == (("1001001001", "211011011"),)

    def test_no_h_beads_make_every_feasible_fold_optimal(self):
        p = make_problem("C", n=4, weight_target=0, energy_target=0)
        report = enumerate_optimum(p)
        # a 4-bead chain cannot collide: all 27 folds feasible at value 0
        assert report.min_value == 0
        assert report.histogram == {0: 27}
        assert len(report.argmin) == 9  # 27 folds / 3 rotations each

    @pytest.mark.parametrize("n", range(4, 9))
    def test_all_h_minimum_matches_closed_form(self, n):
        p = make_problem("C", n=n, weight_target=n, energy_target=-1)
        assert enumerate_optimum(p).min_value == target_energy(n)


class TestScanAgainstDirectEvaluation:
    def test_histogram_matches_brute_force(self, plan_c_small):
        problem, report = plan_c_small
        brute: dict[int, int] = {}
        for ones in combinations(range(7), 3):
            bits = tuple(1 if i in set(ones) else 0 for i in range(7))
            for turns in product((0, 1, 2), repeat=6):
                v = objective_value(bits, turns)
                brute[v] = brute.get(v, 0) + 1
        assert report.histogram == brute
        assert report.evaluations == comb(7, 3) * 3**6

    def test_argmin_members_reach_the_minimum(self, plan_c_small):
        problem, report = plan_c_small
        for colors, turns in report.argmin:
            assert objective_value(colors, turns) == report.min_value

    def test_histogram_total_is_domain_size(self, plan_c_small):
        problem, report = plan_c_small
        assert sum(report.histogram.values()) == report.evaluations == comb(7, 3) * 3**6

    def test_values_split_feasible_and_penalty(self, plan_c_small):
        _, report = plan_c_small
        assert all(v <= 0 or v >= 1 for v in report.histogram)


class TestCountAtOrBelow:
    def test_threshold_infinity_is_domain_size(self, plan_c_small):
        problem, report = plan_c_small
        assert report.count_at_or_below(float("inf")) == report.evaluations == comb(7, 3) * 3**6

    def test_minimum_counts_rotation_closure_of_argmin(self, plan_c_small):
        problem, report = plan_c_small
        raw = report.count_at_or_below(report.min_value)
        assert raw == 3 * len(report.argmin)

    def test_monotone_in_threshold(self, plan_c_small):
        problem, report = plan_c_small
        counts = [report.count_at_or_below(t) for t in range(-3, 3)]
        assert counts == sorted(counts)


class TestShardingAndCheckpoints:
    def test_contiguous_slices_merge_to_whole(self, plan_c_small):
        # uneven rotation-class ranges
        problem, whole = plan_c_small
        classes = mirror_classes(problem.n)
        bounds = [0, 1, classes // 3, classes - 1, classes]
        parts = [_scan(problem, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert merge_reports(parts) == whole

    def test_merge_is_order_independent(self, plan_c_small):
        problem, whole = plan_c_small
        classes = mirror_classes(problem.n)
        step = classes // 3 + 1
        parts = [_scan(problem, lo, min(lo + step, classes)) for lo in range(0, classes, step)]
        assert merge_reports(parts[::-1]) == whole
        assert merge_reports(parts[1:] + parts[:1]) == whole

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_are_refused(self, workers):
        problem = make_problem("C", n=6, weight_target=3, energy_target=-1)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            enumerate_optimum(problem, workers=workers)

    def test_parallel_workers_match_serial(self, pool_at_any_size):
        problem = make_problem("C", n=6, weight_target=3, energy_target=-1)
        assert enumerate_optimum(problem, workers=2) == enumerate_optimum(problem)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_whole_domain_matches_brute_force(self, data):
        problem = data.draw(small_problems())
        assert enumerate_optimum(problem) == brute_force(problem)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "problem",
        [
            make_problem("A", coord_b="1011001", energy_target=0),
            make_problem("B", coord_t="211011", weight_target=3, energy_target=0),
            make_problem("C", n=7, weight_target=3, energy_target=0),
        ],
        ids="ABC",
    )
    def test_worker_split_matches_serial(self, problem, workers, pool_at_any_size):
        assert enumerate_optimum(problem, workers=workers) == enumerate_optimum(problem)

    def test_small_domain_starts_no_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        problem = make_problem("C", n=10, weight_target=4, energy_target=-4)
        assert enumerate_optimum(problem, workers=2) == enumerate_optimum(problem)

    @pytest.mark.parametrize("workers", [2, 3, 5, 7])
    def test_worker_shares_differ_by_at_most_one(self, workers, monkeypatch, inline_pools):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
        problem = make_problem("C", n=7, weight_target=3, energy_target=-2)
        report = enumerate_optimum(problem, workers=workers)
        [pool] = inline_pools
        bounds = [lo for lo, _ in pool.ranges] + [pool.ranges[-1][1]]
        assert pool.max_workers == workers
        assert pool.ranges == list(zip(bounds, bounds[1:]))
        assert bounds[0] == 0 and bounds[-1] == mirror_classes(problem.n)
        sizes = [hi - lo for lo, hi in pool.ranges]
        assert max(sizes) - min(sizes) <= 1
        assert report == enumerate_optimum(problem)

    @pytest.mark.parametrize("cpus, processes", [(3, 3), (None, 1)])
    def test_pool_has_at_most_one_process_per_cpu(self, cpus, processes, monkeypatch, inline_pools):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        problem = make_problem("C", n=7, weight_target=3, energy_target=-2)
        report = enumerate_optimum(problem, workers=7)
        [pool] = inline_pools
        assert pool.max_workers == processes
        assert len(pool.ranges) == 7  # the shares do not follow the process count
        assert report == enumerate_optimum(problem)


def mirror(turns):
    return tuple((1, 0, 2)[t] for t in turns)


class TestDepthFirstPlacement:
    """The scan's placement against the one fold record, ``_fold_analysis``."""

    @staticmethod
    def placed(n, roots):
        records = []

        def visit(turns, bent, first, collisions, mask):
            # the mask is read only for a feasible fold
            pairs = () if collisions else tuple(sorted(divmod(b, n) for b in _bit_indices(mask)))
            records.append((tuple(turns), bent, (first, collisions, pairs)))

        _place(n, roots, visit)
        return records

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_class_of_plans_a_and_c(self, n):
        analyse = _fold_analysis.__wrapped__
        records = self.placed(n, _roots(n, 0, mirror_classes(n)))
        straight = (2,) * (n - 1)
        # in product order, the canonical turns whose first bend is a left turn
        expected = [
            turns
            for turns in product((2,), *[range(3)] * (n - 2))
            if next((t for t in turns if t != 2), 0) == 0
        ]
        assert [turns for turns, _, _ in records] == expected
        assert any(record[1] for _, _, record in records) == (n >= 5)  # collisions reached
        for turns, bent, record in records:
            assert record == analyse(turns)
            assert record == analyse(mirror(turns))
            assert bent == (turns != straight)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_fixed_fold_of_plan_b(self, n):
        analyse = _fold_analysis.__wrapped__
        folds = list(product(range(3), repeat=n - 1))
        records = self.placed(n, folds)
        assert [turns for turns, _, _ in records] == folds
        for turns, _, record in records:
            assert record == analyse(turns)

    def test_roots_tile_every_class_range(self):
        n = 6
        whole = [turns for turns, _, _ in self.placed(n, _roots(n, 0, mirror_classes(n)))]
        for lo in range(len(whole)):
            for hi in range(lo + 1, len(whole) + 1):
                assert [turns for turns, _, _ in self.placed(n, _roots(n, lo, hi))] == whole[lo:hi]


class TestBitSlicedScorer:
    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_matches_per_colouring_count(self, data):
        n = data.draw(st.integers(3, 9), label="n")
        problem = make_problem("C", n=n, weight_target=data.draw(st.integers(0, n)), energy_target=0)
        bits = binaries(problem)
        candidates = [(i, j) for i in range(n) for j in range(i + 2, n)]
        pairs = tuple(sorted(data.draw(st.sets(st.sampled_from(candidates)), label="pairs")))
        values = {b: -sum(bits[b][i] & bits[b][j] for i, j in pairs) for b in range(len(bits))}
        span = (1 << len(bits)) - 1
        counts, best, best_bits = _score_colorings(pairs, _bead_masks(_colorings(problem), n), span)
        expected: dict[int, int] = {}
        for value in values.values():
            expected[value] = expected.get(value, 0) + 1
        assert counts == expected
        assert best == min(values.values())
        assert best_bits == sum(1 << b for b, v in values.items() if v == best)


class TestColouringMasks:
    def test_bead_masks_are_built_in_linear_time(self):
        # plan B n=20 w=10: 184,756 colourings, every bead H in C(19, 9) of them;
        # masks summed one shifted bit at a time took 12-17 s
        problem = make_problem("B", coord_t="2" * 19, weight_target=10, energy_target=0)
        colorings = _colorings(problem)
        start = time.process_time()
        beads = _bead_masks(colorings, 20)
        assert time.process_time() - start < 2
        assert len(colorings) == comb(20, 10) == 184_756
        assert [bead.bit_count() for bead in beads] == [comb(19, 9)] * 20


def lowest_bits_cleared(bits):
    """Reference decoder: clear the lowest set bit until none is left."""
    indices = []
    while bits:
        low = bits & -bits
        indices.append(low.bit_length() - 1)
        bits ^= low
    return indices


class TestBitIndices:
    def test_dense_mask_decodes_in_one_pass(self):
        # clearing one bit per pass over a 2^18-bit mask took about 4 s
        start = time.process_time()
        indices = _bit_indices((1 << (1 << 18)) - 1)
        assert time.process_time() - start < 0.5
        assert indices == list(range(1 << 18))

    @settings(max_examples=300)
    @given(st.integers(0, 1 << 3000))
    def test_matches_the_reference_decoder(self, bits):
        assert _bit_indices(bits) == lowest_bits_cleared(bits)


class TestGroundTruthLadder:
    # (16, 8), minimum -7, also passes but takes about 12 s, so it is left out
    @pytest.mark.parametrize("n, w", [(11, 5), (12, 6), (13, 6), (14, 7), (15, 8)])
    def test_campaign_solutions_are_oracle_minimizers(self, n, w):
        report = enumerate_optimum(make_problem("C", n=n, weight_target=w, energy_target=0))
        problem = make_problem("C", n=n, weight_target=w, energy_target=report.min_value)
        rows = run_rows(ExperimentConfig(problem, sample_size=20, base_seed=1901))
        for row in rows:
            assert not row.is_censored and row.value == report.min_value
            assert problem.solution_key(row.coord_b, row.coord_t) in report.argmin

    @pytest.mark.parametrize("n", range(13, 17))
    def test_all_h_minimum_is_target_energy(self, n):
        problem = make_problem("C", n=n, weight_target=n, energy_target=0)
        assert enumerate_optimum(problem).min_value == target_energy(n)


class TestSolverConsistency:
    def test_oracle_minimum_bounds_solver_results(self):
        problem = make_problem("C", n=8, weight_target=4, energy_target=-3)
        floor = enumerate_optimum(problem).min_value
        for seed in range(15):
            res = run_search(SearchConfig(seed=seed), problem)
            if not res.is_censored:
                assert res.value >= floor

    def test_solver_solutions_appear_in_argmin(self):
        problem = make_problem("A", coord_b="1001001001", energy_target=-4)
        report = enumerate_optimum(problem)
        for seed in range(10):
            res = run_search(SearchConfig(seed=seed), problem)
            assert not res.is_censored
            row = RunRow.from_result(res, problem.n)
            assert problem.solution_key(row.coord_b, row.coord_t) in report.argmin


class TestReportSerialization:
    def test_round_trip(self, plan_c_small):
        _, report = plan_c_small
        assert parse_report(report_text(report)) == report

    @pytest.mark.parametrize(
        "problem",
        [
            make_problem("A", coord_b="100101", energy_target=0),
            make_problem("B", coord_t="21101", weight_target=3, energy_target=0),
            make_problem("C", n=6, weight_target=3, energy_target=0),
        ],
        ids="ABC",
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    def test_threshold_line_round_trip(self, problem, offset):
        report = enumerate_optimum(problem)
        threshold = report.min_value + offset
        count = report.count_at_or_below(threshold)
        text = report_text(report, threshold)
        assert text.endswith(f"\ncount-at-or-below[{threshold}] = {count}\n")
        read = parse_report(text)
        assert read == report
        assert read.count_at_or_below(threshold) == count

    def test_merging_nothing_is_refused(self):
        with pytest.raises(ValueError, match="nothing to merge"):
            merge_reports([])

    def test_text_shape(self):
        report = OracleReport((("110", "22"),), {-2: 1, 0: 40, 3: 13})
        text = report_text(report)
        assert "min-value = -2" in text
        assert "count[-2] = 1" in text
        assert "argmin = 110 22" in text

    def test_parse_ignores_comments(self):
        text = "# note\nevaluations = 3\nmin-value = 0\ncount[0] = 3\n"
        report = parse_report(text)
        assert report.evaluations == 3 and report.histogram == {0: 3}

    def test_parse_checks_threshold_counts(self, plan_c_small):
        _, report = plan_c_small
        count = report.count_at_or_below(-1)
        text = report_text(report) + f"count-at-or-below[-1] = {count}\n"
        assert parse_report(text) == report
        with pytest.raises(ValueError, match="count-at-or-below"):
            parse_report(report_text(report) + f"count-at-or-below[-1] = {count + 1}\n")

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_report("bogus = 1\n")

    @pytest.mark.parametrize(
        "text", ["", "min-value = -4\ncount[-4] = 6\n", "evaluations = 6\ncount[-4] = 6\n"]
    )
    def test_parse_requires_evaluations_and_min_value(self, text):
        with pytest.raises(ValueError, match="evaluations or min-value"):
            parse_report(text)

    def test_parse_requires_counts_to_sum_to_evaluations(self):
        with pytest.raises(ValueError, match="sum to 10, not evaluations = 5"):
            parse_report("evaluations = 5\nmin-value = -1\ncount[-1] = 4\ncount[0] = 6\n")

    @pytest.mark.parametrize(
        "counts",
        [
            "min-value = -1\ncount[-1] = 9\ncount[0] = -3",  # sums to evaluations
            "min-value = -2\ncount[-2] = 0\ncount[0] = 6",  # would pass as min-value
        ],
    )
    def test_parse_rejects_counts_below_one(self, counts):
        with pytest.raises(ValueError, match="below 1"):
            parse_report(f"evaluations = 6\n{counts}\n")

    def test_parse_requires_min_value_to_be_the_least_value_counted(self):
        with pytest.raises(ValueError, match="min-value = -9"):
            parse_report("evaluations = 6\nmin-value = -9\ncount[-4] = 6\n")

    @pytest.mark.parametrize(
        "line",
        ["evaluations = 6", "min-value = -4", "count[-4] = 6", "count[-04] = 6", "argmin = 1100 222\nargmin = 1100 222"],
    )
    def test_parse_rejects_repeated_keys(self, line):
        with pytest.raises(ValueError, match="repeated"):
            parse_report(f"evaluations = 6\nmin-value = -4\ncount[-4] = 6\n{line}\n")

    # not digits at all; a turn text that is not one digit shorter than the colours
    @pytest.mark.parametrize("pair", ["xx yy", "1001 2"])
    def test_parse_rejects_argmin_that_is_not_colour_and_turn_digits(self, pair):
        with pytest.raises(ValueError, match="segments must be"):
            parse_report(f"evaluations = 6\nmin-value = -4\ncount[-4] = 6\nargmin = {pair}\n")

    # each pair is well formed on its own, but the two are chains of different lengths
    def test_parse_rejects_argmin_pairs_of_different_lengths(self):
        with pytest.raises(ValueError, match="segments must be 4 digits"):
            parse_report("evaluations = 6\nmin-value = -4\ncount[-4] = 6\nargmin = 1001 222\nargmin = 10 2\n")
