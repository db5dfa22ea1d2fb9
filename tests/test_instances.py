import pytest

from sawalk.instances import load_instances, parse_instances

SAMPLE = """\
# the worked 10-bead instance, all three plans

plan = A
target = -4
coord-b = 1001001001

plan = B
weight = 4
target = -4
coord-t = 211011011

plan = C
length = 10
weight = 4
target = -4
weight-cap = 5
"""


class TestParse:
    def test_three_records(self):
        problems = parse_instances(SAMPLE)
        assert [p.plan for p in problems] == ["A", "B", "C"]
        assert problems[0].fixed_binary == (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
        assert problems[1].fixed_ternary == (2, 1, 1, 0, 1, 1, 0, 1, 1)
        assert problems[2].weight_cap == 5

    def test_plan_a_derives_length_and_weight(self):
        [p] = parse_instances("plan = A\ntarget = -4\ncoord-b = 1001001001\n")
        assert p.n == 10 and p.weight_target == 4

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_instances("plan = C\nlength = 10\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_instances("plan = C\nplan = A\n")

    def test_missing_plan(self):
        with pytest.raises(ValueError, match="plan"):
            parse_instances("length = 10\ntarget = -4\n")

    def test_missing_target(self):
        with pytest.raises(ValueError, match="target"):
            parse_instances("plan = A\ncoord-b = 1001\n")

    def test_key_without_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_instances("plan C\n")


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "set.instances"
        path.write_text(SAMPLE)
        assert load_instances(path) == parse_instances(SAMPLE)


class TestShippedInstances:
    def test_benchmark_instances_load(self):
        problems = load_instances("instances/hp_literature.instances")
        assert sorted({p.n for p in problems}) == [20, 24, 25]
        assert {p.plan for p in problems} == {"A", "C"}
        for p in problems:
            if p.plan == "A":
                assert sum(p.fixed_binary) == p.weight_target

    def test_worked_example_instances_load(self):
        problems = load_instances("instances/hp10.instances")
        assert {p.plan for p in problems} == {"A", "B", "C"}
        assert all(p.n == 10 for p in problems)
