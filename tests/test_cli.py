import argparse
import concurrent.futures
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawalk
from sawalk import cli, oracle
from sawalk.cli import main
from sawalk.harness import parse_rows_csv
from sawalk.instances import FIELDS
from sawalk.oracle import parse_report


def test_import_loads_no_pool_statistics_or_json():
    """Only the commands that use them load the process pool, statistics
    and json; importing the CLI loads none of them."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sawalk, sawalk.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(sawalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert set(loaded) & {"multiprocessing", "concurrent.futures", "statistics", "json"} == set()


def one_line_exit(err: SystemExit) -> bool:
    """A text exit code prints as one line and exits with status 1."""
    return isinstance(err.code, str) and "\n" not in err.code


PROBLEM_COMMANDS = ("solve", "experiment", "oracle")


def test_problem_flags_are_the_instance_fields():
    """The flags that solve, experiment and oracle share, apart from help,
    --out, --instance and --index, are the instance file's keys."""
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    shared = set.intersection(
        *({flag for action in commands[name]._actions for flag in action.option_strings} for name in PROBLEM_COMMANDS)
    )
    assert shared - {"-h", "--help", "--out", "--instance", "--index"} == {"--" + key for key in FIELDS}


@pytest.mark.parametrize("command", PROBLEM_COMMANDS)
@pytest.mark.parametrize("key", FIELDS)
def test_each_field_beside_instance_is_refused(command, key):
    flag = "--" + key
    value = "A" if key == "plan" else "1"
    with pytest.raises(SystemExit) as err:
        main([command, "--instance", "instances/hp10.instances", flag, value])
    assert err.value.code == f"--instance holds the whole problem; drop {flag}"


@pytest.mark.parametrize("command", PROBLEM_COMMANDS)
@pytest.mark.parametrize("flags", [[], "--plan C --length 6 --weight 3 --target -1".split()], ids=["alone", "with-flags"])
def test_empty_instance_path_is_refused(command, flags):
    # an empty path is a given --instance, not a missing one; read as a file it names no flag
    with pytest.raises(SystemExit) as err:
        main([command, "--instance", "", *flags])
    assert err.value.code == "--instance needs a file path"


@pytest.mark.parametrize("command", PROBLEM_COMMANDS)
def test_target_is_required_without_instance(command):
    with pytest.raises(SystemExit) as err:
        main([command, *"--plan C --length 6 --weight 3".split()])
    assert err.value.code == "--target is required without --instance"


class TestSolve:
    def test_plan_c_run(self, capsys):
        code = main(
            "solve --plan C --length 10 --weight 4 --target -4 --base-seed 1901".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solved: value -4" in out

    def test_solved_line_is_unchanged(self, capsys):
        # perfbench parses this line
        main("solve --plan C --length 10 --weight 4 --target -4 --base-seed 1901".split())
        assert capsys.readouterr().out == (
            "solved: value -4 at 1001001001.211011011 (probes 48978, steps 2918, restarts 0)\n"
        )

    def test_censored_line_names_the_row_weight(self, capsys):
        # a censored plan C row holds its best pivot, here one bead over the target weight
        code = main(
            "solve --plan C --length 10 --weight 4 --target -5 --probe-limit 2000 --base-seed 0".split()
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "censored: value -4 at 1010011001.101002200 with weight 5, target weight 4 "
            "(probes 2002, steps 112, restarts 0)\n"
        )

    def test_writes_csv_row(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        main(
            f"solve --plan B --coord-t 211011011 --weight 4 --target -4 --out {out}".split()
        )
        capsys.readouterr()
        [row] = parse_rows_csv(out.read_text())
        assert row.coord_b == "1001001001"
        assert row.value == -4

    def test_from_instance_file(self, capsys):
        code = main("solve --instance instances/hp10.instances --index 1".split())
        out = capsys.readouterr().out
        assert code == 0 and "solved" in out

    def test_instance_index_out_of_range(self):
        with pytest.raises(SystemExit):
            main("solve --instance instances/hp10.instances --index 9".split())

    def test_missing_instance_file_is_one_line(self, tmp_path):
        missing = tmp_path / "nosuch.instances"
        with pytest.raises(SystemExit, match="No such file or directory"):
            main(["solve", "--instance", str(missing)])

    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch):
        def no_run(config, problem):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_search", no_run)
        out = tmp_path / "nosuch" / "row.csv"
        with pytest.raises(SystemExit, match="No such file or directory"):
            main(f"solve --plan C --length 6 --weight 3 --target -1 --out {out}".split())

    def test_missing_problem_flags(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_problem_flags_beside_instance_are_refused(self, monkeypatch):
        # the record holds the whole problem, so a flag beside it would be ignored
        def no_run(config, problem):
            raise AssertionError("the run started with a flag it ignores")

        monkeypatch.setattr(cli, "run_search", no_run)
        with pytest.raises(SystemExit, match="--instance.*--target") as err:
            main("solve --instance instances/hp10.instances --index 2 --base-seed 5 --target -3".split())
        assert "\n" not in str(err.value)

    def test_index_without_instance_is_refused(self, monkeypatch):
        # --index picks a record of --instance; alone it would be ignored
        def no_run(config, problem):
            raise AssertionError("the run started with a flag it ignores")

        monkeypatch.setattr(cli, "run_search", no_run)
        with pytest.raises(SystemExit, match="--index needs --instance") as err:
            main("solve --plan C --length 6 --weight 3 --target -1 --index 5".split())
        assert "\n" not in str(err.value)

    def test_runs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # bytes and str hash differently under each PYTHONHASHSEED; a walk's
        # rows must not, whatever its points hash to
        src = str(Path(sawalk.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        problems = {
            "C": ["--plan", "C", "--length", "10", "--weight", "4", "--target", "-4"],
            "A": ["--instance", "instances/hp_literature.instances", "--index", "0"],
        }
        for plan, flags in problems.items():
            texts = []
            for hash_seed in ("0", "1"):
                out = tmp_path / f"{plan}-{hash_seed}.csv"
                subprocess.run(
                    [sys.executable, "-m", "sawalk.cli", "solve", *flags, "--base-seed", "4", "--out", str(out)],
                    env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                    capture_output=True,
                    check=True,
                )
                texts.append(out.read_bytes())
            assert texts[0] == texts[1]
            [row] = parse_rows_csv(texts[0].decode())
            assert row.walk_length > 0

    def test_negative_seed_is_one_line(self):
        # random.Random(-7) draws what Random(7) draws, so -7 would alias 7
        with pytest.raises(SystemExit, match="seed must be at least 0, got -7"):
            main("solve --plan C --length 10 --weight 4 --target -4 --base-seed -7".split())

    def test_segment_the_plan_searches_is_refused(self):
        with pytest.raises(SystemExit, match="ternary"):
            main(
                "solve --plan A --coord-b 1001001001 --coord-t 211011011 --target -4".split()
            )

    def test_weight_above_length_is_one_line(self):
        with pytest.raises(SystemExit, match="weight target 11 out of range for 10 beads"):
            main("solve --plan C --length 10 --weight 11 --target -4".split())

    def test_positive_target_is_one_line(self):
        with pytest.raises(SystemExit, match="energy targets are zero or negative"):
            main("solve --plan C --length 10 --weight 4 --target 3".split())

    def test_probe_limit_may_overshoot_by_one_neighbourhood(self, capsys):
        # the limit is checked before each whole step
        code = main(
            "solve --instance instances/hp_literature.instances --index 1 --probe-limit 10".split()
        )
        out = capsys.readouterr().out
        assert code == 1 and "(probes 45, steps 1," in out

    def test_censored_exit_code(self, capsys):
        code = main(
            "solve --plan C --length 10 --weight 4 --target -4 --probe-limit 3".split()
        )
        out = capsys.readouterr().out
        assert code == 1 and "censored" in out


@pytest.mark.parametrize("command, flags", [("solve", ""), ("experiment", "--seeds 2")], ids=["solve", "experiment"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_without_out_is_refused_before_the_run(monkeypatch, capsys, command, flags, fmt):
    # with no --out there is no file for --format to shape
    def no_run(*args):
        raise AssertionError("the run started before --format was checked")

    monkeypatch.setattr(cli, "run_search", no_run)
    monkeypatch.setattr(cli, "run_rows", no_run)
    with pytest.raises(SystemExit) as err:
        main(f"{command} --plan C --length 6 --weight 3 --target -1 {flags} --format {fmt}".split())
    assert err.value.code == "--format chooses the --out file's format; add --out"
    assert capsys.readouterr().out == ""


class TestExperiment:
    def test_zero_parallelism_refused(self):
        with pytest.raises(SystemExit, match="parallelism must be at least 1"):
            main(
                "experiment --plan B --coord-t 211011011 --weight 4 --target -4 "
                "--seeds 2 --parallelism 0".split()
            )

    def test_zero_buffer_capacity_refused_before_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as exc:
            main(
                "experiment --plan B --coord-t 211011011 --weight 4 --target -4 "
                "--seeds 2 --buffer-capacity 0 --parallelism 2".split()
            )
        assert str(exc.value) == "buffer capacity must be at least 1"

    def test_campaign_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            f"experiment --plan B --coord-t 211011011 --weight 4 --target -4 "
            f"--seeds 10 --out {out}".split()
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "runs 10  censored 0" in text
        assert "walkLength: median" in text
        assert len(parse_rows_csv(out.read_text())) == 10

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        main(
            f"experiment --plan B --coord-t 211011011 --weight 4 --target -4 "
            f"--seeds 5 --format json --out {out}".split()
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["stats"]["sampleSize"] == 5
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "seed must be at least 0, got -1"), (str(2**64), "base seed must be below 2\\^64")],
    )
    def test_base_seed_outside_64_bits_is_one_line(self, seed, message):
        # run seeds keep 64 bits of the base seed, so -1 would alias 2^64 - 1
        with pytest.raises(SystemExit, match=message) as err:
            main(f"experiment --plan C --length 10 --weight 4 --target -4 --seeds 2 --base-seed {seed}".split())
        assert one_line_exit(err.value)

    def test_unwritable_out_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "nosuch" / "x.csv"
        with pytest.raises(SystemExit, match="No such file or directory"):
            main(
                f"experiment --plan C --length 6 --weight 3 --target -1 --seeds 2 --out {out}".split()
            )
        capsys.readouterr()

    def test_unwritable_out_fails_before_the_campaign(self, tmp_path, monkeypatch):
        def no_campaign(config):
            raise AssertionError("the campaign ran before --out was checked")

        monkeypatch.setattr(cli, "run_rows", no_campaign)
        out = tmp_path / "nosuch" / "x.csv"
        with pytest.raises(SystemExit, match="No such file or directory") as err:
            main(f"experiment --plan C --length 6 --weight 3 --target -1 --seeds 2 --out {out}".split())
        assert "\n" not in str(err.value)

    def test_refused_campaign_leaves_no_out_file(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit, match="sample size"):
            main(f"experiment --plan C --length 6 --weight 3 --target -1 --seeds 0 --out {out}".split())
        assert not out.exists()

    def test_broken_pipe_keeps_the_written_out_file(self, tmp_path, monkeypatch, capsys):
        # a reader that went away (`... | head -2`) is not a refused input:
        # no usage error, and the finished --out file stays
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        out = tmp_path / "rows.csv"
        code = main(
            f"experiment --plan B --coord-t 211011011 --weight 4 --target -4 --seeds 3 --out {out}".split()
        )
        assert code == 1
        assert len(parse_rows_csv(out.read_text())) == 3
        assert capsys.readouterr().err == ""

    def test_summary_without_stepped_runs(self, capsys):
        # every weight-0 4-bead fold is a solution at its draw, so no run takes a step
        code = main("experiment --plan C --length 4 --weight 0 --target 0 --seeds 3".split())
        assert code == 0
        assert capsys.readouterr().out == (
            "runs 3  censored 0\n"
            "unique solutions 2  beyond target 0\n"
            "walkLength: median 0 mean 0.0 stdev 0.0 min 0 max 0\n"
            "cntProbe: median 1 mean 1.0 stdev 0.0 min 1 max 1\n"
            "probesPerStep: (no stepped runs)\n"
        )

    def test_improve_mode(self, capsys):
        code = main(
            "experiment --plan C --length 10 --weight 4 --target -4 "
            "--seeds 15 --improve --base-seed 7".split()
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "final bound" in text


class TestOracle:
    def test_report_with_threshold(self, capsys):
        code = main(
            "oracle --plan B --coord-t 211011011 --weight 4 --target -4 --threshold -4".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "min-value = -4" in out
        assert "argmin = 1001001001 211011011" in out
        assert "count-at-or-below[-4] = 1" in out

    def test_threshold_report_reads_back(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        main(
            f"oracle --plan A --coord-b 1001001001 --target -4 --threshold -4 --out {out}".split()
        )
        capsys.readouterr()
        assert "count-at-or-below[-4] = 6\n" in out.read_text()
        report = parse_report(out.read_text())
        assert report.count_at_or_below(-4) == 6
        assert report.argmin == (
            ("1001001001", "200100100"),
            ("1001001001", "211011011"),
        )

    def test_problem_flags_beside_instance_are_refused(self, monkeypatch):
        def no_scan(problem, domain_cap, workers):
            raise AssertionError("the scan ran with flags it ignores")

        monkeypatch.setattr(cli, "enumerate_optimum", no_scan)
        with pytest.raises(SystemExit, match="--plan, --length, --weight"):
            main(
                "oracle --instance instances/hp10.instances --index 0 "
                "--plan C --length 12 --weight 6".split()
            )

    def test_zero_workers_refused(self):
        with pytest.raises(SystemExit, match="workers must be at least 1"):
            main("oracle --plan B --coord-t 211011011 --weight 4 --target -4 --workers 0".split())

    def test_domain_cap_refusal(self):
        with pytest.raises(SystemExit, match="exceeding the cap"):
            main(
                "oracle --plan C --length 20 --weight 10 --target -9 --domain-cap 1000".split()
            )


    def test_unwritable_out_fails_before_the_scan(self, tmp_path, monkeypatch):
        def no_scan(problem, domain_cap, workers):
            raise AssertionError("the scan ran before --out was checked")

        monkeypatch.setattr(cli, "enumerate_optimum", no_scan)
        out = tmp_path / "nosuch" / "report.txt"
        with pytest.raises(SystemExit, match="No such file or directory"):
            main(f"oracle --plan C --length 6 --weight 3 --target -1 --out {out}".split())

    def test_refused_scan_leaves_no_out_file(self, tmp_path):
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit, match="exceeding the cap"):
            main(f"oracle --plan C --length 20 --weight 10 --target -9 --out {out}".split())
        assert not out.exists()

    def test_refused_scan_keeps_an_existing_out_file(self, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("kept\n")
        with pytest.raises(SystemExit, match="exceeding the cap"):
            main(f"oracle --plan C --length 20 --weight 10 --target -9 --out {out}".split())
        assert out.read_text() == "kept\n"

    def test_too_many_colourings_is_one_line(self, monkeypatch):
        def no_colourings(problem):
            raise AssertionError("colourings were built for a refused domain")

        monkeypatch.setattr(oracle, "_colorings", no_colourings)
        with pytest.raises(SystemExit, match="colour digits, exceeding the cap") as err:
            main(f"oracle --plan B --coord-t {'2' * 27} --weight 14 --target 0".split())
        assert "\n" not in str(err.value)


class TestHasse:
    def test_stats_output(self, capsys):
        main("hasse --spec 2^2.3^2".split())
        out = capsys.readouterr().out
        assert "vertices = 36" in out
        assert "edges = 84" in out

    def test_empty_segment_is_one_line(self):
        with pytest.raises(SystemExit, match="segment length must be >= 1, got 0"):
            main("hasse --spec 2^0".split())

    def test_dot_output(self, tmp_path):
        out = tmp_path / "g.dot"
        main(f"hasse --spec 2^1.3^1 --dot --out {out}".split())
        assert out.read_text().startswith("graph hasse {")

    @pytest.mark.parametrize("flags", ["", "--dot"])
    def test_unwritable_out_fails_before_the_work(self, tmp_path, monkeypatch, flags):
        def no_work(spec, enumeration_cap):
            raise AssertionError("the graph was built before --out was checked")

        monkeypatch.setattr(cli, "hasse_stats", no_work)
        monkeypatch.setattr(cli, "hasse_dot", no_work)
        out = tmp_path / "nosuch" / "g.txt"
        with pytest.raises(SystemExit, match="No such file or directory") as err:
            main(f"hasse --spec 2^2.3^2 {flags} --out {out}".split())
        assert one_line_exit(err.value)

    def test_dot_base_above_36_is_one_line(self):
        with pytest.raises(SystemExit, match="DOT text supports bases up to 36, got 40"):
            main("hasse --spec 40^1 --dot".split())

    def test_cap_without_dot_is_refused(self, capsys):
        # statistics are counted, so a cap would bound nothing
        with pytest.raises(SystemExit) as err:
            main("hasse --spec 2^2 --cap 0".split())
        assert err.value.code == "--cap bounds --dot only; add --dot or drop --cap"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_refused_before_the_work(self, monkeypatch, cap):
        def no_work(spec, enumeration_cap):
            raise AssertionError("the graph was built before --cap was checked")

        monkeypatch.setattr(cli, "hasse_dot", no_work)
        with pytest.raises(SystemExit) as err:
            main(f"hasse --spec 2^2 --dot --cap {cap}".split())
        assert err.value.code == f"--cap must be at least 1, got {cap}"


class TestRender:
    def test_text_and_svg(self, tmp_path, capsys):
        svg = tmp_path / "fold.svg"
        code = main(f"render --coord-b 1001001001 --coord-t 211011011 --svg {svg}".split())
        out = capsys.readouterr().out
        assert code == 0
        assert "energy -4" in out
        assert svg.read_text().startswith("<svg")

    def test_infeasible_fold_message(self, capsys):
        with pytest.raises(SystemExit, match="collision at bead 4"):
            main("render --coord-b 10101 --coord-t 0000".split())

    def test_unwritable_out_fails_before_the_drawing(self, tmp_path, monkeypatch):
        def no_drawing(coord_b, coord_t):
            raise AssertionError("the fold was drawn before --out was checked")

        monkeypatch.setattr(cli, "ascii_conformation", no_drawing)
        monkeypatch.setattr(cli, "svg_conformation", no_drawing)
        svg = tmp_path / "fold.svg"
        out = tmp_path / "nosuch" / "fold.txt"
        with pytest.raises(SystemExit, match="No such file or directory") as err:
            main(f"render --coord-b 1001001001 --coord-t 211011011 --svg {svg} --out {out}".split())
        assert one_line_exit(err.value)
        assert not svg.exists()
