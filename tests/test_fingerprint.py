"""Pinned behaviour fingerprint.

Fixed small campaigns, oracle scans, drawings and an adjacency graph,
hashed.  A change that is meant to keep behaviour (a refactor, a speed-up)
must leave every pin as it is; a change that is meant to alter behaviour
must say so and re-pin.
"""
import dataclasses
import hashlib
from pathlib import Path

import pytest

from sawalk.cli import main
from sawalk.harness import ExperimentConfig, improving_campaign, rows_csv, run_rows
from sawalk.hpfold import make_problem
from sawalk.instances import load_instances
from sawalk.mixedradix import hasse_dot, parse_spec
from sawalk.oracle import enumerate_optimum, report_text
from sawalk.render import ascii_conformation, svg_conformation

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
HP10 = INSTANCES / "hp10.instances"
LITERATURE = INSTANCES / "hp_literature.instances"
BASE_SEED = 1901


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def hp10():
    return {problem.plan: problem for problem in load_instances(HP10)}


@pytest.mark.parametrize(
    "plan, digest",
    [
        ("A", "6921a2ec8de13acdf69c7c82c8b1b0dcf2bd0d85bca5ba3534b3a05137128197"),
        ("B", "f5429408340b4eb9c1604e8d3cb1121704a4fefa8793938daa5af9eded6d7636"),
        ("C", "31360ed3dc35f1ced0cb5d981c2e3de06c331eafac75359c37e5b3833cf49d41"),
    ],
)
def test_campaign_csv(hp10, plan, digest):
    rows = run_rows(ExperimentConfig(hp10[plan], sample_size=20, base_seed=BASE_SEED))
    assert sha256(rows_csv(rows)) == digest


def test_improving_campaign_csv(hp10):
    # the bound starts at the instance's target, -4, the n=10 optimum; no run
    # beats it, so the rows equal the plain plan C campaign's
    bound, rows = improving_campaign(
        ExperimentConfig(hp10["C"], sample_size=20, base_seed=BASE_SEED)
    )
    assert bound == -4
    assert sha256(rows_csv(rows)) == (
        "31360ed3dc35f1ced0cb5d981c2e3de06c331eafac75359c37e5b3833cf49d41"
    )


def test_improving_campaign_ratchets_csv(hp10):
    # from target -1 the bound ratchets to -2 and then -3: 16 rows at -2, 4 at -3
    problem = dataclasses.replace(hp10["A"], energy_target=-1)
    bound, rows = improving_campaign(
        ExperimentConfig(problem, sample_size=20, base_seed=BASE_SEED)
    )
    assert bound == -3
    assert [row.value for row in rows].count(-3) == 4
    assert sha256(rows_csv(rows)) == (
        "e8480f43c43cd8a8af8a402acfefc766e503442890706c4f05f3684e1f9fd0b3"
    )


@pytest.mark.parametrize(
    "index, digest",
    [
        # plan A n=20, 24,615 probes
        (0, "c5d36231e27064745820a28d7f150515bd485cc79b542f824db07cf1b5740aaf"),
        # plan A n=25, 108,826 probes
        (4, "7e92a7607141e3db8252ed7155734a9e57209b9ba3b7a930736aa3a54c9eddd9"),
    ],
)
def test_solve_csv_plan_a_literature(tmp_path, capsys, index, digest):
    out = tmp_path / "row.csv"
    main([
        "solve", "--instance", str(LITERATURE), "--index", str(index),
        "--base-seed", "1", "--out", str(out),
    ])
    capsys.readouterr()
    assert sha256(out.read_text()) == digest


def test_solve_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    main(["solve", "--instance", str(HP10), "--index", "2", "--base-seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert out.read_text() == (
        "seed,coordB,coordT,value,cntProbe,walkLength,probesPerStep,isCensored\n"
        "7,1001001001,011011011,-4,3898,233,16.72961373390558,0\n"
    )


ORACLE_C10 = make_problem("C", n=10, weight_target=4, energy_target=-4)
ORACLE_C10_DIGEST = "ca8c9d96f3d7668836202da0a229d2631c536db5fabf214704601255ae0c5643"


def test_oracle_report_plan_c_n10():
    assert sha256(report_text(enumerate_optimum(ORACLE_C10))) == ORACLE_C10_DIGEST


@pytest.mark.parametrize("workers", [2, 3])
def test_oracle_report_plan_c_n10_workers(workers):
    report = enumerate_optimum(ORACLE_C10, workers=workers)
    assert sha256(report_text(report)) == ORACLE_C10_DIGEST


def test_oracle_report_plan_c_n12():
    problem = make_problem("C", n=12, weight_target=5, energy_target=-5)
    report = enumerate_optimum(problem)
    assert sha256(report_text(report)) == (
        "067e6b84bcef8a91149ceeba85ff1ecc365b7376fe12095bcd43a6c0bc1ba70d"
    )


def test_oracle_report_plan_c_n14():
    problem = make_problem("C", n=14, weight_target=6, energy_target=-6)
    report = enumerate_optimum(problem)
    assert sha256(report_text(report)) == (
        "1c263833c95e9c023c6598674b095514acd4337008797eb1b192b4fed347aa74"
    )


def test_ascii_drawing():
    assert ascii_conformation("1001001001", "211011011") == (
        "o-o\n"
        "| |\n"
        "#*#-o\n"
        ": : |\n"
        "#*#-o\n"
        "| |\n"
        "o-o\n"
        "\n"
        "energy -4  weight 4  length 10\n"
    )


def test_svg_drawing():
    assert sha256(svg_conformation("1001001001", "211011011")) == (
        "05451036ea030f1d79ad66c9372a9c59a29db8a55230bbcc96e223016aea9d4e"
    )


# plan A's literature optimum (record 0, energy -9); its fold spans negative x and y
OPTIMUM_B, OPTIMUM_T = "10100110100101100101", "0020011020010110020"


@pytest.mark.parametrize(
    "draw, digest",
    [
        (ascii_conformation, "c7bc92b2f8255b763f7d39091aaf6dd8af7e78459b24965d19cbcba032491266"),
        (svg_conformation, "68e74a6609498382258ac0540b7c866e4cda35f29c88a9c3e69a17fd40b4374b"),
    ],
)
def test_literature_optimum_drawing(draw, digest):
    assert sha256(draw(OPTIMUM_B, OPTIMUM_T)) == digest


def test_hasse_dot_with_a_base_above_ten():
    # digits past 9 are letters, so the text order of a +1 move must still rise
    assert sha256(hasse_dot(parse_spec("2^2.3^1.12^1"))) == (
        "b68d14507a283d06039d1bee1baa1e22fb0052acd3b2932e4a7f0b2504422f54"
    )


def test_oracle_threshold_report_cli(capsys):
    # the same bytes as the benchmark's oracle-c10 pin, threshold line included
    main("oracle --plan C --length 10 --weight 4 --target -4 --threshold -4".split())
    assert sha256(capsys.readouterr().out) == (
        "bca1b7618c88f9621d51bd53c9605ca4f810cab964ac03ddb5191642479f10dd"
    )


def test_experiment_json_cli(tmp_path, capsys):
    out = tmp_path / "rows.json"
    main([
        *"experiment --plan C --length 10 --weight 4 --target -3 --seeds 20".split(),
        "--base-seed", str(BASE_SEED), "--format", "json", "--out", str(out),
    ])
    # the last line names the --out path, so the pin stops before it
    summary, written = capsys.readouterr().out.rsplit("rows written to ", 1)
    assert written == f"{out}\n"
    assert sha256(summary) == (
        "ebeb0d914ff25f0ecb5667d5fea30f1e702028bf55e95e04d2ab267028bd6b97"
    )
    assert sha256(out.read_text()) == (
        "23a97570f145dda0b988804d80dbe4481f6e07f5df96bdce3f00b4d11816b893"
    )


def test_experiment_improve_cli(capsys):
    # the bound ratchets from -2 to -3
    main("experiment --plan C --length 10 --weight 4 --target -2 --seeds 20 --improve".split())
    out = capsys.readouterr().out
    assert out.startswith("final bound -3 after 20 runs\n")
    assert sha256(out) == "795a3498abcb64c73955e00e9f58a61cb9a5dbbdccc2ce9af76b92aebb634f5d"


def test_solve_json_cli(tmp_path, capsys):
    out = tmp_path / "row.json"
    main(f"solve --plan C --length 10 --weight 4 --target -4 --format json --out {out}".split())
    capsys.readouterr()
    assert sha256(out.read_text()) == (
        "dd04414da9bbfba26fce1b2a5dbde7b65a57e61bb5d6183a315e2db8c4356796"
    )
