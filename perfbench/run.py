#!/usr/bin/env python3
"""sawalk benchmark: four fixed workloads through the ``sawalk`` CLI.

Run from the root of a sawalk checkout:

    python3 perfbench/run.py --workload walk-c20 --seed 1 --seconds 30 --trace 0

Every call to the program is ``sawalk.cli.main`` with the arguments a user
types, in a fresh interpreter (``perfbench/child.py``).  Calls run one after
another (closed loop) until ``--seconds`` have passed; the benchmark makes
all inputs from ``--seed`` and checks every output against its own
reference scorer (``perfbench/reference.py``).  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` a fixed number of rounds is also run with the package's public
calls wrapped and timed from outside, and the per-module metrics are
reported instead.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
LITERATURE = "instances/hp_literature.instances"

# a run that has not ended this long after it started is stopped and fails
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "probes_per_s": "1/s", "probes_per_cpu_s": "1/s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "setup.import_s": "s",
    "instances.load_s": "s",
    "hpfold.objective.us": "us",
    "hpfold.objective.calls": "count",
    "hpfold.fold_cache.hit_rate": "ratio",
    "hpfold.feasible_rate": "ratio",
    "hpfold.admissible_neighbors.us": "us",
    "hpfold.admissible_neighbors.size": "count",
    "hpfold.random_coordinate.us": "us",
    "hpfold.is_solution.us": "us",
    "mixedradix.permuted_indices.us": "us",
    "engine.visited.contains_us": "us",
    "engine.visited.add_us": "us",
    "engine.visited.skip_rate": "ratio",
    "engine.visited.evictions": "count",
    "engine.self_s": "s",
    "engine.steps": "count",
    "engine.restarts": "count",
    "engine.probes": "count",
    "engine.probes_per_step": "ratio",
    "harness.run_one.us": "us",
    "harness.rows_csv.s": "s",
    "harness.aggregate.s": "s",
    "harness.fanout_efficiency": "ratio",
    "harness.pool_overhead_s": "s",
    "oracle.scan.evals_per_s": "1/s",
    "oracle.fanout_efficiency": "ratio",
    "oracle.merge_reports.s": "s",
    "oracle.report_text.s": "s",
    "trace.overhead_s": "s",
    "process.peak_rss_mb": "MiB",
}

# the campaign and oracle commands of the README, with their problems
CAMPAIGN_RUNS = 1000
CAMPAIGN_PROBLEM = {"plan": "C", "n": 10, "weight_target": 4, "energy_target": -3}
ORACLE_PROBLEM = {"plan": "C", "n": 10, "weight_target": 4, "energy_target": -4}
ORACLE_THRESHOLD = -4
REPRODUCED_ROWS = 2
# the --base-seed of every walk a walk round makes.  A walk's length follows
# its seed with a heavy tail (0.01 s to 34 s over 37 seeds of walk-c20), and
# its probe rate with it, so a list drawn afresh from each workload seed would
# move the probe rate more than any bound; every run walks this one list
WALK_SEEDS = [1, 2]
# fresh interpreters started before the timed calls, to steady the set-up median
SETUP_SAMPLES = 10


def flag_args(problem: dict) -> list[str]:
    return [
        "--plan", problem["plan"],
        "--length", str(problem["n"]),
        "--weight", str(problem["weight_target"]),
        "--target", str(problem["energy_target"]),
    ]


class Failure(Exception):
    """The benchmark cannot produce a result."""


class Run:
    """Everything one benchmark run measures, counts and checks."""

    def __init__(self, root: Path, scratch: Path, started: float, seconds: float, rounds: int | None):
        self.root = root
        self.scratch = scratch
        self.started = started
        self.seconds = seconds
        self.deadline = started + seconds
        self.hard_stop = started + HARD_LIMIT_S
        self.rounds = rounds
        self.attempted = 0
        self.failed = 0
        self.failure_notes: list[str] = []
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.load_s: list[float] = []
        self.main_s: list[float] = []
        self.cpu_s: list[float] = []
        self.rss_mb: list[float] = []
        self.probes = 0
        self.call_probes: list[int] = []
        self.totals: Counter = Counter()
        self.fingerprint = hashlib.sha256()
        self.round_s: list[float] = []
        self.layer: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.tallies: list[dict] = []
        self.traced_s = 0.0

    # -- control --------------------------------------------------------

    def more_rounds(self, done: int) -> bool:
        """Whether to start another round: the first always, then only one
        that fits before the deadline if it lasts as long as the last one."""
        if self.rounds is not None:
            return done < self.rounds
        return done == 0 or time.monotonic() + self.round_s[-1] <= self.deadline

    def set_up(self, problem: dict) -> None:
        """Time SETUP_SAMPLES interpreter starts, then start the clock of the timed calls."""
        for _ in range(SETUP_SAMPLES):
            result = self.spawn({"mode": "setup", "problem": problem}, self.hard_stop)
            if result is None:
                raise Failure("set-up did not finish")
            self.record_setup(result)
        self.deadline = time.monotonic() + self.seconds

    def record_setup(self, result: dict) -> None:
        self.setup_s.append(result["t_ready"] - result["t_spawn"])
        self.import_s.append(result["t_imported"] - result["t_spawn"])
        self.load_s.append(result["t_ready"] - result["t_imported"])

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)

    # -- calls ----------------------------------------------------------

    def spawn(self, job: dict, stop_at: float) -> dict | None:
        """Run one child; its JSON result, or None if stop_at came first."""
        job = dict(job, src=str(self.root / "src"))
        out_path = self.scratch / "child.out"
        err_path = self.scratch / "child.err"
        t_spawn = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(job)],
                cwd=self.root,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() >= stop_at:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return None
                time.sleep(0.005)
        except BaseException:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise Failure(f"{job['mode']} call exited with {proc.returncode}:\n{tail}")
        result = json.loads(out_path.read_text().splitlines()[-1])
        result["t_spawn"] = t_spawn
        # ru_maxrss of a reaped child covers it and its reaped workers, in KiB
        result["rss_mb"] = usage.ru_maxrss / 1024
        return result

    def cli(self, argv: list[str], problem: dict, timed: bool = True) -> dict:
        """One ``sawalk`` command in a fresh interpreter.

        Timed calls feed the probe rate and memory; every call feeds set-up.
        """
        result = self.spawn({"mode": "cli", "argv": argv, "problem": problem}, self.hard_stop)
        if result is None:
            raise Failure(f"call still running {HARD_LIMIT_S:.0f} s after the run began: {argv}")
        self.attempted += 1
        self.record_setup(result)
        if timed:
            self.main_s.append(result["main_s"])
            self.cpu_s.append(result["cpu_s"])
            self.rss_mb.append(result["rss_mb"])
        return result

    def add_probes(self, probes: int) -> None:
        """Objective evaluations made by the timed command just run."""
        self.probes += probes
        self.call_probes.append(probes)

    def traced(self, job: dict) -> dict:
        result = self.spawn(job, self.hard_stop)
        if result is None:
            raise Failure(f"traced call still running {HARD_LIMIT_S:.0f} s after the run began")
        self.attempted += 1
        return result


# -- checks against the reference scorer ---------------------------------

def read_rows(text: str) -> list[dict]:
    """Result CSV rows, parsed by the benchmark itself."""
    records = list(csv.reader(io.StringIO(text)))
    header = ["seed", "coordB", "coordT", "value", "cntProbe", "walkLength", "probesPerStep", "isCensored"]
    if not records or records[0] != header:
        raise ValueError(f"result CSV header is {records[:1]}")
    return [dict(zip(header, record)) for record in records[1:]]


def check_row(run: Run, row: dict, target: int, weight: int, fixed_b: str | None) -> None:
    b, t = row["coordB"], row["coordT"]
    value, probes, steps = int(row["value"]), int(row["cntProbe"]), int(row["walkLength"])
    where = f"seed {row['seed']}"
    run.check(row["isCensored"] == "0", f"{where}: censored")
    run.check(value <= target, f"{where}: value {value} above target {target}")
    run.check(reference.score(b, t) == value, f"{where}: reference scores {reference.score(b, t)}, row says {value}")
    run.check(b.count("1") == weight, f"{where}: weight {b.count('1')}, expected {weight}")
    run.check(fixed_b is None or b == fixed_b, f"{where}: colours {b} differ from the fixed chain")
    run.check(probes >= steps + 1, f"{where}: cntProbe {probes} < walkLength + 1")


def splitmix_seed(base: int, index: int) -> int:
    """Campaign run seed, as README.md specifies it (splitmix64 step)."""
    mask = (1 << 64) - 1
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def read_report(text: str) -> dict:
    """Oracle report lines, parsed by the benchmark itself."""
    report = {"histogram": {}, "argmin": [], "at_or_below": {}}
    for line in text.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "evaluations":
            report["evaluations"] = int(value)
        elif key == "min-value":
            report["min_value"] = int(value)
        elif m := re.fullmatch(r"count\[(-?\d+)\]", key):
            report["histogram"][int(m.group(1))] = int(value)
        elif m := re.fullmatch(r"count-at-or-below\[(-?\d+)\]", key):
            report["at_or_below"][int(m.group(1))] = int(value)
        elif key == "argmin":
            report["argmin"].append(tuple(value.split()))
        else:
            raise ValueError(f"report line {line!r}")
    return report


# -- workloads -----------------------------------------------------------

SOLVE_LINE = re.compile(r"solved: value (-?\d+) at (\d+)\.(\d+) \(probes (\d+), steps (\d+), restarts (\d+)\)")


def walk_call(run: Run, index: int, seed: int) -> tuple[dict, str]:
    """One ``sawalk solve`` of a literature record; its row (with restarts) and CSV text."""
    out = run.scratch / "row.csv"
    argv = ["solve", "--instance", LITERATURE, "--index", str(index), "--base-seed", str(seed), "--out", str(out)]
    result = run.cli(argv, {"instance": [LITERATURE, index]})
    text = out.read_text()
    rows = read_rows(text)
    run.check(result["exit"] == 0 and len(rows) == 1, f"seed {seed}: exit {result['exit']}, {len(rows)} rows")
    row = rows[0]
    m = SOLVE_LINE.search(result["stdout"])
    run.check(m is not None, f"seed {seed}: no result line in {result['stdout']!r}")
    restarts = int(m.group(6)) if m else 0
    if m:
        printed = (m.group(1), m.group(2), m.group(3), m.group(4), m.group(5))
        written = (row["value"], row["coordB"], row["coordT"], row["cntProbe"], row["walkLength"])
        run.check(printed == written, f"seed {seed}: printed {printed} but wrote {written}")
    run.check(row["seed"] == str(seed), f"seed {seed}: row has seed {row['seed']}")
    run.add_probes(int(row["cntProbe"]))
    return dict(row, restarts=restarts), f"{text}restarts={restarts}\n"


def walk(run: Run, rng: random.Random, index: int, trace: bool) -> None:
    """Rounds of the fixed walk list, each in an order drawn from the seed."""
    problem = reference_problem(run.root, index)
    run.set_up({"instance": [LITERATURE, index]})
    first: dict[int, str] = {}
    done = 0
    while run.more_rounds(done):
        t0 = time.monotonic()
        for seed in rng.sample(WALK_SEEDS, len(WALK_SEEDS)):
            row, text = walk_call(run, index, seed)
            check_row(run, row, *problem)
            if seed not in first:
                first[seed] = text
                run.totals.update(probes=int(row["cntProbe"]), steps=int(row["walkLength"]), restarts=row["restarts"])
            run.check(text == first[seed], f"seed {seed}: the walk differs from its first run")
            if trace:
                walk_traced(run, index, seed, row)
        run.round_s.append(time.monotonic() - t0)
        done += 1
    for seed in WALK_SEEDS:
        run.fingerprint.update(first[seed].encode())
    if trace:
        run.layer.update(engine_layers(merge_tallies(run.tallies), run))
        run.layer["trace.overhead_s"] = run.traced_s - sum(run.main_s)


def reference_problem(root: Path, index: int) -> tuple[int, int, str | None]:
    """(target, weight, fixed colours) of a literature record, read by the benchmark."""
    records: list[dict] = [{}]
    for line in (root / LITERATURE).read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if not key and records[-1]:
            records.append({})
        elif key and not key.startswith("#"):
            records[-1][key] = value
    fields = [r for r in records if r][index]
    fixed_b = fields.get("coord-b")
    weight = fixed_b.count("1") if fixed_b else int(fields["weight"])
    return int(fields["target"]), weight, fixed_b


def walk_traced(run: Run, index: int, seed: int, row: dict) -> None:
    """The walk just run, again with the public calls under it timed."""
    result = run.traced({"mode": "trace-walk", "problem": {"instance": [LITERATURE, index]}, "seed": seed})
    got = result["result"]
    expected = (row["coordB"], row["coordT"], int(row["value"]), int(row["cntProbe"]), int(row["walkLength"]), row["restarts"])
    traced_as = (got["coord_b"], got["coord_t"], got["value"], got["probes"], got["steps"], got["restarts"])
    run.check(traced_as == expected, f"seed {seed}: traced walk {traced_as} differs from the CLI's {expected}")
    run.tallies.append(result["tally"])
    run.traced_s += result["wall_s"]


def campaign(run: Run, rng: random.Random, trace: bool) -> None:
    from sawalk.harness import parse_rows_csv, rows_csv

    run.set_up({"make": CAMPAIGN_PROBLEM})
    done = 0
    while run.more_rounds(done):
        base = rng.getrandbits(32)
        sample = rng.sample(range(CAMPAIGN_RUNS), REPRODUCED_ROWS)
        out = run.scratch / "runs.csv"
        argv = ["experiment", *flag_args(CAMPAIGN_PROBLEM), "--seeds", str(CAMPAIGN_RUNS),
                "--parallelism", "2", "--base-seed", str(base), "--out", str(out)]
        t0 = time.monotonic()
        result = run.cli(argv, {"make": CAMPAIGN_PROBLEM})
        text = out.read_text()
        rows = read_rows(text)
        run.check(result["exit"] == 0 and len(rows) == CAMPAIGN_RUNS, f"base {base}: {len(rows)} rows")
        for i, row in enumerate(rows):
            check_row(run, row, CAMPAIGN_PROBLEM["energy_target"], CAMPAIGN_PROBLEM["weight_target"], None)
            run.check(row["seed"] == str(splitmix_seed(base, i)), f"base {base}: row {i} has seed {row['seed']}")
        probes = sum(int(r["cntProbe"]) for r in rows)
        run.add_probes(probes)
        run.totals.update(probes=probes, steps=sum(int(r["walkLength"]) for r in rows), runs=len(rows))
        run.fingerprint.update(text.encode())

        # read-back through the library's own parser
        run.attempted += 1
        run.check(rows_csv(parse_rows_csv(text)) == text, f"base {base}: CSV does not read back unchanged")

        # a seeded sample of rows, reproduced one-off by ``sawalk solve``
        for i in sample:
            one = run.scratch / "one.csv"
            solve = ["solve", *flag_args(CAMPAIGN_PROBLEM), "--base-seed", rows[i]["seed"], "--out", str(one)]
            run.cli(solve, {"make": CAMPAIGN_PROBLEM}, timed=False)
            again = read_rows(one.read_text())
            run.check(again == [rows[i]], f"base {base}: row {i} reproduces as {again}")
        run.round_s.append(time.monotonic() - t0)
        done += 1
        if trace:
            campaign_traced(run, base, text, result["main_s"])


def campaign_traced(run: Run, base: int, text: str, untraced_s: float) -> None:
    passes = {}
    for name in ("u", "t", "p"):
        job = {"mode": "trace-campaign", "pass": name, "problem": {"make": CAMPAIGN_PROBLEM},
               "runs": CAMPAIGN_RUNS, "base_seed": base}
        passes[name] = run.traced(job)
        run.check(passes[name]["csv"] == text, f"base {base}: traced pass {name} rows differ from the CLI's")
    u, t, p = (passes[k] for k in "utp")
    layers = engine_layers(merge_tallies([t["tally"]]), run)
    per_run_s = u["tally"]["seconds"]["harness.run_one"]
    layers.update({
        "harness.run_one.us": 1e6 * per_run_s / u["tally"]["calls"]["harness.run_one"],
        "harness.rows_csv.s": u["tally"]["seconds"]["harness.rows_csv"],
        "harness.aggregate.s": u["tally"]["seconds"]["harness.aggregate"],
        "harness.fanout_efficiency": per_run_s / (2 * p["wall_s"]),
        "harness.pool_overhead_s": p["wall_s"] - per_run_s / 2,
        "trace.overhead_s": t["wall_s"] - u["wall_s"],
    })
    run.layer.update(layers)
    run.extra["campaign_p1_wall_s"] = u["wall_s"]
    run.extra["campaign_p2_wall_s"] = p["wall_s"]
    run.extra["campaign_cli_main_s"] = untraced_s


def oracle(run: Run, trace: bool) -> None:
    from sawalk.oracle import parse_report

    n, w = ORACLE_PROBLEM["n"], ORACLE_PROBLEM["weight_target"]
    self_avoiding, penalties = reference.turn_census(n)
    colourings = comb(n, w)
    run.set_up({"make": ORACLE_PROBLEM})
    done = 0
    while run.more_rounds(done):
        out = run.scratch / "report.txt"
        argv = ["oracle", *flag_args(ORACLE_PROBLEM), "--workers", "2",
                "--threshold", str(ORACLE_THRESHOLD), "--out", str(out)]
        t0 = time.monotonic()
        result = run.cli(argv, {"make": ORACLE_PROBLEM})
        text = out.read_text()
        report = read_report(text)
        hist = report["histogram"]
        evaluations = colourings * 3 ** (n - 1)
        run.check(result["exit"] == 0, f"oracle exited with {result['exit']}")
        run.check(report.get("evaluations") == evaluations, f"evaluations {report.get('evaluations')} != {evaluations}")
        run.check(sum(hist.values()) == evaluations, "histogram does not sum to evaluations")
        infeasible = {v: c for v, c in hist.items() if v > 0}
        expected = {v: colourings * c for v, c in penalties.items()}
        run.check(infeasible == expected, "infeasible histogram differs from the reference penalties")
        feasible = sum(c for v, c in hist.items() if v <= 0)
        run.check(feasible == colourings * self_avoiding, f"feasible total {feasible} != {colourings} x {self_avoiding}")
        run.check(report.get("min_value") == min(hist), "min-value is not the histogram minimum")
        run.check(bool(report["argmin"]), "no argmin lines")
        for colours, turns in report["argmin"]:
            run.check(reference.score(colours, turns) == report.get("min_value"), f"argmin {colours} {turns} rescores differently")
            run.check(colours.count("1") == w, f"argmin {colours} has the wrong weight")
        at_or_below = sum(c for v, c in hist.items() if v <= ORACLE_THRESHOLD)
        run.check(report["at_or_below"] == {ORACLE_THRESHOLD: at_or_below}, "threshold count is wrong")
        run.add_probes(report.get("evaluations", 0))
        run.totals.update(evaluations=report.get("evaluations", 0))
        run.fingerprint.update(text.encode())

        # read-back of the report the command wrote, through the library's parser
        run.attempted += 1
        try:
            parsed = parse_report(text)
        except ValueError as err:
            run.failed += 1
            if not run.failure_notes:
                run.failure_notes.append(f"oracle.parse_report on the --threshold report: {err}")
        else:
            run.check(parsed.evaluations == evaluations and parsed.histogram == hist, "report reads back differently")
        run.round_s.append(time.monotonic() - t0)
        done += 1
        if trace:
            oracle_traced(run, text, result["main_s"])


def oracle_traced(run: Run, text: str, untraced_s: float) -> None:
    body = "".join(line for line in text.splitlines(True) if not line.startswith("count-at-or-below"))
    scans = {}
    for workers in (1, 2):
        scans[workers] = run.traced({"mode": "trace-oracle", "problem": {"make": ORACLE_PROBLEM}, "workers": workers})
        run.check(scans[workers]["report"] == body, f"traced report with {workers} workers differs from the CLI's")
    one, two = scans[1], scans[2]
    run.layer.update({
        "oracle.scan.evals_per_s": one["evaluations"] / one["scan_s"],
        "oracle.fanout_efficiency": one["scan_s"] / (2 * two["scan_s"]),
        "oracle.merge_reports.s": two["tally"]["seconds"].get("oracle.merge_reports", 0.0),
        "oracle.report_text.s": two["tally"]["seconds"]["oracle.report_text"],
        "trace.overhead_s": two["wall_s"] - untraced_s,
    })


# -- per-module metrics ---------------------------------------------------

def merge_tallies(tallies: list[dict]) -> dict:
    merged = {"seconds": Counter(), "calls": Counter(), "counts": Counter()}
    for tally in tallies:
        for part in merged:
            merged[part].update(tally[part])
    return merged


def engine_layers(tally: dict, run: Run) -> dict:
    seconds, calls, counts = tally["seconds"], tally["calls"], tally["counts"]

    def us(name: str) -> float:
        return 1e6 * seconds[name] / calls[name] if calls[name] else 0.0

    inner = sum(seconds[name] for name in (
        "hpfold.objective", "hpfold.admissible_neighbors", "hpfold.random_coordinate",
        "hpfold.is_solution", "mixedradix.permuted_indices",
        "engine.visited.contains", "engine.visited.add",
    ))
    lookups = counts["fold_cache.hits"] + counts["fold_cache.misses"]
    run.check(calls["hpfold.objective"] == counts["probes"],
              f"objective called {calls['hpfold.objective']} times for {counts['probes']} probes")
    return {
        "hpfold.objective.us": us("hpfold.objective"),
        "hpfold.objective.calls": calls["hpfold.objective"],
        "hpfold.fold_cache.hit_rate": counts["fold_cache.hits"] / lookups if lookups else 0.0,
        "hpfold.feasible_rate": counts["feasible"] / calls["hpfold.objective"] if calls["hpfold.objective"] else 0.0,
        "hpfold.admissible_neighbors.us": us("hpfold.admissible_neighbors"),
        "hpfold.admissible_neighbors.size": (
            counts["neighbors"] / calls["hpfold.admissible_neighbors"] if calls["hpfold.admissible_neighbors"] else 0.0
        ),
        "hpfold.random_coordinate.us": us("hpfold.random_coordinate"),
        "hpfold.is_solution.us": us("hpfold.is_solution"),
        "mixedradix.permuted_indices.us": us("mixedradix.permuted_indices"),
        "engine.visited.contains_us": us("engine.visited.contains"),
        "engine.visited.add_us": us("engine.visited.add"),
        "engine.visited.skip_rate": (
            counts["skipped"] / calls["engine.visited.contains"] if calls["engine.visited.contains"] else 0.0
        ),
        "engine.visited.evictions": counts["evictions"],
        "engine.self_s": seconds["engine.run_search"] - inner,
        "engine.steps": counts["steps"],
        "engine.restarts": counts["restarts"],
        "engine.probes": counts["probes"],
        "engine.probes_per_step": counts["probes"] / counts["steps"] if counts["steps"] else 0.0,
    }


# -- reporting -----------------------------------------------------------

def machine_facts(root: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def metrics_of(run: Run, trace: bool) -> dict:
    if trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(run.layer)
        values["setup.import_s"] = statistics.median(run.import_s)
        values["instances.load_s"] = statistics.median(run.load_s)
        values["process.peak_rss_mb"] = statistics.median(run.rss_mb)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(run.setup_s),
            "probes_per_s": run.probes / sum(run.main_s),
            "probes_per_cpu_s": run.probes / sum(run.cpu_s),
            "peak_rss_mb": max(run.rss_mb),
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["walk-c20", "walk-a20", "campaign-c10", "oracle-c10"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds (for fingerprints)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sawalk" / "cli.py").is_file() or not (root / LITERATURE).is_file():
        print("run from the root of a sawalk checkout (src/sawalk and instances/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference.self_check()

    started = time.monotonic()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    rounds = args.rounds
    if args.trace and rounds is None:
        # a traced run makes one round, so its exact counts compare across commits
        rounds = 1
    run = Run(root, scratch, started, args.seconds, rounds)
    rng = random.Random(f"sawalk-perfbench/{args.workload}/{args.seed}")
    trace = bool(args.trace)
    try:
        if args.workload == "walk-c20":
            walk(run, rng, 1, trace)
        elif args.workload == "walk-a20":
            walk(run, rng, 0, trace)
        elif args.workload == "campaign-c10":
            campaign(run, rng, trace)
        else:
            oracle(run, trace)
    except Failure as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = metrics_of(run, trace)
    calls = len(run.main_s)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(root),
        "elapsed_s": time.monotonic() - started,
        "timed_calls": calls,
        "rounds": len(run.round_s),
        "wall_s": statistics.median(run.round_s),
        "run_p50_s": statistics.median(run.main_s),
        "peak_rss_mb": {"p50": statistics.median(run.rss_mb), "max": max(run.rss_mb)},
        **{f"{name}_per_s": run.totals[name] / sum(run.main_s) for name in ("runs", "evaluations") if name in run.totals},
        "fingerprint": {"sha256": run.fingerprint.hexdigest(), **run.totals},
        "failures": run.failure_notes,
        "errors": run.errors,
        "calls": {"probes": run.call_probes, "main_s": run.main_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb},
        **run.extra,
        "metrics": metrics,
    }
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=2) + "\n")

    for key in ("rounds", "timed_calls", "wall_s", "run_p50_s", "peak_rss_mb", "fingerprint", "failures", "errors"):
        print(f"{key}: {details[key]}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
