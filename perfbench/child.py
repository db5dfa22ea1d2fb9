"""One measured call, in a fresh interpreter.

``run.py`` starts this script once per call, so that no process-wide state
of the package (such as the fold cache) carries from one call into the
next.  It takes one JSON argument and prints one JSON object as the last
line of its standard output.

Modes:
  setup           import ``sawalk.cli`` and build the problem, nothing more.
  cli             import ``sawalk.cli``, build the problem as the CLI does,
                  then call ``sawalk.cli.main(argv)``; times both parts.
  trace-walk      one ``run_search`` with every public call into the
                  problem, the visited buffer and the permutation timed.
  trace-campaign  one campaign pass through ``sawalk.harness``: pass "u"
                  (parallelism 1, per-run times), "t" (parallelism 1, fully
                  traced) or "p" (parallelism 2, wall time only).
  trace-oracle    one ``enumerate_optimum`` at the given worker count, with
                  ``merge_reports`` and ``report_text`` timed.

The traced modes wrap the package from the outside: nothing in ``src/`` is
changed, and the untraced ``cli`` mode installs no wrapper at all.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter


def _problem(spec: dict):
    if "instance" in spec:
        from sawalk.instances import load_instances

        path, index = spec["instance"]
        return load_instances(path)[index]
    from sawalk.hpfold import make_problem

    return make_problem(**spec["make"])


def _cpu_seconds() -> float:
    """CPU time of this process and of its finished worker processes."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def set_up(job: dict) -> dict:
    from sawalk import cli  # noqa: F401  (the import a command pays)

    t_imported = time.monotonic()
    _problem(job["problem"])
    return {"t_imported": t_imported, "t_ready": time.monotonic()}


def run_cli(job: dict) -> dict:
    times = set_up(job)
    from sawalk import cli

    captured = io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(job["argv"])
    main_s = perf_counter() - t0
    return {
        **times,
        "main_s": main_s,
        "cpu_s": _cpu_seconds() - cpu0,
        "exit": code,
        "stdout": captured.getvalue(),
    }


class Tally:
    """Seconds and calls per traced name, plus the counts some layers add."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def as_dict(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls), "counts": dict(self.counts)}


class TracedProblem:
    """A problem whose four engine-facing methods are timed from outside."""

    def __init__(self, inner, tally: Tally):
        self._inner = inner
        self._tally = tally
        self.is_solution = _timed(inner.is_solution, "hpfold.is_solution", tally)
        self.random_coordinate = _timed(inner.random_coordinate, "hpfold.random_coordinate", tally)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def objective(self, coord):
        t0 = perf_counter()
        value = self._inner.objective(coord)
        dt = perf_counter() - t0
        tally = self._tally
        tally.seconds["hpfold.objective"] += dt
        tally.calls["hpfold.objective"] += 1
        if value <= 0:
            tally.counts["feasible"] += 1
        return value

    def admissible_neighbors(self, coord):
        t0 = perf_counter()
        result = self._inner.admissible_neighbors(coord)
        dt = perf_counter() - t0
        tally = self._tally
        tally.seconds["hpfold.admissible_neighbors"] += dt
        tally.calls["hpfold.admissible_neighbors"] += 1
        tally.counts["neighbors"] += len(result)
        return result


def _timed(fn, name: str, tally: Tally):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tally.seconds[name] += perf_counter() - t0
            tally.calls[name] += 1

    return wrapper


def _timed_search(run_search, tally: Tally):
    """run_search, timed, adding each result's exact counts to the tally."""

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = run_search(*args, **kwargs)
        tally.seconds["engine.run_search"] += perf_counter() - t0
        tally.calls["engine.run_search"] += 1
        tally.counts["probes"] += result.probe_count
        tally.counts["steps"] += result.walk_length
        tally.counts["restarts"] += result.restarts
        return result

    return wrapper


def _trace_engine(tally: Tally) -> None:
    """Rebind the engine's visited buffer and permutation to timed versions."""
    from sawalk import engine

    engine.permuted_indices = _timed(engine.permuted_indices, "mixedradix.permuted_indices", tally)
    base = engine.VisitedBuffer

    class TracedBuffer(base):
        def add(self, coord):
            new = not base.__contains__(self, coord)
            before = len(self)
            t0 = perf_counter()
            base.add(self, coord)
            tally.seconds["engine.visited.add"] += perf_counter() - t0
            tally.calls["engine.visited.add"] += 1
            if new and len(self) == before:
                tally.counts["evictions"] += 1

        def __contains__(self, coord):
            t0 = perf_counter()
            hit = base.__contains__(self, coord)
            tally.seconds["engine.visited.contains"] += perf_counter() - t0
            tally.calls["engine.visited.contains"] += 1
            if hit:
                tally.counts["skipped"] += 1
            return hit

    engine.VisitedBuffer = TracedBuffer


def _fold_cache(tally: Tally) -> None:
    from sawalk import hpfold

    cache = getattr(hpfold, "_fold_analysis", None)
    if cache is not None and hasattr(cache, "cache_info"):
        info = cache.cache_info()
        tally.counts["fold_cache.hits"] += info.hits
        tally.counts["fold_cache.misses"] += info.misses


def _result_fields(result, n: int) -> dict:
    digits = "".join(str(d) for d in result.coordinate.digits)
    return {
        "seed": result.seed,
        "coord_b": digits[:n],
        "coord_t": digits[n:],
        "value": result.value,
        "probes": result.probe_count,
        "steps": result.walk_length,
        "restarts": result.restarts,
        "censored": result.is_censored,
    }


def trace_walk(job: dict) -> dict:
    from sawalk.engine import SearchConfig, run_search

    problem = _problem(job["problem"])
    tally = Tally()
    _trace_engine(tally)
    traced = TracedProblem(problem, tally)
    result = _timed_search(run_search, tally)(SearchConfig(seed=job["seed"]), traced)
    _fold_cache(tally)
    return {"wall_s": tally.seconds["engine.run_search"], "result": _result_fields(result, problem.n), "tally": tally.as_dict()}


def trace_campaign(job: dict) -> dict:
    from sawalk import harness

    problem = _problem(job["problem"])
    tally = Tally()
    mode = job["pass"]
    if mode == "t":
        _trace_engine(tally)
        problem = TracedProblem(problem, tally)
        harness.run_search = _timed_search(harness.run_search, tally)
    if mode in ("u", "t"):
        harness.run_one = _timed(harness.run_one, "harness.run_one", tally)
    config = harness.ExperimentConfig(
        problem=problem,
        sample_size=job["runs"],
        base_seed=job["base_seed"],
        parallelism=2 if mode == "p" else 1,
    )
    t0 = perf_counter()
    rows = harness.run_rows(config)
    wall = perf_counter() - t0
    t0 = perf_counter()
    text = harness.rows_csv(rows)
    tally.seconds["harness.rows_csv"] += perf_counter() - t0
    t0 = perf_counter()
    harness.aggregate(config, rows)
    tally.seconds["harness.aggregate"] += perf_counter() - t0
    if mode == "t":
        _fold_cache(tally)
    return {"wall_s": wall, "csv": text, "tally": tally.as_dict()}


def trace_oracle(job: dict) -> dict:
    from sawalk import oracle

    problem = _problem(job["problem"])
    tally = Tally()
    oracle.merge_reports = _timed(oracle.merge_reports, "oracle.merge_reports", tally)
    t0 = perf_counter()
    report = oracle.enumerate_optimum(problem, workers=job["workers"])
    t1 = perf_counter()
    text = oracle.report_text(report)
    t2 = perf_counter()
    tally.seconds["oracle.report_text"] += t2 - t1
    return {"scan_s": t1 - t0, "wall_s": t2 - t0, "evaluations": report.evaluations, "report": text, "tally": tally.as_dict()}


MODES = {"setup": set_up, "cli": run_cli, "trace-walk": trace_walk, "trace-campaign": trace_campaign, "trace-oracle": trace_oracle}


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(job["src"]).resolve()))
    result = MODES[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
