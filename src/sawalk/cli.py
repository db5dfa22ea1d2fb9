"""Command-line interface.

Subcommands: solve (one run), experiment (seeded campaign), oracle
(exhaustive enumeration), hasse (adjacency-graph export), render
(conformation drawing).
"""
from __future__ import annotations

import argparse
import contextlib
import locale  # noqa: F401  every command's parser reads gettext, which imports it
import os
import sys
from pathlib import Path

from sawalk.engine import (
    DEFAULT_BUFFER_CAPACITY,
    DEFAULT_PROBE_LIMIT,
    DEFAULT_SEED,
    SearchConfig,
    run_search,
)
from sawalk.harness import (
    ExperimentConfig,
    RunRow,
    aggregate,
    improving_campaign,
    result_text,
    run_rows,
)
from sawalk.instances import FIELDS, build_problem, load_instances
from sawalk.mixedradix import hasse_dot, hasse_stats, parse_spec
from sawalk.oracle import DEFAULT_DOMAIN_CAP, enumerate_optimum, report_text
from sawalk.render import ascii_conformation, svg_conformation


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--plan", choices=["A", "B", "C"], help="search formulation")
    parser.add_argument("--length", type=int, help="chain length n")
    parser.add_argument("--weight", type=int, help="target number of H beads")
    parser.add_argument("--target", type=int, help="energy target (<= 0)")
    parser.add_argument("--coord-b", help="fixed binary color segment (plan A)")
    parser.add_argument("--coord-t", help="fixed ternary turn segment (plan B)")
    parser.add_argument("--weight-cap", type=int, help="admissible weight ceiling (default weight+1)")
    parser.add_argument("--instance", help="read the problem from an instance file")
    parser.add_argument("--index", type=int, help="record index within --instance (default 0)")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--probe-limit", type=int, default=DEFAULT_PROBE_LIMIT, help="probe budget per run; checked before each whole step, so a run may exceed it by up to one neighbourhood")
    parser.add_argument("--buffer-capacity", type=int, default=DEFAULT_BUFFER_CAPACITY)
    parser.add_argument("--format", choices=["csv", "json"], help="format of the --out file (default csv)")


def _problem_from_args(args: argparse.Namespace):
    # each problem flag is an instance-file key with a leading "--"
    record = {key: value for key in FIELDS if (value := getattr(args, key.replace("-", "_"))) is not None}
    if args.instance is not None:
        if not args.instance:
            raise SystemExit("--instance needs a file path")
        if record:
            raise SystemExit(f"--instance holds the whole problem; drop {', '.join('--' + key for key in record)}")
        problems = load_instances(args.instance)
        index = args.index or 0
        if not 0 <= index < len(problems):
            raise SystemExit(f"instance file has {len(problems)} records, no index {index}")
        return problems[index]
    if args.index is not None:
        raise SystemExit("--index needs --instance")
    if not args.plan:
        raise SystemExit("either --instance or --plan is required")
    if args.target is None:
        raise SystemExit("--target is required without --instance")
    return build_problem(record)


def _check_writable(out: str | None) -> None:
    """Fail before a long run rather than after it when ``out`` cannot be written."""
    if out:
        with open(out, "a"):
            pass


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    config = SearchConfig(
        seed=args.base_seed,
        probe_limit=args.probe_limit,
        buffer_capacity=args.buffer_capacity,
    )
    result = run_search(config, problem)
    row = RunRow.from_result(result, problem.n)
    if args.out:
        single = ExperimentConfig(problem, sample_size=1)
        Path(args.out).write_text(result_text(single, [row], args.format or "csv"))
    status, where = "solved", f"{row.coord_b}.{row.coord_t}"
    if row.is_censored:
        # the best pivot seen, whose weight may be anything up to weight_cap
        status = "censored"
        where += f" with weight {row.coord_b.count('1')}, target weight {problem.weight_target}"
    print(
        f"{status}: value {row.value} at {where} "
        f"(probes {row.cnt_probe}, steps {row.walk_length}, restarts {result.restarts})"
    )
    return 1 if row.is_censored else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    config = ExperimentConfig(
        problem=problem,
        sample_size=args.seeds,
        base_seed=args.base_seed,
        probe_limit=args.probe_limit,
        buffer_capacity=args.buffer_capacity,
        parallelism=args.parallelism,
    )
    if args.improve:
        bound, rows = improving_campaign(config)
    else:
        rows = run_rows(config)
    summary = aggregate(config, rows)
    if args.out:
        Path(args.out).write_text(result_text(config, rows, args.format or "csv"))
    if args.improve:
        print(f"final bound {bound} after {len(rows)} runs")
    print(f"runs {summary.sample_size}  censored {summary.censored_count}")
    print(f"unique solutions {summary.unique_solutions}  beyond target {summary.beyond_target}")
    for name, metric in (
        ("walkLength", summary.walk_length),
        ("cntProbe", summary.cnt_probe),
        ("probesPerStep", summary.probes_per_step),
    ):
        if metric is None:
            print(f"{name}: (no stepped runs)")
        else:
            print(
                f"{name}: median {metric.median:g} mean {metric.mean:.1f} "
                f"stdev {metric.stdev:.1f} min {metric.min:g} max {metric.max:g}"
            )
    if args.out:
        print(f"rows written to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    report = enumerate_optimum(problem, domain_cap=args.domain_cap, workers=args.workers)
    _write_or_print(report_text(report, args.threshold), args.out)
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    if args.cap is not None and not args.dot:
        raise SystemExit("--cap bounds --dot only; add --dot or drop --cap")
    if args.cap is not None and args.cap < 1:
        raise SystemExit(f"--cap must be at least 1, got {args.cap}")
    spec = parse_spec(args.spec)
    if args.dot:
        _write_or_print(hasse_dot(spec, enumeration_cap=args.cap or 10**6), args.out)
    else:
        stats = hasse_stats(spec)
        histogram = " ".join(
            f"{deg}:{count}" for deg, count in sorted(stats.degree_histogram.items())
        )
        _write_or_print(
            f"vertices = {stats.vertex_count}\n"
            f"edges = {stats.edge_count}\n"
            f"degrees = {histogram}\n",
            args.out,
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    if args.svg:
        Path(args.svg).write_text(svg_conformation(args.coord_b, args.coord_t))
    _write_or_print(ascii_conformation(args.coord_b, args.coord_t), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawalk",
        description="Self-avoiding walk search over mixed-radix spaces with an HP folding objective.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one seeded search")
    _add_problem_args(solve)
    _add_run_args(solve)
    solve.add_argument("--out", help="write the result row to this file")
    solve.set_defaults(func=_cmd_solve)

    experiment = sub.add_parser("experiment", help="run a multi-seed campaign")
    _add_problem_args(experiment)
    _add_run_args(experiment)
    experiment.add_argument("--seeds", type=int, default=1000, help="number of runs")
    experiment.add_argument("--parallelism", type=int, default=1, help="worker processes, at most one per CPU and one per run (ignored with --improve)")
    experiment.add_argument("--improve", action="store_true", help="lower the problem's energy target to each run that beats it")
    experiment.add_argument("--out", help="write result rows to this file")
    experiment.set_defaults(func=_cmd_experiment)

    oracle = sub.add_parser("oracle", help="enumerate a small domain exhaustively")
    _add_problem_args(oracle)
    oracle.add_argument("--domain-cap", type=int, default=DEFAULT_DOMAIN_CAP, help="most rotation classes to scan: (3^(n-2)+1)/2 for plans A and C, 1 for plan B (default %(default)s: plans A and C up to n=17)")
    oracle.add_argument(
        "--workers",
        type=int,
        default=1,
        help="equal shares of the rotation classes, scanned by at most one process per CPU; small domains are scanned in this process",
    )
    oracle.add_argument("--threshold", type=int, help="also count pairs at or below this value")
    oracle.add_argument("--out", help="write the report to this file")
    oracle.set_defaults(func=_cmd_oracle)

    hasse = sub.add_parser("hasse", help="adjacency-graph statistics or DOT export")
    hasse.add_argument("--spec", required=True, help="space spec, e.g. 2^2.3^2")
    hasse.add_argument("--dot", action="store_true", help="emit DOT text instead of statistics")
    hasse.add_argument("--cap", type=int, help="with --dot: the most coordinates it enumerates, at least 1 (default 10**6; statistics are counted, not enumerated, for a space of any size)")
    hasse.add_argument("--out", help="write output to this file")
    hasse.set_defaults(func=_cmd_hasse)

    render = sub.add_parser("render", help="draw a feasible conformation")
    render.add_argument("--coord-b", required=True)
    render.add_argument("--coord-t", required=True)
    render.add_argument("--svg", help="also write an SVG drawing to this file")
    render.add_argument("--out", help="write the text drawing to this file")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "format", None) and not args.out:
        raise SystemExit("--format chooses the --out file's format; add --out")
    created = args.out and not Path(args.out).exists()
    try:
        _check_writable(args.out)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # a closed stdout (`| head`) is no refused input, and every command
        # writes its files before it prints; devnull takes the exit flush
        with contextlib.suppress(OSError):
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return 1
    except BaseException as err:
        if created:  # by _check_writable or a failed write; an existing file stays
            Path(args.out).unlink(missing_ok=True)
        if not isinstance(err, (ValueError, OSError)):
            raise
        # a refused input (a bad segment, an unreachable weight, a domain
        # over the cap, a file that cannot be read or written) is a
        # one-line usage error, not a traceback
        raise SystemExit(str(err)) from err


if __name__ == "__main__":
    sys.exit(main())
