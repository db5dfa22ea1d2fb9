"""Seeded experiment campaigns over the walk engine.

A campaign runs an instance under many derived seeds, collects one row per
run (the engine's result tuple plus probes-per-step), and aggregates
order-statistics, unique-solution and beyond-target counts.  Campaigns are
shardable: any split of the run indices produces row lists that concatenate
and aggregate to exactly the single-shot result, and per-run seeds depend
only on (base seed, run index).

CSV columns, in order:
    seed, coordB, coordT, value, cntProbe, walkLength, probesPerStep, isCensored
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from sawalk.engine import (
    DEFAULT_BUFFER_CAPACITY,
    DEFAULT_PROBE_LIMIT,
    DEFAULT_SEED,
    SearchConfig,
    SearchResult,
    run_search,
)
from sawalk.hpfold import (
    HPProblem,
    _require_picklable_penalty,
    canonical_turns,
    digits_text,
)

CSV_COLUMNS = ("seed", "coordB", "coordT", "value", "cntProbe", "walkLength", "probesPerStep", "isCensored")

# splitmix64 with the golden-ratio increment; run i mixes base_seed + i + 1
# so campaigns shard and resume on run index alone
_MASK64 = (1 << 64) - 1
_SEED_INCREMENT = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def derive_seed(base_seed: int, index: int) -> int:
    z = (base_seed + (index + 1) * _SEED_INCREMENT) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class MetricStats:
    median: float
    mean: float
    stdev: float
    min: float
    max: float


def stats(sample: Sequence[float]) -> MetricStats:
    """Median (midpoint-interpolated), mean, sample stdev, min and max."""
    if not sample:
        raise ValueError("stats need a non-empty sample")
    return MetricStats(
        median=statistics.median(sample),
        mean=statistics.fmean(sample),
        stdev=statistics.stdev(sample) if len(sample) > 1 else 0.0,
        min=min(sample),
        max=max(sample),
    )


@dataclass(frozen=True)
class RunRow:
    """One campaign run, as written to the results table."""

    seed: int
    coord_b: str
    coord_t: str
    value: int
    cnt_probe: int
    walk_length: int
    probes_per_step: float
    is_censored: bool

    @classmethod
    def from_result(cls, result: SearchResult, n: int) -> RunRow:
        """The row of one search; ``n`` splits the colors from the turns."""
        digits = result.coordinate.digits
        return cls(
            seed=result.seed,
            coord_b=digits_text(digits[:n]),
            coord_t=digits_text(digits[n:]),
            value=result.value,
            cnt_probe=result.probe_count,
            walk_length=result.walk_length,
            probes_per_step=result.probes_per_step,
            is_censored=result.is_censored,
        )


@dataclass
class ExperimentConfig:
    problem: HPProblem
    sample_size: int = 1000
    base_seed: int = DEFAULT_SEED
    probe_limit: int = DEFAULT_PROBE_LIMIT
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY
    parallelism: int = 1
    out_path: Optional[Union[str, Path]] = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample size must be at least 1")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")


@dataclass(frozen=True)
class ExperimentStats:
    sample_size: int
    censored_count: int
    unique_solutions: int
    beyond_target: int
    walk_length: MetricStats
    cnt_probe: MetricStats
    probes_per_step: Optional[MetricStats]  # over runs that took at least one step


def run_one(config: ExperimentConfig, index: int) -> RunRow:
    """Execute run ``index`` of the campaign."""
    search = SearchConfig(
        seed=derive_seed(config.base_seed, index),
        probe_limit=config.probe_limit,
        buffer_capacity=config.buffer_capacity,
    )
    return RunRow.from_result(run_search(search, config.problem), config.problem.n)


def run_rows(config: ExperimentConfig, indices: Optional[Iterable[int]] = None) -> list[RunRow]:
    """Rows for the given run indices (default: the whole campaign), in order."""
    if indices is None:
        indices = range(config.sample_size)
    indices = list(indices)
    if config.parallelism <= 1 or len(indices) <= 1:
        return [run_one(config, i) for i in indices]
    _require_picklable_penalty(config.problem)
    with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
        chunk = max(1, len(indices) // (config.parallelism * 8))
        return list(pool.map(_row_task, ((config, i) for i in indices), chunksize=chunk))


def _row_task(item: tuple[ExperimentConfig, int]) -> RunRow:
    config, index = item
    return run_one(config, index)


def solution_identity(problem: HPProblem, row: RunRow) -> tuple[str, str]:
    """Uniqueness key of a solved row: searched folds rotation-canonicalized."""
    turns = row.coord_t
    if problem.plan != "B":
        turns = digits_text(canonical_turns(turns))
    return row.coord_b, turns


def aggregate(config: ExperimentConfig, rows: Sequence[RunRow]) -> ExperimentStats:
    """Campaign statistics over collected rows.

    Censored rows count toward the cost metrics but never toward unique
    solutions or beyond-target; zero-step runs are left out of the
    probes-per-step statistics.
    """
    solved = [row for row in rows if not row.is_censored]
    unique = {solution_identity(config.problem, row) for row in solved}
    target = config.problem.energy_target
    stepped = [row.probes_per_step for row in rows if row.walk_length > 0]
    return ExperimentStats(
        sample_size=len(rows),
        censored_count=len(rows) - len(solved),
        unique_solutions=len(unique),
        beyond_target=sum(1 for row in solved if row.value < target),
        walk_length=stats([row.walk_length for row in rows]),
        cnt_probe=stats([row.cnt_probe for row in rows]),
        probes_per_step=stats(stepped) if stepped else None,
    )


def run_experiment(config: ExperimentConfig) -> tuple[ExperimentStats, list[RunRow]]:
    """Run the whole campaign, optionally writing the configured output file."""
    rows = run_rows(config)
    summary = aggregate(config, rows)
    if config.out_path is not None:
        path = Path(config.out_path)
        if config.out_format == "json":
            path.write_text(experiment_json(summary, rows))
        else:
            path.write_text(rows_csv(rows))
    return summary, rows


def improving_campaign(config: ExperimentConfig) -> tuple[int, list[RunRow]]:
    """Chain runs that ratchet a shared upper bound downward.

    Every run stops at the current bound or better (subject to the weight
    test); an uncensored run that beats the bound strictly lowers it for
    the runs that follow.  Returns the final bound and all rows.
    """
    bound = 0
    rows: list[RunRow] = []
    for index in range(config.sample_size):
        search = SearchConfig(
            seed=derive_seed(config.base_seed, index),
            probe_limit=config.probe_limit,
            buffer_capacity=config.buffer_capacity,
            mode="bound-improving",
        )
        result = run_search(search, config.problem, bound=bound)
        rows.append(RunRow.from_result(result, config.problem.n))
        if not result.is_censored and result.value < bound:
            bound = result.value
    return bound, rows


def rows_csv(rows: Sequence[RunRow]) -> str:
    """The pinned CSV table; byte-stable for identical rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.seed,
                row.coord_b,
                row.coord_t,
                row.value,
                row.cnt_probe,
                row.walk_length,
                repr(row.probes_per_step),
                int(row.is_censored),
            ]
        )
    return out.getvalue()


def parse_rows_csv(text: str) -> list[RunRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        seed, coord_b, coord_t, value, cnt_probe, walk_length, pps, censored = record
        rows.append(
            RunRow(
                seed=int(seed),
                coord_b=coord_b,
                coord_t=coord_t,
                value=int(value),
                cnt_probe=int(cnt_probe),
                walk_length=int(walk_length),
                probes_per_step=float(pps),
                is_censored=bool(int(censored)),
            )
        )
    return rows


def _metric_dict(metric: Optional[MetricStats]) -> Optional[dict]:
    if metric is None:
        return None
    return {
        "median": metric.median,
        "mean": metric.mean,
        "stdev": metric.stdev,
        "min": metric.min,
        "max": metric.max,
    }


def experiment_json(summary: ExperimentStats, rows: Sequence[RunRow]) -> str:
    payload = {
        "stats": {
            "sampleSize": summary.sample_size,
            "censoredCount": summary.censored_count,
            "uniqueSolutions": summary.unique_solutions,
            "beyondTarget": summary.beyond_target,
            "walkLength": _metric_dict(summary.walk_length),
            "cntProbe": _metric_dict(summary.cnt_probe),
            "probesPerStep": _metric_dict(summary.probes_per_step),
        },
        "rows": [
            {
                "seed": row.seed,
                "coordB": row.coord_b,
                "coordT": row.coord_t,
                "value": row.value,
                "cntProbe": row.cnt_probe,
                "walkLength": row.walk_length,
                "probesPerStep": row.probes_per_step,
                "isCensored": int(row.is_censored),
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
