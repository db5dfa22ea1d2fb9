"""Seeded experiment campaigns over the walk engine.

A campaign runs an instance under many derived seeds, collects one row per
run (the engine's result tuple, probes-per-step derived), and aggregates
order-statistics, unique-solution and beyond-target counts.  Campaigns are
shardable: any split of the run indices produces row lists that concatenate
and aggregate to exactly the single-shot result, and per-run seeds depend
only on (base seed, run index).  Only a campaign that fans out to worker
processes imports the process pool, and only the statistics and the JSON
file import ``statistics`` and ``json``, so a single run loads none of them.

CSV columns, in order:
    seed, coordB, coordT, value, cntProbe, walkLength, probesPerStep, isCensored
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from typing import Iterable, Optional, Sequence

from sawalk.engine import (
    DEFAULT_BUFFER_CAPACITY,
    DEFAULT_PROBE_LIMIT,
    DEFAULT_SEED,
    SearchConfig,
    SearchResult,
    run_search,
)
from sawalk.hpfold import HPProblem, _check_segments, digits_text

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
    import statistics

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
    is_censored: bool

    @property
    def probes_per_step(self) -> float:
        """Probes per step; a run with no step spent its probes on the draw."""
        return self.cnt_probe / (self.walk_length or 1)

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
            is_censored=result.is_censored,
        )

    def values(self) -> tuple:
        """The fields in ``CSV_COLUMNS`` order, as the CSV and JSON files hold them."""
        return (
            self.seed,
            self.coord_b,
            self.coord_t,
            self.value,
            self.cnt_probe,
            self.walk_length,
            self.probes_per_step,
            int(self.is_censored),
        )


@dataclass
class ExperimentConfig:
    problem: HPProblem
    sample_size: int = 1000
    base_seed: int = DEFAULT_SEED
    probe_limit: int = DEFAULT_PROBE_LIMIT
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample size must be at least 1")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, got {self.parallelism}")
        # refuse the run limits now, not in the first run or a worker;
        # derive_seed keeps 64 bits, so base seeds 2^64 apart would alias
        if self.base_seed >= 1 << 64:
            raise ValueError(f"base seed must be below 2^64, got {self.base_seed}")
        SearchConfig(seed=self.base_seed, probe_limit=self.probe_limit, buffer_capacity=self.buffer_capacity)


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
    from concurrent.futures import ProcessPoolExecutor

    workers = min(config.parallelism, len(indices), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(indices) // (workers * 8))
        return list(pool.map(run_one, repeat(config), indices, chunksize=chunk))


def aggregate(config: ExperimentConfig, rows: Sequence[RunRow]) -> ExperimentStats:
    """Campaign statistics over collected rows.

    Censored rows count toward the cost metrics but never toward unique
    solutions or beyond-target; zero-step runs are left out of the
    probes-per-step statistics.  A solved row whose segments do not fit
    the problem is refused.
    """
    problem = config.problem
    solved = [row for row in rows if not row.is_censored]
    unique = {problem.solution_key(row.coord_b, row.coord_t) for row in solved}
    target = problem.energy_target
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


def improving_campaign(config: ExperimentConfig) -> tuple[int, list[RunRow]]:
    """Chain runs that ratchet the problem's energy target downward.

    Every run stops at the current target or better (subject to the weight
    test); an uncensored run that beats the target strictly lowers it for
    the runs that follow.  Returns the final target and all rows.  The runs
    are chained, so a parallelism above 1 is refused before the first.
    """
    if config.parallelism > 1:
        raise ValueError(f"an improving campaign runs one run at a time, got parallelism {config.parallelism}")
    rows: list[RunRow] = []
    for index in range(config.sample_size):
        row = run_one(config, index)
        rows.append(row)
        if not row.is_censored and row.value < config.problem.energy_target:
            config = replace(config, problem=replace(config.problem, energy_target=row.value))
    return config.problem.energy_target, rows


def rows_csv(rows: Sequence[RunRow]) -> str:
    """The pinned CSV table; byte-stable for identical rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    # csv writes a float as its repr, so probesPerStep round-trips exactly
    writer.writerows(row.values() for row in rows)
    return out.getvalue()


def parse_rows_csv(text: str) -> list[RunRow]:
    """Read back ``rows_csv`` output, refusing rows it never writes: an
    ``isCensored`` other than 0 or 1, a ``coordB`` that is not 0/1 text, a
    ``coordT`` that is not 0/1/2 text one digit shorter than ``coordB``, a
    negative ``seed`` or ``walkLength``, a ``cntProbe`` short of the first
    probe and one per step, a ``probesPerStep`` other than ``cntProbe /
    walkLength`` (``cntProbe`` for zero steps), or a solved row whose
    ``value`` is a penalty."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        seed, coord_b, coord_t, value, cnt_probe, walk_length, pps, censored = record
        if censored not in ("0", "1"):
            raise ValueError(f"isCensored must be 0 or 1, got {censored!r}")
        _check_segments(coord_b, coord_t, len(coord_b))
        row = RunRow(
            seed=int(seed),
            coord_b=coord_b,
            coord_t=coord_t,
            value=int(value),
            cnt_probe=int(cnt_probe),
            walk_length=int(walk_length),
            is_censored=censored == "1",
        )
        if row.seed < 0 or row.walk_length < 0:
            raise ValueError(f"seed and walkLength must be at least 0, got {seed} and {walk_length}")
        if row.cnt_probe <= row.walk_length:
            raise ValueError(f"cntProbe must exceed walkLength, got {cnt_probe} and {walk_length}")
        if float(pps) != row.probes_per_step:
            raise ValueError(f"probesPerStep must be cntProbe / walkLength, or cntProbe for zero steps, got {pps}")
        if not row.is_censored and row.value > 0:
            raise ValueError(f"a solved row's value is at most 0, got {value}")
        rows.append(row)
    return rows


def experiment_json(summary: ExperimentStats, rows: Sequence[RunRow]) -> str:
    import json

    payload = {
        "stats": {
            "sampleSize": summary.sample_size,
            "censoredCount": summary.censored_count,
            "uniqueSolutions": summary.unique_solutions,
            "beyondTarget": summary.beyond_target,
            "walkLength": asdict(summary.walk_length),
            "cntProbe": asdict(summary.cnt_probe),
            "probesPerStep": asdict(summary.probes_per_step) if summary.probes_per_step else None,
        },
        "rows": [dict(zip(CSV_COLUMNS, row.values())) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def result_text(config: ExperimentConfig, rows: Sequence[RunRow], fmt: str) -> str:
    """Text of a result file: the CSV table, or the JSON statistics and rows."""
    if fmt == "csv":
        return rows_csv(rows)
    if fmt == "json":
        return experiment_json(aggregate(config, rows), rows)
    raise ValueError(f"unknown output format {fmt!r}")
