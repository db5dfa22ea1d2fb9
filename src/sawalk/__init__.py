"""Self-avoiding walk search over mixed-radix coordinate spaces.

The package couples a generic best-neighbor walk engine (restart on trap,
FIFO visited buffer, probe-count censoring) with the 2D square-lattice HP
chain-folding objective, an exhaustive small-instance oracle, and a seeded
experiment harness with a CLI.
"""

from sawalk.engine import (
    FunctionProblem,
    SearchConfig,
    SearchResult,
    VisitedBuffer,
    run_search,
)
from sawalk.harness import ExperimentConfig, ExperimentStats, stats
from sawalk.hpfold import (
    FoldOutcome,
    HPProblem,
    decode_fold,
    make_problem,
    objective_value,
    target_energy,
    weight,
)
from sawalk.mixedradix import (
    Coordinate,
    HasseStats,
    RadixSpec,
    SpaceTooLargeError,
    hasse_dot,
    hasse_stats,
    neighbors,
    parse_coordinate,
    parse_spec,
    random_coordinate,
    rank_distance,
)
from sawalk.oracle import OracleReport, enumerate_optimum

__all__ = [
    "Coordinate",
    "ExperimentConfig",
    "ExperimentStats",
    "FoldOutcome",
    "FunctionProblem",
    "HPProblem",
    "HasseStats",
    "OracleReport",
    "RadixSpec",
    "SearchConfig",
    "SearchResult",
    "SpaceTooLargeError",
    "VisitedBuffer",
    "decode_fold",
    "enumerate_optimum",
    "hasse_dot",
    "hasse_stats",
    "make_problem",
    "neighbors",
    "objective_value",
    "parse_coordinate",
    "parse_spec",
    "random_coordinate",
    "rank_distance",
    "run_search",
    "stats",
    "target_energy",
    "weight",
]

__version__ = "0.1.0"
