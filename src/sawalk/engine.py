"""Best-neighbor self-avoiding walk search with restart-on-trap.

``run_search`` is the walk: one loop whose docstring states its rules.
Cost is counted in probes (objective evaluations).  A run that exhausts its
probe budget before the stop test passes is censored, which is a normal
reportable outcome rather than an error.  Every random choice in a run is
drawn from one seeded stream, so a (seed, config, problem) triple fully
determines the result.

The walk's points are hashable digit sequences, which the problem's four
methods take and return: digit tuples, or bytes where every base fits a byte.
A ``Coordinate`` of digit tuples is built only for ``SearchResult.coordinate``
and for each event an ``observer`` sees.
"""
from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Protocol, Sequence

from sawalk.mixedradix import (
    Coordinate,
    RadixSpec,
    neighbors,
    permuted_indices,
    random_coordinate,
)

DEFAULT_SEED = 1901
DEFAULT_PROBE_LIMIT = 2**24
DEFAULT_BUFFER_CAPACITY = 2**20


class SearchProblem(Protocol):
    """What the engine needs from a problem: four methods on hashable digit sequences.

    ``run_search`` builds a ``Coordinate`` only for its result and observer.
    """

    spec: RadixSpec

    def objective(self, digits: Sequence[int]) -> float: ...

    def admissible_neighbors(self, digits: Sequence[int]) -> list[Sequence[int]]: ...

    def is_solution(self, digits: Sequence[int], value: float) -> bool: ...

    def random_coordinate(self, rng: random.Random) -> Sequence[int]: ...


@dataclass
class FunctionProblem:
    """Adapter turning a plain objective function into a search problem.

    All distance-1 moves are admissible and the stop test is value <= target.
    ``fn`` sees a ``Coordinate``; the engine-facing methods wrap and unwrap
    it.  Its points are digit tuples, since its bases may exceed a byte.
    """

    spec: RadixSpec
    fn: Callable[[Coordinate], float]
    target: float

    def objective(self, digits: tuple[int, ...]) -> float:
        return self.fn(Coordinate(self.spec, digits))

    def admissible_neighbors(self, digits: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [c.digits for c in neighbors(Coordinate(self.spec, digits))]

    def is_solution(self, digits: tuple[int, ...], value: float) -> bool:
        return value <= self.target

    def random_coordinate(self, rng: random.Random) -> tuple[int, ...]:
        return random_coordinate(self.spec, rng).digits


# an OrderedDict evicts its oldest key in O(1); a plain dict's next(iter(d))
# rescans the slots freed by earlier evictions
class VisitedBuffer(OrderedDict):
    """Insertion-ordered set of pivots with FIFO eviction past capacity.

    Pivots are the keys, so ``pivot in buffer`` is the dict's own test, in
    C.  Membership is exact for everything retained; once the buffer
    overflows, the oldest pivots are forgotten first and may be walked
    again later.  Adding a retained pivot again does not refresh its age.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        super().__init__()
        self.capacity = capacity

    def add(self, pivot: Hashable) -> None:
        # a retained key keeps its place; unlike setdefault, the assignment
        # does not test membership through a subclass's __contains__
        self[pivot] = None
        if len(self) > self.capacity:
            self.popitem(last=False)


@dataclass(frozen=True)
class SearchConfig:
    seed: int = DEFAULT_SEED
    probe_limit: int = DEFAULT_PROBE_LIMIT
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY

    def __post_init__(self) -> None:
        if self.seed < 0:
            # random.Random(-s) draws what Random(s) draws
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.probe_limit < 1:
            raise ValueError("probe limit must be at least 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    """One table row: what a run returned and what it cost.

    For solved runs the coordinate and value are the stop-test pivot; for
    censored runs they are the best the walk saw.  For plans B and C that
    best pivot need not meet the weight target: its weight may be anything
    up to the problem's ``weight_cap``.
    """

    seed: int
    coordinate: Coordinate
    value: float
    probe_count: int
    walk_length: int
    is_censored: bool
    restarts: int = 0


def run_search(
    config: SearchConfig,
    problem: SearchProblem,
    observer: Optional[Callable[[str, Coordinate, float], None]] = None,
) -> SearchResult:
    """Execute one walk until the problem's stop test passes or the probe budget ends.

    The walk is one loop over these rules:

    - The initial pivot is a random draw.  It counts as probe 1 and may
      already pass the stop test (walk length 0).
    - Before each whole step, a run that has spent ``config.probe_limit``
      probes stops censored.  A step is never cut short, so the count may
      overshoot the limit by up to one neighbourhood.
    - A step permutes the pivot's admissible neighbours with the run's
      stream and probes each one that is not in the visited buffer.  The
      first strict minimum wins, which breaks ties uniformly, and it is
      taken even when it is worse than the pivot (an uphill move).
    - A trapped pivot, with nothing left to probe, is replaced by a fresh
      random draw that costs one probe.  The buffer is kept, so the new
      segment still avoids every retained pivot.  A restart counts as a step.
    - Every new pivot enters the FIFO buffer of visited pivots.

    A solved run reports the pivot that passed the stop test; a censored run
    reports the last pivot with the lowest value.  ``observer(event, coord,
    value)``, when given, sees the initial pivot as ``"init"`` and each new
    pivot as ``"step"`` or ``"restart"``, as a ``Coordinate`` built for it.
    """
    rng = random.Random(config.seed)
    objective = problem.objective
    # VisitedBuffer and permuted_indices are read from the module at call
    # time, so a caller may rebind either to trace the walk
    visited = VisitedBuffer(config.buffer_capacity)

    pivot = problem.random_coordinate(rng)
    value = objective(pivot)
    probe_count = 1
    walk_length = 0
    restarts = 0
    visited.add(pivot)
    if observer is not None:
        observer("init", Coordinate(problem.spec, tuple(pivot)), value)
    best, best_value = pivot, value
    solved = problem.is_solution(pivot, value)
    while not solved and probe_count < config.probe_limit:
        # a trapped pivot still draws its permutation: the stream must not shift
        candidates = problem.admissible_neighbors(pivot)
        choice = None
        for i in permuted_indices(len(candidates), rng):
            candidate = candidates[i]
            if candidate in visited:
                continue
            candidate_value = objective(candidate)
            probe_count += 1
            if choice is None or candidate_value < choice_value:
                choice, choice_value = candidate, candidate_value
        if choice is None:
            choice = problem.random_coordinate(rng)
            choice_value = objective(choice)
            probe_count += 1
            restarts += 1
            event = "restart"
        else:
            event = "step"
        pivot, value = choice, choice_value
        walk_length += 1
        visited.add(pivot)
        if observer is not None:
            observer(event, Coordinate(problem.spec, tuple(pivot)), value)
        if value <= best_value:
            best, best_value = pivot, value
        solved = problem.is_solution(pivot, value)

    if solved:
        # only the stop-test pivot is sure to meet the weight constraint
        best, best_value = pivot, value
    return SearchResult(
        seed=config.seed,
        coordinate=Coordinate(problem.spec, tuple(best)),
        value=best_value,
        probe_count=probe_count,
        walk_length=walk_length,
        is_censored=not solved,
        restarts=restarts,
    )
