"""Best-neighbor self-avoiding walk search with restart-on-trap.

One run follows five rules: draw a random initial pivot; probe every
not-yet-visited admissible neighbor and step to the best value (ties broken
uniformly, uphill moves taken without question); repeat until the stop test
passes; restart from a fresh random pivot whenever every neighbor has been
visited; and bound memory with a FIFO buffer of visited pivots.

Cost is counted in probes (objective evaluations).  A run that exhausts its
probe budget before the stop test passes is censored, which is a normal
reportable outcome rather than an error.  Every random choice in a run is
drawn from one seeded stream, so a (seed, config, problem) triple fully
determines the result.
"""
from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

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

Observer = Callable[[str, Coordinate, float], None]


class SearchProblem(Protocol):
    """What the engine needs from a problem definition."""

    spec: RadixSpec

    def objective(self, coord: Coordinate) -> float: ...

    def admissible_neighbors(self, coord: Coordinate) -> list[Coordinate]: ...

    def is_solution(self, coord: Coordinate, value: float, target: Optional[float] = None) -> bool: ...

    def random_coordinate(self, rng: random.Random) -> Coordinate: ...


@dataclass
class FunctionProblem:
    """Adapter turning a plain objective function into a search problem.

    All distance-1 moves are admissible and the stop test is value <= target.
    """

    spec: RadixSpec
    fn: Callable[[Coordinate], float]
    target: float

    def objective(self, coord: Coordinate) -> float:
        return self.fn(coord)

    def admissible_neighbors(self, coord: Coordinate) -> list[Coordinate]:
        return neighbors(coord)

    def is_solution(self, coord: Coordinate, value: float, target: Optional[float] = None) -> bool:
        bound = self.target if target is None else target
        return value <= bound

    def random_coordinate(self, rng: random.Random) -> Coordinate:
        return random_coordinate(self.spec, rng)


class VisitedBuffer:
    """Insertion-ordered set of pivots with FIFO eviction past capacity.

    Pivots are keyed by their digit tuple, which hashes in C, so one buffer
    serves coordinates of one space.  Membership is exact for everything
    retained; once the buffer overflows, the oldest pivots are forgotten
    first and may be walked again later.  Adding a retained pivot again does
    not refresh its age.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.capacity = capacity
        # an OrderedDict evicts its oldest key in O(1); a plain dict's
        # next(iter(d)) rescans the slots freed by earlier evictions
        self._entries: OrderedDict[tuple[int, ...], None] = OrderedDict()

    def add(self, coord: Coordinate) -> None:
        entries = self._entries
        key = coord.digits
        if key in entries:
            return
        entries[key] = None
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def __contains__(self, coord: Coordinate) -> bool:
        return coord.digits in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class Trapped(Exception):
    """Every admissible neighbor of the pivot has been visited."""


@dataclass
class SearchConfig:
    seed: int = DEFAULT_SEED
    probe_limit: int = DEFAULT_PROBE_LIMIT
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY

    def __post_init__(self) -> None:
        if self.probe_limit < 1:
            raise ValueError("probe limit must be at least 1")


@dataclass
class WalkState:
    """Mutable per-run walk bookkeeping, advanced in place by saw_step."""

    pivot: Coordinate
    pivot_value: float
    walk_length: int
    visited: VisitedBuffer
    restarts: int = 0


@dataclass(frozen=True)
class SearchResult:
    """One table row: what a run returned and what it cost.

    For solved runs the coordinate and value are the stop-test pivot; for
    censored runs they are the best the walk saw.
    """

    seed: int
    coordinate: Coordinate
    value: float
    probe_count: int
    walk_length: int
    is_censored: bool
    restarts: int = 0

    @property
    def probes_per_step(self) -> float:
        if self.walk_length == 0:
            return float(self.probe_count)
        return self.probe_count / self.walk_length


def best_neighbor(
    pivot: Coordinate,
    problem: SearchProblem,
    visited: VisitedBuffer,
    rng: random.Random,
) -> tuple[Coordinate, float, int]:
    """Probe the unvisited admissible neighborhood and pick its minimum.

    Neighbors are scanned in freshly permuted order and the first strict
    minimum wins, which makes tie-breaking uniform over tied coordinates.
    Returns (choice, value, probes spent); raises Trapped when nothing is
    left to probe.  The choice stands even when it is worse than the pivot.
    """
    candidates = problem.admissible_neighbors(pivot)
    order = permuted_indices(len(candidates), rng)
    objective = problem.objective
    best = None
    best_value = 0.0
    probes = 0
    for i in order:
        coord = candidates[i]
        if coord in visited:
            continue
        value = objective(coord)
        probes += 1
        if best is None or value < best_value:
            best, best_value = coord, value
    if best is None:
        raise Trapped
    return best, best_value, probes


def saw_step(
    state: WalkState,
    problem: SearchProblem,
    rng: random.Random,
    observer: Optional[Observer] = None,
) -> int:
    """Advance the walk by one step, restarting if the pivot is trapped.

    Both branches count as a step.  A restart draws a fresh random pivot
    (under the problem's usual constraints) and spends exactly one probe to
    value it; the visited buffer is kept, so the new segment still avoids
    every remembered pivot.  Returns the number of probes spent.
    """
    try:
        pivot, value, probes = best_neighbor(state.pivot, problem, state.visited, rng)
        event = "step"
    except Trapped:
        pivot = problem.random_coordinate(rng)
        value = problem.objective(pivot)
        probes = 1
        state.restarts += 1
        event = "restart"
    state.pivot = pivot
    state.pivot_value = value
    state.walk_length += 1
    state.visited.add(pivot)
    if observer is not None:
        observer(event, pivot, value)
    return probes


def run_search(
    config: SearchConfig,
    problem: SearchProblem,
    target: Optional[float] = None,
    observer: Optional[Observer] = None,
) -> SearchResult:
    """Execute one walk until the stop test passes or the probe budget ends.

    The stop test holds the problem's own target unless ``target`` replaces
    it, which lets a sequence of runs ratchet a shared bound downward.  The
    initial pivot counts as probe 1 and may already satisfy the stop test
    (walk length 0).
    """
    rng = random.Random(config.seed)
    pivot = problem.random_coordinate(rng)
    value = problem.objective(pivot)
    probe_count = 1
    state = WalkState(
        pivot=pivot,
        pivot_value=value,
        walk_length=0,
        visited=VisitedBuffer(config.buffer_capacity),
    )
    state.visited.add(pivot)
    if observer is not None:
        observer("init", pivot, value)

    best, best_value = pivot, value
    solved = problem.is_solution(pivot, value, target)
    censored = False
    while not solved:
        if probe_count >= config.probe_limit:
            censored = True
            break
        probe_count += saw_step(state, problem, rng, observer)
        if state.pivot_value <= best_value:
            best, best_value = state.pivot, state.pivot_value
        solved = problem.is_solution(state.pivot, state.pivot_value, target)

    if solved:
        # report the pivot that passed the stop test, not merely the best
        # value seen: only it is guaranteed to satisfy the weight constraint
        best, best_value = state.pivot, state.pivot_value
    return SearchResult(
        seed=config.seed,
        coordinate=best,
        value=best_value,
        probe_count=probe_count,
        walk_length=state.walk_length,
        is_censored=censored,
        restarts=state.restarts,
    )
