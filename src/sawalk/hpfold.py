"""The 2-color HP chain-folding objective on the 2D square lattice.

A chain of n beads is described by two coordinate segments: a binary string
of length n giving bead colors ('1' hydrophobic, '0' polar) and a ternary
string of length n-1 giving relative turns (0 left, 1 right, 2 forward)
that folds the chain onto the integer grid.  Feasible folds score the
negated count of non-consecutive H-H lattice contacts; folds that revisit a
grid point score a positive penalty, ``default_penalty``, that grows with
how early and how often the chain collides.

Three search formulations are supported: plan A fixes the colors and folds
the chain, plan B fixes the fold and searches colors (the inverse problem),
and plan C searches both segments simultaneously under a weight cap.

One fold record (``_fold_analysis``) decodes folds and lists their contacts
for every caller but the exhaustive oracle, whose depth-first scan places a
turn prefix once for all its extensions and is tested against this record.
It is memoized for the walks that revisit folds.  Plan A, whose every move
changes one turn, keeps its pivots out of the record, since every pivot is
a new fold, and values its turn moves from lattice bitboards of that pivot
(``_PivotBoards``): each move rotates the chain's tail rigidly about one
bead, so its collisions and new contacts are a few big-int operations
against the pivot's head.  The next pivot is one of those moves, so its
boards are derived from the last pivot's and the move; only the first
pivot, a restart, and a move that leaves the last pivot's layout are built
from their turns.  The moves are found by their candidate's digits, in a
table built next to the candidate list and held in one module slot, so no
walk writes to its problem.  A problem picks its objective once per run,
when the engine binds it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, islice
from operator import add, and_, or_
from typing import Callable, Optional, Sequence, Union

from sawalk.mixedradix import RadixSpec, sample_weight_positions

Digits = Union[str, Sequence[int]]

# lattice points are packed as (x << 16) + y; safe for |y| < 2**15, which
# holds for every chain of at most 2**15 beads
_X = 1 << 16
MAX_BEADS = 1 << 15

PLANS = ("A", "B", "C")


# a segment's digit text, base by base: exactly these ASCII digits, and the rule
_DIGIT_TEXT = {
    2: (frozenset("01"), "colour segments must be binary digits 0/1"),
    3: (frozenset("012"), "turn segments must be ternary digits 0/1/2"),
}
_ASCII_DIGITS = bytes.maketrans(b"012", bytes(range(3)))


def as_digits(value: Digits, base: int = 3) -> tuple[int, ...]:
    """The one reader of a segment's digits, each below ``base``: 2 for colours, 3 for turns.

    Text must be exactly ASCII digits, unpadded; a sequence must hold ints,
    which are taken as they are, never coerced.  Anything else is refused.
    """
    alphabet, rule = _DIGIT_TEXT[base]
    if isinstance(value, str):
        if alphabet.issuperset(value):
            return tuple(value.encode().translate(_ASCII_DIGITS))
    else:
        digits = tuple(value)
        if all(type(d) is int and 0 <= d < base for d in digits):
            return digits
    raise ValueError(f"{rule}, got {value!r}")


def segments(coord_b: Digits, coord_t: Digits, n: Optional[int] = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one reader of a chain: n colour digits and n - 1 turn digits, n the colours' count unless given."""
    bits, turns = as_digits(coord_b, 2), as_digits(coord_t)
    if n is None:
        n = len(bits)
    if len(bits) != n or len(turns) != n - 1:
        raise ValueError(f"segments must be {n} digits 0/1 and {n - 1} digits 0/1/2, got {coord_b!r} {coord_t!r}")
    return bits, turns


def digits_text(digits: Sequence[int]) -> str:
    return "".join(str(d) for d in digits)


def weight(binary: Digits) -> int:
    """Number of H beads (1-digits) in a binary segment."""
    return sum(as_digits(binary, 2))


@dataclass(frozen=True)
class FoldOutcome:
    """Decoded lattice placement of a chain, with its collision report."""

    positions: tuple[tuple[int, int], ...]
    feasible: bool
    first_collision_index: Optional[int]
    collision_count: int
    pairs: tuple[tuple[int, int], ...]  # sorted contact pairs; empty unless feasible


# headings 0-3 point up, right, down and left; _TURNED[h][t] is the heading
# after turn digit t (0 left, 1 right, 2 straight)
_STEP = (1, _X, -1, -_X)
_TURNED = ((3, 1, 0), (0, 2, 1), (1, 3, 2), (2, 0, 3))


def _trace(turns: Sequence[int]) -> list[int]:
    """Packed lattice points of the chain, collisions not yet examined."""
    p = h = 0
    points = [0]
    append = points.append
    for t in turns:
        h = _TURNED[h][t]
        p += _STEP[h]
        append(p)
    return points


# 1 << 16 entries hold all 3**9 = 19,683 folds of a 10-bead chain, which a
# serial n=10 campaign revisits run after run; 4096 entries would still serve
# an n=20 colour walk but drop that campaign from 98% to 87% hits.  A plan A
# walk places its pivots on bitboards (_PivotBoards) without the record and
# values their turn moves there, so only its random draws enter the cache.
# The walk's keys are bytes; other callers' digit tuples are separate entries.
@lru_cache(maxsize=1 << 16)
def _fold_analysis(turns: Union[bytes, tuple[int, ...]]) -> tuple[Optional[int], int, tuple[tuple[int, int], ...]]:
    """The one fold record: (first collision, collision count, contact pairs).

    Placement continues past collisions so the collision count is total.
    Contact pairs (i, j), i + 1 < j, are the lattice-adjacent beads of a
    feasible fold, sorted; a colliding fold has none.  Walk steps re-decode
    the same fold many times (every color move keeps the turn segment), so
    the record is memoized; it holds no lattice points, which keeps the
    cache small.
    """
    if len(turns) >= MAX_BEADS:
        raise ValueError(f"chains of more than {MAX_BEADS} beads are not supported")
    points = _trace(turns)
    index = dict(zip(points, range(len(points))))
    if len(index) < len(points):
        seen = set()
        for first, p in enumerate(points):
            if p in seen:
                break
            seen.add(p)
        return first, len(points) - len(index), ()
    get = index.get
    pairs = []
    append = pairs.append
    # each adjacency is seen once, from its lower or its left bead
    for i, p in enumerate(points):
        j = get(p + 1)
        if j is not None and abs(j - i) > 1:
            append((i, j) if i < j else (j, i))
        j = get(p + _X)
        if j is not None and abs(j - i) > 1:
            append((i, j) if i < j else (j, i))
    pairs.sort()
    return None, 0, tuple(pairs)


# (boards, {candidate: (k, r)}) of the latest feasible plan A pivot, or
# (None, {}).  An entry values the point that keys it, whose bytes name its
# colours and turns: whichever problem or run left the table, a hit is that
# point's true value and a miss reads the record.  One assignment replaces
# it, so a reader always sees a whole table.
_turn_moves = (None, {})


def _unpack(p: int) -> tuple[int, int]:
    y = ((p + (1 << 15)) & (_X - 1)) - (1 << 15)
    return (p - y) >> 16, y


# Plan A turn moves valued from their pivot.  Changing turn k from digit d to
# e turns the headings of steps k.. by _QUARTERS[e] - _QUARTERS[d] quarter
# turns clockwise, which rotates beads k+1.. rigidly about bead k: a pivot
# move (Madras & Sokal 1988).  Beads 0..k, the head, stay where they are.
_QUARTERS = _TURNED[0]
# _MOVE_ROTATIONS[d]: the quarter turns of the moves from turn digit d to
# d - 1 and d + 1, in that order, as admissible_neighbors lists them
_MOVE_ROTATIONS = tuple(
    tuple((_QUARTERS[e] - _QUARTERS[d]) & 3 for e in (d - 1, d + 1) if 0 <= e <= 2)
    for d in range(3)
)

# Bitboard layout.  Bead 0 sits at the origin and m >= 1 bounds the pivot's
# |x| and |y|, so the pivot and its rotations about the origin lie in the
# square [-m, m]^2.  Move (k, r) keeps the tail rotated by r about the origin
# and places the head against it, shifted by R P_k - P_k, whose coordinates
# lie in [-2m, 2m]; the placed head lies in [-3m, 3m]^2.  Cell (x, y) is bit
# origin + x + stride * y, with stride 4m + 2 and origin (m + 1)(stride + 1):
# - a tail cell and a placed head cell, or its lattice neighbour, differ in x
#   by at most 4m + 1 < stride, so equal bit indices mean equal cells, and
#   a head cell past the end of its row cannot pose as a tail cell;
# - the cells of [-m - 1, m + 1]^2 have indices >= 0, so the head cells that
#   a right shift drops below bit 0 can neither meet nor touch the tail.
# A pivot built from its turns takes m from its own extent; one derived from
# the move that made it keeps its parent's m, which still bounds it.
#
# Memory: each of the 4(n + 1) prefix ints and 4 H-cell ints (four
# rotations) has bits below stride * (2m + 2), so the boards take about
# 2(n + 2)(2m + 1)(m + 1) bytes.  Pivots past _BOARD_BYTES (a long chain, or
# one stretched far from bead 0) keep the fold record path: n = 25 fits
# whatever the fold (m <= 24: 66 kB), n = 1000 fits while m <= 44.
_BOARD_BYTES = 1 << 23


def _shifted(cells: int, shift: int) -> int:
    return cells << shift if shift >= 0 else cells >> -shift


class _PivotBoards:
    """A feasible plan A pivot as lattice bitboards, for valuing its turn moves.

    ``placements[r][j]`` is bead j's cell with the fold rotated r quarter
    turns clockwise about the origin, ``cells[r][j]`` the OR of the cells of
    beads 0..j-1, and ``h_cells[r]`` that of all its H beads; ``square``
    holds the cells of the layout's [-m, m]^2.  Move (k, r) meets the
    rotated tail ``cells[r][n] ^ cells[r][k + 1]`` with the head
    ``cells[0][k + 1]``, shifted by bead k's offset between the two
    placements.  Collisions are their common cells, and the H-H contacts
    across bead k are four shifted ANDs of their H cells: a feasible value
    takes a fixed number of big-int operations, a penalty a binary search
    for the first collision more.  Both equal the fold record's.

    The boards come from one of two sources.  ``_pivot_boards`` builds them
    from a pivot's turns.  ``moved`` derives those of the pivot that a move
    makes from the boards of the pivot it moved, in the same layout: the
    head's cells are kept and the tail's are the old ones, rotated and
    shifted.  It gives none when the moved tail meets the head (the new
    pivot collides) or leaves the layout's square; the walk then builds the
    new pivot's boards from its turns.
    """

    __slots__ = ("stride", "square", "placements", "cells", "h_cells", "base")

    def __init__(
        self,
        bits: Sequence[int],
        stride: int,
        square: int,
        placements: list[list[int]],
        cells: list[list[int]],
        h_cells: list[int],
    ):
        self.stride = stride
        self.square = square
        self.placements = placements
        self.cells = cells
        self.h_cells = h_cells
        # base[k]: move k's value before its H-H contacts across bead k are
        # counted: the pivot's other H-H contacts, negated, plus the bond
        # (k, k+1), which the shifted ANDs count when both beads are H.  Each
        # H-H contact is seen once, from its lower or its left bead.
        n = len(bits)
        h_beads = dict(zip(compress(placements[0], bits), compress(range(n), bits)))
        get = h_beads.get
        across = [0] * n
        for p, i in h_beads.items():
            for j in (get(p + 1), get(p + stride)):
                if j is not None and not -1 <= j - i <= 1:
                    across[0] -= 1
                    across[min(i, j)] += 1
                    across[max(i, j)] -= 1
        self.base = list(map(add, accumulate(across), map(and_, bits, bits[1:])))

    def value(self, k: int, r: int) -> int:
        """Value of the fold with beads k+1.. rotated r quarter turns about bead k."""
        cells = self.cells[r]
        n = len(cells) - 1
        shift = self.placements[r][k] - self.placements[0][k]
        head = self.cells[0][k + 1]
        head = head << shift if shift >= 0 else head >> -shift
        tail = cells[n] ^ cells[k + 1]
        if head & tail:
            # tail beads are distinct and meet only head cells, so the first
            # collision is the least j whose tail beads k+1..j meet the head
            lo, hi = k + 1, n - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if head & (cells[mid + 1] ^ cells[k + 1]):
                    hi = mid
                else:
                    lo = mid + 1
            return default_penalty(n, lo, (head & tail).bit_count())
        h_cells = self.h_cells[0]
        h_head = head & (h_cells << shift if shift >= 0 else h_cells >> -shift)
        h_tail = tail & self.h_cells[r]
        w = self.stride
        return self.base[k] - (
            ((h_head << 1) & h_tail).bit_count()
            + ((h_head >> 1) & h_tail).bit_count()
            + ((h_head << w) & h_tail).bit_count()
            + ((h_head >> w) & h_tail).bit_count()
        )

    def moved(self, bits: Sequence[int], k: int, r: int) -> Optional[_PivotBoards]:
        """Boards of the fold that move (k, r) makes, in this layout, or None.

        In rotation s the new fold's head is this fold's, and its tail is
        this fold's in rotation t = s + r, shifted so that bead k lands on
        its cell in rotation s.  None if that tail meets the head or leaves
        the square; the rotations of a fold inside the square stay inside,
        so rotation 0 alone is tested.
        """
        placements, cells, h_cells = self.placements, self.cells, self.h_cells
        n = len(bits)
        moved_placements, moved_cells, moved_h_cells = [], [], []
        for s in range(4):
            t = (s + r) & 3
            shift = placements[s][k] - placements[t][k]
            tail = list(map(shift.__add__, islice(placements[t], k + 1, None)))
            # a tail cell below bit 0 lies outside the square, and the shift
            # would drop it: range-check the placements before shifting
            if not s and min(tail) < 0:
                return None
            head = cells[s][k + 1]
            tail_cells = _shifted(cells[t][n] ^ cells[t][k + 1], shift)
            if not s and (tail_cells & ~self.square or tail_cells & head):
                return None
            placed = placements[s][: k + 1]
            placed += tail
            moved_placements.append(placed)
            prefix = cells[s][: k + 1]
            prefix += accumulate(map((1).__lshift__, tail), or_, initial=head)
            moved_cells.append(prefix)
            moved_h_cells.append((h_cells[s] & head) | (_shifted(h_cells[t], shift) & tail_cells))
        return _PivotBoards(bits, self.stride, self.square, moved_placements, moved_cells, moved_h_cells)


def _pivot_boards(bits: Sequence[int], turns: Sequence[int]) -> Optional[_PivotBoards]:
    """Boards of a pivot built from its turns; None if it collides or is past _BOARD_BYTES."""
    n = len(bits)
    # heading of step j, unreduced: step j goes _STEP[headings[j] & 3]
    headings = list(accumulate(map(_QUARTERS.__getitem__, turns)))
    xs = list(accumulate(map(((0, 1, 0, -1) * n).__getitem__, headings), initial=0))
    ys = list(accumulate(map(((1, 0, -1, 0) * n).__getitem__, headings), initial=0))
    m = max(max(xs), -min(xs), max(ys), -min(ys))
    if 2 * (n + 2) * (2 * m + 1) * (m + 1) > _BOARD_BYTES:
        return None
    stride = 4 * m + 2
    origin = (m + 1) * (stride + 1)
    # rotating the fold r quarter turns clockwise adds r to every heading
    steps = (stride, 1, -stride, -1)  # up, right, down, left
    placements = [
        list(accumulate(map(((steps[r:] + steps[:r]) * n).__getitem__, headings), initial=origin))
        for r in range(4)
    ]
    cells = [list(accumulate(map((1).__lshift__, placed), or_, initial=0)) for placed in placements]
    if cells[0][n].bit_count() < n:
        return None  # two beads share a cell
    h_cells = [sum(map((1).__lshift__, compress(placed, bits))) for placed in placements]
    row = ((1 << (2 * m + 1)) - 1) << (origin - m * (stride + 1))  # the cells (-m..m, -m)
    square = sum(row << (stride * y) for y in range(2 * m + 1))
    return _PivotBoards(bits, stride, square, placements, cells, h_cells)


def decode_fold(ternary: Digits) -> FoldOutcome:
    """Fold a chain from its turn encoding.

    Bead 0 sits at the origin with the heading pointing up the y axis; each
    digit first rotates the heading (0 left, 1 right, 2 straight) and then
    advances one lattice unit to place the next bead.
    """
    turns = as_digits(ternary)
    first, collisions, pairs = _fold_analysis(turns)
    return FoldOutcome(
        positions=tuple(_unpack(p) for p in _trace(turns)),
        feasible=collisions == 0,
        first_collision_index=first,
        collision_count=collisions,
        pairs=pairs,
    )


def _hh_count(pairs: Sequence[tuple[int, int]], bits: Sequence[int]) -> int:
    count = 0
    for i, j in pairs:
        if bits[i] and bits[j]:
            count += 1
    return count


def default_penalty(n: int, first_collision: int, collision_count: int) -> int:
    """The one infeasibility rule: earlier and more numerous collisions are worse.

    Always >= 1, so penalties never overlap the feasible range (<= 0).
    """
    return (n - first_collision) + (collision_count - 1)


def objective_value(coord_b: Digits, coord_t: Digits) -> int:
    """Energy of a feasible fold (-contacts) or its infeasibility penalty."""
    bits, turns = segments(coord_b, coord_t)
    first, collisions, pairs = _fold_analysis(turns)
    if collisions:
        return default_penalty(len(bits), first, collisions)
    return -_hh_count(pairs, bits)


def target_energy(n: int) -> int:
    """Lowest reachable energy for an all-H chain of n beads on the square grid.

    An n-cell grid polyomino has at most 2n - ceil(2*sqrt(n)) adjacent cell
    pairs; subtracting the n - 1 chain bonds leaves the contact bound.
    """
    if n < 3:
        raise ValueError("chains need at least 3 beads")
    ceil_2_sqrt_n = math.isqrt(4 * n - 1) + 1
    return -(n + 1 - ceil_2_sqrt_n)


@dataclass(frozen=True)
class HPProblem:
    """One folding search instance: objective, move filter, and stop test.

    Its points are bytes: n binary color digits, then n-1 ternary turn
    digits.  The walk moves only in a segment that is not fixed: plan A
    fixes the colors, plan B the fold, plan C neither.  Color moves are
    admissible only while the resulting weight stays at or below
    ``weight_cap``; the stop test demands the exact target weight.  Every
    construction checks the values, ``dataclasses.replace`` included.
    """

    n: int
    weight_target: int
    energy_target: int
    weight_cap: int
    fixed_binary: Optional[tuple[int, ...]] = None
    fixed_ternary: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        n, w = self.n, self.weight_target
        if not 3 <= n <= MAX_BEADS:
            raise ValueError(f"chains need 3 to {MAX_BEADS} beads, got {n}")
        if not 0 <= w <= n:
            raise ValueError(f"weight target {w} out of range for {n} beads")
        if self.energy_target is None:
            raise ValueError("an energy target is required")
        if self.energy_target > 0:
            raise ValueError("energy targets are zero or negative")
        if self.fixed_binary is not None and len(self.fixed_binary) != n:
            raise ValueError(f"binary segment has {len(self.fixed_binary)} digits, expected {n}")
        if self.fixed_ternary is not None and len(self.fixed_ternary) != n - 1:
            raise ValueError(f"ternary segment has {len(self.fixed_ternary)} digits, expected {n - 1}")
        if self.fixed_binary is not None and sum(self.fixed_binary) != w:
            raise ValueError(f"fixed binary segment has weight {sum(self.fixed_binary)}, not {w}")
        if self.weight_cap < w:
            raise ValueError("weight cap below the weight target makes the stop test unreachable")

    @property
    def plan(self) -> str:
        """The plan letter, read from the fixed segments: A fixes the colours, B the fold, C neither."""
        return "A" if self.fixed_binary is not None else "B" if self.fixed_ternary is not None else "C"

    @property
    def spec(self) -> RadixSpec:
        """The point space, built on each read: once per result and observer event."""
        return RadixSpec(((2, self.n), (3, self.n - 1)))

    @property
    def objective(self) -> Callable[[bytes], int]:
        """Energy of a point's fold (-H-H contacts), or its penalty.

        Fixed colors (plan A) value the turn moves of the latest pivot from
        its bitboards and everything else from the fold record; free colors
        always read the record.  The choice is made once per run, when the
        engine binds this objective, so no probe pays for it.
        """
        return self._record_objective if self.fixed_binary is None else self._turn_move_objective

    def _record_objective(self, digits: bytes) -> int:
        # unchecked: points come from random_coordinate and admissible_neighbors
        n = self.n
        first, collisions, pairs = _fold_analysis(digits[n:])
        if collisions:
            return default_penalty(n, first, collisions)
        return -_hh_count(pairs, digits)

    def _turn_move_objective(self, digits: bytes) -> int:
        boards, moves = _turn_moves
        move = moves.get(digits)
        if move is None:
            return self._record_objective(digits)
        return boards.value(*move)

    def admissible_neighbors(self, digits: bytes) -> list[bytes]:
        """Distance-1 moves the plan admits, position-major, -1 before +1.

        The engine's random permutation indexes into this list, so its order
        is part of every walk's behaviour.
        """
        global _turn_moves
        n = self.n
        scratch = bytearray(digits)
        # a bound snapshot of the scratch copies it in C, faster than bytes()
        snapshot = memoryview(scratch).tobytes
        result: list[bytes] = []
        append = result.append
        if self.fixed_binary is None:
            below_cap = sum(digits[:n]) < self.weight_cap
            for i in range(n):
                d = digits[i]
                if d or below_cap:
                    scratch[i] = 1 - d
                    append(snapshot())
                    scratch[i] = d
        if self.fixed_ternary is None:
            for i in range(n, 2 * n - 1):
                d = digits[i]
                if d > 0:
                    scratch[i] = d - 1
                    append(snapshot())
                if d < 2:
                    scratch[i] = d + 1
                    append(snapshot())
                scratch[i] = d
        if self.fixed_binary is not None:
            # a pivot that one of the last pivot's moves made derives its
            # boards from that pivot's; the first pivot, a restart, and a
            # move that leaves the old layout build them from the turns
            bits, turns = digits[:n], digits[n:]
            boards, moves = _turn_moves
            move = moves.get(digits)
            boards = boards.moved(bits, *move) if move is not None else None
            if boards is None:
                boards = _pivot_boards(bits, turns)
            moves = {}  # stays empty for a colliding pivot or one past the bound
            if boards is not None:
                turned = [(k, r) for k, d in enumerate(turns) for r in _MOVE_ROTATIONS[d]]
                moves = dict(zip(result, turned))
            _turn_moves = (boards, moves)
        return result

    def is_solution(self, digits: bytes, value: int) -> bool:
        """Stop test: value at or below the energy target and exact target weight."""
        return value <= self.energy_target and sum(digits[: self.n]) == self.weight_target

    def random_coordinate(self, rng: random.Random) -> bytes:
        """Initial or restart draw: a fixed segment is kept, a free one drawn at the target weight."""
        bits = self.fixed_binary or sample_weight_positions(rng, self.n, self.weight_target)
        turns = self.fixed_ternary or tuple(rng.randrange(3) for _ in range(self.n - 1))
        return bytes(bits + turns)

    def solution_key(self, coord_b: str, coord_t: str) -> tuple[str, str]:
        """Identity of a solution for uniqueness counting, from its digit texts.

        The first turn digit only orients the whole fold on the grid, so
        where the fold is searched (plans A and C) it is forced to 2: the
        three rotations of one conformation share a key while mirror images
        keep theirs.  A fixed fold (plan B) is reported verbatim.  Texts that
        do not fit the problem are refused.
        """
        segments(coord_b, coord_t, self.n)
        if self.fixed_ternary is not None:
            return coord_b, coord_t
        return coord_b, "2" + coord_t[1:]


def make_problem(plan: str, n: Optional[int] = None, weight_target: Optional[int] = None, energy_target: Optional[int] = None,
                 coord_b: Optional[Digits] = None, coord_t: Optional[Digits] = None, weight_cap: Optional[int] = None) -> HPProblem:
    """Assemble an HPProblem for one of the three plans; the problem checks its values.

    The one reader of the plan letter, which it turns into fixed segments.
    Plan A requires the binary segment (its weight is the target weight)
    and admits no weight cap, plan B the ternary segment plus a weight
    target, and plan C fixes neither; a segment the plan searches may not
    be fixed.  The weight cap defaults to one above the target.  The energy
    target is never checked for achievability; unreachable targets simply
    leave runs censored.
    """
    plan = plan.strip().upper()
    if plan not in PLANS:
        raise ValueError(f"plan must be one of {PLANS}, got {plan!r}")

    fixed_b = as_digits(coord_b, 2) if coord_b is not None else None
    fixed_t = as_digits(coord_t) if coord_t is not None else None

    if plan == "A":
        if fixed_b is None:
            raise ValueError("plan A requires the binary segment")
        if fixed_t is not None:
            raise ValueError("plan A searches the fold and admits no ternary segment")
        if weight_cap is not None:
            raise ValueError("plan A searches the fold and admits no weight cap")
        if n is None:
            n = len(fixed_b)
        if weight_target is None:
            weight_target = sum(fixed_b)
    elif plan == "B":
        if fixed_t is None:
            raise ValueError("plan B requires the ternary segment")
        if fixed_b is not None:
            raise ValueError("plan B searches the colors and admits no binary segment")
        if n is None:
            n = len(fixed_t) + 1
        if weight_target is None:
            raise ValueError("plan B requires a weight target")
    else:
        if fixed_b is not None or fixed_t is not None:
            raise ValueError("plan C admits no fixed segments")
        if n is None or weight_target is None:
            raise ValueError("plan C requires the chain length and weight target")

    return HPProblem(
        n=n,
        weight_target=weight_target,
        energy_target=energy_target,
        weight_cap=weight_target + 1 if weight_cap is None else weight_cap,
        fixed_binary=fixed_b,
        fixed_ternary=fixed_t,
    )
