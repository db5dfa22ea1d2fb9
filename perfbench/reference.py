"""Reference HP scorer, written from the problem definition alone.

It shares no code with the package under test.  A chain of n beads is a
colour string (1 = H, 0 = P) plus n - 1 relative turns (0 left, 1 right,
2 forward).  Bead 0 sits at the origin facing +y; each turn rotates the
heading and then steps one lattice unit.  A fold is feasible when no bead
lands on a point an earlier bead holds; it then scores minus the number
of H-H bead pairs, not consecutive on the chain, at lattice distance 1.
An infeasible fold scores the default collision penalty
(n - first colliding bead index) + (number of colliding beads - 1),
which is at least 1.
"""
from __future__ import annotations

from itertools import product

_LEFT = {(0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0), (1, 0): (0, 1)}
_RIGHT = {after: before for before, after in _LEFT.items()}


def fold(turns: str) -> list[tuple[int, int]]:
    """Lattice position of every bead."""
    x, y = 0, 0
    heading = (0, 1)
    positions = [(x, y)]
    for t in turns:
        if t == "0":
            heading = _LEFT[heading]
        elif t == "1":
            heading = _RIGHT[heading]
        elif t != "2":
            raise ValueError(f"turn digit {t!r} is not 0, 1 or 2")
        x, y = x + heading[0], y + heading[1]
        positions.append((x, y))
    return positions


def collisions(turns: str) -> tuple[int, int]:
    """(index of the first bead landing on a taken point, number of such beads); (-1, 0) if none."""
    taken = set()
    first, count = -1, 0
    for i, point in enumerate(fold(turns)):
        if point in taken:
            count += 1
            if first < 0:
                first = i
        taken.add(point)
    return first, count


def penalty(n: int, turns: str) -> int:
    first, count = collisions(turns)
    return (n - first) + (count - 1)


def score(colours: str, turns: str) -> int:
    """Objective value of one (colours, turns) pair."""
    n = len(colours)
    if len(turns) != n - 1:
        raise ValueError(f"{n} beads need {n - 1} turns, got {len(turns)}")
    first, _ = collisions(turns)
    if first >= 0:
        return penalty(n, turns)
    positions = fold(turns)
    h = [positions[i] for i in range(n) if colours[i] == "1"]
    h_index = [i for i in range(n) if colours[i] == "1"]
    contacts = 0
    for a in range(len(h)):
        for b in range(a + 1, len(h)):
            if h_index[b] - h_index[a] > 1:
                (xa, ya), (xb, yb) = h[a], h[b]
                if abs(xa - xb) + abs(ya - yb) == 1:
                    contacts += 1
    return -contacts


def turn_census(n: int) -> tuple[int, dict[int, int]]:
    """Over all 3**(n-1) turn strings: the number that are self-avoiding,
    and the histogram of penalties of the rest."""
    feasible = 0
    penalties: dict[int, int] = {}
    for digits in product("012", repeat=n - 1):
        turns = "".join(digits)
        if collisions(turns)[0] < 0:
            feasible += 1
        else:
            value = penalty(n, turns)
            penalties[value] = penalties.get(value, 0) + 1
    return feasible, penalties


def self_check() -> None:
    """The worked 10-bead example: 1001001001 folded by 211011011 scores -4."""
    value = score("1001001001", "211011011")
    if value != -4:
        raise AssertionError(f"reference scorer gives {value} for the worked example, not -4")
