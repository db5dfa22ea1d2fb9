"""Mixed-radix coordinate spaces and their distance-1 adjacency structure.

A space is a concatenation of fixed-base digit segments, e.g. two binary
digits followed by two ternary digits.  Coordinates are digit strings over
that space; two coordinates are adjacent when exactly one digit differs by
one.  This module provides the coordinate representation, the rank distance
(sum of absolute per-digit differences), neighborhood generation, uniform
sampling, adjacency-graph statistics counted in closed form for a space of
any size, and DOT export for spaces small enough to enumerate.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

_DIGIT_CHARS = string.digits + string.ascii_lowercase  # text form supports bases up to 36


class SpaceTooLargeError(ValueError):
    """Raised when an operation would have to materialize too many coordinates."""

    def __init__(self, size: int, cap: int, unit: str = "coordinates"):
        self.size = size
        self.cap = cap
        super().__init__(f"space has {size} {unit}, exceeding the cap of {cap}")


@dataclass(frozen=True)
class RadixSpec:
    """An ordered concatenation of (base, length) digit segments.

    The total space size is the product of base**length over all segments;
    it is never enumerated implicitly, so arbitrarily large specs are legal
    to construct.
    """

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a RadixSpec needs at least one segment")
        for base, length in self.segments:
            if base < 2:
                raise ValueError(f"segment base must be >= 2, got {base}")
            if length < 1:
                raise ValueError(f"segment length must be >= 1, got {length}")

    @cached_property
    def digit_count(self) -> int:
        return sum(length for _, length in self.segments)

    @cached_property
    def position_bases(self) -> tuple[int, ...]:
        """Base of every digit position, segments flattened left to right."""
        bases: list[int] = []
        for base, length in self.segments:
            bases.extend([base] * length)
        return tuple(bases)

    @cached_property
    def segment_bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open (start, end) digit index range of each segment."""
        bounds = []
        start = 0
        for _, length in self.segments:
            bounds.append((start, start + length))
            start += length
        return tuple(bounds)

    @cached_property
    def size(self) -> int:
        n = 1
        for base, length in self.segments:
            n *= base**length
        return n

    def __str__(self) -> str:
        return ".".join(f"{base}^{length}" for base, length in self.segments)


def parse_spec(text: str) -> RadixSpec:
    """Parse the text form ``BASE^LENGTH[.BASE^LENGTH]*``, e.g. ``2^2.3^2``."""
    segments = []
    for part in text.strip().split("."):
        base_text, sep, length_text = part.partition("^")
        if not sep:
            raise ValueError(f"bad segment {part!r}: expected BASE^LENGTH")
        segments.append((int(base_text), int(length_text)))
    return RadixSpec(tuple(segments))


@dataclass(frozen=True)
class Coordinate:
    """One point of a mixed-radix space, stored as a flat digit tuple."""

    spec: RadixSpec
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        bases = self.spec.position_bases
        if len(self.digits) != len(bases):
            raise ValueError(
                f"expected {len(bases)} digits, got {len(self.digits)}"
            )
        for d, base in zip(self.digits, bases):
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")

    def __str__(self) -> str:
        parts = []
        for start, end in self.spec.segment_bounds:
            parts.append("".join(_DIGIT_CHARS[d] for d in self.digits[start:end]))
        return ".".join(parts)


def parse_coordinate(spec: RadixSpec, text: str) -> Coordinate:
    """Parse the canonical text form: digit strings joined by '.' per segment."""
    parts = text.strip().split(".")
    if len(parts) != len(spec.segments):
        raise ValueError(
            f"expected {len(spec.segments)} segments, got {len(parts)} in {text!r}"
        )
    digits: list[int] = []
    for part, (base, length) in zip(parts, spec.segments):
        if len(part) != length:
            raise ValueError(f"segment {part!r} should have {length} digits")
        for ch in part:
            digits.append(int(ch, 36))
    return Coordinate(spec, tuple(digits))


def rank_distance(a: Coordinate, b: Coordinate) -> int:
    """Sum of absolute per-digit differences between two coordinates.

    The per-digit distance is plain (non-cyclic) arithmetic difference, and
    the distance over concatenated segments is the sum over all positions.
    Hamming distance falls out as the binary-segment special case.
    """
    if a.spec != b.spec:
        raise ValueError("coordinates belong to different specs")
    return sum(abs(x - y) for x, y in zip(a.digits, b.digits))


def neighbors(coord: Coordinate) -> list[Coordinate]:
    """All coordinates at rank distance exactly 1 from ``coord``.

    Each neighbor changes one digit by +1 or -1 while staying inside
    [0, base-1].  Order is deterministic: position-major, -1 before +1.
    """
    spec = coord.spec
    digits = coord.digits
    result: list[Coordinate] = []
    for i, base in enumerate(spec.position_bases):
        d = digits[i]
        if d > 0:
            result.append(Coordinate(spec, digits[:i] + (d - 1,) + digits[i + 1 :]))
        if d + 1 < base:
            result.append(Coordinate(spec, digits[:i] + (d + 1,) + digits[i + 1 :]))
    return result


def degree(coord: Coordinate) -> int:
    """Closed-form neighborhood size: boundary digits move one way, inner two."""
    total = 0
    for d, base in zip(coord.digits, coord.spec.position_bases):
        total += 1 if d == 0 or d == base - 1 else 2
    return total


def permuted_indices(count: int, rng: random.Random) -> list[int]:
    """A uniform random permutation of range(count), Fisher-Yates via the stream.

    The same order, and the same ``rng`` state after it, as
    ``rng.shuffle`` of ``list(range(count))``: each swap index is drawn as
    ``Random._randbelow`` draws it, ``getrandbits`` of the bound's bit
    length, redrawn while out of range.
    """
    order = list(range(count))
    getrandbits = rng.getrandbits
    for i in range(count - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def sample_weight_positions(rng: random.Random, length: int, weight: int) -> tuple[int, ...]:
    """Digits of a uniform binary string of the given length and exact weight."""
    if not 0 <= weight <= length:
        raise ValueError(f"weight {weight} out of range for length {length}")
    ones = set(rng.sample(range(length), weight))
    return tuple(1 if i in ones else 0 for i in range(length))


def random_coordinate(spec: RadixSpec, rng: random.Random) -> Coordinate:
    """Draw a coordinate uniformly at random, one digit per position, left to right."""
    return Coordinate(spec, tuple(rng.randrange(base) for base in spec.position_bases))


def iter_space(spec: RadixSpec) -> Iterator[Coordinate]:
    """Yield every coordinate in odometer order (rightmost digit fastest)."""
    for digits in product(*map(range, spec.position_bases)):
        yield Coordinate(spec, digits)


@dataclass(frozen=True)
class HasseStats:
    """Vertex/edge counts and the degree histogram of a space's adjacency graph."""

    vertex_count: int
    edge_count: int
    degree_histogram: dict[int, int]


def hasse_stats(spec: RadixSpec) -> HasseStats:
    """Adjacency-graph statistics: every coordinate is a vertex, every
    rank-distance-1 pair an edge.

    Counted, not enumerated, so any spec is answered at once.  A base-b digit
    has one move at each of its two end values and two at each of its b - 2
    inner values, so the degree histogram is the convolution of those
    per-digit counts over the positions; the edge count is half the degree sum.
    """
    histogram = {0: 1}
    for base in spec.position_bases:
        moves = ((1, 2), (2, base - 2)) if base > 2 else ((1, 2),)
        convolved: dict[int, int] = {}
        for deg, count in histogram.items():
            for step, ways in moves:
                convolved[deg + step] = convolved.get(deg + step, 0) + count * ways
        histogram = convolved
    degree_sum = sum(deg * count for deg, count in histogram.items())
    return HasseStats(spec.size, degree_sum // 2, histogram)


def hasse_dot(spec: RadixSpec, enumeration_cap: int = 10**6) -> str:
    """DOT text of the adjacency graph, layered by rank distance from the
    all-zero coordinate.

    Vertices within a layer are ordered lexicographically by their text form
    (the layering is structural, the within-layer order cosmetic).  Each
    undirected edge appears once, as the +1 move of one digit, which always
    raises the text form.  Vertex names are the coordinates' text form, so a
    base above 36 is refused, and so is a space of more than
    ``enumeration_cap`` coordinates.
    """
    top = max(base for base, _ in spec.segments)
    if top > len(_DIGIT_CHARS):
        raise ValueError(f"DOT text supports bases up to {len(_DIGIT_CHARS)}, got {top}")
    if spec.size > enumeration_cap:
        raise SpaceTooLargeError(spec.size, enumeration_cap)
    texts = {c.digits: str(c) for c in iter_space(spec)}
    layers: dict[int, list[str]] = {}
    for digits, text in texts.items():
        # the digit sum is the rank distance from the all-zero origin
        layers.setdefault(sum(digits), []).append(text)

    lines = ["graph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for dist in sorted(layers):
        names = " ".join(f'"{name}";' for name in sorted(layers[dist]))
        lines.append(f"  {{ rank=same; {names} }}")
    bases = spec.position_bases
    for digits, a in texts.items():
        for i, d in enumerate(digits):
            if d + 1 < bases[i]:
                b = texts[digits[:i] + (d + 1,) + digits[i + 1 :]]
                lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
