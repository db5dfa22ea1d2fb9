"""Exhaustive ground truth for small folding instances.

Enumerates every solution-eligible coordinate pair of a problem (the fixed
segment for plans A/B, exact-target-weight colors for plans B/C, all turn
strings otherwise), recording the exact minimum, every minimizer, and the
full objective-value histogram.  Enumeration order is fixed and documented,
so a scan can be split into index ranges that run in parallel or resume
from a checkpoint and merge associatively:

    flat index = ternary_index * (number of binaries) + binary_index

where ternary strings follow itertools.product order (rightmost digit
fastest) and weight-w binaries follow itertools.combinations of the
one-positions.  The first turn digit only rotates a fold, so the ternary
indices fall into three blocks of R = 3^(n-2) folds, one per first digit,
and fold r of each block is a rotation of the same conformation.  The scan
decodes each such rotation class once, and with W workers, worker w of
plans A and C takes the rests [R*w/W, R*(w+1)/W) of all three blocks (three
ranges), so no class is decoded twice; plan B's workers take contiguous
chunks of its colourings.  Checkpoints are a library feature: scan a slice
with ``enumerate_optimum(start=, count=)`` and combine slices with
``merge_reports``.  The CLI always scans the whole domain.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb
from typing import Iterator, Optional

from sawalk.hpfold import HPProblem, _fold_analysis, _require_picklable_penalty
from sawalk.mixedradix import SpaceTooLargeError

DEFAULT_DOMAIN_CAP = 10**8


@dataclass(frozen=True)
class OracleReport:
    """Result of scanning (part of) a problem's solution-eligible domain.

    ``evaluations`` and ``histogram`` cover every raw pair scanned, while
    ``argmin`` lists distinct minimizing solutions with searched folds in
    rotation-canonical text form (mirror folds stay distinct).
    """

    min_value: int
    argmin: tuple[tuple[str, str], ...]  # (colors, turns) text pairs, sorted
    evaluations: int
    histogram: dict[int, int]

    def count_at_or_below(self, threshold: float) -> int:
        return sum(c for v, c in self.histogram.items() if v <= threshold)


def merge_reports(reports: list[OracleReport]) -> OracleReport:
    """Combine chunk reports; associative and order-independent."""
    if not reports:
        raise ValueError("nothing to merge")
    min_value = min(r.min_value for r in reports)
    argmin = sorted(
        {pair for r in reports if r.min_value == min_value for pair in r.argmin}
    )
    histogram: dict[int, int] = {}
    for r in reports:
        for v, c in r.histogram.items():
            histogram[v] = histogram.get(v, 0) + c
    return OracleReport(
        min_value=min_value,
        argmin=tuple(argmin),
        evaluations=sum(r.evaluations for r in reports),
        histogram=histogram,
    )


def _binaries(problem: HPProblem) -> list[tuple[int, ...]]:
    if problem.plan == "A":
        return [problem.fixed_binary]
    bits_list = []
    for ones in combinations(range(problem.n), problem.weight_target):
        ones = set(ones)
        bits_list.append(tuple(1 if i in ones else 0 for i in range(problem.n)))
    return bits_list


def _num_binaries(problem: HPProblem) -> int:
    return 1 if problem.plan == "A" else comb(problem.n, problem.weight_target)


def domain_size(problem: HPProblem) -> int:
    """Number of solution-eligible (colors, turns) pairs."""
    ternaries = 1 if problem.plan == "B" else 3 ** (problem.n - 1)
    return _num_binaries(problem) * ternaries


def _bead_masks(binaries: list[tuple[int, ...]], n: int) -> list[int]:
    """One int per bead, with bit b set when colouring b makes that bead H."""
    return [sum(bits[i] << b for b, bits in enumerate(binaries)) for i in range(n)]


def _score_colorings(
    pairs: tuple[tuple[int, int], ...], beads: list[int], lo: int, hi: int
) -> tuple[dict[int, int], int, int]:
    """Value counts, minimum and minimizing colourings [lo, hi) of one feasible fold.

    Bit-sliced: one AND per contact pair marks every colouring that makes
    both beads H, and a ripple-carry counter of bit planes sums the marks,
    so colouring b's contact count is bit b of the planes read as a binary
    number.  The minimizers come back as a bit mask over colouring indices.
    """
    span = (1 << hi) - (1 << lo)
    planes: list[int] = []
    for i, j in pairs:
        carry = beads[i] & beads[j] & span
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            plane = planes[k]
            planes[k] = plane ^ carry
            carry &= plane
            k += 1
    counts: dict[int, int] = {}
    for contacts in range(1 << len(planes)):
        equal = span
        for k, plane in enumerate(planes):
            equal &= plane if contacts >> k & 1 else ~plane
        if equal:
            counts[-contacts] = equal.bit_count()
            best, best_bits = -contacts, equal
    return counts, best, best_bits


def _bit_indices(bits: int) -> list[int]:
    indices = []
    while bits:
        low = bits & -bits
        indices.append(low.bit_length() - 1)
        bits ^= low
    return indices


def _canonical_ternary(t_idx: int, n: int) -> tuple[int, ...]:
    """Canonical turns of the fold at position ``t_idx`` of itertools.product order."""
    digits = []
    for _ in range(n - 2):
        t_idx, d = divmod(t_idx, 3)
        digits.append(d)
    return (2, *reversed(digits))


def _folds(
    problem: HPProblem, ranges: list[tuple[int, int]]
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Yield (turns, lo, hi, folds) for every fold the disjoint flat ranges touch.

    Each fold is scanned on colourings [lo, hi) and stands for ``folds``
    folds.  The first turn digit only rotates a fold, and a rotation keeps
    the fold record, so plans A and C yield each rotation class once, as its
    canonical turns (2, *rest), counting the first digits whose fold the
    ranges cover whole.  Only the first and last fold of a range can cover
    part of the colourings; they come one by one.
    """
    if problem.plan == "B":  # one fold, reported as given
        for start, stop in ranges:
            if start < stop:
                yield problem.fixed_ternary, start, stop, 1
        return
    n = problem.n
    num_b = _num_binaries(problem)
    rests = 3 ** (n - 2)  # folds per first digit
    edges: dict[int, int] = {}  # +1/-1 where a whole-fold run of rests starts/ends
    for start, stop in ranges:
        t_lo, b_lo = divmod(start, num_b)
        t_hi, b_hi = divmod(stop, num_b)
        if t_lo == t_hi:
            if b_lo < b_hi:
                yield _canonical_ternary(t_lo, n), b_lo, b_hi, 1
            continue
        if b_lo:
            yield _canonical_ternary(t_lo, n), b_lo, num_b, 1
            t_lo += 1
        if b_hi:
            yield _canonical_ternary(t_hi, n), 0, b_hi, 1
        for block in range(0, 3 * rests, rests):
            lo, hi = max(t_lo, block) - block, min(t_hi, block + rests) - block
            if lo < hi:
                edges[lo] = edges.get(lo, 0) + 1
                edges[hi] = edges.get(hi, 0) - 1
    covered = 0
    for edge in sorted(edges):
        if covered:
            canonical = product((2,), *[range(3)] * (n - 2))
            for turns in islice(canonical, previous, edge):
                yield turns, 0, num_b, covered
        covered += edges[edge]
        previous = edge


def _scan(problem: HPProblem, ranges: list[tuple[int, int]]) -> OracleReport:
    """Evaluate the flat indices of disjoint ranges [start, stop) of the enumeration."""
    n = problem.n
    penalty = problem.penalty
    # uncached: a scan decodes each fold once, so it must neither fill nor
    # evict the walk's fold cache
    analyse = _fold_analysis.__wrapped__
    binaries = _binaries(problem)
    beads = _bead_masks(binaries, n)

    # one counter per (fold record, lo, hi), since a fold's colourings score
    # alike whenever its record does: [folds, value counts, best value,
    # minimizing colourings]
    scored: dict[tuple, list] = {}
    min_value = float("inf")
    argmin: list[tuple[int, tuple[int, ...]]] = []  # (minimizing colourings, turns)
    for turns, lo, hi, folds in _folds(problem, ranges):
        record = analyse(turns)
        key = (record, lo, hi)
        entry = scored.get(key)
        if entry is None:
            first, collisions, pairs = record
            if collisions:
                value = penalty(n, first, collisions)
                entry = [0, {value: hi - lo}, value, (1 << hi) - (1 << lo)]
            else:
                entry = [0, *_score_colorings(pairs, beads, lo, hi)]
            scored[key] = entry
        entry[0] += folds
        best = entry[2]
        if best <= min_value:
            if best < min_value:
                min_value = best
                argmin.clear()
            argmin.append((entry[3], turns))

    histogram: dict[int, int] = {}
    for folds, counts, _, _ in scored.values():
        for value, count in counts.items():
            histogram[value] = histogram.get(value, 0) + folds * count
    # solution keys collapse the re-orientations of one searched fold
    keys = {
        problem.solution_key(problem.coordinate(binaries[b], turns))
        for best_bits, turns in argmin
        for b in _bit_indices(best_bits)
    }
    return OracleReport(
        min_value=min_value if histogram else 0,
        argmin=tuple(sorted(keys)),
        evaluations=sum(histogram.values()),
        histogram=histogram,
    )


def _worker_ranges(
    problem: HPProblem, start: int, stop: int, workers: int
) -> list[list[tuple[int, int]]]:
    """Split [start, stop) into at most ``workers`` non-empty lists of ranges:
    whole rotation classes for plans A and C, contiguous chunks for plan B."""
    if problem.plan == "B":
        bounds = [start + (stop - start) * w // workers for w in range(workers + 1)]
        splits = [[(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    else:
        num_b = _num_binaries(problem)
        rests = 3 ** (problem.n - 2)
        splits = [
            [
                ((block + rests * w // workers) * num_b, (block + rests * (w + 1) // workers) * num_b)
                for block in range(0, 3 * rests, rests)
            ]
            for w in range(workers)
        ]
    shares = []
    for split in splits:
        share = [(max(lo, start), min(hi, stop)) for lo, hi in split]
        share = [(lo, hi) for lo, hi in share if lo < hi]
        if share:
            shares.append(share)
    return shares


def enumerate_optimum(
    problem: HPProblem,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    start: int = 0,
    count: Optional[int] = None,
    workers: int = 1,
) -> OracleReport:
    """Scan the problem's whole eligible domain (or a checkpoint slice).

    Refuses domains larger than ``domain_cap`` rather than starting a scan
    that cannot finish.  With ``workers`` > 1 the range is split among
    worker processes (see ``_worker_ranges``) and their reports merged;
    fewer than one worker is refused.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    size = domain_size(problem)
    if size > domain_cap:
        raise SpaceTooLargeError(size, domain_cap)
    stop = size if count is None else min(size, start + count)
    if not 0 <= start <= stop:
        raise ValueError(f"bad scan range [{start}, {stop})")
    if start == stop:
        return OracleReport(0, (), 0, {})
    if workers <= 1:
        return _scan(problem, [(start, stop)])
    _require_picklable_penalty(problem)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_scan, problem, ranges)
            for ranges in _worker_ranges(problem, start, stop, workers)
        ]
        return merge_reports([f.result() for f in futures])


def report_text(report: OracleReport) -> str:
    """Serialize a report as line-oriented key=value text."""
    lines = [
        f"evaluations = {report.evaluations}",
        f"min-value = {report.min_value}",
    ]
    for value in sorted(report.histogram):
        lines.append(f"count[{value}] = {report.histogram[value]}")
    for colors, turns in report.argmin:
        lines.append(f"argmin = {colors} {turns}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> OracleReport:
    """Read back ``report_text`` output, including the CLI's threshold lines.

    A ``count-at-or-below[t] = c`` line is checked against the histogram
    and rejected when they disagree.
    """
    evaluations = 0
    min_value = 0
    histogram: dict[int, int] = {}
    argmin: list[tuple[str, str]] = []
    threshold_counts: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "evaluations":
            evaluations = int(value)
        elif key == "min-value":
            min_value = int(value)
        elif key.startswith("count[") and key.endswith("]"):
            histogram[int(key[6:-1])] = int(value)
        elif key.startswith("count-at-or-below[") and key.endswith("]"):
            threshold_counts.append((int(key[18:-1]), int(value)))
        elif key == "argmin":
            colors, turns = value.split()
            argmin.append((colors, turns))
        else:
            raise ValueError(f"unrecognized report line: {raw!r}")
    report = OracleReport(
        min_value=min_value,
        argmin=tuple(sorted(argmin)),
        evaluations=evaluations,
        histogram=histogram,
    )
    for threshold, count in threshold_counts:
        expected = report.count_at_or_below(threshold)
        if count != expected:
            raise ValueError(
                f"count-at-or-below[{threshold}] = {count}, but the histogram gives {expected}"
            )
    return report
