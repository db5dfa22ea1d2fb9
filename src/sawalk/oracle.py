"""Exhaustive ground truth for small folding instances.

Enumerates every solution-eligible coordinate pair of a problem (the fixed
segment for plans A/B, exact-target-weight colors for plans B/C, all turn
strings otherwise), recording the exact minimum, every minimizer, and the
full objective-value histogram.

The unit of work is the rotation class.  The first turn digit only rotates
a fold, so plans A and C have C = 3^(n-2) classes, the canonical turns
(2, *rest) in itertools.product order (rightmost digit fastest), each
standing for its 3 folds; plan B's one fold is its one class.  A scan of
classes [lo, hi) decodes each class once and scores it on every colouring.
With W workers, worker w scans classes [C*w/W, C*(w+1)/W) and the reports
merge associatively with ``merge_reports``.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb

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


def domain_size(problem: HPProblem) -> int:
    """Number of solution-eligible (colors, turns) pairs."""
    colorings = 1 if problem.plan == "A" else comb(problem.n, problem.weight_target)
    folds = 1 if problem.plan == "B" else 3 ** (problem.n - 1)
    return colorings * folds


def _bead_masks(binaries: list[tuple[int, ...]], n: int) -> list[int]:
    """One int per bead, with bit b set when colouring b makes that bead H."""
    return [sum(bits[i] << b for b, bits in enumerate(binaries)) for i in range(n)]


def _score_colorings(
    pairs: tuple[tuple[int, int], ...], beads: list[int], span: int
) -> tuple[dict[int, int], int, int]:
    """Value counts, minimum and minimizing colourings of one feasible fold.

    ``span`` has one bit set per colouring.  Bit-sliced: one AND per
    contact pair marks every colouring that makes both beads H, and a
    ripple-carry counter of bit planes sums the marks, so colouring b's
    contact count is bit b of the planes read as a binary number.  The
    minimizers come back as a bit mask over colouring indices.
    """
    planes: list[int] = []
    for i, j in pairs:
        carry = beads[i] & beads[j]
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


def _scan(problem: HPProblem, lo: int, hi: int) -> OracleReport:
    """Score rotation classes [lo, hi) on all their colourings."""
    n = problem.n
    penalty = problem.penalty
    # uncached: a scan decodes each fold once, so it must neither fill nor
    # evict the walk's fold cache
    analyse = _fold_analysis.__wrapped__
    binaries = _binaries(problem)
    beads = _bead_masks(binaries, n)
    span = (1 << len(binaries)) - 1
    if problem.plan == "B":  # one fold, reported as given
        classes, per_class = [problem.fixed_ternary][lo:hi], 1
    else:  # a rotation keeps the fold record, so a class scores as 3 folds
        classes, per_class = islice(product((2,), *[range(3)] * (n - 2)), lo, hi), 3

    # one counter per fold record, since folds score alike whenever their
    # records do: [folds, value counts, best value, minimizing colourings]
    scored: dict[tuple, list] = {}
    min_value = float("inf")
    argmin: list[tuple[int, tuple[int, ...]]] = []  # (minimizing colourings, turns)
    for turns in classes:
        record = analyse(turns)
        entry = scored.get(record)
        if entry is None:
            first, collisions, pairs = record
            if collisions:
                value = penalty(n, first, collisions)
                entry = [0, {value: len(binaries)}, value, span]
            else:
                entry = [0, *_score_colorings(pairs, beads, span)]
            scored[record] = entry
        entry[0] += per_class
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
        min_value=min_value,
        argmin=tuple(sorted(keys)),
        evaluations=sum(histogram.values()),
        histogram=histogram,
    )


def enumerate_optimum(
    problem: HPProblem,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    workers: int = 1,
) -> OracleReport:
    """Scan the problem's whole eligible domain.

    Refuses domains larger than ``domain_cap`` rather than starting a scan
    that cannot finish.  With ``workers`` > 1 the rotation classes are split
    into contiguous ranges, one per worker process, and the reports merged;
    a single non-empty range is scanned in this process.  Fewer than one
    worker is refused.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    size = domain_size(problem)
    if size > domain_cap:
        raise SpaceTooLargeError(size, domain_cap)
    classes = 1 if problem.plan == "B" else 3 ** (problem.n - 2)
    bounds = [classes * w // workers for w in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(ranges) == 1:
        return _scan(problem, *ranges[0])
    _require_picklable_penalty(problem)
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(_scan, problem, lo, hi) for lo, hi in ranges]
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
