"""Exhaustive ground truth for small folding instances.

Enumerates every solution-eligible coordinate pair of a problem (the fixed
segment for plans A/B, exact-target-weight colors for plans B/C, all turn
strings otherwise), recording the exact minimum, every minimizer, and the
full objective-value histogram.  Enumeration order is fixed and documented,
so a scan can be split into contiguous index ranges that run in parallel or
resume from a checkpoint and merge associatively:

    flat index = ternary_index * (number of binaries) + binary_index

where ternary strings follow itertools.product order (rightmost digit
fastest) and weight-w binaries follow itertools.combinations of the
one-positions.  Checkpoints are a library feature: scan a slice with
``enumerate_optimum(start=, count=)`` and combine slices with
``merge_reports``.  The CLI always scans the whole domain.
"""
from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb
from typing import Optional

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
    binaries = 1 if problem.plan == "A" else comb(problem.n, problem.weight_target)
    ternaries = 1 if problem.plan == "B" else 3 ** (problem.n - 1)
    return binaries * ternaries


def _score_colorings(
    pairs: tuple[tuple[int, int], ...], masks: list[int], b_offset: int, span: int
) -> tuple[Counter, int, list[int]]:
    """Value counts, minimum and minimizing binary indices of one feasible fold."""
    pair_masks = [(1 << i) | (1 << j) for i, j in pairs]
    values = [
        -sum(1 for m in pair_masks if mask & m == m)
        for mask in masks[b_offset : b_offset + span]
    ]
    best = min(values)
    return Counter(values), best, [b for b, v in enumerate(values, b_offset) if v == best]


def _scan(problem: HPProblem, start: int, stop: int) -> OracleReport:
    """Evaluate flat indices [start, stop) of the enumeration."""
    n = problem.n
    penalty = problem.penalty
    # uncached: a scan decodes each fold once, so it must neither fill nor
    # evict the walk's fold cache
    analyse = _fold_analysis.__wrapped__
    binaries = _binaries(problem)
    num_b = len(binaries)
    masks = [sum(1 << i for i, b in enumerate(bits) if b) for bits in binaries]
    if problem.plan == "B":
        ternaries = [problem.fixed_ternary]
    else:
        ternaries = product(range(3), repeat=n - 1)

    histogram: dict[int, int] = {}
    min_value: Optional[int] = None
    argmin: set[tuple[int, tuple[int, ...]]] = set()  # (binary index, turns)
    # A fold's colourings score alike whenever its contact pairs do, and the
    # rotations and mirror images of a fold share its pairs: score each
    # (pairs, colouring range) once.  The first and last fold of a slice may
    # cover only part of the colourings, hence the range in the key.
    scored: dict[tuple, tuple[Counter, int, list[int]]] = {}

    t_idx, b_offset = divmod(start, num_b)
    remaining = stop - start
    for turns in islice(ternaries, t_idx, None):
        span = min(num_b - b_offset, remaining)
        first, collisions, pairs = analyse(turns)
        if collisions:
            value = penalty(n, first, collisions)
            counts, best, best_b = {value: span}, value, range(b_offset, b_offset + span)
        else:
            key = (pairs, b_offset, span)
            if key not in scored:
                scored[key] = _score_colorings(pairs, masks, b_offset, span)
            counts, best, best_b = scored[key]
        for value, count in counts.items():
            histogram[value] = histogram.get(value, 0) + count
        if min_value is None or best <= min_value:
            if min_value is None or best < min_value:
                min_value = best
                argmin.clear()
            argmin.update((b, turns) for b in best_b)
        remaining -= span
        if not remaining:
            break
        b_offset = 0

    # solution keys collapse the re-orientations of one searched fold
    keys = {problem.solution_key(problem.coordinate(binaries[b], turns)) for b, turns in argmin}
    return OracleReport(
        min_value=min_value if min_value is not None else 0,
        argmin=tuple(sorted(keys)),
        evaluations=stop - start - remaining,
        histogram=histogram,
    )


def enumerate_optimum(
    problem: HPProblem,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    start: int = 0,
    count: Optional[int] = None,
    workers: int = 1,
) -> OracleReport:
    """Scan the problem's whole eligible domain (or a checkpoint slice).

    Refuses domains larger than ``domain_cap`` rather than starting a scan
    that cannot finish.  With ``workers`` > 1 the index range is split into
    contiguous chunks scanned in parallel and merged; fewer than one worker
    is refused.
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
        return _scan(problem, start, stop)
    _require_picklable_penalty(problem)
    bounds = [start + (stop - start) * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_scan, problem, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
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
