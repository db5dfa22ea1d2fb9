"""Exhaustive ground truth for small folding instances.

Enumerates every solution-eligible coordinate pair of a problem (the fixed
segment for plans A/B, exact-target-weight colors for plans B/C, all turn
strings otherwise), recording the exact minimum, every minimizer, and the
full objective-value histogram.

The unit of work is the class.  The first turn digit only rotates a fold
and swapping turn digits 0 and 1 only mirrors it, which keeps its
collisions and contacts.  So plans A and C scan the canonical turns
(2, *rest) whose first bend is a left turn, C = (3^(n-2) + 1) / 2 classes,
each standing for its 3 rotations and its mirror's 3 (the straight chain
for its 3); plan B's one fold is its one class, read from the fold record
and never placed.  A scan of classes [lo, hi) places them depth first, in
itertools.product order (rightmost digit fastest), and scores each fold on
every colouring.  With W workers, worker w scans classes
[C*w/W, C*(w+1)/W) and the reports merge associatively with
``merge_reports``; small domains are scanned in this process, which then
never imports the process pool.  A scan's cost follows its class count,
not its (colours, turns) pair count, so the domain cap counts classes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from math import comb

from sawalk.hpfold import _STEP, _TURNED, HPProblem, _check_segments, _fold_analysis, default_penalty, digits_text
from sawalk.mixedradix import SpaceTooLargeError

# Most classes a scan places by default: plans A and C up to n=17 (7,174,454
# classes), never n=18 (21,523,361).  Serial plan C scans at w=n/2 took 0.63 s
# at n=14, 1.9 s at n=15 and 5.7 s at n=16 (2-core x86-64 box, Python 3.11).
DEFAULT_DOMAIN_CAP = 10**7
# Fewest classes worth a worker process.  A class scans in about 2.4 us
# (2-core x86-64 box, Python 3.11); there plan C n=12 w=5, 14,762 classes a
# worker, ran about as fast in 2 processes as in one (75-100 ms), and n=13
# w=6, 44,287, ran faster (0.17-0.19 s against 0.24-0.26 s).  A scan below
# it also skips importing the pool, 20-30 ms of start-up.
MIN_CLASSES_PER_WORKER = 3**9
# Most colour digits, colourings x n, a scan holds.  _colorings keeps each
# colouring as n-digit text, 85 B with its list slot at n=28, so this cap,
# 2^20 colourings at n=28, holds about 0.1 GiB of them.
MAX_COLOR_DIGITS = 28 << 20


@dataclass(frozen=True)
class OracleReport:
    """Result of scanning (part of) a problem's solution-eligible domain.

    ``histogram`` counts every raw pair scanned by value, while ``argmin``
    lists distinct minimizing solutions as the colour and turn texts of
    ``HPProblem.solution_key`` (mirror folds stay distinct).
    """

    argmin: tuple[tuple[str, str], ...]  # (colors, turns) text pairs, sorted
    histogram: dict[int, int]

    @property
    def min_value(self) -> int:
        return min(self.histogram)

    @property
    def evaluations(self) -> int:
        return sum(self.histogram.values())

    def count_at_or_below(self, threshold: float) -> int:
        return sum(c for v, c in self.histogram.items() if v <= threshold)


def merge_reports(reports: list[OracleReport]) -> OracleReport:
    """Combine chunk reports; associative and order-independent."""
    if not reports:
        raise ValueError("nothing to merge")
    histogram: dict[int, int] = {}
    for r in reports:
        for v, c in r.histogram.items():
            histogram[v] = histogram.get(v, 0) + c
    min_value = min(histogram)
    argmin = sorted({pair for r in reports if min_value in r.histogram for pair in r.argmin})
    return OracleReport(argmin=tuple(argmin), histogram=histogram)


def _colorings(problem: HPProblem) -> list[str]:
    """The colourings a scan scores, as colour texts in combinations order."""
    if problem.plan == "A":
        return [digits_text(problem.fixed_binary)]
    colorings = []
    for ones in combinations(range(problem.n), problem.weight_target):
        bits = ["0"] * problem.n
        for i in ones:
            bits[i] = "1"
        colorings.append("".join(bits))
    return colorings


def _bead_masks(colorings: list[str], n: int) -> list[int]:
    """One int per bead, with bit b set when colouring b makes that bead H."""
    text = "".join(colorings)
    return [int(text[i::n][::-1], 2) for i in range(n)]


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
    """The indices of the set bits, lowest first, in one pass over the bits."""
    text = bin(bits)[:1:-1]  # bit i is character i
    indices = []
    i = text.find("1")
    while i >= 0:
        indices.append(i)
        i = text.find("1", i + 1)
    return indices


# Turn digits tried after a straight prefix and after a bent one: no right
# turn (1) before the first left turn (0) keeps one class of each mirror pair.
_TURNS = ((0, 2), (0, 1, 2))
# The lattice offsets ahead, left and right of each heading: where a bead
# landing with that heading can have contacts.
_AROUND = tuple((_STEP[h], _STEP[h - 1], _STEP[(h + 1) & 3]) for h in range(4))


def _roots(n: int, lo: int, hi: int, prefix: tuple[int, ...] = (2,), start: int = 0):
    """Yield the turn prefixes whose depth-first subtrees tile classes [lo, hi),
    in order; return the end of ``prefix``'s subtree, which starts at ``start``."""
    rest = 3 ** (n - 1 - len(prefix))
    end = start + (rest if 0 in prefix else (rest + 1) // 2)
    if lo <= start and end <= hi:
        yield prefix
    elif start < hi and lo < end:
        for t in _TURNS[0 in prefix]:
            start = yield from _roots(n, lo, hi, prefix + (t,), start)
    return end


def _place(n: int, roots, visit) -> None:
    """Place the classes under ``roots`` depth first, a turn prefix once for
    all its extensions, and call ``visit(turns, bent, first, collisions,
    mask)`` on each: ``turns`` is one reused list, ``first`` and
    ``collisions`` are ``_fold_analysis``'s, counted as beads land, and
    ``mask`` sets bit i * n + j for each contact (i, j) of a feasible fold.
    A root's turns are followed as the only turns at their depths, and the
    last bead is visited where it lands, never recorded.
    """
    turns = [0] * (n - 1)
    last = n - 2

    def grow(j, h, p, first, collisions, mask, bent):  # lands bead k = j + 1
        k = j + 1
        for t in forced[j] or _TURNS[bent]:
            turns[j] = t
            g = _TURNED[h][t]
            q = p + _STEP[g]
            b = bent or t == 0
            if q in at:
                if j == last:
                    visit(turns, b, first if collisions else k, collisions + 1, mask)
                else:
                    grow(k, g, q, first if collisions else k, collisions + 1, mask, b)
                continue
            m = mask
            if not collisions:  # its contacts are the placed beads ahead, left and right
                ahead, left, right = _AROUND[g]
                for row in (at.get(q + ahead), at.get(q + left), at.get(q + right)):
                    if row is not None:
                        m |= row << k
            if j == last:
                visit(turns, b, first, collisions, m)
            else:
                at[q] = 1 << (k * n)
                grow(k, g, q, first, collisions, m, b)
                del at[q]

    for root in roots:
        at = {0: 1}  # lattice point -> 1 << (i * n), for the bead i placed there
        forced = [(t,) for t in root] + [()] * (n - 1 - len(root))
        grow(0, 0, 0, None, 0, 0, False)


def _scan(problem: HPProblem, lo: int, hi: int) -> OracleReport:
    """Score classes [lo, hi) on all their colourings."""
    n = problem.n
    colorings = _colorings(problem)
    beads = _bead_masks(colorings, n)
    span = (1 << len(colorings)) - 1

    # one counter per fold record (contact mask, or (first, count) if colliding),
    # [folds, value counts, best value, minimizing colourings]
    scored: dict[object, list] = {}
    min_value = float("inf")
    argmin: list[tuple[int, tuple[int, ...]]] = []  # (minimizing colourings, turns)
    # plan B's fold is reported as given; a class scores as its 3 rotations
    # and, once bent, its mirror's 3
    credits = (1, 1) if problem.plan == "B" else (3, 6)

    def score(turns, bent, first, collisions, mask):
        nonlocal min_value
        key = (first, collisions) if collisions else mask
        entry = scored.get(key)
        if entry is None:
            if collisions:
                value = default_penalty(n, first, collisions)
                entry = scored[key] = [0, {value: len(colorings)}, value, span]
            else:
                pairs = tuple(divmod(b, n) for b in _bit_indices(mask))
                entry = scored[key] = [0, *_score_colorings(pairs, beads, span)]
        entry[0] += credits[bent]
        if entry[2] <= min_value:
            if entry[2] < min_value:
                min_value = entry[2]
                argmin.clear()
            argmin.append((entry[3], tuple(turns)))

    if problem.plan == "B":  # one fold, read from the record, not placed
        first, collisions, pairs = _fold_analysis(problem.fixed_ternary)
        if not collisions:  # scored from the record's pairs, under the mask handed to score
            scored[0] = [0, *_score_colorings(pairs, beads, span)]
        score(problem.fixed_ternary, False, first, collisions, 0)
    else:
        _place(n, _roots(n, lo, hi), score)
    histogram: dict[int, int] = {}
    for folds, counts, _, _ in scored.values():
        for value, count in counts.items():
            histogram[value] = histogram.get(value, 0) + folds * count
    # the texts are the solution keys: scanned turns start with 2, as do
    # their mirrors', which are keys of their own; plan B's fold is verbatim
    if problem.plan != "B":
        argmin += [(bits, tuple((1, 0, 2)[t] for t in fold)) for bits, fold in argmin]
    keys = set()
    for best_bits, turns in argmin:
        turns = digits_text(turns)
        keys.update((colorings[b], turns) for b in _bit_indices(best_bits))
    return OracleReport(argmin=tuple(sorted(keys)), histogram=histogram)


def enumerate_optimum(
    problem: HPProblem,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    workers: int = 1,
) -> OracleReport:
    """Scan the problem's whole eligible domain.

    Refuses more than ``domain_cap`` classes rather than starting a scan
    that cannot finish, and more than ``MAX_COLOR_DIGITS`` colour digits
    (colourings x n), before any colouring is built, class placed or fold
    record read.  With ``workers`` > 1 the classes are split into
    contiguous, equally sized ranges, one per worker, scanned by at most
    ``os.cpu_count()`` processes, and the reports merged.  A domain whose
    ranges would hold fewer than ``MIN_CLASSES_PER_WORKER`` classes each is
    scanned in this process.  Fewer than one worker is refused.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    classes = 1 if problem.plan == "B" else (3 ** (problem.n - 2) + 1) // 2
    if classes > domain_cap:
        raise SpaceTooLargeError(classes, domain_cap, "classes")
    digits = problem.n * (1 if problem.plan == "A" else comb(problem.n, problem.weight_target))
    if digits > MAX_COLOR_DIGITS:
        raise SpaceTooLargeError(digits, MAX_COLOR_DIGITS, "colour digits")
    if workers == 1 or classes // workers < MIN_CLASSES_PER_WORKER:
        return _scan(problem, 0, classes)
    from concurrent.futures import ProcessPoolExecutor

    bounds = [classes * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_scan, problem, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return merge_reports([f.result() for f in futures])


def report_text(report: OracleReport, threshold: int | None = None) -> str:
    """Serialize a report as line-oriented key=value text; with a
    ``threshold``, a last line counts the pairs at or below it."""
    lines = [
        f"evaluations = {report.evaluations}",
        f"min-value = {report.min_value}",
    ]
    for value in sorted(report.histogram):
        lines.append(f"count[{value}] = {report.histogram[value]}")
    for colors, turns in report.argmin:
        lines.append(f"argmin = {colors} {turns}")
    if threshold is not None:
        lines.append(f"count-at-or-below[{threshold}] = {report.count_at_or_below(threshold)}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> OracleReport:
    """Read back ``report_text`` output, including its threshold line.

    A ``count-at-or-below[t] = c`` line is checked against the histogram
    and rejected when they disagree.  So is text without its ``evaluations``
    or ``min-value`` line, with a key or ``argmin`` line given twice or an
    ``argmin`` pair that is not colour and turn digits or whose lengths are
    not the first pair's, with a count below 1, with count lines that do not
    sum to ``evaluations``, or with a ``min-value`` other than the least
    value counted.
    """
    evaluations = min_value = None
    histogram: dict[int, int] = {}
    argmin: set[tuple[str, str]] = set()
    beads = None  # the first argmin pair's chain length, which every pair must share
    threshold_counts: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "evaluations" and evaluations is None:
            evaluations = int(value)
        elif key == "min-value" and min_value is None:
            min_value = int(value)
        elif key.startswith("count[") and key.endswith("]") and int(key[6:-1]) not in histogram:
            histogram[int(key[6:-1])] = int(value)
        elif key.startswith("count-at-or-below[") and key.endswith("]"):
            threshold_counts.append((int(key[18:-1]), int(value)))
        elif key == "argmin" and tuple(value.split()) not in argmin:
            colors, turns = value.split()
            if beads is None:
                beads = len(colors)
            _check_segments(colors, turns, beads)
            argmin.add((colors, turns))
        else:
            raise ValueError(f"unrecognized or repeated report line: {raw!r}")
    if evaluations is None or min_value is None:
        raise ValueError("report lacks its evaluations or min-value line")
    if min(histogram.values(), default=1) < 1:
        raise ValueError("a count line is below 1, but only values that occur are counted")
    report = OracleReport(argmin=tuple(sorted(argmin)), histogram=histogram)
    if report.evaluations != evaluations:
        raise ValueError(f"count lines sum to {report.evaluations}, not evaluations = {evaluations}")
    if not histogram or min_value != report.min_value:
        raise ValueError(f"min-value = {min_value} is not the least value counted")
    for threshold, count in threshold_counts:
        expected = report.count_at_or_below(threshold)
        if count != expected:
            raise ValueError(
                f"count-at-or-below[{threshold}] = {count}, but the histogram gives {expected}"
            )
    return report
