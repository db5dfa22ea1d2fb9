"""Drawings of feasible chain conformations: ASCII grid and SVG.

H beads render filled, P beads hollow; chain bonds are solid and the
counted H-H contacts dashed (':' or '*' in text).  Both forms carry the
energy and weight annotation.
"""
from __future__ import annotations

from sawalk.hpfold import (
    Digits,
    as_digits,
    decode_fold,
    weight,
)


def _fold_or_raise(coord_b: Digits, coord_t: Digits):
    bits = as_digits(coord_b)
    outcome = decode_fold(coord_t)
    if not outcome.feasible:
        raise ValueError(f"collision at bead {outcome.first_collision_index}")
    if len(bits) != len(outcome.positions):
        raise ValueError("color and turn segments describe different chain lengths")
    hh = [(i, j) for i, j in outcome.pairs if bits[i] and bits[j]]
    return bits, outcome, hh


def ascii_conformation(coord_b: Digits, coord_t: Digits) -> str:
    bits, outcome, hh = _fold_or_raise(coord_b, coord_t)
    positions = outcome.positions
    xs = [x for x, _ in positions]
    ys = [y for _, y in positions]
    width = 2 * (max(xs) - min(xs)) + 1
    height = 2 * (max(ys) - min(ys)) + 1
    grid = [[" "] * width for _ in range(height)]

    def cell(x: int, y: int) -> tuple[int, int]:
        return 2 * (max(ys) - y), 2 * (x - min(xs))

    for (x0, y0), (x1, y1) in zip(positions, positions[1:]):
        r0, c0 = cell(x0, y0)
        r1, c1 = cell(x1, y1)
        grid[(r0 + r1) // 2][(c0 + c1) // 2] = "-" if r0 == r1 else "|"
    for i, j in hh:
        r0, c0 = cell(*positions[i])
        r1, c1 = cell(*positions[j])
        grid[(r0 + r1) // 2][(c0 + c1) // 2] = "*" if r0 == r1 else ":"
    for (x, y), b in zip(positions, bits):
        r, c = cell(x, y)
        grid[r][c] = "#" if b else "o"

    energy = -len(hh)
    lines = ["".join(row).rstrip() for row in grid]
    lines.append("")
    lines.append(f"energy {energy}  weight {weight(bits)}  length {len(bits)}")
    return "\n".join(lines) + "\n"


def svg_conformation(coord_b: Digits, coord_t: Digits) -> str:
    bits, outcome, hh = _fold_or_raise(coord_b, coord_t)
    positions = outcome.positions
    unit, margin, radius = 28, 24, 8
    xs = [x for x, _ in positions]
    ys = [y for _, y in positions]

    def point(x: int, y: int) -> tuple[int, int]:
        return margin + unit * (x - min(xs)), margin + unit * (max(ys) - y)

    width = margin * 2 + unit * (max(xs) - min(xs))
    height = margin * 2 + unit * (max(ys) - min(ys)) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for (x0, y0), (x1, y1) in zip(positions, positions[1:]):
        ax, ay = point(x0, y0)
        bx, by = point(x1, y1)
        parts.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" stroke="#555" stroke-width="3"/>'
        )
    for i, j in hh:
        ax, ay = point(*positions[i])
        bx, by = point(*positions[j])
        parts.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
            f'stroke="#c33" stroke-width="2" stroke-dasharray="3,3"/>'
        )
    for (x, y), b in zip(positions, bits):
        cx, cy = point(x, y)
        fill = "#222" if b else "#fff"
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{fill}" stroke="#222" stroke-width="2"/>'
        )
    energy = -len(hh)
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" font-size="13">'
        f"energy {energy}  weight {weight(bits)}  length {len(bits)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
