"""Drawings of feasible chain conformations: ASCII grid and SVG.

One layout serves both drawings: the bead cells counted from the top-left
corner of the fold, the colours, the chain bonds and the counted H-H
contacts (taken from the fold record) as pairs of cells, and the energy
and weight caption.  H beads render filled, P beads hollow; chain bonds are
solid and contacts dashed (':' or '*' in text).
"""
from __future__ import annotations

from sawalk.hpfold import Digits, decode_fold, segments, weight


def _layout(coord_b: Digits, coord_t: Digits):
    """Cells as (column, row), colours, bonds, H-H contacts and caption of a feasible fold."""
    bits, turns = segments(coord_b, coord_t)
    outcome = decode_fold(turns)
    if not outcome.feasible:
        raise ValueError(f"collision at bead {outcome.first_collision_index}")
    left = min(x for x, _ in outcome.positions)
    top = max(y for _, y in outcome.positions)
    cells = [(x - left, top - y) for x, y in outcome.positions]
    bonds = list(zip(cells, cells[1:]))
    contacts = [(cells[i], cells[j]) for i, j in outcome.pairs if bits[i] and bits[j]]
    caption = f"energy {-len(contacts)}  weight {weight(bits)}  length {len(bits)}"
    return cells, bits, bonds, contacts, caption


def ascii_conformation(coord_b: Digits, coord_t: Digits) -> str:
    cells, bits, bonds, contacts, caption = _layout(coord_b, coord_t)
    # beads sit at doubled cells, so a link's mark sits midway, at the sum of its cells
    width = 2 * max(column for column, _ in cells) + 1
    height = 2 * max(row for _, row in cells) + 1
    grid = [[" "] * width for _ in range(height)]
    for (across, down), links in (("-", "|"), bonds), (("*", ":"), contacts):
        for (c0, r0), (c1, r1) in links:
            grid[r0 + r1][c0 + c1] = across if r0 == r1 else down
    for (column, row), b in zip(cells, bits):
        grid[2 * row][2 * column] = "#" if b else "o"
    lines = ["".join(row).rstrip() for row in grid]
    return "\n".join(lines + ["", caption]) + "\n"


def svg_conformation(coord_b: Digits, coord_t: Digits) -> str:
    cells, bits, bonds, contacts, caption = _layout(coord_b, coord_t)
    unit, margin, radius = 28, 24, 8

    def point(cell: tuple[int, int]) -> tuple[int, int]:
        return margin + unit * cell[0], margin + unit * cell[1]

    width = 2 * margin + unit * max(column for column, _ in cells)
    height = 2 * margin + unit * max(row for _, row in cells) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    bond_style = 'stroke="#555" stroke-width="3"'
    contact_style = 'stroke="#c33" stroke-width="2" stroke-dasharray="3,3"'
    for style, links in (bond_style, bonds), (contact_style, contacts):
        for a, b in links:
            (ax, ay), (bx, by) = point(a), point(b)
            parts.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" {style}/>')
    for cell, b in zip(cells, bits):
        cx, cy = point(cell)
        fill = "#222" if b else "#fff"
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{fill}" stroke="#222" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" font-size="13">{caption}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
