"""Line-oriented instance files.

Grammar: one record per instance, records separated by one or more blank
lines.  Each record line is ``key = value``; lines whose first non-blank
character is '#' are comments.  Keys:

    plan        A | B | C                     (required)
    length      chain length n                (required for plan C; derived
                                               from the fixed segment otherwise)
    weight      target weight                 (required for plans B and C)
    target      energy target, an integer <= 0  (required)
    coord-b     binary color segment          (required for plan A)
    coord-t     ternary turn segment          (required for plan B)
    weight-cap  admissible-weight ceiling     (optional, default weight + 1)

Unknown keys are an error, as is a missing required key.
"""
from __future__ import annotations

from pathlib import Path
from typing import Union

from sawalk.hpfold import HPProblem, make_problem

_KEYS = {"plan", "length", "weight", "target", "coord-b", "coord-t", "weight-cap"}


def parse_instances(text: str) -> list[HPProblem]:
    problems = []
    record: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if record:
                problems.append(_build(record))
                record = {}
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in record:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        record[key] = value
    if record:
        problems.append(_build(record))
    return problems


def _build(record: dict[str, str]) -> HPProblem:
    if "plan" not in record:
        raise ValueError("instance record is missing the plan")
    if "target" not in record:
        raise ValueError("instance record is missing the energy target")

    def number(key: str):
        return int(record[key]) if key in record else None

    return make_problem(
        record["plan"],
        n=number("length"),
        weight_target=number("weight"),
        energy_target=number("target"),
        coord_b=record.get("coord-b"),
        coord_t=record.get("coord-t"),
        weight_cap=number("weight-cap"),
    )


def load_instances(path: Union[str, Path]) -> list[HPProblem]:
    return parse_instances(Path(path).read_text())

