"""Line-oriented instance files.

Grammar: one record per instance, records separated by one or more blank
lines.  Each record line is ``key = value``; lines whose first non-blank
character is '#' are comments.  The keys are ``FIELDS``, which the CLI's
problem flags spell with a leading ``--``:

    plan        A | B | C                     (required)
    length      chain length n                (required for plan C; derived
                                               from the fixed segment otherwise)
    weight      target weight                 (required for plans B and C)
    target      energy target, an integer <= 0  (required)
    coord-b     binary color segment          (required for plan A)
    coord-t     ternary turn segment          (required for plan B)
    weight-cap  admissible-weight ceiling     (optional, plans B and C only; default weight + 1)

Unknown keys are an error, as is a missing required key.  ``build_problem``
makes the problem of one record, whether read from a file or from the flags.
"""
from __future__ import annotations

from pathlib import Path
from typing import Union

from sawalk.hpfold import HPProblem, make_problem

# every problem field and the type its text is read as, in make_problem's
# parameter order
FIELDS = {"plan": str, "length": int, "weight": int, "target": int, "coord-b": str, "coord-t": str, "weight-cap": int}


def parse_instances(text: str) -> list[HPProblem]:
    problems = []
    record: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if record:
                problems.append(build_problem(record))
                record = {}
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in record:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        record[key] = value
    if record:
        problems.append(build_problem(record))
    return problems


def build_problem(record: dict) -> HPProblem:
    """The problem of one record, each value read as its ``FIELDS`` type."""
    if "plan" not in record:
        raise ValueError("instance record is missing the plan")
    if "target" not in record:
        raise ValueError("instance record is missing the energy target")
    return make_problem(*(FIELDS[key](record[key]) if key in record else None for key in FIELDS))


def load_instances(path: Union[str, Path]) -> list[HPProblem]:
    return parse_instances(Path(path).read_text())

