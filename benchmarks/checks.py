"""Check one command's CSV output against its committed reference rows.

One operation is one reference row: a p_gs / p_instant row, an oracle row
or a verify check. A row fails when its command exited non-zero, when it
is missing or not finite, when a key cell differs from the reference, or
when a value lies outside its reference tolerance. Rows that the
reference does not expect count as extra failed operations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

# key cells (chain length, ramp time, trace time and field, ...) are
# deterministic inputs or linspace values; compare them to rounding only
KEY_RTOL = 1e-12


@dataclass
class CommandCheck:
    """Outcome of one command in one pass."""

    data_lines: list[str]  # header and data rows, for the byte-identity check
    failures: list[str | None]  # one entry per operation, None when it passed
    p_err: float  # largest max(|p - p_ref|, accuracy) over its probability cells


def data_lines(text: str) -> list[str]:
    """Header and data rows of a CSV written by the program (no manifest)."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_row(ref: dict, row: dict[str, str] | None) -> tuple[str | None, float]:
    if row is None:
        return "row missing", 0.0
    for column, expected in ref.get("key", {}).items():
        cell = row.get(column, "")
        if isinstance(expected, str):
            if cell != expected:
                return f"{column}={cell!r}, expected {expected!r}", 0.0
        else:
            value = _number(cell)
            if value is None or abs(value - expected) > KEY_RTOL * max(1.0, abs(expected)):
                return f"{column}={cell!r}, expected {expected!r}", 0.0
    worst = 0.0
    problem = None
    for column, (p_ref, accuracy, tol) in ref.get("p", {}).items():
        value = _number(row.get(column, ""))
        if value is None:
            return f"{column}={row.get(column)!r} is not a finite number", worst
        err = abs(value - p_ref)
        worst = max(worst, err, accuracy)
        if err > tol and problem is None:
            problem = f"{column}={value!r} is {err:.3e} from {p_ref!r} (tolerance {tol:.0e})"
    for column, limit in ref.get("max", {}).items():
        value = _number(row.get(column, ""))
        if value is None:
            return f"{column}={row.get(column)!r} is not a finite number", worst
        if value > limit and problem is None:
            problem = f"{column}={value!r} above {limit:.0e}"
    return problem, worst


def check_output(spec: dict, exit_code: int, text: str) -> CommandCheck:
    """Check one command's output text against its reference spec."""
    lines = data_lines(text)
    expected = len(spec["rows"])
    if exit_code != 0:
        return CommandCheck(lines, [f"exit code {exit_code}"] * expected, 0.0)
    records = list(csv.reader(lines))
    if not records or records[0] != spec["header"]:
        found = records[0] if records else None
        return CommandCheck(lines, [f"header {found}, expected {spec['header']}"] * expected, 0.0)
    header, body = records[0], records[1:]
    failures: list[str | None] = []
    p_err = 0.0
    for index, ref in enumerate(spec["rows"]):
        row = dict(zip(header, body[index])) if index < len(body) else None
        problem, err = _check_row(ref, row)
        failures.append(problem)
        p_err = max(p_err, err)
    failures += ["unexpected row"] * (len(body) - expected)
    return CommandCheck(lines, failures, p_err)
