"""Regenerate references.json, the expected rows of every benchmark command.

Usage, from the root of a checkout (takes a few minutes, single-threaded):

    python3 benchmarks/make_references.py

* thermo/truncated probability rows (sweep, trace): p_ref comes from a run
  at TIGHT tolerances; its accuracy is |p_ref - p| against a run at 10x
  looser tolerances (at least float64 epsilon), and is the floor under
  p_err_max.
* exact/direct oracle rows: p_ref = 1 exactly, accuracy float64 epsilon.
* verify rows: every check of the default battery, with the threshold the
  program applies to it.

The benchmark only reads the file; it never regenerates it.
"""

from __future__ import annotations

import csv
import datetime
import json
import platform
import sys

from checks import data_lines
from run import HERE, import_cli, invoke
from workloads import WORKLOADS, command_key

TIGHT = ("--rel-tol", "1e-13", "--abs-tol", "1e-15")
LOOSE = ("--rel-tol", "1e-12", "--abs-tol", "1e-14")
# tolerances per quantity; none is looser than the tier-1 gate for it
EXACT_DRIVE_TOL = 1e-8  # |p - 1| of an exact-drive preparation
MODEL_TOL = 1e-7  # |p - p_ref| of a thermo/truncated row at default tolerances
DENSE_VS_FERMION_TOL = 1e-6  # |p_dense - p_fermion|
EPS = 2.220446049250313e-16


def rows_of(cli, command, extra=()) -> tuple[list[str], list[dict[str, str]]]:
    path = HERE.parent / ".bench_out" / "reference.csv"
    path.parent.mkdir(exist_ok=True)
    code = invoke(cli, list(command) + list(extra) + ["--out", str(path)])
    if code != 0:
        raise SystemExit(f"`{command_key(command)}` exited with {code}")
    records = list(csv.reader(data_lines(path.read_text(encoding="ascii"))))
    path.unlink()
    return records[0], [dict(zip(records[0], record)) for record in records[1:]]


def probability_spec(cli, command) -> tuple[dict, float]:
    """Spec of a sweep or trace command, and its default run's largest error."""
    header, tight = rows_of(cli, command, TIGHT)
    _, loose = rows_of(cli, command, LOOSE)
    _, default = rows_of(cli, command)
    keys, column = header[:-1], header[-1]
    rows = []
    worst = 0.0
    for t_row, l_row, d_row in zip(tight, loose, default, strict=True):
        p_ref = float(t_row[column])
        exact_drive = "m_max" in t_row and 2 * int(t_row["m_max"]) == int(t_row["n"])
        tol = EXACT_DRIVE_TOL if exact_drive else MODEL_TOL
        accuracy = max(abs(float(l_row[column]) - p_ref), EPS)
        rows.append({
            "key": {key: float(t_row[key]) for key in keys},
            "p": {column: [p_ref, accuracy, tol]},
        })
        worst = max(worst, abs(float(d_row[column]) - p_ref))
    return {"header": header, "rows": rows}, worst


def main() -> int:
    cli = import_cli()
    import numpy
    import scipy

    commands = {}
    default_errors = {}
    for workload in ("sweep", "trace"):
        for command in WORKLOADS[workload]:
            key = command_key(command)
            commands[key], default_errors[key] = probability_spec(cli, command)
            print(f"{key}: default-tolerance max |p - p_ref| = {default_errors[key]:.3e}")
    for command in WORKLOADS["crosscheck"]:
        header, rows = rows_of(cli, command)
        if command[0] == "verify":
            specs = [
                {"key": {"name": row["name"]}, "max": {"residual": float(row["threshold"])}}
                for row in rows
            ]
        else:
            specs = [
                {
                    "key": {"coupling": row["coupling"]},
                    "p": {column: [1.0, EPS, EXACT_DRIVE_TOL] for column in ("p_dense", "p_fermion")},
                    "max": {"abs_diff": DENSE_VS_FERMION_TOL},
                }
                for row in rows
            ]
        commands[command_key(command)] = {"header": header, "rows": specs}

    provenance = {
        "generated_by": "python3 benchmarks/make_references.py",
        "date": datetime.date.today().isoformat(),
        "tight_tolerances": " ".join(TIGHT),
        "loose_tolerances": " ".join(LOOSE),
        "tolerances": {
            "exact_drive_p": EXACT_DRIVE_TOL,
            "model_p": MODEL_TOL,
            "dense_vs_fermion": DENSE_VS_FERMION_TOL,
            "verify": "the program's own threshold per check",
        },
        "default_run_max_error": default_errors,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    text = json.dumps({"provenance": provenance, "commands": commands}, indent=1)
    (HERE / "references.json").write_text(text + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
