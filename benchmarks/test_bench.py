"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys

import pytest

from checks import check_output
from run import HERE, SOURCE, compare_to_first
from tracing import PROBES, Tracer, per_layer, self_times
from workloads import WORKLOADS, command_key, pass_order

REFERENCES = json.loads((HERE / "references.json").read_text(encoding="ascii"))["commands"]


def synthesize(spec: dict, perturb: tuple[int, str, float] | None = None) -> str:
    """CSV text whose rows sit exactly on the reference values."""
    lines = ["# command = synthetic", ",".join(spec["header"])]
    for index, ref in enumerate(spec["rows"]):
        cells = {column: repr(value) if not isinstance(value, str) else value
                 for column, value in ref.get("key", {}).items()}
        cells.update({column: repr(entry[0]) for column, entry in ref.get("p", {}).items()})
        cells.update({column: "0.0" for column in ref.get("max", {})})
        if perturb is not None and perturb[0] == index:
            cells[perturb[1]] = repr(float(cells[perturb[1]]) + perturb[2])
        lines.append(",".join(cells.get(column, "") for column in spec["header"]))
    return "\n".join(lines) + "\n"


def test_reference_rows_pass():
    for key, spec in REFERENCES.items():
        result = check_output(spec, 0, synthesize(spec))
        assert result.failures == [None] * len(spec["rows"]), key


@pytest.mark.parametrize("command", [
    "sweep-size --n 20 --t-final 100 --coupling thermo",
    "trace --n 200 --t-final 10 --samples 100 --coupling thermo",
    "oracle --n 10 --t-final 1 --coupling exact",
])
def test_row_perturbed_by_1e_5_fails(command):
    spec = REFERENCES[command]
    row = len(spec["rows"]) - 1
    column = next(iter(spec["rows"][row]["p"]))
    result = check_output(spec, 0, synthesize(spec, (row, column, -1e-5)))
    assert sum(problem is not None for problem in result.failures) == 1
    assert result.failures[row] is not None
    assert result.p_err == pytest.approx(1e-5, rel=1e-6)


def test_exit_code_missing_extra_and_nan_rows_fail():
    spec = REFERENCES["sweep-truncation --n 20 --t-final 10"]
    good = synthesize(spec)
    assert all(check_output(spec, 1, good).failures)
    lines = good.splitlines()
    assert check_output(spec, 0, "\n".join(lines[:-1])).failures[-1] == "row missing"
    extra = check_output(spec, 0, good + lines[-1] + "\n")
    assert extra.failures[-1] == "unexpected row" and len(extra.failures) == len(spec["rows"]) + 1
    nan = good.replace(lines[2], lines[2].rsplit(",", 1)[0] + ",nan")
    assert check_output(spec, 0, nan).failures[0] is not None


def test_verify_residual_above_its_threshold_fails():
    spec = REFERENCES["verify"]
    text = synthesize(spec).replace("coupling closed vs sum,,0.0", "coupling closed vs sum,,2e-12")
    assert check_output(spec, 0, text).failures[0] is not None


def test_row_differing_from_first_pass_fails():
    spec = REFERENCES["sweep-size --n 20,200 --t-final 1,10 --coupling thermo"]
    first = check_output(spec, 0, synthesize(spec))
    # within tolerance, so only the byte-identity check catches it
    later = check_output(spec, 0, synthesize(spec, (2, "p_gs", 1e-15)))
    assert later.failures == [None] * 4
    compare_to_first(first, later)
    assert [problem is not None for problem in later.failures] == [False, False, True, False]


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 1.0],  # 1 s of tallied calls directly inside
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.5],  # overlaps a: the children cover [1, 6]
        ["a.child", 2.0, 3.0, 1, 0.0],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3 - 0.5, 1])


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.tally("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf()))
    outer()
    # clock reads: outer 0, inner 1, leaf 2-3, inner end 4, leaf 5-6, outer end 7
    assert tracer.spans == [["outer", 0.0, 7.0, None, 1.0], ["inner", 1.0, 4.0, 0, 1.0]]
    assert tracer.tallies["leaf"] == [2, 2.0, 2.0]
    assert self_times(tracer.spans) == [7 - 3 - 1, 3 - 1]


@pytest.fixture
def cdising_modules():
    sys.path.insert(0, str(SOURCE))
    try:
        import cdising.cli
        import cdising.dynamics
        yield cdising.cli, cdising.dynamics
    finally:
        sys.path.remove(str(SOURCE))


def test_traced_call_reaches_every_dynamics_probe(cdising_modules, tmp_path):
    cli, _ = cdising_modules
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["evolve", "--n", "4", "--t-final", "1", "--coupling", "thermo",
                         "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.remove()
    assert code == 0 and not tracer.missing
    metrics = {name: value for name, (value, _, _) in per_layer(tracer).items()}
    assert metrics["dynamics.integrator_calls"] == 2  # one per mode of n = 4
    assert metrics["dynamics.nfev"] == metrics["dynamics.drive_calls"] > 0
    assert metrics["dynamics.steps"] > 0 and metrics["experiments.csv_bytes"] > 0
    assert 0 < metrics["dynamics.rhs_s"] < metrics["dynamics.integrator_s"]
    assert metrics["spin_oracle.nfev"] == 0 and metrics["coefficients.coupling_set_calls"] == 0
    assert all(value >= 0 for value in metrics.values())


def test_missing_wrapped_name_reports_missing(cdising_modules, monkeypatch):
    _, dynamics = cdising_modules
    monkeypatch.delattr(dynamics, "ground_state_probability")
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    metrics = per_layer(tracer)
    for name in ("dynamics.assembly_s", "dynamics.self_s"):
        value, _, reason = metrics[name]
        assert value is None and "ground_state_probability" in reason
    assert metrics["dynamics.integrator_s"][2] is None
    assert set(tracer.missing) == {"dynamics.ground_state_probability"}
    assert len(PROBES) > len(tracer.missing)


def test_pass_order_is_a_seeded_permutation():
    for workload, commands in WORKLOADS.items():
        order = pass_order(workload, 7, 0)
        assert sorted(order) == list(range(len(commands)))
        assert order == pass_order(workload, 7, 0)
    orders = {tuple(pass_order("crosscheck", seed, 0)) for seed in range(20)}
    assert len(orders) > 1


def test_every_command_has_references():
    for commands in WORKLOADS.values():
        for command in commands:
            spec = REFERENCES[command_key(command)]
            assert spec["rows"]
            for ref in spec["rows"]:
                for p_ref, accuracy, tol in ref.get("p", {}).values():
                    assert 0 < accuracy < tol <= 1e-7 and math.isfinite(p_ref)


def test_bare_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    copy = tmp_path / "bare"
    shutil.copytree(HERE, copy / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout
