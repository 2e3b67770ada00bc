"""Unit tests for the sweep runners, CSV output and command-line interface."""

from __future__ import annotations

import inspect
import io
import math
import warnings

import numpy as np
import pytest
import scipy

import cdising.dynamics
import cdising.spin_oracle
from cdising import (
    ChainConfig,
    CouplingKind,
    CouplingModel,
    Schedule,
    __version__,
    experiments,
    momentum_grid,
)
from cdising.cli import _COMMANDS, main
from cdising.coefficients import cos_multiple_expansion
from cdising.dynamics import cd_drive_exact, cd_drive_from_couplings, cd_drive_thermo
from cdising.experiments import (
    Check,
    _chebyshev_shifted,
    run_coeffs,
    run_size_sweep,
    run_trace,
    run_truncation_sweep,
    run_verification,
    save_csv,
    verification_report,
)

EXACT = CouplingModel(CouplingKind.EXACT)
THERMO = CouplingModel(CouplingKind.THERMODYNAMIC)


def chain(n: int, model: CouplingModel = THERMO, samples: int = 0) -> ChainConfig:
    # the CLI's default ramp over T = 1
    return ChainConfig(n, Schedule(5.0, 0.0, 1.0), model, trace_points=samples)


def truncations(n: int) -> list[ChainConfig]:
    return [chain(n, CouplingModel(CouplingKind.TRUNCATED, m)) for m in range(n // 2 + 1)]


def data_rows(text: str) -> list[str]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[1:]  # drop the header row


def test_manifest_lines(capsys):
    save_csv(None, "demo", {"n": 4, "g0": 1.5}, ("x",), [])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# command = demo"
    assert lines[1] == f"# version = cdising {__version__} numpy {np.__version__} scipy {scipy.__version__}"
    assert lines[2].startswith("# timestamp = ")
    assert lines[3] == "# g0 = 1.5"
    assert lines[4] == "# n = 4"


def test_write_csv_layout_and_float_repr(capsys):
    save_csv(None, "demo", {"n": 2}, ("a", "b"), [(1, 1.0 / 3.0), (2, 0.05)])
    lines = capsys.readouterr().out.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_at] == "a,b"
    assert lines[header_at + 1] == "1,0.3333333333333333"
    assert lines[header_at + 2] == "2,0.05"
    # repr round-trips: parsing the cell recovers the exact float
    assert float(lines[header_at + 1].split(",")[1]) == 1.0 / 3.0


def test_save_csv_stdout_and_file(tmp_path, capsys):
    save_csv(None, "demo", {}, ("x",), [(1,)])
    out = capsys.readouterr().out
    assert "# command = demo" in out and out.endswith("1\n")
    path = tmp_path / "out.csv"
    save_csv(str(path), "demo", {}, ("x",), [(1,)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"x\n1\n")


def test_run_coeffs_rows():
    assert run_coeffs(4, 1.0, EXACT) == [(1, 0.125), (2, 0.125)]
    rows = run_coeffs(2, 2.0, EXACT)
    assert rows[0][0] == 1 and math.isclose(rows[0][1], 0.05, rel_tol=1e-14)


def test_run_truncation_sweep_small():
    configs = truncations(4)
    rows = run_truncation_sweep(configs)
    assert [(n, m) for n, m, _ in rows] == [(4, 0), (4, 1), (4, 2)]
    # full range reproduces the exact drive; the bare ramp does not
    assert abs(rows[-1][2] - 1.0) < 1e-8
    assert rows[0][2] < rows[-1][2]
    # a subset of the configs runs on its own, to the same bits
    short = run_truncation_sweep([configs[0], configs[2]])
    assert [(n, m) for n, m, _ in short] == [(4, 0), (4, 2)]
    assert short[0][2] == rows[0][2]


def test_run_size_sweep_small_and_parallel():
    serial = run_size_sweep([chain(4), chain(6)], jobs=1)
    assert [(n, t) for n, t, _ in serial] == [(4, 1.0), (6, 1.0)]
    parallel = run_size_sweep([chain(4), chain(6)], jobs=2)
    assert serial == parallel


def test_run_trace_small():
    rows = run_trace(chain(4, samples=5))
    assert len(rows) == 5
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    assert abs(rows[0][2] - 1.0) < 1e-12
    # a truncation range with a non-truncated model is rejected, not ignored
    with pytest.raises(ValueError, match="m_max"):
        run_trace(chain(4, CouplingModel(CouplingKind.THERMODYNAMIC, 1), samples=5))


def test_run_verification_clean_and_corrupt():
    checks = run_verification([2, 4], [0.5, 2.0])
    assert all(check.passed for check in checks)
    assert [(check.name, check.threshold) for check in checks] == [
        ("coupling closed vs sum", 1e-12),
        ("cosine sum closed vs sum", 1e-12),
        ("field-inversion duality", 1e-12),
        ("reduction identities", 1e-12),
        ("power sum closed vs sum", 1e-12),
        ("power sum recurrence", 1e-12),
        ("expansion Chebyshev identity", 0.5),
        ("expansion reconstruction", 1e-10),
        ("drive resummation", 1e-12),
        ("dense ground energies", 1e-10),
        ("dense vs fermionic evolution", 1e-6),
    ]
    corrupted = run_verification([2, 4], [0.5, 2.0], corrupt=True)
    failed = [check for check in corrupted if not check.passed]
    assert [check.name for check in failed] == ["coupling closed vs sum"]
    assert failed[0].scope == "m=1 g=2.0 n=4"


def test_run_verification_reports_only_the_checks_it_evaluated():
    # at g = 0 alone the duality, the reduction identities and both power-sum
    # checks have no grid point; they are left out, not passed at -1
    checks = run_verification([4], [0.0])
    assert [check.name for check in checks] == [
        "coupling closed vs sum",
        "cosine sum closed vs sum",
        "expansion Chebyshev identity",
        "expansion reconstruction",
        "drive resummation",
        "dense ground energies",
        "dense vs fermionic evolution",
    ]
    assert all(check.passed and check.residual >= 0 and check.scope for check in checks)


@pytest.mark.parametrize(
    "argv, name", [(["verify", "--n", ""], "n_values"), (["verify", "--g-grid", ""], "g_values")]
)
def test_cli_verify_rejects_an_empty_grid(argv, name, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and name in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep-size", "--n", ","], "n"),
        (["sweep-size", "--t-final", ","], "t_final"),
        (["sweep-truncation", "--n", ","], "n"),
    ],
)
def test_cli_sweeps_reject_an_empty_list(argv, name, capsys):
    # a header-only CSV would pass for a finished sweep
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} must list at least one value\n"
    assert captured.out == ""


def test_verification_report_format():
    stream = io.StringIO()
    ok = verification_report(
        [Check("demo", "m=1 g=2 n=4", 1e-15, 1e-12)], stream
    )
    assert ok
    text = stream.getvalue()
    assert text.startswith("pass  demo:")
    assert "m=1 g=2 n=4" in text
    stream = io.StringIO()
    ok = verification_report([Check("demo", "scope", 1.0, 1e-12)], stream)
    assert not ok and "FAIL" in stream.getvalue()


def test_chebyshev_route_matches_expansions():
    polys = _chebyshev_shifted(10)
    for m in range(11):
        assert polys[m] == cos_multiple_expansion(m)


def test_cli_coeffs_to_file(tmp_path):
    path = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--n", "4", "--g0", "1.0", "--out", str(path)]) == 0
    text = path.read_text()
    assert "# command = coeffs" in text
    assert data_rows(text) == ["1,0.125", "2,0.125"]


def test_cli_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["coeffs", "--n", "6", "--g0", "0.8"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert data_rows(first.read_text()) == data_rows(second.read_text())


def test_cli_truncation_range_beyond_half_chain_exits_2_with_one_message(capsys):
    # ChainConfig checks m_max for every pipeline, with the message coeffs gives
    errors = {}
    for command in ("coeffs", "oracle", "evolve", "trace"):
        argv = [command, "--n", "4", "--coupling", "truncated", "--m-max", "3"]
        assert main(argv) == 2, command
        errors[command] = capsys.readouterr().err
    assert errors["oracle"] == "error: truncation range m_max=3 outside [0, 2]\n"
    assert set(errors.values()) == {errors["oracle"]}


def test_cli_m_max_errors_are_the_library_messages(capsys):
    # the CLI adds no rule of its own on pairing --coupling with --m-max
    cases = [
        (["evolve", "--coupling", "truncated"], (CouplingKind.TRUNCATED, None)),
        (["evolve", "--coupling", "exact", "--m-max", "2"], (CouplingKind.EXACT, 2)),
    ]
    for argv, (kind, m_max) in cases:
        with pytest.raises(ValueError) as library:
            CouplingModel(kind, m_max)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {library.value}\n"


@pytest.mark.parametrize(
    "argv, module, message",
    [
        (["evolve", "--n", "4", "--t-final", "1"], cdising.dynamics,
         "integration failed on [0, 1]: "),
        (["oracle", "--n", "4", "--t-final", "1"], cdising.spin_oracle,
         "dense run (n=4, exact): "),
    ],
)
def test_cli_integration_failure_exits_1_with_one_line(argv, module, message, monkeypatch, capsys):
    real = module.solve_ivp

    def failing(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.success = False
        return sol

    monkeypatch.setattr(module, "solve_ivp", failing)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_cli_bad_arguments_exit_2(capsys):
    assert main(["coeffs", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["coeffs", "--coupling", "truncated"]) == 2
    assert main(["evolve", "--n", "4", "--coupling", "exact", "--m-max", "2"]) == 2
    with pytest.raises(SystemExit):
        main(["coeffs", "--no-such-flag"])
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize(
    "argv, name",
    [
        (["evolve", "--n", "20", "--coupling", "thermo", "--abs-tol", "inf"], "abs_tol"),
        (["evolve", "--n", "4", "--rel-tol", "nan"], "rel_tol"),
        (["evolve", "--n", "4", "--g0", "nan"], "g0"),
        (["evolve", "--n", "4", "--gf", "inf"], "gf"),
        (["evolve", "--n", "4", "--t-final", "1e-120"], "duration"),
        (["evolve", "--n", "4", "--t-final", "1e200"], "duration"),
        (["trace", "--n", "4", "--t-final", "nan"], "duration"),
        (["oracle", "--n", "4", "--abs-tol", "-1"], "abs_tol"),
        (["evolve", "--n", "4", "--g0", "1e200"], "g0"),
        (["coeffs", "--n", "4", "--g0", "nan"], "field g"),
        (["coeffs", "--n", "4", "--g0", "inf"], "field g"),
        (["coeffs", "--n", "4", "--g0", "-1", "--coupling", "direct"], "field g"),
    ],
)
def test_cli_rejects_bad_ramp_and_tolerances_naming_the_parameter(argv, name, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_cli_rejects_rel_tol_below_the_floor_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--n", "20", "--rel-tol", "1e-16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rel_tol must be at least 2.220446049250313e-14, got 1e-16\n"
    assert captured.out == ""


@pytest.mark.parametrize("field, power", [("1e100", "100"), ("1e-100", "-100")])
def test_cli_verify_at_an_extreme_field_exits_2(field, power, capsys):
    # the closed power sum at order 4 overflows: one error line, no traceback
    assert main(["verify", "--n", "4", "--g-grid", field]) == 2
    err = capsys.readouterr().err
    assert err == f"error: sinh(x/2)^8 overflows a float at field g = 10^{power}\n"


def test_cli_unwritable_path_exits_3(capsys):
    assert main(["coeffs", "--n", "4", "--out", "/nonexistent/dir/x.csv"]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_verify_small_scope(tmp_path, capsys):
    path = tmp_path / "verify.csv"
    code = main(["verify", "--n", "2,4", "--g-grid", "0.5,2.0", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    text = path.read_text()
    assert "name,scope,residual,threshold,passed" in text
    assert all(row.endswith("True") for row in data_rows(text))


def test_cli_verify_self_test_corrupt(capsys):
    code = main(["verify", "--n", "2,4", "--g-grid", "0.5,2.0", "--self-test-corrupt"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_trace_small(tmp_path):
    path = tmp_path / "trace.csv"
    code = main(
        ["trace", "--n", "4", "--t-final", "1", "--samples", "5", "--out", str(path)]
    )
    assert code == 0
    text = path.read_text()
    assert "# command = trace" in text and "# samples = 5" in text
    rows = data_rows(text)
    assert len(rows) == 5
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - 1.0) < 1e-12


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
def test_cli_trace_rejects_too_few_samples(samples, capsys):
    assert main(["trace", "--n", "4", "--t-final", "1", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {samples}" in err


def test_cli_evolve_and_oracle(tmp_path):
    evolve_path = tmp_path / "evolve.csv"
    code = main(
        ["evolve", "--n", "4", "--t-final", "1", "--coupling", "exact",
         "--out", str(evolve_path)]
    )
    assert code == 0
    row = data_rows(evolve_path.read_text())[0].split(",")
    assert row[0] == "4" and row[2] == "exact"
    assert abs(float(row[3]) - 1.0) < 1e-8

    oracle_path = tmp_path / "oracle.csv"
    code = main(["oracle", "--n", "2", "--t-final", "1", "--out", str(oracle_path)])
    assert code == 0
    row = data_rows(oracle_path.read_text())[0].split(",")
    assert row[0] == "exact"
    assert float(row[3]) <= 1e-6


def test_cli_oracle_truncated_scans_all_ranges(tmp_path):
    path = tmp_path / "oracle.csv"
    code = main(
        ["oracle", "--n", "4", "--t-final", "1", "--coupling", "truncated",
         "--out", str(path)]
    )
    assert code == 0
    labels = [row.split(",")[0] for row in data_rows(path.read_text())]
    assert labels == [
        "truncated(m_max=0)", "truncated(m_max=1)", "truncated(m_max=2)",
    ]


def test_cli_sweeps_small(tmp_path):
    trunc = tmp_path / "trunc.csv"
    code = main(["sweep-truncation", "--n", "4", "--t-final", "1", "--out", str(trunc)])
    assert code == 0
    assert len(data_rows(trunc.read_text())) == 3

    size = tmp_path / "size.csv"
    code = main(
        ["sweep-size", "--n", "4,6", "--t-final", "1", "--coupling", "thermo",
         "--out", str(size)]
    )
    assert code == 0
    rows = data_rows(size.read_text())
    assert [row.split(",")[0] for row in rows] == ["4", "6"]


def test_cli_sweeps_run_each_distinct_value_once(capsys):
    assert main(["sweep-size", "--n", "4,4", "--t-final", "1,1.0"]) == 0
    out = capsys.readouterr().out
    assert len(data_rows(out)) == 1
    # the manifest keeps the lists as given
    assert "# n = [4, 4]" in out and "# t_final = [1.0, 1.0]" in out
    assert main(["sweep-truncation", "--n", "4,4", "--t-final", "1"]) == 0
    assert [row.split(",")[:2] for row in data_rows(capsys.readouterr().out)] == [
        ["4", "0"], ["4", "1"], ["4", "2"],
    ]


def test_cli_config_file_defaults_and_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("n = 4\nt_final = 1\n# comment\n\ncoupling = exact\n")
    out = tmp_path / "a.csv"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text()
    assert "# n = 4" in text and "# t_final = 1.0" in text
    # explicit flags beat config values
    out2 = tmp_path / "b.csv"
    assert main(["evolve", "--config", str(config), "--n", "6", "--out", str(out2)]) == 0
    assert "# n = 6" in out2.read_text()


def test_cli_config_file_rejects_garbage(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("not a key value line\n")
    assert main(["evolve", "--config", str(config)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_cli_missing_config_file_exits_3(capsys):
    assert main(["evolve", "--config", "/nonexistent/run.conf"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, line",
    [
        ("evolve", "rel-tol = 1e-3"),
        ("evolve", "samples = 3"),
        ("evolve", "bogus = 1"),
        ("evolve", "out = x.csv"),
        ("verify", "self_test_corrupt = True"),  # a switch is a flag only
    ],
)
def test_cli_config_file_rejects_keys_the_command_does_not_read(command, line, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"n = 4\n{line}\n")
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("value", ["truncated", "bogus"])
def test_cli_config_file_values_obey_the_flag_choices(value, tmp_path, capsys):
    # sweep-size offers exact|direct|thermo, from a flag or a config entry alike
    config = tmp_path / "run.conf"
    config.write_text(f"n = 4\ncoupling = {value}\n")
    assert main(["sweep-size", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "coupling" in err and repr(value) in err and "exact, direct, thermo" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--gf", "0"],
        ["coeffs", "--rel-tol", "1e-3"],
        ["coeffs", "--abs-tol", "1e-3"],
        ["sweep-truncation", "--coupling", "exact"],
        ["sweep-truncation", "--m-max", "1"],
        ["sweep-size", "--m-max", "1"],
        ["verify", "--g0", "1"],
        ["verify", "--gf", "0"],
        ["verify", "--rel-tol", "1e-3"],
        ["verify", "--abs-tol", "1e-3"],
        ["verify", "--coupling", "exact"],
        ["verify", "--m-max", "1"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_sweep_size_offers_no_truncated_coupling(capsys):
    # sweep-size has no --m-max, so a truncated model could never run
    with pytest.raises(SystemExit) as raised:
        main(["sweep-size", "--n", "4", "--t-final", "1", "--coupling", "truncated"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'truncated'" in err
    offered = err.split("choose from")[1]
    assert all(kind in offered for kind in ("exact", "direct", "thermo"))
    assert "truncated" not in offered


def _argv_from_manifest(text: str) -> list[str]:
    # every "# key = value" line after command/version/timestamp is a flag;
    # lists print as [a, b], None means unset, switches print as True/False
    lines = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    argv = [lines[0].partition(" = ")[2]]
    for line in lines[3:]:
        key, _, value = line.partition(" = ")
        flag = "--" + key.replace("_", "-")
        if value == "True":
            argv.append(flag)
        elif value not in ("None", "False"):
            argv += [flag, value.strip("[]").replace(" ", "")]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--n", "6", "--g0", "0.7", "--coupling", "truncated", "--m-max", "2"],
        ["sweep-truncation", "--n", "4", "--t-final", "1", "--g0", "3", "--rel-tol", "1e-8"],
        ["sweep-size", "--n", "4,6", "--t-final", "1,2", "--coupling", "exact", "--gf", "0.5"],
        ["trace", "--n", "6", "--t-final", "1", "--samples", "4", "--coupling", "truncated",
         "--m-max", "1"],
        ["verify", "--n", "2,4", "--g-grid", "0.5,2.0", "--self-test-corrupt"],
        ["oracle", "--n", "4", "--t-final", "1", "--coupling", "truncated", "--m-max", "1"],
        ["evolve", "--n", "6", "--t-final", "1", "--coupling", "truncated", "--m-max", "2",
         "--abs-tol", "1e-11"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_output_regenerates_from_its_manifest(argv, tmp_path, capsys):
    first = tmp_path / "first.csv"
    code = main(argv + ["--out", str(first)])
    rebuilt = _argv_from_manifest(first.read_text())
    second = tmp_path / "second.csv"
    assert main(rebuilt + ["--out", str(second)]) == code
    capsys.readouterr()
    assert data_rows(first.read_text()) and data_rows(second.read_text())
    assert data_rows(second.read_text()) == data_rows(first.read_text())


def test_cli_manifest_records_coupling_and_m_max_separately(tmp_path):
    path = tmp_path / "evolve.csv"
    argv = ["evolve", "--n", "4", "--t-final", "1", "--coupling", "truncated", "--m-max", "1"]
    assert main(argv + ["--out", str(path)]) == 0
    text = path.read_text()
    assert "# coupling = truncated" in text and "# m_max = 1" in text
    assert data_rows(text)[0].split(",")[2] == "truncated(m_max=1)"


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweeps_reject_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_size_sweep([chain(4)], jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        run_truncation_sweep(truncations(4), jobs=jobs)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_fewer_than_one_job(jobs, capsys):
    assert main(["sweep-size", "--n", "4", "--t-final", "1", "--jobs", jobs]) == 2
    assert "error: jobs must be >= 1" in capsys.readouterr().err


def test_pool_is_never_larger_than_the_sweep(monkeypatch):
    configs = [chain(4), chain(6)]
    serial = run_size_sweep(configs, jobs=1)
    # a real pool: 3 jobs on 2 configs, bit-identical to the serial rows
    assert run_size_sweep(configs, jobs=3) == serial
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "Pool", RecordingPool)
    assert run_size_sweep(configs, jobs=3) == serial
    assert run_truncation_sweep(truncations(4), jobs=2) == run_truncation_sweep(truncations(4))
    assert sizes == [2, 2]


def test_verify_drive_resummation_matches_the_per_momentum_scan():
    # the check evaluates each kernel once on the grid; it must report the
    # same worst residual and location as scanning k by k, exact first
    n_values, g_values = [4, 8], [0.5, 1.0, 2.0]
    worst = (-1.0, "")
    for n in n_values:
        for g in g_values:
            for k in momentum_grid(n):
                for kind, closed, model in (
                    ("exact", cd_drive_exact(k, g), CouplingModel(CouplingKind.EXACT)),
                    ("thermo", cd_drive_thermo(k, g, n),
                     CouplingModel(CouplingKind.THERMODYNAMIC)),
                ):
                    summed = cd_drive_from_couplings(k, g, model, n)
                    r = abs(closed - summed) / max(1.0, abs(closed), abs(summed))
                    if r > worst[0]:
                        worst = (r, f"{kind} drive k={k:.3f} g={g} n={n}")
    checks = run_verification(n_values, g_values)
    check = next(check for check in checks if check.name == "drive resummation")
    assert (check.residual, check.scope) == (float(worst[0]), worst[1])


def test_cli_verify_runs_the_dense_checks_up_to_max_spins(capsys):
    code = main(["verify", "--n", "10", "--g-grid", "0.5,2.0"])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    dense = [line for line in out.splitlines() if "dense" in line]
    assert len(dense) == 2
    assert all(line.startswith("pass") and "n=10" in line.split(" at ")[1] for line in dense)


@pytest.mark.parametrize(
    "runner, command",
    [
        (run_truncation_sweep, "sweep-truncation"),
        (run_size_sweep, "sweep-size"),
        (ChainConfig, "evolve"),
    ],
)
def test_library_defaults_equal_the_cli_defaults(runner, command):
    cli_defaults = {param.name: param.default for param in _COMMANDS[command][2]}
    shared = [
        parameter
        for parameter in inspect.signature(runner).parameters.values()
        if parameter.name in cli_defaults and parameter.default is not inspect.Parameter.empty
    ]
    assert shared
    for parameter in shared:
        assert parameter.default == cli_defaults[parameter.name], parameter.name
