"""Command-line interface for the counterdiabatic Ising toolkit.

Each subcommand declares the parameters it reads, with their defaults, once
in ``_COMMANDS``. That table gives the subcommand its flags (``--t-final``
for ``t_final``) and its config-file keys (the parameter names, with
underscores). A parameter resolves to its flag, else its entry in the
key=value file given by --config, else its default; a config key the
subcommand does not read is an error.

Subcommands emit self-describing CSV (manifest comments, header row, data
rows) either to --out or to stdout; verify prints its report to stdout and
writes CSV only to --out. The manifest records every resolved parameter
except --out and --jobs, so a file can be regenerated from its own header.
Exit codes: 0 success, 1 verification or computation failure, 2 bad
arguments, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from . import __version__, experiments
from .coefficients import CouplingKind, CouplingModel
from .dynamics import (
    DEFAULT_ABS_TOL,
    DEFAULT_G0,
    DEFAULT_GF,
    DEFAULT_REL_TOL,
    DEFAULT_T_FINAL,
    ChainConfig,
    IntegrationError,
    Schedule,
    evolve_chain,
)
from .spin_oracle import MAX_SPINS


def _int_list(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",") if piece.strip()]


def _float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece.strip()]


@dataclass(frozen=True)
class _Param:
    """One subcommand parameter: flag --<name>, config key <name>, text parser, default."""

    name: str
    parse: Callable[[str], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None


_CHAIN = _Param("n", int, 200, "chain length")
_N_LIST_HELP = "comma-separated chain lengths"
_T_FINAL = _Param("t_final", float, DEFAULT_T_FINAL, "ramp duration")
_RAMP = (
    _Param("g0", float, DEFAULT_G0, "initial field"),
    _Param("gf", float, DEFAULT_GF, "final field"),
)
_TOLERANCES = (
    _Param("rel_tol", float, DEFAULT_REL_TOL, "integrator relative tolerance"),
    _Param("abs_tol", float, DEFAULT_ABS_TOL, "integrator absolute tolerance"),
)
_M_MAX = _Param("m_max", int, None, "truncation range for --coupling truncated")
_JOBS = _Param("jobs", int, 1, "worker processes")


def _coupling(default: str, kinds: tuple[CouplingKind, ...] = tuple(CouplingKind)) -> _Param:
    return _Param("coupling", str, default, "coupling model", tuple(k.value for k in kinds))


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="ascii") as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    # flag > config entry > default, for each parameter of the subcommand
    params = _COMMANDS[args.command][2]
    config = _read_config(args.config) if args.config else {}
    keys = sorted(param.name for param in params)
    for key in config:
        if key not in keys:
            raise ValueError(
                f"{args.config}: unknown key {key!r} for {args.command}"
                f" (known keys: {', '.join(keys)})"
            )
    resolved: dict[str, object] = {"out": args.out}
    for param in params:
        value = getattr(args, param.name)
        if value is None and param.name in config:
            value = param.parse(config[param.name])
            # the check argparse makes on the flag
            if param.choices is not None and value not in param.choices:
                raise ValueError(
                    f"{args.config}: invalid {param.name} {value!r} for {args.command}"
                    f" (choose from {', '.join(param.choices)})"
                )
        resolved[param.name] = param.default if value is None else value
    return resolved


def _model(p: dict) -> CouplingModel:
    return CouplingModel(CouplingKind(p["coupling"]), p["m_max"])


def _chain(p: dict, n: int, t_final: float, model: CouplingModel) -> ChainConfig:
    schedule = Schedule(p["g0"], p["gf"], t_final)
    return ChainConfig(n, schedule, model, p["rel_tol"], p["abs_tol"])


def _grid(p: dict, name: str) -> list:
    # a sweep list, sorted, each value once; an empty one would write a header-only file
    if not p[name]:
        raise ValueError(f"{name} must list at least one value")
    return sorted(set(p[name]))


def _save(command: str, p: dict, columns: tuple[str, ...], rows) -> None:
    params = {key: value for key, value in p.items() if key not in ("out", "jobs")}
    experiments.save_csv(p["out"], command, params, columns, rows)


def cmd_coeffs(p: dict) -> int:
    rows = experiments.run_coeffs(p["n"], p["g0"], _model(p))
    _save("coeffs", p, ("m", "coupling"), rows)
    return 0


def cmd_sweep_truncation(p: dict) -> int:
    configs = [
        _chain(p, n, p["t_final"], CouplingModel(CouplingKind.TRUNCATED, m_max))
        for n in _grid(p, "n") for m_max in range(n // 2 + 1)
    ]
    rows = experiments.run_truncation_sweep(configs, p["jobs"])
    _save("sweep-truncation", p, ("n", "m_max", "p_gs"), rows)
    return 0


def cmd_sweep_size(p: dict) -> int:
    model = CouplingModel(CouplingKind(p["coupling"]))
    configs = [_chain(p, n, t, model) for n in _grid(p, "n") for t in _grid(p, "t_final")]
    rows = experiments.run_size_sweep(configs, p["jobs"])
    _save("sweep-size", p, ("n", "t_final", "p_gs"), rows)
    return 0


def cmd_trace(p: dict) -> int:
    rows = experiments.run_trace(_chain(p, p["n"], p["t_final"], _model(p)), p["samples"])
    _save("trace", p, ("t", "g", "p_instant"), rows)
    return 0


def cmd_verify(p: dict) -> int:
    checks = experiments.run_verification(p["n"], p["g_grid"])
    ok = experiments.verification_report(checks, sys.stdout)
    if p["out"] is not None:
        rows = [
            (check.name, check.scope, check.residual, check.threshold, check.passed)
            for check in checks
        ]
        _save("verify", p, ("name", "scope", "residual", "threshold", "passed"), rows)
    return 0 if ok else 1


def cmd_oracle(p: dict) -> int:
    if p["coupling"] == CouplingKind.TRUNCATED.value and p["m_max"] is None:
        models = [CouplingModel(CouplingKind.TRUNCATED, m) for m in range(p["n"] // 2 + 1)]
    else:
        models = [_model(p)]
    rows = experiments.run_oracle_comparison([_chain(p, p["n"], p["t_final"], m) for m in models])
    _save("oracle", p, ("coupling", "p_dense", "p_fermion", "abs_diff"), rows)
    return 0


def cmd_evolve(p: dict) -> int:
    model = _model(p)
    result = evolve_chain(_chain(p, p["n"], p["t_final"], model))
    row = [(p["n"], p["t_final"], model.label(), result.p_gs, result.norm_drift, result.steps)]
    _save("evolve", p, ("n", "t_final", "coupling", "p_gs", "norm_drift", "steps"), row)
    return 0


# subcommand -> (handler, help, parameters it reads)
_COMMANDS: dict[str, tuple[Callable[[dict], int], str, tuple[_Param, ...]]] = {
    "coeffs": (
        cmd_coeffs,
        "coupling table for one field value",
        (_CHAIN, _Param("g0", float, 1.0, "static field"), _coupling("exact"), _M_MAX),
    ),
    "sweep-truncation": (
        cmd_sweep_truncation,
        "final probability over truncation ranges (all m_max in [0, n/2])",
        (_Param("n", _int_list, [10, 30, 50, 70, 100, 200], _N_LIST_HELP), _T_FINAL, *_RAMP,
         *_TOLERANCES, _JOBS),
    ),
    "sweep-size": (
        cmd_sweep_size,
        "final probability over chain lengths and ramp durations",
        (_Param("n", _int_list, list(range(10, 201, 10)), _N_LIST_HELP),
         _Param("t_final", _float_list, [1.0, 10.0, 100.0], "comma-separated ramp durations"),
         # no --m-max here, so no truncated model either
         _coupling("thermo", tuple(k for k in CouplingKind if k is not CouplingKind.TRUNCATED)),
         *_RAMP, *_TOLERANCES, _JOBS),
    ),
    "trace": (
        cmd_trace,
        "instantaneous probability along one ramp",
        (_CHAIN, _T_FINAL, _coupling("thermo"), _M_MAX,
         _Param("samples", int, 500, "number of trace samples"), *_RAMP, *_TOLERANCES),
    ),
    "verify": (
        cmd_verify,
        "identity and oracle verification suite",
        (_Param("n", _int_list, [2, 4, 8, 16, 64, 200], _N_LIST_HELP),
         _Param("g_grid", _float_list, None,
                "comma-separated field values; None is 0, 1 and 0.05 to 5 in steps of 0.45")),
    ),
    "oracle": (
        cmd_oracle,
        "dense spin evolution vs fermionic pipeline",
        (_Param("n", int, 4, f"spin count (<= {MAX_SPINS})"), _T_FINAL, _coupling("exact"),
         _M_MAX, *_RAMP, *_TOLERANCES),
    ),
    "evolve": (
        cmd_evolve,
        "single chain evolution",
        (_Param("n", int, 100, "chain length"), _T_FINAL, _coupling("exact"), _M_MAX,
         *_RAMP, *_TOLERANCES),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The cdising parser: every subcommand with its flags, or only command's flags.

    With a command named, the other subcommands are registered with their
    help but no flags, so the top-level usage, choices and errors read the
    same, and the named one parses as in the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="cdising",
        description="Counterdiabatic driving of the transverse-field Ising chain.",
    )
    parser.add_argument("--version", action="version", version=f"cdising {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is not None and name != command:
            continue
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--config", help="key=value file supplying defaults")
        for param in params:
            p.add_argument(
                "--" + param.name.replace("_", "-"), type=param.parse, choices=param.choices,
                help=f"{param.help} (default: {param.default})",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option with a value, so its first positional
    # argument names the subcommand, the one whose flags are built
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except IntegrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
