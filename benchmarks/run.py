"""cdising benchmark: run one workload, check every output row, print metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Each pass runs the workload's commands through ``cdising.cli.main`` in this
process, in an order drawn from the seed, writing CSVs to a temporary
directory under ``.bench_out/``. Passes repeat, at least two of them, until
--seconds have gone by. Every data row of every pass is checked against
``references.json``, and must be byte-identical to the same row of the
first pass. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
p_err_max, peak_rss_mb). With --trace 1 the run makes one untraced pass
and then one traced pass, and reports the per-layer metrics of the traced
pass (see tracing.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import CommandCheck, check_output
from tracing import Tracer, per_layer
from workloads import WORKLOADS, command_key, pass_order

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cdising.cli\n"
    "cdising.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def import_cli():
    """Cap BLAS/OpenMP threads at 1, then import cdising.cli from SOURCE.

    The thread pools are sized when numpy loads, so the cap comes first.
    Raises ImportError when the checkout has no cdising under SOURCE.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SOURCE))
    try:
        import cdising.cli as cli
    except ImportError as error:
        raise ImportError(f"cannot import cdising from {SOURCE}: {error}") from error
    if SOURCE not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"cdising was imported from {cli.__file__}, not {SOURCE}")
    return cli


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import cdising.cli and build its parser, each in a fresh process.

    One extra import runs first and is dropped: it writes the bytecode
    cache and warms the file cache, which a user pays once, not per run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    values = []
    for _ in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(done.stdout))
    return values[1:]


def invoke(cli, argv: list[str]) -> int:
    """cdising.cli.main(argv) with its report output swallowed; returns the exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 1
    except Exception:  # the command's failure is the benchmark's finding
        traceback.print_exc()
        return 1


def run_pass(cli, commands, order: list[int], directory: Path) -> tuple[float, dict]:
    """Run commands in the given order; returns (seconds, index -> (exit code, CSV text)).

    seconds is the sum of the commands' own times.
    """
    directory.mkdir()
    codes = {}
    seconds = 0.0
    for index in order:
        # Untimed: free what the previous command left in reference cycles
        # (the dense oracle leaves ~100 MB), as separate CLI invocations
        # would; otherwise peak_rss_mb depends on when the collector runs.
        gc.collect()
        argv = list(commands[index]) + ["--out", str(directory / f"{index}.csv")]
        start = time.perf_counter()
        codes[index] = invoke(cli, argv)
        seconds += time.perf_counter() - start
    outputs = {}
    for index, code in codes.items():
        path = directory / f"{index}.csv"
        outputs[index] = (code, path.read_text(encoding="ascii") if path.exists() else "")
    return seconds, outputs


def compare_to_first(first: CommandCheck, later: CommandCheck) -> None:
    """Fail each row of a later pass whose bytes differ from the first pass."""
    header_differs = first.data_lines[:1] != later.data_lines[:1]
    for row, problem in enumerate(later.failures):
        if problem is not None:
            continue
        line = row + 1
        if header_differs or first.data_lines[line:line + 1] != later.data_lines[line:line + 1]:
            later.failures[row] = "row differs from the first pass"


def check_passes(commands, specs, passes: list[dict]) -> tuple[int, int, float]:
    """Check every pass's outputs; returns (attempted, failed, p_err_max)."""
    first: list[CommandCheck] = []
    attempted = failed = 0
    p_err_max = 0.0
    for number, outputs in enumerate(passes):
        for index, spec in enumerate(specs):
            result = check_output(spec, *outputs[index])
            if number == 0:
                first.append(result)
            else:
                compare_to_first(first[index], result)
            attempted += len(result.failures)
            p_err_max = max(p_err_max, result.p_err)
            for row, problem in enumerate(result.failures):
                if problem is not None:
                    failed += 1
                    print(f"FAIL pass {number} `{command_key(commands[index])}` row {row}: {problem}")
    return attempted, failed, p_err_max


def environment(numpy, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except ImportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    references = json.loads((HERE / "references.json").read_text(encoding="ascii"))["commands"]
    commands = WORKLOADS[args.workload]
    specs = [references[command_key(command)] for command in commands]
    print("env:", json.dumps(environment(numpy, scipy), sort_keys=True))

    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    OUT.mkdir(exist_ok=True)
    passes = []  # (seconds, outputs, traced)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        begin = time.perf_counter()
        while len(passes) < (1 if args.trace else 2) or time.perf_counter() - begin < args.seconds:
            order = pass_order(args.workload, args.seed, len(passes))
            passes.append((*run_pass(cli, commands, order, Path(scratch) / f"pass{len(passes)}"), False))
        if args.trace:
            order = pass_order(args.workload, args.seed, len(passes))
            tracer.install()
            try:
                passes.append((*run_pass(cli, commands, order, Path(scratch) / "traced"), True))
            finally:
                tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, p_err_max = check_passes(commands, specs, [outputs for _, outputs, _ in passes])

    untraced = [seconds for seconds, _, traced in passes if not traced]
    print(f"passes: {len(passes)}, untraced seconds {[round(s, 3) for s in untraced]}")
    if args.trace:
        traced_wall = passes[-1][0]
        layers = per_layer(tracer)
        layers["trace.wall_s"] = (traced_wall, "s", None)
        layers["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s", None)
        metrics = {}
        for name, (value, unit, reason) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            if reason:
                metrics[name]["missing"] = reason
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({
            "spans": tracer.spans, "tallies": tracer.tallies, "counters": tracer.counters,
        }), encoding="ascii")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "p_err_max": {"value": p_err_max, "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, metric in metrics.items():
        shown = "missing: " + metric["missing"] if "missing" in metric else repr(metric["value"])
        print(f"{name} = {shown} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
