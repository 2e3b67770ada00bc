"""Per-layer tracing of cdising from the outside.

The traced run replaces the names each cdising module looks up when it
calls into another layer (``experiments.evolve_chain``,
``dynamics.solve_ivp``, ...) with wrappers, and restores them afterwards.
No file of the package changes.

Two kinds of wrapper exist:

* a span records one entry per call: name, start, end, parent span, and
  the time covered by tallied calls made directly inside it;
* a tally, used on calls made millions of times (the mode RHS, the drive
  factor, the coupling set), only accumulates calls, total time and self
  time, and charges its time to whatever encloses it.

Two probes combine them: ``drive_function`` returns its callable wrapped
in a tally, and ``solve_ivp`` is a span whose RHS argument is wrapped in
a tally and whose result adds to the nfev and operator-byte counters.

Spans never run inside a tallied call, so a span's self time is its
duration minus the time its child spans cover minus its tallied time.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

SPAN, TALLY, FACTORY, INTEGRATOR = "span", "tally", "factory", "integrator"

RUNNERS = (
    "run_size_sweep",
    "run_truncation_sweep",
    "run_trace",
    "run_verification",
    "run_oracle_comparison",
)
# the coefficient functions the verify battery calls directly
IDENTITY_FUNCTIONS = (
    "coupling_exact",
    "coupling_sum",
    "cos_sum_exact",
    "cos_sum",
    "identity_residuals",
    "power_sum",
    "power_sum_exact",
    "cos_multiple_expansion",
    "sin_product_expansion",
)
BUILD_SPANS = (
    "spin_oracle.multi_spin_term",
    "spin_oracle.parity_ground_state",
    "spin_oracle.sector_ground_energy",
)


@dataclass(frozen=True)
class Probe:
    """One wrapped name: the metric-facing name and the bindings it replaces.

    sites are "module.attribute" pairs inside the cdising package; the
    probe wraps each binding where the caller looks it up.
    """

    name: str
    sites: tuple[str, ...]
    kind: str = SPAN


PROBES = (
    Probe("cli.main", ("cli.main",)),
    *(Probe(f"experiments.{name}", (f"experiments.{name}",)) for name in RUNNERS),
    Probe("experiments.save_csv", ("experiments.save_csv",)),
    Probe("dynamics.evolve_chain", ("experiments.evolve_chain", "cli.evolve_chain")),
    Probe("dynamics.ground_state_probability", ("dynamics.ground_state_probability",)),
    Probe("dynamics.drive_function", ("dynamics.drive_function",), FACTORY),
    Probe("dynamics.solve_ivp", ("dynamics.solve_ivp",), INTEGRATOR),
    Probe("spin_oracle.dense_evolve", ("experiments.dense_evolve",)),
    Probe("spin_oracle.multi_spin_term", ("spin_oracle.multi_spin_term",)),
    Probe("spin_oracle.parity_ground_state", ("spin_oracle.parity_ground_state",)),
    Probe("spin_oracle.sector_ground_energy", ("experiments.sector_ground_energy",)),
    Probe("spin_oracle.solve_ivp", ("spin_oracle.solve_ivp",), INTEGRATOR),
    Probe(
        "coefficients.coupling_set",
        ("dynamics.coupling_set", "spin_oracle.coupling_set", "experiments.coupling_set"),
        TALLY,
    ),
    Probe(
        "coefficients.identity",
        tuple(f"experiments.{name}" for name in IDENTITY_FUNCTIONS),
        TALLY,
    ),
)


def _operator_bytes(fun: Callable) -> int:
    # bytes of the matrices an RHS closure multiplies by (dense or sparse)
    total = 0
    for cell in getattr(fun, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # an empty cell
            continue
        if getattr(value, "ndim", 0) >= 2:
            if hasattr(value, "nbytes"):
                total += value.nbytes
            elif hasattr(value, "data") and hasattr(value.data, "nbytes"):
                total += sum(part.nbytes for part in (value.data, value.indices, value.indptr))
    return total


class Tracer:
    """Spans, tallies and counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, tallied time]
        self.tallies: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = {}
        self.missing: dict[str, str] = {}  # probe name -> reason
        self._stack: list[list[float]] = [[0.0]]  # tallied child time of each open call
        self._current: int | None = None  # index of the innermost open span
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; after(args, kwargs, result) runs untimed."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, self._current, 0.0]
            spans.append(record)
            frame = [0.0]
            stack.append(frame)
            parent, self._current = self._current, index
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                self._current = parent
                record[4] = frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def tally(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so calls only add to the name's count, total and self time."""
        tally = self.tallies.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tally[0] += 1
                tally[1] += elapsed
                tally[2] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return wrapper

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        if probe.kind == TALLY:
            return self.tally(probe.name, fn)
        if probe.kind == FACTORY:
            drive = probe.name.rsplit("_", 1)[0]  # dynamics.drive_function -> dynamics.drive
            self.tallies.setdefault(drive, [0, 0.0, 0.0])

            def factory(*args, **kwargs):
                return self.tally(drive, fn(*args, **kwargs))

            return factory
        if probe.kind == INTEGRATOR:
            module = probe.name.split(".")[0]
            self.tallies.setdefault(f"{module}.rhs", [0, 0.0, 0.0])
            traced = self.span(probe.name, fn)

            def integrate(fun, *args, **kwargs):
                result = traced(self.tally(f"{module}.rhs", fun), *args, **kwargs)
                nfev = getattr(result, "nfev", 0)
                self.count(f"{module}.nfev", nfev)
                self.count(f"{module}.matvec_bytes", nfev * _operator_bytes(fun))
                return result

            return integrate
        after = _AFTER.get(probe.name)
        return self.span(probe.name, fn, None if after is None else functools.partial(after, self))

    def install(self) -> None:
        """Replace every site of every probe; record the probes whose names are gone."""
        for probe in PROBES:
            bindings = []
            for site in probe.sites:
                module_name, attribute = site.rsplit(".", 1)
                module = importlib.import_module(f"cdising.{module_name}")
                if not hasattr(module, attribute):
                    self.missing[probe.name] = f"cdising.{site} no longer exists"
                    break
                bindings.append((module, attribute))
            else:
                for module, attribute in bindings:
                    original = getattr(module, attribute)
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, self._wrap(probe, original))

    def remove(self) -> None:
        """Restore every binding install replaced."""
        while self._undo:
            module, attribute, original = self._undo.pop()
            setattr(module, attribute, original)


def _record_evolution(self: Tracer, args, kwargs, result) -> None:
    self.count("dynamics.steps", result.steps)
    self.peak("dynamics.norm_drift_max", result.norm_drift)


def _record_csv(self: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    if path is not None:
        self.count("experiments.csv_bytes", os.path.getsize(path))


_AFTER = {"dynamics.evolve_chain": _record_evolution, "experiments.save_csv": _record_csv}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals and its tallied time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, tallied in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, tallied) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered - tallied)
    return result


def per_layer(tracer: Tracer) -> dict[str, tuple[float | None, str, str | None]]:
    """Per-layer metrics: name -> (value or None, unit, reason it is missing)."""
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), own in zip(tracer.spans, self_times(tracer.spans)):
        totals[name] = totals.get(name, 0.0) + end - start
        selfs[name] = selfs.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def total(name):
        return totals.get(name, 0.0)

    def own(name):
        return selfs.get(name, 0.0)

    def tally(name, field):
        return tracer.tallies.get(name, [0, 0.0, 0.0])[field]

    counter = tracer.counters.get
    runners = [f"experiments.{name}" for name in RUNNERS]
    steps = counter("dynamics.steps", 0.0)
    # metric: (unit, probes it needs, value)
    table = {
        "dynamics.steps": ("count", ["dynamics.evolve_chain"], lambda: steps),
        "dynamics.nfev": ("count", ["dynamics.solve_ivp"], lambda: counter("dynamics.nfev", 0.0)),
        "dynamics.us_per_step": (
            "us", ["dynamics.solve_ivp", "dynamics.evolve_chain"],
            lambda: 1e6 * total("dynamics.solve_ivp") / steps if steps else 0.0,
        ),
        "dynamics.drive_calls": ("count", ["dynamics.drive_function"], lambda: tally("dynamics.drive", 0)),
        "dynamics.drive_s": ("s", ["dynamics.drive_function"], lambda: tally("dynamics.drive", 1)),
        "dynamics.rhs_s": ("s", ["dynamics.solve_ivp"], lambda: tally("dynamics.rhs", 1)),
        "dynamics.integrator_calls": ("count", ["dynamics.solve_ivp"], lambda: calls.get("dynamics.solve_ivp", 0)),
        "dynamics.integrator_s": ("s", ["dynamics.solve_ivp"], lambda: total("dynamics.solve_ivp")),
        "dynamics.integrator_self_s": ("s", ["dynamics.solve_ivp"], lambda: own("dynamics.solve_ivp")),
        "dynamics.assembly_s": (
            "s", ["dynamics.ground_state_probability"],
            lambda: total("dynamics.ground_state_probability"),
        ),
        "dynamics.evolve_chain_s": ("s", ["dynamics.evolve_chain"], lambda: total("dynamics.evolve_chain")),
        "dynamics.self_s": (
            "s",
            ["dynamics.evolve_chain", "dynamics.ground_state_probability",
             "dynamics.solve_ivp", "dynamics.drive_function"],
            lambda: own("dynamics.evolve_chain") + own("dynamics.ground_state_probability")
            + tally("dynamics.rhs", 2) + tally("dynamics.drive", 2),
        ),
        "dynamics.norm_drift_max": (
            "1", ["dynamics.evolve_chain"], lambda: counter("dynamics.norm_drift_max", 0.0)
        ),
        "coefficients.coupling_set_calls": (
            "count", ["coefficients.coupling_set"], lambda: tally("coefficients.coupling_set", 0)
        ),
        "coefficients.coupling_set_s": (
            "s", ["coefficients.coupling_set"], lambda: tally("coefficients.coupling_set", 1)
        ),
        "coefficients.identity_calls": (
            "count", ["coefficients.identity"], lambda: tally("coefficients.identity", 0)
        ),
        "coefficients.identity_s": ("s", ["coefficients.identity"], lambda: tally("coefficients.identity", 1)),
        "spin_oracle.dense_evolve_s": (
            "s", ["spin_oracle.dense_evolve"], lambda: total("spin_oracle.dense_evolve")
        ),
        "spin_oracle.build_s": ("s", list(BUILD_SPANS), lambda: sum(total(name) for name in BUILD_SPANS)),
        "spin_oracle.integrator_s": ("s", ["spin_oracle.solve_ivp"], lambda: total("spin_oracle.solve_ivp")),
        "spin_oracle.nfev": ("count", ["spin_oracle.solve_ivp"], lambda: counter("spin_oracle.nfev", 0.0)),
        "spin_oracle.matvec_bytes": (
            "B", ["spin_oracle.solve_ivp"], lambda: counter("spin_oracle.matvec_bytes", 0.0)
        ),
        "experiments.runner_self_s": ("s", runners, lambda: sum(own(name) for name in runners)),
        "experiments.csv_s": ("s", ["experiments.save_csv"], lambda: total("experiments.save_csv")),
        "experiments.csv_bytes": (
            "B", ["experiments.save_csv"], lambda: counter("experiments.csv_bytes", 0.0)
        ),
        "cli.self_s": ("s", ["cli.main"], lambda: own("cli.main")),
    }
    metrics = {}
    for name, (unit, needs, value) in table.items():
        gone = [tracer.missing[probe] for probe in needs if probe in tracer.missing]
        metrics[name] = (None, unit, "; ".join(gone)) if gone else (float(value()), unit, None)
    return metrics
