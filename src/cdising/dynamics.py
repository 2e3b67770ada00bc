"""Driven free-fermion dynamics of the counterdiabatic Ising chain.

After the fermionization of the periodic chain, each positive quasi-momentum
carries an independent two-level problem. This module integrates those 2x2
mode equations under a cubic field ramp and a chosen coupling model, all
modes of a chain stacked into one vector ODE in the adiabatic interaction
frame, and assembles final and instantaneous ground-state probabilities
from the per-mode amplitudes. The ODE is solved by the package's own
DOP853 (cdising._dop853), bit-identical to scipy's, so that importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._dop853 import Solve, solve_ivp, solve_lockstep
from .coefficients import (
    CouplingKind,
    CouplingModel,
    _check_chain_length,
    _check_field,
    _denominator,
    _per_field,
    coupling_set,
    momentum_grid,
)


# Run defaults, declared once for ChainConfig (the tolerances), the CLI (all
# five) and verify's dense check (the ramp ends): a ramp from DEFAULT_G0 to
# DEFAULT_GF over DEFAULT_T_FINAL, integrated at the default tolerances.
DEFAULT_G0 = 5.0
DEFAULT_GF = 0.0
DEFAULT_T_FINAL = 10.0
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
# smallest rel_tol a ChainConfig takes: 100 machine epsilons, the floor
# to which scipy's DOP853 raises a smaller one
MIN_REL_TOL = 100 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails to complete a run."""


def _cubic(t, g0, gf, duration, cube):
    # the ramp's field and rate at times t, in the one rounding order that
    # Schedule.ramp and the chains' clock share, for a ramp or for an array of
    # ramps; cube is duration**3, taken by libm's pow on each Python float
    # duration, as numpy's array power rounds some values differently
    x = t / duration
    return g0 + (gf - g0) * (3.0 - 2.0 * x) * x * x, 6.0 * (gf - g0) * t * (duration - t) / cube


@dataclass(frozen=True)
class Schedule:
    """Cubic field ramp g(t) with vanishing rate at both ends.

    Args:
        g0: initial field in [0, 1e100].
        gf: final field in [0, 1e100].
        duration: total ramp time in [1e-100, 1e100] (dimensionless, hbar = 1).
    """

    g0: float
    gf: float
    duration: float

    def __post_init__(self) -> None:
        # the drive and the gap square the field, which this bound keeps finite
        for name, value in (("g0", self.g0), ("gf", self.gf)):
            if not 0 <= value <= 1e100:
                raise ValueError(f"schedule {name} must lie in [0, 1e100], got {value}")
        # the rate divides by duration**3, which this range keeps a finite normal float
        if not 1e-100 <= self.duration <= 1e100:
            raise ValueError(f"schedule duration must lie in [1e-100, 1e100], got {self.duration}")

    def ramp(self, t):
        """Field g(t) and its analytic rate gdot(t), 0 <= t <= duration.

        t is a time or an array of times; an array gives an array of fields
        and one of rates, each element the scalar call's bit for bit.
        """
        inside = (0 <= t) & (t <= self.duration)  # False at a NaN
        if not np.all(inside):
            raise ValueError(f"time {np.extract(np.logical_not(inside), t)[0]} outside [0, {self.duration}]")
        return _cubic(t, self.g0, self.gf, self.duration, self.duration**3)

    def crossings(self) -> tuple[float, ...]:
        """Times strictly inside (0, duration) where the ramp crosses the critical field g = 1.

        The ramp is monotone, so it crosses at most once, where the
        smoothstep 3x^2 - 2x^3 reaches c = (1 - g0)/(gf - g0): at
        x = 1/2 - sin(asin(1 - 2c)/3). A ramp that starts or ends at 1 or
        stays on one side of it has none; so has one whose crossing rounds
        onto an end, where the ramp reads 1 to rounding.
        """
        if not min(self.g0, self.gf) < 1.0 < max(self.g0, self.gf):
            return ()
        c = (1.0 - self.g0) / (self.gf - self.g0)
        t_c = (0.5 - math.sin(math.asin(1.0 - 2.0 * c) / 3.0)) * self.duration
        return (t_c,) if 0.0 < t_c < self.duration else ()


@dataclass(frozen=True)
class ChainConfig:
    """One chain evolution: length, ramp, coupling model, solver knobs."""

    n: int
    schedule: Schedule
    coupling: CouplingModel
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL

    def __post_init__(self) -> None:
        _check_chain_length(self.n)
        self.coupling.check(self.n)
        for name, value in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL}, got {self.rel_tol}")


@dataclass
class EvolutionResult:
    """Outcome of a chain evolution.

    p_gs is the squared overlap with the target ground state at the final
    field, prod over modes of |d_g|^2 (see ground_state_probability); trace
    optionally samples the same overlap with the instantaneous ground state
    along the ramp as (t, g(t), probability) triples. steps counts the accepted
    steps of the one adiabatic-frame integration that carries every mode;
    it is not a sum over modes, and it does not depend on the samples.
    rejected counts the steps the error control rejected, and nfev the RHS
    evaluations (see _dop853.solve_ivp); all three count both segments of a
    ramp that crosses g = 1, where the integration restarts. norm_drift is
    the largest |d_g|^2 + |d_e|^2 - 1 (ground and excited amplitudes of one
    mode) over every mode and accepted step.
    """

    p_gs: float
    trace: list[tuple[float, float, float]] | None
    norm_drift: float
    steps: int
    nfev: int
    rejected: int


# Drive kernels take a scalar field g, or a column of fields (shape (S, 1)),
# and its denominator den at the momenta they were built for, which fix
# their trig factors once; a column gives one row per field (see
# coefficients._per_field).
def _exact_kernel(k) -> Callable:
    quarter_sin = 0.25 * np.sin(k)
    return lambda g, den: quarter_sin / den


def _thermo_kernel(k, n: int) -> Callable:
    quarter_sin, half_sin = 0.25 * np.sin(k), np.sin(0.5 * n * k)

    def scale(g: float) -> float:
        if g < 1.0:
            return g ** (n // 2 - 1) / 8.0 * (g * g - 1.0)
        return -(g ** (-(n // 2)) / (8.0 * g)) * (g * g - 1.0)

    def drive(g, den):
        return (quarter_sin + _per_field(scale, g) * half_sin) / den

    return drive


def _truncated_residual(k, n: int, m_max: int) -> Callable:
    # Minus the exact drive's tail, ranges m_max < m <= n/2. On the grid,
    # range n - m carries the same sin(mk), so the tail is one geometric
    # sum of u^(m-1) sin(mk) over m_max < m < n - m_max, u = min(g, 1/g);
    # above g = 1 the couplings' 1/g^2 turns its den(u) into den(g).
    m = m_max
    sin_m, sin_next = np.sin(m * k), np.sin((m + 1) * k)

    def weights(g: float) -> tuple[float, float, float]:
        u = g if g <= 1.0 else 1.0 / g
        return u ** (m + 1) + u ** (n - m - 1), u**m + u ** (n - m), 4.0 * (1.0 + u**n)

    def residual(g, den):
        weight_m, weight_next, norm = _per_field(weights, g)
        return (weight_m * sin_m - weight_next * sin_next) / (norm * den)

    return residual


def cd_drive_exact(k, g: float):
    """Momentum-space drive factor resummed from the exact couplings.

    Like every drive kernel here, k is a scalar or an array of momenta.
    """
    return _exact_kernel(k)(g, _denominator(g, np.cos(k)))


def cd_drive_thermo(k, g: float, n: int):
    """Drive factor resummed from the thermodynamic couplings.

    Exact drive plus a finite-size correction that is exponentially small
    in n away from the critical field; ferromagnetic branch below g = 1,
    paramagnetic branch at and above it. It shares the exact drive's
    denominator, so both agree at g = 1.
    """
    return _thermo_kernel(k, n)(g, _denominator(g, np.cos(k)))


def cd_drive_from_couplings(k, g: float, model: CouplingModel, n: int):
    """Drive factor summed literally from a coupling set.

    2 * sum over ranges m < n/2 of h_m sin(km), plus the half-weight
    longest-range term h_{n/2} sin(kn/2). The coupling set is built once
    per call, whatever the number of momenta.
    """
    weights = 2.0 * coupling_set(model, g, n)
    weights[-1] *= 0.5
    return (np.sin(np.multiply.outer(k, np.arange(1, n // 2 + 1))) * weights).sum(axis=-1)


def drive_function(model: CouplingModel, n: int, k) -> Callable:
    """Residual kernel (g, den) -> q_model(k, g) - q_exact(k, g) at fixed momenta k.

    This is the drive the adiabatic-frame RHS integrates. k is a scalar or
    an array of momenta; its trig factors are computed here, once per chain
    and not in every RHS evaluation. The kernel takes a scalar field g, or a
    column of fields (shape (S, 1)), and den = _denominator(g, cos k) at
    those momenta, which the caller computes once per field; a column gives
    one row per field, the scalar call's bit for bit, so the chain's clock
    takes all stage times of a step in one call. The residual is 0.0
    wherever the model's drive is the exact one by identity: the exact
    family, truncation at full range (m_max = n/2), whose couplings are the
    exact ones, and the direct-sum family, whose couplings are the grid sine
    transform of the exact drive and resum to it by discrete orthogonality
    (cd_drive_from_couplings sums them literally). Below full range the
    truncated residual has a real closed form (minus the tail of a geometric
    sum); the thermodynamic one subtracts the exact drive from its own. The
    caller validates m_max (see CouplingModel.check).
    """
    if model.kind is CouplingKind.TRUNCATED and model.m_max < n // 2:
        return _truncated_residual(k, n, model.m_max)
    if model.kind is CouplingKind.THERMODYNAMIC:
        exact, thermo = _exact_kernel(k), _thermo_kernel(k, n)
        return lambda g, den: thermo(g, den) - exact(g, den)
    return lambda g, den: 0.0


def _chains(configs: Sequence[ChainConfig]) -> tuple[Callable, Callable, Callable, np.ndarray]:
    # The RHS, clock, drift and initial state of the solves of chains of one
    # length. Each integrates every grid mode from its ground state at g0, in
    # the adiabatic interaction frame, over the stacked state
    # [d_g..., d_e..., phi...]: ground and excited amplitudes in the
    # instantaneous eigenbasis, stripped of the dynamical phase phi. The
    # exact drive cancels the rotation of the basis, so only the residual
    # r = 2 gdot (q - q_exact) couples the two:
    #   d_g' = r exp(-2i phi) d_e,  d_e' = -r exp(2i phi) d_g,  phi' = 2 eps_k(g)
    # with eps_k = sqrt(den), den = _denominator(g, cos k). Per step, the clock
    # takes the ramp, den and the gap once on the stage times of all running
    # chains (see _dop853.solve_lockstep), and each chain's residual kernel of
    # drive_function on its own; per stage, rhs turns those rows and the
    # states, one (N,) or stacked (N, b), into the derivatives (exp(2i phi)
    # needs the state). A solve restarts where its ramp crosses g = 1: the
    # thermodynamic residual has a kink there (slopes +1/4 and -1/4), which no
    # step may straddle; every model restarts there, as does the spin oracle.
    ks = momentum_grid(configs[0].n)
    cos_k, half = np.cos(ks)[:, None], len(ks)
    ramps = np.array([(s.g0, s.gf, s.duration, s.duration**3) for s in (c.schedule for c in configs)])
    residuals = [drive_function(c.coupling, c.n, ks) for c in configs]

    def clock(members):
        g0, gf, duration, cube = ramps[members].T

        def tick(times):
            # per time and chain: the coefficient 2 gdot r and the phase rate 2 eps_k
            g, gdot = _cubic(times.reshape(len(times), 1, -1), g0, gf, duration, cube)
            den = _denominator(g, cos_k)
            rows = np.empty((len(times), 2, *den.shape[1:]))
            for j, member in enumerate(members):
                rows[:, 0, :, j] = 2.0 * gdot[..., j] * residuals[member](g[..., j], den[..., j])
            rows[:, 1] = 2.0 * np.sqrt(den)
            return rows if times.ndim > 1 else rows[..., 0]

        return tick

    def rhs(row, y):
        coupling = row[0] * np.exp(2j * y[2 * half :].real)
        return np.concatenate((coupling.conj() * y[half : 2 * half], -coupling * y[:half], row[1]))

    def drift(y):
        return float(np.max(np.abs(np.abs(y[:half]) ** 2 + np.abs(y[half : 2 * half]) ** 2 - 1.0)))

    return rhs, clock, drift, np.concatenate((np.ones(half), np.zeros(2 * half))).astype(complex)


def _failure(config: ChainConfig, sol: Solve) -> IntegrationError:
    return IntegrationError(f"integration failed on [0, {config.schedule.duration:.6g}]: {sol.message}")


def ground_state_probability(frames: np.ndarray) -> np.ndarray:
    """Ground-state probability of adiabatic-frame samples: prod over modes of |d_g|^2.

    frames stacks [d_g..., d_e..., phi...] in its last axis. d_g is the
    amplitude on the mode ground state at the sample's own field, so the
    product is the squared overlap with the chain ground state there.
    """
    return np.prod(np.abs(frames[..., : frames.shape[-1] // 3]) ** 2, axis=-1)


def evolve_chain(config: ChainConfig, trace_points: int | None = None) -> EvolutionResult:
    """Evolve every mode of the chain and assemble ground-state probabilities.

    All n/2 modes are integrated together as one vector ODE, in one solve
    over the whole ramp, restarted where it crosses g = 1. With
    trace_points None only the final probability is computed, from the
    last accepted step. With trace_points >= 2 the probability against the
    ground state of the momentary field is also recorded at uniformly
    spaced sample times: the solve evaluates DOP853's interpolant at every
    sample but the last, on the steps that hold them (nfev as in
    _dop853.solve_ivp); the last is the final state itself.
    The steps, and so the final sample, are those of the final-only run.

    The integration does not depend on the process it runs in, so
    identical arguments give bit-identical results.
    """
    if trace_points is not None and trace_points < 2:
        raise ValueError(f"trace needs at least 2 samples, got {trace_points}")
    schedule = config.schedule
    times = np.linspace(0.0, schedule.duration, trace_points or 0)
    rhs, clock, drift, y0 = _chains([config])
    sol = solve_ivp(
        rhs, (0.0, schedule.duration), y0, rtol=config.rel_tol, atol=config.abs_tol, samples=times[:-1],
        drift=drift, breaks=schedule.crossings(), clock=clock([0]),
    )
    if not sol.success:
        raise _failure(config, sol)
    probs = ground_state_probability(np.concatenate((sol.samples, sol.y[None, :])))
    trace = None
    if trace_points:
        # the last sample sits at the target field itself, not at its rounded ramp value
        fields = [*schedule.ramp(times[:-1])[0].tolist(), schedule.gf]
        trace = [(float(t), float(g), float(p)) for t, g, p in zip(times, fields, probs)]
    return EvolutionResult(float(probs[-1]), trace, sol.drift, sol.steps, sol.nfev, sol.rejected)


def _evolve_group(configs: Sequence[ChainConfig]) -> list:
    # the final-only results of chains of one length, in lockstep, with a
    # failed solve's IntegrationError in its place, for evolve_chains to raise
    rhs, clock, drift, y0 = _chains(configs)
    solves = [
        Solve((0.0, c.schedule.duration), y0, c.rel_tol, c.abs_tol, (), drift, c.schedule.crossings())
        for c in configs
    ]
    results = []
    for config, sol in zip(configs, solve_lockstep(rhs, clock, solves)):
        p_gs = float(ground_state_probability(sol.y[None, :])[0])
        result = EvolutionResult(p_gs, None, sol.drift, sol.steps, sol.nfev, sol.rejected)
        results.append(result if sol.success else _failure(config, sol))
    return results


def evolve_chains(configs: Sequence[ChainConfig], jobs: int = 1) -> list[EvolutionResult]:
    """Final-only evolve_chain of each config, bit for bit, in input order.

    Configs of one chain length advance in one step loop, each with its own
    step control (see _dop853.solve_lockstep); the first config whose solve
    fails raises its solo run's IntegrationError. jobs >= 1 processes share
    the work: each length's configs are cut into parts of at most
    len(configs) / jobs, rounded up, which no more than jobs workers take.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    size = -(-len(configs) // jobs)
    parts = []
    for n in dict.fromkeys(config.n for config in configs):
        where = [i for i, config in enumerate(configs) if config.n == n]
        parts += [where[start : start + size] for start in range(0, len(where), size)]
    groups = [[configs[i] for i in part] for part in parts]
    if jobs == 1 or len(parts) < 2:
        done = map(_evolve_group, groups)
    else:
        from multiprocessing import Pool  # imported here: only jobs > 1 pays its import

        with Pool(min(jobs, len(parts))) as pool:
            done = pool.map(_evolve_group, groups)
    solved = dict(zip([i for part in parts for i in part], [one for results in done for one in results]))
    results = [solved[i] for i in range(len(configs))]
    for result in results:
        if isinstance(result, IntegrationError):
            raise result
    return results


def dispersion_ground_energy(n: int, g: float) -> float:
    """Free-fermion ground energy of the even-parity sector at field g."""
    g = _check_field(g)
    return -2.0 * float(np.sqrt(_denominator(g, np.cos(momentum_grid(n)))).sum())
