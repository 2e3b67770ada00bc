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
from typing import Callable

import numpy as np

from ._dop853 import Solution, solve_ivp
from .coefficients import (
    CouplingKind,
    CouplingModel,
    _check_chain_length,
    _check_ranges,
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

    def ramp(self, t: float) -> tuple[float, float]:
        """Field g(t) and its analytic rate gdot(t), 0 <= t <= duration."""
        if not 0 <= t <= self.duration:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        x = t / self.duration
        g = self.g0 + (self.gf - self.g0) * (3.0 - 2.0 * x) * x * x
        return g, 6.0 * (self.gf - self.g0) * t * (self.duration - t) / self.duration**3


@dataclass(frozen=True)
class ChainConfig:
    """One chain evolution: length, ramp, coupling model, solver knobs."""

    n: int
    schedule: Schedule
    coupling: CouplingModel
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    trace_points: int = 0

    def __post_init__(self) -> None:
        _check_chain_length(self.n)
        if self.coupling.kind is CouplingKind.TRUNCATED:
            _check_ranges(self.coupling.m_max, 0, self.n // 2, "truncation range m_max")
        for name, value in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL}, got {self.rel_tol}")
        if self.trace_points < 0 or self.trace_points == 1:
            raise ValueError(
                f"trace needs at least 2 samples (0 disables it), got {self.trace_points}"
            )


@dataclass
class EvolutionResult:
    """Outcome of a chain evolution.

    p_gs is the squared overlap with the target ground state at the final
    field, prod over modes of |d_g|^2 (see ground_state_probability); trace
    optionally samples the same overlap with the instantaneous ground state
    along the ramp as (t, g(t), probability) triples. steps counts the accepted
    steps of the one adiabatic-frame integration that carries every mode;
    it is not a sum over modes, and it does not depend on the samples.
    nfev counts that integration's RHS evaluations; a traced run makes 3
    more per step than a final-only one, for the interpolant it samples.
    norm_drift is the largest |d_g|^2 + |d_e|^2 - 1 (ground and excited
    amplitudes of one mode) over every mode and accepted step. rejected
    counts the steps the error control rejected; each accepted or rejected
    step costs 12 RHS evaluations, after 2 that choose the first step.
    """

    p_gs: float
    trace: list[tuple[float, float, float]] | None
    norm_drift: float
    steps: int
    nfev: int
    rejected: int


def _denominator(g: float, cos_k):
    # g^2 - 2g cos k + 1, a quarter of the squared mode gap: every drive
    # kernel divides by it, and the chain RHS computes it once per field
    return (g * g + 1.0) - 2.0 * g * cos_k


# Drive kernels take a scalar field g and its denominator den at the
# momenta they were built for, which fix their trig factors once.
def _exact_kernel(k) -> Callable:
    quarter_sin = 0.25 * np.sin(k)
    return lambda g, den: quarter_sin / den


def _thermo_kernel(k, n: int) -> Callable:
    quarter_sin, half_sin = 0.25 * np.sin(k), np.sin(0.5 * n * k)

    def drive(g: float, den):
        if g < 1.0:
            scale = g ** (n // 2 - 1) / 8.0 * (g * g - 1.0)
        else:
            scale = -(g ** (-(n // 2)) / (8.0 * g)) * (g * g - 1.0)
        return (quarter_sin + scale * half_sin) / den

    return drive


def _coupling_sum_kernel(k, model: CouplingModel, n: int) -> Callable:
    # 2 * sum over ranges m < n/2 of h_m sin(km), plus the half-weight
    # longest-range term h_{n/2} sin(kn/2); needs no denominator
    sines = np.sin(np.multiply.outer(k, np.arange(1, n // 2 + 1)))

    def drive(g: float):
        weights = 2.0 * coupling_set(model, g, n)
        weights[-1] *= 0.5
        return (sines * weights).sum(axis=-1)

    return drive


def _truncated_residual(k, n: int, m_max: int) -> Callable:
    # Minus the exact drive's tail, ranges m_max < m <= n/2. On the grid,
    # range n - m carries the same sin(mk), so the tail is one geometric
    # sum of u^(m-1) sin(mk) over m_max < m < n - m_max, u = min(g, 1/g);
    # above g = 1 the couplings' 1/g^2 turns its den(u) into den(g).
    m = m_max
    sin_m, sin_next = np.sin(m * k), np.sin((m + 1) * k)

    def residual(g: float, den):
        u = g if g <= 1.0 else 1.0 / g
        weight_m, weight_next = u ** (m + 1) + u ** (n - m - 1), u**m + u ** (n - m)
        return (weight_m * sin_m - weight_next * sin_next) / (4.0 * (1.0 + u**n) * den)

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
    return _coupling_sum_kernel(k, model, n)(g)


def drive_function(model: CouplingModel, n: int, k) -> Callable:
    """Residual kernel (g, den) -> q_model(k, g) - q_exact(k, g) at fixed momenta k.

    This is the drive the adiabatic-frame RHS integrates. k is a scalar or
    an array of momenta; its trig factors are computed here, once per chain
    and not in every RHS evaluation. The kernel takes a scalar field g and
    den = g^2 - 2g cos k + 1 at those momenta, which the caller computes
    once per field. The residual is 0.0 for the exact family and for
    truncation at full range (m_max = n/2), whose couplings are the exact
    ones; the truncated family below full range has a real closed form
    (minus the tail of a geometric sum); the thermodynamic and direct-sum
    families subtract the exact drive from their own. The caller validates
    m_max (see ChainConfig).
    """
    if model.kind is CouplingKind.TRUNCATED and model.m_max < n // 2:
        return _truncated_residual(k, n, model.m_max)
    if model.kind in (CouplingKind.EXACT, CouplingKind.TRUNCATED):
        return lambda g, den: 0.0
    exact = _exact_kernel(k)
    if model.kind is CouplingKind.THERMODYNAMIC:
        thermo = _thermo_kernel(k, n)
        return lambda g, den: thermo(g, den) - exact(g, den)
    total = _coupling_sum_kernel(k, model, n)
    return lambda g, den: total(g) - exact(g, den)


def _integrate(config: ChainConfig, samples: np.ndarray) -> tuple[np.ndarray, Solution]:
    # Integrates every grid mode from its ground state at g0, in the
    # adiabatic interaction frame, over the stacked state
    # [d_g..., d_e..., phi...]: ground and excited amplitudes in the
    # instantaneous eigenbasis, stripped of the dynamical phase phi.
    # The exact drive cancels the rotation of the basis, so only the
    # residual r = 2 gdot (q - q_exact) couples the two:
    #   d_g' = r exp(-2i phi) d_e,  d_e' = -r exp(2i phi) d_g,  phi' = 2 eps_k(g)
    # with eps_k = sqrt(den), den = g^2 - 2g cos k + 1. Each RHS evaluation
    # takes the ramp, den and the residual kernel of drive_function once.
    # One DOP853 solve, which reads the samples as it passes them (3 more
    # RHS evaluations per step when there are any). Returns the state at
    # each sample time and then the final state (one row each), and the
    # solve, whose drift is the largest norm drift of any mode at any
    # accepted step.
    schedule = config.schedule
    ks = momentum_grid(config.n)
    residual = drive_function(config.coupling, config.n, ks)
    cos_k = np.cos(ks)
    half = len(ks)
    ramp, t1 = schedule.ramp, schedule.duration

    def rhs(t, y):
        # the solver may probe a rounding error beyond the span edges
        g, gdot = ramp(min(max(t, 0.0), t1))
        den = _denominator(g, cos_k)
        coupling = 2.0 * gdot * residual(g, den) * np.exp(2j * y[2 * half :].real)
        gap = 2.0 * np.sqrt(den)
        return np.concatenate((coupling.conj() * y[half : 2 * half], -coupling * y[:half], gap))

    def drift(y):
        return float(np.max(np.abs(np.abs(y[:half]) ** 2 + np.abs(y[half : 2 * half]) ** 2 - 1.0)))

    y0 = np.concatenate((np.ones(half), np.zeros(2 * half))).astype(complex)
    sol = solve_ivp(
        rhs, (0.0, t1), y0, rtol=config.rel_tol, atol=config.abs_tol, samples=samples, drift=drift
    )
    if not sol.success:
        raise IntegrationError(f"integration failed on [0, {t1:.6g}]: {sol.message}")
    return np.concatenate((sol.samples, sol.y[None, :])), sol


def ground_state_probability(frames: np.ndarray) -> np.ndarray:
    """Ground-state probability of adiabatic-frame samples: prod over modes of |d_g|^2.

    frames stacks [d_g..., d_e..., phi...] in its last axis. d_g is the
    amplitude on the mode ground state at the sample's own field, so the
    product is the squared overlap with the chain ground state there.
    """
    return np.prod(np.abs(frames[..., : frames.shape[-1] // 3]) ** 2, axis=-1)


def evolve_chain(config: ChainConfig) -> EvolutionResult:
    """Evolve every mode of the chain and assemble ground-state probabilities.

    All n/2 modes are integrated together as one vector ODE, in one solve
    over the whole ramp. With trace_points = 0 only the final probability
    is computed, from the last accepted step. With trace_points >= 2 the
    probability against the ground state of the momentary field is also
    recorded at uniformly spaced sample times: the solve evaluates DOP853's
    interpolant at every sample but the last as its steps pass them, and
    the last is the final state itself. The steps, and so the final sample,
    are those of the final-only run.

    The integration does not depend on the process it runs in, so
    identical configs give bit-identical results.
    """
    schedule = config.schedule
    times = np.linspace(0.0, schedule.duration, config.trace_points)
    frames, sol = _integrate(config, times[:-1])
    probs = ground_state_probability(frames)
    trace = None
    if config.trace_points:
        # the last sample sits at the target field itself, not at its rounded ramp value
        fields = [schedule.ramp(float(t))[0] for t in times[:-1]] + [schedule.gf]
        trace = [(float(t), float(g), float(p)) for t, g, p in zip(times, fields, probs)]
    return EvolutionResult(float(probs[-1]), trace, sol.drift, sol.steps, sol.nfev, sol.rejected)


def dispersion_ground_energy(n: int, g: float) -> float:
    """Free-fermion ground energy of the even-parity sector at field g."""
    if g < 0:
        raise ValueError("field must be nonnegative")
    return -2.0 * float(np.sqrt(g * g - 2.0 * g * np.cos(momentum_grid(n)) + 1.0).sum())
