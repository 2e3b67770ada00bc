"""Unit tests for the driven free-fermion mode evolution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cdising import (
    ChainConfig,
    CouplingKind,
    CouplingModel,
    IntegrationError,
    Schedule,
    bogoliubov_angle,
    cd_drive_exact,
    cd_drive_from_couplings,
    cd_drive_thermo,
    coupling_exact,
    coupling_sum,
    dispersion_ground_energy,
    drive_function,
    evolve_chain,
    evolve_mode,
    ground_amplitudes,
    ground_state_probability,
    momentum_grid,
)
from cdising.dynamics import ModeState

EXACT = CouplingModel(CouplingKind.EXACT)
THERMO = CouplingModel(CouplingKind.THERMODYNAMIC)


def test_schedule_endpoints_and_midpoint():
    ramp = Schedule(5.0, 0.0, 2.0)
    assert ramp.value(0.0) == 5.0
    assert ramp.value(2.0) == 0.0
    # the cubic ramp passes through the mean field at half time
    assert math.isclose(ramp.value(1.0), 2.5, rel_tol=1e-15)
    assert math.isclose(ramp.value(0.5), 4.21875, rel_tol=1e-15)


def test_schedule_rate():
    ramp = Schedule(5.0, 0.0, 2.0)
    assert ramp.rate(0.0) == 0.0
    assert ramp.rate(2.0) == 0.0
    # peak rate 1.5 * (gf - g0) / duration at half time
    assert math.isclose(ramp.rate(1.0), -3.75, rel_tol=1e-15)
    # finite difference cross-check away from the extremum
    t, dt = 0.6, 1e-7
    numeric = (ramp.value(t + dt) - ramp.value(t - dt)) / (2 * dt)
    assert math.isclose(ramp.rate(t), numeric, rel_tol=1e-6)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Schedule(-1.0, 0.0, 1.0)
    ramp = Schedule(5.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ramp.value(1.5)
    with pytest.raises(ValueError):
        ramp.rate(-0.1)


def test_chain_config_validation():
    ramp = Schedule(5.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChainConfig(5, ramp, EXACT)
    with pytest.raises(ValueError):
        ChainConfig(4, ramp, EXACT, rel_tol=0.0)
    with pytest.raises(ValueError):
        ChainConfig(4, ramp, EXACT, trace_points=1)
    with pytest.raises(ValueError):
        ChainConfig(4, ramp, EXACT, trace_points=-3)


def test_bogoliubov_angle():
    assert math.isclose(bogoliubov_angle(math.pi / 2, 0.0), math.pi / 2, rel_tol=1e-15)
    assert math.isclose(bogoliubov_angle(math.pi / 2, 1.0), math.pi / 4, rel_tol=1e-15)
    assert bogoliubov_angle(1.0, 50.0) < 0.02
    # below cos(k) the angle turns obtuse but stays in (0, pi)
    angle = bogoliubov_angle(0.3, 0.1)
    assert math.pi / 2 < angle < math.pi


def test_ground_amplitudes_normalized():
    for k in momentum_grid(10):
        for g in (0.0, 0.5, 1.0, 3.0):
            u, v = ground_amplitudes(k, g)
            assert math.isclose(u * u + v * v, 1.0, rel_tol=1e-15)
            assert u >= 0 and v >= 0
    # strong field aligns the ground state with u
    u, v = ground_amplitudes(1.0, 100.0)
    assert u > 0.9999


def test_cd_drive_exact_values():
    assert math.isclose(cd_drive_exact(math.pi / 2, 1.0), 0.125, rel_tol=1e-15)
    for k in momentum_grid(8):
        assert math.isclose(cd_drive_exact(k, 0.0), 0.25 * math.sin(k), rel_tol=1e-15)


def test_cd_drive_exact_matches_coupling_sum():
    for g in (0.0, 0.5, 1.0, 2.5):
        for k in momentum_grid(10):
            literal = cd_drive_from_couplings(k, g, EXACT, 10)
            assert abs(cd_drive_exact(k, g) - literal) < 1e-12


def test_cd_drive_thermo_matches_coupling_sum():
    for n in (10, 20):
        for g in (0.3, 0.9, 1.0, 1.2, 4.0):
            for k in momentum_grid(n):
                literal = cd_drive_from_couplings(k, g, THERMO, n)
                assert abs(cd_drive_thermo(k, g, n) - literal) < 1e-12


def test_cd_drive_thermo_reduces_to_exact_at_critical_field():
    for k in momentum_grid(12):
        assert cd_drive_thermo(k, 1.0, 12) == cd_drive_exact(k, 1.0)


def test_truncated_drive_matches_literal_sum():
    n = 10
    for m_max in (1, 2, 4):
        drive = drive_function(CouplingModel(CouplingKind.TRUNCATED, m_max), n)
        for g in (0.4, 1.0, 2.2):
            for k in momentum_grid(n):
                literal = 2.0 * sum(
                    coupling_exact(m, g, n) * math.sin(m * k) for m in range(1, m_max + 1)
                )
                assert abs(drive(k, g) - literal) < 1e-12


def test_drive_kernels_accept_arrays_and_scalars():
    n = 10
    ks = momentum_grid(n)
    models = [EXACT, THERMO, CouplingModel(CouplingKind.DIRECT_SUM)]
    models += [CouplingModel(CouplingKind.TRUNCATED, m) for m in range(n // 2 + 1)]
    for model in models:
        drive = drive_function(model, n)
        for g in (0.0, 0.4, 1.0, 2.2):
            batch = drive(ks, g)
            assert batch.shape == ks.shape
            for k, value in zip(ks, batch):
                assert abs(drive(k, g) - value) <= 1e-15
    # the direct kernel against the literal per-momentum coupling sum
    direct = drive_function(CouplingModel(CouplingKind.DIRECT_SUM), n)
    for g in (0.0, 0.4, 1.0, 2.2):
        h = [coupling_sum(m, g, n) for m in range(1, n // 2 + 1)]
        batch = direct(ks, g)
        for k, value in zip(ks, batch):
            literal = 0.0
            for m in range(1, n // 2):
                literal += 2.0 * h[m - 1] * math.sin(k * m)
            literal += h[-1] * math.sin(k * (n // 2))
            assert abs(value - literal) <= 1e-15


def test_truncated_drive_endpoints():
    n = 8
    zero = drive_function(CouplingModel(CouplingKind.TRUNCATED, 0), n)
    full = drive_function(CouplingModel(CouplingKind.TRUNCATED, n // 2), n)
    for k in momentum_grid(n):
        assert zero(k, 0.7) == 0.0
        assert full(k, 0.7) == cd_drive_exact(k, 0.7)
    with pytest.raises(ValueError):
        drive_function(CouplingModel(CouplingKind.TRUNCATED, n // 2 + 1), n)


def test_constant_schedule_keeps_ground_state():
    config = ChainConfig(4, Schedule(2.0, 2.0, 1.0), EXACT)
    result = evolve_chain(config)
    assert abs(result.p_gs - 1.0) < 1e-10


def test_exact_drive_transports_each_mode():
    config = ChainConfig(10, Schedule(5.0, 0.0, 0.5), EXACT)
    for k in momentum_grid(10):
        result = evolve_mode(k, config)
        u0, v0 = ground_amplitudes(k, 0.0)
        overlap = abs(u0 * result.state.u + v0 * result.state.v) ** 2
        assert abs(overlap - 1.0) < 1e-8
        norm = abs(result.state.u) ** 2 + abs(result.state.v) ** 2
        assert abs(norm - 1.0) < 1e-9
        assert result.steps > 0


def test_exact_drive_transports_excited_state():
    # the counterdiabatic term moves every eigenstate, not just the ground one
    config = ChainConfig(4, Schedule(3.0, 0.5, 1.0), EXACT)
    k = momentum_grid(4)[0]
    u0, v0 = ground_amplitudes(k, 3.0)
    result = evolve_mode(k, config, initial=(u0, -v0))
    uf, vf = ground_amplitudes(k, 0.5)
    excited_overlap = abs(uf * result.state.v - vf * result.state.u) ** 2
    assert abs(excited_overlap - 1.0) < 1e-8


def test_ground_state_probability_self_overlap():
    n, g = 6, 1.3
    states = []
    for k in momentum_grid(n):
        u0, v0 = ground_amplitudes(k, g)
        states.append(ModeState(k, v0, u0))
    assert math.isclose(ground_state_probability(states, g, n), 1.0, rel_tol=1e-14)


def test_ground_state_probability_orthogonal_state():
    n, g = 4, 0.8
    ks = momentum_grid(n)
    states = []
    for i, k in enumerate(ks):
        u0, v0 = ground_amplitudes(k, g)
        if i == 0:
            states.append(ModeState(k, u0, -v0))
        else:
            states.append(ModeState(k, v0, u0))
    assert ground_state_probability(states, g, n) < 1e-28


def test_ground_state_probability_validation():
    n = 4
    ks = momentum_grid(n)
    good = [ModeState(k, 0.0, 1.0) for k in ks]
    with pytest.raises(ValueError):
        ground_state_probability(good[:1], 1.0, n)
    bad = [ModeState(k + 0.1, 0.0, 1.0) for k in ks]
    with pytest.raises(ValueError):
        ground_state_probability(bad, 1.0, n)


def test_evolve_chain_exact_preparation():
    config = ChainConfig(4, Schedule(5.0, 0.0, 1.0), EXACT)
    result = evolve_chain(config)
    assert abs(result.p_gs - 1.0) < 1e-8
    assert result.trace is None
    assert result.norm_drift < 1e-9
    assert 0.0 <= result.p_gs <= 1.0 + 1e-9


def test_full_truncation_equals_exact_bitwise():
    ramp = Schedule(5.0, 0.0, 1.0)
    exact = evolve_chain(ChainConfig(6, ramp, EXACT))
    full = evolve_chain(ChainConfig(6, ramp, CouplingModel(CouplingKind.TRUNCATED, 3)))
    assert exact.p_gs == full.p_gs


def test_evolve_chain_deterministic():
    config = ChainConfig(6, Schedule(4.0, 0.0, 1.0), THERMO)
    first = evolve_chain(config)
    second = evolve_chain(config)
    assert first.p_gs == second.p_gs
    assert first.steps == second.steps


def test_trace_shape_and_endpoints():
    config = ChainConfig(6, Schedule(3.0, 0.0, 1.0), THERMO, trace_points=9)
    result = evolve_chain(config)
    assert result.trace is not None and len(result.trace) == 9
    times = [t for t, _, _ in result.trace]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(result.trace[0][2] - 1.0) < 1e-12
    assert result.trace[0][1] == 3.0 and result.trace[-1][1] == 0.0
    assert result.p_gs == result.trace[-1][2]
    assert all(0.0 <= p <= 1.0 + 1e-9 for _, _, p in result.trace)


def test_single_mode_chain_matches_evolve_mode():
    # n = 2 has one mode, so the chain is a batch of one
    config = ChainConfig(2, Schedule(3.0, 0.2, 2.0), THERMO)
    k = momentum_grid(2)[0]
    mode = evolve_mode(k, config)
    chain = evolve_chain(config)
    assert chain.p_gs == ground_state_probability([mode.state], 0.2, 2)
    assert chain.steps == mode.steps and chain.norm_drift == mode.norm_drift
    traced = evolve_chain(ChainConfig(2, Schedule(3.0, 0.2, 2.0), THERMO, trace_points=4))
    assert abs(traced.p_gs - chain.p_gs) < 1e-9
    assert 0.0 < chain.p_gs < 1.0


def test_reversed_ramp_exact_drive():
    for n in (2, 10, 40):
        result = evolve_chain(ChainConfig(n, Schedule(0.0, 5.0, 1.0), EXACT))
        assert abs(result.p_gs - 1.0) < 1e-8


@pytest.mark.parametrize(
    "n, model, t_final",
    [
        (200, THERMO, 10.0),
        (20, THERMO, 100.0),
        (20, CouplingModel(CouplingKind.TRUNCATED, 3), 10.0),
        (200, THERMO, 100.0),
    ],
)
def test_batched_accuracy_against_tight_reference(n, model, t_final):
    # the batch shares one RMS error norm over all modes; the default
    # tolerances must still hold each result to 1e-9 of a converged run
    # (thermo n=200, T=100 converges to 0.958872619)
    ramp = Schedule(5.0, 0.0, t_final)
    default = evolve_chain(ChainConfig(n, ramp, model))
    tight = evolve_chain(ChainConfig(n, ramp, model, rel_tol=1e-13, abs_tol=1e-15))
    assert abs(default.p_gs - tight.p_gs) < 1e-9
    traced = evolve_chain(ChainConfig(n, ramp, model, trace_points=11))
    assert abs(traced.trace[-1][2] - default.p_gs) < 1e-9


def test_traced_and_direct_evolution_agree():
    ramp = Schedule(4.0, 0.0, 1.0)
    direct = evolve_chain(ChainConfig(4, ramp, EXACT))
    traced = evolve_chain(ChainConfig(4, ramp, EXACT, trace_points=5))
    # segment restarts change the step sequence, not the physics
    assert abs(direct.p_gs - traced.p_gs) < 1e-9


def test_integration_error_is_a_runtime_error():
    assert issubclass(IntegrationError, RuntimeError)


def test_dispersion_ground_energy():
    assert math.isclose(dispersion_ground_energy(2, 0.0), -2.0, rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(2, 2.0), -2.0 * math.sqrt(5.0), rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(4, 0.0), -4.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        dispersion_ground_energy(4, -1.0)
