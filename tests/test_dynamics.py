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
    coupling_exact,
    evolve_chain,
    momentum_grid,
)
from cdising.coefficients import coupling_sum
from cdising.dynamics import (
    cd_drive_exact,
    cd_drive_from_couplings,
    cd_drive_thermo,
    dispersion_ground_energy,
    drive_function,
    ground_state_probability,
)

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


@pytest.mark.parametrize(
    "g0, gf, duration, name",
    [
        (math.nan, 0.0, 1.0, "g0"),
        (math.inf, 0.0, 1.0, "g0"),
        (5.0, math.inf, 1.0, "gf"),
        (5.0, math.nan, 1.0, "gf"),
        (5.0, 0.0, math.nan, "duration"),
        (5.0, 0.0, math.inf, "duration"),
        # rate() divides by duration**3, which underflows or overflows here
        (5.0, 0.0, 1e-120, "duration"),
        (5.0, 0.0, 1e200, "duration"),
        # the drive squares the field, which overflows here
        (1e200, 0.0, 1.0, "g0"),
        (5.0, 1e200, 1.0, "gf"),
    ],
)
def test_schedule_rejects_nonfinite_fields_and_unrepresentable_durations(g0, gf, duration, name):
    with pytest.raises(ValueError, match=f"schedule {name} "):
        Schedule(g0, gf, duration)


def test_schedule_duration_range_edges_give_finite_rates():
    for duration in (1e-100, 1e100):
        ramp = Schedule(5.0, 0.0, duration)
        assert math.isfinite(ramp.rate(0.5 * duration)) and ramp.rate(0.5 * duration) < 0


def test_schedule_field_bound_runs_every_family_clean():
    # RuntimeWarnings fail the suite, so an overflowing g*g would show here
    for model in (EXACT, CouplingModel(CouplingKind.THERMODYNAMIC),
                  CouplingModel(CouplingKind.TRUNCATED, 1), CouplingModel(CouplingKind.DIRECT_SUM)):
        result = evolve_chain(ChainConfig(4, Schedule(1e100, 0.0, 1.0), model))
        assert 0.0 <= result.p_gs <= 1.0 + 1e-12


def test_chain_config_validation():
    ramp = Schedule(5.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChainConfig(5, ramp, EXACT)
    for name in ("rel_tol", "abs_tol"):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                ChainConfig(4, ramp, EXACT, **{name: bad})
    with pytest.raises(ValueError):
        ChainConfig(4, ramp, EXACT, trace_points=1)
    with pytest.raises(ValueError):
        ChainConfig(4, ramp, EXACT, trace_points=-3)


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


def test_ground_state_probability_is_the_product_of_ground_populations():
    # frames [d_g..., d_e..., phi...]: only d_g enters, one probability per row
    frames = np.array([
        [1.0, 0.6j, 0.0, 0.8, 0.3, 2.0],
        [0.8, -0.6, 0.6j, 0.8, -1.0, 5.0],
    ])
    assert np.allclose(ground_state_probability(frames), [0.36, 0.64 * 0.36], rtol=0, atol=1e-15)
    assert ground_state_probability(frames[0]) == ground_state_probability(frames)[0]


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
        # lossy drives at extreme ramp times
        (200, THERMO, 1e-3),
        (200, THERMO, 1e3),
        (20, CouplingModel(CouplingKind.TRUNCATED, 3), 1e-3),
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
    direct = evolve_chain(ChainConfig(4, ramp, THERMO))
    traced = evolve_chain(ChainConfig(4, ramp, THERMO, trace_points=5))
    # one dense-output solve: the samples read the interpolant, never the steps
    assert traced.p_gs == direct.p_gs and traced.steps == direct.steps


def test_integration_error_is_a_runtime_error():
    assert issubclass(IntegrationError, RuntimeError)


def test_dispersion_ground_energy():
    assert math.isclose(dispersion_ground_energy(2, 0.0), -2.0, rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(2, 2.0), -2.0 * math.sqrt(5.0), rel_tol=1e-15)
    assert math.isclose(dispersion_ground_energy(4, 0.0), -4.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        dispersion_ground_energy(4, -1.0)


def test_dispersion_ground_energy_matches_mode_loop():
    # the numpy sum against an exactly rounded sum of the mode energies
    for n in (8, 200):
        for g in (0.3, 1.0, 1.7):
            modes = [math.sqrt(g * g - 2.0 * g * math.cos(k) + 1.0) for k in momentum_grid(n)]
            assert math.isclose(dispersion_ground_energy(n, g), -2.0 * math.fsum(modes), rel_tol=1e-14)
