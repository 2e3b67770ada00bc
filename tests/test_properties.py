"""Property and edge tests of the chain evolution, drawn with hypothesis."""

from __future__ import annotations

import math
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdising import ChainConfig, CouplingKind, CouplingModel, IntegrationError, Schedule, evolve_chain
from cdising import _dop853, dynamics
from cdising.dynamics import evolve_chains
from cdising.experiments import run_size_sweep

THERMO = CouplingModel(CouplingKind.THERMODYNAMIC)

# a fixed draw sequence keeps tier-1 reproducible; no example database on disk
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

fields = st.floats(0.0, 6.0)


@st.composite
def chains(draw, max_half: int, max_t: float):
    """(n, ramp, model): any ramp, including reversed and constant ones."""
    n = 2 * draw(st.integers(1, max_half))
    g0 = draw(fields)
    gf = draw(st.one_of(fields, st.just(g0)))
    ramp = Schedule(g0, gf, draw(st.floats(1e-3, max_t)))
    kind = draw(st.sampled_from(list(CouplingKind)))
    m_max = draw(st.integers(0, n // 2)) if kind is CouplingKind.TRUNCATED else None
    return n, ramp, CouplingModel(kind, m_max)


# the models whose drive is the exact one by identity: the exact couplings,
# their full range, and the direct sums, the grid sine transform of the
# exact drive
EXACT_DRIVES = [CouplingKind.EXACT, CouplingKind.TRUNCATED, CouplingKind.DIRECT_SUM]


@SETTINGS
@given(
    n=st.integers(1, 100).map(lambda half: 2 * half),
    g0=fields,
    gf=fields,
    t_final=st.floats(1e-3, 1e3),
    kind=st.sampled_from(EXACT_DRIVES),
)
@example(n=2, g0=0.0, gf=5.0, t_final=1.0, kind=CouplingKind.EXACT)
@example(n=40, g0=1.0, gf=1.0, t_final=3.0, kind=CouplingKind.TRUNCATED)
@example(n=200, g0=0.5, gf=0.5, t_final=1e3, kind=CouplingKind.EXACT)
@example(n=200, g0=5.0, gf=0.0, t_final=1e3, kind=CouplingKind.DIRECT_SUM)
def test_exact_drives_prepare_the_ground_state(n, g0, gf, t_final, kind):
    # with any of them the residual drive is exactly 0, so d_g never leaves 1
    model = CouplingModel(kind, n // 2 if kind is CouplingKind.TRUNCATED else None)
    result = evolve_chain(ChainConfig(n, Schedule(g0, gf, t_final), model))
    assert result.p_gs == 1.0
    traced = evolve_chain(ChainConfig(n, Schedule(g0, gf, t_final), model), 5)
    assert all(p == 1.0 for _, _, p in traced.trace)


@SETTINGS
@given(chain=chains(max_half=20, max_t=10.0), samples=st.integers(2, 12))
@example(chain=(2, Schedule(3.0, 0.2, 2.0), THERMO), samples=3)
@example(chain=(20, Schedule(0.2, 3.0, 5.0), CouplingModel(CouplingKind.TRUNCATED, 2)), samples=7)
@example(chain=(8, Schedule(5.0, 0.0, 3.0), CouplingModel(CouplingKind.DIRECT_SUM)), samples=4)
def test_trace_is_a_probability_and_ends_at_the_final_run(chain, samples):
    n, ramp, model = chain
    with mock.patch.object(_dop853, "_evaluate", wraps=_dop853._evaluate) as evaluate:
        traced = evolve_chain(ChainConfig(n, ramp, model), samples)
    final = evolve_chain(ChainConfig(n, ramp, model))
    # the interpolant adds 3 RHS evaluations on each step that holds a sample
    # but moves no step, and both runs read the final state from the last
    # accepted step
    assert traced.steps == final.steps
    assert traced.nfev - final.nfev == 3 * evaluate.call_count
    # 2 evaluations start each segment, one more than the ramp has breaks
    segments = 1 + len(ramp.crossings())
    assert final.nfev == 2 * segments + 12 * (final.steps + final.rejected)
    assert traced.trace[-1][2] == traced.p_gs == final.p_gs
    for _, _, p in traced.trace:
        assert 0.0 <= p <= 1.0 + 1e-12


# each example starts one 2-process pool, so the draws stay few and small
@settings(SETTINGS, max_examples=8)
@given(chain_list=st.lists(chains(max_half=6, max_t=2.0), min_size=2, max_size=4))
def test_jobs_never_move_a_bit(chain_list):
    # a mixed list of models, lengths and ramps: each config pickles whole
    # into its worker, so the rows cannot depend on the process they ran in
    configs = [ChainConfig(n, ramp, model) for n, ramp, model in chain_list]
    assert run_size_sweep(configs, 2) == run_size_sweep(configs, 1)


@pytest.mark.parametrize("model", [THERMO, CouplingModel(CouplingKind.TRUNCATED, 999)], ids=["thermo", "truncated999"])
def test_long_chain_has_no_overflow(model):
    # g**n and g**(n/2) underflow or overflow for n = 2000 unless written
    # with nonpositive powers; any numpy warning fails the test
    ramp = Schedule(5.0, 0.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default = evolve_chain(ChainConfig(2000, ramp, model))
        tight = evolve_chain(ChainConfig(2000, ramp, model, rel_tol=1e-13, abs_tol=1e-15))
    assert math.isfinite(default.p_gs) and math.isfinite(default.norm_drift)
    assert abs(default.p_gs - tight.p_gs) < 1e-8


TOLERANCES = [(1e-10, 1e-12), (1e-8, 1e-10), (1e-12, 1e-14)]
TRUNCATED = CouplingKind.TRUNCATED


def same_results(ours, solo) -> bool:
    # p_gs and norm_drift to the bit, and the counts
    return (ours.p_gs.hex(), ours.norm_drift.hex(), ours.steps, ours.rejected, ours.nfev, ours.trace) == (
        solo.p_gs.hex(), solo.norm_drift.hex(), solo.steps, solo.rejected, solo.nfev, None
    )


@settings(SETTINGS, max_examples=40)
@given(
    chain_list=st.lists(
        st.tuples(chains(max_half=10, max_t=5.0), st.sampled_from(TOLERANCES)), min_size=1, max_size=6
    )
)
@example(
    # one length: reversed ramps, ramps that end at g = 1, and ramps that
    # cross g = 1, so restart there, at different times and so on different
    # passes of the loop; then a second length, run in its own loop
    chain_list=[
        ((20, Schedule(5.0, 0.0, 10.0), THERMO), TOLERANCES[0]),
        ((20, Schedule(0.0, 5.0, 10.0), THERMO), TOLERANCES[0]),
        ((20, Schedule(5.0, 1.0, 4.0), CouplingModel(CouplingKind.EXACT)), TOLERANCES[1]),
        ((20, Schedule(0.5, 1.0, 3.0), CouplingModel(TRUNCATED, 3)), TOLERANCES[0]),
        ((8, Schedule(5.0, 0.0, 1.0), CouplingModel(CouplingKind.DIRECT_SUM)), TOLERANCES[2]),
        ((20, Schedule(1.5, 0.2, 7.0), CouplingModel(TRUNCATED, 0)), TOLERANCES[0]),
        ((20, Schedule(3.0, 0.9, 2.0), CouplingModel(TRUNCATED, 10)), TOLERANCES[2]),
        ((8, Schedule(0.2, 3.0, 5.0), THERMO), TOLERANCES[1]),
    ]
)
def test_lockstep_results_are_the_solo_results_bitwise(chain_list):
    configs = [ChainConfig(n, ramp, model, *tolerances) for (n, ramp, model), tolerances in chain_list]
    together = evolve_chains(configs)
    assert len(together) == len(configs)
    for config, ours in zip(configs, together):
        assert same_results(ours, evolve_chain(config)), config


def test_lockstep_failure_raises_the_first_solo_error_in_input_order(monkeypatch):
    # the solves that end at t = 3 or later are made to fail, after the loop:
    # those of configs 1 (the second length) and 2 (the first length, which
    # runs first); config 1's error comes first in input order, and its
    # message is its solo run's
    configs = [
        ChainConfig(6, Schedule(5.0, 0.0, 2.0), THERMO),
        ChainConfig(4, Schedule(5.0, 0.0, 3.0), THERMO),
        ChainConfig(6, Schedule(0.0, 5.0, 3.5), THERMO),
    ]

    def failing(solves):
        for solve in solves:
            if solve.t_bound >= 3.0:
                solve.success, solve.message = False, f"failed at {solve.t_bound}"
        return solves

    lockstep, single = dynamics.solve_lockstep, dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_lockstep", lambda *args: failing(lockstep(*args)))
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *args, **kwargs: failing([single(*args, **kwargs)])[0])
    with pytest.raises(IntegrationError) as solo:
        evolve_chain(configs[1])
    with pytest.raises(IntegrationError) as together:
        evolve_chains(configs)
    assert str(together.value) == str(solo.value) == "integration failed on [0, 3]: failed at 3.0"
    assert evolve_chains(configs[:1])[0].p_gs == evolve_chain(configs[0]).p_gs
