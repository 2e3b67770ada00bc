"""The package's DOP853 against scipy's, bit for bit.

cdising integrates with its own numpy-only copy of scipy's DOP853 step loop,
so that importing the package loads no scipy.integrate. These tests run both
on the same right-hand sides, the chain RHS of every coupling model and the
spin oracle's, and require equal bits: final state, RHS evaluations,
accepted steps, largest norm drift and interpolated states. scipy stays a
test dependency for this reference.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import DenseOutput, OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp

from cdising import ChainConfig, CouplingKind, CouplingModel, Schedule, dense_evolve, evolve_chain
from cdising import _dop853, dynamics, spin_oracle

MODELS = [
    CouplingModel(CouplingKind.EXACT),
    CouplingModel(CouplingKind.DIRECT_SUM),
    CouplingModel(CouplingKind.THERMODYNAMIC),
    CouplingModel(CouplingKind.TRUNCATED, 1),
]
RAMPS = [(5.0, 0.0), (0.0, 5.0), (1.5, 1.5)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def captured_solves(monkeypatch, module, run) -> list[tuple]:
    """(fun, args, kwargs, result) of every module.solve_ivp call that run() makes."""
    calls = []

    def recording(fun, *args, **kwargs):
        result = _dop853.solve_ivp(fun, *args, **kwargs)
        calls.append((fun, args, kwargs, result))
        return result

    monkeypatch.setattr(module, "solve_ivp", recording)
    run()
    return calls


def scipy_reference(fun, args, kwargs):
    t_span, y0 = args
    return scipy_solve_ivp(
        fun, t_span, y0, method="DOP853", rtol=kwargs["rtol"], atol=kwargs["atol"],
        dense_output=kwargs.get("dense_output", False),
    )


def assert_same_solve(ours, ref) -> None:
    assert ours.success and ref.success
    assert ours.message == ref.message
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.t == ref.t[-1]
    assert ours.nfev == ref.nfev
    assert ours.steps == ref.t.size - 1


def sample_times(ts: np.ndarray) -> np.ndarray:
    # both ends, every interior step boundary and two points inside each step,
    # out of order so that the segment choice is not helped by sorting
    inside = np.concatenate((ts[:-1] + 0.25 * np.diff(ts), ts[:-1] + 0.5 * np.diff(ts)))
    return np.concatenate((ts[::-1], inside, [ts[0], ts[-1]]))


@pytest.mark.parametrize("n", [2, 20, 200])
@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.label())
@pytest.mark.parametrize("g0, gf", RAMPS)
def test_chain_solve_is_scipys_bit_for_bit(n, model, g0, gf, monkeypatch):
    config = ChainConfig(n, Schedule(g0, gf, 10.0), model, trace_points=5)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config)
    )
    ref = scipy_reference(fun, args, kwargs)
    assert_same_solve(ours, ref)
    half = n // 2
    # scipy keeps every accepted state; one max over all of them is the drift
    norms = np.abs(ref.y[:half]) ** 2 + np.abs(ref.y[half : 2 * half]) ** 2
    assert ours.drift == float(np.max(np.abs(norms - 1.0)))
    times = sample_times(ref.t)
    assert same_bits(ours.sol(times), ref.sol(times).T)
    assert same_bits(ours.sol.ts, ref.t)


@pytest.mark.parametrize("model", MODELS[:3], ids=lambda model: model.label())
def test_final_only_chain_solve_is_scipys_bit_for_bit(model, monkeypatch):
    config = ChainConfig(20, Schedule(5.0, 0.0, 10.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, dynamics, lambda: evolve_chain(config)
    )
    assert ours.sol is None
    assert_same_solve(ours, scipy_reference(fun, args, kwargs))


@pytest.mark.parametrize(
    "model, g0, gf",
    [(CouplingModel(CouplingKind.EXACT), 5.0, 0.0), (CouplingModel(CouplingKind.DIRECT_SUM), 0.0, 5.0),
     (CouplingModel(CouplingKind.TRUNCATED, 1), 1.5, 1.5)],
    ids=["exact", "direct", "truncated-constant"],
)
def test_oracle_solve_is_scipys_bit_for_bit(model, g0, gf, monkeypatch):
    config = ChainConfig(4, Schedule(g0, gf, 2.0), model)
    (fun, args, kwargs, ours), = captured_solves(
        monkeypatch, spin_oracle, lambda: dense_evolve(config)
    )
    assert_same_solve(ours, scipy_reference(fun, args, kwargs))


def test_rtol_clamp_warns_and_steps_like_scipy(monkeypatch):
    config = ChainConfig(20, Schedule(5.0, 0.0, 1.0), MODELS[2], rel_tol=1e-16, trace_points=3)
    with pytest.warns(UserWarning) as ours_warned:
        (fun, args, kwargs, ours), = captured_solves(
            monkeypatch, dynamics, lambda: evolve_chain(config)
        )
    with pytest.warns(UserWarning) as ref_warned:
        ref = scipy_reference(fun, args, kwargs)
    assert [str(w.message) for w in ours_warned] == [str(w.message) for w in ref_warned]
    assert "Setting `rtol = np.maximum(rtol, 2.220446049250313e-14)`" in str(ours_warned[0].message)
    assert_same_solve(ours, ref)
    assert same_bits(ours.sol(ref.t), ref.sol(ref.t).T)


def test_too_small_step_fails_like_scipy():
    # y' = y^2, y(0) = 1 is 1 / (1 - t): it blows up at t = 1, short of t = 2
    def fun(t, y):
        return y * y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _dop853.solve_ivp(fun, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
        ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-12)
    assert not ours.success and not ref.success
    assert ours.message == ref.message == "Required step size is less than spacing between numbers."
    assert ours.t == ref.t[-1] and abs(ours.t - 1.0) < 1e-6
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.nfev == ref.nfev and ours.steps == ref.t.size - 1
    assert ours.nfev == 2 + 12 * (ours.steps + ours.rejected)


def test_real_state_and_list_input_follow_scipy():
    def fun(t, y):
        return np.array([y[1], -y[0]])

    ours = _dop853.solve_ivp(fun, (0.0, 3.0), [1, 0], rtol=1e-8, atol=1e-10, dense_output=True)
    ref = scipy_solve_ivp(fun, (0.0, 3.0), [1, 0], method="DOP853", rtol=1e-8, atol=1e-10, dense_output=True)
    assert ours.y.dtype == np.float64
    assert_same_solve(ours, ref)
    times = sample_times(ref.t)
    assert same_bits(ours.sol(times), ref.sol(times).T)


class ConstantPiece(DenseOutput):
    def __init__(self, t_old, t, value):
        super().__init__(t_old, t)
        self.value = value

    def _call_impl(self, t):
        return np.full((1, t.size), self.value)


def test_interpolant_picks_scipys_segment():
    # On a real solve both neighbours of a step boundary usually agree there
    # to the bit; steps of distinct constant values make the choice visible:
    # a boundary reads the earlier step, and outside times the end steps
    ts = [0.0, 1.0, 3.0]
    ours = _dop853.Interpolant(ts, [
        (0.0, 1.0, np.array([10.0]), np.zeros((7, 1))),
        (1.0, 2.0, np.array([20.0]), np.zeros((7, 1))),
    ])
    ref = OdeSolution(ts, [ConstantPiece(0.0, 1.0, 10.0), ConstantPiece(1.0, 3.0, 20.0)])
    times = np.array([1.0, -1.0, 0.0, 0.5, 3.0, 2.0, 4.0])
    assert ours(times)[:, 0].tolist() == ref(times)[0].tolist() == [10, 10, 10, 10, 20, 20, 20]


def test_time_span_must_increase():
    with pytest.raises(ValueError, match="t_span must increase"):
        _dop853.solve_ivp(lambda t, y: y, (1.0, 1.0), [1.0], rtol=1e-6, atol=1e-9)
