import types
import warnings

import numpy as np
import pytest

from filament import integrator
from filament.spectral import SpectralState, p_norm, seeded_state
from filament.integrator import (
    StepperConfig,
    StepFailure,
    StepMemory,
    Trajectory,
    _MAX_STEPS,
    _PREDICTOR_SLOPES,
    rhs,
    step,
    simulate,
    time_reversal_check,
    scaling_check,
)
from filament.nonlinearity import _TOEPLITZ_MAX_N, _c_sigma_direct_raw, _rhs_raw
from filament.waves import make_psi_k

from oracles import cubic_brute_force


@pytest.mark.parametrize("n", [1, 2, 17, 56, 57, _TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1,
                               120, 121, 161, 200])
@pytest.mark.parametrize("sigma", [0, 1])
def test_rhs_matches_ip_times_direct_sum(n, sigma):
    # both forms of the RHS, on both sides of their crossover: the Toeplitz
    # weight with i p folded in, and i p times the grid.  The grid's rounding
    # error is flat in p, which i p lifts at the top modes while |i p C_p| peaks
    # low, so the deviation is taken on the scale of C (N = 200, seed 1 reads
    # 1.1e-12 relative to max |i p C|, 7.5e-15 relative to max |C| after
    # dividing by i p)
    k = np.arange(1, n + 1)
    for seed in range(3):
        a = seeded_state(sigma, n, seed).coeffs
        cubic = _c_sigma_direct_raw(a, sigma)[:n]
        out = _rhs_raw(a, sigma)
        assert out.shape == (n,)
        assert np.max(np.abs(out - 1j * k * cubic) / k) <= 1e-12 * max(np.max(np.abs(cubic)), 1e-300)
        if sigma == 1:
            assert out[0] == 0.0


def test_rhs_single_mode():
    for sigma in (0, 1):
        for k in (1, 2, 4):
            st = make_psi_k(k, sigma, 6)
            out = rhs(st).coeffs
            expect = np.zeros(6, dtype=complex)
            expect[k - 1] = 1j * k * (k - sigma)
            assert np.allclose(out, expect, atol=1e-13)


def test_rhs_zero_state():
    assert np.allclose(rhs(SpectralState(0, np.zeros(5))).coeffs, 0.0, atol=1e-16)


def test_rhs_two_coefficient():
    out = rhs(SpectralState(0, [1.0, 1.0])).coeffs
    assert np.allclose(out, [3j, 8j], atol=1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_rhs_matches_brute_force(seed):
    st = seeded_state(1, 8, seed, amplitude=1.0)
    cubic = cubic_brute_force(st.coeffs, 1)[:8]
    expect = 1j * np.arange(1, 9) * cubic
    assert np.allclose(rhs(st).coeffs, expect, atol=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(scheme="euler")
    with pytest.raises(ValueError):
        StepperConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        StepperConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepperConfig(sample_every=0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.3, t_end=1.0).n_steps()  # not an integer step count


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_psi1_sigma1_is_stationary(scheme):
    cfg = StepperConfig(scheme=scheme, dt=1e-2, t_end=1.0, sample_every=100)
    traj = simulate(make_psi_k(1, 1, 4), cfg)
    drift = np.max(np.abs(traj.final_state.coeffs - make_psi_k(1, 1, 4).coeffs))
    assert drift <= 1e-13


def test_psi2_phase_evolution():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000)
    traj = simulate(make_psi_k(2, 0, 4), cfg)
    a2 = traj.final_state.coeffs[1]
    assert abs(a2 - np.exp(4j)) <= 1e-8
    assert abs(abs(a2) - 1.0) <= 1e-10


def test_trajectory_structure():
    cfg = StepperConfig(scheme="rk4", dt=1e-2, t_end=0.1, sample_every=2)
    traj = simulate(seeded_state(0, 6, 1), cfg, h_s=(1.0,))
    assert len(traj.times) == len(traj.states) == len(traj.reports)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    recs = traj.records()
    assert recs[0]["t"] == 0.0 and "H1" in recs[0] and "E" in recs[0]


def test_trajectory_rejects_inconsistent_samples():
    traj = simulate(seeded_state(0, 6, 1), StepperConfig(scheme="rk4", dt=1e-2, t_end=0.02))
    times, states, reports = traj.times, traj.states, traj.reports
    with pytest.raises(ValueError, match="equal lengths"):
        Trajectory(times, states[:-1], reports)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times[::-1], states, reports)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.zeros(3), states, reports)
    with pytest.raises(ValueError, match="share sigma and n_modes"):
        Trajectory(times, states[:2] + [seeded_state(1, 6, 1)], reports)
    with pytest.raises(ValueError, match="share sigma and n_modes"):
        Trajectory(times, states[:2] + [seeded_state(0, 7, 1)], reports)


def test_simulate_rejects_exponents_sharing_a_field_before_any_step(monkeypatch):
    # simulate() used to return one H0.5 field holding the second norm
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before rejecting h_s")

    monkeypatch.setattr(integrator.StepMemory, "_bind", no_step)
    cfg = StepperConfig("rk4", 1e-3, 2e-3, 1)
    with pytest.raises(ValueError, match="share the record field") as info:
        simulate(seeded_state(0, 8, 1), cfg, h_s=(0.5, 0.5000001))
    assert "0.5 and 0.5000001" in str(info.value)


@pytest.mark.parametrize("sigma", [0, 1])
def test_rk4_conservation(sigma):
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=250)
    for seed in range(3):
        st = seeded_state(sigma, 16, seed)
        traj = simulate(st, cfg)
        e = np.array([r.energy for r in traj.reports])
        p = np.array([r.momentum for r in traj.reports])
        m = np.array([r.mass for r in traj.reports])
        assert np.max(np.abs(e - e[0])) <= 1e-8 * max(abs(e[0]), 1e-30)
        assert np.max(np.abs(p - p[0])) <= 1e-8 * p[0]
        assert np.max(np.abs(m - m[0])) <= 1e-8 * m[0]


def test_a1_conserved_sigma1():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=500)
    st = seeded_state(1, 16, 11, amplitude=1.0)
    traj = simulate(st, cfg)
    drift = max(abs(r.a1 - st.coeffs[0]) for r in traj.reports)
    assert drift <= 1e-12


@pytest.mark.parametrize("n_modes", [32, 130])  # the Toeplitz and the grid form
def test_rk4_sigma1_keeps_a1_bit_exact(n_modes):
    # at sigma = 1 the mode-1 slope is exactly 0, so every weighted sum of
    # the stage array must hand a_1 through unchanged
    st = seeded_state(1, n_modes, 3, amplitude=0.35)
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.1)
    memory = StepMemory()
    current = st
    for i in range(100):
        current = step(current, cfg, i * 1e-3, memory)
        assert current.coeffs[0] == st.coeffs[0]


def test_rk4_memory_steps_on_after_a_failed_step():
    # an overflowing step leaves non-finite slopes in the stage rows; each
    # weighted sum of the next step reads only the rows that step writes
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1e-3)
    memory = StepMemory()
    with pytest.raises(StepFailure, match="non-finite"):
        step(seeded_state(0, 8, 0, amplitude=1e120), cfg, memory=memory)
    assert not np.isfinite(memory._stages[1:]).any()
    st = seeded_state(0, 8, 1)
    assert np.array_equal(step(st, cfg, memory=memory).coeffs, step(st, cfg).coeffs)


def test_midpoint_conserves_quadratic_invariants():
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-3, t_end=1.0, sample_every=500)
    st = seeded_state(0, 16, 5, amplitude=0.1)
    traj = simulate(st, cfg)
    e = np.array([r.energy for r in traj.reports])
    p = np.array([r.momentum for r in traj.reports])
    m = np.array([r.mass for r in traj.reports])
    assert np.max(np.abs(p - p[0])) <= 1e-12 * p[0]
    assert np.max(np.abs(m - m[0])) <= 1e-12 * m[0]
    assert np.max(np.abs(e - e[0])) <= 1e-8 * abs(e[0])


def test_midpoint_non_convergence_reports_diagnostics():
    # a huge step makes the fixed-point map expansive
    cfg = StepperConfig(scheme="implicit_midpoint", dt=50.0, t_end=50.0, sample_every=1)
    st = seeded_state(0, 8, 0, amplitude=2.0)
    with pytest.raises(StepFailure) as info:
        step(st, cfg, t=0.0)
    assert 1 <= info.value.iterations <= 5
    # divergence: the last residual is either positive or has overflowed
    assert info.value.residual > 0.0 or not np.isfinite(info.value.residual)
    assert info.value.t == 0.0


def test_midpoint_non_convergence_with_memory_reports_diagnostics():
    # the same failure after a few converged steps, so the solve starts from the predictor
    st = seeded_state(0, 8, 0, amplitude=2.0)
    memory = StepMemory()
    small = StepperConfig(scheme="implicit_midpoint", dt=1e-4, t_end=1e-4)
    for i in range(3):
        st = step(st, small, i * 1e-4, memory)
    assert len(memory.slopes) == 3
    cfg = StepperConfig(scheme="implicit_midpoint", dt=50.0, t_end=50.0, sample_every=1)
    with pytest.raises(StepFailure, match=r"dt = 50 is too large for this state, reduce it") as info:
        step(st, cfg, t=0.0, memory=memory)
    assert 1 <= info.value.iterations <= 5
    assert info.value.residual > 0.0 or not np.isfinite(info.value.residual)
    assert info.value.t == 0.0


def _euler_started_midpoint(state, dt, tol=1e-12, max_iter=100):
    """One implicit midpoint step solved from the explicit Euler guess, by the
    same fixed-point loop and residual test as the stepper."""
    a = state.coeffs

    def f(x):
        return rhs(state.with_coeffs(x)).coeffs

    new = a + dt * f(a)
    for _ in range(max_iter):
        target = a + dt * f(0.5 * (a + new))
        d = target - new
        new = target
        if float(np.sqrt(np.vdot(d, d).real)) <= tol:
            return state.with_coeffs(new)
    raise AssertionError("reference midpoint solve did not converge")


@pytest.mark.parametrize("sigma, n_modes", [(0, 32), (1, 200)])  # both kernel branches
def test_step_without_history_is_the_euler_started_solve(sigma, n_modes):
    st = seeded_state(sigma, n_modes, 4, amplitude=0.5)
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-4, t_end=1e-4)
    expect = _euler_started_midpoint(st, 1e-4).coeffs
    assert np.array_equal(step(st, cfg).coeffs, expect)
    assert np.array_equal(step(st, cfg, memory=StepMemory()).coeffs, expect)


def test_predictor_changes_the_midpoint_run_at_solve_tolerance_only():
    st = seeded_state(0, 256, 0, amplitude=0.5)
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-4, t_end=1e-2, sample_every=100)
    ref = st
    for _ in range(100):
        ref = _euler_started_midpoint(ref, 1e-4)
    final = simulate(st, cfg).final_state.coeffs
    assert np.max(np.abs(final - ref.coeffs)) <= 1e-11


def test_simulate_starts_each_run_with_a_fresh_history():
    st = seeded_state(1, 16, 2, amplitude=0.5)
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-3, t_end=0.05, sample_every=10)
    first, second = simulate(st, cfg), simulate(st, cfg)
    assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(first.states, second.states))
    assert first.records() == second.records()


def test_memory_counts_rhs_evaluations_and_midpoint_iterations():
    st = seeded_state(0, 16, 1, amplitude=0.5)
    memory = StepMemory()
    step(st, StepperConfig(scheme="rk4", dt=1e-3, t_end=1e-3), memory=memory)
    assert memory.counters() == {"rhs_evals": 4, "midpoint_max_iterations": 0}
    assert not memory.slopes  # RK4 leaves no midpoint history
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-3, t_end=1e-3)
    step(st, cfg, memory=memory)
    iterations = memory.midpoint_max_iterations
    assert iterations >= 1
    assert memory.rhs_evals == 4 + iterations  # one per iteration, the first from the state itself
    assert len(memory.slopes) == 1


@pytest.mark.parametrize("sigma, n_modes", [(0, 16), (1, 130)])  # both kernel forms
def test_memory_holds_the_last_slopes_newest_first(sigma, n_modes):
    dt = 1e-4
    cfg = StepperConfig(scheme="implicit_midpoint", dt=dt, t_end=dt)
    memory = StepMemory()
    states = [seeded_state(sigma, n_modes, 3, amplitude=0.5)]
    for i in range(_PREDICTOR_SLOPES + 3):
        states.append(step(states[-1], cfg, i * dt, memory))
    slopes = memory.slopes
    assert _PREDICTOR_SLOPES == 6 and len(slopes) == 6
    for j, slope in enumerate(slopes):  # slope j made the step into states[-1 - j]
        expect = (states[-1 - j].coeffs - states[-2 - j].coeffs) / dt
        assert np.max(np.abs(slope - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_memory_rebinds_to_another_problem():
    # a step of another N, sigma, dt or scheme drops the slopes of the old
    # problem, so a midpoint step is the Euler-started solve of a fresh
    # memory (N = 8 then 16 failed to broadcast the old slopes; a change of
    # sigma or dt extrapolated them)
    cfg = StepperConfig(scheme="implicit_midpoint", dt=1e-4, t_end=1e-4)
    narrow = seeded_state(0, 8, 1)
    for st, config in [(seeded_state(0, 16, 1), cfg), (seeded_state(1, 8, 1), cfg),
                       (narrow, StepperConfig(scheme="implicit_midpoint", dt=2e-4, t_end=2e-4)),
                       (narrow, StepperConfig(scheme="rk4", dt=1e-4, t_end=1e-4))]:
        memory = StepMemory()
        current = narrow
        for i in range(3):
            current = step(current, cfg, i * 1e-4, memory)
        evals = memory.rhs_evals
        assert np.array_equal(step(st, config, memory=memory).coeffs, step(st, config).coeffs)
        assert len(memory.slopes) == (config.scheme == "implicit_midpoint")
        assert memory.rhs_evals > evals  # the counts carry over
    # an RK4 memory's stage weights carry dt and its stage array N: one used
    # at another dt or N steps as a fresh memory does, and holds no slopes
    def rk4(dt):
        return StepperConfig(scheme="rk4", dt=dt, t_end=dt)
    wide = seeded_state(1, 32, 2)
    for first, first_config, config in [(wide, rk4(1e-3), rk4(5e-4)),
                                        (seeded_state(1, 16, 2), rk4(1e-3), rk4(1e-3))]:
        memory = StepMemory()
        current = first
        for i in range(3):
            current = step(current, first_config, i * first_config.dt, memory)
        assert memory.slopes == ()
        got = step(wide, config, memory=memory).coeffs
        assert np.array_equal(got, step(wide, config, memory=StepMemory()).coeffs)
        assert memory.slopes == ()


def test_memory_keeps_its_slopes_under_an_equal_config():
    # the memory compares problems by (N, sigma, scheme, dt), not by config
    # object; an equal problem under another config object (another t_end)
    # must keep the slopes (test_memory_rebinds_to_another_problem
    # changes N and sigma under the same object)
    dt = 1e-4
    cfg = StepperConfig(scheme="implicit_midpoint", dt=dt, t_end=1e-3)
    other = StepperConfig(scheme="implicit_midpoint", dt=dt, t_end=2e-3)
    start = seeded_state(0, 16, 2, amplitude=0.5)
    same, switched = StepMemory(), StepMemory()
    a = b = start
    for i, config in enumerate([cfg, cfg, other, other, cfg]):
        a = step(a, cfg, i * dt, same)
        b = step(b, config, i * dt, switched)
        assert b.coeffs.tobytes() == a.coeffs.tobytes()
        assert len(switched.slopes) == i + 1


def _step_returning(monkeypatch, scheme, coeffs, t=0.0):
    """A step of ``scheme`` from time t whose output is ``coeffs`` (up to the
    sign of a zero): the midpoint solve is replaced by a copy of them, and
    RK4 runs on them with a zero right-hand side, so its update is 1 a + 0."""
    def zero(a, out=None):
        out = np.empty_like(a) if out is None else out
        out[...] = 0.0
        return out

    monkeypatch.setattr(integrator, "_kernels", lambda n, sigma: types.SimpleNamespace(rhs=zero))
    monkeypatch.setattr(integrator, "_midpoint_step", lambda a, dt, t, memory: coeffs.copy())
    config = StepperConfig(scheme=scheme, dt=1e-3, t_end=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return step(SpectralState(0, coeffs), config, t, memory=StepMemory())


def _placed(value, part, index, n=8):
    coeffs = seeded_state(0, n, 1).coeffs.copy()
    if part == "real":
        coeffs[index] = complex(value, coeffs[index].imag)
    else:
        coeffs[index] = complex(coeffs[index].real, value)
    return coeffs


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_step_with_a_non_finite_output_fails(monkeypatch, scheme, value):
    # the step's finiteness test is one dot of zeros with the output's floats
    for part in ("real", "imag"):
        for index in (0, 3, 7):  # modes 1, N/2 and N of N = 8
            coeffs = _placed(value, part, index)
            with pytest.raises(StepFailure, match="non-finite"):
                _step_returning(monkeypatch, scheme, coeffs)


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
def test_non_finite_step_failure_carries_the_step_start(monkeypatch, scheme):
    # the step function raises the failure itself, with the time its step started
    with pytest.raises(StepFailure) as info:
        _step_returning(monkeypatch, scheme, _placed(np.nan, "imag", 3), t=0.25)
    failure = info.value
    assert (failure.t, failure.iterations, failure.residual) == (0.25, 0, np.inf)
    assert str(failure) == f"{scheme} step from t = 0.25 produced non-finite coefficients"


@pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("value", [1.7e308, -1.7e308, 5e-324, -0.0])
def test_step_with_finite_extremes_passes(monkeypatch, scheme, value):
    for part in ("real", "imag"):
        for index in (0, 3, 7):
            coeffs = _placed(value, part, index)
            out = _step_returning(monkeypatch, scheme, coeffs).coeffs
            assert np.array_equal(out, coeffs)


def test_config_rejects_fractional_step_count():
    # rejected when the configuration is made, before any run can start
    with pytest.raises(ValueError, match="integer number of steps"):
        StepperConfig(dt=0.3, t_end=1.0)


def test_config_rejects_too_many_steps():
    with pytest.raises(ValueError, match="exceeds the limit"):
        StepperConfig(dt=1e-300, t_end=1.0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        StepperConfig(dt=1e-200, t_end=1e200)  # t_end / dt overflows to inf
    assert StepperConfig(dt=1.0, t_end=float(_MAX_STEPS)).n_steps() == _MAX_STEPS


def test_simulate_stops_on_non_finite_sample():
    # finite coefficients whose H^200 norm overflows: no inf reaches a report
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.01)
    with pytest.raises(StepFailure, match="H200 overflowed at t = 0"):
        simulate(seeded_state(0, 64, 0), cfg, h_s=(200.0,))


def test_simulate_stops_on_non_finite_state():
    cfg = StepperConfig(scheme="rk4", dt=1e-2, t_end=0.1, sample_every=5)
    with pytest.raises(StepFailure, match="non-finite") as info:
        simulate(seeded_state(0, 256, 0), cfg)
    assert 0.0 <= info.value.t < 0.1


def test_flow_never_populates_modes_above_cutoff():
    # structural: the state vector length is the cutoff
    cfg = StepperConfig(scheme="rk4", dt=1e-2, t_end=0.1, sample_every=10)
    traj = simulate(seeded_state(0, 12, 3), cfg)
    assert all(s.n_modes == 12 for s in traj.states)


@pytest.mark.parametrize("sigma", [0, 1])
def test_short_time_galerkin_convergence(sigma):
    # criterion 05's state, zero-padded to N = 64 and 128: at t = 0.05 the
    # P-distance between the final states of successive N shrinks at least 8x
    # per doubling (the worst of seeds 0-9 and both sigma read 10.4, at sigma
    # = 0, seed 0: 1.89e-2 then 1.83e-3; the median read 102).  Later the
    # distances stall (README.md): the truncation stops describing the PDE
    cfg = StepperConfig(scheme="rk4", dt=2.5e-4, t_end=0.05, sample_every=200)
    for seed in range(10):
        a = seeded_state(sigma, 32, seed, amplitude=0.35).coeffs
        finals = [simulate(SpectralState(sigma, np.pad(a, (0, n - 32))), cfg).final_state.coeffs
                  for n in (32, 64, 128)]
        d32, d64 = (p_norm(fine - np.pad(coarse, (0, coarse.size)))
                    for coarse, fine in zip(finals, finals[1:]))
        assert d32 >= 8.0 * d64, (seed, d32, d64)


def test_time_reversal_single_mode():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.5, sample_every=500)
    assert time_reversal_check(make_psi_k(2, 0, 4), cfg) <= 1e-12


def test_time_reversal_random():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000)
    st = seeded_state(0, 8, 3)
    assert time_reversal_check(st, cfg) <= 1e-9


def test_time_reversal_fourth_order_or_better():
    st = seeded_state(0, 8, 3, amplitude=1.0)
    r1 = time_reversal_check(st, StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000))
    r2 = time_reversal_check(st, StepperConfig(scheme="rk4", dt=5e-4, t_end=1.0, sample_every=2000))
    # adjoint error cancellation makes this round trip superconverge (5th
    # order), so assert at-least-4th-order shrinkage
    assert r1 / r2 >= 12.0
    assert r2 > 1e-14  # stays above the rounding floor, so the ratio means something


def test_scaling_identity_at_lambda_one():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.5, sample_every=500)
    assert scaling_check(seeded_state(0, 8, 2), 1.0, cfg) == 0.0


def test_scaling_single_mode_lambda_two():
    # both runs follow the closed-form single-mode orbit, whose exact flows
    # coincide; the defect left over is the (larger) run's rk4 error
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000)
    assert scaling_check(make_psi_k(2, 0, 4), 2.0, cfg) <= 1e-6


def test_scaling_random():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000)
    st = seeded_state(0, 8, 3)
    assert scaling_check(st, 0.5, cfg) <= 1e-8


def test_scaling_fourth_order():
    st = seeded_state(0, 8, 3, amplitude=1.0)
    s1 = scaling_check(st, 0.5, StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=1000))
    s2 = scaling_check(st, 0.5, StepperConfig(scheme="rk4", dt=5e-4, t_end=1.0, sample_every=2000))
    assert s1 / s2 >= 12.0
    assert s2 > 1e-13


def test_scaling_rejects_nonpositive_lambda():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.1)
    with pytest.raises(ValueError):
        scaling_check(seeded_state(0, 4, 0), -1.0, cfg)
