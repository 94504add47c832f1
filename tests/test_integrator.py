import numpy as np
import pytest

from filament.spectral import SpectralState, seeded_state
from filament.integrator import (
    StepperConfig,
    StepFailure,
    StepMemory,
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
                               161, 200])
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
    assert memory.rhs_evals == 4 + 1 + iterations  # Euler start, then one per iteration
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
