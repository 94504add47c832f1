import numpy as np
import pytest

from filament.spectral import SpectralState, seeded_state
from filament.invariants import momentum, mass
from filament.waves import make_psi_k
from filament.minimizer import (
    ConstraintTarget,
    MinimizeOptions,
    project_to_constraints,
    multiplier_extraction,
    minimize_energy,
)

TWO_PI = 2.0 * np.pi


def test_target_validation():
    with pytest.raises(ValueError):
        ConstraintTarget(mass_target=-1.0, momentum_target=1.0)
    with pytest.raises(ValueError):
        ConstraintTarget(mass_target=1.0, momentum_target=0.0)
    with pytest.raises(TypeError):  # both targets are required
        ConstraintTarget(mass_target=1.0)
    # infeasible band: M* > P* and M* < P*/N
    with pytest.raises(ValueError):
        ConstraintTarget(mass_target=2.0, momentum_target=1.0).validate_for(8)
    with pytest.raises(ValueError):
        ConstraintTarget(mass_target=0.1, momentum_target=1.0).validate_for(8)
    ConstraintTarget(mass_target=0.5, momentum_target=1.0).validate_for(8)


def test_projection_identity_on_manifold():
    st = SpectralState(0, [1.0, 1.0])
    target = ConstraintTarget(mass_target=mass(st), momentum_target=momentum(st))
    proj = project_to_constraints(st, target)
    assert np.max(np.abs(proj.coeffs - st.coeffs)) <= 1e-12


def test_projection_equality_case_forces_mode_one():
    st = SpectralState(1, [2.0 * np.exp(0.4j), 0.5, 0.0])
    proj = project_to_constraints(st, ConstraintTarget(mass_target=TWO_PI, momentum_target=TWO_PI))
    assert np.allclose(np.abs(proj.coeffs), [1.0, 0.0, 0.0], atol=1e-13)
    # phase of the pivot coefficient is preserved
    assert np.angle(proj.coeffs[0]) == pytest.approx(0.4, abs=1e-13)


def test_projection_lower_boundary_forces_mode_n():
    st = SpectralState(1, [0.5, 0.0, 2.0 * np.exp(-1.1j)])
    proj = project_to_constraints(st, ConstraintTarget(mass_target=TWO_PI / 3, momentum_target=TWO_PI))
    assert np.allclose(np.abs(proj.coeffs), [0.0, 0.0, 1.0], atol=1e-13)
    # phase of the pivot coefficient is preserved
    assert np.angle(proj.coeffs[2]) == pytest.approx(-1.1, abs=1e-13)


def test_projection_two_coefficient_target():
    st = SpectralState(0, [1.0, 1.0])
    target = ConstraintTarget(mass_target=1.5 * np.pi, momentum_target=TWO_PI)
    proj = project_to_constraints(st, target)
    assert abs(mass(proj) - 1.5 * np.pi) / (1.5 * np.pi) <= 1e-12
    assert abs(momentum(proj) - TWO_PI) / TWO_PI <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_projection_seeded_targets(seed):
    st = seeded_state(0, 12, seed, amplitude=1.0)
    target = ConstraintTarget(mass_target=1.1, momentum_target=3.0)
    proj = project_to_constraints(st, target)
    assert abs(mass(proj) - 1.1) / 1.1 <= 1e-10
    assert abs(momentum(proj) - 3.0) / 3.0 <= 1e-10


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("p_star", [6.25e7, 1e8, 1e20, 1e100])
def test_projection_far_from_the_start_scale(n, p_star):
    # Newton from alpha = beta = 0 on the unit-scale start used to stall here:
    # 1 + alpha cancelled, and P* = 1e20 already left the residual at 1.414
    st = seeded_state(0, n, 0, decay=1.0, amplitude=1.0)
    target = ConstraintTarget(mass_target=p_star / 2, momentum_target=p_star)
    proj = project_to_constraints(st, target)
    assert abs(mass(proj) - p_star / 2) / (p_star / 2) <= 1e-12
    assert abs(momentum(proj) - p_star) / p_star <= 1e-12


def test_projection_rejects_zero_state():
    zero = SpectralState(0, np.zeros(4))
    with pytest.raises(ValueError):
        project_to_constraints(zero, ConstraintTarget(mass_target=1.0, momentum_target=1.5))


def test_start_that_cannot_reach_the_target_is_rejected():
    # the projection keeps the occupied modes S, and M/P is a mean of 1/k over S
    half = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)  # M/P = 1/2
    for start in (make_psi_k(3, 0, 4),  # S = {3}: M/P = 1/3 only
                  SpectralState(0, [0.0, 0.0, 1.0, 1.0])):  # S = {3, 4}: 1/4 < M/P < 1/3
        with pytest.raises(ValueError, match="out of reach"):
            project_to_constraints(start, half)
        with pytest.raises(ValueError, match="out of reach"):
            minimize_energy(0, 4, half, init=start, opts=MinimizeOptions(max_iter=1))
    with pytest.raises(ValueError, match="out of reach"):  # S = {1, 3} needs 1/3 < M/P < 1
        project_to_constraints(SpectralState(1, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                               ConstraintTarget(mass_target=1.9, momentum_target=TWO_PI))
    # reachable: M/P = 1/k on S = {k}, strictly inside the span of S, and the
    # boundary ratios, which put all weight on mode 1 or mode N from any start
    for start, m_star in ((make_psi_k(2, 0, 4), np.pi), (SpectralState(0, [1.0, 0.0, 1.0, 0.0]), 3.0),
                          (make_psi_k(3, 0, 4), TWO_PI), (make_psi_k(2, 0, 4), TWO_PI / 4)):
        proj = project_to_constraints(start, ConstraintTarget(mass_target=m_star, momentum_target=TWO_PI))
        assert abs(mass(proj) - m_star) / m_star <= 1e-12
        assert abs(momentum(proj) - TWO_PI) / TWO_PI <= 1e-12


def test_multiplier_extraction_single_modes():
    # any (lambda, mu) on the line lambda/k + mu = (4/pi)(k - sigma) fits;
    # the minimal-norm representative is returned exactly
    for sigma in (0, 1):
        for k in (1, 2, 4):
            lam, mu, rel = multiplier_extraction(make_psi_k(k, sigma, 5))
            assert lam / k + mu == pytest.approx((4.0 / np.pi) * (k - sigma), rel=1e-12, abs=1e-12)
            # minimal-norm solution lies along the normal (1/k, 1)
            assert lam == pytest.approx(mu / k, rel=1e-10, abs=1e-12)
            assert rel <= 1e-12


def test_multiplier_extraction_rejects_zero():
    with pytest.raises(ValueError):
        multiplier_extraction(SpectralState(0, np.zeros(3)))


def test_minimize_sigma1_equality_target():
    result = minimize_energy(
        1, 16, ConstraintTarget(mass_target=TWO_PI, momentum_target=TWO_PI),
        opts=MinimizeOptions(seed=3, n_starts=2),
    )
    assert abs(result.energy) <= 1e-8
    tail = np.abs(result.state.coeffs[1:])
    assert np.max(tail) <= 1e-8
    assert result.el_residual <= 1e-8
    assert max(result.constraint_violation) <= 1e-10
    assert result.converged


def test_minimize_sigma0_equality_target():
    # the constraint set is the single orbit of e_1, where E_0 = 4
    result = minimize_energy(
        0, 8, ConstraintTarget(mass_target=TWO_PI, momentum_target=TWO_PI),
        opts=MinimizeOptions(seed=1, n_starts=1),
    )
    assert result.energy == pytest.approx(4.0, abs=1e-10)


def test_minimize_generic_target_dominated_by_psi2():
    target = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)
    result = minimize_energy(0, 16, target, opts=MinimizeOptions(seed=5, n_starts=2))
    assert result.energy <= 8.0 + 1e-9  # E_0(psi_2) = 8 is feasible
    assert max(result.constraint_violation) <= 1e-10


def test_minimize_monotone_energy_and_gauge():
    target = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)
    result = minimize_energy(0, 12, target, opts=MinimizeOptions(seed=2, n_starts=1))
    hist = np.array(result.energy_history)
    assert len(hist) > 1
    assert np.all(np.diff(hist) <= 0.0)
    # gauge: lowest occupied coefficient rotated onto the positive real axis
    occ = np.nonzero(np.abs(result.state.coeffs) > 1e-10)[0]
    pivot = result.state.coeffs[occ[0]]
    assert abs(pivot.imag) <= 1e-12 * abs(pivot)
    assert pivot.real > 0
    assert result.energy >= -1e-10


def test_minimize_from_explicit_init():
    target = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)
    init = make_psi_k(2, 0, 8)
    result = minimize_energy(0, 8, target, init=init)
    assert result.energy == pytest.approx(8.0, abs=1e-9)
    assert result.seed is None
    with pytest.raises(ValueError):
        minimize_energy(0, 4, target, init=make_psi_k(1, 0, 6))


def test_minimize_seed_independence():
    target = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)
    energies = [
        minimize_energy(0, 12, target, opts=MinimizeOptions(seed=s, n_starts=1)).energy
        for s in range(5)
    ]
    assert max(energies) - min(energies) <= 1e-5


def test_minimize_energy_lower_bound():
    for sigma in (0, 1):
        target = ConstraintTarget(mass_target=0.9 * TWO_PI, momentum_target=1.5 * TWO_PI)
        result = minimize_energy(sigma, 8, target, opts=MinimizeOptions(seed=0, n_starts=1))
        assert result.energy >= -1e-10


def test_minimize_truncation_consistency():
    target = ConstraintTarget(mass_target=np.pi, momentum_target=TWO_PI)
    e_small = minimize_energy(0, 12, target, opts=MinimizeOptions(seed=7, n_starts=2)).energy
    e_large = minimize_energy(0, 24, target, opts=MinimizeOptions(seed=7, n_starts=2)).energy
    assert abs(e_small - e_large) <= 1e-4


def test_minimize_descends_at_a_large_target():
    # the first Armijo step scales like 1/P*: from P* = 1e20 an unscaled one
    # never passed the test, and the projected random start (E/P*^2 = 0.414)
    # came back after 0 accepted steps
    p_star = 1e20
    result = minimize_energy(0, 16, ConstraintTarget(mass_target=5e19, momentum_target=p_star),
                             opts=MinimizeOptions(n_starts=1))
    assert len(result.energy_history) > 1
    # the minimum that P* = 2 pi and 1e8 reach
    assert abs(result.energy / p_star**2 - 0.2026) <= 1e-3
    assert max(result.constraint_violation) <= 1e-10


@pytest.mark.parametrize("kwargs", [
    # max_iter=0 returned grad_norm = inf, n_starts <= 0 ran one start, and a
    # NaN tolerance never converged
    {"max_iter": 0}, {"n_starts": 0}, {"n_starts": -3},
    {"grad_tol": float("nan")}, {"grad_tol": float("inf")}, {"grad_tol": -1.0},
])
def test_minimize_options_reject_invalid_values(kwargs):
    with pytest.raises(ValueError):
        MinimizeOptions(**kwargs)


def test_minimize_infeasible_target_rejected():
    with pytest.raises(ValueError):
        minimize_energy(0, 8, ConstraintTarget(mass_target=TWO_PI, momentum_target=np.pi))
