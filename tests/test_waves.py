import numpy as np
import pytest

from filament.spectral import SpectralState
from filament.invariants import energy_spectral, momentum, mass
from filament import waves
from filament.integrator import StepperConfig, simulate
from filament.waves import (
    make_psi_k,
    make_two_mode,
    wave_residual,
    stationary_scan,
    orbit_distance,
    orbital_stability_probe,
    two_mode_phase_report,
)

TWO_PI = 2.0 * np.pi


def test_make_psi_k_basic():
    st = make_psi_k(1, 0, 4)
    assert np.array_equal(st.coeffs, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_psi_k(5, 0, 4)
    with pytest.raises(ValueError):
        make_psi_k(0, 0, 4)


@pytest.mark.parametrize("sigma", [0, 1])
def test_make_psi_k_invariant_table(sigma):
    st = make_psi_k(3, sigma, 4)
    assert momentum(st) == pytest.approx(TWO_PI, rel=1e-14)
    assert energy_spectral(st) == pytest.approx(4.0 * (3 - sigma), abs=1e-12)
    assert mass(make_psi_k(4, sigma, 4)) == pytest.approx(np.pi / 2.0, rel=1e-14)


def test_make_two_mode():
    st = make_two_mode(0.0, 2.0, 3, 4)
    assert np.array_equal(st.coeffs, 2.0 * make_psi_k(3, 1, 4).coeffs)
    assert st.sigma == 1
    with pytest.raises(ValueError):
        make_two_mode(1.0, 1.0, 1, 4)
    with pytest.raises(ValueError):
        make_two_mode(1.0, 1.0, 5, 4)


def test_pure_mode_one_is_stationary():
    st = make_two_mode(1.0, 0.0, 2, 4)
    scan = stationary_scan(st)
    assert scan.stationary
    assert scan.rhs_norm <= 1e-14


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_wave_residual_exact_waves(sigma, k):
    st = make_psi_k(k, sigma, 4)
    spec = wave_residual(st, 0.0, float(k * (k - sigma)))
    assert spec.residual <= 1e-13
    assert spec.pairing_defect <= 1e-12


def test_wave_residual_speed_family():
    # for single modes only omega/k - c is pinned: (c, omega) is a line
    k, sigma = 3, 0
    st = make_psi_k(k, sigma, 4)
    spec = wave_residual(st, 1.0, float(k + k * (k - sigma)))
    assert spec.residual <= 1e-13
    assert spec.pairing_defect <= 1e-12


def test_wave_residual_generic_positive():
    st = SpectralState(0, [1.0, 1.0])
    spec = wave_residual(st, 0.3, 1.1)
    assert spec.residual > 0.1


def test_pairing_defect_vanishes_with_residual():
    # scan the one-parameter family of exact single-mode waves
    for sigma in (0, 1):
        for k in (1, 2, 4):
            for c in (-1.0, 0.0, 2.5):
                omega = k * (c + k - sigma)
                spec = wave_residual(make_psi_k(k, sigma, 5), c, omega)
                assert spec.residual <= 1e-12
                assert spec.pairing_defect <= 1e-10


def test_stationary_scan_zero_state():
    scan = stationary_scan(SpectralState(0, np.zeros(4)))
    assert scan.stationary and scan.rhs_norm == 0.0


def test_stationary_scan_scaled_mode_one():
    scan = stationary_scan(SpectralState(1, [2.5, 0.0, 0.0]))
    assert scan.stationary
    assert scan.rhs_norm <= 1e-13


def test_stationary_scan_e2_sigma1():
    scan = stationary_scan(make_psi_k(2, 1, 4))
    assert not scan.stationary
    assert scan.rhs_norm == pytest.approx(2.0, rel=1e-13)


def test_stationary_scan_nonzero_sigma0():
    scan = stationary_scan(make_psi_k(1, 0, 4))
    assert not scan.stationary  # sigma=0 admits only the zero state


def test_stationary_scan_agrees_with_rhs_norm():
    for sigma in (0, 1):
        for st in (make_psi_k(1, sigma, 3), make_psi_k(2, sigma, 3),
                   SpectralState(sigma, [0.5, 0.25, 0.0])):
            scan = stationary_scan(st)
            assert scan.stationary == (scan.rhs_norm <= 1e-10)


def test_orbit_distance_on_orbit():
    ref = make_psi_k(2, 1, 8)
    member = ref.with_coeffs(ref.coeffs * np.exp(1j * 2 * 0.7) )  # shifted/rotated
    assert orbit_distance(member, ref) <= 1e-10


def test_orbit_distance_transverse():
    ref = make_psi_k(1, 1, 4)
    other = SpectralState(1, [1.0, 0.1, 0.0, 0.0])
    d = orbit_distance(other, ref)
    assert d == pytest.approx(np.sqrt(TWO_PI) * 0.1, rel=1e-6)


def test_probe_zero_perturbation(monkeypatch):
    # at eps = 0 the start is base + 0 * noise: psi_k bit for bit, signed zeros included
    starts = []

    def recording_simulate(state, config):
        starts.append(state)
        return simulate(state, config)

    monkeypatch.setattr(waves, "simulate", recording_simulate)
    cfg = StepperConfig(scheme="rk4", dt=1e-2, t_end=1.0, sample_every=20)
    for k in (1, 2):
        for sigma in (0, 1):
            probe = orbital_stability_probe(k, sigma, 0.0, cfg, n_modes=8, seed=k + sigma)
            base = make_psi_k(k, sigma, 8)
            assert starts[-1].sigma == sigma
            assert starts[-1].coeffs.tobytes() == base.coeffs.tobytes()
            assert np.max(probe.distances) <= 1e-12


@pytest.mark.parametrize("sigma", [0, 1])
def test_probe_small_perturbation_stays_close(sigma):
    eps = 1e-2
    cfg = StepperConfig(scheme="rk4", dt=5e-3, t_end=10.0, sample_every=100)
    probe = orbital_stability_probe(1, sigma, eps, cfg, n_modes=8, seed=1)
    assert np.max(probe.distances) <= 10.0 * eps
    recs = probe.records()
    assert {"t", "orbit_distance", "E", "P", "M"} <= set(recs[0])


def test_probe_second_mode_sigma1():
    eps = 1e-2
    cfg = StepperConfig(scheme="rk4", dt=5e-3, t_end=10.0, sample_every=100)
    probe = orbital_stability_probe(2, 1, eps, cfg, n_modes=8, seed=4)
    assert np.max(probe.distances) <= 10.0 * eps


def test_probe_validation():
    cfg = StepperConfig(scheme="rk4", dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        orbital_stability_probe(3, 1, 1e-2, cfg)
    with pytest.raises(ValueError):
        orbital_stability_probe(1, 1, 0.5, cfg)


def test_two_mode_preserved_and_rate():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=50)
    report = two_mode_phase_report(1.0, 1.0, 2, 8, cfg)
    # moduli are exactly preserved by the flow (cross weights vanish)
    assert report.amp_1_drift <= 1e-10
    assert report.amp_k_drift <= 1e-10
    # the measured drift matches the coefficient-ODE rate k(k-1)|B|^2 and
    # not the cross-term candidate (they differ by 2|A|^2 here)
    assert abs(report.measured_rate - report.rate_mode_k_only) <= 1e-6
    assert report.rate_with_cross_terms == pytest.approx(6.0)
    assert report.rate_mode_k_only == pytest.approx(2.0)


def test_two_mode_rate_scales_with_b():
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=1.0, sample_every=50)
    report = two_mode_phase_report(0.7, 0.5, 3, 8, cfg)
    assert abs(report.measured_rate - 3 * 2 * 0.25) <= 1e-6
