import numpy as np
import pytest

from filament.spectral import SpectralState, seeded_state
from filament.invariants import (
    energy_spectral,
    energy_lambda_form,
    energy_quadrature,
    momentum,
    mass,
    first_mode,
    sobolev_norm,
    pairing_check,
    energy_gradient_check,
    invariant_report,
)
from filament.waves import make_psi_k

from oracles import energy_brute_force

TWO_PI = 2.0 * np.pi


@pytest.mark.parametrize("sigma", [0, 1])
def test_energy_single_mode_table(sigma):
    for k in range(1, 33):
        st = make_psi_k(k, sigma, k)
        assert abs(energy_spectral(st) - 4.0 * (k - sigma)) <= 1e-13 * max(1, k)


def test_energy_two_coefficient_values():
    # quadruples over {1,2} with k+l = m+n: sum min = 7, sum (min - 1) = 1
    assert energy_spectral(SpectralState(0, [1.0, 1.0])) == pytest.approx(28.0, abs=1e-12)
    assert energy_spectral(SpectralState(1, [1.0, 1.0])) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("seed", range(3))
def test_energy_matches_brute_force(sigma, seed):
    st = seeded_state(sigma, 7, seed, amplitude=1.0)
    expect = energy_brute_force(st.coeffs, sigma)
    assert energy_spectral(st) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34])
def test_energy_matches_brute_force_sizes(sigma, n):
    for seed in (0, 1, 2):
        st = seeded_state(sigma, n, seed, amplitude=1.0)
        expect = energy_brute_force(st.coeffs, sigma)
        assert energy_spectral(st) == pytest.approx(expect, rel=1e-12)


def test_energy_sigma1_exact_zeros():
    # the sigma = 1 route drops a_1: an empty tail and a pure a_1 give 0.0
    assert energy_spectral(SpectralState(1, [0.7 - 0.2j])) == 0.0
    assert energy_spectral(SpectralState(1, [1.5, 0.0, 0.0, 0.0, 0.0])) == 0.0


@pytest.mark.parametrize("sigma", [0, 1])
def test_energy_nonnegative_large_n(sigma):
    for seed in range(3):
        assert energy_spectral(seeded_state(sigma, 512, seed)) >= 0.0


def test_energy_zero_state():
    st = SpectralState(0, np.zeros(5))
    assert energy_spectral(st) == 0.0
    assert energy_lambda_form(st) == 0.0
    assert energy_quadrature(st, 64) == 0.0


@pytest.mark.parametrize("sigma", [0, 1])
def test_energy_route_agreement_seeded(sigma):
    for seed in range(10):
        st = seeded_state(sigma, 32, seed)
        ref = energy_spectral(st)
        scale = max(abs(ref), 1e-30)
        assert abs(energy_lambda_form(st) - ref) / scale <= 1e-11
        assert abs(energy_quadrature(st, 8 * 32) - ref) / scale <= 1e-5


def test_energy_lambda_form_single_modes():
    assert energy_lambda_form(make_psi_k(1, 1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert energy_lambda_form(make_psi_k(3, 0, 3)) == pytest.approx(12.0, abs=1e-11)


def test_energy_quadrature_psi2():
    assert energy_quadrature(make_psi_k(2, 0, 2), 1024) == pytest.approx(8.0, abs=1e-5)


def test_energy_quadrature_two_coefficient():
    assert energy_quadrature(SpectralState(1, [1.0, 1.0]), 1024) == pytest.approx(4.0, abs=1e-5)


def test_energy_quadrature_resolution_check():
    with pytest.raises(ValueError):
        energy_quadrature(seeded_state(0, 16, 0), 100)


@pytest.mark.parametrize("sigma", [0, 1])
def test_energy_nonnegative(sigma):
    for seed in range(50):
        st = seeded_state(sigma, 24, seed, amplitude=1.0)
        assert energy_spectral(st) >= -1e-10


def test_energy_quartic_homogeneity():
    st = seeded_state(0, 12, 3)
    for lam in (0.5, 2.0, 3.7):
        assert energy_spectral(st.with_coeffs(lam * st.coeffs)) == pytest.approx(
            lam**4 * energy_spectral(st), rel=1e-12
        )


def test_energy_phase_translation_invariance():
    st = seeded_state(1, 10, 4)
    ref = energy_spectral(st)
    k = np.arange(1, 11)
    rotated = st.with_coeffs(np.exp(0.9j) * st.coeffs)
    shifted = st.with_coeffs(st.coeffs * np.exp(1j * k * 2.2))
    for other in (rotated, shifted):
        assert energy_spectral(other) == pytest.approx(ref, rel=1e-12)
        assert momentum(other) == pytest.approx(momentum(st), rel=1e-13)
        assert mass(other) == pytest.approx(mass(st), rel=1e-13)
        assert abs(first_mode(other)) == pytest.approx(abs(first_mode(st)), rel=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_shift_down_energy_identity(seed):
    # dropping a_1 into the (energy-neutral) zero mode turns E_1 into E_0
    st = seeded_state(1, 12, seed, amplitude=1.0)
    shifted = SpectralState(0, st.coeffs[1:])
    assert energy_spectral(st) == pytest.approx(energy_spectral(shifted), rel=1e-12, abs=1e-14)


def test_energy_one_zero_set():
    # E_1 vanishes exactly on multiples of e^{ix} ...
    for c in (1.0, 2.5, 0.3 - 0.4j):
        coeffs = np.zeros(6, dtype=complex)
        coeffs[0] = c
        assert energy_spectral(SpectralState(1, coeffs)) == 0.0
    # ... and a tail of size eps costs energy >= 4*(top weight)*eps^4,
    # so small E_1 forces a small tail
    for j in (2, 4, 6):
        for eps in (1e-1, 1e-2):
            coeffs = np.zeros(6, dtype=complex)
            coeffs[0] = 1.0
            coeffs[j - 1] = eps
            e1 = energy_spectral(SpectralState(1, coeffs))
            assert e1 == pytest.approx(4.0 * (j - 1) * eps**4, rel=1e-10)
    # seeded states with an O(1) tail are far from the zero set
    for seed in range(10):
        st = seeded_state(1, 8, seed, amplitude=1.0)
        if np.linalg.norm(st.coeffs[1:]) >= 0.1:
            assert energy_spectral(st) >= 1e-6


def test_momentum_mass_first_mode():
    assert momentum(make_psi_k(3, 0, 4)) == pytest.approx(TWO_PI, rel=1e-14)
    assert mass(make_psi_k(3, 0, 4)) == pytest.approx(TWO_PI / 3.0, rel=1e-14)
    zero = SpectralState(0, np.zeros(3))
    assert momentum(zero) == 0.0
    assert mass(zero) == 0.0
    assert first_mode(zero) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_momentum_dominates_mass(seed):
    st = seeded_state(0, 16, seed)
    assert momentum(st) >= mass(st) >= 0.0


def test_momentum_equals_mass_only_on_mode_one():
    st = SpectralState(0, [0.7 + 0.1j])
    assert momentum(st) == pytest.approx(mass(st), rel=1e-15)
    st2 = seeded_state(0, 4, 1)
    assert momentum(st2) > mass(st2)


def test_sobolev_norms():
    assert sobolev_norm(make_psi_k(4, 0, 4), 0.0) == pytest.approx(np.sqrt(TWO_PI), rel=1e-14)
    assert sobolev_norm(make_psi_k(2, 0, 2), 1.0) == pytest.approx(2.0 * np.sqrt(TWO_PI), rel=1e-14)
    assert sobolev_norm(SpectralState(0, [1.0, 1.0]), 1.5) == pytest.approx(
        np.sqrt(TWO_PI * 9.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        sobolev_norm(make_psi_k(1, 0, 1), -1.5)


def test_sobolev_norm_large_exponent():
    # ~2e178: representable, though k^(2s) alone overflows at k = 64
    st = seeded_state(0, 64, 1)
    log_terms = 100.0 * np.log(st.modes) + np.log(np.abs(st.coeffs))
    top = log_terms.max()
    ref = np.exp(top + 0.5 * np.log(TWO_PI * np.sum(np.exp(2.0 * (log_terms - top)))))
    assert sobolev_norm(st, 100.0) == pytest.approx(ref, rel=1e-12)
    # beyond the float range: inf without a RuntimeWarning; the zero state stays 0
    assert sobolev_norm(st, 200.0) == np.inf
    assert sobolev_norm(SpectralState(0, np.zeros(64)), 200.0) == 0.0


def test_pairing_identity_single_modes():
    for sigma in (0, 1):
        for k in (1, 2, 5):
            assert pairing_check(make_psi_k(k, sigma, k)) <= 1e-12


def test_pairing_identity_zero_state():
    assert pairing_check(SpectralState(0, np.zeros(4))) == 0.0


@pytest.mark.parametrize("sigma", [0, 1])
def test_pairing_identity_seeded(sigma):
    for seed in range(10):
        st = seeded_state(sigma, 32, seed, amplitude=1.0)
        e = energy_spectral(st)
        assert pairing_check(st) <= 1e-10 * (1.0 + abs(e))


def test_gradient_check_psi2():
    assert energy_gradient_check(make_psi_k(2, 0, 4), 1e-4) <= 1e-6


def test_gradient_check_zero_state():
    assert energy_gradient_check(SpectralState(0, np.zeros(4)), 1e-4) <= 1e-14


def test_gradient_check_second_order():
    st = seeded_state(1, 16, 7, amplitude=1.0)
    r1 = energy_gradient_check(st, 1e-4)
    r2 = energy_gradient_check(st, 5e-5)
    assert 3.5 <= r1 / r2 <= 4.5


def test_gradient_check_step_validation():
    with pytest.raises(ValueError):
        energy_gradient_check(make_psi_k(1, 0, 1), 1e-2)
    with pytest.raises(ValueError):
        energy_gradient_check(make_psi_k(1, 0, 1), 0.0)


def test_invariant_report_fields():
    st = make_psi_k(2, 0, 4)
    rep = invariant_report(st, h_s=(0.0, 1.0))
    assert rep.energy == pytest.approx(8.0, abs=1e-12)
    assert rep.momentum == pytest.approx(TWO_PI, rel=1e-14)
    assert rep.mass == pytest.approx(np.pi, rel=1e-14)
    assert rep.a1 == 0.0
    rec = rep.to_record()
    assert rec["H1"] == pytest.approx(2.0 * np.sqrt(TWO_PI), rel=1e-14)
    assert set(rec) == {"E", "P", "M", "a1_re", "a1_im", "H0", "H1"}


# 160/161/162 straddle the kernel's convolution/FFT crossover; sigma = 1 runs
# the shifted size N - 1, so 161 is its last convolution case
@pytest.mark.parametrize("n", [1, 2, 3, 17, 160, 161, 162, 256, 512])
@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("seed", range(3))
def test_invariant_report_energy_matches_spectral(n, sigma, seed):
    st = seeded_state(sigma, n, seed, amplitude=1.0)
    ref = energy_spectral(st)
    assert invariant_report(st).energy == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_invariant_report_energy_exact_zero_sigma1():
    assert invariant_report(SpectralState(1, [0.7 - 0.2j])).energy == 0.0
    assert invariant_report(SpectralState(1, [1.5, 0, 0, 0, 0])).energy == 0.0


@pytest.mark.parametrize("n", [4, 256])
def test_invariant_report_energy_overflow_is_quiet(n):
    # a quartic energy beyond the float range comes out non-finite, with no
    # RuntimeWarning from the kernel's intermediate products
    st = SpectralState(0, 1e120 * seeded_state(0, n, 0).coeffs)
    assert not np.isfinite(invariant_report(st).energy)
