import numpy as np
import pytest

from filament import nonlinearity
from filament.spectral import SpectralState, seeded_state
from filament.nonlinearity import (
    _TOEPLITZ_MAX_N,
    _c_sigma_direct_raw,
    _c_sigma_trunc_raw,
    _kernels,
    _toeplitz_constants,
    c_sigma_direct,
    c_sigma_unsym,
    c_sigma_fast,
    c_sigma_quadrature,
    kernel_integral,
)

from filament.invariants import _energy_grid_raw, energy_quadrature, energy_spectral
from oracles import (
    cubic_brute_force,
    cubic_midpoint_rule,
    energy_grid_numpy_fft,
    energy_midpoint_rule,
    grid_kernel_numpy_fft,
)

ROUTES = [c_sigma_direct, c_sigma_unsym, c_sigma_fast]


def single_mode(k, sigma, n):
    coeffs = np.zeros(n, dtype=complex)
    coeffs[k - 1] = 1.0
    return SpectralState(sigma, coeffs)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("sigma", [0, 1])
def test_single_mode_eigenrelation(route, sigma):
    n = 16
    for k in range(1, n + 1):
        out = route(single_mode(k, sigma, n)).coeffs_full
        expect = np.zeros(2 * n - 1, dtype=complex)
        expect[k - 1] = k - sigma
        assert np.max(np.abs(out - expect)) <= 1e-12 * max(1.0, k)


@pytest.mark.parametrize("route", ROUTES)
def test_zero_state(route):
    out = route(SpectralState(0, np.zeros(6)))
    assert np.all(out.coeffs_full == 0.0)


@pytest.mark.parametrize("route", ROUTES + [lambda s: c_sigma_quadrature(s, 2048)])
def test_two_coefficient_values(route):
    # enumerating the 8 triples over {1,2}^3 with p >= 1 gives
    # sum min = (3, 4, 1) and sum (min - 1) = (0, 1, 0) on modes 1..3
    got0 = route(SpectralState(0, [1.0, 1.0])).coeffs_full
    got1 = route(SpectralState(1, [1.0, 1.0])).coeffs_full
    assert np.allclose(got0, [3.0, 4.0, 1.0], atol=1e-10)
    assert np.allclose(got1, [0.0, 1.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_routes_match_brute_force(sigma, seed):
    st = seeded_state(sigma, 8, seed, amplitude=1.0)
    expect = cubic_brute_force(st.coeffs, sigma)
    scale = np.max(np.abs(expect))
    for route in ROUTES:
        assert np.max(np.abs(route(st).coeffs_full - expect)) <= 1e-13 * scale
    quad = c_sigma_quadrature(st, 8 * st.n_modes).coeffs_full
    assert np.max(np.abs(quad - expect)) <= 1e-6 * scale


@pytest.mark.parametrize("sigma", [0, 1])
def test_route_equivalence_at_scale(sigma):
    for seed in range(5):
        st = seeded_state(sigma, 64, seed)
        ref = c_sigma_direct(st).coeffs_full
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(c_sigma_unsym(st).coeffs_full - ref)) <= 1e-13 * scale
        assert np.max(np.abs(c_sigma_fast(st).coeffs_full - ref)) <= 1e-12 * scale


# c_sigma_fast runs the truncated kernel on 2N - 1 modes (2N - 2 after the
# sigma = 1 shift): its Toeplitz/grid crossover from both sides, for each
# sigma; 28/29 are Toeplitz sizes, 60/61/62, 80/81/82, 161 and 200 grid ones
FAST_SIZES = [1, 2, 3, 17, 28, 29, 60, 61, 62, 80, 81, 82, 161, 200,
              (_TOEPLITZ_MAX_N + 1) // 2, (_TOEPLITZ_MAX_N + 1) // 2 + 1, (_TOEPLITZ_MAX_N + 1) // 2 + 2]


@pytest.mark.parametrize("n", FAST_SIZES)
@pytest.mark.parametrize("sigma", [0, 1])
def test_fast_route_matches_direct_on_seeded_states(n, sigma):
    for seed in range(3):
        st = seeded_state(sigma, n, seed)
        ref = c_sigma_direct(st).coeffs_full
        got = c_sigma_fast(st).coeffs_full
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)
        if sigma == 1:
            assert got[0] == 0.0


# both forms of the truncated kernel, for each sigma, and its crossover from
# both sides (sigma = 1 runs the grid on N - 1 modes); 56/57 are Toeplitz
# sizes, 120, 121, 128, 160, 161, 162 and 200 grid ones
TRUNC_SIZES = [1, 2, 3, 17, 56, 57, _TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1,
               120, 121, 128, 160, 161, 162, 200]


@pytest.mark.parametrize("n", TRUNC_SIZES)
@pytest.mark.parametrize("sigma", [0, 1])
def test_truncated_kernel_matches_direct(n, sigma):
    for seed in range(3):
        a = seeded_state(sigma, n, seed).coeffs
        ref = _c_sigma_direct_raw(a, sigma)[:n]
        got = _c_sigma_trunc_raw(a, sigma)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        if sigma == 1:
            assert got[0] == 0.0


@pytest.mark.parametrize("n", [2, 17, 56, 57, _TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1, 120, 121, 200])
def test_truncated_kernel_sigma1_ignores_a_dominant_first_mode(n):
    # E_1 does not see mode 1: however large a_1 is, the output is that of
    # a_2..a_N, to the same relative accuracy
    rng = np.random.default_rng(n)
    a = 1e-5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.arange(1, n + 1)
    a[0] = 1.0
    full = _c_sigma_direct_raw(a, 1)
    ref = full[:n]
    got = _c_sigma_trunc_raw(a, 1)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert got[0] == 0.0
    # the full support, from the same kernel on the zero-padded state
    got = c_sigma_fast(SpectralState(1, a)).coeffs_full
    assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(full))
    assert got[0] == 0.0


@pytest.mark.parametrize("n", [2, 17, 56, _TOEPLITZ_MAX_N, 120])
@pytest.mark.parametrize("sigma", [0, 1])
def test_toeplitz_constants_are_read_only(n, sigma):
    consts = _toeplitz_constants(n, sigma)
    for arr in consts:
        assert not arr.flags.writeable
    assert consts.weight.dtype == consts.rhs_weight.dtype == np.complex128
    with pytest.raises(ValueError):
        consts.weight[0, 0] = 1.0


def test_quadrature_minimum_resolution_is_exact():
    # the z-integrands of a bandwidth-N state are trig polynomials of degree
    # <= 2N+1, so the midpoint rule is already exact at the 8N floor
    for sigma in (0, 1):
        st = seeded_state(sigma, 12, 9)
        ref = c_sigma_direct(st).coeffs_full
        got = c_sigma_quadrature(st, 8 * 12).coeffs_full
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        es = energy_spectral(st)
        assert abs(energy_quadrature(st, 8 * 12) - es) <= 1e-10 * abs(es)


def test_quadrature_single_mode():
    got = c_sigma_quadrature(single_mode(1, 0, 1), 512).coeffs_full
    assert abs(got[0] - 1.0) <= 1e-6


def test_quadrature_resolution_check():
    with pytest.raises(ValueError):
        c_sigma_quadrature(seeded_state(0, 8, 0), 63)


def test_truncation_is_prefix():
    st = seeded_state(1, 10, 2)
    res = c_sigma_direct(st)
    assert np.array_equal(res.coeffs_truncated, res.coeffs_full[:10])
    assert res.coeffs_full.size == 19


@pytest.mark.parametrize("seed", range(5))
def test_sigma1_mode_one_output_vanishes(seed):
    # every p = 1 interaction carries weight min(k,l,m,1) - 1 = 0
    st = seeded_state(1, 24, seed, amplitude=1.0)
    assert c_sigma_direct(st).coeffs_full[0] == 0.0
    assert abs(c_sigma_fast(st).coeffs_full[0]) <= 1e-14


def test_phase_covariance():
    st = seeded_state(0, 12, 5)
    theta = 0.73
    rotated = st.with_coeffs(np.exp(1j * theta) * st.coeffs)
    lhs = c_sigma_direct(rotated).coeffs_full
    rhs = np.exp(1j * theta) * c_sigma_direct(st).coeffs_full
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_translation_covariance():
    st = seeded_state(1, 12, 6)
    x0 = 1.1
    modes_in = np.arange(1, 13)
    shifted = st.with_coeffs(st.coeffs * np.exp(1j * modes_in * x0))
    lhs = c_sigma_direct(shifted).coeffs_full
    modes_out = np.arange(1, 24)
    rhs = c_sigma_direct(st).coeffs_full * np.exp(1j * modes_out * x0)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("lam", [0.5, 2.0, 1.7 + 0.4j])
def test_cubic_homogeneity(lam):
    st = seeded_state(0, 10, 8)
    scaled = st.with_coeffs(lam * st.coeffs)
    lhs = c_sigma_direct(scaled).coeffs_full
    rhs = lam * abs(lam) ** 2 * c_sigma_direct(st).coeffs_full
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-16)


def test_kernel_integral_values():
    assert kernel_integral(0, 4096) == 0.0
    assert abs(kernel_integral(3, 4096) - 6.0 * np.pi) <= 1e-8
    assert abs(kernel_integral(-2, 4096) - 4.0 * np.pi) <= 1e-8


def test_kernel_integral_sweep():
    for m in range(-16, 17):
        assert abs(kernel_integral(m, 4096) - 2.0 * np.pi * abs(m)) <= 1e-8


def test_kernel_integral_resolution_check():
    with pytest.raises(ValueError):
        kernel_integral(3, 32)


# Bit-exact values of the (z, x) midpoint-rule oracle, which sums the
# singular integrals point by point, and of the kernel integral on one seeded
# N = 12 state: any change to the discretization (nodes, kernel, 4N grid)
# shows here.  Outputs that are zero up to rounding are not pinned.
QUADRATURE_PIN = {
    0: {0: -0.10470407562374393 + 0.053214359408041076j,
        11: 0.019403972489430786 - 0.002284951705327689j,
        22: -0.0001461071810021491 - 4.7246251275528584e-05j},
    1: {1: -0.02228681731568516 + 0.022221596252951132j,
        11: 0.009925670973477414 - 0.005022726788163219j,
        20: 0.00016640293894154093 + 8.046233967068918e-05j},
}


@pytest.mark.parametrize("sigma", [0, 1])
def test_quadrature_routes_match_pinned_values(sigma):
    st = seeded_state(sigma, 12, 4)
    got = cubic_midpoint_rule(st.coeffs, sigma, 96)
    for index, value in QUADRATURE_PIN[sigma].items():
        assert got[index] == value
    assert energy_midpoint_rule(st.coeffs, sigma, 96) == {0: 0.4884312805968158, 1: 0.1745421346974227}[sigma]
    assert kernel_integral(3, 64) == 18.849555921538798
    assert kernel_integral(-2, 100) == 12.566370614359217


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 17, 32])
@pytest.mark.parametrize("n_quad", ["8N", 2048])
def test_quadrature_routes_match_the_midpoint_oracle(sigma, n, n_quad):
    # the library sums the same rule through the Fourier symbol of its kernel
    n_quad = 8 * n if n_quad == "8N" else n_quad
    for seed in range(5):
        st = seeded_state(sigma, n, seed)
        norm = np.linalg.norm(st.coeffs)
        got = c_sigma_quadrature(st, n_quad).coeffs_full
        expect = cubic_midpoint_rule(st.coeffs, sigma, n_quad)
        assert np.max(np.abs(got - expect)) <= 1e-12 * norm**3
        energy = energy_quadrature(st, n_quad)
        assert abs(energy - energy_midpoint_rule(st.coeffs, sigma, n_quad)) <= 1e-11 * norm**4


@pytest.mark.parametrize("n", [1, 2, 32, _TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1, 120, 121, 256])
@pytest.mark.parametrize("sigma", [0, 1])
def test_rhs_into_a_row_changes_no_bit(n, sigma):
    # an RK4 step writes each slope into a row of its stage array; the
    # Toeplitz form (up to _TOEPLITZ_MAX_N, except N = 1 at sigma = 1) and
    # the grid form must both give the bits of the allocating call
    a = seeded_state(sigma, n, 2, amplitude=0.5).coeffs
    rhs = _kernels(n, sigma).rhs
    stages = np.full((5, n), np.nan, dtype=np.complex128)
    row = stages[3]
    assert rhs(a, out=row) is row
    assert row.tobytes() == rhs(a).tobytes()
    assert np.isnan(np.delete(stages, 3, axis=0)).all()  # no other row is touched


# odd and even M (M = 63 at N - sigma = 31, 245 at 122), and the one-point grid
# of N = 1 at sigma = 1
@pytest.mark.parametrize("n", [1, 2, 13, 31, 32, 121, 122, 123, 256, 257, 300])
@pytest.mark.parametrize("sigma", [0, 1])
def test_grid_form_has_the_bits_of_the_numpy_fft_body(monkeypatch, n, sigma):
    # the grid form and the Lambda-form energy call pocketfft's gufuncs
    # directly; they must give the bits of the same body through np.fft
    monkeypatch.setattr(nonlinearity, "_TOEPLITZ_MAX_N", 0)  # the grid form at every N
    kernels = _kernels.__wrapped__(n, sigma)
    rng = np.random.default_rng(n)
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.arange(1, n + 1)
    inv_m = 1.0 / nonlinearity._trunc_constants(n - sigma).m
    assert np.array_equal(kernels.c_sigma(a), grid_kernel_numpy_fft(a, sigma, inv_m))
    ip_m = 1j * (np.arange(1.0, n + 1.0) * inv_m)
    assert np.array_equal(kernels.rhs(a), grid_kernel_numpy_fft(a, sigma, ip_m))
    assert _energy_grid_raw(a, sigma) == energy_grid_numpy_fft(a, sigma)
