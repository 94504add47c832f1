"""Conserved quantities and the gradient/pairing identities that tie them
to the cubic operator.

The energy of a positive-spectrum field u = sum a_k e^{ikx} is

    E_sigma(u) = 4 sum_{k+l = m+n, all >= 1} (min(k,l,m,n) - sigma)
                 a_k a_l conj(a_m a_n),

computed here three independent ways: the reference route regroups the
sum exactly by the layer cake min(k,l,m,n) = #{j >= 1 : k,l,m,n >= j},

    E_0 = 4 sum_{j>=1} sum_s |S_j(s)|^2,   S_j(s) = sum_{k+l=s; k,l>=j} a_k a_l,

with S_j built from S_{j+1} in O(N) (O(N^2) time, O(N) memory) and
E_1(a) = E_0(a_2..a_N); the others are an FFT evaluation of the integral

    (1/2pi) int [ -4|u|^2 L|u|^2 + 2|u|^2 (conj(u) Lu + u L conj(u)) ] dx
    - (2 sigma/pi) int |u|^4 dx,        L = |d/dx|,

and a 2-d midpoint quadrature of the Gagliardo double integral

    (1/4pi^2) iint |u(x)-u(y)|^4 / (1 - cos(x-y)) dx dy
    - (2 sigma/pi) int |u|^4 dx,

on ``nonlinearity._midpoint_differences``, the one singular-integral rule.

The quadratic invariants are the momentum P = 2pi sum |a_k|^2 (the L^2
mass) and the 1/k-weighted mass M = 2pi sum |a_k|^2 / k.  This fixes
M(e_k) = 2pi/k, the unique normalization for which the traveling-wave
pairing identity -c P + w M = (pi/2) E_sigma holds with P(e_k) = 2pi and
E_sigma(e_k) = 4(k - sigma).

With respect to the coefficient a_p (Wirtinger derivative in conj(a_p))
the gradient of E_sigma is 8 C_p, of P is 2pi a_p and of M is 2pi a_p/p;
pairing the gradient identity with u gives

    2pi sum_p conj(C_p) a_p = (pi/2) E_sigma(u),

which :func:`pairing_check` verifies numerically.  The pairing needs modes
1..N of C_sigma only, so E = 4 Re <a, Q^N C_sigma a> is also an exact
energy route on the truncated kernel of ``filament.nonlinearity``
(one O(N^2) Toeplitz mat-vec up to ``_TOEPLITZ_MAX_N``, an O(N log N)
grid above): that is the per-sample energy of
:func:`invariant_report`; the layer cake stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralState, dealiased_grid_size, _synthesize
from .nonlinearity import _c_sigma_direct_raw, _c_sigma_trunc_raw, _midpoint_differences

__all__ = [
    "InvariantReport",
    "energy_spectral",
    "energy_lambda_form",
    "energy_quadrature",
    "momentum",
    "mass",
    "first_mode",
    "sobolev_norm",
    "pairing_check",
    "energy_gradient_check",
    "invariant_report",
]

_TWO_PI = 2.0 * np.pi


def _energy_spectral_raw(a: np.ndarray, sigma: int) -> float:
    if sigma:
        a = a[1:]  # E_1(a) = E_0(a_2..a_N): the shift of _c_sigma_trunc_raw
    n = a.size
    pairs = np.zeros(2 * n + 1, dtype=np.complex128)  # pairs[s] = S_j(s)
    total = 0.0
    for j in range(n, 0, -1):
        # S_j = S_{j+1} plus the ordered pairs whose smaller index is j
        pairs[2 * j] += a[j - 1] * a[j - 1]
        pairs[2 * j + 1 : j + n + 1] += 2.0 * a[j - 1] * a[j:]
        total += np.vdot(pairs[2 * j :], pairs[2 * j :]).real
    return 4.0 * total


def energy_spectral(state: SpectralState) -> float:
    """Reference energy route: the exact O(N^2) layer-cake sum of |S_j(s)|^2.

    The only error is rounding in the coefficient products, and the value
    is a sum of squares, so nonnegative by construction.
    """
    return _energy_spectral_raw(state.coeffs, state.sigma)


def energy_lambda_form(state: SpectralState) -> float:
    """FFT energy route via the |d/dx| multiplier, on an alias-free grid."""
    a = state.coeffs
    n = state.n_modes
    m = dealiased_grid_size(n)
    k = np.arange(1, n + 1)
    u = _synthesize(a, m)
    lam_u = _synthesize(k * a, m)
    usq = (u * np.conj(u)).real
    absfreq = np.abs(np.fft.fftfreq(m, d=1.0 / m))
    lam_usq = np.fft.ifft(absfreq * np.fft.fft(usq)).real
    cross = 2.0 * (np.conj(u) * lam_u).real     # conj(u) Lu + u L conj(u)
    integrand = -4.0 * usq * lam_usq + 2.0 * usq * cross
    energy = integrand.mean()                    # (1/2pi) * integral
    energy -= 4.0 * state.sigma * np.mean(usq**2)
    return float(energy)


def energy_quadrature(state: SpectralState, n_quad: int) -> float:
    """Quadrature energy route: 2-d midpoint rule on the Gagliardo integral
    (``_midpoint_differences`` in z = x - y, a plain x grid)."""
    u, chunks = _midpoint_differences(state, n_quad)
    gagliardo = 0.0
    for d, kern in chunks:
        gagliardo += float((np.abs(d) ** 4).sum(axis=1) @ kern)
    energy = gagliardo / (u.size * n_quad)       # (1/4pi^2)(2pi/mx)(2pi/n_quad) sum
    energy -= 4.0 * state.sigma * np.mean(np.abs(u) ** 4)
    return float(energy)


def momentum(state: SpectralState) -> float:
    """P = 2pi sum |a_k|^2 (the squared L^2 norm of the field)."""
    return float(_TWO_PI * np.sum(np.abs(state.coeffs) ** 2))


def mass(state: SpectralState) -> float:
    """M = 2pi sum |a_k|^2 / k (squared norm of the half-antiderivative)."""
    return float(_TWO_PI * np.sum(np.abs(state.coeffs) ** 2 / state.modes))


def first_mode(state: SpectralState) -> complex:
    return complex(state.coeffs[0])


def _check_sobolev_exponent(s: float) -> float:
    """s itself if :func:`sobolev_norm` accepts it, else ValueError; the CLI
    checks ``--hs`` with it at parse time."""
    if not s >= -1.0:  # nan too
        raise ValueError(f"Sobolev exponent must be >= -1, got {s}")
    return s


def sobolev_norm(state: SpectralState, s: float) -> float:
    """H^s norm (2pi sum k^{2s} |a_k|^2)^{1/2}; diagnostic only.

    Evaluated as K^s (2pi sum ((k/K)^s |a_k|)^2)^{1/2}, K the highest
    nonzero mode, so a representable norm never overflows on the way; a
    norm beyond the float range is inf, without a warning.
    """
    _check_sobolev_exponent(s)
    nonzero = np.flatnonzero(state.coeffs)
    if nonzero.size == 0:
        return 0.0
    top = nonzero[-1] + 1
    scaled = (state.modes[:top] / top) ** s * np.abs(state.coeffs[:top])
    with np.errstate(over="ignore"):
        return float(np.float64(top) ** s * np.sqrt(_TWO_PI * np.sum(scaled**2)))


def pairing_check(state: SpectralState) -> float:
    """Residual of the pairing identity 2pi sum conj(C_p) a_p = (pi/2) E.

    Exact in exact arithmetic; the return value is the absolute defect.
    """
    a = state.coeffs
    full = _c_sigma_direct_raw(a, state.sigma)
    pairing = _TWO_PI * np.sum(np.conj(full[: a.size]) * a)
    energy = _energy_spectral_raw(a, state.sigma)
    return float(abs(pairing - 0.5 * np.pi * energy))


def energy_gradient_check(state: SpectralState, h: float) -> float:
    """Max deviation between the finite-difference energy gradient and 8 C_p.

    For each mode p the central difference is taken along the real and
    imaginary coefficient directions and combined into the Wirtinger
    gradient (d_re + i d_im)/2.  The energy is an exact quartic, so the
    central-difference error is O(h^2) with no higher-order tail.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"h must lie in (0, 1e-3], got {h}")
    a = np.array(state.coeffs)
    sigma = state.sigma
    grad = 8.0 * _c_sigma_direct_raw(a, sigma)[: a.size]
    worst = 0.0
    for p in range(a.size):
        fd = np.empty(2)
        for j, direction in enumerate((1.0, 1.0j)):
            bump = np.zeros_like(a)
            bump[p] = h * direction
            e_plus = _energy_spectral_raw(a + bump, sigma)
            e_minus = _energy_spectral_raw(a - bump, sigma)
            fd[j] = (e_plus - e_minus) / (2.0 * h)
        fd_grad = 0.5 * (fd[0] + 1j * fd[1])
        worst = max(worst, abs(fd_grad - grad[p]))
    return worst


@dataclass(frozen=True)
class InvariantReport:
    """Values of the conserved quantities for one state."""

    energy: float
    momentum: float
    mass: float
    a1: complex
    h_s_norms: dict

    def to_record(self) -> dict:
        rec = {
            "E": self.energy,
            "P": self.momentum,
            "M": self.mass,
            "a1_re": self.a1.real,
            "a1_im": self.a1.imag,
        }
        for s, value in self.h_s_norms.items():
            rec[f"H{s:g}"] = value
        return rec


def invariant_report(state: SpectralState, h_s: tuple = ()) -> InvariantReport:
    """Compute all conserved quantities.

    The energy is the pairing 4 Re <a, Q^N C_sigma a> on the truncated
    kernel (Euler's relation for the quartic E and the gradient identity
    dE/d conj(a_p) = 8 C_p): exact like :func:`energy_spectral` (they agree
    to rounding) at the kernel's cost, O(N^2) up to ``_TOEPLITZ_MAX_N``
    and O(N log N) above, so it is the per-sample diagnostic of every
    trajectory.  A value beyond the float range comes out non-finite,
    without a warning, for ``integrator.sample_record`` to reject.
    """
    a = state.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        return InvariantReport(
            energy=4.0 * np.vdot(a, _c_sigma_trunc_raw(a, state.sigma)).real,
            momentum=momentum(state),
            mass=mass(state),
            a1=first_mode(state),
            h_s_norms={float(s): sobolev_norm(state, s) for s in h_s},
        )
