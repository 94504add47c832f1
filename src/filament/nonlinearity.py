"""The cubic interaction operator of the filamentation equation.

For u = sum_{k>=1} a_k e^{ikx} the operator is the weighted triple
convolution

    C_sigma[u] = sum_{p = k+l-m, k,l,m,p >= 1} (min(k,l,m,p) - sigma)
                 a_k a_l conj(a_m) e^{ipx},

equivalently (unsymmetrized weight) k - |k-p| - sigma, and in physical
space

    C_sigma[u] = P+[ |u|^2 Lu - u L|u|^2 - sigma |u|^2 u ],       L = |d/dx|,

with P+ the positive-frequency projector.  The singular-integral form

    C_sigma[u](x) = P+[ (1/4pi) int |du|^2 du / (1 - cos(x-y)) dy
                        - sigma |u(x)|^2 u(x) ],   du = u(x) - u(y),

is also provided, discretized by a midpoint rule in z = x - y, summed as a
Fourier symbol of the kernel: ``_midpoint_rule``, which the quadrature energy
of ``filament.invariants`` shares.  The four routes agree to rounding for
band-limited states; the direct triple sum is the reference.

For bandwidth-N input the output is supported on modes 1..2N-1 exactly;
``coeffs_full`` carries that whole support and ``coeffs_truncated`` its
first N entries (the sharp-cutoff Galerkin nonlinearity).

One private kernel, ``_kernels(N, sigma)``, computes modes 1..N of the
operator for bandwidth-N input, and the right-hand side i p of them of the
truncated flow, each as a function of the coefficients with its form and
constants bound once per (N, sigma), in one of two forms by N:

- N <= ``_TOEPLITZ_MAX_N``: the unsymmetrized triple sum as one Toeplitz
  mat-vec, C_p = sum_k W[p, k] c_{p-k} a_k with c = |u|^2 on modes
  1-N..N-1 and the weight W = k - |k-p| - sigma (``_toeplitz_raw``; the
  right-hand side folds i p into a second weight);
- above: the one FFT-grid body on M >= 2N - 1 points, where modes 1..N of
  the cubic product are alias-free (``_grid_raw``).  Its transforms do not
  scale; the 1/M factors are folded into the symbol of L and into the
  output scale, 1/M or i p/M.

``_c_sigma_trunc_raw`` and ``_rhs_raw`` look the pair up per call; a run
binds the right-hand side once (``integrator.StepMemory``).  The flow and
the minimizer call the kernel on the state; ``c_sigma_fast`` calls it on
the state zero-padded to 2N - 1 modes, whose modes 1..2N-1 are the whole
support.  Both forms reduce sigma = 1 to sigma = 0 on a_2..a_N by the same
index shift.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralState, dealiased_grid_size, _analyze, _next_fast_len, _synthesize

__all__ = [
    "NonlinearityResult",
    "c_sigma_direct",
    "c_sigma_unsym",
    "c_sigma_fast",
    "c_sigma_quadrature",
    "kernel_integral",
]


@dataclass(frozen=True)
class NonlinearityResult:
    """Coefficients of C_sigma[u] on modes 1..2N-1 for bandwidth-N input."""

    sigma: int
    n_modes: int
    coeffs_full: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs_full, dtype=np.complex128).copy()
        if c.size != 2 * self.n_modes - 1:
            raise ValueError(
                f"coeffs_full must have 2N-1 = {2 * self.n_modes - 1} entries, got {c.size}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coeffs_full", c)

    @property
    def coeffs_truncated(self) -> np.ndarray:
        """Modes 1..N, i.e. the cutoff Q^N applied to the full output."""
        return self.coeffs_full[: self.n_modes]


def _accumulate(out: np.ndarray, p_index: np.ndarray, values: np.ndarray) -> None:
    # complex bincount: numpy's bincount is real-only
    out.real += np.bincount(p_index, values.real, minlength=out.size)
    out.imag += np.bincount(p_index, values.imag, minlength=out.size)


def _min_weight(k, l, m, p):
    return np.minimum(np.minimum(k, l), np.minimum(m, p))


def _unsym_weight(k, l, m, p):
    return k - np.abs(k - p)


def _c_sigma_direct_raw(a: np.ndarray, sigma: int, weight=_min_weight) -> np.ndarray:
    """Exact triple sum over p = k + l - m with ``weight(k, l, m, p) - sigma``."""
    n = a.size
    out = np.zeros(2 * n - 1, dtype=np.complex128)
    ks = np.arange(1, n + 1)
    lgrid, mgrid = np.meshgrid(ks, ks, indexing="ij")
    pair = a[lgrid - 1] * np.conj(a[mgrid - 1])
    for k in ks:
        p = k + lgrid - mgrid
        valid = p >= 1
        w = weight(k, lgrid, mgrid, p) - sigma
        vals = (a[k - 1] * pair[valid]) * w[valid]
        _accumulate(out, p[valid] - 1, vals)
    return out


# Crossover from the Toeplitz mat-vec to the 2N grid.  Interleaved in-process
# timings of the right-hand side, 40 rounds of 20 calls of each form (numpy 2.4
# with OpenBLAS, 2 vCPUs), put the median Toeplitz/grid time ratio at
# 0.79-0.92 at N = 112, 0.89-1.00 at N = 120 and 1.01-1.16 at N = 128 for
# sigma = 1 and 0: the mat-vec is O(N^2) against the grid's O(N log N).
_TOEPLITZ_MAX_N = 120


def _on_toeplitz(n: int, sigma: int) -> bool:
    """Whether the truncated kernel takes the Toeplitz form at N = n.  At
    N = 1, sigma = 1 the mat-vec has nothing to correlate; the grid form's
    sigma = 1 shift, on no modes and a one-point grid, gives the output 0
    there."""
    return sigma < n <= _TOEPLITZ_MAX_N


_Toeplitz = namedtuple("_Toeplitz", "index weight rhs_weight")


def _toeplitz_constants(n: int, sigma: int) -> _Toeplitz:
    """Per-(N, sigma) constants of the Toeplitz mat-vec, read-only: the
    index of c_{p-k} in ``np.correlate``'s output, the weight W and i p W,
    W[p, k] = k - |k-p| - sigma.  At sigma = 1 c comes from a_2..a_N and
    column k = 1 is 0; row p = 1 is 0 by the formula.  Both weights are
    complex128, so the in-place product never casts."""
    p = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)
    # p - k + N - 1 indexes c_{p-k} on s = 1-N..N-1; a_2..a_N shift it by one,
    # and the entries of the zero column and row are clipped into range
    index = np.clip(p - k + (n - 1 - sigma), 0, 2 * (n - sigma) - 2)
    weight = (k - np.abs(k - p) - sigma).astype(np.complex128)
    weight[:, :sigma] = 0.0
    consts = _Toeplitz(index, weight, 1j * p * weight)
    for arr in consts:
        arr.flags.writeable = False
    return consts


def _toeplitz_raw(a: np.ndarray, sigma: int, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Modes 1..N of C_sigma with the weight W, or of i p C_sigma with i p W,
    of ``_toeplitz_constants``, for the sizes of ``_on_toeplitz``.

    One Toeplitz mat-vec: c_s = sum_{l-m=s} a_l conj(a_m) is |u|^2, and
    C_p = sum_k W[p, k] c_{p-k} a_k is the unsymmetrized triple sum.  At
    sigma = 1 every term with an index 1 is dropped (its symmetrized weight
    min(k,l,m,p) - 1 is 0), so a_1 never enters and the output on mode 1 is
    exactly 0; keeping those terms would cancel them in rounding, which
    loses digits when a_1 dominates.
    """
    b = a[sigma:]
    t = np.correlate(b, b, "full")[index]
    t *= weight
    return t.dot(a)


_TruncConstants = namedtuple("_TruncConstants", "k absf m")


@functools.lru_cache(maxsize=64)
def _trunc_constants(n: int) -> _TruncConstants:
    """Per-bandwidth constants of the grid form, read-only: k = 1..N, the
    rfft symbol |f| of L with the inverse transform's 1/M folded in, and the
    grid size M.  M is the smallest 11-smooth length >= 2N (for numpy.fft),
    so M >= 2N-1 and modes 1..N of the cubic product are alias-free."""
    m = _next_fast_len(2 * n)
    consts = _TruncConstants(np.arange(1.0, n + 1.0), np.arange(m // 2 + 1.0) / m, m)
    for arr in (consts.k, consts.absf):
        arr.flags.writeable = False
    return consts


def _grid_fields(b: np.ndarray, consts: _TruncConstants):
    """u, Lu and |u|^2 of the bandwidth-n coefficients b on the grid of
    ``_trunc_constants(n)``: one batched inverse transform, unscaled."""
    n = b.size
    spec = np.zeros((2, consts.m), dtype=np.complex128)
    spec[0, 1 : n + 1] = b
    np.multiply(consts.k, b, out=spec[1, 1 : n + 1])
    u, lam_u = np.fft.ifft(spec, norm="forward")
    usq = u.real * u.real
    usq += u.imag * u.imag
    return u, lam_u, usq


def _grid_raw(a: np.ndarray, sigma: int, consts: _TruncConstants, scale) -> np.ndarray:
    """Modes 1..N of M C_sigma on the grid, times ``scale``: 1/M gives
    C_sigma, i p/M the right-hand side.

    The sigma = 0 operator |u|^2 Lu - u L|u|^2 acts on b = a[sigma:], n
    modes: its product spans modes 2-n..2n-1, so on M >= 2n - 1 points modes
    1..n are alias-free, and at sigma = 1 its mode p is mode p + 1 of the
    output (see ``_kernels``).  No transform scales: the 1/M factors sit in
    ``consts.absf`` and ``scale``, exactly so at power-of-two M.
    """
    u, lam_u, usq = _grid_fields(a[sigma:], consts)
    # in-place products: each saved temporary is worth ~1 us at M ~ 512, about
    # what numpy.fft's complex transforms cost over scipy.fft's there
    f = np.fft.rfft(usq)
    f *= consts.absf
    lam_usq = np.fft.irfft(f, consts.m, norm="forward")
    lam_u *= usq
    lam_u -= u * lam_usq
    out = np.fft.fft(lam_u)[1 - sigma : a.size + 1 - sigma]
    out *= scale
    if sigma:
        out[0] = 0.0
    return out


_Kernels = namedtuple("_Kernels", "c_sigma rhs")


# an entry holds 40 N^2 bytes (int64 index, two complex128 weights) on the
# Toeplitz sizes: at most 24 x 40 x 120^2 = 13.8 MB at _TOEPLITZ_MAX_N
@functools.lru_cache(maxsize=24)
def _kernels(n: int, sigma: int) -> _Kernels:
    """Q^N C_sigma and the right-hand side i p [Q^N C_sigma]_p of the
    truncated flow at bandwidth N = n, each a function of the coefficients
    with its form and constants bound: the Toeplitz mat-vec on the sizes of
    ``_on_toeplitz``, else the grid.

    min(k,l,m,p) - 1 = min(k-1, l-1, m-1, p-1) on the interaction set, and
    any shifted index hitting 0 kills the weight, so the sigma = 1 operator
    is the sigma = 0 one acting on (a_2, ..., a_N) shifted up one mode.
    Both forms take that shift: it avoids subtracting the nearly-cancelling
    |u|^2 u term and makes the vanishing of the mode-1 output exact.
    """
    if _on_toeplitz(n, sigma):
        index, weight, rhs_weight = _toeplitz_constants(n, sigma)
        return _Kernels(lambda a: _toeplitz_raw(a, sigma, index, weight),
                        lambda a: _toeplitz_raw(a, sigma, index, rhs_weight))
    consts = _trunc_constants(n - sigma)
    inv_m = 1.0 / consts.m
    ip_m = 1j * (np.arange(1.0, n + 1.0) * inv_m)
    ip_m.flags.writeable = False
    return _Kernels(lambda a: _grid_raw(a, sigma, consts, inv_m),
                    lambda a: _grid_raw(a, sigma, consts, ip_m))


def _c_sigma_trunc_raw(a: np.ndarray, sigma: int) -> np.ndarray:
    """Q^N C_sigma: modes 1..N of the operator, for bandwidth-N input."""
    return _kernels(a.size, sigma).c_sigma(a)


def _rhs_raw(a: np.ndarray, sigma: int) -> np.ndarray:
    """i p [Q^N C_sigma]_p, the right-hand side of the truncated flow: the
    Toeplitz mat-vec with i p folded into its weight, or the grid with i p
    folded into its output scale.  A run binds ``_kernels(N, sigma).rhs``
    once instead, the same function."""
    return _kernels(a.size, sigma).rhs(a)


def c_sigma_direct(state: SpectralState) -> NonlinearityResult:
    """Reference route: exact triple sum with the min(k,l,m,p) - sigma weight.

    Cost O(N^3); every other route is validated against this one.
    """
    return NonlinearityResult(
        state.sigma, state.n_modes, _c_sigma_direct_raw(state.coeffs, state.sigma)
    )


def c_sigma_unsym(state: SpectralState) -> NonlinearityResult:
    """Triple sum with the unsymmetrized weight k - |k-p| - sigma.

    Agrees with :func:`c_sigma_direct` exactly, since symmetrizing over
    (k, l) turns that weight into min(k,l,m,p) - sigma.
    """
    return NonlinearityResult(
        state.sigma, state.n_modes, _c_sigma_direct_raw(state.coeffs, state.sigma, _unsym_weight)
    )


def c_sigma_fast(state: SpectralState) -> NonlinearityResult:
    """Kernel route: ``_c_sigma_trunc_raw`` on the state zero-padded to
    2N - 1 modes, whose truncation is the whole support of C_sigma.

    Cost O(N^2) up to ``_TOEPLITZ_MAX_N`` modes of the padded state and
    O(N log N) above; exact up to rounding, and exactly 0 on mode 1 at
    sigma = 1.
    """
    n = state.n_modes
    padded = np.zeros(2 * n - 1, dtype=np.complex128)
    padded[:n] = state.coeffs
    return NonlinearityResult(state.sigma, n, _c_sigma_trunc_raw(padded, state.sigma))


def _kernel_sums(ms, n_quad: int) -> np.ndarray:
    """d_m = sum_j (1 - cos m z_j)/(1 - cos z_j) on the midpoint nodes
    z_j = (j + 1/2) 2pi/n_quad, off the removable singularity at z = 0, one m
    at a time.  Exact: d_m = n_quad |m| for |m| <= n_quad, so d_0 = 0."""
    z = (np.arange(n_quad) + 0.5) * (2.0 * np.pi / n_quad)
    denom = 1.0 - np.cos(z)
    return np.array([((1.0 - np.cos(m * z)) / denom).sum() for m in ms])


@functools.lru_cache(maxsize=32)
def _kernel_symbol(n_quad: int, m: int) -> np.ndarray:
    """d_|f| for each bin f of an m-point grid (d is even, so Nyquist takes either sign); read-only."""
    f = np.arange(m)
    d = _kernel_sums(range(m // 2 + 1), n_quad)[np.minimum(f, m - f)]
    d.flags.writeable = False
    return d


def _check_n_quad(n_modes: int, n_quad: int) -> None:
    """ValueError unless n_quad >= 8 n_modes; the CLI checks ``--n-quad`` with it."""
    if n_quad < 8 * n_modes:
        raise ValueError(f"n_quad must be at least 8*n_modes = {8 * n_modes}, got {n_quad}")


def _midpoint_rule(state: SpectralState, n_quad: int):
    """The one discretization of the singular integrals: u on the 4N grid and
    D[q] = sum_j w_j (q(x - z_j) - q(x)), w_j = 1/(1 - cos z_j), which is
    -ifft(d fft(q)) for q that fit the grid; d_0 = 0, so sum_j w_j never forms."""
    _check_n_quad(state.n_modes, n_quad)
    u = _synthesize(state.coeffs, dealiased_grid_size(state.n_modes))
    return u, lambda q: np.fft.ifft(-_kernel_symbol(n_quad, u.size) * np.fft.fft(q))


def c_sigma_quadrature(state: SpectralState, n_quad: int) -> NonlinearityResult:
    """Midpoint rule on the singular-integral form: with s = |u|^2 and D of
    :func:`_midpoint_rule`, sum_j w_j |du_j|^2 du_j = 2u D[s] + conj(u) D[u^2]
    - u^2 conj(D[u]) - 2s D[u] - D[su], du_j = u(x) - u(x - z_j)."""
    u, diff = _midpoint_rule(state, n_quad)
    s = (u * np.conj(u)).real
    ds, du, du2, dsu = diff(np.stack([s, u, u * u, s * u]))
    acc = 2.0 * u * ds.real + np.conj(u) * du2 - u * u * np.conj(du) - 2.0 * s * du - dsu
    g = acc / (2.0 * n_quad) - state.sigma * s * u  # (1/4pi) * (2pi/n_quad) * sum_j
    return NonlinearityResult(state.sigma, state.n_modes, _analyze(g, 2 * state.n_modes - 1))


def kernel_integral(m: int, n_quad: int) -> float:
    """Midpoint-rule value d_m 2pi/n_quad of int_0^{2pi} (1 - cos(m z)) / (1 - cos z) dz,
    exactly 2*pi*|m|: a check of the kernel sums the quadrature routes take as symbol."""
    if n_quad < 64:
        raise ValueError(f"n_quad must be at least 64, got {n_quad}")
    return float(_kernel_sums([m], n_quad)[0] * 2.0 * np.pi / n_quad)
