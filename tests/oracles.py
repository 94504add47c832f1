"""Independent brute-force oracles for the test suite.

The sums over interaction indices are plain Python loops; the midpoint
rule of the singular integrals is summed over its whole (z, x) array.
Nothing here imports the package or shares code with its vectorized or
FFT evaluation paths.
"""

import numpy as np


def cubic_brute_force(coeffs, sigma):
    """Triple sum over all (k, l, m) with p = k+l-m >= 1; modes 1..2N-1."""
    n = len(coeffs)
    out = [0j] * (2 * n - 1)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                p = k + l - m
                if p < 1:
                    continue
                weight = min(k, l, m, p) - sigma
                out[p - 1] += weight * coeffs[k - 1] * coeffs[l - 1] * np.conj(coeffs[m - 1])
    return np.array(out)


def energy_brute_force(coeffs, sigma):
    """Quadruple sum over all (k, l, m, n) with k + l = m + n."""
    n = len(coeffs)
    total = 0j
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                j = k + l - m
                if not 1 <= j <= n:
                    continue
                weight = min(k, l, m, j) - sigma
                total += (
                    weight
                    * coeffs[k - 1]
                    * coeffs[l - 1]
                    * np.conj(coeffs[m - 1])
                    * np.conj(coeffs[j - 1])
                )
    assert abs(total.imag) < 1e-12 * (1.0 + abs(total.real))
    return 4.0 * total.real


def convolution_brute_force(a, b):
    """Linear convolution of two positive-spectrum coefficient vectors:
    modes 2..len(a)+len(b) of the pointwise product, as a dense vector."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return np.array(out)


def triple_product_coeffs(coeffs, n_keep):
    """Modes 1..n_keep of |u|^2 u for a positive-spectrum u (plain loops)."""
    n = len(coeffs)
    out = [0j] * n_keep
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                p = k + l - m
                if 1 <= p <= n_keep:
                    out[p - 1] += coeffs[k - 1] * coeffs[l - 1] * np.conj(coeffs[m - 1])
    return np.array(out)


def _smooth_length(target):
    """Smallest 11-smooth integer >= target."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _grid_fields_numpy_fft(b):
    """u, Lu and |u|^2 of the coefficients b on the smallest 11-smooth grid of
    M >= 2N points, unscaled, through ``np.fft``; with M and the rfft symbol
    |f|/M of L."""
    n = b.size
    m = _smooth_length(max(2 * n, 1))
    spec = np.zeros((2, m), dtype=np.complex128)
    spec[0, 1 : n + 1] = b
    np.multiply(np.arange(1.0, n + 1.0), b, out=spec[1, 1 : n + 1])
    u, lam_u = np.fft.ifft(spec, norm="forward")
    usq = u.real * u.real
    usq += u.imag * u.imag
    return u, lam_u, usq, m, np.arange(m // 2 + 1.0) / m


def grid_kernel_numpy_fft(coeffs, sigma, scale):
    """Modes 1..N of M C_sigma on the grid times ``scale``, in the operations of
    the truncated kernel's grid form with every transform a public ``np.fft``
    call: the body that form reproduces bit for bit."""
    a = np.asarray(coeffs, dtype=np.complex128)
    u, lam_u, usq, m, absf = _grid_fields_numpy_fft(a[sigma:])
    f = np.fft.rfft(usq)
    f *= absf
    lam_usq = np.fft.irfft(f, m, norm="forward")
    lam_u *= usq
    lam_u -= u * lam_usq
    out = np.multiply(np.fft.fft(lam_u)[1 - sigma : a.size + 1 - sigma], scale)
    if sigma:
        out[0] = 0.0
    return out


def toeplitz_kernel_numpy_correlate(coeffs, sigma, rhs):
    """Modes 1..N of C_sigma, or of i p C_sigma when ``rhs``, in the operations
    of the truncated kernel's Toeplitz form with the correlation a public
    ``np.correlate`` call: the body that form reproduces bit for bit."""
    a = np.asarray(coeffs, dtype=np.complex128)
    n = a.size
    p = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)
    index = np.clip(p - k + (n - 1 - sigma), 0, 2 * (n - sigma) - 2)
    weight = (k - np.abs(k - p) - sigma).astype(np.complex128)
    weight[:, :sigma] = 0.0
    if rhs:
        weight = 1j * p * weight
    b = a[sigma:]
    t = np.correlate(b, b, "full")[index]
    t *= weight
    return t.dot(a)


def energy_grid_numpy_fft(coeffs, sigma):
    """The Lambda-form energy on the same grid, in the operations of the
    per-sample energy with its transforms public ``np.fft`` calls."""
    u, lam_u, s, m, absf = _grid_fields_numpy_fft(np.asarray(coeffs, dtype=np.complex128)[sigma:])
    cross = u.real * lam_u.real
    cross += u.imag * lam_u.imag
    f = np.fft.rfft(s)
    power = f.real * f.real
    power += f.imag * f.imag
    power[1 : (m + 1) // 2] *= 2.0
    return 4.0 / m * (s.dot(cross) - absf.dot(power))


def _synthesize(coeffs, size):
    """Samples of sum_{k=1..N} a_k e^{ikx} on a size-point grid, along the last axis."""
    spectrum = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    spectrum[..., 1 : coeffs.shape[-1] + 1] = coeffs
    return np.fft.ifft(spectrum) * size


def _difference_array(coeffs, n_quad):
    """u on the 4N grid (the smallest 11-smooth length >= max(4N, 8)), the
    (z, x) array du[j, x] = u(x) - u(x - z_j) on the midpoint nodes
    z_j = (j + 1/2) 2pi/n_quad, and the kernel w_j = 1/(1 - cos z_j)."""
    a = np.asarray(coeffs, dtype=np.complex128)
    n = a.size
    size = _smooth_length(max(4 * n, 8))
    z = (np.arange(n_quad) + 0.5) * (2.0 * np.pi / n_quad)
    u = _synthesize(a, size)
    shifted = _synthesize(a * np.exp(-1j * np.outer(z, np.arange(1, n + 1))), size)
    return u, u - shifted, 1.0 / (1.0 - np.cos(z))


def cubic_midpoint_rule(coeffs, sigma, n_quad):
    """Modes 1..2N-1 of P+[(1/4pi) int |du|^2 du / (1 - cos z) dz - sigma |u|^2 u]
    by the midpoint rule in z = x - y, summed point by point over (z, x)."""
    u, du, kern = _difference_array(coeffs, n_quad)
    integral = np.einsum("jx,j->x", np.abs(du) ** 2 * du, kern) / (2.0 * n_quad)
    g = integral - sigma * np.abs(u) ** 2 * u
    return (np.fft.fft(g) / g.size)[1 : 2 * len(coeffs)]


def energy_midpoint_rule(coeffs, sigma, n_quad):
    """(1/4pi^2) iint |u(x) - u(y)|^4 / (1 - cos(x - y)) dx dy - (2 sigma/pi) int |u|^4 dx
    by the midpoint rule in z = x - y and the plain x grid, point by point."""
    u, du, kern = _difference_array(coeffs, n_quad)
    gagliardo = float((np.abs(du) ** 4).sum(axis=1) @ kern)
    return float(gagliardo / (u.size * n_quad) - 4.0 * sigma * np.mean(np.abs(u) ** 4))
