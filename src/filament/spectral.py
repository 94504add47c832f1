"""Spectral representation of positive-spectrum fields on the 2*pi torus.

A field u(x) = sum_{k=1..N} a_k e^{ikx} is stored as the coefficient
vector (a_1, ..., a_N).  Modes k <= 0 have no slot in the representation,
so the positive-spectrum constraint is structural and the zero mode is
identically absent (which keeps the 1/k-weighted mass finite).

Multiplier conventions used throughout the package:

    d/dx    <->  i*k          derivative
    Lambda  <->  |k|          absolute derivative
    Q^J     <->  1_[0,J](k)   sharp Galerkin cutoff

Pointwise cubic products of bandwidth-N states are formed on grids of
size >= 4*N.  A cubic product of three bandwidth-N factors only reaches
mode 3*N, so with that margin the full product is exactly alias-free and
agrees with the direct convolution up to rounding.  Where only modes 1..N
of the product are kept (the truncated flow), a grid of size >= 2*N - 1
already suffices; see ``filament.nonlinearity``.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralState",
    "dealiased_grid_size",
    "p_norm",
    "seeded_state",
    "state_to_dict",
    "state_from_dict",
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class SpectralState:
    """Coefficients a_1..a_N of a positive-spectrum field, plus the case flag.

    sigma = 0 is the planar interface case, sigma = 1 the spherical one.
    Instances are immutable; the coefficient array is made read-only so
    states can be shared freely between threads.
    """

    sigma: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.sigma not in (0, 1):
            raise ValueError(f"sigma must be 0 or 1, got {self.sigma!r}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    @property
    def modes(self) -> np.ndarray:
        """Wavenumbers 1..N matching ``coeffs``."""
        return np.arange(1, self.n_modes + 1)

    def with_coeffs(self, coeffs) -> "SpectralState":
        return SpectralState(self.sigma, coeffs)


def _synthesize(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Exact synthesis of positive modes 1..N on an M-point grid (M >= N+1)."""
    spectrum = np.zeros(grid_size, dtype=np.complex128)
    spectrum[1 : coeffs.size + 1] = coeffs
    return np.fft.ifft(spectrum) * grid_size


def _analyze(samples: np.ndarray, n_modes: int) -> np.ndarray:
    """Discrete Fourier analysis keeping modes 1..N only: the positive-frequency
    projector composed with the cutoff Q^N, exact when no mode of the sampled
    function aliases onto bins 1..N."""
    spectrum = np.fft.fft(samples) / samples.size
    return spectrum[1 : n_modes + 1].copy()


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: a length that numpy.fft's
    pocketfft transforms in O(M log M) with only small-radix passes."""
    n = max(target, 1)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dealiased_grid_size(n_modes: int) -> int:
    """Grid size for alias-free cubic products: >= 4*N, rounded up to a
    highly composite FFT length (correctness never depends on the rounding)."""
    return _next_fast_len(max(4 * n_modes, 8))


def p_norm(coeffs: np.ndarray) -> float:
    """Norm induced by the momentum quadratic form: sqrt(2*pi*sum|c_k|^2)."""
    return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(coeffs) ** 2)))


def seeded_state(
    sigma: int,
    n_modes: int,
    seed: int,
    decay: float = 1.5,
    amplitude: float = 0.5,
) -> SpectralState:
    """Deterministic pseudo-random state with |a_k| ~ 1/k**decay.

    The default decay keeps the field smooth enough that every quadrature
    oracle in the package converges fast; ``amplitude`` is the l2 norm of
    the coefficient vector after scaling.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    rng = np.random.default_rng(seed)
    k = np.arange(1, n_modes + 1, dtype=float)
    raw = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / k**decay
    return SpectralState(sigma, raw * (amplitude / np.linalg.norm(raw)))


# ---------------------------------------------------------------------------
# Snapshot file format: {"sigma": 0|1, "n_modes": N, "coeffs": [[re, im], ...]}
# with coefficients in increasing mode order.

def state_to_dict(state: SpectralState) -> dict:
    return {
        "sigma": int(state.sigma),
        "n_modes": int(state.n_modes),
        # the [re, im] float pairs in one conversion, signed zeros included
        "coeffs": state.coeffs.view(np.float64).reshape(-1, 2).tolist(),
    }


def state_from_dict(data: dict) -> SpectralState:
    try:
        sigma = data["sigma"]
        n_modes = data["n_modes"]
        pairs = data["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"snapshot record missing field: {exc}") from exc
    if type(sigma) is not int or sigma not in (0, 1):
        raise ValueError(f"snapshot sigma must be 0 or 1, got {sigma!r}")
    if type(n_modes) is not int or n_modes < 1:
        raise ValueError(f"snapshot n_modes must be a positive integer, got {n_modes!r}")
    try:
        values = np.array(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"snapshot coeffs must be a list of [re, im] pairs: {exc}") from exc
    if values.shape != (n_modes, 2):
        raise ValueError(f"snapshot coeffs must be {n_modes} [re, im] pairs, got shape {values.shape}")
    for k, (real, imag) in enumerate(pairs, 1):  # numpy also reads true, "1" and null
        if type(real) not in (int, float) or type(imag) not in (int, float):
            raise ValueError(f"snapshot coeffs of mode {k} must be two numbers [re, im], got {[real, imag]!r}")
    if not np.isfinite(values).all():
        raise ValueError("snapshot coeffs must be finite")
    return SpectralState(sigma, values.view(np.complex128)[:, 0])  # exact, signed zeros too


def write_snapshot(state: SpectralState, path) -> None:
    """Write the snapshot atomically: a reader or a restart sees the old file
    or the new one, never a partial write.  The temporary file is hidden and
    sits in the target directory, so ``os.replace`` stays a rename."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    text = json.dumps(state_to_dict(state)) + "\n"  # one write, not json.dump's many
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_snapshot(path) -> SpectralState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"snapshot {path} is not valid JSON: {exc}") from exc
        except RecursionError:  # nesting deeper than the decoder recurses
            raise ValueError(f"snapshot {path} is nested too deeply to be a snapshot") from None
    return state_from_dict(data)
