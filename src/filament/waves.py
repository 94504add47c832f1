"""Traveling and stationary solutions of the truncated flow.

A traveling wave u(t, x) = F(x - c t) e^{iwt} has a profile satisfying
the integrated equation

    -c F + w Linv F = C_sigma[F],         Linv <-> 1/k on modes k >= 1,

and pairing that equation with the profile gives the scalar identity
-c P(F) + w M(F) = (pi/2) E_sigma(F).  Single modes e^{ikx} solve it with
c = 0, w = k(k - sigma); for sigma = 1 the two-mode family a_1 = A,
a_k = B is exactly preserved by the flow because every cross interaction
carries the weight min(.., 1) - 1 = 0, which leaves the mode-k phase
drifting at k(k-1)|B|^2.

Both families check the runs that start on them: ``_closed_form_checks``
turns such a run's sampled (t, a_1, a_k) into its summary fields, and
``orbit_distance`` measures a state's distance to a single mode's orbit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .spectral import SpectralState, _mode_circle_point, p_norm, seeded_state
from .nonlinearity import c_sigma_fast
from .invariants import energy_spectral, momentum, mass
from .integrator import StepperConfig, simulate, rhs

__all__ = [
    "TravelingWaveSpec",
    "OrbitProbeResult",
    "TwoModePhaseReport",
    "make_psi_k",
    "make_two_mode",
    "wave_residual",
    "StationaryScan",
    "stationary_scan",
    "orbit_distance",
    "orbital_stability_probe",
    "two_mode_phase_report",
    "two_mode_phase_fit",
]

_STATIONARY_TOL = 1e-10  # stationary_scan: largest off-catalogue amplitude


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Profile plus speed c, phase rate w, and the profile-equation residual."""

    profile: SpectralState
    speed: float
    phase_rate: float
    residual: float
    pairing_defect: float


def make_psi_k(k: int, sigma: int, n_modes: int) -> SpectralState:
    """The unit single-mode traveling wave: a_k = 1, all else 0."""
    if not 1 <= k <= n_modes:
        raise ValueError(f"k must lie in 1..{n_modes}, got {k}")
    coeffs = np.zeros(n_modes, dtype=np.complex128)
    coeffs[k - 1] = 1.0
    return SpectralState(sigma, coeffs)


def make_two_mode(amp_1: complex, amp_k: complex, k: int, n_modes: int) -> SpectralState:
    """Two-mode state a_1 = amp_1, a_k = amp_k (exactly preserved when sigma = 1)."""
    if not 2 <= k <= n_modes:
        raise ValueError(f"k must lie in 2..{n_modes}, got {k}")
    coeffs = np.zeros(n_modes, dtype=np.complex128)
    coeffs[0] = amp_1
    coeffs[k - 1] = amp_k
    return SpectralState(1, coeffs)


def wave_residual(profile: SpectralState, speed: float, phase_rate: float) -> TravelingWaveSpec:
    """Residual of -c F + w Linv F = C_sigma[F] in the P-norm.

    Evaluated on the full support (modes 1..2N-1) of the cubic term, so a
    profile only counts as a traveling wave if the tail the truncation
    would discard also vanishes.  Also reports the defect of the scalar
    pairing identity -c P + w M = (pi/2) E_sigma.
    """
    a = profile.coeffs
    n = profile.n_modes
    cubic = c_sigma_fast(profile).coeffs_full
    lhs = np.zeros_like(cubic)
    p = np.arange(1, n + 1, dtype=float)
    lhs[:n] = -speed * a + phase_rate * a / p
    residual = p_norm(lhs - cubic)
    defect = abs(
        -speed * momentum(profile)
        + phase_rate * mass(profile)
        - 0.5 * np.pi * energy_spectral(profile)
    )
    return TravelingWaveSpec(profile, speed, phase_rate, residual, defect)


@dataclass(frozen=True)
class StationaryScan:
    rhs_norm: float
    stationary: bool
    description: str


def stationary_scan(state: SpectralState) -> StationaryScan:
    """Classify a state against the stationary-solution catalogue.

    Returns the plain l2 norm of the coefficient ODE right-hand side and
    whether the state matches a stationary solution: the zero state when
    sigma = 0, any multiple of e^{ix} when sigma = 1.
    """
    rhs_norm = float(np.linalg.norm(rhs(state).coeffs))
    scale = float(np.max(np.abs(state.coeffs), initial=0.0))
    tail = float(np.max(np.abs(state.coeffs[1:]), initial=0.0))
    if state.sigma == 0:
        stationary = scale <= _STATIONARY_TOL
        description = "zero state" if stationary else "not stationary (sigma=0 admits only zero)"
    else:
        stationary = tail <= _STATIONARY_TOL * max(1.0, scale)
        description = (
            "multiple of e^{ix}" if stationary
            else "not stationary (sigma=1 admits only multiples of e^{ix})"
        )
    return StationaryScan(rhs_norm, stationary, description)


def orbit_distance(state: SpectralState, reference: SpectralState) -> float:
    """P-distance from ``state`` to the orbit {e^{i theta} r(. + x0)} of r = r_k e^{ikx}:
    the circle {c e^{ikx} : |c| = |r_k|}, whose nearest point gives the closed form
    sqrt(2 pi (sum_{j != k} |a_j|^2 + (|a_k| - |r_k|)^2)).  ValueError for a
    reference with other than one occupied mode, or on another number of modes."""
    occupied = np.flatnonzero(reference.coeffs)
    if occupied.size != 1 or reference.n_modes != state.n_modes:
        raise ValueError(f"orbit_distance needs a single-mode reference on the state's {state.n_modes} "
                         f"modes, got {occupied.size} occupied of {reference.n_modes}")
    k = occupied[0] + 1
    return p_norm(state.coeffs - _mode_circle_point(state.coeffs, k, abs(reference.coeffs[k - 1])))


@dataclass(frozen=True)
class OrbitProbeResult:
    times: np.ndarray
    distances: np.ndarray
    reports: list
    seed: int

    def records(self) -> list:
        out = []
        for t, d, rep in zip(self.times, self.distances, self.reports):
            out.append({
                "t": float(t),
                "orbit_distance": float(d),
                "E": rep.energy,
                "P": rep.momentum,
                "M": rep.mass,
            })
        return out


def orbital_stability_probe(
    k: int,
    sigma: int,
    eps: float,
    config: StepperConfig,
    n_modes: int = 16,
    seed: int = 0,
) -> OrbitProbeResult:
    """Perturb the single-mode wave and track the distance to its orbit.

    The perturbation is a seeded complex Gaussian over modes 1..N,
    normalized to unit P-norm, scaled by eps.  The returned distance
    series is the empirical stability diagnostic; the seed is recorded so
    runs are reproducible.
    """
    if not 0.0 <= eps <= 0.1:
        raise ValueError(f"eps must lie in [0, 0.1], got {eps}")
    if k not in (1, 2):
        raise ValueError(f"the probe targets k in {{1, 2}}, got {k}")
    base = make_psi_k(k, sigma, n_modes)
    noise = seeded_state(sigma, n_modes, seed, decay=0.0, amplitude=1.0).coeffs
    start = base.with_coeffs(base.coeffs + eps * (noise / p_norm(noise)))
    traj = simulate(start, config)
    dists = np.array([orbit_distance(s, base) for s in traj.states])
    return OrbitProbeResult(traj.times, dists, traj.reports, seed)


@dataclass(frozen=True)
class TwoModePhaseReport:
    """Measured mode-k phase drift of the two-mode family, with the two
    closed-form candidate rates it can be compared against."""

    measured_rate: float
    rate_mode_k_only: float      # k(k-1)|B|^2, what the coefficient ODE yields
    rate_with_cross_terms: float  # k(k-1)(2|A|^2 + |B|^2)
    amp_1_drift: float
    amp_k_drift: float

    def to_record(self) -> dict:
        return asdict(self)


def two_mode_phase_report(
    amp_1: complex,
    amp_k: complex,
    k: int,
    n_modes: int,
    config: StepperConfig,
) -> TwoModePhaseReport:
    """Simulate the sigma = 1 two-mode family and measure d/dt arg a_k.

    Every cross interaction between mode 1 and mode k carries weight
    min(..., 1) - 1 = 0, so the coefficient ODE predicts the drift
    k(k-1)|B|^2.  The rate including the cross terms that cancel,
    k(k-1)(2|A|^2 + |B|^2), is reported alongside for comparison.
    """
    traj = simulate(make_two_mode(amp_1, amp_k, k, n_modes), config)
    return two_mode_phase_fit(
        traj.times,
        [s.coeffs[0] for s in traj.states],
        [s.coeffs[k - 1] for s in traj.states],
        k,
    )


def two_mode_phase_fit(times, series_1, series_k, k: int) -> TwoModePhaseReport:
    """The two-mode report from sampled a_1 and a_k of a run whose first
    sample is its start, a_1 = A, a_k = B: a least-squares slope of the
    unwrapped arg a_k and the largest modulus drifts from |A| and |B|."""
    amp_1, amp_k = complex(series_1[0]), complex(series_k[0])
    series_1 = np.asarray(series_1)
    series_k = np.asarray(series_k)
    phases = np.unwrap(np.angle(series_k))
    slope = float(np.polyfit(times, phases, 1)[0])
    asq, bsq = abs(amp_1) ** 2, abs(amp_k) ** 2
    return TwoModePhaseReport(
        measured_rate=slope,
        rate_mode_k_only=k * (k - 1) * bsq,
        rate_with_cross_terms=k * (k - 1) * (2.0 * asq + bsq),
        amp_1_drift=float(np.max(np.abs(np.abs(series_1) - abs(amp_1)))),
        amp_k_drift=float(np.max(np.abs(np.abs(series_k) - abs(amp_k)))),
    )


def _closed_form_checks(form: str, k: int, sigma: int, t_end: float, tracked) -> dict:
    """The closed-form check of a run started from ``--init`` form ``psi_k``
    or ``two_mode``, from its (t, a_1, a_k) per sample: the final a_k against
    e^{ik(k - sigma)t_end}, or the two-mode phase fit; no fields otherwise."""
    if form == "psi_k":
        a_k = tracked[-1][2]
        expected = np.exp(1j * k * (k - sigma) * t_end)
        return {"phase_deviation": abs(a_k - expected), "modulus_deviation": abs(abs(a_k) - 1.0)}
    if form == "two_mode":
        return {"two_mode": two_mode_phase_fit(*zip(*tracked), k).to_record()}
    return {}
