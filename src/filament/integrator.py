"""Time integration of the truncated Hamiltonian flow.

The evolution is the coefficient ODE

    da_p/dt = i p [Q^N C_sigma(Q^N u)]_p,      p = 1..N,

i.e. the sharp Galerkin regularization of du/dt = d/dx C_sigma[u].  The
right-hand side needs modes 1..N of C_sigma only, so it is computed by exact
convolution at small N and on a grid of at least 2N - 1 points above (see
``filament.nonlinearity``), not on the 4N grid of the full support.  Two
steppers are provided: classical explicit RK4 and the implicit midpoint
rule (solved by plain fixed-point iteration; the right-hand side is cubic
and cheap, so Newton is unnecessary at desk scale).  The midpoint rule
conserves the quadratic invariants P and M to the fixed-point tolerance
per step, which makes it the choice for long-horizon conservation runs.

Diagnostics along a trajectory take the energy from the pairing identity
E = 4 Re <a, Q^N C_sigma a> on the same truncated kernel; it is exact (it
agrees with the layer-cake reference to rounding), so measured drift is
integration error and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralState, p_norm
from .nonlinearity import _c_sigma_trunc_raw, _trunc_constants
from .invariants import invariant_report

__all__ = [
    "StepperConfig",
    "Trajectory",
    "StepFailure",
    "rhs",
    "step",
    "simulate",
    "time_reversal_check",
    "scaling_check",
]

_SCHEMES = ("rk4", "implicit_midpoint")


class StepFailure(RuntimeError):
    """Raised when a step from time t fails: the implicit midpoint fixed
    point does not converge, or the new coefficients are not finite."""

    def __init__(self, t: float, iterations: int, residual: float, message: str = ""):
        super().__init__(message or (
            f"implicit midpoint did not converge at t = {t:g} "
            f"({iterations} iterations, last residual {residual:.3e})"
        ))
        self.t = t
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    sample_every: int = 1
    midpoint_tol: float = 1e-12
    midpoint_max_iter: int = 100

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if self.dt > self.t_end * (1.0 + 1e-12):
            raise ValueError("dt must not exceed t_end")
        if self.sample_every < 1:
            raise ValueError("sample_every must be a positive integer")
        if self.midpoint_tol < 1e-15:
            raise ValueError("midpoint_tol must be at least 1e-15")
        if self.midpoint_max_iter < 1:
            raise ValueError("midpoint_max_iter must be a positive integer")

    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer number of steps of dt = {self.dt}"
            )
        return steps


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along a run, with per-sample invariant diagnostics."""

    times: np.ndarray
    states: list
    reports: list

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if not (len(t) == len(self.states) == len(self.reports)):
            raise ValueError("times, states and reports must have equal lengths")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        sigmas = {s.sigma for s in self.states}
        widths = {s.n_modes for s in self.states}
        if len(sigmas) > 1 or len(widths) > 1:
            raise ValueError("all states in a trajectory must share sigma and n_modes")
        object.__setattr__(self, "times", t)

    @property
    def final_state(self) -> SpectralState:
        return self.states[-1]

    def records(self) -> list:
        """One flat dict per sample: time plus the invariant report fields."""
        out = []
        for t, rep in zip(self.times, self.reports):
            rec = {"t": float(t)}
            rec.update(rep.to_record())
            out.append(rec)
        return out


def _rhs_raw(a: np.ndarray, sigma: int) -> np.ndarray:
    return _trunc_constants(a.size).ik * _c_sigma_trunc_raw(a, sigma)


def rhs(state: SpectralState) -> SpectralState:
    """Right-hand side of the coefficient ODE: i*p*[Q^N C_sigma(u)]_p."""
    return state.with_coeffs(_rhs_raw(state.coeffs, state.sigma))


def _rk4_step(a, dt, sigma):
    k1 = _rhs_raw(a, sigma)
    k2 = _rhs_raw(a + 0.5 * dt * k1, sigma)
    k3 = _rhs_raw(a + 0.5 * dt * k2, sigma)
    k4 = _rhs_raw(a + dt * k3, sigma)
    return a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(a, dt, sigma, tol, max_iter, t):
    new = a + dt * _rhs_raw(a, sigma)  # explicit Euler predictor
    residual = np.inf
    for it in range(1, max_iter + 1):
        target = a + dt * _rhs_raw(0.5 * (a + new), sigma)
        residual = float(np.linalg.norm(target - new))
        new = target
        if residual <= tol:
            return new
        if not np.isfinite(residual):
            raise StepFailure(t, it, residual)
    raise StepFailure(t, max_iter, residual)


def _advance(a, sigma, config, t):
    # an overflowing step is caught by the finiteness test, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if config.scheme == "rk4":
            out = _rk4_step(a, config.dt, sigma)
        else:
            out = _midpoint_step(
                a, config.dt, sigma,
                config.midpoint_tol, config.midpoint_max_iter, t,
            )
    if not np.isfinite(out).all():
        raise StepFailure(t, 0, np.inf, f"{config.scheme} step from t = {t:g} "
                          "produced non-finite coefficients")
    return out


def step(state: SpectralState, config: StepperConfig, t: float = 0.0) -> SpectralState:
    """Advance one step of the configured scheme; StepFailure if it fails."""
    return state.with_coeffs(_advance(state.coeffs, state.sigma, config, t))


def simulate(state: SpectralState, config: StepperConfig, h_s: tuple = ()) -> Trajectory:
    """Integrate to t_end, sampling diagnostics every ``sample_every`` steps.

    The initial and final states are always included in the samples.
    """
    n_steps = config.n_steps()
    a = np.array(state.coeffs)

    times = [0.0]
    states = [state]
    reports = [invariant_report(state, h_s)]
    for i in range(1, n_steps + 1):
        a = _advance(a, state.sigma, config, (i - 1) * config.dt)
        if i % config.sample_every == 0 or i == n_steps:
            snap = state.with_coeffs(a)
            times.append(i * config.dt)
            states.append(snap)
            reports.append(invariant_report(snap, h_s))
    return Trajectory(np.array(times), states, reports)


def time_reversal_check(state: SpectralState, config: StepperConfig) -> float:
    """Round-trip defect of the reversal symmetry b_p(t) = conj(a_p(-t)).

    Integrate to t_end, conjugate, integrate t_end again, conjugate, and
    return the relative P-distance to the initial state.  The conjugated
    coefficient path solves the same ODE (the interaction weights are
    real), so the defect is pure discretization error: O(dt^4) for rk4.
    """
    forward = simulate(state, config).final_state
    back = simulate(forward.with_coeffs(np.conj(forward.coeffs)), config).final_state
    recovered = np.conj(back.coeffs)
    denom = max(p_norm(state.coeffs), 1e-300)
    return p_norm(recovered - state.coeffs) / denom


def scaling_check(state: SpectralState, lam: float, config: StepperConfig) -> float:
    """Defect of the scaling symmetry u(t, x) -> lam * u(lam^2 t, x).

    Runs lam*u0 to time t_end/lam^2 and u0 to t_end, both at the same dt,
    and returns the relative P-distance between the first result and lam
    times the second.  The exact flows coincide, so the defect is the
    difference of the two discretization errors (O(dt^4) for rk4).
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    ref = simulate(state, config).final_state
    scaled_cfg = StepperConfig(
        scheme=config.scheme,
        dt=config.dt,
        t_end=config.t_end / lam**2,
        sample_every=config.sample_every,
        midpoint_tol=config.midpoint_tol,
        midpoint_max_iter=config.midpoint_max_iter,
    )
    scaled = simulate(state.with_coeffs(lam * state.coeffs), scaled_cfg).final_state
    target = lam * ref.coeffs
    denom = max(p_norm(target), 1e-300)
    return p_norm(scaled.coeffs - target) / denom
