"""Time integration of the truncated Hamiltonian flow.

The evolution is the coefficient ODE

    da_p/dt = i p [Q^N C_sigma(Q^N u)]_p,      p = 1..N,

i.e. the sharp Galerkin regularization of du/dt = d/dx C_sigma[u].  The
right-hand side needs modes 1..N of C_sigma only, so it is computed by one
Toeplitz mat-vec with i p folded into its cached weight up to
``_TOEPLITZ_MAX_N`` and on a grid of at least 2N - 1 points above (see
``filament.nonlinearity``).  Two steppers are provided: classical explicit
RK4 and the implicit midpoint rule (solved by plain fixed-point iteration;
the right-hand side is cubic and cheap, so Newton is unnecessary at desk
scale).  The midpoint rule
conserves the quadratic invariants P and M to the fixed-point tolerance
per step (not the quartic E, which drifts by O(dt^2)), which makes it the
choice for long-horizon runs that must keep P and M.

Each fixed-point solve starts from the converged slopes of the previous
steps, extrapolated to the new step (Hairer, Lubich and Wanner, *Geometric
Numerical Integration*, sec. VIII.6): with the last n <= q slopes f_0, f_1, ...,
newest first, the start is a + dt * sum_j (-1)^j C(n, j+1) f_j, accurate
to O(dt^(n+1)) at no right-hand-side evaluation.  The slopes live in a
``StepMemory`` that the caller owns, one per run: a zero-initialised (q, N)
ring whose newest row is ``head``, so f_j sits on row (head - j) mod q.
The dt-scaled weights dt (-1)^j C(n, j+1) are cached on those rows per
(n, head), which makes the start one dot of the weights with the ring plus
one add, and keeping a slope one row write.  Without history the solve
starts from the explicit Euler guess a + dt f(a).  The memory binds the
right-hand side of the run's (N, sigma) once, rebinds and drops its slopes
when N, sigma, the scheme or dt changes, and counts right-hand-side
evaluations and the largest midpoint iteration count.

Diagnostics along a trajectory take the energy from the pairing identity
E = 4 Re <a, Q^N C_sigma a> on the same truncated kernel (see
``filament.invariants.invariant_report``); it is exact (it agrees with the
layer-cake reference to rounding), so measured drift is integration error
and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectral import SpectralState, p_norm
from .nonlinearity import _kernels, _rhs_raw
from .invariants import InvariantReport, invariant_report

__all__ = [
    "StepperConfig",
    "Trajectory",
    "StepFailure",
    "StepMemory",
    "rhs",
    "step",
    "sample_record",
    "simulate",
    "time_reversal_check",
    "scaling_check",
]

_SCHEMES = ("rk4", "implicit_midpoint")
_MAX_STEPS = 10**9  # about 17 h at 60 us per step
_PREDICTOR_SLOPES = 6  # q: past midpoint slopes the predictor extrapolates; see CHANGES.md
_MIDPOINT_TOL = 1e-12  # fixed-point residual (2-norm of the update) that ends a midpoint solve
_MIDPOINT_MAX_ITER = 100


class StepFailure(RuntimeError):
    """Raised when a step from time t fails: the implicit midpoint fixed
    point does not converge, or the new coefficients are not finite."""

    def __init__(self, t: float, iterations: int, residual: float, message: str):
        super().__init__(message)
        self.t = t
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    sample_every: int = 1

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
        self.n_steps()

    def n_steps(self) -> int:
        """ValueError unless t_end is a whole number of steps of dt, at most _MAX_STEPS."""
        ratio = self.t_end / self.dt
        if not ratio <= _MAX_STEPS:
            raise ValueError(f"t_end / dt = {ratio:g} steps exceeds the limit of {_MAX_STEPS}")
        steps = int(round(ratio))
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
        """One flat dict per sample: the fields of ``sample_record``."""
        return [sample_record(float(t), rep) for t, rep in zip(self.times, self.reports)]


def sample_record(t: float, report: InvariantReport) -> dict:
    """The fields of one sample; StepFailure names any that are not finite
    (finite coefficients can still overflow the quartic E or an H^s norm)."""
    rec = {"t": t, **report.to_record()}
    overflowed = [key for key, value in rec.items()
                  if isinstance(value, float) and not math.isfinite(value)]
    if overflowed:
        raise StepFailure(t, 0, np.inf, f"{', '.join(overflowed)} overflowed at t = {t:g}")
    return rec


def rhs(state: SpectralState) -> SpectralState:
    """Right-hand side of the coefficient ODE: i*p*[Q^N C_sigma(u)]_p."""
    return state.with_coeffs(_rhs_raw(state.coeffs, state.sigma))


def _rk4_step(a, dt, f):
    k1 = f(a)
    k2 = f(a + 0.5 * dt * k1)
    k3 = f(a + 0.5 * dt * k2)
    k4 = f(a + dt * k3)
    k2 += k3  # k1 + 2 k2 + 2 k3 + k4 in place: 6 array operations, not 7
    k2 *= 2.0
    k2 += k1
    k2 += k4
    return a + (dt / 6.0) * k2


class StepMemory:
    """The workspace of one run's steps, owned by the caller.

    It holds the right-hand side bound to the run's (N, sigma), the last
    q converged implicit-midpoint slopes (``slopes``, newest first) from
    which each solve starts, and the counts of the work done:
    ``rhs_evals`` and ``midpoint_max_iterations``; RK4 steps add only to
    ``rhs_evals``.  A step of another N, sigma, scheme or dt rebinds it and
    drops the slopes, which describe another problem; the counts stay.
    Start a fresh memory for each run: the slopes describe the trajectory
    they came from.
    """

    def __init__(self):
        self.rhs_evals = 0
        self.midpoint_max_iterations = 0
        self._problem = None  # (N, sigma, scheme, dt) of the bound workspace

    def _bind(self, n, sigma, config):
        problem = (n, sigma, config.scheme, config.dt)
        if problem == self._problem:
            return
        self._problem = problem
        self._rhs = _kernels(n, sigma).rhs
        # zeros, not empty: a row not yet written meets a zero weight, and
        # 0 times an uninitialised nan or inf is nan
        self._ring = np.zeros((_PREDICTOR_SLOPES, n), dtype=np.complex128)
        self._count = 0  # slopes held
        self._head = 0  # row of the newest slope
        self._weights = {}  # (count, head) -> predictor weights on the ring rows

    @property
    def slopes(self) -> tuple:
        """Copies of the held midpoint slopes, newest first."""
        if self._problem is None:
            return ()
        rows = (self._head - np.arange(self._count)) % _PREDICTOR_SLOPES
        return tuple(self._ring[rows].copy())

    def _predict(self, a):
        """a + dt sum_j (-1)^j C(n, j+1) f_j over the n held slopes f_j,
        newest first: one dot of the cached weights with the ring, one add."""
        key = (self._count, self._head)
        weights = self._weights.get(key)
        if weights is None:
            dt = self._problem[3]
            weights = np.zeros(_PREDICTOR_SLOPES, dtype=np.complex128)
            for j in range(self._count):
                weights[(self._head - j) % _PREDICTOR_SLOPES] = (
                    dt * (-1) ** j * math.comb(self._count, j + 1))
            self._weights[key] = weights
        new = weights.dot(self._ring)
        new += a
        return new

    def _push(self, slope):
        self._head = (self._head + 1) % _PREDICTOR_SLOPES
        self._ring[self._head] = slope
        self._count = min(self._count + 1, _PREDICTOR_SLOPES)

    def counters(self) -> dict:
        return {"rhs_evals": self.rhs_evals,
                "midpoint_max_iterations": self.midpoint_max_iterations}


def _midpoint_step(a, dt, t, memory):
    f = memory._rhs
    if memory._count:  # the past slopes extrapolated to this step (module docstring)
        new = memory._predict(a)
    else:
        new = dt * f(a)  # explicit Euler predictor
        new += a
        memory.rhs_evals += 1
    residual = math.inf
    for it in range(1, _MIDPOINT_MAX_ITER + 1):
        mid = a + new
        mid *= 0.5
        slope = f(mid)
        target = dt * slope
        target += a
        new -= target  # the update, in place: new is replaced by target below
        residual = math.sqrt(np.vdot(new, new).real)  # 2-norm, cheaper than linalg.norm
        new = target
        if residual <= _MIDPOINT_TOL:
            memory._push(slope)
            memory.rhs_evals += it
            memory.midpoint_max_iterations = max(memory.midpoint_max_iterations, it)
            return new
        if not math.isfinite(residual):
            break
    raise StepFailure(t, it, residual, (
        f"implicit midpoint did not converge at t = {t:g} ({it} iterations, "
        f"last residual {residual:.3e}): dt = {dt:g} is too large for this state, reduce it"))


def _advance(a, sigma, config, t, memory=None):
    memory = StepMemory() if memory is None else memory
    memory._bind(a.size, sigma, config)
    # an overflowing step is caught by the finiteness test, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if config.scheme == "rk4":
            out = _rk4_step(a, config.dt, memory._rhs)
            memory.rhs_evals += 4
        else:
            out = _midpoint_step(a, config.dt, t, memory)
    if not np.isfinite(out).all():
        raise StepFailure(t, 0, np.inf, f"{config.scheme} step from t = {t:g} "
                          "produced non-finite coefficients")
    return out


def step(state: SpectralState, config: StepperConfig, t: float = 0.0,
         memory: StepMemory | None = None) -> SpectralState:
    """Advance one step of the configured scheme; StepFailure if it fails.

    Pass the run's ``StepMemory`` to start each midpoint solve from the past
    slopes and to count the work; without one the solve starts from the
    explicit Euler guess.
    """
    out = _advance(state.coeffs, state.sigma, config, t, memory)
    return SpectralState._adopt(state.sigma, out)  # out is the step's own array


def simulate(state: SpectralState, config: StepperConfig, h_s: tuple = ()) -> Trajectory:
    """Integrate to t_end, sampling diagnostics every ``sample_every`` steps.

    The initial and final states are always included in the samples.  A
    non-finite step or sample ends the run with ``StepFailure``.
    """
    n_steps = config.n_steps()
    a = np.array(state.coeffs)
    memory = StepMemory()

    times = [0.0]
    states = [state]
    reports = [invariant_report(state, h_s)]
    sample_record(0.0, reports[0])
    for i in range(1, n_steps + 1):
        a = _advance(a, state.sigma, config, (i - 1) * config.dt, memory)
        if i % config.sample_every == 0 or i == n_steps:
            snap = state.with_coeffs(a)
            times.append(i * config.dt)
            states.append(snap)
            reports.append(invariant_report(snap, h_s))
            sample_record(times[-1], reports[-1])
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
    scaled_cfg = replace(config, t_end=config.t_end / lam**2)
    scaled = simulate(state.with_coeffs(lam * state.coeffs), scaled_cfg).final_state
    target = lam * ref.coeffs
    denom = max(p_norm(target), 1e-300)
    return p_norm(scaled.coeffs - target) / denom
