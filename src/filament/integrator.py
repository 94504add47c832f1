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
starts from a itself, whose first iterate is the explicit Euler guess.

An RK4 step is its Butcher tableau (Hairer, Norsett and Wanner, *Solving
Ordinary Differential Equations I*, sec. II.1) run in a (5, N) stage array
of the run's ``StepMemory``: a on row 0, and the right-hand side writes each
slope k_j into row j.  Every stage input, a + dt/2 k1, a + dt/2 k2,
a + dt k3, and the update a + dt/6 (k1 + 2 k2 + 2 k3 + k4) is one dot of a
row of dt-scaled weights with the stage rows, so a step makes one row copy
and four weighted sums besides its four right-hand sides, and allocates no
slope.  The memory binds one step function per (N, sigma, scheme, dt) over
the right-hand side and the arrays of its scheme only (the ring, or the
stage array and its weights), rebinds it and drops the slopes when one of
them changes, and counts right-hand-side evaluations and the largest
midpoint iteration count.  The step function is the whole step: it returns
the new coefficients or raises ``StepFailure``, under its caller's
``np.errstate``, and its output passes an exact finiteness test: one dot
of zeros with its floats, as 0 x is 0 for finite x and nan otherwise.
Both simulate loops, ``simulate`` here and the CLI's, bind their memory once
per run and step each sample interval as one block of step-function calls
under one ``np.errstate``, building one state per sample; the public ``step``
binds and enters its errstate on every call, for callers that step alone.

Diagnostics along a trajectory take the energy from the Lambda form on the
truncated kernel's grid, at every N (see
``filament.invariants.invariant_report``); it is the pairing identity
E = 4 Re <a, Q^N C_sigma a> written out and exact (it agrees with the
layer-cake reference to rounding), so measured drift is integration error
and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

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


class StepMemory:
    """The workspace of one run's steps, owned by the caller.

    It holds the step function of the run's (N, sigma, scheme, dt), which
    returns the new coefficients or raises ``StepFailure`` (see ``_bind``),
    with the RK4 stage array and its dt-scaled weights, or the last q
    converged implicit-midpoint slopes (``slopes``, newest first) from which
    each solve starts, and the counts of the work done: ``rhs_evals`` (4 per
    RK4 step, one per midpoint iteration) and ``midpoint_max_iterations``.
    A step of another N, sigma, scheme or dt rebinds it and drops the
    slopes, which describe another problem; the counts stay.  Start a
    fresh memory for each run: the slopes describe the trajectory they
    came from.
    """

    def __init__(self):
        self.rhs_evals = 0
        self.midpoint_max_iterations = 0
        self._problem = None  # (N, sigma, scheme, dt) of the bound workspace
        self._count = 0

    def _bind(self, n, sigma, config):
        """The step function of this problem, ``advance(a, t) -> out`` or StepFailure;
        its caller holds ``np.errstate(over="ignore", invalid="ignore")``.  An
        equal (N, sigma, scheme, dt) gets the bound function back, slopes and all."""
        problem = (n, sigma, config.scheme, config.dt)
        if problem == self._problem:
            return self._step
        self._problem = problem
        self._rhs = f = _kernels(n, sigma).rhs
        self._count = 0  # midpoint slopes held
        self._ring = self._stages = None  # drop the other scheme's arrays
        zero2 = np.zeros(2 * n)  # the finiteness test's zeros, one per float of a step
        h = config.dt
        non_finite = f"{config.scheme} step from t = {{:g}} produced non-finite coefficients"
        if config.scheme == "rk4":
            # rows a, k1..k4; one row of weights per stage input and the update
            self._stages = stages = np.zeros((5, n), dtype=np.complex128)
            weights = np.array([[1.0, h / 2, 0.0, 0.0, 0.0],
                                [1.0, 0.0, h / 2, 0.0, 0.0],
                                [1.0, 0.0, 0.0, h, 0.0],
                                [1.0, h / 6, h / 3, h / 3, h / 6]], dtype=np.complex128)
            # sum j reads rows 0..j+1 only, the rows its step has written, so a
            # row left non-finite by a failed step never meets a zero weight
            (d1, s1), (d2, s2), (d3, s3), (d4, s4) = (
                (weights[j, : j + 2].dot, stages[: j + 2]) for j in range(4))
            k1, k2, k3, k4 = stages[1:]

            def advance(a, t):
                stages[0] = a
                f(a, out=k1)
                f(d1(s1), out=k2)
                f(d2(s2), out=k3)
                f(d3(s3), out=k4)
                out = d4(s4)
                self.rhs_evals += 4
                if math.isfinite(zero2.dot(out.view(np.float64))):
                    return out
                raise StepFailure(t, 0, np.inf, non_finite.format(t))
        else:
            # zeros, not empty: a row not yet written meets a zero weight, and
            # 0 times an uninitialised nan or inf is nan
            self._ring = np.zeros((_PREDICTOR_SLOPES, n), dtype=np.complex128)
            self._head = 0  # row of the newest slope
            self._weights = {}  # (count, head) -> predictor weights on the ring rows

            def advance(a, t):
                out = _midpoint_step(a, h, t, self)
                if math.isfinite(zero2.dot(out.view(np.float64))):
                    return out
                raise StepFailure(t, 0, np.inf, non_finite.format(t))
        self._step = advance
        return advance

    @property
    def slopes(self) -> tuple:
        """Copies of the held midpoint slopes, newest first."""
        if not self._count:
            return ()
        rows = (self._head - np.arange(self._count)) % _PREDICTOR_SLOPES
        return tuple(self._ring[rows].copy())

    def counters(self) -> dict:
        return {"rhs_evals": self.rhs_evals,
                "midpoint_max_iterations": self.midpoint_max_iterations}


def _midpoint_step(a, dt, t, memory):
    f, ring, count, head = memory._rhs, memory._ring, memory._count, memory._head
    if count:
        # the past slopes extrapolated to this step (module docstring): one dot
        # of the weights cached per (count, head) with the ring, one add
        weights = memory._weights.get((count, head))
        if weights is None:
            weights = np.zeros(_PREDICTOR_SLOPES, dtype=np.complex128)
            for j in range(count):
                weights[(head - j) % _PREDICTOR_SLOPES] = dt * (-1) ** j * math.comb(count, j + 1)
            memory._weights[count, head] = weights
        new = weights.dot(ring)
        new += a
    else:
        new = a.copy()
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
            memory._head = head = (head + 1) % _PREDICTOR_SLOPES
            ring[head] = slope
            memory._count = min(count + 1, _PREDICTOR_SLOPES)
            memory.rhs_evals += it
            memory.midpoint_max_iterations = max(memory.midpoint_max_iterations, it)
            return new
        if not math.isfinite(residual):
            break
    raise StepFailure(t, it, residual, (
        f"implicit midpoint did not converge at t = {t:g} ({it} iterations, "
        f"last residual {residual:.3e}): dt = {dt:g} is too large for this state, reduce it"))


def _samples(state, config, memory, seam=None):
    """Yield (i, state after step i) at i = 0, every ``sample_every`` steps and
    at the last step.  ``memory`` binds the run's step function once, and each
    sample interval is one block of its calls, step j from t = j dt, under one
    ``np.errstate``, with one state built at its end.  Given
    ``seam(advance, a, t)``, the block makes each call through it."""
    yield 0, state
    advance = memory._bind(state.n_modes, state.sigma, config)
    call = advance if seam is None else partial(seam, advance)
    n_steps, every, dt = config.n_steps(), config.sample_every, config.dt
    a = state.coeffs
    for i in range(0, n_steps, every):
        end = min(i + every, n_steps)
        # an overflowing step is caught by the step's finiteness test, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(i, end):
                a = call(a, j * dt)
        yield end, SpectralState(state.sigma, a)


def step(state: SpectralState, config: StepperConfig, t: float = 0.0,
         memory: StepMemory | None = None) -> SpectralState:
    """Advance one step of the configured scheme; StepFailure if it fails.

    Pass the run's ``StepMemory`` to start each midpoint solve from the past
    slopes and to count the work; without one the solve starts from the
    state itself, whose first iterate is the explicit Euler guess.
    """
    memory = StepMemory() if memory is None else memory
    advance = memory._bind(state.n_modes, state.sigma, config)
    # an overflowing step is caught by the step's finiteness test, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out = advance(state.coeffs, t)
    return SpectralState(state.sigma, out)


def simulate(state: SpectralState, config: StepperConfig, h_s: tuple = ()) -> Trajectory:
    """Integrate to t_end, sampling diagnostics every ``sample_every`` steps.

    The initial and final states are always included in the samples.  A
    non-finite step or sample ends the run with ``StepFailure``.
    """
    times, states, reports = [], [], []
    for i, current in _samples(state, config, StepMemory()):
        times.append(i * config.dt)
        states.append(current)
        reports.append(invariant_report(current, h_s))
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
