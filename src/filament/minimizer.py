"""Constrained minimization of the energy over truncated states.

The problem is

    minimize E_sigma(u)  over modes 1..N
    subject to M(u) = M*, P(u) = P*,

solved by projected gradient descent in the flat coefficient metric: the
gradient of the energy with respect to conj(a_p) is 8 C_p, and because P
and M are diagonal quadratic forms the metric projection onto the
constraint set takes the closed form b_k = a_k / (1 + alpha + beta/k),
with the two scalars pinned by a 2-d Newton iteration on the constraint
equations.  The step length comes from an Armijo backtracking line search
set by the module constants ``_STEP0`` (first step), ``_MAX_STEP`` (largest
step), ``_ARMIJO`` (sufficient decrease), ``_BACKTRACK`` (shrink factor, at
most ``_MAX_BACKTRACKS`` times) and ``_GROW`` (growth after an accepted
step).  The gradient is cubic in a, so a useful step scales like 1/P:
``_STEP0`` and ``_MAX_STEP`` hold at P = 2 pi and are scaled by 2 pi/P*.  A
first-order point satisfies the stationarity condition

    (4/pi) C_p = lambda a_p / p + mu a_p,

whose real multiplier pair (lambda, mu) is extracted by least squares;
the relative misfit of that fit is the reported stationarity residual.

Feasibility on the truncation requires P*/N <= M* <= P* (the mass/momentum
ratio of a mode-k wave is 1/k).  At the two boundary ratios the constraint
set collapses to a single-mode circle and the rational projection form has
no finite parameters, so those cases are projected directly onto the
corresponding mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralState, p_norm, seeded_state, state_to_dict
from .nonlinearity import _c_sigma_trunc_raw
from .invariants import energy_spectral, momentum, mass

__all__ = [
    "ConstraintTarget",
    "MinimizeOptions",
    "MinimizerResult",
    "ProjectionError",
    "project_to_constraints",
    "multiplier_extraction",
    "minimize_energy",
]

_TWO_PI = 2.0 * np.pi
_BOUNDARY_RTOL = 1e-12

_STEP0 = 0.05  # at P = 2 pi, like _MAX_STEP; _descend scales both by 2 pi/P
_MAX_STEP = 1e3
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_GROW = 1.3
_MAX_BACKTRACKS = 60
_PROJECT_MAX_ITER = 100  # Newton steps of the two-constraint projection


class ProjectionError(RuntimeError):
    """Constraint projection failed to converge."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ConstraintTarget:
    mass_target: float
    momentum_target: float

    def __post_init__(self):
        if not self.mass_target > 0.0:
            raise ValueError("mass_target must be positive")
        if not self.momentum_target > 0.0:
            raise ValueError("momentum_target must be positive")

    def validate_for(self, n_modes: int) -> None:
        """Reject targets outside the reachable band P*/N <= M* <= P*."""
        m_star, p_star = self.mass_target, self.momentum_target
        if m_star > p_star * (1.0 + _BOUNDARY_RTOL):
            raise ValueError(
                f"infeasible target: mass {m_star} exceeds momentum {p_star}"
            )
        if m_star < p_star / n_modes * (1.0 - _BOUNDARY_RTOL):
            raise ValueError(
                f"infeasible target: mass {m_star} below momentum/n_modes = "
                f"{p_star / n_modes} (truncation at {n_modes} modes)"
            )


def _check_targets(sigma: int, n_modes: int, target: ConstraintTarget) -> None:
    """ValueError for targets outside the reachable band, or whose scales
    overflow a float in the descent.

    The momentum is P*, so |a| is at most sqrt(P*), and the stationarity
    misfit cubes it.  The descent also squares the gradient 8C in the
    P-norm.  C is cubic and sees only part of the momentum: at most P*, and
    for E_1 at most 2 (P* - M*), since P - M = 2 pi sum |a_k|^2 (1 - 1/k)
    and E_1 does not see mode 1.  On the seen momentum S its size is at most
    about N S^(3/2), reached with all weight on mode N, where C = N |a|^2 a.
    """
    target.validate_for(n_modes)
    m_star, p_star = target.mass_target, target.momentum_target
    seen = min(p_star, 2.0 * abs(p_star - m_star)) if sigma == 1 else p_star
    grad = 8.0 * n_modes * seen * math.sqrt(seen)  # products, not **, so overflow gives inf
    if not (math.isfinite(_TWO_PI * grad * grad) and math.isfinite(p_star * math.sqrt(p_star))):
        raise ValueError(
            f"mass target {m_star:g} and momentum target {p_star:g} are too large for {n_modes} "
            f"modes: the squared gradient 2 pi (8 N S^1.5)^2 with S = {seen:g}, or the cube "
            f"P^1.5, overflows a float"
        )


def _single_mode_projection(a: np.ndarray, mode: int, p_star: float) -> np.ndarray:
    out = np.zeros_like(a)
    amp = np.sqrt(p_star / _TWO_PI)
    pivot = a[mode - 1]
    phase = pivot / abs(pivot) if abs(pivot) > 0.0 else 1.0
    out[mode - 1] = amp * phase
    return out


def _check_start(a: np.ndarray, target: ConstraintTarget) -> None:
    """ValueError for a start from which the projection cannot reach a validated target.

    The projection reweights a_k, so it keeps the set S of occupied modes,
    and M/P is a weighted mean of 1/k over S.  Away from the boundary ratios,
    which go onto one mode directly, M*/P* must lie strictly between
    1/max S and 1/min S, or equal 1/k when S = {k}; the zero state is the
    empty S.  The CLI checks ``minimize --init`` with it before the header.
    """
    occupied = np.flatnonzero(a) + 1
    if not occupied.size:
        raise ValueError("cannot project the zero state onto a positive-size constraint set")
    m_star, p_star = target.mass_target, target.momentum_target
    if min(abs(m_star - p_star), abs(m_star - p_star / a.size)) <= _BOUNDARY_RTOL * p_star:
        return
    low, high = p_star / occupied[-1], p_star / occupied[0]  # M on S at P = P*
    if low == high:
        if abs(m_star - low) > _BOUNDARY_RTOL * p_star:
            raise ValueError(f"mass target {m_star} is out of reach from a start on mode {occupied[0]} "
                             f"alone: the projection keeps the occupied modes, so it needs mass {low}")
    elif not low * (1.0 + _BOUNDARY_RTOL) < m_star < high * (1.0 - _BOUNDARY_RTOL):
        raise ValueError(f"mass target {m_star} is out of reach from a start on modes {occupied[0]} to "
                         f"{occupied[-1]}: the projection keeps the occupied modes, so it needs "
                         f"{low} < mass < {high}")


def _project_raw(a: np.ndarray, target: ConstraintTarget) -> np.ndarray:
    """``project_to_constraints`` on raw coefficients, for a validated target."""
    n = a.size
    total = float((np.abs(a) ** 2).sum())
    m_star, p_star = target.mass_target, target.momentum_target
    # the projection is scale-equivariant: start from a at P = P*, so that the
    # Newton iterate 1 + alpha stays O(1) instead of cancelling at large scale
    a = a * np.sqrt(p_star / (_TWO_PI * total))

    # boundary ratios force all weight onto a single mode
    if abs(m_star - p_star) <= _BOUNDARY_RTOL * p_star:
        return _single_mode_projection(a, 1, p_star)
    if abs(m_star - p_star / n) <= _BOUNDARY_RTOL * p_star:
        return _single_mode_projection(a, n, p_star)

    k = np.arange(1, n + 1, dtype=float)
    power = np.abs(a) ** 2
    p_goal = p_star / _TWO_PI
    m_goal = m_star / _TWO_PI

    def constraints(alpha, beta):
        denom = 1.0 + alpha + beta / k
        bsq = power / denom**2
        return denom, float(bsq.sum()) - p_goal, float((bsq / k).sum()) - m_goal

    alpha, beta = 0.0, 0.0
    denom, gp, gm = constraints(alpha, beta)
    res = np.hypot(gp / p_goal, gm / m_goal)
    for _ in range(_PROJECT_MAX_ITER):
        if res <= 1e-13:
            break
        bsq = power / denom**2
        # d/dalpha |b_k|^2 = -2|b_k|^2/denom; d/dbeta adds a 1/k factor
        j00 = float((-2.0 * bsq / denom).sum())
        j01 = float((-2.0 * bsq / (denom * k)).sum())  # = j10
        j11 = float((-2.0 * bsq / (denom * k**2)).sum())
        jac = np.array([[j00, j01], [j01, j11]])
        try:
            step = np.linalg.solve(jac, -np.array([gp, gm]))
        except np.linalg.LinAlgError as exc:
            raise ProjectionError(f"singular projection Jacobian: {exc}", res) from exc
        scale = 1.0
        for _ in range(60):
            na, nb = alpha + scale * step[0], beta + scale * step[1]
            ndenom = 1.0 + na + nb / k
            if np.min(ndenom) > 1e-12:
                _, ngp, ngm = constraints(na, nb)
                nres = np.hypot(ngp / p_goal, ngm / m_goal)
                if nres < res:
                    alpha, beta, denom, gp, gm, res = na, nb, ndenom, ngp, ngm, nres
                    break
            scale *= 0.5
        else:
            raise ProjectionError("projection line search stalled", res)
    else:
        raise ProjectionError("projection Newton iteration did not converge", res)
    return a / denom


def project_to_constraints(state: SpectralState, target: ConstraintTarget) -> SpectralState:
    """Nearest point (in the P-metric) on the constraint set.

    Uses the rational reweighting b_k = a_k / (1 + alpha + beta/k) that
    solves the metric-projection stationarity conditions.
    """
    target.validate_for(state.n_modes)
    _check_start(state.coeffs, target)
    return state.with_coeffs(_project_raw(np.array(state.coeffs), target))


def _fit_multipliers(a: np.ndarray, cubic: np.ndarray):
    """Real least-squares fit of (4/pi) C_p = lambda a_p/p + mu a_p.

    Fitted over the occupied modes; returns (lambda, mu, residual vector
    over all modes, relative misfit).  Degenerate systems (single occupied
    mode) get the minimal-norm solution.
    """
    n = a.size
    k = np.arange(1, n + 1, dtype=float)
    lhs = (4.0 / np.pi) * cubic
    occupied = np.abs(a) > 1e-13 * max(float(np.max(np.abs(a))), 1e-300)
    if not occupied.any():
        raise ValueError("multiplier extraction needs a non-zero state")
    basis_m = (a / k)[occupied]
    basis_p = a[occupied]
    design = np.column_stack([
        np.concatenate([basis_m.real, basis_m.imag]),
        np.concatenate([basis_p.real, basis_p.imag]),
    ])
    rhs_vec = np.concatenate([lhs[occupied].real, lhs[occupied].imag])
    sol, *_ = np.linalg.lstsq(design, rhs_vec, rcond=None)
    lam, mu = float(sol[0]), float(sol[1])
    misfit = lhs - lam * a / k - mu * a
    # the equation is cubically homogeneous, so |a|^3 sets its natural scale
    # (at zero-energy minimizers both sides vanish and |lhs| alone is noise)
    scale = max(
        float(np.linalg.norm(lhs)),
        (4.0 / np.pi) * float(np.linalg.norm(a)) ** 3,
        1e-300,
    )
    return lam, mu, misfit, float(np.linalg.norm(misfit)) / scale


def multiplier_extraction(state: SpectralState):
    """Extract the stationarity multipliers (lambda, mu) and the relative misfit."""
    a = state.coeffs
    lam, mu, _, rel = _fit_multipliers(a, _c_sigma_trunc_raw(a, state.sigma))
    return lam, mu, rel


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0
    n_starts: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol >= 0.0):
            raise ValueError("grad_tol must be finite and non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.n_starts < 1:
            raise ValueError("n_starts must be a positive integer")


@dataclass(frozen=True)
class MinimizerResult:
    state: SpectralState
    lam: float
    mu: float
    el_residual: float
    constraint_violation: tuple
    energy: float
    iterations: int
    grad_norm: float
    converged: bool
    seed: int | None = None
    energy_history: tuple = ()  # energies at accepted iterates, non-increasing

    def to_record(self) -> dict:
        return {
            "energy": self.energy,
            "lambda": self.lam,
            "mu": self.mu,
            "el_residual": self.el_residual,
            "constraint_violation": list(self.constraint_violation),
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "converged": self.converged,
            "seed": self.seed,
            "state": state_to_dict(self.state),
        }


def _energy_and_gradient(a: np.ndarray, sigma: int):
    cubic = _c_sigma_trunc_raw(a, sigma)
    energy = 4.0 * float(np.sum(np.conj(cubic) * a).real)  # pairing identity
    return energy, cubic


def _gauge_fix(a: np.ndarray) -> np.ndarray:
    mags = np.abs(a)
    occupied = np.nonzero(mags > 1e-12 * max(float(mags.max()), 1e-300))[0]
    pivot = a[occupied[0]]
    return a * np.exp(-1j * np.angle(pivot))


def _violation(state: SpectralState, target: ConstraintTarget) -> tuple:
    m_val, p_val = mass(state), momentum(state)
    return (abs(m_val - target.mass_target) / target.mass_target,
            abs(p_val - target.momentum_target) / target.momentum_target)


def _descend(a0: np.ndarray, sigma: int, target: ConstraintTarget, opts: MinimizeOptions, seed):
    a = _project_raw(a0, target)
    energy, cubic = _energy_and_gradient(a, sigma)
    history = [energy]
    p_star = target.momentum_target
    step0, max_step = _STEP0 * (_TWO_PI / p_star), _MAX_STEP * (_TWO_PI / p_star)
    step = step0
    stall = 0
    for iterations in range(1, opts.max_iter + 1):
        grad = 8.0 * cubic
        _, _, misfit, _ = _fit_multipliers(a, cubic)
        grad_norm = p_norm(_TWO_PI * misfit)  # |8C - 2pi(lam a/k + mu a)|_P
        if grad_norm <= opts.grad_tol:
            break
        slope = float(np.sum(np.abs(misfit) ** 2))
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = _project_raw(a - step * grad, target)
            except ProjectionError:
                step *= _BACKTRACK
                continue
            e_trial, c_trial = _energy_and_gradient(trial, sigma)
            if e_trial <= energy - _ARMIJO * step * slope:
                a, energy, cubic = trial, e_trial, c_trial
                history.append(energy)
                step = min(step * _GROW, max_step)
                break
            step *= _BACKTRACK
        else:
            # no descent direction left at rounding scale: treat as stationary
            stall += 1
            step = step0
            if stall >= 2:
                break
    lam, mu, _, el_rel = _fit_multipliers(a, cubic)
    a = _gauge_fix(a)
    state = SpectralState(sigma, a)
    return MinimizerResult(
        state=state,
        lam=lam,
        mu=mu,
        el_residual=el_rel,
        constraint_violation=_violation(state, target),
        energy=energy_spectral(state),
        iterations=iterations,
        grad_norm=grad_norm,
        converged=bool(grad_norm <= max(opts.grad_tol, 1e3 * np.finfo(float).eps * (1.0 + abs(energy)))),
        seed=seed,
        energy_history=tuple(history),
    )


def minimize_energy(
    sigma: int,
    n_modes: int,
    target: ConstraintTarget,
    init: SpectralState | None = None,
    opts: MinimizeOptions = MinimizeOptions(),
) -> MinimizerResult:
    """Projected gradient descent for the constrained energy minimum.

    With an explicit ``init`` a single descent is run from it; otherwise
    ``opts.n_starts`` seeded random starts are descended and the lowest
    energy wins.  The returned state is gauge-fixed (lowest occupied mode
    rotated to the positive real axis) so runs are comparable.
    """
    _check_targets(sigma, n_modes, target)
    if init is not None:
        if init.n_modes != n_modes:
            raise ValueError(f"init has {init.n_modes} modes, expected {n_modes}")
        _check_start(init.coeffs, target)
        return _descend(np.array(init.coeffs), sigma, target, opts, seed=None)
    best = None
    for i in range(opts.n_starts):
        seed = opts.seed + i
        start = seeded_state(sigma, n_modes, seed, decay=1.0, amplitude=1.0)
        result = _descend(np.array(start.coeffs), sigma, target, opts, seed=seed)
        if best is None or result.energy < best.energy:
            best = result
    return best
