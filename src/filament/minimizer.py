"""Constrained minimization of the energy over truncated states.

The problem is

    minimize E_sigma(u)  over modes 1..N
    subject to M(u) = M*, P(u) = P*,

solved by projected gradient descent in the flat coefficient metric: the
gradient of the energy with respect to conj(a_p) is 8 C_p, and because P
and M are diagonal quadratic forms the metric projection onto the
constraint set takes the closed form b_k = a_k / (1 + alpha + beta/k),
with the two scalars pinned by a 2-d Newton iteration on the constraint
equations over the occupied modes of a, since b_k is 0 off them.  The step
length comes from an Armijo backtracking line search set by the module
constants ``_STEP0`` (first step), ``_MAX_STEP`` (largest step),
``_ARMIJO`` (sufficient decrease), ``_BACKTRACK`` (shrink factor, at most
``_MAX_BACKTRACKS`` times) and ``_GROW`` (growth after an accepted step).
The gradient is cubic in a, so a useful step scales like 1/P and the
gradient's size like P^1.5: ``_STEP0``, ``_MAX_STEP`` and the stationarity
tolerance ``_GRAD_RTOL`` hold at P = 2 pi, and the descent scales the steps
by 2 pi/P* and the tolerance by (P*/2 pi)^1.5, so that a run at any P* is
the run at P = 2 pi rescaled.  A first-order point satisfies the
stationarity condition

    (4/pi) C_p = lambda a_p / p + mu a_p,

whose real multiplier pair (lambda, mu) is extracted by least squares;
the relative misfit of that fit is the reported stationarity residual.

``_reach`` decides what the projection reaches from a start.  Feasibility
on the truncation requires P*/N <= M* <= P* (the mass/momentum ratio of a
mode-k wave is 1/k).  At the two boundary ratios, and from an a on one
mode, the reachable set is a single-mode circle 2 pi |a_k|^2 = P*, and the
projection is its nearest point, ``spectral._mode_circle_point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralState, _mode_circle_point, p_norm, seeded_state, state_to_dict
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

_STEP0 = 0.05  # at P = 2 pi, like _MAX_STEP and _GRAD_RTOL; _descend scales them to P*
_MAX_STEP = 1e3
_GRAD_RTOL = 1e-8  # stationarity: the gradient's P-norm, which scales like P^1.5
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
        for name in ("mass_target", "momentum_target"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def _check_targets(sigma: int, n_modes: int, target: ConstraintTarget) -> None:
    """ValueError for targets out of reach of modes 1..N, whose scales overflow
    a float in the descent, or whose stationarity tolerance is below the
    smallest normal float.

    The momentum is P*, so |a| is at most sqrt(P*), and the stationarity
    misfit cubes it.  The descent also squares the gradient 8C in the
    P-norm.  C is cubic and sees only part of the momentum: at most P*, and
    for E_1 at most 2 (P* - M*), since P - M = 2 pi sum |a_k|^2 (1 - 1/k)
    and E_1 does not see mode 1.  On the seen momentum S its size is at most
    about N S^(3/2), reached with all weight on mode N, where C = N |a|^2 a.
    The descent stops at a gradient of _GRAD_RTOL (P*/2 pi)^1.5, which it
    squares in the same norm.
    """
    _reach(np.ones(n_modes), target)
    m_star, p_star = target.mass_target, target.momentum_target
    seen = min(p_star, 2.0 * abs(p_star - m_star)) if sigma == 1 else p_star
    grad = 8.0 * n_modes * seen * math.sqrt(seen)  # products, not **, so overflow gives inf
    if not (math.isfinite(_TWO_PI * grad * grad) and math.isfinite(p_star * math.sqrt(p_star))):
        raise ValueError(
            f"mass target {m_star:g} and momentum target {p_star:g} are too large for {n_modes} "
            f"modes: the squared gradient 2 pi (8 N S^1.5)^2 with S = {seen:g}, or the cube "
            f"P^1.5, overflows a float"
        )
    tol = _GRAD_RTOL * (p_star / _TWO_PI) ** 1.5  # finite, since P*^1.5 is
    if _TWO_PI * tol * tol < np.finfo(float).tiny:
        raise ValueError(f"mass target {m_star:g} and momentum target {p_star:g} are too small for the "
                         f"descent: its squared tolerance 2 pi ({_GRAD_RTOL:g} (P*/2 pi)^1.5)^2 underflows")


def _reach(a: np.ndarray, target: ConstraintTarget) -> int:
    """The mode k whose circle 2 pi |b_k|^2 = P* is all the projection reaches
    from a, or 0 when its Newton solve on the occupied modes S of a reaches
    the target; ValueError when nothing on the target is in reach.

    The boundary ratios M* = P* and M* = P*/N put all weight on mode 1 or N
    from any start.  Elsewhere the projection reweights a_k, so it keeps S,
    and M/P is a weighted mean of 1/k over S: M*/P* must lie strictly between
    1/max S and 1/min S, or equal 1/k when S = {k}.  The zero state is the
    empty S.
    """
    occupied = np.flatnonzero(a)
    if not occupied.size:
        raise ValueError("cannot project the zero state onto a positive-size constraint set")
    m_star, p_star = target.mass_target, target.momentum_target
    if abs(m_star - p_star) <= _BOUNDARY_RTOL * p_star:
        return 1
    if abs(m_star - p_star / a.size) <= _BOUNDARY_RTOL * p_star:
        return a.size
    first, last = int(occupied[0]) + 1, int(occupied[-1]) + 1
    low, high = p_star / last, p_star / first  # M on S at P = P*
    if low == high and abs(m_star - low) <= _BOUNDARY_RTOL * p_star:
        return first
    if low * (1.0 + _BOUNDARY_RTOL) < m_star < high * (1.0 - _BOUNDARY_RTOL):
        return 0
    span, need = ((f"mode {first} alone", f"mass {low}") if low == high else
                  (f"modes {first} to {last}", f"{low} < mass < {high}"))
    raise ValueError(f"mass target {m_star} is out of reach from a start on {span} (truncation at "
                     f"{a.size} modes): the projection keeps the occupied modes, so it needs {need}")


def _project_raw(a: np.ndarray, target: ConstraintTarget) -> np.ndarray:
    """``project_to_constraints`` on raw coefficients."""
    mode = _reach(a, target)
    total = float((np.abs(a) ** 2).sum())
    m_star, p_star = target.mass_target, target.momentum_target
    # the projection is scale-equivariant: start from a at P = P*, so that the
    # Newton iterate 1 + alpha stays O(1) instead of cancelling at large scale
    a = a * np.sqrt(p_star / (_TWO_PI * total))
    if mode:
        return _mode_circle_point(a, mode, np.sqrt(p_star / _TWO_PI))

    occupied = np.flatnonzero(a)  # b_k is 0 off the occupied modes whatever alpha and beta
    k = occupied + 1.0
    power = np.abs(a[occupied]) ** 2
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
    a[occupied] /= denom
    return a


def project_to_constraints(state: SpectralState, target: ConstraintTarget) -> SpectralState:
    """Nearest point (in the P-metric) on the constraint set.

    Uses the rational reweighting b_k = a_k / (1 + alpha + beta/k) that
    solves the metric-projection stationarity conditions.
    """
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
    max_iter: int = 2000
    seed: int = 0
    n_starts: int = 3

    def __post_init__(self):
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
    unit = _TWO_PI / target.momentum_target  # 1.0 at P* = 2 pi, where the constants hold
    step0, max_step = _STEP0 * unit, _MAX_STEP * unit
    grad_scale = unit ** -1.5  # the gradient is cubic in a
    step = step0
    stall = 0
    for iterations in range(1, opts.max_iter + 1):
        grad = 8.0 * cubic
        _, _, misfit, _ = _fit_multipliers(a, cubic)
        grad_norm = p_norm(_TWO_PI * misfit)  # |8C - 2pi(lam a/k + mu a)|_P
        if grad_norm <= _GRAD_RTOL * grad_scale:
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
        converged=bool(grad_norm <= grad_scale * max(
            _GRAD_RTOL, 1e3 * np.finfo(float).eps * (1.0 + abs(energy) * unit * unit))),
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
        return _descend(np.array(init.coeffs), sigma, target, opts, seed=None)
    best = None
    for i in range(opts.n_starts):
        seed = opts.seed + i
        start = seeded_state(sigma, n_modes, seed, decay=1.0, amplitude=1.0)
        result = _descend(np.array(start.coeffs), sigma, target, opts, seed=seed)
        if best is None or result.energy < best.energy:
            best = result
    return best
