"""Command-line driver: simulation, identity verification, minimization,
wave residuals and invariant reports.

Output is one JSON record per line.  Every stream starts with a header
record embedding the package version, the fully resolved configuration and
the normalization conventions, so files are self-describing.  Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .spectral import (
    SpectralState,
    read_snapshot,
    seeded_state,
    write_snapshot,
)
from .nonlinearity import (
    _TOEPLITZ_MAX_N,
    _c_sigma_trunc_raw,
    _check_n_quad,
    _rhs_raw,
    c_sigma_direct,
    c_sigma_unsym,
    c_sigma_fast,
    c_sigma_quadrature,
    kernel_integral,
)
from .invariants import (
    _check_sobolev_exponent,
    _sobolev_fields,
    energy_spectral,
    energy_lambda_form,
    energy_quadrature,
    momentum,
    mass,
    first_mode,
    sobolev_norm,
    pairing_check,
    energy_gradient_check,
    invariant_report,
)
from .integrator import (
    _MAX_STEPS,
    StepperConfig,
    StepFailure,
    StepMemory,
    _samples,
    sample_record,
    simulate,
)
from .waves import (
    make_psi_k,
    make_two_mode,
    wave_residual,
    stationary_scan,
    two_mode_phase_fit,
)
from .minimizer import (
    _check_targets,
    _start_power,
    ConstraintTarget,
    MinimizeOptions,
    ProjectionError,
    minimize_energy,
)

OUT_DIR_ENV = "FILAMENT_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_CONVENTION = {
    "derivative_symbol": "i*k",
    "lambda_symbol": "|k|",
    "momentum": "2*pi*sum |a_k|^2",
    "mass": "2*pi*sum |a_k|^2/k",
    "dealiasing": (f"RHS modes 1..N only: one Toeplitz mat-vec for N <= {_TOEPLITZ_MAX_N}, "
                   "else grids >= 2*N-1; full C_sigma: the same kernel on the state "
                   "zero-padded to 2*N-1 modes"),
}

# exception class -> (error_type, exit code), as main and the streams report them
_ERRORS = (
    (ValueError, "validation", EXIT_VALIDATION),
    (StepFailure, "step_failure", EXIT_NUMERICAL),
    (ProjectionError, "numerical", EXIT_NUMERICAL),
    (ArithmeticError, "numerical", EXIT_NUMERICAL),
    (OSError, "io", EXIT_IO),
)


def _error(exc: BaseException):
    """The error record and exit code of an exception in ``_ERRORS``, else None."""
    for cls, error_type, code in _ERRORS:
        if isinstance(exc, cls):
            record = {"record": "error", "error_type": error_type}
            if isinstance(exc, StepFailure):
                record.update(t=exc.t, iterations=exc.iterations,
                              residual=exc.residual if math.isfinite(exc.residual) else None)
            record["message"] = str(exc)
            return record, code
    return None


class _Writer:
    """JSON-lines sink: a file when requested, stdout otherwise.

    As a context manager it closes the file on exit; an exception that
    ``main`` reports, raised after the header, first ends the stream with
    the same ``error`` record that ``main`` prints on stderr.
    """

    def __init__(self, out_path, subcommand: str):
        self._subcommand = subcommand
        self._started = False
        if out_path is None:
            env_dir = os.environ.get(OUT_DIR_ENV)
            if env_dir:
                os.makedirs(env_dir, exist_ok=True)
                out_path = os.path.join(env_dir, f"{subcommand}.jsonl")
        self.path = out_path
        self._fh = sys.stdout if out_path is None else None  # opened by the header

    def __enter__(self) -> "_Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        error = _error(exc) if self._started and exc is not None else None
        try:
            if error is not None:
                with contextlib.suppress(OSError):  # the sink itself may be what failed
                    self.emit(error[0])
        finally:
            self.close()
        return False

    def emit(self, record: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
        try:
            line = json.dumps(record, allow_nan=False)
        except ValueError as exc:  # json refuses NaN and Infinity
            raise ArithmeticError(f"{record['record']} record: {exc}") from None
        self._fh.write(line + "\n")
        self._fh.flush()

    def header(self, config: dict) -> None:
        self.emit({
            "record": "header",
            "tool": "filament",
            "version": __version__,
            "subcommand": self._subcommand,
            "config": config,
            "convention": _CONVENTION,
        })
        self._started = True

    def close(self) -> None:
        if self.path is not None and self._fh is not None:
            self._fh.close()


def _parse_init(form: str, sigma: int, n_modes: int, seed: int) -> SpectralState:
    if form == "random":
        return seeded_state(sigma, n_modes, seed)
    if form == "zero":
        return SpectralState(sigma, np.zeros(n_modes, dtype=complex))
    if form.startswith("psi_k:"):
        try:
            k = int(form.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"psi_k init needs the form psi_k:<k>, k an integer; got {form!r}") from None
        return make_psi_k(k, sigma, n_modes)
    if form.startswith("two_mode:"):
        try:
            _, amp_1, amp_k, k = form.split(":")
            amp_1, amp_k, k = complex(amp_1), complex(amp_k), int(k)
        except ValueError:
            raise ValueError(f"two_mode init needs the form two_mode:<A>:<B>:<k>, A and B complex "
                             f"and k an integer; got {form!r}") from None
        if not np.isfinite([amp_1, amp_k]).all():
            raise ValueError(f"two_mode amplitudes must be finite, got {form!r}")
        state = make_two_mode(amp_1, amp_k, k, n_modes)
        if sigma != 1:
            raise ValueError("two_mode initial data is only meaningful for sigma=1")
        return state
    if form.startswith("file:"):
        state = read_snapshot(form.split(":", 1)[1])
        if state.sigma != sigma:
            raise ValueError(
                f"snapshot has sigma={state.sigma} but the run requests sigma={sigma}"
            )
        return state
    raise ValueError(
        f"unknown init {form!r}; expected psi_k:<k>, two_mode:<A>:<B>:<k>, "
        f"random, zero, or file:<path>"
    )


def _snapshot_name(i: int) -> str:
    """The snapshot file of step i, zero-padded to the digits of the largest
    step index a run can reach, so the names sort in step order."""
    return f"snapshot-{i:0{len(str(_MAX_STEPS))}d}.json"


def _hs_fields(hs) -> dict:
    """``_sobolev_fields`` of the ``--hs`` exponents; its ValueError names the flag."""
    try:
        return _sobolev_fields(hs)
    except ValueError as exc:
        raise ValueError(f"--hs {exc}") from None


def _scheme_name(name: str) -> str:
    return "implicit_midpoint" if name == "midpoint" else name


def step(advance, a, t):
    """One step of a ``simulate`` block: ``advance(a, t)``, the run's bound
    step function.  perfbench's tracer wraps ``cli.step`` by name, and the
    trace-point tests pin one span per step; this seam goes once the tracer
    wraps the function that ``StepMemory._bind`` returns."""
    return advance(a, t)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args, writer) -> int:
    config = StepperConfig(
        scheme=_scheme_name(args.scheme),
        dt=args.dt,
        t_end=args.t_end,
        sample_every=args.sample_every,
    )
    hs = tuple(_hs_fields(args.hs).values())
    state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
    writer.header({
        "sigma": args.sigma, "n_modes": state.n_modes, "init": args.init,
        "scheme": config.scheme, "dt": config.dt, "t_end": config.t_end,
        "sample_every": config.sample_every, "seed": args.seed,
        "h_s": list(hs), "snapshots": args.snapshots,
    })
    if args.snapshots:
        os.makedirs(args.snapshots, exist_ok=True)

    form, *fields = args.init.split(":")
    two_mode_k = int(fields[2]) if form == "two_mode" else 0
    tracked = []  # (t, a_1, a_k) per sample: the two_mode phase fit reads these

    def sample(i, current):
        t = i * config.dt
        writer.emit({"record": "sample", **sample_record(t, invariant_report(current, hs))})
        if two_mode_k:
            tracked.append((t, current.coeffs[0], current.coeffs[two_mode_k - 1]))
        if args.snapshots:
            write_snapshot(current, os.path.join(args.snapshots, _snapshot_name(i)))

    memory = StepMemory()
    for i, current in _samples(state, config, memory, step):
        sample(i, current)

    summary = {"record": "summary", "t_end": config.t_end, "counters": memory.counters()}
    if form == "psi_k":
        k = int(fields[0])
        expected = np.exp(1j * k * (k - args.sigma) * config.t_end)
        a_k = current.coeffs[k - 1]
        summary["phase_deviation"] = abs(a_k - expected)
        summary["modulus_deviation"] = abs(abs(a_k) - 1.0)
    if two_mode_k:
        amp_1, amp_k = (complex(x) for x in fields[:2])
        times, series_1, series_k = zip(*tracked)
        summary["two_mode"] = two_mode_phase_fit(
            times, series_1, series_k, amp_1, amp_k, two_mode_k).to_record()
    writer.emit(summary)
    return EXIT_OK


def _rel_deviation(got: np.ndarray, ref: np.ndarray) -> float:
    """max|got - ref| / max|ref|: how far one route is from the reference."""
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _trunc_deviation(state: SpectralState, ref: np.ndarray) -> float:
    """Relative deviation of the truncated kernel from modes 1..N of the
    direct output ``ref``."""
    return _rel_deviation(_c_sigma_trunc_raw(state.coeffs, state.sigma), ref[: state.n_modes])


def _rhs_deviation(state: SpectralState, ref: np.ndarray) -> float:
    """The RHS over i*p against the direct output ``ref``: on the scale of C,
    since the grid's rounding error is flat in p and max |i*p*C| grows with N."""
    return _rel_deviation(_rhs_raw(state.coeffs, state.sigma) / (1j * state.modes), ref[: state.n_modes])


def _verify_rows(seed: int):
    """The identity battery: yields (name, measured, tolerance) triples."""
    for m in range(-4, 9):
        yield (f"kernel_integral m={m}", abs(kernel_integral(m, 4096) - 2.0 * np.pi * abs(m)), 1e-8)

    for sigma in (0, 1):
        for k in (1, 2, 3, 5, 8, 13, 16):
            state = make_psi_k(k, sigma, 16)
            expect = np.zeros(31, dtype=complex)
            expect[k - 1] = k - sigma
            for name, fn in (("direct", c_sigma_direct), ("unsym", c_sigma_unsym), ("fast", c_sigma_fast)):
                dev = np.max(np.abs(fn(state).coeffs_full - expect))
                yield (f"eigenrelation {name} k={k} sigma={sigma}", float(dev), 1e-12)

    pair = {0: np.array([3.0, 4.0, 1.0]), 1: np.array([0.0, 1.0, 0.0])}
    for sigma in (0, 1):
        state = SpectralState(sigma, [1.0, 1.0])
        for name, vals in (
            ("direct", c_sigma_direct(state).coeffs_full),
            ("unsym", c_sigma_unsym(state).coeffs_full),
            ("fast", c_sigma_fast(state).coeffs_full),
            ("quadrature", c_sigma_quadrature(state, 2048).coeffs_full),
        ):
            yield (f"two-coeff {name} sigma={sigma}", float(np.max(np.abs(vals - pair[sigma]))), 1e-10)

    for sigma in (0, 1):
        for i in range(3):
            state = seeded_state(sigma, 32, seed + i)
            ref = c_sigma_direct(state).coeffs_full
            yield (f"route fast sigma={sigma} seed={seed + i}",
                   _rel_deviation(c_sigma_fast(state).coeffs_full, ref), 1e-12)
            yield (f"route unsym sigma={sigma} seed={seed + i}",
                   _rel_deviation(c_sigma_unsym(state).coeffs_full, ref), 1e-12)
            yield (f"route trunc N=32 sigma={sigma} seed={seed + i}", _trunc_deviation(state, ref), 1e-12)
            yield (f"route rhs N=32 sigma={sigma} seed={seed + i}", _rhs_deviation(state, ref), 1e-12)
            yield (f"route quadrature sigma={sigma} seed={seed + i}",
                   _rel_deviation(c_sigma_quadrature(state, 8 * 32).coeffs_full, ref), 1e-6)
            if sigma == 1:
                yield (f"sigma=1 mode-1 output seed={seed + i}", float(np.abs(ref[0])), 1e-14)

    # both sides of the truncated kernel's Toeplitz/grid crossover; sigma = 1
    # runs the grid on modes 2..N
    for n in (_TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1):
        for sigma in (0, 1):
            state = seeded_state(sigma, n, seed)
            ref = c_sigma_direct(state).coeffs_full
            yield (f"route trunc N={n} sigma={sigma} seed={seed}", _trunc_deviation(state, ref), 1e-12)
            yield (f"route rhs N={n} sigma={sigma} seed={seed}", _rhs_deviation(state, ref), 1e-12)

    # the same crossover for the FFT route, which runs the kernel on 2N - 1 modes
    n_last = (_TOEPLITZ_MAX_N + 1) // 2
    for n in (n_last, n_last + 1):
        for sigma in (0, 1):
            state = seeded_state(sigma, n, seed)
            yield (f"route fast N={n} sigma={sigma} seed={seed}",
                   _rel_deviation(c_sigma_fast(state).coeffs_full, c_sigma_direct(state).coeffs_full), 1e-12)

    for sigma in (0, 1):
        for k in (1, 2, 3, 5, 8):
            state = make_psi_k(k, sigma, 8)
            target = 4.0 * (k - sigma)
            yield (f"energy spectral psi_{k} sigma={sigma}", abs(energy_spectral(state) - target), 1e-12)
            yield (f"energy lambda psi_{k} sigma={sigma}", abs(energy_lambda_form(state) - target), 1e-11)
            yield (f"energy quadrature psi_{k} sigma={sigma}", abs(energy_quadrature(state, 1024) - target), 1e-5)
    yield ("energy E0(1,1)", abs(energy_spectral(SpectralState(0, [1.0, 1.0])) - 28.0), 1e-12)
    yield ("energy E1(1,1)", abs(energy_spectral(SpectralState(1, [1.0, 1.0])) - 4.0), 1e-12)

    for sigma in (0, 1):
        for i in range(3):
            state = seeded_state(sigma, 32, seed + 10 + i)
            es = energy_spectral(state)
            scale = max(abs(es), 1e-30)
            yield (f"energy routes sigma={sigma} seed={seed + 10 + i} lambda",
                   abs(energy_lambda_form(state) - es) / scale, 1e-11)
            yield (f"energy routes sigma={sigma} seed={seed + 10 + i} quadrature",
                   abs(energy_quadrature(state, 8 * 32) - es) / scale, 1e-5)
            yield (f"pairing sigma={sigma} seed={seed + 10 + i}",
                   pairing_check(state) / (1.0 + abs(es)), 1e-10)

    # the per-sample energy (the Lambda form on the kernel's grid) at a small and
    # a large N
    for n in (32, _TOEPLITZ_MAX_N + 1):
        for sigma in (0, 1):
            state = seeded_state(sigma, n, seed + 20)
            es = energy_spectral(state)
            yield (f"energy routes N={n} sigma={sigma} seed={seed + 20} pairing",
                   abs(invariant_report(state).energy - es) / max(abs(es), 1e-30), 1e-12)

    yield ("gradient check psi_2 sigma=0", energy_gradient_check(make_psi_k(2, 0, 4), 1e-4), 1e-6)
    yield ("gradient check seeded sigma=1", energy_gradient_check(seeded_state(1, 8, seed), 1e-4), 1e-6)

    zero = SpectralState(0, np.zeros(4, dtype=complex))
    yield ("stationary zero sigma=0", stationary_scan(zero).rhs_norm, 1e-14)
    yield ("stationary 2.5*e_1 sigma=1",
           stationary_scan(SpectralState(1, [2.5, 0.0, 0.0, 0.0])).rhs_norm, 1e-13)
    e2_scan = stationary_scan(make_psi_k(2, 1, 4))
    yield ("non-stationary e_2 sigma=1 (rhs norm 2)", abs(e2_scan.rhs_norm - 2.0), 1e-12)

    config = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.2, sample_every=200)
    a2 = simulate(make_psi_k(2, 0, 4), config).final_state.coeffs[1]
    yield ("rk4 psi_2 phase t=0.2 sigma=0", float(abs(a2 - np.exp(4j * 0.2))), 1e-9)

    # M = P = 2 pi forces all weight onto mode 1, where E_1 vanishes
    result = minimize_energy(
        1, 8,
        ConstraintTarget(mass_target=2.0 * np.pi, momentum_target=2.0 * np.pi),
        opts=MinimizeOptions(seed=seed, n_starts=1),
    )
    yield ("minimizer zero energy sigma=1 M=P=2pi", abs(result.energy), 1e-10)


def cmd_verify(args, writer) -> int:
    writer.header({"seed": args.seed})
    failures = 0
    count = 0
    for name, measured, tol in _verify_rows(args.seed):
        ok = measured <= tol
        failures += 0 if ok else 1
        count += 1
        writer.emit({
            "record": "check", "name": name, "measured": measured,
            "tolerance": tol, "pass": bool(ok),
        })
    writer.emit({"record": "summary", "checks": count, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def cmd_minimize(args, writer) -> int:
    target = ConstraintTarget(mass_target=args.mass_target, momentum_target=args.momentum_target)
    opts = MinimizeOptions(
        grad_tol=args.tol, max_iter=args.max_iter,
        seed=args.seed, n_starts=args.n_starts,
    )
    init = None if args.init is None else _parse_init(args.init, args.sigma, args.n_modes, args.seed)
    n_modes = args.n_modes if init is None else init.n_modes  # a snapshot brings its own N
    _check_targets(args.sigma, n_modes, target)
    if init is not None:
        _start_power(init.coeffs)
    writer.header({
        "sigma": args.sigma, "n_modes": n_modes, "init": args.init,
        "mass_target": args.mass_target, "momentum_target": args.momentum_target,
        "grad_tol": opts.grad_tol, "max_iter": opts.max_iter, "seed": opts.seed,
        "n_starts": opts.n_starts,
    })
    result = minimize_energy(args.sigma, n_modes, target, init=init, opts=opts)
    rec = {"record": "minimizer"}
    rec.update(result.to_record())
    writer.emit(rec)
    return EXIT_OK


def cmd_wave_residual(args, writer) -> int:
    state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
    writer.header({
        "sigma": args.sigma, "n_modes": state.n_modes, "init": args.init,
        "speed": args.speed, "omega": args.omega,
    })
    spec = wave_residual(state, args.speed, args.omega)
    scan = stationary_scan(state)
    writer.emit({
        "record": "wave_residual",
        "speed": args.speed,
        "omega": args.omega,
        "residual": spec.residual,
        "pairing_defect": spec.pairing_defect,
        "rhs_norm": scan.rhs_norm,
        "stationary": scan.stationary,
        "classification": scan.description,
    })
    return EXIT_OK


def cmd_invariants(args, writer) -> int:
    hs = _hs_fields(args.hs)
    state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
    n_quad = args.n_quad or max(1024, 8 * state.n_modes)
    _check_n_quad(state.n_modes, n_quad)
    writer.header({
        "sigma": args.sigma, "n_modes": state.n_modes, "init": args.init,
        "n_quad": n_quad, "h_s": list(hs.values()),
    })
    es = energy_spectral(state)
    rec = {
        "record": "invariants",
        "energy_spectral": es,
        "energy_lambda_form": energy_lambda_form(state),
        "energy_quadrature": energy_quadrature(state, n_quad),
        "momentum": momentum(state),
        "mass": mass(state),
        "a1_re": first_mode(state).real,
        "a1_im": first_mode(state).imag,
        "pairing_defect": pairing_check(state),
    }
    for name, s in hs.items():
        rec[name] = sobolev_norm(state, s)
    writer.emit(rec)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line, so that ``main``
    reports it as a JSON validation error instead of argparse's usage text."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    """Type of every float flag: inf and nan stop here, before they reach a
    configuration or a stream header."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _sobolev_exponent(text: str) -> float:
    """Type of ``--hs``: a finite exponent that ``sobolev_norm`` accepts."""
    value = _finite_float(text)
    try:
        return _check_sobolev_exponent(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int, kind: str):
    """Type of an integer flag that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")  # every count flag
_seed_int = _int_at_least(0, "non-negative")  # --seed, as seeded_state takes it


def _add_state(p, n_modes_default=32):
    p.add_argument("--sigma", type=int, choices=(0, 1), default=0,
                   help="0: planar interface case, 1: spherical case")
    p.add_argument("--n-modes", type=_positive_int, default=n_modes_default,
                   help="Galerkin cutoff N")
    _add_common(p)


def _add_common(p):
    p.add_argument("--seed", type=_seed_int, default=0, help="seed for random or seeded data")
    p.add_argument("--out", type=str, default=None,
                   help=f"output file (JSON lines); default stdout or ${OUT_DIR_ENV}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="filament",
        description="Spectral Galerkin toolkit for the filamentation equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate the truncated Hamiltonian flow")
    _add_state(p)
    p.add_argument("--init", type=str, default="random",
                   help="psi_k:<k> | two_mode:<A>:<B>:<k> | random | zero | file:<path>")
    p.add_argument("--dt", type=_finite_float, default=1e-3)
    p.add_argument("--t-end", type=_finite_float, default=1.0)
    p.add_argument("--scheme", choices=("rk4", "midpoint"), default="rk4")
    p.add_argument("--sample-every", type=_positive_int, default=100)
    p.add_argument("--hs", type=_sobolev_exponent, nargs="*", default=[],
                   help="Sobolev exponents to report along the run")
    p.add_argument("--snapshots", type=str, default=None,
                   help="directory for full state snapshots at each sample")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", aliases=["selftest"],
                       help="run the identity and cross-route battery")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimize", help="constrained energy minimization")
    _add_state(p)
    p.add_argument("--mass-target", type=_finite_float, required=True)
    p.add_argument("--momentum-target", type=_finite_float, required=True)
    p.add_argument("--init", type=str, default=None,
                   help="optional starting state (same forms as simulate)")
    p.add_argument("--tol", type=_finite_float, default=1e-8, help="projected-gradient tolerance")
    p.add_argument("--max-iter", type=_positive_int, default=2000)
    p.add_argument("--n-starts", type=_positive_int, default=3)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("wave-residual", help="traveling-wave profile residual")
    _add_state(p, n_modes_default=8)
    p.add_argument("--init", type=str, required=True)
    p.add_argument("--speed", type=_finite_float, default=0.0, help="wave speed c")
    p.add_argument("--omega", type=_finite_float, default=0.0, help="phase rate")
    p.set_defaults(func=cmd_wave_residual)

    p = sub.add_parser("invariants", help="invariant report for one state")
    _add_state(p)
    p.add_argument("--init", type=str, default="random")
    p.add_argument("--n-quad", type=_positive_int, default=None,
                   help="midpoint nodes of the quadrature energy; default max(1024, 8*N)")
    p.add_argument("--hs", type=_sobolev_exponent, nargs="*", default=[0.5, 1.0, 1.5])
    p.set_defaults(func=cmd_invariants)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy floating-point errors raise, as numerical in _ERRORS; the library's
        # own errstate blocks, where a non-finite result is tested, still apply
        with (_Writer(args.out, args.subcommand) as writer,
              np.errstate(over="raise", invalid="raise", divide="raise")):
            return args.func(args, writer)
    except SystemExit:  # --help printed its text; every parse error raises ValueError
        return EXIT_OK
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        record, code = _error(exc)
        print(json.dumps(record), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
