"""Command-line driver: simulation, identity verification, minimization,
wave residuals, invariant reports, and the direct-vs-FFT benchmark.

Output is one JSON record per line.  Every stream starts with a header
record embedding the package version, the fully resolved configuration and
the normalization conventions, so files are self-describing.  Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .spectral import (
    SpectralState,
    read_snapshot,
    seeded_state,
    write_snapshot,
)
from .nonlinearity import (
    _CONV_MAX_N,
    _c_sigma_trunc_raw,
    c_sigma_direct,
    c_sigma_unsym,
    c_sigma_fast,
    c_sigma_quadrature,
    kernel_integral,
)
from .invariants import (
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
from .integrator import StepperConfig, StepFailure, step, simulate
from .waves import (
    make_psi_k,
    make_two_mode,
    wave_residual,
    stationary_scan,
    two_mode_phase_fit,
)
from .minimizer import (
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
    "dealiasing": (f"RHS modes 1..N only: exact convolution for N <= {_CONV_MAX_N}, "
                   "else grids >= 2*N-1; full C_sigma on grids >= 4*N"),
}

# exception class -> (error_type, exit code), as main and the streams report them
_ERRORS = (
    (ValueError, "validation", EXIT_VALIDATION),
    (StepFailure, "numerical", EXIT_NUMERICAL),
    (ProjectionError, "numerical", EXIT_NUMERICAL),
    (FloatingPointError, "numerical", EXIT_NUMERICAL),
    (OSError, "io", EXIT_IO),
)


def _classify(exc: BaseException):
    for cls, error_type, code in _ERRORS:
        if isinstance(exc, cls):
            return error_type, code
    return None


class _Writer:
    """JSON-lines sink: a file when requested, stdout otherwise.

    As a context manager it closes the file on exit; an exception that
    ``main`` reports, raised after the header, first ends the stream with
    an ``error`` record of the same ``error_type``.
    """

    def __init__(self, out_path, subcommand: str):
        self.path = None
        self._fh = sys.stdout
        self._started = False
        if out_path is None:
            env_dir = os.environ.get(OUT_DIR_ENV)
            if env_dir:
                os.makedirs(env_dir, exist_ok=True)
                out_path = os.path.join(env_dir, f"{subcommand}.jsonl")
        if out_path is not None:
            self.path = out_path
            self._fh = open(out_path, "w", encoding="utf-8")

    def __enter__(self) -> "_Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        kind = _classify(exc) if self._started and exc is not None else None
        try:
            if kind is not None:
                with contextlib.suppress(OSError):  # the sink itself may be what failed
                    self.emit({"record": "error", "error_type": kind[0], "message": str(exc)})
        finally:
            self.close()
        return False

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, allow_nan=False) + "\n")
        self._fh.flush()

    def header(self, subcommand: str, config: dict) -> None:
        self.emit({
            "record": "header",
            "tool": "filament",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "convention": _CONVENTION,
        })
        self._started = True

    def close(self) -> None:
        if self.path is not None:
            self._fh.close()


def _parse_init(form: str, sigma: int, n_modes: int, seed: int) -> SpectralState:
    if form == "random":
        return seeded_state(sigma, n_modes, seed)
    if form == "zero":
        return SpectralState(sigma, np.zeros(n_modes, dtype=complex))
    if form.startswith("psi_k:"):
        k = int(form.split(":", 1)[1])
        return make_psi_k(k, sigma, n_modes)
    if form.startswith("two_mode:"):
        parts = form.split(":")
        if len(parts) != 4:
            raise ValueError("two_mode init needs the form two_mode:<A>:<B>:<k>")
        amp_1, amp_k, k = complex(parts[1]), complex(parts[2]), int(parts[3])
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


def _scheme_name(name: str) -> str:
    return "implicit_midpoint" if name == "midpoint" else name


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    with _Writer(args.out, "simulate") as writer:
        config = StepperConfig(
            scheme=_scheme_name(args.scheme),
            dt=args.dt,
            t_end=args.t_end,
            sample_every=args.sample_every,
        )
        state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
        writer.header("simulate", {
            "sigma": args.sigma, "n_modes": state.n_modes, "init": args.init,
            "scheme": config.scheme, "dt": config.dt, "t_end": config.t_end,
            "sample_every": config.sample_every, "seed": args.seed,
            "h_s": list(args.hs), "snapshots": args.snapshots,
        })
        if args.snapshots:
            os.makedirs(args.snapshots, exist_ok=True)

        hs = tuple(args.hs)
        n_steps = config.n_steps()
        two_mode_k = int(args.init.split(":")[3]) if args.init.startswith("two_mode:") else 0
        tracked = []  # (t, a_1, a_k) per sample: the two_mode phase fit reads these

        def sample(i, current):
            t = i * config.dt
            rec = {"record": "sample", "t": t}
            rec.update(invariant_report(current, hs).to_record())
            # finite coefficients can still overflow a quartic energy or an H^s norm
            overflowed = [key for key, value in rec.items()
                          if isinstance(value, float) and not np.isfinite(value)]
            if overflowed:
                raise StepFailure(t, 0, np.inf, f"{', '.join(overflowed)} overflowed at t = {t:g}")
            writer.emit(rec)
            if two_mode_k:
                tracked.append((t, current.coeffs[0], current.coeffs[two_mode_k - 1]))
            if args.snapshots:
                write_snapshot(current, os.path.join(args.snapshots, f"snapshot-{i:08d}.json"))

        current = state
        try:
            sample(0, current)
            for i in range(1, n_steps + 1):
                current = step(current, config, (i - 1) * config.dt)
                if i % config.sample_every == 0 or i == n_steps:
                    sample(i, current)
        except StepFailure as exc:
            writer.emit({
                "record": "error", "error_type": "step_failure", "t": exc.t,
                "iterations": exc.iterations, "residual": exc.residual if np.isfinite(exc.residual) else None,
                "message": str(exc),
            })
            return EXIT_NUMERICAL

        summary = {"record": "summary", "t_end": config.t_end}
        if args.init.startswith("psi_k:"):
            k = int(args.init.split(":", 1)[1])
            expected = np.exp(1j * k * (k - args.sigma) * config.t_end)
            a_k = current.coeffs[k - 1]
            summary["phase_deviation"] = abs(a_k - expected)
            summary["modulus_deviation"] = abs(abs(a_k) - 1.0)
        if two_mode_k:
            amp_1, amp_k = (complex(x) for x in args.init.split(":")[1:3])
            times, series_1, series_k = zip(*tracked)
            summary["two_mode"] = two_mode_phase_fit(
                times, series_1, series_k, amp_1, amp_k, two_mode_k).to_record()
        writer.emit(summary)
        return EXIT_OK


def _trunc_deviation(state: SpectralState, ref: np.ndarray) -> float:
    """Deviation of the truncated kernel from modes 1..N of the direct output
    ``ref``, relative to the largest of those modes."""
    ref = ref[: state.n_modes]
    got = _c_sigma_trunc_raw(state.coeffs, state.sigma)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


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
            scale = float(np.max(np.abs(ref)))
            yield (f"route fast sigma={sigma} seed={seed + i}",
                   float(np.max(np.abs(c_sigma_fast(state).coeffs_full - ref))) / scale, 1e-12)
            yield (f"route unsym sigma={sigma} seed={seed + i}",
                   float(np.max(np.abs(c_sigma_unsym(state).coeffs_full - ref))) / scale, 1e-12)
            yield (f"route trunc N=32 sigma={sigma} seed={seed + i}", _trunc_deviation(state, ref), 1e-12)
            yield (f"route quadrature sigma={sigma} seed={seed + i}",
                   float(np.max(np.abs(c_sigma_quadrature(state, 8 * 32).coeffs_full - ref))) / scale, 1e-6)
            yield (f"sigma=1 mode-1 output seed={seed + i}",
                   float(np.abs(c_sigma_direct(seeded_state(1, 32, seed + i)).coeffs_full[0])), 1e-14)

    # the FFT branch of the truncated kernel; sigma = 1 runs it on modes 2..N
    n_fft = _CONV_MAX_N + 2
    for sigma in (0, 1):
        state = seeded_state(sigma, n_fft, seed)
        yield (f"route trunc N={n_fft} sigma={sigma} seed={seed}",
               _trunc_deviation(state, c_sigma_direct(state).coeffs_full), 1e-12)

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

    # the per-sample energy (pairing on the truncated kernel) on both kernel branches
    for n in (32, n_fft):
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


def cmd_verify(args) -> int:
    with _Writer(args.out, "verify") as writer:
        writer.header("verify", {"seed": args.seed})
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


def cmd_minimize(args) -> int:
    with _Writer(args.out, "minimize") as writer:
        target = ConstraintTarget(
            mass_target=args.mass_target,
            momentum_target=args.momentum_target,
            mode=args.constraint_mode,
        )
        opts = MinimizeOptions(
            grad_tol=args.tol, max_iter=args.max_iter,
            seed=args.seed, n_starts=args.n_starts,
        )
        writer.header("minimize", {
            "sigma": args.sigma, "n_modes": args.n_modes,
            "mass_target": args.mass_target, "momentum_target": args.momentum_target,
            "constraint_mode": args.constraint_mode, "grad_tol": opts.grad_tol,
            "max_iter": opts.max_iter, "seed": opts.seed, "n_starts": opts.n_starts,
        })
        init = None
        if args.init is not None:
            init = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
        result = minimize_energy(args.sigma, args.n_modes, target, init=init, opts=opts)
        rec = {"record": "minimizer"}
        rec.update(result.to_record())
        writer.emit(rec)
        return EXIT_OK


def cmd_wave_residual(args) -> int:
    with _Writer(args.out, "wave-residual") as writer:
        state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
        writer.header("wave-residual", {
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


def cmd_invariants(args) -> int:
    with _Writer(args.out, "invariants") as writer:
        state = _parse_init(args.init, args.sigma, args.n_modes, args.seed)
        writer.header("invariants", {
            "sigma": args.sigma, "n_modes": state.n_modes, "init": args.init,
            "n_quad": args.n_quad, "h_s": list(args.hs),
        })
        es = energy_spectral(state)
        rec = {
            "record": "invariants",
            "energy_spectral": es,
            "energy_lambda_form": energy_lambda_form(state),
            "energy_quadrature": energy_quadrature(state, max(args.n_quad, 8 * state.n_modes)),
            "momentum": momentum(state),
            "mass": mass(state),
            "a1_re": first_mode(state).real,
            "a1_im": first_mode(state).imag,
            "pairing_defect": pairing_check(state),
        }
        for s in args.hs:
            rec[f"H{s:g}"] = sobolev_norm(state, s)
        writer.emit(rec)
        return EXIT_OK


def cmd_bench(args) -> int:
    with _Writer(args.out, "bench") as writer:
        writer.header("bench", {"sizes": list(args.sizes), "repeats": args.repeats, "seed": args.seed})
        worst = 0.0
        for n in args.sizes:
            state = seeded_state(0, n, args.seed)

            def best_time(fn):
                best = np.inf
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    fn(state)
                    best = min(best, time.perf_counter() - t0)
                return best

            t_direct = best_time(c_sigma_direct)
            t_fast = best_time(c_sigma_fast)
            t_trunc = best_time(lambda s: _c_sigma_trunc_raw(s.coeffs, s.sigma))
            ref = c_sigma_direct(state).coeffs_full
            dev = float(np.max(np.abs(c_sigma_fast(state).coeffs_full - ref)) / np.max(np.abs(ref)))
            dev_trunc = _trunc_deviation(state, ref)
            worst = max(worst, dev, dev_trunc)
            writer.emit({
                "record": "bench", "N": n,
                "t_direct": t_direct, "t_fast": t_fast, "t_trunc": t_trunc,
                "speedup": t_direct / t_fast, "max_deviation": dev,
                "trunc_deviation": dev_trunc,
            })
        writer.emit({"record": "summary", "max_deviation": worst, "pass": bool(worst <= 1e-11)})
        return EXIT_OK if worst <= 1e-11 else EXIT_NUMERICAL


def cmd_selftest(args) -> int:
    with _Writer(args.out, "selftest") as writer:
        writer.header("selftest", {"seed": args.seed})
        failures = 0

        def check(name, measured, tol):
            nonlocal failures
            ok = measured <= tol
            failures += 0 if ok else 1
            writer.emit({"record": "check", "name": name, "measured": float(measured),
                         "tolerance": tol, "pass": bool(ok)})

        check("kernel m=3", abs(kernel_integral(3, 1024) - 6.0 * np.pi), 1e-8)
        state = seeded_state(0, 16, args.seed)
        ref = c_sigma_direct(state).coeffs_full
        check("route fast", float(np.max(np.abs(c_sigma_fast(state).coeffs_full - ref))), 1e-12)
        check("energy lambda", abs(energy_lambda_form(state) - energy_spectral(state)), 1e-12)

        config = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.2, sample_every=200)
        traj = simulate(make_psi_k(2, 0, 4), config)
        a2 = traj.final_state.coeffs[1]
        check("psi_2 phase", abs(a2 - np.exp(4j * 0.2)), 1e-9)

        result = minimize_energy(
            1, 8,
            ConstraintTarget(mass_target=2.0 * np.pi, momentum_target=2.0 * np.pi),
            opts=MinimizeOptions(seed=args.seed, n_starts=1),
        )
        check("minimizer zero energy", abs(result.energy), 1e-10)

        writer.emit({"record": "summary", "failures": failures})
        return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, n_modes_default=32):
    p.add_argument("--sigma", type=int, choices=(0, 1), default=0,
                   help="0: planar interface case, 1: spherical case")
    p.add_argument("--n-modes", type=int, default=n_modes_default,
                   help="Galerkin cutoff N")
    p.add_argument("--seed", type=int, default=0, help="seed for random initial data")
    p.add_argument("--out", type=str, default=None,
                   help=f"output file (JSON lines); default stdout or ${OUT_DIR_ENV}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filament",
        description="Spectral Galerkin toolkit for the filamentation equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate the truncated Hamiltonian flow")
    _add_common(p)
    p.add_argument("--init", type=str, default="random",
                   help="psi_k:<k> | two_mode:<A>:<B>:<k> | random | zero | file:<path>")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--scheme", choices=("rk4", "midpoint"), default="rk4")
    p.add_argument("--sample-every", type=int, default=100)
    p.add_argument("--hs", type=float, nargs="*", default=[],
                   help="Sobolev exponents to report along the run")
    p.add_argument("--snapshots", type=str, default=None,
                   help="directory for full state snapshots at each sample")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the identity and cross-route battery")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimize", help="constrained energy minimization")
    _add_common(p)
    p.add_argument("--mass-target", type=float, required=True)
    p.add_argument("--momentum-target", type=float, required=True)
    p.add_argument("--constraint-mode", choices=("both", "mass_only", "momentum_only"),
                   default="both")
    p.add_argument("--init", type=str, default=None,
                   help="optional starting state (same forms as simulate)")
    p.add_argument("--tol", type=float, default=1e-8, help="projected-gradient tolerance")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--n-starts", type=int, default=3)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("wave-residual", help="traveling-wave profile residual")
    _add_common(p, n_modes_default=8)
    p.add_argument("--init", type=str, required=True)
    p.add_argument("--speed", type=float, default=0.0, help="wave speed c")
    p.add_argument("--omega", type=float, default=0.0, help="phase rate")
    p.set_defaults(func=cmd_wave_residual)

    p = sub.add_parser("invariants", help="invariant report for one state")
    _add_common(p)
    p.add_argument("--init", type=str, default="random")
    p.add_argument("--n-quad", type=int, default=1024)
    p.add_argument("--hs", type=float, nargs="*", default=[0.5, 1.0, 1.5])
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("bench", help="time the direct sum against the FFT and truncated routes")
    _add_common(p)
    # 256 lies above _CONV_MAX_N, so the truncated kernel's FFT branch is timed too
    p.add_argument("--sizes", type=int, nargs="*", default=[16, 32, 64, 256])
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="fast end-to-end smoke test")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report as validation error
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        error_type, code = _classify(exc)
        print(json.dumps({"record": "error", "error_type": error_type, "message": str(exc)}),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
