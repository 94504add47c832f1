"""Benchmark of the filament command line, end to end and per layer.

    python3 perfbench/run.py --workload conserve-n256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 10          # every workload, one table

A job is one ``python -m filament simulate ...`` child process.  Its
stdout records are timestamped as they arrive (the CLI flushes each one),
so the end-to-end numbers of ``--trace 0`` carry no tracing at all.  Jobs
repeat one at a time until ``--seconds`` have passed, on inputs made from
``--seed``, and every job's outputs go through the gates in checks.py.

``--trace 1`` alternates the same child jobs with in-process runs of
``filament.cli.main`` whose calls into the layers are wrapped in spans
(written to .perfbench/spans-*.jsonl), and times public layer functions
directly: on the workload's own state, and ``minimize_energy`` in
acceptance criterion 10's shape.  Per-layer numbers come from there.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0: every gate passed; 1: a gate failed;
2: the package source is missing next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
JOB_TIMEOUT_S = 120.0
DIRECT_SHARE = 0.3          # share of a traced run spent on direct layer timings
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

fil = None  # the filament package, imported from SRC by load_package()


def load_package():
    global fil
    if not (SRC / "filament" / "__init__.py").is_file():
        raise FileNotFoundError(f"no filament package under {SRC}")
    sys.path.insert(0, str(SRC))
    import filament
    import filament.cli  # noqa: F401  (the traced run patches its names)
    fil = filament


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class SimulateWorkload:
    """``simulate`` from a snapshot of ``seeded_state(sigma, n_modes, seed)``."""

    name: str
    sigma: int
    n_modes: int
    amplitude: float
    scheme: str
    dt: float
    t_end: float
    sample_every: int
    snapshots: bool
    drift_tol: dict
    a1_tol: float | None = None
    final = "summary"
    gap_records = ("sample",)

    def state(self, seed: int):
        return fil.seeded_state(self.sigma, self.n_modes, seed, amplitude=self.amplitude)

    def stepper(self):
        scheme = "implicit_midpoint" if self.scheme == "midpoint" else self.scheme
        return fil.StepperConfig(scheme=scheme, dt=self.dt, t_end=self.t_end,
                                 sample_every=self.sample_every)

    def target(self, state):
        # the constraint set of 1.1 * state: a few projection Newton steps away
        return fil.ConstraintTarget(mass_target=1.21 * fil.mass(state),
                                    momentum_target=1.21 * fil.momentum(state))

    def argv(self, inputs: "Inputs", job_dir: Path) -> list[str]:
        argv = ["simulate", "--scheme", self.scheme, "--sigma", str(self.sigma),
                "--n-modes", str(self.n_modes), "--dt", repr(self.dt),
                "--t-end", repr(self.t_end), "--sample-every", str(self.sample_every),
                "--init", f"file:{inputs.snapshot}"]
        if self.snapshots:
            argv += ["--snapshots", str(job_dir / "snapshots")]
        return argv

    def check(self, records: list[dict], inputs: "Inputs", job_dir: Path) -> list[str]:
        samples = [r for r in records if r["record"] == "sample"]
        n_steps = round(self.t_end / self.dt)
        n_expected = 1 + n_steps // self.sample_every + (n_steps % self.sample_every != 0)
        reasons = checks.check_samples(samples, n_expected, self.t_end,
                                       self.drift_tol, self.a1_tol)
        if self.snapshots and not reasons:
            files = sorted((job_dir / "snapshots").glob("snapshot-*.json"))
            snaps = [checks.parse_snapshot(f.read_text(encoding="utf-8")) for f in files]
            reasons += checks.check_snapshots(snaps, samples)
        return reasons


WORKLOADS = {w.name: w for w in (
    SimulateWorkload(
        name="conserve-n256", sigma=0, n_modes=256, amplitude=0.5,
        scheme="midpoint", dt=1e-4, t_end=1e-2, sample_every=5, snapshots=False,
        # P and M are quadratic invariants of the midpoint rule; E drift is
        # O(dt^2) and state dependent: up to 2.3e-6 (seed 39) over seeds 0-359
        drift_tol={"P": 1e-10, "M": 1e-10, "E": 1e-5}),
    SimulateWorkload(
        name="checkpoint-n32", sigma=1, n_modes=32, amplitude=0.35,
        scheme="rk4", dt=1e-3, t_end=1.0, sample_every=100, snapshots=True,
        # acceptance criterion 05's tolerances, except E: its 1e-8 holds on the
        # criterion's 20 seeds, but seed 121 drifts 2.25e-8 (max over seeds 0-499)
        drift_tol={"E": 1e-7, "P": 1e-8, "M": 1e-8}, a1_tol=1e-10),
)}

# The minimizer is timed by direct calls in the traced run, in acceptance
# criterion 10's shape (sigma 0, N = 16, M = pi, P = 2 pi, two starts): as a
# child job it streams one record per 1-2 s job, and its timing spread 21-40%
# over ten runs on a shared 2-vCPU host, near or past the 25% limit on any
# end-to-end bound.
MINIMIZE = dict(sigma=0, n_modes=16, mass_target=math.pi, momentum_target=2.0 * math.pi,
                n_starts=2, calls=3)


@dataclass(frozen=True)
class Inputs:
    seed: int
    state: object
    snapshot: Path
    tmp: Path
    env: dict


def make_inputs(workload, seed: int, tmp: Path) -> Inputs:
    state = workload.state(seed)
    snapshot = tmp / "init.json"
    fil.write_snapshot(state, snapshot)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return Inputs(seed=seed, state=state, snapshot=snapshot, tmp=tmp, env=env)


# ---------------------------------------------------------------------------
# jobs

@dataclass
class Job:
    records: list
    stamps: list            # arrival time of each record
    start: float            # spawn (child) or call (traced) time
    reasons: list
    bytes_out: int = 0
    rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.reasons

    @property
    def setup_s(self) -> float:
        return self.stamps[0] - self.start

    @property
    def wall_s(self) -> float:
        return self.stamps[-1] - self.stamps[0]

    def gaps_s(self, kinds) -> list[float]:
        return checks.gaps([t for t, r in zip(self.stamps, self.records) if r["record"] in kinds])


def _finish(workload, inputs, job_dir, returncode, lines, stamps, start) -> Job:
    job = Job(records=[], stamps=stamps, start=start, reasons=[],
              bytes_out=sum(len(line) for line in lines))
    try:
        job.records = [checks.parse_record(line) for line in lines]
        job.reasons = checks.check_exit(returncode, job.records, workload.final)
        if not job.reasons:
            job.reasons = workload.check(job.records, inputs, job_dir)
    except (checks.StreamError, KeyError, TypeError, ValueError) as exc:
        job.reasons.append(f"{type(exc).__name__}: {exc}")
    return job


def run_child(workload, inputs: Inputs, job_dir: Path) -> Job:
    """One job as a child process, records timestamped on arrival."""
    cmd = [sys.executable, "-m", "filament", *workload.argv(inputs, job_dir)]
    lines, stamps = [], []
    with open(job_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=inputs.env, cwd=inputs.tmp)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                stamps.append(time.perf_counter())
                lines.append(line)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    job = _finish(workload, inputs, job_dir, proc.returncode, lines, stamps, start)
    job.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    stderr = (job_dir / "stderr.txt").read_text(errors="replace").strip()
    if stderr and not job.ok:
        job.reasons.append("stderr: " + stderr[-500:])
    return job


class StampedSink(io.TextIOBase):
    """A stdout stand-in that timestamps each complete line written to it."""

    def __init__(self):
        self.lines, self.stamps, self._part = [], [], ""

    def writable(self):
        return True

    def write(self, text: str) -> int:
        self._part += text
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            self.stamps.append(time.perf_counter())
            self.lines.append(line + "\n")
        return len(text)


class Tracer:
    """Spans (id, job, name, start, end, parent id) kept in memory until the run ends."""

    WRAPPED = ("step", "invariant_report", "write_snapshot", "read_snapshot")

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"id": index, "job": self.job, "name": name,
                           "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the CLI's calls into the layers through spans."""
        cli = fil.cli
        originals = {name: getattr(cli, name) for name in self.WRAPPED}
        try:
            for name, fn in originals.items():
                setattr(cli, name, self._wrap(fn, name))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)


def run_traced(workload, inputs: Inputs, job_dir: Path, tracer: Tracer) -> Job:
    """One job through ``filament.cli.main`` in this process, under spans."""
    sink = StampedSink()
    tracer.job += 1
    start = time.perf_counter()
    with tracer.patched(), contextlib.redirect_stdout(sink), tracer.span("cli.main"):
        returncode = fil.cli.main(workload.argv(inputs, job_dir))
    return _finish(workload, inputs, job_dir, returncode, sink.lines, sink.stamps, start)


def job_dirs(tmp: Path):
    """A fresh directory per job; the previous one is removed on the next draw."""
    for i in itertools.count():
        job_dir = tmp / f"job-{i:04d}"
        job_dir.mkdir()
        yield job_dir
        shutil.rmtree(job_dir)


# ---------------------------------------------------------------------------
# metrics

def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload, jobs: list[Job]) -> tuple[dict, dict, list[str]]:
    """Bounded metrics, reported-only metrics and notes, from the passing jobs.

    On a shared 2-vCPU host each vCPU swings between two speeds, 1.6-1.8x
    apart, for seconds to minutes at a time, so a median over a run follows
    the mix of the two: the median wall and gap, and even the fastest 1 s
    job, moved 15-40% between ten runs of the same code.  A low percentile
    of the gaps between records (40-60 ms on conserve-n256, 25-50 ms on
    checkpoint-n32, about 500 per run) needs only a few fast moments in the
    run.  The bounded timing is its 1st percentile, not the fastest gap: a
    record whose arrival is stamped late shortens the next gap, by up to
    25 ms seen.  Set-up keeps its median over the run's spawns; the medians,
    the p90 gap and the fastest job are printed without a bound.
    """
    good = [j for j in jobs if j.ok]
    if not good:
        return {}, {}, []
    walls = [j.wall_s for j in good]
    gaps = [g for j in good for g in j.gaps_s(workload.gap_records)]
    metrics = {
        "setup_s": _metric(checks.median([j.setup_s for j in good]), "s"),
        "sample_p01_ms": _metric(1e3 * checks.percentile(gaps, 1.0), "ms"),
        "peak_rss_mb": _metric(checks.median([j.rss_mb for j in good]), "MB"),
    }
    tail = checks.tail_summary(gaps)
    reported = {
        "wall_best_s": _metric(min(walls), "s"),
        "wall_s": _metric(checks.median(walls), "s"),
        "sample_p50_ms": _metric(1e3 * tail["p50"], "ms"),
        "sample_p90_ms": _metric(1e3 * tail["p90"], "ms"),
    }
    notes = [f"{len(good)} jobs; {tail['count']} gaps between "
             f"{'/'.join(workload.gap_records)} records, {tail['beyond_p90']} beyond p90"]
    return metrics, reported, notes


def time_calls(fn, budget_s: float, min_calls: int = 5, max_calls: int = 2000) -> list[float]:
    """Durations of repeated direct calls (after one untimed warm-up call)."""
    fn()
    durations = []
    deadline = time.perf_counter() + budget_s
    while len(durations) < max_calls and (len(durations) < min_calls
                                          or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - t0)
    return durations


def direct_minimize(seed: int) -> tuple[dict, list[str]]:
    """``minimize_energy`` in criterion 10's shape, timed and gated per call."""
    target = fil.ConstraintTarget(mass_target=MINIMIZE["mass_target"],
                                  momentum_target=MINIMIZE["momentum_target"])
    opts = fil.MinimizeOptions(seed=seed, n_starts=MINIMIZE["n_starts"])
    durations, records, reasons = [], [], []
    for _ in range(MINIMIZE["calls"]):
        t0 = time.perf_counter()
        result = fil.minimize_energy(MINIMIZE["sigma"], MINIMIZE["n_modes"], target, opts=opts)
        durations.append(time.perf_counter() - t0)
        records.append(result.to_record())
        reasons += checks.check_minimizer(
            records[-1], lambda snap: fil.energy_lambda_form(fil.state_from_dict(snap)))
    metrics = {
        "minimizer.minimize_ms": _metric(1e3 * checks.median(durations), "ms"),
        "minimizer.iterations": _metric(records[-1]["iterations"], "count"),
        "minimizer.converged": _metric(float(bool(records[-1]["converged"])), "ratio"),
    }
    return metrics, [f"direct minimize_energy: {r}" for r in reasons]


def direct_layer_metrics(workload, inputs: Inputs, budget_s: float) -> dict:
    """Public layer functions timed directly on the workload's own state."""
    state = inputs.state
    config = workload.stepper()
    target = workload.target(state)
    out_path = inputs.tmp / "direct-write.json"
    medians = {  # metric name (its suffix is the unit) -> call timed
        "invariants.report_p50_ms": lambda: fil.invariant_report(state),
        "invariants.energy_p50_ms": lambda: fil.energy_spectral(state),
        "nonlinearity.c_sigma_fast_p50_us": lambda: fil.c_sigma_fast(state),
        "nonlinearity.rhs_p50_us": lambda: fil.rhs(state),
        "minimizer.project_p50_us": lambda: fil.project_to_constraints(state, target),
        "minimizer.multiplier_p50_us": lambda: fil.multiplier_extraction(state),
        "spectral.read_snapshot_ms": lambda: fil.read_snapshot(inputs.snapshot),
        "spectral.write_snapshot_p50_us": lambda: fil.write_snapshot(state, out_path),
    }
    scale = {"ms": 1e3, "us": 1e6}
    share = budget_s / (len(medians) + 2)
    # the step gets a double share and at least 20 calls, for its p90
    steps = time_calls(lambda: fil.step(state, config), 2 * share, min_calls=20)
    metrics = {f"integrator.step_p{q}_us": _metric(1e6 * checks.percentile(steps, q), "us")
               for q in (50, 90)}
    for name, call in medians.items():
        unit = name.rsplit("_", 1)[1]
        metrics[name] = _metric(scale[unit] * checks.median(time_calls(call, share)), unit)
    return metrics


def span_layer_metrics(tracer: Tracer, traced: list[Job], untraced: list[Job]) -> dict:
    """Per-job counts and wall shares of each wrapped call, from the spans."""
    per_job = []
    for root in (s for s in tracer.spans if s["parent"] is None):
        root_s = root["end"] - root["start"]
        busy = dict.fromkeys(Tracer.WRAPPED, 0.0)
        calls = dict.fromkeys(Tracer.WRAPPED, 0)
        children_s = 0.0
        for s in tracer.spans:
            if s["job"] == root["job"] and s is not root:
                busy[s["name"]] += s["end"] - s["start"]
                calls[s["name"]] += 1
                if s["parent"] == root["id"]:
                    children_s += s["end"] - s["start"]
        per_job.append({"root_s": root_s, "busy": busy, "calls": calls,
                        "self_s": root_s - children_s})

    def med(fn):
        return checks.median([fn(j) for j in per_job])

    good = [j for j in traced if j.ok]
    traced_wall = checks.median([j.wall_s for j in good])
    untraced_wall = checks.median([j.wall_s for j in untraced if j.ok])
    return {
        "invariants.report_calls": _metric(med(lambda j: j["calls"]["invariant_report"]), "count"),
        "invariants.report_share": _metric(
            med(lambda j: j["busy"]["invariant_report"] / j["root_s"]), "ratio"),
        "integrator.step_calls": _metric(med(lambda j: j["calls"]["step"]), "count"),
        "integrator.step_share": _metric(med(lambda j: j["busy"]["step"] / j["root_s"]), "ratio"),
        "spectral.write_snapshot_calls": _metric(
            med(lambda j: j["calls"]["write_snapshot"]), "count"),
        "spectral.write_snapshot_share": _metric(
            med(lambda j: j["busy"]["write_snapshot"] / j["root_s"]), "ratio"),
        "cli.records": _metric(checks.median([len(j.records) for j in good]), "count"),
        "cli.bytes_out": _metric(checks.median([j.bytes_out for j in good]), "bytes"),
        "cli.self_s": _metric(med(lambda j: j["self_s"]), "s"),
        "trace.overhead_ratio": _metric(traced_wall / untraced_wall - 1.0, "ratio"),
    }


# ---------------------------------------------------------------------------
# one run of one workload

@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    metrics: dict
    reported: dict = field(default_factory=dict)  # printed, not part of the result line
    notes: list = field(default_factory=list)
    reasons: list = field(default_factory=list)


def run_workload(workload, seed: int, seconds: float, trace: bool, tmp: Path) -> Result:
    inputs = make_inputs(workload, seed, tmp)
    dirs = job_dirs(tmp)
    # one untimed job first: byte-compiles the package and warms the file cache
    jobs = [run_child(workload, inputs, next(dirs))]
    timed: list[Job] = []
    traced: list[Job] = []
    tracer = Tracer()
    direct, direct_reasons = {}, []
    t0 = time.perf_counter()
    if trace:
        direct, direct_reasons = direct_minimize(seed)
        direct.update(direct_layer_metrics(workload, inputs, DIRECT_SHARE * seconds))
        jobs.append(run_traced(workload, inputs, next(dirs), Tracer()))  # warm-up
    while not timed or time.perf_counter() - t0 < seconds:
        timed.append(run_child(workload, inputs, next(dirs)))
        if trace:
            traced.append(run_traced(workload, inputs, next(dirs), tracer))
    jobs += timed + traced
    failed = [j for j in jobs if not j.ok]
    reasons = [f"job {i}: {'; '.join(j.reasons)}" for i, j in enumerate(jobs) if not j.ok]
    reasons += direct_reasons
    # the direct minimize calls count as one more gated attempt
    attempted = len(jobs) + int(trace)
    n_failed = len(failed) + bool(direct_reasons)
    if trace:
        spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"environment": environment(), "seed": seed}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        metrics, reported = {}, {}
        notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
        if not n_failed:
            metrics = {**span_layer_metrics(tracer, traced, timed), **direct}
    else:
        metrics, reported, notes = end_to_end(workload, timed)
    reported["fail_ratio"] = _metric(n_failed / attempted, "ratio")
    return Result(workload.name, attempted, n_failed, metrics, reported, notes, reasons)


# ---------------------------------------------------------------------------
# command line

def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS thread per job unless the caller says otherwise: on a shared
    # 2-core machine threaded BLAS made the N = 256 energy slower and its
    # sample gaps far more spread (must be set before numpy loads)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2

    # streams go to stdout, where they are timed, never to the CLI's output dir
    os.environ.pop(fil.cli.OUT_DIR_ENV, None)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# env " + json.dumps(environment()))
    WORK.mkdir(exist_ok=True)
    results = []
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), Path(tmp))
        results.append(result)
        for note in result.notes:
            print(f"# {name}: {note}")
        for metric, m in result.metrics.items():
            print(f"{name:<15} {metric:<34} {m['value']:>14.6g} {m['unit']}")
        for metric, m in result.reported.items():
            print(f"{name:<15} {metric:<34} {m['value']:>14.6g} {m['unit']}  (no bound)")
        for reason in result.reasons:
            print(f"perfbench: {name}: {reason}", file=sys.stderr)

    failed = sum(r.failed for r in results)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}/{k}": v for r in results for k, v in r.metrics.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
