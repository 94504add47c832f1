"""A BENCH file: alternating perfbench pairs of two checkouts, traced runs,
and the stepping loop's cost per step, as one JSON document.

    python3 tools/bench_pairs.py --parent ../parent --pairs 10 --seconds 50 --out BENCH_27.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` of the parent checkout and of this one, one after the other,
with the side that runs first alternating from pair to pair, and keeps
each run's final JSON line and its unbounded metrics, such as
``sample_p50_ms``.  At least two pairs are needed.  Per workload and bounded metric, the summary
gives each side's median, the parent's interquartile range and the number
of pairs the change won (a lower value).  One ``--trace 1`` run per side
and workload follows.  perfbench runs as it stands in each checkout, so
both sides measure with the same harness when its files are equal.

The layer numbers come last, in this process, from this checkout's
package: interleaved warmed rounds of a sample interval, stepped once
through the public ``step()`` (bind and ``np.errstate`` on every call, one
state per step) and once as a block (``integrator._samples``, the loop that
``simulate`` runs, over one interval), as microseconds per step at their
5th and 50th percentiles.  They load numpy only after every child run has
ended, so this process stays small while perfbench forks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("checkpoint-n32", "conserve-n256")
# (label, sigma, N, amplitude, scheme, dt, steps per round, rounds): the
# sample interval of each workload, on the workload's own state
LAYER_CASES = (
    ("rk4_n32_sigma1", 1, 32, 0.35, "rk4", 1e-3, 100, 60),
    ("midpoint_n256_sigma0", 0, 256, 0.5, "implicit_midpoint", 1e-4, 5, 150),
)


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench's final JSON line and its table rows marked "(no bound)",
    with its exit code and run time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    env = [json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")]
    unbounded = [line.split() for line in lines if line.endswith("  (no bound)")]
    return {"exit": proc.returncode, "run_s": round(time.perf_counter() - start, 1),
            "environment": env[0] if env else None,
            "result": json.loads(lines[-1]) if lines else None,
            "unbounded": {words[1]: float(words[2]) for words in unbounded}}


def _iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict]) -> dict:
    """Per bounded metric: medians, the parent's IQR and the change's wins."""
    names = pairs[0]["parent"]["result"]["metrics"]
    out = {}
    for name in names:
        old = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        med_old, med_new = statistics.median(old), statistics.median(new)
        out[name] = {
            "parent_median": med_old, "change_median": med_new,
            "parent_iqr": _iqr(old), "change_iqr": _iqr(new),
            "median_change": med_new - med_old,
            "relative_change": (med_new - med_old) / med_old,
            "change_lower_in": sum(n < o for o, n in zip(old, new)),
            "pairs": len(pairs),
        }
    return out


def layer_timings() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import filament as fil
    from filament.integrator import StepMemory, _samples, step

    out = {}
    for label, sigma, n, amplitude, scheme, dt, k, rounds in LAYER_CASES:
        config = fil.StepperConfig(scheme, dt, k * dt, k)  # one sample interval
        start = fil.seeded_state(sigma, n, 7, amplitude=amplitude)
        # each path continues its own trajectory, so midpoint solves keep their history
        public = {"memory": StepMemory(), "state": start, "j": 0}
        block = {"memory": StepMemory(), "state": start}

        def by_step():
            memory, current, j0 = public["memory"], public["state"], public["j"]
            t0 = time.perf_counter()
            for j in range(j0, j0 + k):
                current = step(current, config, j * dt, memory)
            elapsed = time.perf_counter() - t0
            public.update(state=current, j=j0 + k)
            return elapsed

        def by_block():
            t0 = time.perf_counter()
            *_, (_, current) = _samples(block["state"], config, block["memory"])
            elapsed = time.perf_counter() - t0
            block["state"] = current
            return elapsed

        for _ in range(3):  # warm-up
            by_step(), by_block()
        times = {"public_step": [], "bound_block": []}
        for r in range(rounds):
            order = (("public_step", by_step), ("bound_block", by_block))
            for name, fn in order if r % 2 == 0 else order[::-1]:
                times[name].append(1e6 * fn() / k)
        out[label] = {"steps_per_round": k, "rounds": rounds, **{
            name: {"p05_us": float(np.percentile(v, 5)), "p50_us": float(np.percentile(v, 50))}
            for name, v in times.items()}}
    return out


def _pair_count(text: str) -> int:
    """Type of ``--pairs``: ``summarize`` takes quartiles, which need two pairs."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"at least 2 pairs are needed, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--pairs", type=_pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace-seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=2701, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    doc = {"command": (f"python3 tools/bench_pairs.py --parent <parent checkout> "
                       f"--pairs {args.pairs} --seconds {args.seconds:g} "
                       f"--trace-seconds {args.trace_seconds:g} --seed {args.seed} "
                       f"--out {args.out.name}"),
           "workloads": {}}
    for workload in WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(sides[side], workload, seed, args.seconds, 0)
                doc.setdefault("environment", pair[side].pop("environment"))
                print(f"{workload} pair {k} {side}: {json.dumps(pair[side])}", flush=True)
            pairs.append(pair)
        ok = all(p[s]["exit"] == 0 and p[s]["result"] for p in pairs for s in sides)
        doc["workloads"][workload] = {
            "pairs": pairs, "summary": summarize(pairs) if ok else None}
        for side in ("parent", "change"):
            traced = perfbench(sides[side], workload, args.seed, args.trace_seconds, 1)
            traced.pop("environment")
            doc["workloads"][workload][f"trace_{side}"] = traced
            print(f"{workload} trace {side}: {json.dumps(traced)}", flush=True)
    doc["layer_b_us_per_step"] = layer_timings()
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
