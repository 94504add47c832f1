"""Byte-identity check of two checkouts: one committed list of ``filament``
commands, run from each side's source and compared output for output.

    python3 tools/same_bytes.py --parent ../parent

Every command of ``COMMANDS`` runs once per side, one at a time, as
``python -m filament ...`` with that side's ``src`` alone on ``PYTHONPATH``,
``FILAMENT_OUT_DIR`` unset and no bytecode written.  Each run gets a fresh
empty directory at the same relative path under a temporary root, and names
its output files relative to it.  The seeded input snapshots are written
once, by this checkout, and both sides read them by the same absolute path.
The tool compares stdout, stderr, the exit code and every file a command
leaves, prints one JSON line that names each differing command and its first
differing line, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = "6.283185307179586"
PI = "3.141592653589793"
# name: (sigma, N, seed, amplitude) of a seeded_state snapshot, in the two workload shapes
SEEDED = {f"n{n}_seed{seed}": (sigma, n, seed, amplitude)
          for sigma, n, amplitude in ((0, 256, 0.5), (1, 32, 0.35)) for seed in (0, 7, 11)}
HUGE = '{"sigma": 0, "n_modes": 4, "coeffs": [[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}\n'
_CONSERVE = "simulate --scheme midpoint --sigma 0 --n-modes 256 --dt 0.0001 --t-end 0.01 --sample-every 5"
_CHECKPOINT = ("simulate --scheme rk4 --sigma 1 --n-modes 32 --dt 0.001 --t-end 1.0 --sample-every 100"
               " --snapshots snapshots")
# each a command line after "filament", with {name} for the path of an input snapshot
COMMANDS = (
    *(f"{_CONSERVE} --init file:{{n256_seed{seed}}}" for seed in (0, 7, 11)),
    *(f"{_CHECKPOINT} --init file:{{n32_seed{seed}}} --out run.jsonl" for seed in (0, 7, 11)),
    *(f"simulate --init psi_k:2 --n-modes 8 --t-end 0.2 --sample-every 50 --scheme {scheme}"
      for scheme in ("rk4", "midpoint")),
    *(f"simulate --init two_mode:1:1:2 --sigma 1 --n-modes 8 --t-end 0.2 --sample-every 50 --scheme {scheme}"
      for scheme in ("rk4", "midpoint")),
    "invariants --n-modes 16 --seed 3 --hs 0.5 1 2.5",
    "invariants --sigma 1 --n-modes 130 --seed 5 --hs -0.5 1 --out inv.jsonl",
    "wave-residual --init psi_k:3 --omega 6",
    "wave-residual --sigma 1 --init two_mode:1:1:2 --speed 0.5 --omega 2",
    "verify",
    # minimize: criterion 10's shape, psi_k and two_mode starts, both boundary ratios,
    # a cut descent, two starts that cannot reach their target, two that can, runs
    # at P* = 2 pi 1e-6 and 2 pi 1e8, and targets out of reach or too small
    f"minimize --n-modes 16 --mass-target {PI} --momentum-target {TWO_PI} --n-starts 2",
    f"minimize --n-modes 16 --init psi_k:2 --mass-target {PI} --momentum-target {TWO_PI}",
    f"minimize --sigma 1 --n-modes 8 --init two_mode:1:1:3 --mass-target 3.14159 --momentum-target {TWO_PI}",
    f"minimize --n-modes 8 --mass-target {TWO_PI} --momentum-target {TWO_PI} --n-starts 1",
    f"minimize --n-modes 8 --mass-target 0.7853981633974483 --momentum-target {TWO_PI} --n-starts 1",
    f"minimize --sigma 1 --n-modes 16 --mass-target 2.5 --momentum-target {TWO_PI} --max-iter 5",
    "minimize --n-modes 4 --init psi_k:3 --mass-target 1 --momentum-target 2",
    f"minimize --sigma 1 --n-modes 8 --init two_mode:1:1:3 --mass-target 1.9 --momentum-target {TWO_PI}",
    f"minimize --n-modes 8 --init psi_k:2 --mass-target 3.141592653594793 --momentum-target {TWO_PI}",
    f"minimize --sigma 1 --n-modes 8 --init two_mode:1:1:3 --mass-target 2.2 --momentum-target {TWO_PI}",
    "minimize --n-modes 8 --n-starts 1 --mass-target 4e-06 --momentum-target 6.283185307179586e-06",
    "minimize --n-modes 8 --n-starts 1 --mass-target 4e8 --momentum-target 628318530.7179586",
    "minimize --n-modes 4 --mass-target 3 --momentum-target 2",
    "minimize --n-modes 4 --n-starts 1 --mass-target 1e-300 --momentum-target 2e-300",
    # error paths and step grids
    "simulate --n-modes 4 --init file:{huge} --t-end 0.01",
    "invariants --n-modes 64 --hs 400",
    "simulate --init psi_k:x",
    "simulate --n-modes 4 --t-end 1e-9 --dt 4e-10 --sample-every 1",
    "simulate --n-modes 4 --dt 2 --t-end 1",
)


def write_inputs(directory: Path) -> dict:
    """The input snapshots, written once: name -> absolute path."""
    sys.path.insert(0, str(ROOT / "src"))
    from filament.spectral import seeded_state, write_snapshot

    paths = {name: str(directory / f"{name}.json") for name in (*SEEDED, "huge")}
    for name, (sigma, n, seed, amplitude) in SEEDED.items():
        write_snapshot(seeded_state(sigma, n, seed, amplitude=amplitude), paths[name])
    Path(paths["huge"]).write_text(HUGE, encoding="utf-8")
    return paths


def run(src: Path, argv: list, cwd: Path) -> dict:
    """Exit code, stdout, stderr and every file left in ``cwd`` of one command."""
    cwd.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "FILAMENT_OUT_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "filament", *argv], cwd=cwd, env=env,
                          capture_output=True)
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def first_difference(old: dict, new: dict) -> dict | None:
    """Where two runs first differ: the exit codes if they do, then the first
    differing line of stdout, stderr or an output file (None when absent)."""
    found = {"exit": [old["exit"], new["exit"]]} if old["exit"] != new["exit"] else {}
    outputs = [("stdout", old["stdout"], new["stdout"]), ("stderr", old["stderr"], new["stderr"])]
    outputs += [(f"file {name}", old["files"].get(name), new["files"].get(name))
                for name in sorted(old["files"].keys() | new["files"].keys())]
    for where, a, b in outputs:
        if a != b:
            lines_a = [] if a is None else a.decode(errors="replace").splitlines()
            lines_b = [] if b is None else b.decode(errors="replace").splitlines()
            i = next((i for i, pair in enumerate(zip(lines_a, lines_b)) if pair[0] != pair[1]),
                     min(len(lines_a), len(lines_b)))
            found.update({"in": where, "line": i + 1,
                          "parent": lines_a[i] if i < len(lines_a) else None,
                          "change": lines_b[i] if i < len(lines_b) else None})
            break
    return found or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout to compare with; its src/ is run")
    args = parser.parse_args(argv)
    differences = []
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        root = Path(tmp)
        (root / "inputs").mkdir()
        inputs = write_inputs(root / "inputs")
        for i, command in enumerate(COMMANDS):
            words = shlex.split(command.format_map(inputs))
            old = run(args.parent.resolve() / "src", words, root / "parent" / str(i))
            new = run(ROOT / "src", words, root / "change" / str(i))
            found = first_difference(old, new)
            if found:
                differences.append({"command": "filament " + shlex.join(words), **found})
    print(json.dumps({"parent": str(args.parent), "commands": len(COMMANDS),
                      "identical": len(COMMANDS) - len(differences), "differences": differences}))
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
