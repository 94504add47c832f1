"""Strict stream parsing, output gates and timing statistics.

Nothing here imports the package under test: the gates see only what a
user of the command line sees (exit code, JSONL records, snapshot files),
plus an energy callable for the minimizer cross-check.
"""

from __future__ import annotations

import json
import math


class StreamError(ValueError):
    """A stream that a strict JSON reader or the record grammar rejects."""


def _reject_constant(token: str):
    raise StreamError(f"non-finite token {token} in stream")


def _strict_object(text, key: str, what: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise StreamError(f"malformed {what}: {exc}") from exc
    if not isinstance(obj, dict) or key not in obj:
        raise StreamError(f"{what} is not an object with a {key!r} field")
    return obj


def parse_record(line: str | bytes) -> dict:
    """One JSONL record, rejecting NaN/Infinity (which ``json.loads`` accepts)."""
    return _strict_object(line, "record", "record")


def parse_snapshot(text: str) -> dict:
    """A snapshot file's object, under the same strict reader."""
    return _strict_object(text, "coeffs", "snapshot")


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def gaps(stamps) -> list[float]:
    """Differences between consecutive arrival times."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def tail_summary(values) -> dict:
    """p50, p90, the sample count and how many samples lie beyond p90."""
    p90 = percentile(values, 90.0)
    return {
        "p50": median(values),
        "p90": p90,
        "count": len(values),
        "beyond_p90": sum(1 for v in values if v > p90),
    }


# ---------------------------------------------------------------------------
# gates: each returns a list of failure reasons, empty when the job passed

def check_exit(returncode: int, records: list[dict], final: str) -> list[str]:
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    if not records or records[0]["record"] != "header":
        reasons.append("stream does not start with a header record")
    if not records or records[-1]["record"] != final:
        reasons.append(f"stream does not end with a {final!r} record")
    return reasons


def relative_drift(samples: list[dict], key: str) -> float:
    ref = samples[0][key]
    return max(abs(s[key] - ref) for s in samples) / max(abs(ref), 1e-300)


def check_samples(samples: list[dict], n_expected: int, t_end: float,
                  drift_tol: dict, a1_tol: float | None) -> list[str]:
    """Sample count, time axis and conservation drift relative to t = 0."""
    if len(samples) != n_expected:
        return [f"{len(samples)} sample records, expected {n_expected}"]
    reasons = []
    times = [s["t"] for s in samples]
    if any(b <= a for a, b in zip(times, times[1:])) or abs(times[-1] - t_end) > 1e-9 * t_end:
        reasons.append("sample times are not increasing up to t_end")
    for key, tol in drift_tol.items():
        drift = relative_drift(samples, key)
        if not drift <= tol:
            reasons.append(f"{key} drift {drift:.3e} exceeds {tol:g}")
    if a1_tol is not None:
        a1 = [complex(s["a1_re"], s["a1_im"]) for s in samples]
        drift = max(abs(z - a1[0]) for z in a1)
        if not drift <= a1_tol:
            reasons.append(f"a1 drift {drift:.3e} exceeds {a1_tol:g}")
    return reasons


def snapshot_momentum(snapshot: dict) -> float:
    """P = 2 pi sum |a_k|^2 of a snapshot object."""
    return 2.0 * math.pi * sum(re * re + im * im for re, im in snapshot["coeffs"])


def check_snapshots(snapshots: list[dict], samples: list[dict], rtol: float = 1e-12) -> list[str]:
    """One snapshot per sample, the last one holding the last sample's state."""
    if len(snapshots) != len(samples):
        return [f"{len(snapshots)} snapshots for {len(samples)} samples"]
    p_file = snapshot_momentum(snapshots[-1])
    p_stream = samples[-1]["P"]
    if not abs(p_file - p_stream) <= rtol * abs(p_stream):
        return [f"last snapshot has P = {p_file!r}, stream says {p_stream!r}"]
    return []


def check_minimizer(result: dict, energy_of_state, violation_tol: float = 1e-10,
                    energy_rtol: float = 1e-11) -> list[str]:
    """Constraints met, and the reported energy matches an independent route
    (``energy_of_state`` maps the returned snapshot object to an energy)."""
    reasons = []
    violation = max(result["constraint_violation"])
    if not violation <= violation_tol:
        reasons.append(f"constraint violation {violation:.3e} exceeds {violation_tol:g}")
    check = energy_of_state(result["state"])
    if not abs(result["energy"] - check) <= energy_rtol * max(abs(check), 1e-300):
        reasons.append(f"reported energy {result['energy']!r} != independent route {check!r}")
    return reasons
