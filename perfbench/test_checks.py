"""Self-tests of the benchmark's gates and statistics on fabricated streams.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math

import pytest

import checks
import run

WORKLOAD = run.WORKLOADS["checkpoint-n32"]


def stream(drift=0.0, energy0=1.0):
    """A well-formed checkpoint-n32 stream; ``drift`` perturbs the last E."""
    n = 11
    lines = [{"record": "header", "tool": "filament"}]
    for i in range(n):
        energy = energy0 * (1.0 + (drift if i == n - 1 else 0.0))
        lines.append({"record": "sample", "t": i * 0.1, "E": energy, "P": 2.0, "M": 1.5,
                      "a1_re": 0.1, "a1_im": -0.2})
    lines.append({"record": "summary", "t_end": 1.0})
    return [json.dumps(r) + "\n" for r in lines]


def finish(lines, returncode=0):
    stamps = [0.5 + 0.05 * i for i in range(len(lines))]
    workload = dataclasses.replace(WORKLOAD, snapshots=False)
    return run._finish(workload, None, None, returncode, lines, stamps, start=0.0)


def test_well_formed_stream_passes():
    job = finish(stream())
    assert job.ok, job.reasons
    assert job.setup_s == pytest.approx(0.5)
    assert job.wall_s == pytest.approx(0.05 * 12)
    assert job.gaps_s(("sample",)) == pytest.approx([0.05] * 10)


def test_nan_token_fails_the_job():
    lines = stream()
    lines[3] = lines[3].replace('"E": 1.0', '"E": NaN')
    assert "NaN" in lines[3]
    job = finish(lines)
    assert not job.ok
    assert "non-finite token NaN" in job.reasons[0]
    with pytest.raises(checks.StreamError):
        checks.parse_record('{"record": "sample", "P": -Infinity}')


def test_drift_over_bound_fails_the_job():
    assert finish(stream(drift=0.9e-7)).ok
    job = finish(stream(drift=2e-7))
    assert job.reasons == ["E drift 2.000e-07 exceeds 1e-07"]


def test_nonzero_exit_and_missing_final_record_fail_the_job():
    assert finish(stream(), returncode=2).reasons == ["exit code 2"]
    assert finish(stream()[:-1]).reasons == ["stream does not end with a 'summary' record"]
    assert not finish([]).ok


def test_wrong_sample_count_fails_the_job():
    lines = stream()
    del lines[5]
    assert finish(lines).reasons == ["10 sample records, expected 11"]


def test_snapshot_gate():
    samples = [{"P": 2.0 * math.pi * 0.25}]
    snap = checks.parse_snapshot('{"sigma": 0, "n_modes": 1, "coeffs": [[0.3, 0.4]]}')
    assert checks.check_snapshots([snap], samples) == []
    assert checks.check_snapshots([], samples) == ["0 snapshots for 1 samples"]
    with pytest.raises(checks.StreamError):
        checks.parse_snapshot('{"sigma": 0, "n_modes": 1, "coeffs": [[NaN, 0.0]]}')


def test_minimizer_gate():
    result = {"energy": 8.0, "constraint_violation": [1e-14, 2e-14], "state": {}}
    assert checks.check_minimizer(result, lambda s: 8.0 * (1 + 1e-12)) == []
    assert len(checks.check_minimizer(result, lambda s: 8.0 * (1 + 1e-10))) == 1
    result["constraint_violation"] = [1e-14, 1e-9]
    assert checks.check_minimizer(result, lambda s: 8.0) == [
        "constraint violation 1.000e-09 exceeds 1e-10"]


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert checks.percentile(values, 50.0) == 3.0
    assert checks.percentile(values, 90.0) == pytest.approx(4.6)
    assert checks.percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        checks.percentile([], 50.0)


def test_gaps_and_tail_summary_count():
    assert checks.gaps([1.0, 1.5, 3.0]) == [0.5, 1.5]
    assert checks.gaps([1.0]) == []
    summary = checks.tail_summary([float(i) for i in range(1, 101)])
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    assert summary["beyond_p90"] == 10
