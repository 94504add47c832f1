import json
import subprocess
import sys

import numpy as np
import pytest

from filament.cli import main, OUT_DIR_ENV
from filament.spectral import seeded_state, state_to_dict


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_kind(records, kind):
    return [r for r in records if r.get("record") == kind]


def test_simulate_psi_k(tmp_path):
    out = tmp_path / "run.jsonl"
    code = main([
        "simulate", "--init", "psi_k:2", "--sigma", "0", "--n-modes", "4",
        "--dt", "1e-3", "--t-end", "1.0", "--sample-every", "250",
        "--out", str(out),
    ])
    assert code == 0
    records = read_records(out)
    header = records[0]
    assert header["record"] == "header"
    assert header["config"]["scheme"] == "rk4"
    assert "convention" in header
    samples = by_kind(records, "sample")
    assert len(samples) == 5
    assert samples[0]["t"] == 0.0 and samples[-1]["t"] == 1.0
    for s in samples:
        assert s["E"] == pytest.approx(8.0, abs=1e-7)
        assert s["P"] == pytest.approx(2.0 * np.pi, rel=1e-8)
    summary = by_kind(records, "summary")[0]
    assert summary["phase_deviation"] <= 1e-8
    assert summary["modulus_deviation"] <= 1e-10


def test_simulate_zero_state(tmp_path):
    out = tmp_path / "zero.jsonl"
    code = main([
        "simulate", "--init", "zero", "--n-modes", "4", "--dt", "1e-2",
        "--t-end", "0.1", "--sample-every", "5", "--out", str(out),
    ])
    assert code == 0
    for s in by_kind(read_records(out), "sample"):
        assert s["E"] == 0.0 and s["P"] == 0.0 and s["M"] == 0.0


def test_simulate_two_mode_reports_both_rates(tmp_path):
    out = tmp_path / "tm.jsonl"
    code = main([
        "simulate", "--init", "two_mode:1:1:2", "--sigma", "1", "--n-modes", "6",
        "--dt", "1e-3", "--t-end", "1.0", "--sample-every", "100", "--out", str(out),
    ])
    assert code == 0
    summary = by_kind(read_records(out), "summary")[0]
    tm = summary["two_mode"]
    assert abs(tm["measured_rate"] - tm["rate_mode_k_only"]) <= 1e-6
    assert tm["rate_with_cross_terms"] == pytest.approx(6.0)


def test_simulate_two_mode_summary_uses_emitted_samples(tmp_path, monkeypatch):
    from filament import cli, waves
    from filament.integrator import StepperConfig
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.5, sample_every=50)
    expected = waves.two_mode_phase_report(0.8, 0.6, 3, 5, cfg).to_record()

    def forbidden(*args, **kwargs):
        raise AssertionError("simulate must not run on the CLI path")

    monkeypatch.setattr(cli, "simulate", forbidden)
    monkeypatch.setattr(waves, "simulate", forbidden)
    out = tmp_path / "tm.jsonl"
    code = main([
        "simulate", "--init", "two_mode:0.8:0.6:3", "--sigma", "1", "--n-modes", "5",
        "--dt", "1e-3", "--t-end", "0.5", "--sample-every", "50", "--out", str(out),
    ])
    assert code == 0
    got = by_kind(read_records(out), "summary")[0]["two_mode"]
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_simulate_snapshot_roundtrip(tmp_path):
    snap_dir = tmp_path / "snaps"
    out = tmp_path / "run.jsonl"
    code = main([
        "simulate", "--init", "random", "--seed", "5", "--n-modes", "8",
        "--dt", "1e-2", "--t-end", "0.1", "--sample-every", "5",
        "--snapshots", str(snap_dir), "--out", str(out),
    ])
    assert code == 0
    snaps = sorted(snap_dir.glob("snapshot-*.json"))
    assert len(snaps) == 3  # t = 0, 0.05, 0.1
    # restart from the final snapshot
    out2 = tmp_path / "restart.jsonl"
    code = main([
        "simulate", "--init", f"file:{snaps[-1]}", "--n-modes", "8",
        "--dt", "1e-2", "--t-end", "0.1", "--sample-every", "10", "--out", str(out2),
    ])
    assert code == 0


def test_simulate_rejects_bad_init(tmp_path):
    assert main(["simulate", "--init", "psi_k:9", "--n-modes", "4"]) == 1
    assert main(["simulate", "--init", "warp:3", "--n-modes", "4"]) == 1
    assert main(["simulate", "--init", "two_mode:1:1:2", "--sigma", "0",
                 "--n-modes", "4"]) == 1


def test_simulate_rejects_wrong_length_snapshot(tmp_path):
    bad = tmp_path / "bad.json"
    record = state_to_dict(seeded_state(0, 4, 1))
    record["coeffs"].append([0.0, 0.0])
    bad.write_text(json.dumps(record))
    code = main(["simulate", "--init", f"file:{bad}", "--n-modes", "4",
                 "--dt", "1e-2", "--t-end", "0.1"])
    assert code == 1


def test_simulate_step_failure_exit_code(tmp_path):
    out = tmp_path / "fail.jsonl"
    code = main([
        "simulate", "--init", "random", "--seed", "0", "--n-modes", "8",
        "--scheme", "midpoint", "--dt", "50", "--t-end", "50",
        "--sample-every", "1", "--out", str(out),
    ])
    assert code == 2
    records = read_records(out)
    errors = by_kind(records, "error")
    assert errors and errors[0]["error_type"] == "step_failure"
    assert by_kind(records, "sample")  # partial output was flushed first


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_simulate_blow_up_exits_step_failure(tmp_path):
    # rk4 overflows at this dt; the run must stop with an error record, not stream NaN
    out = tmp_path / "blowup.jsonl"
    code = main([
        "simulate", "--init", "random", "--n-modes", "256", "--dt", "1e-2",
        "--t-end", "0.1", "--sample-every", "5", "--out", str(out),
    ])
    assert code == 2
    with open(out) as fh:
        records = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    assert records[-1]["record"] == "error"
    assert records[-1]["error_type"] == "step_failure"
    assert "non-finite" in records[-1]["message"]
    assert all(np.isfinite(s["E"]) for s in by_kind(records, "sample"))
    assert not by_kind(records, "summary")


def test_simulate_energy_overflow_exits_step_failure(tmp_path):
    # finite coefficients whose quartic energy overflows: error record, never Infinity
    snap = tmp_path / "huge.json"
    snap.write_text(json.dumps({"sigma": 0, "n_modes": 2, "coeffs": [[1e80, 0.0], [0.0, 0.0]]}))
    out = tmp_path / "huge.jsonl"
    code = main(["simulate", "--init", f"file:{snap}", "--n-modes", "2", "--out", str(out)])
    assert code == 2
    with open(out) as fh:
        records = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    assert [r["record"] for r in records] == ["header", "error"]
    assert records[-1]["error_type"] == "step_failure" and records[-1]["t"] == 0.0


def test_simulate_hs_overflow_exits_step_failure(tmp_path):
    # finite coefficients whose H^200 norm overflows: error record, never Infinity
    out = tmp_path / "hs.jsonl"
    code = main(["simulate", "--n-modes", "64", "--hs", "200", "--t-end", "0.01",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 2
    with open(out) as fh:
        records = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    assert [r["record"] for r in records] == ["header", "error"]
    assert records[-1]["error_type"] == "step_failure" and "H200" in records[-1]["message"]


def test_simulate_large_hs_exponent_stays_finite(tmp_path):
    # H^100 of this state is ~2e178: representable, so no spurious overflow
    out = tmp_path / "hs.jsonl"
    code = main(["simulate", "--n-modes", "64", "--hs", "100", "--t-end", "0.01",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        records = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    samples = by_kind(records, "sample")
    assert samples and all(np.isfinite(s["H100"]) and s["H100"] > 1e170 for s in samples)


def test_stream_ends_with_error_record_after_header(tmp_path, capsys):
    # the snapshot directory cannot be made under a regular file: I/O error after the header
    blocker = tmp_path / "regular-file"
    blocker.write_text("")
    out = tmp_path / "run.jsonl"
    code = main(["simulate", "--n-modes", "4", "--dt", "1e-2", "--t-end", "0.1",
                 "--snapshots", str(blocker / "snaps"), "--out", str(out)])
    assert code == 3
    records = read_records(out)
    assert [r["record"] for r in records] == ["header", "error"]
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert records[-1]["error_type"] == err["error_type"] == "io"
    assert records[-1]["message"] == err["message"]


@pytest.mark.parametrize("record", [
    {"sigma": 0, "n_modes": True, "coeffs": [[1.0, 0.0]]},
    {"sigma": 0, "n_modes": 1, "coeffs": [[float("nan"), 0.0]]},
])
def test_invariants_rejects_bad_snapshot(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code = main(["invariants", "--init", f"file:{path}", "--out", str(tmp_path / "inv.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error_type"] == "validation"


def test_bad_flags_exit_validation():
    assert main(["simulate", "--sigma", "3"]) == 1
    assert main(["nonsense"]) == 1


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.jsonl"
    assert main(["verify", "--out", str(out)]) == 0
    records = read_records(out)
    checks = by_kind(records, "check")
    assert len(checks) > 50
    assert all(c["pass"] for c in checks)
    assert by_kind(records, "summary")[0]["failures"] == 0


def test_minimize_equality_target(tmp_path):
    out = tmp_path / "min.jsonl"
    two_pi = repr(2.0 * np.pi)
    code = main([
        "minimize", "--sigma", "1", "--n-modes", "8",
        "--mass-target", two_pi, "--momentum-target", two_pi,
        "--n-starts", "1", "--out", str(out),
    ])
    assert code == 0
    rec = by_kind(read_records(out), "minimizer")[0]
    assert abs(rec["energy"]) <= 1e-8
    assert rec["el_residual"] <= 1e-8
    assert max(rec["constraint_violation"]) <= 1e-10
    assert rec["state"]["n_modes"] == 8


def test_minimize_infeasible_target_exit_code():
    assert main([
        "minimize", "--sigma", "0", "--n-modes", "8",
        "--mass-target", "10.0", "--momentum-target", "1.0",
    ]) == 1


def test_wave_residual_psi_k(tmp_path):
    out = tmp_path / "wave.jsonl"
    code = main([
        "wave-residual", "--init", "psi_k:3", "--sigma", "0", "--n-modes", "4",
        "--speed", "0", "--omega", "9", "--out", str(out),
    ])
    assert code == 0
    rec = by_kind(read_records(out), "wave_residual")[0]
    assert rec["residual"] <= 1e-13
    assert rec["pairing_defect"] <= 1e-12


def test_invariants_report(tmp_path):
    out = tmp_path / "inv.jsonl"
    code = main([
        "invariants", "--init", "psi_k:2", "--sigma", "0", "--n-modes", "4",
        "--out", str(out),
    ])
    assert code == 0
    rec = by_kind(read_records(out), "invariants")[0]
    assert rec["energy_spectral"] == pytest.approx(8.0, abs=1e-12)
    assert rec["energy_lambda_form"] == pytest.approx(8.0, abs=1e-11)
    assert rec["energy_quadrature"] == pytest.approx(8.0, abs=1e-5)
    assert rec["momentum"] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert rec["mass"] == pytest.approx(np.pi, rel=1e-12)
    assert rec["H1"] == pytest.approx(2.0 * np.sqrt(2.0 * np.pi), rel=1e-12)


def test_bench_small(tmp_path):
    out = tmp_path / "bench.jsonl"
    code = main(["bench", "--sizes", "16", "32", "--repeats", "2", "--out", str(out)])
    assert code == 0
    rows = by_kind(read_records(out), "bench")
    assert [r["N"] for r in rows] == [16, 32]
    assert all(r["max_deviation"] <= 1e-11 for r in rows)
    assert all(r["t_direct"] > 0 and r["t_fast"] > 0 for r in rows)
    assert all(r["t_trunc"] > 0 and r["trunc_deviation"] <= 1e-12 for r in rows)


def test_selftest(tmp_path):
    out = tmp_path / "self.jsonl"
    assert main(["selftest", "--out", str(out)]) == 0
    assert by_kind(read_records(out), "summary")[0]["failures"] == 0


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "outdir"))
    assert main(["selftest"]) == 0
    records = read_records(tmp_path / "outdir" / "selftest.jsonl")
    assert records[0]["record"] == "header"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "filament", "invariants", "--init", "psi_k:1",
         "--sigma", "1", "--n-modes", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    rec = [r for r in lines if r.get("record") == "invariants"][0]
    assert rec["energy_spectral"] == pytest.approx(0.0, abs=1e-12)
