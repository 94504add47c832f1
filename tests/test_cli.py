import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from filament.cli import _Writer, _scheme_name, _snapshot_name, build_parser, main, OUT_DIR_ENV
from filament.integrator import _MAX_STEPS, StepFailure, StepperConfig, simulate
from filament.invariants import mass, momentum
from filament.nonlinearity import _TOEPLITZ_MAX_N
from filament.spectral import seeded_state, state_to_dict, write_snapshot


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
    assert summary["counters"] == {"rhs_evals": 4 * 1000, "midpoint_max_iterations": 0}


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


def test_snapshot_names_sort_in_step_order(tmp_path):
    # padded to 8 digits, snapshot-100000000 sorted before snapshot-99999999;
    # the padding now covers every step index a run may reach
    names = [_snapshot_name(i) for i in (0, 5, 99_999_999, 10**8, _MAX_STEPS)]
    assert sorted(names) == names
    assert len({len(name) for name in names}) == 1
    snap_dir = tmp_path / "snaps"
    code = main([
        "simulate", "--init", "random", "--n-modes", "4", "--dt", "1e-2", "--t-end", "0.1",
        "--sample-every", "5", "--snapshots", str(snap_dir), "--out", str(tmp_path / "run.jsonl"),
    ])
    assert code == 0
    assert sorted(p.name for p in snap_dir.iterdir()) == [_snapshot_name(i) for i in (0, 5, 10)]


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
    assert "dt = 50 is too large for this state, reduce it" in errors[0]["message"]
    assert by_kind(records, "sample")  # partial output was flushed first


def test_midpoint_rhs_evaluations_per_step_on_the_conserve_shape(tmp_path):
    # perfbench's conserve-n256 job at seed 0, counted: solves without the
    # predictor (each started from the state, its first iterate the Euler
    # guess) took 6.00 evaluations per step
    snap = tmp_path / "state.json"
    write_snapshot(seeded_state(0, 256, 0, amplitude=0.5), snap)
    out = tmp_path / "run.jsonl"
    assert main(["simulate", "--scheme", "midpoint", "--n-modes", "256", "--dt", "1e-4",
                 "--t-end", "1e-2", "--sample-every", "5", "--init", f"file:{snap}",
                 "--out", str(out)]) == 0
    counters = by_kind(read_records(out), "summary")[0]["counters"]
    assert counters["rhs_evals"] / 100 <= 3.5
    assert counters["midpoint_max_iterations"] >= 1


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


@pytest.mark.parametrize("argv", [
    ["--init", "random", "--n-modes", "256", "--dt", "1e-2", "--t-end", "0.1",
     "--sample-every", "5"],  # rk4 blow-up
    ["--init", "random", "--n-modes", "8", "--scheme", "midpoint", "--dt", "50",
     "--t-end", "50", "--sample-every", "1"],  # midpoint non-convergence
    ["--n-modes", "64", "--hs", "200", "--t-end", "0.01", "--dt", "1e-3"],  # H^200 overflow
])
def test_simulate_step_failure_record_on_stderr(tmp_path, capsys, argv):
    out = tmp_path / "fail.jsonl"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == read_records(out)[-1]
    assert err["error_type"] == "step_failure"


@pytest.mark.parametrize("argv, code, error_type, records", [
    (["minimize", "--sigma", "0", "--n-modes", "4", "--mass-target", "1e104",
      "--momentum-target", "1e104", "--max-iter", "5", "--n-starts", "1"],
     1, "validation", []),  # the squared cubic gradient would overflow in the descent
    (["wave-residual", "--init", "psi_k:3", "--speed", "1e308", "--omega", "1e308"],
     2, "numerical", ["header", "error"]),  # an infinite residual reaches the stream
    (["simulate", "--sigma", "1", "--n-modes", "4", "--init", "two_mode:nan:1:2"],
     1, "validation", []),  # a non-finite amplitude is rejected before the header
    (["minimize", "--sigma", "1", "--n-modes", "4", "--mass-target", "1e250",
      "--momentum-target", "1e250", "--max-iter", "5", "--n-starts", "1"],
     1, "validation", []),  # E_1 sees no mode 1, but the misfit would cube |a| ~ 1e125
])
def test_failures_end_in_json_without_traceback(tmp_path, argv, code, error_type, records):
    # a child process: these inputs raise numpy RuntimeWarnings, which fail tests in-process
    out = tmp_path / "run.jsonl"
    proc = subprocess.run([sys.executable, "-m", "filament", *argv, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1  # no numpy warning ahead of the record
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["record"] == "error" and err["error_type"] == error_type
    assert out.exists() == bool(records)  # a run rejected before its header writes no file
    stream = read_records(out) if records else []
    assert [r["record"] for r in stream] == records
    assert stream[-1:] in ([], [err])


def test_simulate_momentum_overflow_stays_step_failure(tmp_path, capsys):
    # |a|^2 overflows P and M: the sample fails as step_failure, not as a numpy error
    snap = tmp_path / "huge.json"
    snap.write_text(json.dumps({"sigma": 0, "n_modes": 2, "coeffs": [[1e200, 0.0], [0.0, 0.0]]}))
    out = tmp_path / "huge.jsonl"
    assert main(["simulate", "--init", f"file:{snap}", "--n-modes", "2", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == read_records(out)[-1]
    assert err["error_type"] == "step_failure" and "P, M" in err["message"]


@pytest.mark.parametrize("init, code", [("psi_k:abc", 1), ("file:/nonexistent/snapshot.json", 3),
                                        ("zero", 1), ("psi_k:", 1), ("two_mode:x:1:2", 1),
                                        ("two_mode:1:1:y", 1)])
def test_minimize_bad_init_fails_before_header(tmp_path, capsys, init, code):
    out = tmp_path / "min.jsonl"
    assert main(["minimize", "--mass-target", "1", "--momentum-target", "2", "--n-modes", "4",
                 "--init", init, "--out", str(out)]) == code
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["record"] == "error"
    # a malformed form is named with its grammar, not with Python's parse error
    # ("invalid literal for int()", "complex() arg is a malformed string")
    grammar = {"psi_k": "psi_k:<k>", "two_mode": "two_mode:<A>:<B>:<k>"}.get(init.split(":")[0])
    if grammar:
        assert grammar in err["message"] and repr(init) in err["message"]


def test_minimize_target_overflow_rejected_before_header(tmp_path, capsys):
    out = tmp_path / "min.jsonl"
    assert main(["minimize", "--sigma", "0", "--n-modes", "4", "--mass-target", "1e300",
                 "--momentum-target", "2e300", "--max-iter", "5", "--n-starts", "1",
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation"
    assert "mass target 1e+300" in err["message"] and "momentum target 2e+300" in err["message"]


def test_minimize_projection_stall_target_runs(tmp_path):
    # the projection line search used to stall at a 5.2e-13 residual here (exit 2)
    out = tmp_path / "min.jsonl"
    assert main(["minimize", "--sigma", "0", "--n-modes", "4", "--mass-target", "6.25e7",
                 "--momentum-target", "1e8", "--out", str(out)]) == 0
    rec = by_kind(read_records(out), "minimizer")[0]
    assert max(rec["constraint_violation"]) <= 1e-12


@pytest.mark.parametrize("p_star", ["1e8", "1e20", "1e100", "1e102", "1e104", "1e110"])
@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_minimize_huge_targets_run_or_fail_validation(tmp_path, capsys, n, sigma, p_star):
    # each run ends with a minimizer record, or is refused before the header; never numerical
    out = tmp_path / "min.jsonl"
    code = main(["minimize", "--sigma", str(sigma), "--n-modes", str(n),
                 "--mass-target", repr(float(p_star) / 2), "--momentum-target", p_star,
                 "--max-iter", "5", "--n-starts", "1", "--out", str(out)])
    if code == 0:
        assert [r["record"] for r in read_records(out)] == ["header", "minimizer"]
    else:
        assert code == 1 and not out.exists()
        assert _stderr_error(capsys)["error_type"] == "validation"


@pytest.mark.parametrize("sigma, mass, momentum", [
    (0, "625", "1000"),  # E above ~5e4 made `converged` a numpy bool, which json refused
    (1, "1e200", "1e200"),  # all on mode 1, which E_1 does not see: E = 0
])
def test_minimize_large_targets_that_fit_still_run(tmp_path, sigma, mass, momentum):
    out = tmp_path / "min.jsonl"
    assert main(["minimize", "--sigma", str(sigma), "--n-modes", "4", "--mass-target", mass,
                 "--momentum-target", momentum, "--max-iter", "5", "--n-starts", "1",
                 "--out", str(out)]) == 0
    assert by_kind(read_records(out), "minimizer")[0]["converged"] in (True, False)


def test_emit_refuses_non_finite_values(tmp_path):
    out = tmp_path / "run.jsonl"
    with _Writer(str(out), "simulate") as writer:
        with pytest.raises(ArithmeticError, match="sample"):
            writer.emit({"record": "sample", "E": float("nan")})
    assert out.read_text() == ""


def test_invariants_n_quad_below_8n_is_rejected(tmp_path, capsys):
    out = tmp_path / "inv.jsonl"
    assert main(["invariants", "--n-modes", "2", "--n-quad", "8", "--init", "psi_k:2",
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "n_quad must be at least 8*n_modes" in err["message"]
    assert not out.exists()  # rejected before the header: no stream at all


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "0.3", "--t-end", "1"],
    ["minimize", "--mass-target", "3", "--momentum-target", "2"],
])
def test_rejected_run_leaves_an_existing_out_file_as_it_was(tmp_path, capsys, argv):
    # the file used to be truncated before the arguments were validated
    out = tmp_path / "prior.jsonl"
    out.write_bytes(b'{"record": "header"}\nprior content\n')
    assert main(argv + ["--out", str(out)]) == 1
    assert _stderr_error(capsys)["error_type"] == "validation"
    assert out.read_bytes() == b'{"record": "header"}\nprior content\n'


def test_invariants_default_n_quad_follows_n_modes(tmp_path):
    out = tmp_path / "inv.jsonl"
    assert main(["invariants", "--n-modes", "130", "--out", str(out)]) == 0
    assert read_records(out)[0]["config"]["n_quad"] == 1040


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


def test_deeply_nested_snapshot_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)  # beyond json.dumps, and the decoder's recursion
    out = tmp_path / "inv.jsonl"
    assert main(["invariants", "--init", f"file:{path}", "--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and "nested" in err["message"]


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
    # the README states the count
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`verify`\s+streams (\d+) checks", readme)
    assert stated and int(stated.group(1)) == by_kind(records, "summary")[0]["checks"]
    # each form of the truncated kernel keeps a row for each sigma: Toeplitz
    # at 32 and at its last size, the grid just above (sigma = 1 runs N - 1 modes)
    names = {c["name"] for c in checks}
    for n in (32, _TOEPLITZ_MAX_N, _TOEPLITZ_MAX_N + 1):
        for sigma in (0, 1):
            assert f"route trunc N={n} sigma={sigma} seed=0" in names
            assert f"route rhs N={n} sigma={sigma} seed=0" in names
    # the FFT route runs the kernel on 2N - 1 modes: Toeplitz up to N = n_last,
    # the grid from n_last + 1
    n_last = (_TOEPLITZ_MAX_N + 1) // 2
    assert 2 * n_last - 1 <= _TOEPLITZ_MAX_N < 2 * (n_last + 1) - 1
    for n in (n_last, n_last + 1):
        for sigma in (0, 1):
            assert f"route fast N={n} sigma={sigma} seed=0" in names


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


def test_minimize_takes_n_from_a_snapshot_init(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    write_snapshot(seeded_state(0, 4, 3), str(snap))
    out = tmp_path / "min.jsonl"
    # --n-modes keeps its default, 32: the snapshot's 4 modes set N
    argv = ["minimize", "--init", f"file:{snap}", "--n-starts", "1", "--out", str(out)]
    assert main(argv + ["--mass-target", "2", "--momentum-target", "4"]) == 0
    records = read_records(out)
    assert records[0]["config"]["n_modes"] == 4
    assert records[0]["config"]["init"] == f"file:{snap}"
    rec = by_kind(records, "minimizer")[0]
    assert rec["state"]["n_modes"] == 4
    assert max(rec["constraint_violation"]) <= 1e-10
    # M*/P* = 0.1 is feasible at 32 modes but below 1/N at the snapshot's 4
    out.unlink()
    assert main(argv + ["--mass-target", "0.4", "--momentum-target", "4"]) == 1
    assert not out.exists()
    assert "truncation at 4 modes" in _stderr_error(capsys)["message"]


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


def test_selftest(tmp_path):
    out = tmp_path / "self.jsonl"
    assert main(["selftest", "--out", str(out)]) == 0
    assert by_kind(read_records(out), "summary")[0]["failures"] == 0


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "outdir"))
    assert main(["selftest"]) == 0
    records = read_records(tmp_path / "outdir" / "selftest.jsonl")
    assert records[0]["record"] == "header"


def _modules_loaded_by_import(prefix):
    """The modules under ``prefix`` that importing the CLI loads, in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import filament, filament.cli, sys; "
         f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.')))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_scipy():
    assert _modules_loaded_by_import("scipy") == "[]"


def test_import_does_not_load_numpy_fft():
    # numpy loads numpy.fft lazily; the grid form resolves its transforms on
    # first use, so start-up (and the stream header) does not wait for them
    assert _modules_loaded_by_import("numpy.fft") == "[]"


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


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--dt", "nan"], "--dt"),
    (["simulate", "--t-end", "inf"], "--t-end"),
    (["simulate", "--hs", "1", "inf"], "--hs"),
    (["minimize", "--mass-target", "inf", "--momentum-target", "1"], "--mass-target"),
    (["minimize", "--mass-target", "1", "--momentum-target", "inf"], "--momentum-target"),
    (["minimize", "--mass-target", "1", "--momentum-target", "2", "--tol=-inf"], "--tol"),
    (["wave-residual", "--init", "psi_k:1", "--speed", "inf"], "--speed"),
    (["wave-residual", "--init", "psi_k:1", "--omega", "nan"], "--omega"),
    (["invariants", "--hs", "inf"], "--hs"),
])
def test_non_finite_float_flags_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "run.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()  # rejected before any stream or header
    err = _stderr_error(capsys)
    assert err["record"] == "error" and err["error_type"] == "validation"
    assert flag in err["message"] and "finite" in err["message"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "abc"],
    ["simulate", "--bogus"],
    ["bench"],  # deleted: verify runs its checks, perfbench its timings
])
def test_parse_errors_are_json(capsys, argv):
    assert main(argv) == 1
    err = _stderr_error(capsys)
    assert err["record"] == "error" and err["error_type"] == "validation"
    assert argv[-1] in err["message"]


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--sample-every", "0"], "--sample-every"),
    (["minimize", "--mass-target", "1", "--momentum-target", "2", "--max-iter", "0"], "--max-iter"),
    (["simulate", "--n-modes", "0"], "--n-modes"),
    (["invariants", "--n-modes", "-3"], "--n-modes"),
    (["verify", "--seed", "-1"], "--seed"),
    (["invariants", "--n-quad", "0"], "--n-quad"),
    (["minimize", "--mass-target", "1", "--momentum-target", "2", "--seed", "-1"], "--seed"),
])
def test_non_positive_counts_rejected_before_header(tmp_path, capsys, argv, flag):
    out = tmp_path / "run.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and flag in err["message"]


def test_negative_minimize_tolerance_rejected_before_header(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    argv = ["minimize", "--mass-target", "1", "--momentum-target", "2", "--tol=-1"]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()  # no header: the options are checked first
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and "grad_tol" in err["message"]


@pytest.mark.parametrize("argv", [["simulate", "--hs", "1", "-2"], ["invariants", "--hs", "-2"]])
def test_hs_below_minus_one_rejected_at_parse_time(tmp_path, capsys, argv):
    out = tmp_path / "run.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and "--hs" in err["message"]


@pytest.mark.parametrize("argv, values", [
    (["simulate", "--hs", "0.5", "0.5000001"], ("0.5", "0.5000001")),
    (["invariants", "--hs", "1.0000001", "1.0000002"], ("1.0000001", "1.0000002")),
    (["invariants", "--hs", "0", "-0"], ("0.0", "-0.0")),
])
def test_hs_exponents_sharing_a_field_rejected_before_header(tmp_path, capsys, argv, values):
    # both norms would be written to one field H{s:g}, the second overwriting
    # the first while the header lists both exponents
    out = tmp_path / "run.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and "--hs" in err["message"]
    assert all(v in err["message"] for v in values)


def test_hs_fields_name_every_exponent(tmp_path):
    out = tmp_path / "inv.jsonl"
    assert main(["invariants", "--n-modes", "4", "--hs", "0.5", "-0.25", "1", "--out", str(out)]) == 0
    rec = by_kind(read_records(out), "invariants")[0]
    assert {k for k in rec if k.startswith("H")} == {"H0.5", "H-0.25", "H1"}


def test_selftest_is_verify(tmp_path):
    streams = {}
    for name in ("verify", "selftest"):
        out = tmp_path / f"{name}.jsonl"
        assert main([name, "--out", str(out)]) == 0
        records = read_records(out)
        assert records[0]["subcommand"] == name
        streams[name] = [c["name"] for c in by_kind(records, "check")]
    assert streams["selftest"] == streams["verify"]
    assert len(set(streams["verify"])) == len(streams["verify"])
    assert "rk4 psi_2 phase t=0.2 sigma=0" in streams["verify"]
    assert "minimizer zero energy sigma=1 M=P=2pi" in streams["verify"]


def test_readme_command_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh")[1:]]
    commands = [line.split("#", 1)[0].split() for block in blocks for line in block.splitlines()
                if line.startswith("filament ")]
    assert len(commands) >= 8
    parser = build_parser()
    for words in commands:
        parser.parse_args(words[1:])  # raises on a renamed command or flag
    # every long flag of every subcommand is documented
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in subparsers.choices.values() for action in sub._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    missing = sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme))
    assert not missing, f"flags missing from README.md: {missing}"
    # the flags table has a row for each subcommand and alias, and no other
    table = readme.split("| subcommand | flags (default) |", 1)[1].split("\n\n", 1)[0]
    listed = [name for row in table.splitlines()[2:]
              for name in re.findall(r"`([\w-]+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(subparsers.choices)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-modes", "4", "--dt", "1e-300", "--t-end", "1"],  # 1e300 steps
    ["simulate", "--dt", "0.3", "--t-end", "1"],  # not an integer number of steps
])
def test_malformed_step_grid_rejected_before_header(capsys, monkeypatch, argv):
    from filament import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the run must not start")

    monkeypatch.setattr(cli, "step", forbidden)
    monkeypatch.setattr(cli, "invariant_report", forbidden)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error_type"] == "validation"


@pytest.mark.parametrize("argv", [["verify", "--sigma", "1"]])
def test_unread_state_flags_rejected(tmp_path, capsys, argv):
    out = tmp_path / "run.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = _stderr_error(capsys)
    assert err["error_type"] == "validation" and argv[1] in err["message"]


def test_trajectory_records_match_cli_samples(tmp_path):
    from filament.integrator import StepperConfig, simulate

    out = tmp_path / "run.jsonl"
    assert main(["simulate", "--sigma", "1", "--n-modes", "6", "--seed", "3", "--dt", "1e-3",
                 "--t-end", "0.01", "--sample-every", "3", "--hs", "1", "2.5",
                 "--out", str(out)]) == 0
    samples = [{k: v for k, v in r.items() if k != "record"}
               for r in by_kind(read_records(out), "sample")]
    cfg = StepperConfig(scheme="rk4", dt=1e-3, t_end=0.01, sample_every=3)
    assert simulate(seeded_state(1, 6, 3), cfg, h_s=(1.0, 2.5)).records() == samples


def _traced_span_counts(monkeypatch, argv):
    """Span counts of one ``main(argv)`` under perfbench/run.py's tracer,
    which traces `simulate` by patching names in filament.cli."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    run.load_package()
    tracer = run.Tracer()
    with tracer.patched():
        assert main(argv) == 0
    counts = {}
    for span in tracer.spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return counts


def test_benchmark_trace_points_still_see_the_run(tmp_path, monkeypatch):
    counts = _traced_span_counts(monkeypatch, [
        "simulate", "--n-modes", "4", "--dt", "1e-3", "--t-end", "4e-3",
        "--sample-every", "2", "--snapshots", str(tmp_path / "snaps"),
        "--out", str(tmp_path / "run.jsonl")])
    assert counts == {"step": 4, "invariant_report": 3, "write_snapshot": 3}


def test_benchmark_trace_points_see_each_midpoint_step(tmp_path, monkeypatch):
    # the traced conserve-n256 run: one `step` span per midpoint step, on the grid kernel
    counts = _traced_span_counts(monkeypatch, [
        "simulate", "--scheme", "midpoint", "--n-modes", "256", "--dt", "1e-4",
        "--t-end", "5e-4", "--sample-every", "2", "--out", str(tmp_path / "run.jsonl")])
    assert counts == {"step": 5, "invariant_report": 4}


@pytest.mark.parametrize("loop", ["cli", "library"])
@pytest.mark.parametrize("argv, dt, n_steps, snapshots", [
    (["--n-modes", "4", "--dt", "1e-3", "--t-end", "4e-3", "--sample-every", "2"], 1e-3, 4, True),
    (["--scheme", "midpoint", "--n-modes", "256", "--dt", "1e-4", "--t-end", "5e-4",
      "--sample-every", "2"], 1e-4, 5, False),
])
def test_simulate_calls_the_bound_step_function_once_per_step(tmp_path, monkeypatch,
                                                              argv, dt, n_steps, snapshots, loop):
    # the seam a tracer or a per-sample block wraps: each call of the function
    # that StepMemory._bind returns is one whole step, from that step's start,
    # and each run binds it once
    from filament import integrator

    binds, starts = [], []
    bind = integrator.StepMemory._bind

    def recording_bind(memory, n, sigma, config):
        binds.append(n)
        advance = bind(memory, n, sigma, config)

        def recorded(a, t):
            starts.append(t)
            return advance(a, t)
        return recorded

    monkeypatch.setattr(integrator.StepMemory, "_bind", recording_bind)
    if loop == "library":
        args = build_parser().parse_args(["simulate", *argv])
        simulate(seeded_state(args.sigma, args.n_modes, 0), StepperConfig(
            _scheme_name(args.scheme), args.dt, args.t_end, args.sample_every))
    else:
        if snapshots:
            argv = argv + ["--snapshots", str(tmp_path / "snaps")]
        assert main(["simulate", *argv, "--out", str(tmp_path / "run.jsonl")]) == 0
    assert len(binds) == 1
    assert starts == [(i - 1) * dt for i in range(1, n_steps + 1)]


@pytest.mark.parametrize("scheme, message", [("rk4", "non-finite coefficients"),
                                             ("midpoint", "did not converge")],
                         ids=["rk4", "midpoint"])
def test_a_step_failing_inside_a_block_keeps_its_own_t(tmp_path, monkeypatch, scheme, message):
    # the third step, from t = 0.002, gets a nan input in the middle of the first
    # 5-step sample interval; its StepFailure names that step's start
    from filament import integrator

    calls = []  # counted across binds, whether a loop binds once per run or per step
    bind = integrator.StepMemory._bind

    def poisoning_bind(memory, n, sigma, config):
        advance = bind(memory, n, sigma, config)

        def poisoned(a, t):
            calls.append(t)
            return advance(np.full_like(a, np.nan) if len(calls) == 3 else a, t)
        return poisoned

    monkeypatch.setattr(integrator.StepMemory, "_bind", poisoning_bind)
    config = StepperConfig(_scheme_name(scheme), 1e-3, 1e-2, 5)
    with pytest.raises(StepFailure, match=message) as info:
        simulate(seeded_state(0, 4, 1), config)
    assert info.value.t == 0.002

    calls.clear()
    out = tmp_path / "run.jsonl"
    assert main(["simulate", "--scheme", scheme, "--n-modes", "4", "--dt", "1e-3",
                 "--t-end", "1e-2", "--sample-every", "5", "--out", str(out)]) == 2
    stream = read_records(out)
    assert [r["record"] for r in stream] == ["header", "sample", "error"]
    assert stream[-1]["t"] == 0.002 and message in stream[-1]["message"]


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
@pytest.mark.parametrize("n_modes", [16, 130])  # the Toeplitz and the grid kernel
@pytest.mark.parametrize("sigma", [0, 1])
def test_simulate_samples_are_the_library_records(tmp_path, scheme, n_modes, sigma):
    # the CLI's stepping loop and simulate() give the same records, bit for bit
    out = tmp_path / "run.jsonl"
    assert main(["simulate", "--scheme", scheme, "--sigma", str(sigma),
                 "--n-modes", str(n_modes), "--init", "random", "--seed", "3",
                 "--dt", "1e-4", "--t-end", "1e-3", "--sample-every", "3",
                 "--hs", "1", "--out", str(out)]) == 0
    samples = [{k: v for k, v in r.items() if k != "record"}
               for r in by_kind(read_records(out), "sample")]
    config = StepperConfig(scheme="implicit_midpoint" if scheme == "midpoint" else scheme,
                           dt=1e-4, t_end=1e-3, sample_every=3)
    traj = simulate(seeded_state(sigma, n_modes, 3), config, h_s=(1.0,))
    assert len(samples) == 5
    assert samples == traj.records()
    for state, report in zip(traj.states, traj.reports):
        assert report.momentum == momentum(state)
        assert report.mass == mass(state)
