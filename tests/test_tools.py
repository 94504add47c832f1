import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_pairs_layer_timings_report_both_paths(monkeypatch):
    # tools/bench_pairs.py times the public step() against a block of calls of
    # the bound step function that StepMemory._bind returns; one round per case
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import bench_pairs

    monkeypatch.setattr(sys, "path", list(sys.path))  # layer_timings prepends src
    cases = tuple(case[:-1] + (1,) for case in bench_pairs.LAYER_CASES)
    monkeypatch.setattr(bench_pairs, "LAYER_CASES", cases)
    out = bench_pairs.layer_timings()
    assert set(out) == {case[0] for case in cases}
    for label, *_, steps, rounds in cases:
        assert (out[label]["steps_per_round"], out[label]["rounds"]) == (steps, rounds)
        for path in ("public_step", "bound_block"):
            timing = out[label][path]
            assert set(timing) == {"p05_us", "p50_us"}
            assert 0.0 < timing["p05_us"] <= timing["p50_us"] < float("inf")


def _bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import bench_pairs
    return bench_pairs


def test_bench_pairs_summarize_three_pairs(monkeypatch):
    bench_pairs = _bench_pairs(monkeypatch)

    def run(value):
        return {"result": {"metrics": {"sample_p01_ms": {"value": value}}}}

    # the change is lower in pair 0, higher in pair 1 and tied in pair 2
    pairs = [{"parent": run(old), "change": run(new)}
             for old, new in ((4.0, 3.0), (1.0, 2.0), (2.0, 2.0))]
    out = bench_pairs.summarize(pairs)["sample_p01_ms"]
    assert (out["parent_median"], out["change_median"]) == (2.0, 2.0)
    assert out["parent_iqr"] == 1.5  # inclusive quartiles of 1, 2, 4: 1.5 and 3
    assert out["change_iqr"] == 0.5  # of 2, 2, 3: 2 and 2.5
    assert out["change_lower_in"] == 1  # a tie counts for neither side
    assert (out["median_change"], out["relative_change"], out["pairs"]) == (0.0, 0.0, 3)


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_rejects_fewer_than_two_pairs(monkeypatch, tmp_path, capsys, pairs):
    # summarize's quartiles need two points; the count is refused before any run
    bench_pairs = _bench_pairs(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("no perfbench run may start")

    monkeypatch.setattr(bench_pairs, "perfbench", forbidden)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--pairs", pairs, "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert "at least 2 pairs" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_same_bytes_names_each_difference_and_nothing_else(monkeypatch, tmp_path, capsys):
    # two fast commands, one writing an output file, against this checkout and
    # against a copy of its src whose version (in every header) is edited
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import same_bytes

    monkeypatch.setattr(sys, "path", list(sys.path))  # write_inputs prepends src
    commands = ("wave-residual --init psi_k:1 --n-modes 2", "invariants --n-modes 4 --hs 1 --out inv.jsonl")
    monkeypatch.setattr(same_bytes, "COMMANDS", commands)
    assert same_bytes.main(["--parent", str(ROOT)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["commands"], out["identical"], out["differences"]) == (2, 2, [])

    copy = tmp_path / "edited"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = copy / "src" / "filament" / "__init__.py"
    init.write_text(re.sub(r'__version__ = "[^"]*"', '__version__ = "edited"', init.read_text()))
    assert same_bytes.main(["--parent", str(copy)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [d["command"] for d in out["differences"]] == [f"filament {c}" for c in commands]
    first, second = out["differences"]
    assert (first["in"], first["line"], "exit" in first) == ("stdout", 1, False)
    assert '"version": "edited"' in first["parent"] and '"version": "edited"' not in first["change"]
    assert second["in"] == "file inv.jsonl"
    assert not list(copy.rglob("__pycache__"))  # the runs write no bytecode
