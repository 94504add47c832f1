import sys
from pathlib import Path


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
