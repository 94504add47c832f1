import json

import numpy as np
import pytest

from filament.spectral import (
    SpectralState,
    dealiased_grid_size,
    seeded_state,
    state_from_dict,
    state_to_dict,
    write_snapshot,
    read_snapshot,
    _analyze,
    _next_fast_len,
    _synthesize,
)
from filament.nonlinearity import _trunc_constants

from oracles import convolution_brute_force, triple_product_coeffs


def test_state_validation():
    with pytest.raises(ValueError):
        SpectralState(2, [1.0])
    with pytest.raises(ValueError):
        SpectralState(0, [])
    st = SpectralState(0, [1.0, 2.0])
    assert st.n_modes == 2
    with pytest.raises(ValueError):
        st.coeffs[0] = 5.0  # frozen array


def test_synthesize_quarter_points():
    samples = _synthesize(np.array([1.0 + 0j]), 4)
    assert np.allclose(samples, [1.0, 1j, -1.0, -1j], atol=1e-15)


def test_synthesize_matches_direct_evaluation():
    x = 2.0 * np.pi * np.arange(8) / 8
    assert np.allclose(_synthesize(np.array([0.0, 1.0 + 0j]), 8), np.exp(2j * x), atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_round_trip_exact(seed, n):
    st = seeded_state(seed % 2, n, seed, amplitude=1.0)
    back = _analyze(_synthesize(st.coeffs, 4 * n), n)
    err = np.max(np.abs(back - st.coeffs)) / np.max(np.abs(st.coeffs))
    assert err <= 1e-13


def test_analyze_projects_negative_modes():
    # 2cos x = e^{ix} + e^{-ix}: the negative half must be discarded
    x = 2.0 * np.pi * np.arange(8) / 8
    assert np.allclose(_analyze(2.0 * np.cos(x), 1), [1.0], atol=1e-14)


def test_analyze_triple_product_matches_brute_force():
    a = np.array([1.0, 1.0], dtype=complex)
    u = _synthesize(a, dealiased_grid_size(2))
    cubic = _analyze(np.abs(u) ** 2 * u, 3)
    assert np.allclose(cubic, triple_product_coeffs(a, 3), atol=1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_product_equals_linear_convolution(seed):
    rng = np.random.default_rng(seed)
    n = 10
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = dealiased_grid_size(n)
    # the product lives on modes 2..2n; analysis keeps 1..2n: mode 1 empty
    got = _analyze(_synthesize(a, m) * _synthesize(b, m), 2 * n)
    expect = np.concatenate([[0.0], convolution_brute_force(a, b)])
    assert np.allclose(got, expect, atol=1e-12 * np.max(np.abs(expect)))


def _is_11_smooth(n):
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


def test_next_fast_len_is_smallest_11_smooth():
    for target in range(1, 4097):
        got = _next_fast_len(target)
        assert got >= target and _is_11_smooth(got)
        assert not any(_is_11_smooth(n) for n in range(target, got))


@pytest.mark.parametrize("target, expect", [
    (1, 1), (13, 14), (97, 98), (101, 105), (322, 324), (326, 330),
    (401, 405), (1021, 1024), (2053, 2058),
])
def test_next_fast_len_values(target, expect):
    assert _next_fast_len(target) == expect


@pytest.mark.parametrize("n", [161, 163, 256])
def test_trunc_grid_uses_next_fast_len(n):
    assert _trunc_constants(n).m == _next_fast_len(2 * n)


def test_dealiased_grid_size_floor():
    assert dealiased_grid_size(16) >= 64
    assert dealiased_grid_size(1) >= 4


@pytest.mark.parametrize("n_modes", [0, -2])
def test_seeded_state_rejects_non_positive_size(n_modes):
    with pytest.raises(ValueError, match="n_modes"):
        seeded_state(0, n_modes, 1)


def test_snapshot_round_trip(tmp_path):
    st = seeded_state(1, 9, 3)
    path = tmp_path / "state.json"
    write_snapshot(st, path)
    back = read_snapshot(path)
    assert back.sigma == st.sigma
    assert np.array_equal(back.coeffs, st.coeffs)


def test_snapshot_file_bytes_are_pinned(tmp_path):
    # one json.dumps line: signed zeros, subnormal-range exponents and the
    # separators stay exactly as restarts and other readers see them
    path = tmp_path / "state.json"
    write_snapshot(SpectralState(1, [complex(-0.0, -0.0), 1e-300 - 2.5j, -3.0 + 0.0j]), path)
    assert path.read_bytes() == (
        b'{"sigma": 1, "n_modes": 3, "coeffs": [[-0.0, -0.0], [1e-300, -2.5], [-3.0, 0.0]]}\n')


def test_snapshot_rejects_wrong_length(tmp_path):
    record = state_to_dict(seeded_state(0, 4, 1))
    record["n_modes"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_snapshot_rejects_malformed_pairs():
    record = {"sigma": 0, "n_modes": 2, "coeffs": [[1.0, 0.0], [1.0]]}
    with pytest.raises(ValueError):
        state_from_dict(record)
    with pytest.raises(ValueError):
        state_from_dict({"sigma": 3, "n_modes": 1, "coeffs": [[1.0, 0.0]]})


@pytest.mark.parametrize("field, value", [
    ("n_modes", True), ("n_modes", 1.0), ("sigma", True), ("sigma", 1.0),
])
def test_snapshot_rejects_non_integer_header(field, value):
    record = {"sigma": 1, "n_modes": 1, "coeffs": [[1.0, 0.0]]}
    record[field] = value
    with pytest.raises(ValueError):
        state_from_dict(record)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_snapshot_rejects_non_finite_coeffs(bad, tmp_path):
    with pytest.raises(ValueError, match="finite"):
        state_from_dict({"sigma": 0, "n_modes": 2, "coeffs": [[1.0, 0.0], [0.0, bad]]})
    # json writes and reads the NaN / Infinity tokens, so the file route must check too
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"sigma": 0, "n_modes": 1, "coeffs": [[bad, 0.0]]}))
    with pytest.raises(ValueError, match="finite"):
        read_snapshot(path)


@pytest.mark.parametrize("coeffs", [
    5, [[1.0, 0.0], None], [{"re": 1.0}, [0.0, 0.0]], [[1.0, 0.0, 0.0]] * 2,
    [[1.0, 0.0], [True, 0.0]], [[1.0, 0.0], ["1", 0.0]], [[1.0, 0.0], [None, 0.0]],
    [[10**400, 0.0], [0.0, 0.0]],  # a JSON integer beyond any float
])
def test_snapshot_rejects_malformed_coeffs(coeffs):
    with pytest.raises(ValueError):
        state_from_dict({"sigma": 0, "n_modes": 2, "coeffs": coeffs})


def test_snapshot_names_a_coefficient_that_is_not_a_number():
    with pytest.raises(ValueError, match=r"mode 2 must be two numbers"):
        state_from_dict({"sigma": 0, "n_modes": 2, "coeffs": [[1.0, 0.0], [None, 0.0]]})


def test_snapshot_round_trip_is_bit_exact():
    st = SpectralState(0, [complex(-0.0, -0.0), 1e-300 - 2.5j, -3.0 + 0.0j])
    back = state_from_dict(json.loads(json.dumps(state_to_dict(st))))
    assert back.coeffs.tobytes() == st.coeffs.tobytes()


def test_state_to_dict_is_the_per_element_conversion():
    # one view-and-tolist conversion gives the floats of the per-coefficient
    # loop it replaced, signed zeros, subnormals and huge values included
    st = SpectralState(1, [complex(-0.0, -0.0), complex(5e-324, -2.5e-310),
                           complex(1e300, -0.0), complex(-1e-320, -1e300), 0.25 + 3j])
    per_element = {"sigma": 1, "n_modes": 5,
                   "coeffs": [[float(c.real), float(c.imag)] for c in st.coeffs]}
    assert json.dumps(state_to_dict(st)) == json.dumps(per_element)


def test_snapshot_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "snapshot-00000001.json"
    st = SpectralState(1, [complex(-0.0, -0.0), 1e-300 - 2.5j, -3.0 + 0.0j])
    write_snapshot(seeded_state(0, 2, 0), path)
    write_snapshot(st, path)  # replaces the existing file
    assert read_snapshot(path).coeffs.tobytes() == st.coeffs.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    # a write that fails part way leaves the previous file whole and no temporary
    import filament.spectral as spectral
    monkeypatch.setattr(spectral, "state_to_dict",
                        lambda s: {"sigma": 0, "n_modes": 1, "coeffs": [[1.0, 0.0], object()]})
    with pytest.raises(TypeError):
        write_snapshot(st, path)
    assert read_snapshot(path).coeffs.tobytes() == st.coeffs.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_snapshot_write_failure_removes_its_temporary(tmp_path):
    # os.replace fails after the temporary is written: the target is a directory
    path = tmp_path / "snapshot-00000001.json"
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        write_snapshot(seeded_state(0, 2, 0), path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert not any(path.iterdir())
