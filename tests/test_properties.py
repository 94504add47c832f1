"""Property tests over random sizes, cases and amplitudes: the fast routes
of C_sigma against the direct triple sum, and bit-exact snapshot records."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from filament.spectral import SpectralState, seeded_state, state_from_dict, state_to_dict
from filament.nonlinearity import _c_sigma_trunc_raw, c_sigma_direct, c_sigma_fast

# reproducible and bounded: a fixed example sequence, no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@PROPERTY
@given(
    n=st.integers(1, 200),
    sigma=st.sampled_from([0, 1]),
    amplitude=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_routes_match_direct(n, sigma, amplitude, seed):
    state = seeded_state(sigma, n, seed, amplitude=amplitude)
    ref = c_sigma_direct(state).coeffs_full
    fast = c_sigma_fast(state).coeffs_full
    trunc = _c_sigma_trunc_raw(state.coeffs, sigma)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(trunc - ref[:n])) <= 1e-12 * max(np.max(np.abs(ref[:n])), 1e-300)
    if sigma == 1:
        assert fast[0] == 0.0 and trunc[0] == 0.0


finite = st.floats(allow_nan=False, allow_infinity=False)  # signed zeros and subnormals too


@PROPERTY
@given(sigma=st.sampled_from([0, 1]),
       pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
@example(sigma=0, pairs=[(-0.0, 5e-324), (0.0, -0.0), (-2.2250738585072014e-308, 1.7976931348623157e308)])
def test_snapshot_record_round_trip_is_bit_exact(sigma, pairs):
    state = SpectralState(sigma, np.array(pairs, dtype=float).view(np.complex128)[:, 0])
    back = state_from_dict(json.loads(json.dumps(state_to_dict(state), allow_nan=False)))
    assert back.sigma == sigma
    assert back.coeffs.view(np.uint64).tolist() == state.coeffs.view(np.uint64).tolist()
