"""The public surface: each module's ``__all__`` is the one list of its
public names, and ``filament`` exports exactly their union."""

import inspect
import types

import numpy as np
import pytest

import filament
from filament import integrator, invariants, minimizer, nonlinearity, spectral, waves

from oracles import toeplitz_kernel_numpy_correlate

MODULES = (spectral, nonlinearity, invariants, integrator, waves, minimizer)


def test_package_exports_the_union_of_module_all_lists():
    exported = {name for name, value in vars(filament).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set().union(*(m.__all__ for m in MODULES))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_lists_every_public_definition(module):
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__ == module.__name__}
    assert defined <= set(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)


def test_numpy_provides_the_pocketfft_gufuncs_of_the_grid_form():
    # nonlinearity._trunc_constants resolves these (numpy >= 2.0); a numpy that
    # renames them fails here by name
    from numpy.fft import _pocketfft_umath as pfu

    signatures = {"ifft": "(m),()->(n)", "irfft": "(m),()->(n)", "fft": "(n),()->(m)",
                  "rfft_n_even": "(n),()->(m)", "rfft_n_odd": "(n),()->(m)"}
    assert {name: getattr(getattr(pfu, name, None), "signature", None)
            for name in signatures} == signatures


@pytest.mark.parametrize("n", [1, 2, 31, 32, 72])
def test_numpy_correlate2_is_the_body_of_np_correlate(n):
    # the Toeplitz form calls numpy._core.multiarray.correlate2 (numpy >= 2.0)
    # with the integer mode 2, "full"; signed zeros must come through as well
    from numpy._core.multiarray import correlate2

    rng = np.random.default_rng(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b.real[::3] = -0.0
    b.imag[1::3] = -0.0
    b[n // 2] = complex(0.0, -0.0)
    assert correlate2(b, b, 2).tobytes() == np.correlate(b, b, "full").tobytes()


@pytest.mark.parametrize("n, sigma", [(1, 0), (2, 0), (2, 1), (31, 0), (31, 1), (32, 0),
                                      (32, 1), (72, 0), (72, 1)])
def test_toeplitz_form_has_the_bits_of_the_np_correlate_body(n, sigma):
    kernels = nonlinearity._kernels(n, sigma)
    assert nonlinearity._on_toeplitz(n, sigma)
    rng = np.random.default_rng(n + sigma)
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.arange(1, n + 1)
    assert kernels.c_sigma(a).tobytes() == toeplitz_kernel_numpy_correlate(a, sigma, False).tobytes()
    assert kernels.rhs(a).tobytes() == toeplitz_kernel_numpy_correlate(a, sigma, True).tobytes()
