"""The public surface: each module's ``__all__`` is the one list of its
public names, and ``filament`` exports exactly their union."""

import inspect
import types

import pytest

import filament
from filament import integrator, invariants, minimizer, nonlinearity, spectral, waves

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
