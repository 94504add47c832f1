"""Spectral Galerkin simulator and variational toolkit for the
filamentation equation on positive-spectrum fields over the 2*pi torus.

Each module's ``__all__`` is the one list of what ``filament`` exports."""

from .spectral import *
from .nonlinearity import *
from .invariants import *
from .integrator import *
from .waves import *
from .minimizer import *

__version__ = "0.1.0"
