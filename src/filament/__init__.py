"""Spectral Galerkin simulator and variational toolkit for the
filamentation equation on positive-spectrum fields over the 2*pi torus."""

from .spectral import (
    SpectralState,
    GridField,
    apply_multiplier,
    to_grid,
    from_grid,
    dealiased_grid_size,
    p_norm,
    seeded_state,
    read_snapshot,
    write_snapshot,
    state_from_dict,
    state_to_dict,
)
from .nonlinearity import (
    NonlinearityResult,
    c_sigma_direct,
    c_sigma_unsym,
    c_sigma_fast,
    c_sigma_quadrature,
    kernel_integral,
)
from .invariants import (
    InvariantReport,
    energy_spectral,
    energy_lambda_form,
    energy_quadrature,
    momentum,
    mass,
    first_mode,
    sobolev_norm,
    pairing_check,
    energy_gradient_check,
    invariant_report,
)
from .integrator import (
    StepperConfig,
    Trajectory,
    StepFailure,
    rhs,
    step,
    simulate,
    time_reversal_check,
    scaling_check,
)
from .waves import (
    TravelingWaveSpec,
    make_psi_k,
    make_two_mode,
    wave_residual,
    stationary_scan,
    orbit_distance,
    orbital_stability_probe,
    two_mode_phase_report,
    two_mode_phase_fit,
)
from .minimizer import (
    ConstraintTarget,
    MinimizeOptions,
    MinimizerResult,
    ProjectionError,
    project_to_constraints,
    multiplier_extraction,
    minimize_energy,
)

__version__ = "0.1.0"
