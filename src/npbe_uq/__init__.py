"""Nonlinear Poisson-Boltzmann solver with sparse-grid uncertainty
quantification under analytic random domain perturbations."""

from .bounds import (BoundsInput, a_coeff, b_coeff, m_estimate, prop_a_bounds,
                     verify_bounds_by_sampling)
from .geometry import (CutoffShift, DomainMap, ReferenceDomain, check_assumptions,
                       classify_point)
from .harness import (RunConfig, fit_rate, ingest_charges, load_config,
                      run_study, shifted_charges)
from .pde import (Charge, Grid3D, GridField, PBECoefficients,
                  assemble_pulled_back_operator, assemble_rhs,
                  newton_solve_npbe, qoi_integral)
from .region import (error_bound, error_constants, region_estimate,
                     sigma_star, theta, xi)
from .smolyak import SparseGridPlan, build_plan, integrate, interpolate

__version__ = "0.1.0"

__all__ = [
    "BoundsInput", "a_coeff", "b_coeff", "m_estimate", "prop_a_bounds",
    "verify_bounds_by_sampling", "CutoffShift", "DomainMap",
    "ReferenceDomain", "check_assumptions", "classify_point", "RunConfig",
    "fit_rate", "ingest_charges", "load_config", "run_study", "shifted_charges",
    "Charge", "Grid3D", "GridField", "PBECoefficients",
    "assemble_pulled_back_operator", "assemble_rhs", "newton_solve_npbe",
    "qoi_integral", "error_bound", "error_constants",
    "region_estimate", "sigma_star", "theta", "xi", "SparseGridPlan",
    "build_plan", "integrate", "interpolate",
]
