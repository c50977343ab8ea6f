"""Radial solver and verification suite for −Δψ = 4πβ V e^ψ with unit mass.

Two independent backends produce the same normalized profiles — adaptive
shooting on the radial ODE (`solve_for_beta`) and constrained minimization
of the gauged Moser energy on a truncated disk (`variational_solve`) — and
every accepted solution can be pushed through `check_identities`, which
recomputes the defining mass, flux, Pokhozhaev, and growth bounds from the
raw samples.  `applications` maps the point-vortex, spherical-flow, and
Chern–Simons presets onto the core (β, n, V) problem.
"""

from .applications import (CSS, Onsager, SphericalOnsager, Verdict,
                           css_scaling_check, make_app,
                           onsager_temperature_scan, scan_rows_to_csv,
                           solve_app)
from .config import RunConfig
from .grids import Grid, integrate_radial, make_grid
from .oracles import (bubble_lambda_from_raw_center, bubble_raw_center,
                      conformal_bubble, sharp_regularity_example)
from .potentials import (Constant, LogSingular, Potential, PowerGauss,
                         Sphere, Tabulated, alpha_of_v, check_conditions,
                         load_tabulated, parse_potential)
from .shooting import (Controls, MassDivergence, NonexistenceError,
                       ShootingError, integrate_ivp, mass_map, pokhozhaev_P,
                       solve_for_beta)
from .solution import NormalizedSolution
from .variational import (EnergyUnboundedError, Gauge, MinimizeResult,
                          VariationalControls, build_gauge, energy, minimize,
                          to_solution, variational_solve)
from .verify import IdentityReport, check_identities, compare_solutions

__version__ = "0.1.0"

__all__ = [
    "CSS", "Onsager", "SphericalOnsager", "Verdict", "css_scaling_check",
    "make_app", "onsager_temperature_scan", "scan_rows_to_csv", "solve_app",
    "RunConfig",
    "Grid", "integrate_radial", "make_grid",
    "bubble_lambda_from_raw_center", "bubble_raw_center", "conformal_bubble",
    "sharp_regularity_example",
    "Constant", "LogSingular", "Potential", "PowerGauss", "Sphere",
    "Tabulated", "alpha_of_v", "check_conditions", "load_tabulated",
    "parse_potential",
    "Controls", "MassDivergence", "NonexistenceError", "ShootingError",
    "integrate_ivp", "mass_map", "pokhozhaev_P", "solve_for_beta",
    "NormalizedSolution",
    "EnergyUnboundedError", "Gauge", "MinimizeResult", "VariationalControls",
    "build_gauge", "energy", "minimize", "to_solution", "variational_solve",
    "IdentityReport", "check_identities", "compare_solutions",
    "__version__",
]
