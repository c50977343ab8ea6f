"""Physics presets: point-vortex statistics, spherical Onsager flow, and
self-dual Chern–Simons–Schrödinger Landau levels, each reduced to a
(β, n, V) mean-field problem for the core solver.

A preset only maps its physical inputs to that problem, `problem()`:

  Onsager            V = e^{−γ r^α},              n,        β = −β_stat/(4π)
  SphericalOnsager   V = (1+r²)^l e^{2γ/(1+r²)},  n,        β
  CSS                V = e^{−B r²/2},             2·n_int,  β

`solve_app` hands it to `solve_for_beta`, which owns every verdict: a
`NonexistenceError` names the condition of `potentials.certify` that the
input violates.

For CSS the magnetic-field rescaling ψ_B(x) = ψ₁(√B x) + (n_int+1) log B
connects different field strengths, and `css_scaling_check` measures how
well two independently solved profiles satisfy it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .potentials import PowerGauss, Sphere
from .shooting import NonexistenceError, ShootingError, solve_for_beta

__all__ = [
    "Onsager", "SphericalOnsager", "CSS", "ScanRow", "solve_app",
    "css_scaling_check", "onsager_temperature_scan", "scan_rows_to_csv",
]

SCAN_CSV_HEADER = ["param", "verdict", "psi0", "mass_inner", "beta_eq"]
# initial ψ(0) bracket of every preset solve (the CLI's default)
_BRACKET = (-4.0, 4.0)
# a scan row is flagged as concentrating when ψ(0) exceeds this and more
# than this share of the mass lies inside r < 0.1
_PSI0_CONCENTRATED = 20.0
_INNER_MASS_CONCENTRATED = 0.99


@dataclass(frozen=True)
class Onsager:
    """Mean-field point-vortex equation at statistical temperature β_stat."""

    n: float
    gamma: float
    alpha_exp: float
    beta_stat: float

    def problem(self):
        return (PowerGauss(n_pow=0.0, gamma=self.gamma,
                           alpha_exp=self.alpha_exp),
                float(self.n), -self.beta_stat / (4.0 * math.pi))


@dataclass(frozen=True)
class SphericalOnsager:
    """Onsager flow on the sphere, stereographically projected."""

    n: float
    l: float
    gamma: float
    beta: float

    def problem(self):
        return (Sphere(l=self.l, gamma=self.gamma), float(self.n),
                float(self.beta))


@dataclass(frozen=True)
class CSS:
    """Self-dual Chern–Simons–Schrödinger vortex of winding n_int in field B."""

    n_int: int
    beta: float
    B: float

    def __post_init__(self):
        if not isinstance(self.n_int, (int, np.integer)) or self.n_int < 0:
            raise ValueError("n_int must be a non-negative integer")
        if not self.B > 0:
            raise ValueError("B must be positive")

    def problem(self):
        return (PowerGauss(n_pow=0.0, gamma=0.5 * self.B, alpha_exp=2.0),
                2.0 * self.n_int, float(self.beta))


def solve_app(spec, controls=None):
    """Solve the preset's (V, n, β) by shooting; return the solution.

    Errors are the solver's: NonexistenceError when a necessary condition
    fails, ValueError at zero coupling, other ShootingErrors otherwise.
    """
    sol = solve_for_beta(*spec.problem(), _BRACKET, controls)
    sol.meta["application"] = spec.__class__.__name__
    return sol


def _trichotomy(n_int, beta):
    edge = n_int + 1.0
    if edge > beta:
        return "n+1>beta"
    if edge == beta:
        return "n+1=beta"
    return "n+1<beta"


def css_scaling_check(n_int, beta, B1, B2, controls=None):
    """Solve two field strengths independently and test the B-rescaling law.

    ψ_{B₂}(r) = ψ_{B₁}(√(B₂/B₁)·r) + (n_int+1)·log(B₂/B₁); returns the max
    node deviation over the common resolved range together with the B→∞
    trichotomy class of (n_int, β).
    """
    if B1 <= 0 or B2 <= 0:
        raise ValueError("field strengths must be positive")
    sol1 = solve_app(CSS(n_int, beta, B1), controls)
    sol2 = solve_app(CSS(n_int, beta, B2), controls)
    ratio = B2 / B1
    shift = (n_int + 1.0) * math.log(ratio)
    scaled = math.sqrt(ratio) * sol2.r
    keep = (scaled >= sol1.r[0]) & (scaled <= sol1.r_max)
    expected = sol1.psi_at(scaled[keep]) + shift
    deviation = float(np.max(np.abs(sol2.psi[keep] - expected)))
    return {"deviation": deviation, "trichotomy": _trichotomy(n_int, beta),
            "beta": float(beta), "n_int": int(n_int)}


@dataclass
class ScanRow:
    param: float
    verdict: str
    psi0: float
    mass_inner: float
    beta_eq: float
    concentration: bool = False
    error: str = ""


def _mass_within(sol, radius):
    """M(radius): one cubic Hermite step in log r on the cell that holds it,
    with the exact slope dM/dlog r = 2π r^{n+2} V e^ψ̃ at both nodes."""
    if radius <= sol.r[0]:
        return 0.0
    if radius >= sol.r_max:
        return float(sol.mass[-1])
    k = int(np.searchsorted(sol.r, radius)) - 1     # the cell [r_k, r_k+1]
    r, psi, mass = (col[k:k + 2] for col in (sol.r, sol.psi, sol.mass))
    slope = (2.0 * math.pi * r ** (sol.n + 2.0) * sol.potential.value(r)
             * np.exp(psi))
    return float(CubicHermiteSpline(np.log(r), mass, slope)(math.log(radius)))


def _scan_entry(n, gamma, alpha_exp, beta_stat, controls):
    spec = Onsager(n, gamma, alpha_exp, beta_stat)
    row = ScanRow(param=float(beta_stat), verdict="", psi0=math.nan,
                  mass_inner=math.nan, beta_eq=spec.problem()[2])
    try:
        sol = solve_app(spec, controls)
    except NonexistenceError as err:
        row.verdict = "nonexistence"
        row.error = str(err)
        return row
    except ShootingError as err:
        row.verdict = "error"
        row.error = f"{type(err).__name__}: {err}"
        return row
    row.psi0 = float(sol.psi[0])
    row.mass_inner = _mass_within(sol, 0.1)
    row.concentration = (row.psi0 > _PSI0_CONCENTRATED
                         and row.mass_inner > _INNER_MASS_CONCENTRATED)
    row.verdict = "concentration" if row.concentration else "solved"
    return row


def onsager_temperature_scan(n, gamma, alpha_exp, beta_stat_list,
                             controls=None):
    """Per-temperature solve/verdict table; rows keep the input order.

    A zero temperature is zero coupling and raises ValueError, as a single
    solve does.

    The concentration flag is the numerical proxy for the vanishing-
    temperature Dirac-mass limit: a huge center value with essentially all
    mass inside r < 0.1.
    """
    entries = list(beta_stat_list)
    if not entries:
        raise ValueError("beta_stat_list must not be empty")
    return [_scan_entry(n, gamma, alpha_exp, b, controls) for b in entries]


def scan_rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_CSV_HEADER)
        for row in rows:
            writer.writerow([repr(float(row.param)), row.verdict,
                             repr(float(row.psi0)),
                             repr(float(row.mass_inner)),
                             repr(float(row.beta_eq))])
    return path
