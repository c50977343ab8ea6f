"""Physics presets: point-vortex statistics, spherical Onsager flow, and
self-dual Chern–Simons–Schrödinger Landau levels, each reduced to a
(β, n, V) mean-field problem for the core solver.

Each preset's existence window is the `Potential.beta_window` of its weight
at the preset's exponent n_eq.  `solve_app` evaluates the window and runs
the shooting backend when the theory allows (or on the boundary, where it
stays silent); it returns the solution alone and leaves `check_identities`
to the caller.  A nonexistence, from the window or from the solver, is a
`NonexistenceError` whose message states the preset's inequality and then
the window's edges:

  Onsager            n > β_eq − 2,  β_eq = −β_stat/(4π)  (γ > 0; for γ = 0,
                     V ≡ 1, the window is empty and β_eq = n + 2 the edge)
  SphericalOnsager   n + 2 + 2l < β < n + 2
  CSS                2·n_int > β − 2

The CSS weight is e^{−B|x|²/2}; the magnetic-field rescaling
ψ_B(x) = ψ₁(√B x) + (n_int+1) log B connects different field strengths and
`css_scaling_check` measures how well two independently solved profiles
satisfy it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

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


class _Preset:
    """Window verdict shared by the presets: β_eq against the existence
    window of the preset's weight at exponent n_eq."""

    def window(self):
        lo, hi = self.potential().beta_window(self.n_eq)
        ineq = f"{self._inequality()}; window ({lo:g}, {hi:g})"
        if lo < self.beta_eq < hi:
            return "inside", ineq
        if self.beta_eq in (lo, hi):
            return "boundary", ineq
        return "outside", ineq


@dataclass(frozen=True)
class Onsager(_Preset):
    """Mean-field point-vortex equation at statistical temperature β_stat."""

    n: float
    gamma: float
    alpha_exp: float
    beta_stat: float

    @property
    def beta_eq(self):
        return -self.beta_stat / (4.0 * math.pi)

    @property
    def n_eq(self):
        return float(self.n)

    def potential(self):
        return PowerGauss(n_pow=0.0, gamma=self.gamma, alpha_exp=self.alpha_exp)

    def _inequality(self):
        return (f"requires n > beta_eq - 2: n = {self.n_eq:g}, "
                f"beta_eq - 2 = {self.beta_eq - 2.0:g}")

    def window(self):
        if self.beta_eq == 0.0:
            return "boundary", "beta_eq = 0: zero coupling, outside scope"
        return super().window()


@dataclass(frozen=True)
class SphericalOnsager(_Preset):
    """Onsager flow on the sphere, stereographically projected."""

    n: float
    l: float
    gamma: float
    beta: float

    @property
    def beta_eq(self):
        return float(self.beta)

    @property
    def n_eq(self):
        return float(self.n)

    def potential(self):
        return Sphere(l=self.l, gamma=self.gamma)

    def _inequality(self):
        return f"requires n + 2 + 2l < beta < n + 2: beta = {self.beta:g}"


@dataclass(frozen=True)
class CSS(_Preset):
    """Self-dual Chern–Simons–Schrödinger vortex of winding n_int in field B."""

    n_int: int
    beta: float
    B: float

    def __post_init__(self):
        if not isinstance(self.n_int, (int, np.integer)) or self.n_int < 0:
            raise ValueError("n_int must be a non-negative integer")
        if not self.B > 0:
            raise ValueError("B must be positive")

    @property
    def beta_eq(self):
        return float(self.beta)

    @property
    def n_eq(self):
        return 2.0 * self.n_int

    def potential(self):
        return PowerGauss(n_pow=0.0, gamma=0.5 * self.B, alpha_exp=2.0)

    def _inequality(self):
        return (f"requires 2*n_int > beta - 2: 2*{self.n_int} = "
                f"{self.n_eq:g} vs beta - 2 = {self.beta - 2.0:g}")


_BOUNDARY_NOTE = "boundary — theory silent or sharp"


def solve_app(spec, controls=None):
    """Evaluate the window, then solve by shooting when allowed.

    Returns the NormalizedSolution.  Raises NonexistenceError outside the
    window, without solving, and when the solver finds no solution; the
    message names the window and the preset's inequality.  Boundary windows
    are attempted anyway and annotated.  Zero coupling raises ValueError;
    other solver failures propagate.
    """
    window, ineq = spec.window()
    if window == "outside":
        raise NonexistenceError(f"nonexistence (outside window): {ineq}")
    if window == "boundary" and spec.beta_eq == 0.0:
        raise ValueError(f"boundary (boundary window): {ineq} — zero "
                         f"coupling: the problem degenerates")
    try:
        sol = solve_for_beta(spec.potential(), spec.n_eq, spec.beta_eq,
                             _BRACKET, controls)
    except NonexistenceError as err:
        detail = _BOUNDARY_NOTE if window == "boundary" else str(err)
        raise NonexistenceError(
            f"nonexistence ({window} window): {ineq} — {detail}",
            beta_range=err.beta_range, s_range=err.s_range) from err
    if window == "boundary":
        sol.meta["window_note"] = _BOUNDARY_NOTE
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
    spec1, spec2 = CSS(n_int, beta, B1), CSS(n_int, beta, B2)
    for s in (spec1, spec2):
        w, ineq = s.window()
        if w != "inside":
            raise NonexistenceError(f"scaling check needs the window: {ineq}")
    sol1 = solve_app(spec1, controls)
    sol2 = solve_app(spec2, controls)
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
    if radius <= sol.r[0]:
        return 0.0
    if radius >= sol.r_max:
        return float(sol.mass[-1])
    return float(np.interp(math.log(radius), np.log(sol.r), sol.mass))


def _scan_entry(n, gamma, alpha_exp, beta_stat, controls):
    spec = Onsager(n, gamma, alpha_exp, beta_stat)
    row = ScanRow(param=float(beta_stat), verdict="", psi0=math.nan,
                  mass_inner=math.nan, beta_eq=spec.beta_eq)
    try:
        sol = solve_app(spec, controls)
    except NonexistenceError as err:
        # boundary windows report as boundary even when the attempted solve
        # came back empty-handed; the message keeps the underlying story
        row.verdict = ("boundary" if spec.window()[0] == "boundary"
                       else "nonexistence")
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
