"""Identity and inequality checks for candidate radial solutions.

Everything here re-derives its quantities from the stored ψ̃ samples through
one independent quadrature rule, cumulative Simpson in log r, so a corrupted
profile cannot satisfy the report even when its mass/slope columns are
internally consistent.  Checked facts, for −Δψ̃ = 4πβ rⁿV e^{ψ̃} with unit
mass:

  * mass:        M(r_max) = 1,
  * flux:        r ψ̃′(r) = −2β M(r) at every node,
  * slope:       r ψ̃′(r_max) → −2β,
  * index:       β − 2 − n = ∫ |x|ⁿ e^{ψ̃} x·∇V dx,
  * log-Lip:     |ψ̃(r) − ψ̃(t)|² ≤ log(r/t)/(2π) · ∫_{t<|x|<r} |∇ψ̃|²,
  * gradient:    |r ψ̃′(r)| ≤ 2|β| M(r_max),
  * growth:      ψ̃(r) ≤ −2β log(r+1) + log|β| + C₂ (minimal C₂ reported).

The index identity follows by integrating the derivative of
Q = u(u/2+β) + 4πβ r^{n+2}V e^{ψ̃} (u = rψ̃′):

    Q′ = 4πβ (n+2−β) r^{n+1}V e^{ψ̃} + 4πβ r^{n+2}V′ e^{ψ̃},

which holds for either sign of β and gives the partial integral
J(r) = 2π ∫₀^r tⁿ⁺²V′e^{ψ̃} dt = Q(r)/(2β) − (n+2−β) M(r), used for the
origin cell below the first node.  Compactly supported weights (cutoff at
r = α) contribute the jump −2π α^{n+2} V(α⁻) e^{ψ̃(α)} to the index integral.
M and J are the two integrals of the rule; the mass, flux and index
residuals read them, and so does the integral form of the Pokhozhaev
function P = u(u/2+β) + r^{n+2}V e^ψ of the raw profile (``pokhozhaev_P``).
The module imports no solver.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import cumulative_simpson

from .solution import NormalizedSolution

__all__ = ["IdentityReport", "check_identities", "compare_solutions",
           "pokhozhaev_P", "MASS_BOUND", "POKHOZHAEV_BOUND"]

_MIN_NODES = 64
# largest residuals of a profile that the command line accepts; a 4096-node
# variational profile has mass residual 3.4e-6 (P1's h² in log r)
MASS_BOUND = 1e-4
POKHOZHAEV_BOUND = 1e-4


@dataclass
class IdentityReport:
    mass_residual: float
    flux_residual: float
    slope_at_infinity: float
    pokhozhaev_residual: float
    log_lip_ok: bool
    grad_bound_ok: bool
    P_min: float
    # auxiliary, beyond the required fields
    c2_upper_bound: float = math.nan
    log_lip_constant: float = math.nan
    pokhozhaev_approximate: bool = False
    beta: float = math.nan
    n: float = math.nan
    n_nodes: int = 0

    def to_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = (float(v) if isinstance(v, (np.floating, np.integer))
                           else v)
        return out

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _cumulative_integrals(sol, V):
    """(M, J) at every node: the mass M(r) = 2π ∫₀^r tⁿ⁺¹V e^{ψ̃} dt and the
    partial index integral J(r) = 2π ∫₀^r tⁿ⁺²V′ e^{ψ̃} dt.

    Cumulative Simpson in log r from the first node, seeded with the stored
    M(r₀) (the only column value trusted below it) and the exact
    J(r₀) = Q(r₀)/(2β) − (n+2−β)M(r₀).  A support cutoff α inside the grid
    closes the bulk with one trapezoid cell [r_k, α], takes the jump
    −α^{n+2}V(α⁻)e^{ψ̃(α)} into J at r ≥ α, and adds nothing beyond α.
    """
    r = sol.grid.nodes
    x = np.log(r)
    beta, n = sol.beta, sol.n
    v, dv = V.value_and_derivative(r)
    e_psi = np.exp(sol.psi)
    y_mass = r ** (n + 2.0) * v * e_psi                   # integrands · r
    y_index = r ** (n + 3.0) * dv * e_psi

    m0 = float(sol.mass[0])
    u0 = float(sol.dpsi[0])
    q0 = (u0 * (0.5 * u0 + beta)
          + 4.0 * math.pi * beta * r[0] ** (n + 2.0) * float(v[0])
          * math.exp(float(sol.psi[0])))
    j0 = q0 / (2.0 * beta) - (n + 2.0 - beta) * m0

    cutoff = V.cutoff_radius
    inside = cutoff is not None and r[0] < cutoff <= r[-1]
    k = int(np.searchsorted(r, cutoff, side="right")) - 1 if inside else r.size - 1
    mass_a = index_a = 0.0          # integrands · r at α⁻
    if inside:
        v_a, dv_a = V.value_and_derivative(cutoff)
        e_a = math.exp(float(sol.psi_at(cutoff)))
        mass_a, index_a = (cutoff ** (n + 2.0) * v_a * e_a,
                           cutoff ** (n + 3.0) * dv_a * e_a)

    def cumulative(y, y_alpha):
        inc = np.zeros_like(y)
        if k >= 2:
            inc[:k + 1] = cumulative_simpson(y[:k + 1], x=x[:k + 1],
                                             initial=0.0)
        if inside:
            cell = 0.5 * (y[k] + y_alpha) * (math.log(cutoff) - x[k])
            inc[k + 1:] = inc[k] + cell
        return 2.0 * math.pi * inc

    mass = m0 + cumulative(y_mass, mass_a)
    index = j0 + cumulative(y_index, index_a)
    if inside:
        index[r >= cutoff] -= 2.0 * math.pi * mass_a    # V drops by V(α⁻)
    return mass, index


def check_identities(sol, V=None):
    """Populate an IdentityReport for a normalized solution.

    The potential defaults to the one the solution carries.  All residuals
    are recomputed from ψ̃ samples; the stored mass/slope columns enter only
    through the origin seed M(r₀) and the flux comparison itself.
    """
    if V is None:
        V = sol.potential
    if V is None:
        raise ValueError("no potential available for identity checks")
    if sol.grid.n_nodes < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes for the report")

    r = sol.grid.nodes
    beta = sol.beta
    pokhozhaev = pokhozhaev_P(sol, V)
    mass_rec, index = pokhozhaev["mass"], pokhozhaev["index"]
    mass_residual = abs(mass_rec[-1] - 1.0)
    flux_residual = float(np.max(np.abs(sol.dpsi + 2.0 * beta * mass_rec)))
    slope_gap = abs(float(sol.dpsi[-1]) + 2.0 * beta)
    pokhozhaev_residual = abs(beta - 2.0 - sol.n - index[-1])

    # log-Lipschitz bound on a 32-radius subsample (all pairs)
    x = np.log(r)
    u2 = sol.dpsi ** 2
    # ∫_{t<|x|<r}|∇ψ|² dx = 2π ∫ u² dlog t, cumulative in log r
    dirichlet_cum = cumulative_simpson(u2, x=x, initial=0.0)
    pick = np.unique(np.linspace(0, r.size - 1, 32).astype(int))
    a, b = np.triu_indices(pick.size, k=1)
    i, j = pick[a], pick[b]
    lhs = (sol.psi[i] - sol.psi[j]) ** 2
    rhs = (x[j] - x[i]) * (dirichlet_cum[j] - dirichlet_cum[i])
    # the bound constant: sup over checked pairs of lhs − rhs
    worst = max(0.0, float(np.max(lhs - rhs)))
    # slack: the far field has u ≡ −2β (the Cauchy–Schwarz equality case),
    # so quadrature error in the slope column shows up raw; genuine
    # corruption violates by orders of magnitude more
    log_lip_ok = not np.any(lhs > rhs + 1e-6 * (1.0 + np.abs(rhs)))
    # |r ψ̃′| ≤ 2|β| M(r) ≤ 2|β| since M(∞) = 1; compare against the unit
    # bound (the recomputed truncated mass can sit a quadrature error below 1
    # even when the slope legitimately attains 2|β| at r_max)
    m_end = max(float(np.max(np.abs(mass_rec))), 1.0)
    grad_bound_ok = bool(np.all(
        np.abs(sol.dpsi) <= 2.0 * abs(beta) * m_end * (1.0 + 1e-9) + 1e-12))

    c2 = float(np.max(sol.psi + 2.0 * beta * np.log(r + 1.0)
                      - math.log(abs(beta))))

    return IdentityReport(
        mass_residual=float(mass_residual),
        flux_residual=flux_residual,
        slope_at_infinity=float(slope_gap),
        pokhozhaev_residual=float(pokhozhaev_residual),
        log_lip_ok=bool(log_lip_ok),
        grad_bound_ok=grad_bound_ok,
        P_min=pokhozhaev["min_P"],
        c2_upper_bound=c2,
        log_lip_constant=float(worst),
        pokhozhaev_approximate=V.sampled,
        beta=float(beta), n=float(sol.n), n_nodes=sol.grid.n_nodes)


def pokhozhaev_P(sol, V):
    """Pokhozhaev function P = rψ′(½rψ′ + β) + r^{n+2}V e^ψ along a profile.

    ψ here is the *raw* profile ψ = ψ̃ + log(4π|β|) of the normalized
    solution ``sol``.  The dict also holds the module's two cumulative
    Simpson integrals M and J at every node (keys ``mass``, ``index``).
    For β > 0 the profile form is cross-checked against the integral form
    ∫₀^r (tV′ + (n+2−β)V) tⁿ⁺¹e^ψ dt = 2β(J + (n+2−β)M) (they agree up to
    quadrature error; the identity behind the check needs the σ=+1 sign).
    Returns a dict with the P samples and diagnostics.
    """
    beta = sol.beta
    n = sol.n
    r = sol.grid.nodes
    psi_raw = sol.psi + math.log(4.0 * math.pi * abs(beta))
    u = sol.dpsi

    v = V.value(r)
    e_psi = np.exp(psi_raw)
    P = u * (0.5 * u + beta) + r ** (n + 2.0) * v * e_psi
    mass, index = _cumulative_integrals(sol, V)

    out = {
        "r": r, "P": P,
        "min_P": float(np.min(P)),
        "P_at_r_max": float(P[-1]),
        "mass": mass, "index": index,
    }
    if beta > 0.0:
        cum = 2.0 * beta * (index + (n + 2.0 - beta) * mass)
        diff = P - cum
        scale = 1.0 + np.max(np.abs(P))
        out["integral_form"] = cum
        out["max_crosscheck_diff"] = float(np.max(np.abs(diff)) / scale)
    return out


def compare_solutions(a, b, mode):
    """Compare two normalized solutions on their common radial range.

    sup_diff: max |ψ_a − ψ_b| after monotone interpolation in log r.
    beta_monotone: max positive violation of ψ_{β₂} + log|β₂| ≤
    ψ_{β₁} + log|β₁| for β₂ ≥ β₁ (0 means the ordering holds).
    """
    if not isinstance(a, NormalizedSolution) or not isinstance(b, NormalizedSolution):
        raise TypeError("expected NormalizedSolution inputs")
    if a.n != b.n:
        raise ValueError(f"incompatible weight exponents: {a.n} vs {b.n}")
    da = a.potential.descriptor() if a.potential is not None else None
    db = b.potential.descriptor() if b.potential is not None else None
    if da is not None and db is not None and da != db:
        raise ValueError(f"incompatible potentials: {da} vs {db}")

    r_lo = max(a.grid.nodes[0], b.grid.nodes[0])
    r_hi = min(a.r_max, b.r_max)
    if r_hi <= r_lo:
        raise ValueError("solutions share no radial range")
    mask = (a.grid.nodes >= r_lo) & (a.grid.nodes <= r_hi)
    rr = a.grid.nodes[mask]
    psi_a = a.psi[mask]
    psi_b = b.psi_at(rr)

    report = {"mode": mode, "r_lo": float(r_lo), "r_hi": float(r_hi),
              "n_points": int(rr.size)}
    if mode == "sup_diff":
        report["sup_diff"] = float(np.max(np.abs(psi_a - psi_b)))
    elif mode == "beta_monotone":
        if a.beta <= b.beta:
            lo_psi, lo_beta, hi_psi, hi_beta = psi_a, a.beta, psi_b, b.beta
        else:
            lo_psi, lo_beta, hi_psi, hi_beta = psi_b, b.beta, psi_a, a.beta
        gap = (hi_psi + math.log(abs(hi_beta))) - (lo_psi + math.log(abs(lo_beta)))
        report["violation"] = float(max(0.0, np.max(gap)))
        report["beta_lo"] = float(lo_beta)
        report["beta_hi"] = float(hi_beta)
    else:
        raise ValueError(f"unknown comparison mode {mode!r}")
    return report
