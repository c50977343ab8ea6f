"""Identity and inequality checks for candidate radial solutions.

Everything here re-derives its quantities from the stored ψ̃ samples through
an independent quadrature route (cumulative Simpson in log r), so a corrupted
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
J(r) = Q(r)/(2β) − (n+2−β) M(r) used for the origin cell below the first
node.  Compactly supported weights (cutoff at r = α) contribute the jump
−2π α^{n+2} V(α⁻) e^{ψ̃(α)} to the index integral.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .potentials import Tabulated
from .shooting import pokhozhaev_P
from .solution import NormalizedSolution

__all__ = ["IdentityReport", "check_identities", "compare_solutions"]

_MIN_NODES = 64


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
        for name in ("mass_residual", "flux_residual", "slope_at_infinity",
                     "pokhozhaev_residual", "log_lip_ok", "grad_bound_ok",
                     "P_min", "c2_upper_bound", "log_lip_constant",
                     "pokhozhaev_approximate", "beta", "n", "n_nodes"):
            v = getattr(self, name)
            if isinstance(v, (np.floating, np.integer)):
                v = float(v)
            out[name] = v
        return out

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _recomputed_mass(sol, V):
    """Cumulative mass from the stored ψ̃ alone, seeded with the stored
    origin cell M(r₀) (the only column value trusted below the first node)."""
    r = sol.grid.nodes
    x = np.log(r)
    y = r ** (sol.n + 2.0) * V.value(r) * np.exp(sol.psi)   # integrand · r
    cutoff = getattr(V, "cutoff_radius", None)
    if cutoff is None or cutoff <= r[0] or cutoff > r[-1]:
        inc = cumulative_simpson(y, x=x, initial=0.0)
        return float(sol.mass[0]) + 2.0 * math.pi * inc
    # split at the support cutoff: Simpson inside, exact zero outside,
    # a small trapezoid cell for the [r_k, α] remainder
    k = int(np.searchsorted(r, cutoff, side="right") - 1)
    inc = np.zeros_like(r)
    if k >= 2:
        inc[:k + 1] = cumulative_simpson(y[:k + 1], x=x[:k + 1], initial=0.0)
    psi_alpha = float(sol.psi_at(cutoff))
    y_alpha = cutoff ** (sol.n + 2.0) * float(V.value(cutoff)) * math.exp(psi_alpha)
    cell = 0.5 * (y[k] + y_alpha) * (math.log(cutoff) - x[k])
    inc[k + 1:] = inc[k] + cell
    return float(sol.mass[0]) + 2.0 * math.pi * inc


def _index_integral(sol, V):
    """J(∞) = ∫ |x|ⁿ e^{ψ̃} x·∇V dx, with the analytic origin cell and the
    support-cutoff jump."""
    r = sol.grid.nodes
    x = np.log(r)
    beta, n = sol.beta, sol.n
    v, dv = V.value_and_derivative(r)
    y = r ** (n + 3.0) * dv * np.exp(sol.psi)               # integrand · r

    # origin cell from the exact partial integral J(r0) = Q/(2β) − (n+2−β)M
    u0 = float(sol.dpsi[0])
    q0 = (u0 * (0.5 * u0 + beta)
          + 4.0 * math.pi * beta * r[0] ** (n + 2.0) * float(v[0])
          * math.exp(float(sol.psi[0])))
    j0 = q0 / (2.0 * beta) - (n + 2.0 - beta) * float(sol.mass[0])

    cutoff = getattr(V, "cutoff_radius", None)
    if cutoff is None or cutoff <= r[0] or cutoff > r[-1]:
        bulk = simpson(y, x=x)
        jump = 0.0
    else:
        k = int(np.searchsorted(r, cutoff, side="right") - 1)
        bulk = simpson(y[:k + 1], x=x[:k + 1]) if k >= 2 else 0.0
        psi_alpha = float(sol.psi_at(cutoff))
        v_alpha, dv_alpha = V.value_and_derivative(cutoff)
        y_alpha = cutoff ** (n + 3.0) * dv_alpha * math.exp(psi_alpha)
        bulk += 0.5 * (y[k] + y_alpha) * (math.log(cutoff) - x[k])
        jump = -cutoff ** (n + 2.0) * v_alpha * math.exp(psi_alpha)
    return j0 + 2.0 * math.pi * (bulk + jump)


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
    mass_rec = _recomputed_mass(sol, V)
    mass_residual = abs(mass_rec[-1] - 1.0)
    flux_residual = float(np.max(np.abs(sol.dpsi + 2.0 * beta * mass_rec)))
    slope_gap = abs(float(sol.dpsi[-1]) + 2.0 * beta)

    index = _index_integral(sol, V)
    pokhozhaev_residual = abs(beta - 2.0 - sol.n - index)

    # log-Lipschitz bound on a 32-radius subsample (all pairs)
    x = np.log(r)
    u2 = sol.dpsi ** 2
    # ∫_{t<|x|<r}|∇ψ|² dx = 2π ∫ u² dlog t, cumulative in log r
    dirichlet_cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (u2[1:] + u2[:-1]) * np.diff(x))])
    pick = np.unique(np.linspace(0, r.size - 1, 32).astype(int))
    log_lip_ok = True
    worst = 0.0
    for a_i in range(pick.size):
        i = pick[a_i]
        for j in pick[a_i + 1:]:
            lhs = (sol.psi[i] - sol.psi[j]) ** 2
            rhs = (x[j] - x[i]) * (dirichlet_cum[j] - dirichlet_cum[i])
            worst = max(worst, lhs - rhs)
            # slack: the far field has u ≡ −2β (the Cauchy–Schwarz equality
            # case), so quadrature error in the slope column shows up raw;
            # genuine corruption violates by orders of magnitude more
            if lhs > rhs + 1e-6 * (1.0 + abs(rhs)):
                log_lip_ok = False
    # the bound constant: sup over checked pairs of lhs/rhs
    with np.errstate(invalid="ignore"):
        log_lip_constant = worst

    # |r ψ̃′| ≤ 2|β| M(r) ≤ 2|β| since M(∞) = 1; compare against the unit
    # bound (the recomputed truncated mass can sit a quadrature error below 1
    # even when the slope legitimately attains 2|β| at r_max)
    m_end = max(float(np.max(np.abs(mass_rec))), 1.0)
    grad_bound_ok = bool(np.all(
        np.abs(sol.dpsi) <= 2.0 * abs(beta) * m_end * (1.0 + 1e-9) + 1e-12))

    c2 = float(np.max(sol.psi + 2.0 * beta * np.log(r + 1.0)
                      - math.log(abs(beta))))
    p_min = pokhozhaev_P(sol, V)["min_P"]

    return IdentityReport(
        mass_residual=float(mass_residual),
        flux_residual=flux_residual,
        slope_at_infinity=float(slope_gap),
        pokhozhaev_residual=float(pokhozhaev_residual),
        log_lip_ok=bool(log_lip_ok),
        grad_bound_ok=grad_bound_ok,
        P_min=float(p_min),
        c2_upper_bound=c2,
        log_lip_constant=float(log_lip_constant),
        pokhozhaev_approximate=isinstance(V, Tabulated),
        beta=float(beta), n=float(sol.n), n_nodes=sol.grid.n_nodes)


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
