"""Correctness checks computed by the benchmark itself from solver outputs.

Nothing here calls the program's own identity report, oracles or potentials:
the weights are re-evaluated from their parameters, the integrals use an
end-corrected trapezoid rule in x = log r, and profiles are interpolated
with cubic Hermite pieces built from the stored ψ and rψ′ columns.  Each
check returns a list of problems (empty when the output is right).
Tolerances are those of the package's acceptance tests for the same fact.
"""

import math

import numpy as np

# (shooting, variational) tolerances
MASS_TOL = (1e-6, 1e-4)
INDEX_TOL = (1e-4, 1e-3)
SLOPE_TOL = 1e-3
P_TOL = 1e-6
ROOT_TOL = 1e-8
BUBBLE_TOL = 1e-6
ORDER_TOL = 1e-6
CSS_TOL = 1e-4
FLAT_BETA_TOL = 1e-6
FLAT_PRIME_TOL = 1e-5
FD_TOL = 1e-4
AGREE_TOL = 1e-3


class Weight:
    """Radial weight V(r) given by its catalog parameters.

    kind is "const" (c), "gauss" (gamma, alpha: V = exp(−γ r^α)) or
    "sphere" (l, gamma: V = (1+r²)^l exp(2γ/(1+r²))).
    """

    def __init__(self, kind, **params):
        if kind not in ("const", "gauss", "sphere"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.params = params

    def value_and_slope(self, r):
        """(V(r), r·V′(r)) at the radii r."""
        p = self.params
        if self.kind == "const":
            return np.full_like(r, p["c"]), np.zeros_like(r)
        if self.kind == "gauss":
            t = p["gamma"] * r ** p["alpha"]
            v = np.exp(-t)
            return v, -p["alpha"] * t * v
        q = 1.0 + r * r
        v = q ** p["l"] * np.exp(2.0 * p["gamma"] / q)
        return v, v * r * r * (2.0 * p["l"] / q - 4.0 * p["gamma"] / (q * q))


def _log_step(sol):
    """Spacing of the nodes in x = log r; the rules below need it uniform."""
    x = np.log(sol.r)
    h = (x[-1] - x[0]) / (x.size - 1)
    if not np.allclose(np.diff(x), h, rtol=1e-6, atol=0.0):
        raise ValueError("radial nodes are not uniform in log r")
    return x, h


def _cumulative(f, x, h, origin_power):
    """2π ∫_{-∞}^{x_i} f dx at every node.

    Trapezoid rule with the Euler–Maclaurin end correction −h²/12·(f′_i − f′_0),
    and an origin cell ∫_{-∞}^{x_0} f = f_0/origin_power for f ∝ e^{kx}.
    """
    trap = np.concatenate([[0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])
    fp = np.gradient(f, h, edge_order=2)
    return 2.0 * math.pi * (f[0] / origin_power + trap
                            - h * h * (fp - fp[0]) / 12.0)


def _tail(f, x):
    """2π ∫_{x_N}^∞ f dx for a tail that continues as the last local power."""
    if f[-1] <= 0.0 or f[-2] <= 0.0:
        return 0.0
    k = (math.log(f[-1]) - math.log(f[-2])) / (x[-1] - x[-2])
    if k >= 0.0:
        return math.inf
    return 2.0 * math.pi * f[-1] / -k


def mass_profile(sol, weight):
    """Cumulative mass M(r_i) and the total mass including the far tail."""
    x, h = _log_step(sol)
    v, _ = weight.value_and_slope(sol.r)
    f = sol.r ** (sol.n + 2.0) * v * np.exp(sol.psi)
    cum = _cumulative(f, x, h, sol.n + 2.0)
    return cum, cum[-1] + _tail(f, x)


def index_integral(sol, weight):
    """∫ |x|ⁿ e^ψ x·∇V dx = 2π ∫ r^{n+2} (rV′) e^ψ d log r."""
    x, h = _log_step(sol)
    _, rdv = weight.value_and_slope(sol.r)
    g = sol.r ** (sol.n + 2.0) * rdv * np.exp(sol.psi)
    # rV′ vanishes like r² at the origin for every smooth catalog weight
    return float(_cumulative(g, x, h, sol.n + 4.0)[-1])


def identity_problems(sol, weight, variational=False, beta_target=None):
    """Mass, flux, slope, index identity, Pokhozhaev positivity and β."""
    k = 1 if variational else 0
    problems = []
    beta, n = sol.beta, sol.n
    cum, total = mass_profile(sol, weight)
    if not abs(total - 1.0) < MASS_TOL[k]:
        problems.append(f"mass {total!r} is not 1 (tol {MASS_TOL[k]:g})")
    flux = float(np.max(np.abs(sol.dpsi + 2.0 * beta * cum)))
    flux_tol = 1e-3 if variational else 1e-6 * (1.0 + abs(beta))
    if not flux < flux_tol:
        problems.append(f"flux r psi' + 2 beta M reaches {flux:.3g} "
                        f"(tol {flux_tol:.3g})")
    slope = abs(float(sol.dpsi[-1]) + 2.0 * beta)
    if not slope < SLOPE_TOL:
        problems.append(f"far-field slope misses -2 beta by {slope:.3g}")
    index = abs(beta - 2.0 - n - index_integral(sol, weight))
    if not index < INDEX_TOL[k]:
        problems.append(f"index identity residual {index:.3g} "
                        f"(tol {INDEX_TOL[k]:g})")
    if beta > 0.0:
        u = sol.dpsi
        v, _ = weight.value_and_slope(sol.r)
        p = (u * (0.5 * u + beta)
             + 4.0 * math.pi * beta * sol.r ** (n + 2.0) * v * np.exp(sol.psi))
        if not float(np.min(p)) >= -P_TOL:
            problems.append(f"Pokhozhaev P dips to {float(np.min(p)):.3g}")
    if beta_target is not None and not abs(beta - beta_target) < ROOT_TOL:
        problems.append(f"beta {beta!r} misses the target {beta_target!r}")
    return problems


def hermite(sol, rq):
    """ψ at radii rq by cubic Hermite interpolation in log r (ψ and rψ′)."""
    x = np.log(sol.r)
    xq = np.log(rq)
    i = np.clip(np.searchsorted(x, xq) - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    t = (xq - x[i]) / h
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return (h00 * sol.psi[i] + h10 * h * sol.dpsi[i]
            + h01 * sol.psi[i + 1] + h11 * h * sol.dpsi[i + 1])


def _overlap(a, b_lo, b_hi):
    keep = (a.r >= b_lo) & (a.r <= b_hi)
    return a.r[keep], keep


def bubble_problems(sol, s_star):
    """Compare with the conformal bubble of scale λ taken from s* = ψ(0)."""
    n_fam = (sol.n + 2.0) / 2.0
    lam = math.exp((s_star - math.log(8.0 * n_fam * n_fam)) / (2.0 * n_fam))
    return bubble_gap_problems(sol, n_fam, lam)


def bubble_gap_problems(sol, n_fam, lam):
    keep = sol.r <= 10.0
    r = sol.r[keep]
    exact = (-2.0 * np.log1p((lam * r) ** (2.0 * n_fam))
             + math.log(n_fam / math.pi) + 2.0 * n_fam * math.log(lam))
    gap = float(np.max(np.abs(sol.psi[keep] - exact)))
    if not gap < BUBBLE_TOL:
        return [f"bubble n_fam={n_fam:g} lambda={lam:.6g}: sup gap {gap:.3g}"]
    return []


def ordering_problems(sol_a, sol_b):
    """β < 0 ordering ψ_{β₂} + log|β₂| ≤ ψ_{β₁} + log|β₁| for β₁ ≤ β₂ < 0."""
    lo, hi = sorted((sol_a, sol_b), key=lambda s: s.beta)
    if not hi.beta < 0.0:
        return ["ordering check needs two negative couplings"]
    r, keep = _overlap(hi, lo.r[0], lo.r[-1])
    gap = (hi.psi[keep] + math.log(-hi.beta)
           - hermite(lo, r) - math.log(-lo.beta))
    worst = float(np.max(gap))
    if not worst < ORDER_TOL:
        return [f"beta<0 ordering violated by {worst:.3g} between "
                f"{lo.beta:g} and {hi.beta:g}"]
    return []


def css_problems(sol_1, sol_b, field, n_int):
    """ψ_B(r) = ψ₁(√B r) + (n_int + 1) log B on the common range."""
    scale = math.sqrt(field)
    r, keep = _overlap(sol_b, sol_1.r[0] / scale, sol_1.r[-1] / scale)
    expected = hermite(sol_1, scale * r) + (n_int + 1.0) * math.log(field)
    dev = float(np.max(np.abs(sol_b.psi[keep] - expected)))
    if not dev < CSS_TOL:
        return [f"CSS field law at B={field:g} deviates by {dev:.3g}"]
    return []


def agreement_problems(sol_a, sol_b):
    """sup |ψ_a − ψ_b| on the common range below AGREE_TOL."""
    r, keep = _overlap(sol_a, sol_b.r[0], sol_b.r[-1])
    sup = float(np.max(np.abs(sol_a.psi[keep] - hermite(sol_b, r))))
    if not sup < AGREE_TOL:
        return [f"backends disagree by {sup:.3g} at beta={sol_a.beta:g}"]
    return []


def sweep_problems(entries, centres, step, kind, flat_beta=None):
    """Mass-map sweep: no errors, β in range or flat, β′ against differences.

    kind is "positive" (0 < β < 2, the Gaussian window), "negative" (β < 0)
    or "flat" (β ≡ flat_beta and β′ ≈ 0).
    """
    problems = []
    by_s = {}
    for e in entries:
        if e.error is not None or not math.isfinite(e.beta):
            problems.append(f"s={e.s:g}: no map value ({e.error})")
            continue
        by_s[e.s] = e
        if kind == "positive" and not 0.0 < e.beta < 2.0:
            problems.append(f"s={e.s:g}: beta {e.beta!r} outside (0, 2)")
        if kind == "negative" and not e.beta < 0.0:
            problems.append(f"s={e.s:g}: beta {e.beta!r} is not negative")
        if kind == "flat":
            if not abs(e.beta - flat_beta) < FLAT_BETA_TOL:
                problems.append(f"s={e.s:g}: beta {e.beta!r} is not "
                                f"{flat_beta:g}")
            if not abs(e.beta_prime) < FLAT_PRIME_TOL:
                problems.append(f"s={e.s:g}: beta' {e.beta_prime!r} is not 0")
    for c in centres:
        trio = [by_s.get(c - step), by_s.get(c), by_s.get(c + step)]
        if None in trio:
            problems.append(f"triplet at s={c:g} incomplete")
            continue
        fd = (trio[2].beta - trio[0].beta) / (2.0 * step)
        if not abs(trio[1].beta_prime - fd) < FD_TOL:
            problems.append(f"s={c:g}: beta' {trio[1].beta_prime:.8g} vs "
                            f"centred difference {fd:.8g}")
    return problems


def verdict_problems(rows, n, beta_eqs):
    """Each Onsager row against the window n > β_eq − 2."""
    problems = []
    if len(rows) != len(beta_eqs):
        return [f"{len(rows)} scan rows for {len(beta_eqs)} temperatures"]
    for row, beta_eq in zip(rows, beta_eqs):
        inside = n > beta_eq - 2.0
        want = ("solved", "concentration") if inside else ("nonexistence",)
        if row.verdict not in want:
            problems.append(f"beta_eq={beta_eq:g}: verdict {row.verdict!r}, "
                            f"window says {' or '.join(want)}")
        elif inside and not math.isfinite(row.psi0):
            problems.append(f"beta_eq={beta_eq:g}: solved without psi(0)")
    return problems
