"""Variational backend: minimize the gauged Moser energy on a truncated disk.

For β > 0 the normalized solution of −Δψ = 4πβ rⁿV e^ψ, ∫ rⁿV e^ψ = 1 is
produced constructively.  Fix the gauge profile

    ψ₀(r) = 2β log r               for r ≥ 1,
    ψ₀(r) = β(2r² − r⁴/2 − 3/2)    for r < 1,

a C¹ quartic blend with ψ₀(1) = 0 and ψ₀′(1) = 2β, whose source
f = −Δψ₀ = −8β(1−r²)·1_{r<1} integrates to exactly −4πβ.  With the folded
weight W₁ = rⁿV e^{−ψ₀} the energy over radial profiles φ on D(0,R) with
φ(R) = 0 is

    𝓔[φ] = ½∫|∇φ|² − 4πβ log ∫ W₁ e^φ − ∫ f φ,

whose Euler–Lagrange equation is −Δφ = 4πβ W₁ e^φ / S + f, S = ∫W₁e^φ.
The minimizer assembles into ψ = φ − log S − ψ₀.  As W₁ ~ r^{n+n_pow} at
0, 𝓔 is unbounded below on every disk once β > n + 2 + n_pow, the upper edge
of ``V.beta_window(n)`` (weighted Moser–Trudinger; Troyanov, Trans. AMS 324,
1991): ``minimize`` refuses such β.  Every other β is minimized, and flagged
``existence_hypotheses_violated`` unless it lies strictly inside the window.

Discretization: piecewise-linear radial finite elements on a grid of 4096
nodes spaced uniformly in log r, mass lumping for the exponential integral,
and load coefficients rescaled so that Σν = −4πβ holds exactly — this keeps
𝓔[φ+c] = 𝓔[φ] true to round-off and makes the discrete gradient exactly the
residual of the discrete Euler–Lagrange system.  Minimization runs a
Levenberg-damped Newton iteration from the start, whose step solves the
tridiagonal-plus-rank-one Hessian system (Sherman–Morrison).  Only when
Newton stalls short of the gradient tolerance does limited-memory
quasi-Newton (L-BFGS-B) descend from where it stopped, after which Newton
runs once more.
One discretization is built per disk: the minimizer's result carries it with
its gauge and weight, and the assembled solution reuses it together with the
minimizer's log-mass.

The slope column of the assembled solution comes from integrating the
Euler–Lagrange equation: r ψ′(r) = −2β m(r)/S with m(r) = ∫_{D(0,r)} W₁ e^φ,
so the mass M = −rψ′/(2β) it implies has M(R) = 1 at the discrete level;
independent residuals are left to the verification module.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_banded
from scipy.optimize import minimize as scipy_minimize
from scipy.special import logsumexp

from .grids import Grid, make_grid
from .potentials import certify
from .shooting import (_R_MAX_CAP, Controls, MassDivergence,
                       NonexistenceError, _tail_integral, _tail_step)
from .solution import NormalizedSolution

__all__ = [
    "Gauge", "MinimizeResult", "EnergyUnboundedError",
    "build_gauge", "energy", "minimize", "to_solution", "variational_solve",
]


_N_NODES = 4096            # grid nodes per disk
_R_FIRST = 12.0            # radius of the first disk
_MAX_ITER = 500            # L-BFGS-B iteration cap after a Newton stall
_GRAD_TOL = 1e-8           # sup-norm of the gradient at convergence
_NEWTON_ITER = 120         # step cap of each damped Newton run


class EnergyUnboundedError(RuntimeError):
    """β lies above the window's upper edge n + 2 + n_pow, where the energy
    is unbounded below on every disk: no minimizer exists."""


@dataclass
class Gauge:
    beta: float
    grid: Grid
    psi0: np.ndarray      # ψ₀ at the nodes
    f: np.ndarray         # −Δψ₀, supported in r < 1


@dataclass
class MinimizeResult:
    phi: np.ndarray           # minimizer, boundary node pinned to 0
    energy: float
    energy_trace: list
    grad_norm: float
    log_mass: float           # log ∫ W₁ e^φ
    dirichlet: float          # ∫ |∇φ|²
    converged: bool
    iterations: int
    _disc: object = field(repr=False)  # the _Discretization minimized over
    flags: list = field(default_factory=list)


def build_gauge(beta, grid):
    """Gauge profile ψ₀ and its source f = −Δψ₀ on the grid nodes."""
    if beta <= 0:
        raise ValueError("the variational backend needs beta > 0")
    if not isinstance(grid, Grid):
        raise TypeError("grid must be a Grid")
    r = grid.nodes
    inner = r < 1.0
    psi0 = np.where(inner, beta * (2.0 * r * r - 0.5 * r ** 4 - 1.5),
                    2.0 * beta * np.log(np.maximum(r, 1e-300)))
    f = np.where(inner, -8.0 * beta * (1.0 - r * r), 0.0)
    return Gauge(beta=float(beta), grid=grid, psi0=psi0, f=f)


class _Discretization:
    """Stiffness, lumped masses, and load for the radial P1 energy; raises
    when ∫W₁e^φ is not positive (outside the admissible class)."""

    def __init__(self, gauge, V, n):
        r = gauge.grid.nodes
        self.gauge = gauge
        self.V = V
        self.r = r
        self.beta = gauge.beta
        self.n = float(n)
        h = np.diff(r)
        # ½∫|∇φ|² = Σ c_i (φ_{i+1} − φ_i)²,   c_i = π(r_i + r_{i+1})/(2 h_i)
        self.c = math.pi * (r[:-1] + r[1:]) / (2.0 * h)
        # composite trapezoid weights over [r₀, R]; the origin cell is extra
        weights = np.zeros_like(r)
        weights[:-1] += 0.5 * h
        weights[1:] += 0.5 * h
        self.weights = weights

        w1 = r ** self.n * V.value(r) * np.exp(-gauge.psi0)
        # the cell [0, r₀] under W₁ ~ r^{n+n_pow}, with φ frozen at φ(r₀)
        self.origin_cell = 2.0 * math.pi * w1[0] * r[0] ** 2 \
            / (self.n + float(V.n_pow) + 2.0)
        mu = 2.0 * math.pi * weights * w1 * r
        mu[0] += self.origin_cell
        if not np.any(mu > 0.0):
            raise ValueError(
                "outside admissible class: weighted mass is not positive")
        self.mu = mu
        with np.errstate(divide="ignore"):
            self.log_mu = np.log(mu)

        nu = 2.0 * math.pi * weights * gauge.f * r
        nu[0] += 2.0 * math.pi * gauge.f[0] * r[0] ** 2 / 2.0
        total = nu.sum()
        target = -4.0 * math.pi * gauge.beta
        if total != 0.0:
            nu *= target / total        # Σν = −4πβ exactly: 𝓔[φ+c] = 𝓔[φ]
        self.nu = nu
        self.w1 = w1

    def energy_grad(self, phi):
        dphi = np.diff(phi)
        dirichlet_half = float(np.dot(self.c, dphi * dphi))
        log_s = float(logsumexp(self.log_mu + phi))
        value = dirichlet_half - 4.0 * math.pi * self.beta * log_s \
            - float(np.dot(self.nu, phi))
        grad = np.zeros_like(phi)
        grad[:-1] -= 2.0 * self.c * dphi
        grad[1:] += 2.0 * self.c * dphi
        softmax = np.exp(self.log_mu + phi - log_s)
        grad -= 4.0 * math.pi * self.beta * softmax
        grad -= self.nu
        return value, grad, log_s, 2.0 * dirichlet_half

    def hessian_banded(self, phi, log_s):
        """T (tridiagonal part) of H = T + ρ m mᵀ, reduced by the pinned
        boundary node, in solve_banded layout."""
        m = np.exp(self.log_mu + phi - log_s)  # softmax weights, sum 1
        nn = phi.size
        diag = np.zeros(nn)
        diag[:-1] += 2.0 * self.c
        diag[1:] += 2.0 * self.c
        diag -= 4.0 * math.pi * self.beta * m
        off = -2.0 * self.c
        band = np.zeros((3, nn - 1))
        band[0, 1:] = off[:-1]
        band[1, :] = diag[:-1]
        band[2, :-1] = off[:-1]
        return band, m[:-1]


def energy(gauge, V, phi, n=0.0):
    """(𝓔[φ], ∇𝓔[φ]) for a node profile φ; no boundary condition imposed.

    Raises when the weighted mass ∫W₁e^φ is not positive (the profile falls
    outside the admissible class).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != gauge.grid.nodes.shape:
        raise ValueError("phi must have one value per grid node")
    value, grad, _, _ = _Discretization(gauge, V, n).energy_grad(phi)
    return value, grad


def _newton(disc, phi, trace):
    """Levenberg-damped Newton on H = T + ρ m mᵀ (tridiagonal + rank-one).

    Sherman–Morrison keeps every solve banded; λ adapts: shrink on an
    accepted step, grow when the shifted system is not a safe descent
    system (T indefiniteness shows up as a non-positive denominator).  Stops
    at a gradient below 1e-11, after ``_NEWTON_ITER`` steps, or when 25
    damping increases in a row are rejected.  Appends each energy decrease
    to ``trace``; returns (φ, accepted steps, sup-norm of the gradient).
    """
    value, grad, log_s, _ = disc.energy_grad(phi)
    grad_norm = float(np.max(np.abs(grad[:-1])))
    rho = 4.0 * math.pi * disc.beta
    lam = 1e-3
    steps = 0
    for _ in range(_NEWTON_ITER):
        if grad_norm < 1e-11:
            break
        band, m = disc.hessian_banded(phi, log_s)
        accepted = False
        for _ in range(25):
            band_l = band.copy()
            band_l[1] += lam
            try:
                sol2 = solve_banded((1, 1), band_l,
                                    np.column_stack([-grad[:-1], m]))
            except (np.linalg.LinAlgError, ValueError):
                lam *= 4.0
                continue
            t_g, t_m = sol2[:, 0], sol2[:, 1]
            denom = 1.0 + rho * float(np.dot(m, t_m))
            if denom == 0.0 or not np.all(np.isfinite(sol2)):
                lam *= 4.0
                continue
            red = t_g - rho * t_m * float(np.dot(m, t_g)) / denom
            if float(np.dot(grad[:-1], red)) >= 0.0:
                lam *= 4.0
                continue
            trial = phi + np.concatenate([red, [0.0]])
            tv, tg, tls, _ = disc.energy_grad(trial)
            tgn = float(np.max(np.abs(tg[:-1])))
            if tv < value or (tv == value and tgn < grad_norm):
                if tv < value:
                    trace.append(tv)
                phi, value, grad, log_s, grad_norm = trial, tv, tg, tls, tgn
                steps += 1
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
    return phi, steps, grad_norm


def minimize(gauge, V, init=None, n=0.0):
    """Minimize the gauged energy over radial profiles with φ(R) = 0.

    Damped Newton runs first; when it stops short of ``_GRAD_TOL`` (step cap
    or rejected damping), L-BFGS-B descends from where it stopped and Newton
    runs once more.  ``iterations`` counts Newton steps plus L-BFGS-B
    iterations.  Raises ``EnergyUnboundedError`` when β > n + 2 + n_pow, the
    upper edge of the weight's window (lo, hi) = ``V.beta_window(n)``, where
    no minimizer exists.  Flags ``existence_hypotheses_violated`` unless
    lo < β < hi: for β > 0 that is exactly when some margin δ > 0 meets
    both integrability conditions, and it implies β ≥ −α(V).
    """
    lo, hi = V.beta_window(n)
    if gauge.beta > hi:
        raise EnergyUnboundedError(
            f"beta = {gauge.beta:g} exceeds n + 2 + n_pow = {hi:g}: the "
            "energy's infimum is -inf on every disk, so no minimizer exists; "
            "the shooting backend tests whether a solution does")
    grid = gauge.grid
    disc = _Discretization(gauge, V, n)

    flags = [] if lo < gauge.beta < hi else ["existence_hypotheses_violated"]

    nn = grid.n_nodes
    phi = np.zeros(nn) if init is None else np.array(init, dtype=float)
    if phi.shape != (nn,):
        raise ValueError("init must match the grid")
    if not np.all(np.isfinite(phi)):
        raise ValueError("init must be finite at every node")
    phi[-1] = 0.0

    trace = [disc.energy_grad(phi)[0]]
    phi, iterations, grad_norm = _newton(disc, phi, trace)
    if grad_norm >= _GRAD_TOL:
        def objective(x):
            value, grad, _, _ = disc.energy_grad(np.concatenate([x, [0.0]]))
            return value, grad[:-1]

        def on_step(xk):
            trace.append(objective(xk)[0])

        res = scipy_minimize(objective, phi[:-1], jac=True, method="L-BFGS-B",
                             callback=on_step,
                             options={"maxiter": _MAX_ITER, "ftol": 1e-16,
                                      "gtol": _GRAD_TOL, "maxcor": 20})
        phi, steps, grad_norm = _newton(
            disc, np.concatenate([res.x, [0.0]]), trace)
        iterations += int(res.nit) + steps

    value, _, log_s, dirichlet = disc.energy_grad(phi)
    converged = grad_norm < _GRAD_TOL
    if not converged:
        flags.append("not_converged")

    return MinimizeResult(
        phi=phi, energy=float(value), energy_trace=trace,
        grad_norm=grad_norm, log_mass=float(log_s),
        dirichlet=float(dirichlet), converged=bool(converged),
        iterations=iterations, _disc=disc, flags=flags)


def to_solution(m):
    """Assemble ψ = φ − log S − ψ₀ and its exact discrete slope column.

    Reuses the discretization of the minimize result ``m`` (its gauge and
    weight) and its log S.
    """
    disc = m._disc
    gauge, V = disc.gauge, disc.V
    grid = gauge.grid
    psi = m.phi - m.log_mass - gauge.psi0
    # EL integration: r ψ′ = −2β m_V(r)/S.  The node-sampled cumulative is a
    # trapezoid sum (a plain cumsum of lumped cells lands on cell midpoints,
    # a visible O(h) offset); the origin cell below the first node is the
    # lumped masses' own.
    dens = 2.0 * math.pi * disc.w1 * np.exp(m.phi) * grid.nodes
    m_v = cumulative_trapezoid(dens, grid.nodes, initial=0.0)
    m_v += disc.origin_cell * np.exp(m.phi[0])
    dpsi = -2.0 * gauge.beta * (m_v / m_v[-1])
    return NormalizedSolution(
        beta=gauge.beta, n=disc.n, psi=psi, dpsi=dpsi, grid=grid, potential=V,
        tolerances={"grad_tol": _GRAD_TOL},
        residuals={"el_grad_norm": m.grad_norm,
                   "energy": m.energy, "dirichlet": m.dirichlet},
        meta={"method": "variational", "flags": list(m.flags),
              "log_mass": m.log_mass, "iterations": m.iterations})


def variational_solve(V, n, beta):
    """Build the gauge and minimize on disks grown by shooting's
    truncation rule.

    Raises before any disk: ValueError for an input outside the domain,
    NonexistenceError when ``potentials.certify`` names a condition that
    (V, n, β) violates, and ValueError for any other β < 0, since the
    backend needs β > 0.
    The first disk has radius 12.  After each solve the frozen-slope tail
    past R, from ψ̃(R) and rψ̃′(R) = −2β, must hold less than
    ``Controls.tail_rel_tol`` of the unit mass; otherwise the disk jumps
    to the radius where that tail is predicted to meet it, up to r = 10⁶.
    A tail that is negative, not finite or still too large at that cap
    raises ``MassDivergence``.  Returns (solution, minimize result).
    """
    reason = certify(V, n, beta)
    if reason is not None:
        raise NonexistenceError(reason)
    tol = Controls.tail_rel_tol
    n_eff = n + float(V.n_pow)
    radius = _R_FIRST
    while True:
        gauge = build_gauge(beta, make_grid(radius, _N_NODES))
        result = minimize(gauge, V, n=n)
        # ψ̃(R) as to_solution assembles it, with φ(R) = 0
        psi_end = -result.log_mass - float(gauge.psi0[-1])
        tail = 2.0 * math.pi * _tail_integral(V, n_eff, math.log(radius),
                                              psi_end, -2.0 * beta)
        if 0.0 <= tail < tol:
            break
        if not 0.0 <= tail < math.inf or radius >= _R_MAX_CAP:
            raise MassDivergence(
                f"mass did not converge on the disk r_max = {radius:g} "
                f"(tail fraction {tail:.3g})")
        density = 2.0 * math.pi * radius ** (n_eff + 2.0) \
            * V.smooth_scalar(radius) * math.exp(psi_end)
        x_next = math.log(radius) + _tail_step(density, tail, 1.0, tol)
        radius = (_R_MAX_CAP if x_next >= math.log(_R_MAX_CAP)
                  else math.exp(x_next))
    sol = to_solution(result)
    sol.residuals["tail_mass_fraction"] = tail
    sol.tolerances["tail_rel_tol"] = tol
    return sol, result
