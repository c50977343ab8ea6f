"""Shooting solver for the radial Liouville equation.

The raw trajectory solves the initial-value problem

    ψ″ + ψ′/r + σ rⁿ V(r) e^ψ = 0,   ψ(0) = s,  ψ′(0) = 0,     σ = ±1,

together with its s-derivative φ = ∂ψ/∂s,

    φ″ + φ′/r + σ rⁿ V(r) e^ψ φ = 0,  φ(0) = 1,  φ′(0) = 0.

The coupling realized by the trajectory is β(s) = σ·½∫₀^∞ rⁿ⁺¹V e^ψ dr and
β′(s) = −½ lim r φ′(r); the sign σ selects which half-line of couplings is
reachable (σ = +1 gives β > 0, σ = −1 gives β < 0).  Shifting by the mass
normalization, ψ̃ = ψ − log(4π|β|) solves −Δψ̃ = 4πβ rⁿV e^{ψ̃} with
∫ rⁿV e^{ψ̃} dx = 1.

Numerically the ODE is integrated in x = log r with state (ψ, u, φ, w),
u = rψ′, w = rφ′, which removes the 1/r singularity:

    dψ/dx = u,   du/dx = −σ e^{(n_eff+2)x} Ṽ(e^x) e^ψ,
    dφ/dx = w,   dw/dx = −σ e^{(n_eff+2)x} Ṽ(e^x) e^ψ φ,

where Ṽ(r) = V(r)/r^{n_pow} is the smooth factor of the weight and
n_eff = n + n_pow.  Two exact bookkeeping facts drive the post-processing:
m(r) := ∫₀^r tⁿ⁺¹V e^ψ dt equals −σ·u(r) (the series start folds in the
origin cell), and the truncation tail is corrected with the frozen-slope
model ψ(t) ≈ ψ(r_max) + u(r_max)·log(t/r_max), leaving an O(tail²) error in
β and β′.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from .grids import make_grid
from .potentials import Constant, LogSingular, PowerGauss, Sphere
from .solution import NormalizedSolution

__all__ = [
    "Controls", "ShootResult", "MassMapEntry", "ShootingError",
    "NonexistenceError", "integrate_ivp", "mass_map", "solve_for_beta",
    "pokhozhaev_P",
]

_SERIES_TARGET = 1e-7     # |ψ(r0) − s| at the series/integrator handoff
_PSI_CAP = 700.0          # e^ψ overflow guard
_PLATEAU_TOL = 1e-10      # |Δ(rψ′)| over a decade ⇒ mass converged


class ShootingError(RuntimeError):
    """Integration or root-finding failure."""


class MassDivergence(ShootingError):
    """The trajectory's mass blows up (or fails to converge by the cap)."""


class NonexistenceError(ShootingError):
    """Target coupling unreachable by the mass map (likely nonexistence)."""

    def __init__(self, message, beta_range=None, s_range=None):
        super().__init__(message)
        self.beta_range = beta_range
        self.s_range = s_range


@dataclass
class Controls:
    """Integrator and root-finder knobs (defaults match the test suite)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    r_max: float = None          # fixed truncation radius; None = auto
    r_max_init: float = 64.0
    r_max_cap: float = 1e6
    tail_rel_tol: float = 1e-8   # stop when tail_mass/total < this
    root_tol: float = 1e-8       # |β(s*) − β_target|
    max_root_iter: int = 80
    n_sample: int = 8192         # output grid size


@dataclass
class ShootResult:
    """One raw trajectory: the mass-map summary plus its dense sampler.

    The output grid and the profile columns ``psi`` (ψ), ``dpsi`` (rψ′),
    ``phi`` (φ = ∂_s ψ) and ``dphi`` (rφ′) are built from the sampler on
    first access, so callers that read only β(s) and β′(s) never sample.
    """

    s: float
    n: float
    sigma: int
    beta_s: float        # tail-corrected β(s)
    beta_prime_s: float  # tail-corrected β′(s)
    r_max: float
    tail_mass: float     # estimated ∫_{r_max}^∞ tⁿ⁺¹V e^ψ dt
    converged: bool
    potential: object
    n_sample: int        # output grid size
    _sampler: object
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def grid(self):
        return make_grid(self.r_max, self.n_sample, grading="log")

    @cached_property
    def _columns(self):
        return self.sample(self.grid.nodes)

    psi = property(lambda self: self._columns[0])
    dpsi = property(lambda self: self._columns[1])
    phi = property(lambda self: self._columns[2])
    dphi = property(lambda self: self._columns[3])

    @property
    def mass_raw(self):
        """m(r) = ∫₀^r tⁿ⁺¹V e^ψ dt = −σ·rψ′, exact along the trajectory."""
        return -self.sigma * self.dpsi

    def sample(self, r):
        """(ψ, rψ′, φ, rφ′) at arbitrary radii (series + dense interpolants)."""
        return self._sampler(r)

    def to_normalized(self, grid=None):
        """Shift to ψ̃ = ψ − log(4π|β|) with unit total mass."""
        beta = self.beta_s
        if beta == 0.0:
            raise ShootingError("zero coupling cannot be mass-normalized")
        if grid is None:
            grid = self.grid
            psi, u = self.psi, self.dpsi
        else:
            psi, u, _, _ = self.sample(grid.nodes)
        shift = math.log(4.0 * math.pi * abs(beta))
        m_total = 2.0 * abs(beta)          # includes the tail correction
        mass = (-self.sigma * u) / m_total
        return NormalizedSolution(
            beta=beta, n=self.n, psi=psi - shift, dpsi=u, mass=mass,
            grid=grid, potential=self.potential,
            residuals={"tail_mass_fraction": self.tail_mass / m_total,
                       "beta_prime": self.beta_prime_s},
            meta={"s_star": self.s, "method": "shooting",
                  "sigma": self.sigma})


@dataclass
class MassMapEntry:
    s: float
    beta: float = math.nan
    beta_prime: float = math.nan
    beta_prime_fd: float = math.nan   # centered difference when neighbors exist
    error: str = None


def _smooth_scalar_fn(V):
    """Fast scalar callable for Ṽ(r) = V(r)/r^{n_pow}."""
    if isinstance(V, Constant):
        c = V.c
        return lambda r: c
    if isinstance(V, PowerGauss):
        g, a = V.gamma, V.alpha_exp
        return lambda r: math.exp(-g * r ** a)
    if isinstance(V, Sphere):
        l, g = V.l, V.gamma
        return lambda r: (1.0 + r * r) ** l * math.exp(2.0 * g / (1.0 + r * r))
    return lambda r: float(V.smooth_value(r))


class _Sampler:
    """Piecewise evaluator: power series below r0, dense segments above.

    Segment k covers log r up to ``bounds[k]``; points past the last bound
    are clamped onto it.
    """

    def __init__(self, series, x0):
        self.series = series          # (s, sigma, a, n_eff)
        self.x0 = x0
        self.bounds = []
        self.pieces = []              # OdeSolution per segment

    def add(self, x_hi, sol):
        self.bounds.append(x_hi)
        self.pieces.append(sol)

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        with np.errstate(divide="ignore"):
            x = np.log(np.maximum(r, 1e-300))
        return tuple(self.at_log_r(x))

    def at_log_r(self, x):
        """(ψ, rψ′, φ, rφ′) as rows of a 4×N array, at log-radii x."""
        out = np.empty((4, x.size))
        s, sigma, a, n_eff = self.series
        below = x < self.x0
        if np.any(below):
            t = a * np.exp((n_eff + 2.0) * x[below])
            out[0, below] = s - sigma * t
            out[1, below] = -sigma * (n_eff + 2.0) * t
            out[2, below] = 1.0 - sigma * t
            out[3, below] = -sigma * (n_eff + 2.0) * t
        idx = np.flatnonzero(~below)
        xa = np.minimum(x[idx], self.bounds[-1])
        seg = np.minimum(np.searchsorted(self.bounds, xa, side="right"),
                         len(self.pieces) - 1)
        for k in np.unique(seg):
            pick = seg == k
            out[:, idx[pick]] = self.pieces[k](xa[pick])
        return out


def _tail_integrals(V, n_eff, x_end, psi_end, u_end, phi_end, w_end):
    """Frozen-slope tail of ∫ tⁿ⁺¹V e^ψ dt and ∫ tⁿ⁺¹V e^ψ φ dt past r_max."""
    vs = _smooth_scalar_fn(V)
    r_end = math.exp(x_end)

    def log_density(t):
        v = vs(t)
        if v <= 0.0:
            return None
        lt = math.log(t)
        return psi_end + (n_eff + 2.0) * lt - lt + u_end * (lt - x_end) + math.log(v)

    def f_mass(t):
        ld = log_density(t)
        return 0.0 if ld is None else math.exp(min(ld, _PSI_CAP))

    def f_phi(t):
        ld = log_density(t)
        if ld is None:
            return 0.0
        return math.exp(min(ld, _PSI_CAP)) * (phi_end + w_end * (math.log(t) - x_end))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            tail_m = quad(f_mass, r_end, np.inf, limit=200)[0]
            tail_q = quad(f_phi, r_end, np.inf, limit=200)[0]
        except Exception:
            return math.inf, 0.0
    if not math.isfinite(tail_m):
        return math.inf, 0.0
    return tail_m, tail_q


def integrate_ivp(V, n, s, controls=None, sigma=1):
    """Integrate one raw trajectory and summarize its mass map entry.

    Returns a ShootResult.  σ = +1 targets β > 0, σ = −1 targets β < 0;
    β(s) and β′(s) carry the frozen-slope tail correction.
    """
    c = controls or Controls()
    if n < 0:
        raise ValueError("weight exponent n must be non-negative")
    if sigma not in (-1, 1):
        raise ValueError("sigma must be ±1")
    if isinstance(V, LogSingular):
        raise ValueError("log-singular weight has no finite center value; "
                         "use the closed-form oracle instead of shooting")
    if n > 0 and isinstance(V, PowerGauss) and V.n_pow > 0:
        warnings.warn("both the ODE weight exponent n and the potential's own "
                      "r-power are nonzero; the effective weight is "
                      "r^(n+n_pow)·(smooth factor) — do not double-count",
                      stacklevel=2)
    n_eff = n + float(getattr(V, "n_pow", 0.0))
    if n_eff + 2.0 <= 0.0:
        raise ValueError("effective weight exponent must exceed −2")
    if s > _PSI_CAP:
        raise ShootingError("center value too large: e^ψ overflows at r = 0")

    vs = _smooth_scalar_fn(V)
    v0 = vs(0.0) if getattr(V, "n_pow", 0.0) == 0 else vs(1e-30)
    a = v0 * math.exp(s) / (n_eff + 2.0) ** 2
    if a > 0.0:
        r0 = min((_SERIES_TARGET / a) ** (1.0 / (n_eff + 2.0)), 0.1)
    else:
        r0 = 1e-6
    x0 = math.log(r0)
    t0 = a * r0 ** (n_eff + 2.0)
    y = np.array([s - sigma * t0, -sigma * (n_eff + 2.0) * t0,
                  1.0 - sigma * t0, -sigma * (n_eff + 2.0) * t0])

    def rhs(x, y):
        F = sigma * math.exp(min((n_eff + 2.0) * x + y[0], _PSI_CAP)) * vs(math.exp(x))
        return (y[1], -F, y[3], -F * y[2])

    def blow_up(x, y):
        return y[0] - _PSI_CAP
    blow_up.terminal = True
    blow_up.direction = 1.0

    auto = c.r_max is None
    r_target = c.r_max_init if auto else float(c.r_max)
    if r_target <= r0 * 2.0:
        r_target = r0 * 4.0
    sampler = _Sampler((s, sigma, a, n_eff), x0)
    x_cur = x0
    tail_m = math.inf
    tail_q = 0.0
    converged = False
    plateau = False

    while True:
        x_target = math.log(r_target)
        sol = solve_ivp(rhs, (x_cur, x_target), y, method="DOP853",
                        rtol=c.rel_tol, atol=c.abs_tol, dense_output=True,
                        events=[blow_up])
        if sol.status == 1:
            r_stop = math.exp(sol.t_events[0][0])
            raise MassDivergence(
                f"mass did not converge at r_max = {math.exp(x_target):g}: "
                f"e^psi blows up near r = {r_stop:g}")
        if sol.status != 0:
            # a pole-type blow-up shrinks the step below machine spacing long
            # before psi reaches the overflow event
            if sol.t.size and sol.y[0, -1] > max(s, 0.0) + 10.0:
                raise MassDivergence(
                    f"mass did not converge at r_max = {math.exp(x_target):g}:"
                    f" e^psi blows up near r = {math.exp(sol.t[-1]):g}")
            raise ShootingError(f"integrator failure: {sol.message}")
        sampler.add(x_target, sol.sol)
        y = sol.y[:, -1]
        x_cur = x_target

        psi_end, u_end, phi_end, w_end = y
        tail_m, tail_q = _tail_integrals(V, n_eff, x_cur, psi_end, u_end,
                                         phi_end, w_end)
        m_end = -sigma * u_end
        total = m_end + tail_m
        if total > 0.0 and tail_m / total < c.tail_rel_tol:
            converged = True
        elif x_cur - x0 > math.log(10.0):
            # plateau stopper: slope change over the last decade
            u_back = sampler.at_log_r(np.array([x_cur - math.log(10.0)]))[1, 0]
            if abs(u_end - u_back) < _PLATEAU_TOL:
                converged = True
                plateau = True
        if converged or not auto:
            break
        r_target *= 2.0
        if r_target > c.r_max_cap:
            raise MassDivergence(
                f"mass did not converge at r_max = {c.r_max_cap:g} "
                f"(tail fraction {tail_m / max(total, 1e-300):.3g})")

    psi_end, u_end, phi_end, w_end = y
    m_end = -sigma * u_end
    if not math.isfinite(tail_m):
        tail_m = 0.0
    beta = sigma * (m_end + tail_m) / 2.0
    w_inf = w_end - sigma * tail_q
    beta_prime = -w_inf / 2.0

    return ShootResult(
        s=float(s), n=float(n), sigma=sigma, beta_s=float(beta),
        beta_prime_s=float(beta_prime), r_max=math.exp(x_cur),
        tail_mass=float(tail_m), converged=converged, potential=V,
        n_sample=c.n_sample, _sampler=sampler,
        diagnostics={"plateau_stop": plateau,
                     "n_segments": len(sampler.pieces), "r_series": r0})


def mass_map(V, n, s_list, controls=None, sigma=1):
    """Evaluate (s, β(s), β′(s)) over s_list in input order; errors per entry.

    Interior entries also record a centered-difference cross-check of β′.
    """
    s_list = list(s_list)
    if not s_list:
        raise ValueError("s_list must be non-empty")
    entries = []
    for s in s_list:
        entry = MassMapEntry(s=float(s))
        try:
            res = integrate_ivp(V, n, s, controls, sigma)
            entry.beta = res.beta_s
            entry.beta_prime = res.beta_prime_s
        except (ShootingError, ValueError) as exc:
            entry.error = str(exc)
        entries.append(entry)

    order = sorted(range(len(entries)), key=lambda i: entries[i].s)
    for j in range(1, len(order) - 1):
        lo, mid, hi = (entries[order[j - 1]], entries[order[j]],
                       entries[order[j + 1]])
        if lo.error or mid.error or hi.error:
            continue
        ds = hi.s - lo.s
        if ds > 0:
            mid.beta_prime_fd = (hi.beta - lo.beta) / ds
    return entries


def _bracket_search(shoot, beta_target, s_lo, s_hi, root_tol, max_expand=10):
    """Evaluate/expand the bracket until β(s)−target changes sign.

    ``shoot(s)`` returns (β_eff, result-or-None); β_eff is ±inf when the
    trajectory's mass diverges (the map runs off its end).  Returns
    ((s_lo, b_lo, res_lo), (s_hi, b_hi, res_hi), history, flat_family).

    flat_family is True when *both* initial endpoints already sit within
    root_tol of the target — the constant-map case (a scaling family where
    every s solves).  A single endpoint inside tolerance is NOT accepted:
    maps that saturate asymptotically toward the target drift inside any
    tolerance eventually, and only a genuine sign change distinguishes a
    crossing from an asymptote.  Raises NonexistenceError when expansion
    saturates without a sign change.
    """
    if not (s_lo < s_hi):
        raise ValueError("bracket must satisfy s_lo < s_hi")
    history = []

    def g(s):
        beta_eff, res = shoot(s)
        history.append((s, beta_eff))
        return beta_eff, res

    b_lo, res_lo = g(s_lo)
    b_hi, res_hi = g(s_hi)
    if (abs(b_lo - beta_target) < root_tol
            and abs(b_hi - beta_target) < root_tol):
        return (s_lo, b_lo, res_lo), (s_hi, b_hi, res_hi), history, True
    for attempt in range(max_expand + 1):
        g_lo = b_lo - beta_target
        g_hi = b_hi - beta_target
        if g_lo == 0.0 or g_hi == 0.0:
            break
        if g_lo * g_hi < 0.0:
            break
        if attempt == max_expand:
            _nonexistence(beta_target, history)
        width = s_hi - s_lo
        # expand the side that moves β toward the target; detect saturation
        finite = [b for _, b in history if math.isfinite(b)]
        if not finite:
            _nonexistence(beta_target, history)
        increasing = b_hi >= b_lo
        target_above = beta_target > max(g_lo + beta_target, g_hi + beta_target)
        grow_hi = (increasing == target_above)
        if grow_hi:
            s_new = s_hi + width
            b_new, res_new = g(s_new)
            moved = abs(b_new - b_hi) if math.isfinite(b_new - b_hi) else math.inf
            s_hi, b_hi, res_hi = s_new, b_new, res_new
        else:
            s_new = s_lo - width
            b_new, res_new = g(s_new)
            moved = abs(b_new - b_lo) if math.isfinite(b_new - b_lo) else math.inf
            s_lo, b_lo, res_lo = s_new, b_new, res_new
        if moved < 1e-9 * (1.0 + abs(beta_target)):
            _nonexistence(beta_target, history)   # map saturated short of target
    return (s_lo, b_lo, res_lo), (s_hi, b_hi, res_hi), history, False


def _nonexistence(beta_target, history):
    finite = [b for _, b in history if math.isfinite(b)]
    s_vals = [s for s, _ in history]
    s_range = (min(s_vals), max(s_vals))
    where = f"s in [{s_range[0]:g}, {s_range[1]:g}]"
    if not finite:
        raise NonexistenceError(
            f"target beta = {beta_target:g} unreachable — likely "
            f"nonexistence: every trajectory diverged over {where}",
            s_range=s_range)
    raise NonexistenceError(
        f"target beta = {beta_target:g} outside bracket — likely "
        f"nonexistence, cf. threshold n > beta - 2; scanned beta(s) range "
        f"[{min(finite):.6g}, {max(finite):.6g}] over {where}",
        beta_range=(min(finite), max(finite)), s_range=s_range)


def solve_for_beta(V, n, beta_target, bracket, controls=None):
    """Root-find s* with β(s*) = β_target; return the normalized solution.

    Bracketed secant (Illinois variant) with bisection fallback; when the
    sampled map is non-monotone the search degrades to pure bisection and the
    result is flagged ``multiple_roots_possible`` (uniqueness needs
    cV(r) + rV′(r) ≥ 0 for some c, which non-monotone maps may violate).
    """
    c = controls or Controls()
    if beta_target == 0.0:
        raise ValueError("beta_target must be nonzero")
    sigma = 1 if beta_target > 0 else -1
    cache = {}

    def shoot(s):
        """(β_eff, result); a diverging trajectory maps to β_eff = σ·inf."""
        if s not in cache:
            try:
                res = integrate_ivp(V, n, s, c, sigma)
                cache[s] = (res.beta_s, res)
            except MassDivergence:
                cache[s] = (sigma * math.inf, None)
        return cache[s]

    (s_lo, b_lo, res_lo), (s_hi, b_hi, res_hi), history, flat_family = \
        _bracket_search(shoot, beta_target, float(bracket[0]),
                        float(bracket[1]), c.root_tol)

    flags = []
    best = None
    if flat_family:
        for s, b, res in ((s_lo, b_lo, res_lo), (s_hi, b_hi, res_hi)):
            if res is not None and abs(b - beta_target) < c.root_tol:
                best = (s, res)
    g_lo = b_lo - beta_target
    g_hi = b_hi - beta_target

    if best is None:
        # Illinois-damped regula falsi; plain bisection while an endpoint is
        # divergent or the sampled map looks non-monotone
        side = 0
        for _ in range(c.max_root_iter):
            denom = g_hi - g_lo
            secant_ok = (math.isfinite(g_lo) and math.isfinite(g_hi)
                         and denom != 0.0
                         and "multiple_roots_possible" not in flags)
            if secant_ok:
                s_new = s_hi - g_hi * (s_hi - s_lo) / denom
                if not (s_lo < s_new < s_hi):
                    s_new = 0.5 * (s_lo + s_hi)
            else:
                s_new = 0.5 * (s_lo + s_hi)
            b_new, res_new = shoot(s_new)
            history.append((s_new, b_new))
            g_new = b_new - beta_target
            if res_new is not None and abs(g_new) < c.root_tol:
                best = (s_new, res_new)
                break
            if g_new * g_lo < 0.0:
                s_hi, g_hi = s_new, g_new
                if side == -1 and math.isfinite(g_lo):
                    g_lo *= 0.5
                side = -1
            else:
                s_lo, g_lo = s_new, g_new
                if side == 1 and math.isfinite(g_hi):
                    g_hi *= 0.5
                side = 1
            if _non_monotone(history):
                if "multiple_roots_possible" not in flags:
                    flags.append("multiple_roots_possible")
        if best is None:
            raise ShootingError(
                f"beta root did not converge in {c.max_root_iter} iterations "
                f"(bracket [{s_lo:g}, {s_hi:g}])")
    if _non_monotone(history) and "multiple_roots_possible" not in flags:
        flags.append("multiple_roots_possible")

    s_star, res = best
    # the stored β is the realized map value β(s*); it differs from the
    # requested target by less than root_tol and keeps every column
    # self-consistent
    out = res.to_normalized()
    out.tolerances = {"abs_tol": c.abs_tol, "rel_tol": c.rel_tol,
                      "root_tol": c.root_tol, "tail_rel_tol": c.tail_rel_tol}
    out.meta["beta_target"] = beta_target
    out.meta["root_iterations"] = len(history)
    if flags:
        out.meta["flags"] = flags
    return out


def _non_monotone(history, jitter=1e-9):
    pts = sorted((s, b) for s, b in history if math.isfinite(b))
    betas = [b for _, b in pts]
    up = any(b2 > b1 + jitter for b1, b2 in zip(betas, betas[1:]))
    down = any(b2 < b1 - jitter for b1, b2 in zip(betas, betas[1:]))
    return up and down


def pokhozhaev_P(result, V):
    """Pokhozhaev function P = rψ′(½rψ′ + β) + r^{n+2}V e^ψ along a profile.

    ψ here is the *raw* trajectory: for a NormalizedSolution the shift
    log(4π|β|) is added back.  For β > 0 the profile form is cross-checked
    against the integral form ∫₀^r (tV′ + (n+2−β)V) tⁿ⁺¹e^ψ dt (they agree up
    to quadrature error; the identity behind the check needs the σ=+1 sign).
    Returns a dict with the P samples and diagnostics.
    """
    if isinstance(result, NormalizedSolution):
        beta = result.beta
        n = result.n
        r = result.grid.nodes
        psi_raw = result.psi + math.log(4.0 * math.pi * abs(beta))
        u = result.dpsi
    else:
        beta = result.beta_s
        n = result.n
        r = result.grid.nodes
        psi_raw = result.psi
        u = result.dpsi

    v, dv = V.value_and_derivative(r)
    e_psi = np.exp(psi_raw)
    P = u * (0.5 * u + beta) + r ** (n + 2.0) * v * e_psi

    out = {
        "r": r, "P": P,
        "min_P": float(np.min(P)),
        "P_at_r_max": float(P[-1]),
    }
    if beta > 0.0:
        integrand = (r * dv + (n + 2.0 - beta) * v) * r ** (n + 1.0) * e_psi
        d = np.diff(r)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * d)])
        # origin cell: integrand ~ C r^{n+1}
        cum += integrand[0] * r[0] / (n + 2.0)
        cutoff = getattr(V, "cutoff_radius", None)
        if cutoff is not None and r[0] < cutoff <= r[-1]:
            # V drops by V(α⁻) at the cutoff: P jumps down accordingly
            p_at = np.interp(math.log(cutoff), np.log(r), psi_raw)
            jump = -cutoff ** (n + 2.0) * float(V.value(cutoff)) * math.exp(p_at)
            cum = np.where(r >= cutoff, cum + jump, cum)
        diff = P - cum
        scale = 1.0 + np.max(np.abs(P))
        out["integral_form"] = cum
        out["max_crosscheck_diff"] = float(np.max(np.abs(diff)) / scale)
    return out
