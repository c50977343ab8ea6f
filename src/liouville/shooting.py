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
β and β′.  When the tail is still too large, the same model gives the next
truncation radius: its mass density per unit log r decays locally like
e^{−λ log r}, so the radius where the tail fraction meets the tolerance
follows in closed form (at least one doubling, at most ``_R_MAX_CAP``).

A trajectory stops for one of five reasons:

* the tail test: the frozen-slope tail holds less than ``tail_rel_tol`` of
  the mass.  It is the only way a trajectory is returned;
* the exponent test: the frozen-slope integrand grows like
  t^{n_eff+1+p+u}, p the power of Ṽ at infinity, so its tail is infinite
  when n_eff + 2 + p + u ≥ 0 and is never accepted.  With σ = −1, u only
  grows, so ψ is convex in log r and the frozen-slope tail bounds the true
  tail from below: an infinite one stays infinite, and the trajectory
  stops at once;
* a certified blow-up (σ = −1 only).  With σ = −1, ψ_xx = g e^ψ where
  g = e^{(n_eff+2)x}Ṽ(eˣ) > 0, and u > 0.  If g ≥ g_m on [x₁, x₁ + L],
  then u² ≥ a + 2g_m e^ψ with a = u₁² − 2g_m e^{ψ₁}, so ψ reaches +∞
  before x₁ + T, T = ∫_{ψ₁}^∞ dψ/√(a + 2g_m e^ψ) (Keller, CPAM 10, 1957;
  Osserman, Pacific J. Math. 7, 1957).  g_m comes from
  ``Potential.smooth_lower_bound``, and T < L certifies the blow-up.  The
  test runs at each segment start and as a terminal event of the
  integrator, which leaves DOP853's steps, and so every converged
  trajectory, bit for bit as they are;
* the pole test (σ = −1): the step collapses at a pole of e^ψ before any
  certificate, as for a weight whose lower bound is 0;
* the cap: the tail test still fails at r_max = ``_R_MAX_CAP``.

Every stop but the tail test is a ``MassDivergence``.

A sweep over many centre values (``mass_map``) is integrated as one DOP853
system whose state is stored component-major, (ψ₁…ψ_K, u…, φ…, w…): every
member shares x and Ṽ(eˣ), so scipy's per-step interpreter cost is paid once
per sweep instead of once per trajectory, while the error norm is the
largest per-member norm, so each member meets the local tolerance it would
meet alone (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4–II.10).
Members leave the batch when their own tail test passes or their mass
blows up; the rest go on together.  The certificate's event is the least
T over the members, and a pole names the member with the largest ψ; either
way the batch stops there, the member that blew up leaves, and the rest go
on from that point.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import DOP853, IntegrationWarning, quad, solve_ivp

from .grids import MIN_NODES, make_grid
from .potentials import certify, check_exponent
from .solution import NormalizedSolution

__all__ = [
    "Controls", "ShootResult", "MassMapEntry", "ShootingError",
    "NonexistenceError", "NotFoundError", "PrecisionLimitError",
    "integrate_ivp", "mass_map", "solve_for_beta", "DEFAULT_BRACKET",
]

DEFAULT_BRACKET = (-4.0, 4.0)   # ψ(0) bracket of the presets and the CLI
_SERIES_TARGET = 1e-7     # |ψ(r0) − s| at the series/integrator handoff
_PSI_CAP = 700.0          # clamp on every exponent; larger s is rejected
_R_MAX_CAP = 1e6          # r_max extends up to this, then gives up
_MAX_EXPAND = 10          # bracket expansions before "not found"
_MAX_ROOT_ITER = 80       # Newton/bisection steps after the bracket search
_FIRST_MASS = 1e-12       # mass fraction M(r) at the output grid's first node
# log-r window L of the σ = −1 blow-up certificate: of 0.25, 0.5, 1 and 2,
# the one with the fewest RHS evaluations over the measured blow-ups
_BLOWUP_WINDOW = 1.0


class ShootingError(RuntimeError):
    """Integration or root-finding failure."""


class MassDivergence(ShootingError):
    """The mass of a trajectory, or past a variational disk, blows up or
    fails to converge by the cap."""


class NonexistenceError(ShootingError):
    """No solution exists: the message is the condition of
    ``potentials.certify`` that the input violates."""


class NotFoundError(ShootingError):
    """The root search ended without a root that it can return, and no
    condition of ``potentials.certify`` rules one out.

    ``beta_range`` holds the least and the largest finite β seen (None when
    every trajectory diverged), ``s_range`` the centre values searched.
    """

    def __init__(self, message, beta_range=None, s_range=None):
        super().__init__(message)
        self.beta_range = beta_range
        self.s_range = s_range


class PrecisionLimitError(NotFoundError):
    """The β root lies between two adjacent doubles in s: neither bracket
    end meets ``root_tol`` and bisection cannot split the bracket.  The
    ranges are those of the two ends."""


@dataclass(frozen=True)
class Controls:
    """Integrator and root-finder settings (tolerances, the first truncation
    radius, the output grid size), set by API callers and tests.  The
    command line always runs at the defaults, the settings at which the
    gate bounds of ``verify``, ``n_sample`` and ``_BLOWUP_WINDOW`` were
    measured.

    Construction refuses, naming the field, a tolerance that is negative or
    not finite, an ``r_max`` that is not positive and finite, and an
    ``n_sample`` that is not an integer of at least ``grids.MIN_NODES``:
    such values stall the integrator or fail deep inside a solve.
    ``tail_rel_tol = 0`` is legal and extends every trajectory to the cap.

    ``r_max`` only sets where the first segment ends: every trajectory is
    extended past it until its tail fraction meets ``tail_rel_tol``.

    ``n_sample`` is the node count of the output grid (see
    ``ShootResult.grid``).  Its default is the smallest of 1024, 2048, 4096
    and 8192 at which the profiles of 28 catalog inputs pass
    ``check_identities`` with the flux residual at most a tenth of its
    1e-6·(1+|β|) bound: 2048 gives 1.5e-7·(1+|β|) on the Gaussian at
    β = −20, and 1024 also fails the log-Lipschitz check.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    r_max: float = 64.0          # first truncation radius
    tail_rel_tol: float = 1e-8   # stop when tail_mass/total < this
    root_tol: float = 1e-8       # |β(s*) − β_target|
    n_sample: int = 4096         # output grid size

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_rel_tol", "root_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"Controls.{name} must be finite and "
                                 f"non-negative, got {value!r}")
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"Controls.r_max must be positive and finite, "
                             f"got {self.r_max!r}")
        if not (isinstance(self.n_sample, (int, np.integer))
                and self.n_sample >= MIN_NODES):
            raise ValueError(f"Controls.n_sample must be an integer of at "
                             f"least {MIN_NODES}, got {self.n_sample!r}")


@dataclass
class ShootResult:
    """One raw trajectory that passed its tail test: the mass-map summary
    plus its dense sampler.

    The output grid and the profile columns ``psi`` (ψ), ``dpsi`` (rψ′) and
    ``phi`` (φ = ∂_s ψ) are built from the sampler on first access, so
    callers that read only β(s) and β′(s) never sample.
    """

    s: float
    n: float
    sigma: int
    beta_s: float        # tail-corrected β(s)
    beta_prime_s: float  # tail-corrected β′(s)
    r_max: float
    tail_mass: float     # estimated ∫_{r_max}^∞ tⁿ⁺¹V e^ψ dt
    potential: object
    n_sample: int        # output grid size
    _sampler: object
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def grid(self):
        """``n_sample`` log-spaced nodes up to r_max, from the radius where
        the series start's mass fraction M(r) = k·a·rᵏ/(2|β|), k = n_eff + 2,
        falls to ``_FIRST_MASS`` (at most r_max/100).  Below it ψ differs
        from s by a negligible amount, so the first node depends on the
        solution, not on how far the tail test pushed r_max.  A weight that
        vanishes at the origin (a = 0) keeps make_grid's default."""
        _, _, a, n_eff = self._sampler.series
        r_first = None
        if a > 0.0:
            k = n_eff + 2.0
            r_first = min((2.0 * abs(self.beta_s) * _FIRST_MASS / (k * a))
                          ** (1.0 / k), 1e-2 * self.r_max)
        return make_grid(self.r_max, self.n_sample, r_first)

    @cached_property
    def _columns(self):
        return self.sample(self.grid.nodes)

    psi = property(lambda self: self._columns[0])
    dpsi = property(lambda self: self._columns[1])
    phi = property(lambda self: self._columns[2])

    def sample(self, r):
        """(ψ, rψ′, φ, rφ′) at arbitrary radii (series + dense interpolants)."""
        return self._sampler(r)

    def to_normalized(self):
        """Shift to ψ̃ = ψ − log(4π|β|) with unit total mass."""
        beta = self.beta_s
        if beta == 0.0:
            raise ShootingError("zero coupling cannot be mass-normalized")
        shift = math.log(4.0 * math.pi * abs(beta))
        m_total = 2.0 * abs(beta)          # includes the tail correction
        return NormalizedSolution(
            beta=beta, n=self.n, psi=self.psi - shift, dpsi=self.dpsi,
            grid=self.grid, potential=self.potential,
            residuals={"tail_mass_fraction": self.tail_mass / m_total,
                       "beta_prime": self.beta_prime_s},
            meta={"s_star": self.s, "method": "shooting",
                  "sigma": self.sigma})


@dataclass
class MassMapEntry:
    s: float
    beta: float = math.nan
    beta_prime: float = math.nan
    error: str = None


class _Sampler:
    """Piecewise evaluator: power series below r0, dense segments above.

    Segment k covers log r up to ``bounds[k]``; points past the last bound
    are clamped onto it.
    """

    def __init__(self, series, x0):
        self.series = series          # (s, sigma, a, n_eff)
        self.x0 = x0
        self.bounds = []
        self.pieces = []              # dense output per segment

    def add(self, x_hi, sol, member=0, size=1):
        """Append a segment: rows ``member::size`` of the dense output of a
        batch of ``size`` trajectories stored component-major."""
        self.bounds.append(x_hi)
        self.pieces.append(sol if size == 1
                           else lambda x: sol(x)[member::size])

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


def _tail_integral(V, n_eff, x_end, psi_end, u_end, phi_end=1.0, w_end=0.0):
    """Frozen-slope tail ∫_{r_max}^∞ tⁿ⁺¹V e^ψ (φ_end + w_end·log(t/r_max)) dt.

    The defaults give the mass tail; (φ, rφ′) at r_max give the φ tail that
    corrects β′.  The integrand grows like t^{n_eff+1+p+u_end}, p the power
    of Ṽ at infinity, so the tail is inf, with no quadrature, when
    n_eff + 2 + p + u_end ≥ 0 and Ṽ(r_max) > 0; also inf when the quadrature
    fails or is not finite.
    """
    vs = V.smooth_scalar
    r_end = math.exp(x_end)
    if (n_eff + 2.0 + V.decay_power - V.n_pow + u_end >= 0.0
            and vs(r_end) > 0.0):
        return math.inf

    def f(t):
        v = vs(t)
        if v <= 0.0:
            return 0.0
        lt = math.log(t)
        ld = psi_end + (n_eff + 2.0) * lt - lt + u_end * (lt - x_end) + math.log(v)
        return math.exp(min(ld, _PSI_CAP)) * (phi_end + w_end * (lt - x_end))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            tail = quad(f, r_end, np.inf, limit=200)[0]
        except Exception:
            return math.inf
    return tail if math.isfinite(tail) else math.inf


def _log_blowup_times(V, k, x, y):
    """log T of each σ = −1 member at log-radius x, from the component-major
    state y: e^ψ blows up before x + T.  inf where no bound applies (u ≤ 0,
    or Ṽ has no positive lower bound on the window).

    With g_m = e^{kx}·Ṽ_low on [x, x + L] (k > 0), T = (2/c)·h(u/c) where
    c = √(2g_m e^ψ) and h(ρ) = arccos ρ/√(1−ρ²), 1 at ρ = 1, arccosh ρ/√(ρ²−1)
    past it; see the module docstring.  Everything stays in logs, so nothing
    overflows; ρ is clipped at e⁴⁰, which only raises T, since h decreases.
    """
    size = y.size // 4
    lv = V.smooth_lower_bound(math.exp(x), math.exp(x + _BLOWUP_WINDOW))
    if not lv > 0.0:
        return [math.inf] * size
    base = math.log(2.0 * lv) + k * x
    out = []
    for psi, u in zip(y[:size].tolist(), y[size:2 * size].tolist()):
        if not u > 0.0:
            out.append(math.inf)
            continue
        half = 0.5 * (base + psi)                               # log c
        rho = math.exp(min(math.log(u) - half, 40.0))
        h = (math.acos(rho) / math.sqrt(1.0 - rho * rho) if rho < 1.0
             else math.acosh(rho) / math.sqrt(rho * rho - 1.0) if rho > 1.0
             else 1.0)
        out.append(math.log(2.0) - half + math.log(h))
    return out


def _tail_step(f_end, tail_m, total, tail_rel_tol):
    """Step in log r to the radius where the tail fraction should meet the
    tolerance, never less than one doubling.

    The mass density per unit log r, f_end at r_max, decays locally like
    e^{−λ(x − x_end)} with λ = f_end/tail_m, so the tail past r_max·e^Δ is
    tail_m·e^{−λΔ}.  Plain doubling when that rate or the target is not
    resolved; a tolerance of 0 cannot be met, so the radius doubles to the cap.
    """
    step = math.log(2.0)
    if not (0.0 < tail_m < math.inf and total > 0.0 and tail_rel_tol > 0.0):
        return step
    lam = f_end / tail_m
    if not (lam > 0.0 and math.isfinite(lam)):
        return step
    want = math.log(tail_m) - math.log(tail_rel_tol * total)
    return max(step, want / lam)


class _MaxNormDOP853(DOP853):
    """DOP853 over a batch of K trajectories stored component-major, (4·K,).

    The error norm is the largest of the K per-member DOP853 norms, so every
    member meets the local tolerance it would meet when integrated alone.
    One member keeps scipy's own norm, bit for bit.
    """

    def _estimate_error_norm(self, K, h, scale):
        size = self.n // 4
        if size == 1:
            return super()._estimate_error_norm(K, h, scale)
        err5 = (np.dot(K.T, self.E5) / scale).reshape(4, size)
        err3 = (np.dot(K.T, self.E3) / scale).reshape(4, size)
        e5 = np.sum(err5 * err5, axis=0)
        denom = e5 + 0.01 * np.sum(err3 * err3, axis=0)
        norms = np.divide(e5, np.sqrt(4.0 * denom), out=np.zeros(size),
                          where=denom > 0.0)
        return abs(h) * float(norms.max())


def _batch_rhs(vs, k, sigma, size):
    """Right-hand side for ``size`` trajectories: the scalar ``math`` form
    for one, one numpy pass (and one Ṽ(eˣ)) for all members otherwise."""
    if size == 1:
        def rhs(x, y):
            F = sigma * math.exp(min(k * x + y[0], _PSI_CAP)) * vs(math.exp(x))
            return (y[1], -F, y[3], -F * y[2])
        return rhs

    def rhs(x, y):
        psi, u, phi, w = y.reshape(4, size)
        F = (sigma * vs(math.exp(x))) * np.exp(np.minimum(k * x + psi,
                                                          _PSI_CAP))
        return np.concatenate((u, -F, w, -F * phi))
    return rhs


def integrate_ivp(V, n, s, controls=None, sigma=1):
    """Integrate raw trajectories and summarize their mass map entries.

    With one centre value s, returns its ShootResult or raises.  With a
    sequence of centre values, integrates them as one batched system and
    returns a list with one ShootResult or ShootingError per value, in
    input order; argument errors still raise.  σ = +1 targets β > 0,
    σ = −1 targets β < 0; β(s) and β′(s) carry the frozen-slope tail
    correction.
    """
    c = controls or Controls()
    check_exponent(n)
    if sigma not in (-1, 1):
        raise ValueError("sigma must be ±1")
    if V.smooth_at_origin() is None:
        raise ValueError(f"weight {V!r} has no finite center value; use the "
                         "closed-form oracle instead of shooting")
    if n > 0 and V.n_pow > 0:
        warnings.warn("both the ODE weight exponent n and the potential's own "
                      "r-power are nonzero; the effective weight is "
                      "r^(n+n_pow)·(smooth factor) — do not double-count",
                      stacklevel=2)
    n_eff = n + float(V.n_pow)
    if n_eff + 2.0 <= 0.0:
        raise ValueError("effective weight exponent must exceed −2")
    for value in np.ravel(s):
        if not math.isfinite(value):
            raise ValueError(f"center value s = {value:g} is not finite")
    if np.ndim(s) > 0:
        return _integrate(V, n, n_eff, [float(v) for v in s], c, sigma)
    out = _integrate(V, n, n_eff, [s], c, sigma)[0]
    if isinstance(out, ShootingError):
        raise out
    return out


def _integrate(V, n, n_eff, s_list, c, sigma):
    """One ShootResult or ShootingError per centre value, integrated as one
    batch that starts at the members' smallest series radius."""
    out = [None] * len(s_list)
    vs, v0 = V.smooth_scalar, V.smooth_at_origin()      # Ṽ and Ṽ(0)
    k = n_eff + 2.0
    active, coef = [], []           # members still integrating, series a
    for i, s in enumerate(s_list):
        if s > _PSI_CAP:
            out[i] = ShootingError(
                "center value too large: e^ψ overflows at r = 0")
            continue
        active.append(i)
        coef.append(v0 * math.exp(s) / k ** 2)
    if not active:
        return out

    r0 = min(min((_SERIES_TARGET / a) ** (1.0 / k), 0.1) if a > 0.0
             else 1e-6 for a in coef)
    x0 = math.log(r0)
    t0 = [a * r0 ** k for a in coef]
    y = np.array([s_list[i] - sigma * t for i, t in zip(active, t0)]
                 + [-sigma * k * t for t in t0]
                 + [1.0 - sigma * t for t in t0]
                 + [-sigma * k * t for t in t0])
    samplers = {i: _Sampler((s_list[i], sigma, a, n_eff), x0)
                for i, a in zip(active, coef)}

    x_target = math.log(max(c.r_max, 4.0 * r0))
    x_cap = math.log(_R_MAX_CAP)
    x_cur = x0
    one = _batch_rhs(vs, k, sigma, 1)     # per-member density at a segment end
    log_window = math.log(_BLOWUP_WINDOW)

    def blowup(x, y):
        """Terminal event of σ = −1: falls through 0 where the least T of
        the members falls to L/2, so that the check T < L at the next
        segment start holds with margin wherever the root lands."""
        log_t = min(_log_blowup_times(V, k, x, y))
        return min(log_t - log_window, 0.0) + math.log(2.0)

    blowup.terminal, blowup.direction = True, -1
    events = blowup if sigma == -1 else None

    def result(i, y_end, tail_m):
        """ShootResult of member i, stopped at r_max = e^x_cur in state y_end."""
        psi_end, u_end, phi_end, w_end = y_end
        m_end = -sigma * u_end
        tail_q = _tail_integral(V, n_eff, x_cur, psi_end, u_end, phi_end, w_end)
        beta = sigma * (m_end + tail_m) / 2.0
        w_inf = w_end - sigma * tail_q
        beta_prime = -w_inf / 2.0
        return ShootResult(
            s=float(s_list[i]), n=float(n), sigma=sigma, beta_s=float(beta),
            beta_prime_s=float(beta_prime), r_max=math.exp(x_cur),
            tail_mass=float(tail_m), potential=V,
            n_sample=c.n_sample, _sampler=samplers[i],
            diagnostics={"n_segments": len(samplers[i].pieces)})

    while active:
        if sigma == -1:
            # the certificate at the segment start: the event sees only a
            # sign change, so a member certified here would never fire it
            size = len(active)
            keep = []
            for m, log_t in enumerate(_log_blowup_times(V, k, x_cur, y)):
                if log_t >= log_window:
                    keep.append(m)
                    continue
                out[active[m]] = MassDivergence(
                    f"mass did not converge: e^psi blows up before r = "
                    f"{math.exp(x_cur + math.exp(log_t)):g} (certified at "
                    f"r = {math.exp(x_cur):g})")
            active = [active[m] for m in keep]
            y = y.reshape(4, size)[:, keep].reshape(-1)
            if not active:
                break
        size = len(active)
        sol = solve_ivp(_batch_rhs(vs, k, sigma, size), (x_cur, x_target), y,
                        method=_MaxNormDOP853, rtol=c.rel_tol, atol=c.abs_tol,
                        dense_output=True, events=events)
        y_end = sol.y[:, -1]
        top = int(np.argmax(y_end[:size]))
        # a pole-type blow-up shrinks the step below machine spacing while
        # psi is still far below the clamp; the member with the largest psi
        # is the one that blew up
        blown = (sol.status == -1
                 and y_end[top] > max(s_list[active[top]], 0.0) + 10.0)
        if sol.status == -1 and not blown:
            if size == 1:
                out[active[0]] = ShootingError(
                    f"integrator failure: {sol.message}")
                return out
            # a step collapse that names no member: integrate each one
            # alone, so that every failure stays with its own entry
            for i in active:
                out[i] = _integrate(V, n, n_eff, [s_list[i]], c, sigma)[0]
            return out
        x_cur = float(sol.t[-1])
        for m, i in enumerate(active):
            samplers[i].add(x_cur, sol.sol, m, size)
        if sol.status == 1:
            # the event: the next segment start certifies who leaves
            keep = range(size)
        elif blown:
            # the member with the largest psi leaves; the rest go on from here
            out[active[top]] = MassDivergence(
                f"mass did not converge at r_max = {math.exp(x_target):g}: "
                f"e^psi blows up near r = {math.exp(x_cur):g}")
            keep = [m for m in range(size) if m != top]
        else:
            keep, steps = [], []
            for j, i in enumerate(active):
                yj = y_end[j::size]
                psi_end, u_end = yj[0], yj[1]
                tail_m = _tail_integral(V, n_eff, x_cur, psi_end, u_end)
                total = -sigma * u_end + tail_m
                # a zero weight has no mass and no tail: done at once; a
                # divergent tail (inf) is never accepted
                if (tail_m / total < c.tail_rel_tol if math.inf > total > 0.0
                        else tail_m == total == 0.0):
                    out[i] = result(i, yj, tail_m)
                elif sigma == -1 and tail_m == math.inf:
                    out[i] = MassDivergence(
                        f"mass did not converge: the frozen-slope tail "
                        f"diverges at r = {math.exp(x_cur):g}")
                elif x_cur >= x_cap:
                    why = (f"tail fraction {tail_m / max(total, 1e-300):.3g}"
                           if tail_m < math.inf else "frozen-slope tail "
                           "diverges")
                    out[i] = MassDivergence(
                        f"mass did not converge at r_max = {_R_MAX_CAP:g} "
                        f"({why})")
                else:
                    keep.append(j)
                    steps.append(_tail_step(abs(one(x_cur, yj)[1]), tail_m,
                                            total, c.tail_rel_tol))
            if steps:
                x_target = min(x_cur + max(steps), x_cap)
        active = [active[j] for j in keep]
        y = y_end.reshape(4, size)[:, keep].reshape(-1)
    return out


def mass_map(V, n, s_list, controls=None, sigma=1):
    """Evaluate (s, β(s), β′(s)) over s_list in input order; errors per entry.

    The whole list is one batched ``integrate_ivp`` call.  A trajectory that
    fails records its error on its own entry; an argument error (a negative
    n, a weight that cannot be shot) raises.
    """
    s_list = list(s_list)
    if not s_list:
        raise ValueError("s_list must be non-empty")
    entries = [MassMapEntry(s=float(s)) for s in s_list]
    results = integrate_ivp(V, n, s_list, controls, sigma)
    for entry, res in zip(entries, results):
        if isinstance(res, Exception):
            entry.error = str(res)
        else:
            entry.beta = res.beta_s
            entry.beta_prime = res.beta_prime_s
    return entries


def _beta(res, sigma):
    """β of an evaluated trajectory; σ·inf when its mass diverged."""
    return sigma * math.inf if res is None else res.beta_s


def _bracket_search(shoot, evaluated, beta_target, s_lo, s_hi):
    """Expand [s_lo, s_hi] until g = β − target changes sign; return it.

    ``shoot(s)`` evaluates g(s) into ``evaluated``; g is ±inf where the mass
    diverges (the map runs off its end).  Raises NotFoundError when every
    trajectory diverges, when an expansion moves β by less than 1e-9 (the map
    saturated short of the target), or after ``_MAX_EXPAND`` expansions.
    """
    g_lo, g_hi = shoot(s_lo), shoot(s_hi)
    for attempt in range(_MAX_EXPAND + 1):
        # a zero end is tested on its own: 0·inf is NaN
        if g_lo == 0.0 or g_hi == 0.0 or g_lo * g_hi < 0.0:
            return s_lo, s_hi
        if attempt == _MAX_EXPAND or not any(evaluated.values()):
            _not_found(beta_target, evaluated)
        # both ends miss on one side: grow s_hi when β rises toward the
        # target (increasing below it, or decreasing above it), else s_lo
        width = s_hi - s_lo
        if (g_hi >= g_lo) == (g_lo < 0.0):
            g_old, s_hi = g_hi, s_hi + width
            g_new = g_hi = shoot(s_hi)
        else:
            g_old, s_lo = g_lo, s_lo - width
            g_new = g_lo = shoot(s_lo)
        if abs(g_new - g_old) < 1e-9 * (1.0 + abs(beta_target)):
            _not_found(beta_target, evaluated)


def _ranges(evaluated):
    """NotFoundError's (beta_range or None, s_range) over ``evaluated``."""
    finite = [res.beta_s for res in evaluated.values() if res is not None]
    return ((min(finite), max(finite)) if finite else None,
            (min(evaluated), max(evaluated)))


def _not_found(beta_target, evaluated):
    beta_range, s_range = _ranges(evaluated)
    seen = ("every trajectory diverged" if beta_range is None
            else "scanned beta(s) range [{:.6g}, {:.6g}]".format(*beta_range))
    raise NotFoundError(
        f"target beta = {beta_target:g} not found: {seen} over s in "
        f"[{s_range[0]:g}, {s_range[1]:g}]", beta_range, s_range)


def solve_for_beta(V, n, beta_target, bracket, controls=None):
    """Root-find s* with β(s*) = β_target; return the normalized solution.

    Raises ValueError for an input outside the domain, NonexistenceError,
    before any trajectory, when ``potentials.certify`` names a condition
    that (V, n, β_target) violates, and NotFoundError when the search ends
    without a root otherwise.  A pure power (``V.log_slope_range()`` one
    value g) maps every s to the β = n + 2 + g that ``certify`` matched to
    the target: only the upper end is integrated, and it is returned when
    its own error leaves β within 1e-6·max(1, |β_target|), not ``root_tol``.
    No other end is accepted on a tolerance, since a map that saturates
    toward the target drifts inside any tolerance: the bracket is expanded
    to a sign change and ``_root_search`` finds the root by bracketed
    Newton on the exact tail-corrected β′(s).  A result is flagged
    ``multiple_roots_possible`` when one evaluated trajectory has
    β′ > ``root_tol`` and another β′ < −``root_tol``.
    """
    c = controls or Controls()
    s_lo, s_hi = float(bracket[0]), float(bracket[1])
    if not s_lo < s_hi:
        raise ValueError("bracket must satisfy s_lo < s_hi")
    reason = certify(V, n, beta_target)
    if reason is not None:
        raise NonexistenceError(reason)
    sigma = 1 if beta_target > 0 else -1
    evaluated = {}      # s → ShootResult, or None where the mass diverged

    def shoot(s):
        """g(s) = β(s) − target; each s is integrated once."""
        if s not in evaluated:
            try:
                evaluated[s] = integrate_ivp(V, n, s, c, sigma)
            except MassDivergence:
                evaluated[s] = None
        return _beta(evaluated[s], sigma) - beta_target

    g_range = V.log_slope_range()
    flat = g_range is not None and g_range[0] == g_range[1]
    if not flat:
        s_lo, s_hi = _bracket_search(shoot, evaluated, beta_target, s_lo, s_hi)
    elif not abs(shoot(s_hi)) <= 1e-6 * max(1.0, abs(beta_target)):
        _not_found(beta_target, evaluated)
    n_bracket = len(evaluated)
    s_star = s_hi if flat else _root_search(
        shoot, evaluated, sigma, beta_target, c.root_tol, s_lo, s_hi)

    # the stored β is the realized β(s*): it keeps every column consistent
    out = evaluated[s_star].to_normalized()
    out.tolerances = {"abs_tol": c.abs_tol, "rel_tol": c.rel_tol,
                      "root_tol": c.root_tol, "tail_rel_tol": c.tail_rel_tol}
    out.meta["beta_target"] = beta_target
    # trajectories after the bracket search: Newton and bisection steps
    out.meta["root_iterations"] = len(evaluated) - n_bracket
    slopes = [res.beta_prime_s for res in evaluated.values() if res is not None]
    if (any(d > c.root_tol for d in slopes)
            and any(d < -c.root_tol for d in slopes)):
        out.meta["flags"] = ["multiple_roots_possible"]
    return out


def _root_search(shoot, evaluated, sigma, beta_target, root_tol, s_lo, s_hi):
    """s* with |β(s*) − target| < root_tol inside a sign-change bracket.

    Bracketed Newton (``rtsafe``, *Numerical Recipes* §9.4): each step is a
    Newton step s − (β − target)/β′ on the exact β′ of the bracket end
    nearest the target, taken when it lands strictly inside the bracket and
    moves at most half the previous step (the bracket width before the
    first step); bisection otherwise, a step of half the bracket width.
    Stops once the ends are adjacent doubles: with NotFoundError when the
    mass diverges at one end, since the target then lies at the end of the
    reachable range, else with PrecisionLimitError.
    """
    g_lo, g_hi = shoot(s_lo), shoot(s_hi)
    last = s_hi - s_lo
    for _ in range(_MAX_ROOT_ITER):
        # a diverged end has |g| = inf, so the nearest end is never one
        s_end = s_lo if abs(g_lo) <= abs(g_hi) else s_hi
        res = evaluated[s_end]
        s_new = math.nan
        if res.beta_prime_s != 0.0:
            s_new = s_end - (res.beta_s - beta_target) / res.beta_prime_s
        if not (s_lo < s_new < s_hi and abs(s_new - s_end) <= 0.5 * last):
            s_new = 0.5 * (s_lo + s_hi)
            if s_new in (s_lo, s_hi):
                b_lo, b_hi = (_beta(evaluated[s], sigma) for s in (s_lo, s_hi))
                if math.isinf(b_lo) or math.isinf(b_hi):
                    # g changes sign across the bracket: one end is finite
                    s_fin, s_inf = ((s_lo, s_hi) if math.isinf(b_hi)
                                    else (s_hi, s_lo))
                    raise NotFoundError(
                        f"target beta = {beta_target:.12g} lies at the end of "
                        f"the reachable range: beta = "
                        f"{evaluated[s_fin].beta_s:.12g} at "
                        f"s = {s_fin!r}, and the mass diverges from the next "
                        f"double, s = {s_inf!r}, on", *_ranges(evaluated))
                raise PrecisionLimitError(
                    f"beta root cannot be resolved in double precision: the "
                    f"bracket ends s = {s_lo!r} and {s_hi!r} are adjacent "
                    f"doubles, with beta = {b_lo:.12g} and {b_hi:.12g} "
                    f"there; target {beta_target:.12g}",
                    tuple(sorted((b_lo, b_hi))), (s_lo, s_hi))
        last = abs(s_new - s_end)
        g_new = shoot(s_new)
        if abs(g_new) < root_tol:
            return s_new
        if g_new * g_lo < 0.0:
            s_hi, g_hi = s_new, g_new
        else:
            s_lo, g_lo = s_new, g_new
    raise ShootingError(
        f"beta root did not converge in {_MAX_ROOT_ITER} iterations "
        f"(bracket [{s_lo:g}, {s_hi:g}])")
