"""Catalog of radial weights V(r) with derivatives and structural checks.

Every weight used by the suite is non-negative and radial.  The catalog:

    Constant(c)                      V = c
    PowerGauss(n_pow, gamma, a_exp)  V = r^n_pow · exp(−gamma·r^a_exp)
    Sphere(l, gamma)                 V = (1+r²)^l · exp(2·gamma/(1+r²))
    LogSingular(alpha_cut)           V = −1/(8πβ) · 1_{r≤α} · r⁻²(−log r)^{−3/2},
                                     β = 1/(4 log α) < 0 stored alongside
    Tabulated(radii, values)         monotone C¹ cubic in log r, constant
                                     below the table, fitted power-law tail

Three evaluators read a weight: `value_and_derivative(r)` (V and V′ on an
array or one radius), `value(r)` (V alone) and `smooth_scalar(r)` (the
float Ṽ = V/r^n_pow at one radius, for the shooting RHS).  Shooting also
reads Ṽ(0), its series start (`smooth_at_origin()`), and a lower bound of Ṽ
on an interval, its blow-up certificate (`smooth_lower_bound(r_a, r_b)`).

Two structural quantities drive existence theory and are exposed here:

  * the integrability exponent α(V) = sup{α : ∫_{|x|>1} |V| |x|^{2α} dx < ∞},
  * the finiteness conditions on ∫_{D(0,1)} |x|ⁿV⁺ |x|^{−β−δ},
    ∫_{|x|>1} |x|ⁿV⁺ |x|^{−β+δ} and ∫_{|x|>1} V⁻ |x|^{−2β} for a coupling β,
    margin δ > 0 and the problem weight |x|ⁿV (V⁻ ≡ 0 for the whole
    catalog).

Both follow from two exponents that every weight states: V ~ r^n_pow at the
origin and V ~ r^decay_power at infinity.  `Potential.beta_window(n)` turns
them into the paper's window n + 2 + decay_power < β < n + 2 + n_pow, a
sufficient condition that the minimizer's hypotheses flag reads.  The
log-singular borderline, which these powers do not describe, overrides the
origin condition.  A sampled table is constant below its first node and
follows its fitted power law past its last, so both powers describe it
exactly.  `certify(V, n, β)` decides existence from two necessary
conditions, finite mass and the index identity (`log_slope_range()`).

No package code reads α(V) (`alpha_of_v`) or the finiteness conditions
(`check_conditions`).  They stay only because the benchmark in `perfbench/`
times `check_conditions` for its `potentials.check_conditions.s` metric;
their deletion waits on that metric's removal (ROADMAP items 11 and 13).
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = [
    "Constant", "PowerGauss", "Sphere", "LogSingular", "Tabulated",
    "alpha_of_v", "check_conditions", "ConditionReport", "certify",
    "parse_potential", "load_tabulated",
]


def _safe_pow(r, p):
    """r**p for r ≥ 0 with the r = 0 limits (0^0 = 1, 0^neg = inf)."""
    r = np.asarray(r, dtype=float)
    if p == 0:
        return np.ones_like(r)
    out = np.full_like(r, 0.0 if p > 0 else np.inf)
    return np.power(r, p, out=out, where=r > 0)


class Potential:
    """Base class; concrete variants implement _value_deriv on positive radii."""

    #: power of r factored out at the origin (V(r) ~ r^n_pow · smooth part)
    n_pow = 0.0
    #: power of r at infinity (V(r) ~ r^decay_power); −inf for Gaussian decay
    #: and for compact support
    decay_power = 0.0
    #: radius where V drops discontinuously to zero, or None
    cutoff_radius = None
    #: V is sampled, so its decay power is a fit and its conditions approximate
    sampled = False

    def value_and_derivative(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 0):
            raise ValueError("negative radius")
        v, dv = self._value_deriv(r)
        if scalar:
            return float(v[0]), float(dv[0])
        return v, dv

    def value(self, r):
        return self.value_and_derivative(r)[0]

    def smooth_scalar(self, r):
        """Ṽ = V/r^n_pow as a float at one radius r ≥ 0, for the shooting RHS."""
        if self.n_pow == 0:
            return self.value(r)
        return float(self.value(max(r, 1e-300)) * _safe_pow(r, -self.n_pow))

    def smooth_at_origin(self):
        """Ṽ(0); None when no solution has a finite centre value."""
        return self.smooth_scalar(0.0)

    def smooth_lower_bound(self, r_a, r_b):
        """A rigorous lower bound of Ṽ on [r_a, r_b], 0 ≤ r_a ≤ r_b, for the
        shooting blow-up certificate.  The base's 0 means no bound: the
        σ = −1 trajectories of such a weight end through the pole test."""
        return 0.0

    def beta_window(self, n):
        """(lo, hi): the couplings β for which both integrability conditions
        on rⁿV hold for some δ > 0; rⁿV ~ r^{n+n_pow} at 0 sets hi and
        rⁿV ~ r^{n+decay_power} at ∞ sets lo.  Empty when lo ≥ hi."""
        return (n + 2.0) + self.decay_power, (n + 2.0) + self.n_pow

    def origin_integrable(self, beta, delta, n):
        """2π ∫_0^1 rⁿV(r) r^{1−β−δ} dr < ∞."""
        return beta + delta < self.beta_window(n)[1]

    def infinity_integrable(self, beta, delta, n):
        """2π ∫_1^∞ rⁿV(r) r^{1−β+δ} dr < ∞."""
        return beta > self.beta_window(n)[0] + delta

    def _require_finite(self):
        """Refuse a parameter that is NaN or infinite, naming it."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"weight parameter {f.name} must be finite, "
                                 f"got {value:g}")

    def has_positivity_annulus(self):
        """V > 0 on some annulus R1 < r < R2; the base samples [0.5, 2]."""
        return bool(np.min(self.value(np.linspace(0.5, 2.0, 33))) > 0)

    def log_slope_range(self):
        """(inf g, sup g) of g = rV′/V over {V > 0}; None (the log-singular
        weight, whose cutoff jump no g describes) skips `certify`'s index
        condition."""
        return None

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


@dataclass(frozen=True, repr=False)
class Constant(Potential):
    c: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if self.c < 0:
            raise ValueError("constant weight must be non-negative")

    def _value_deriv(self, r):
        return np.full_like(r, self.c), np.zeros_like(r)

    def smooth_scalar(self, r):
        return self.c

    def smooth_lower_bound(self, r_a, r_b):
        return self.c

    def log_slope_range(self):
        return 0.0, 0.0

    def descriptor(self):
        return f"const:c={self.c!r}"


@dataclass(frozen=True, repr=False)
class PowerGauss(Potential):
    """V = r^n_pow · exp(−gamma · r^alpha_exp)."""

    n_pow: float = 0.0
    gamma: float = 1.0
    alpha_exp: float = 2.0

    def __post_init__(self):
        self._require_finite()
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.alpha_exp <= 0:
            raise ValueError("alpha_exp must be positive")

    def _value_deriv(self, r):
        if self.n_pow < 0 and np.any(r == 0):
            raise ValueError("r = 0 not in the domain for negative n_pow")
        g, a, npw = self.gamma, self.alpha_exp, self.n_pow
        damp = np.exp(-g * _safe_pow(r, a))
        v = _safe_pow(r, npw) * damp
        # V' = e^{−γ r^a} (n_pow r^{n_pow−1} − γ a r^{n_pow+a−1})
        term = np.zeros_like(r)
        if npw != 0.0:
            term = npw * _safe_pow(r, npw - 1)
        if g != 0.0:
            term = term - g * a * _safe_pow(r, npw + a - 1)
        return v, damp * term

    @property
    def decay_power(self):
        return -math.inf if self.gamma > 0 else self.n_pow

    def smooth_scalar(self, r):
        return math.exp(-self.gamma * r ** self.alpha_exp)

    def smooth_lower_bound(self, r_a, r_b):
        return self.smooth_scalar(r_b)        # Ṽ decreases, since γ ≥ 0

    def log_slope_range(self):
        # g = n_pow − γ·a·r^a
        return -math.inf if self.gamma > 0 else self.n_pow, self.n_pow

    def descriptor(self):
        return f"gauss:npow={self.n_pow!r},gamma={self.gamma!r},alpha={self.alpha_exp!r}"


@dataclass(frozen=True, repr=False)
class Sphere(Potential):
    """V = (1+r²)^l · exp(2·gamma/(1+r²)), the stereographic weight."""

    l: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        self._require_finite()
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def _value_deriv(self, r):
        q = 1.0 + r * r
        v = q ** self.l * np.exp(2.0 * self.gamma / q)
        dv = v * (2.0 * self.l * r / q - 4.0 * self.gamma * r / (q * q))
        return v, dv

    @property
    def decay_power(self):
        return 2.0 * self.l

    def smooth_scalar(self, r):
        q = 1.0 + r * r
        return q ** self.l * math.exp(2.0 * self.gamma / q)

    def smooth_lower_bound(self, r_a, r_b):
        # q^l is monotone in q = 1 + r² and e^{2γ/q} decreases, so the least
        # of q^l at the ends times e^{2γ/q_b}
        q_a, q_b = 1.0 + r_a * r_a, 1.0 + r_b * r_b
        return (q_a if self.l > 0 else q_b) ** self.l \
            * math.exp(2.0 * self.gamma / q_b)

    def log_slope_range(self):
        # g = 4γt² + (2l − 4γ)t on t = r²/(1+r²) ∈ (0, 1): its end values 0
        # and 2l, and its minimum at t = ½ − l/(4γ) when that lies inside
        t = 0.0
        if self.gamma > 0:
            t = min(max(0.5 - self.l / (4.0 * self.gamma), 0.0), 1.0)
        g_t = 4.0 * self.gamma * t * t + (2.0 * self.l - 4.0 * self.gamma) * t
        return min(0.0, 2.0 * self.l, g_t), max(0.0, 2.0 * self.l)

    def descriptor(self):
        return f"sphere:l={self.l!r},gamma={self.gamma!r}"


@dataclass(frozen=True, repr=False)
class LogSingular(Potential):
    """The exact-oracle weight V = −1/(8πβ) · 1_{[0,α]} · r⁻² (−log r)^{−3/2}.

    The matching coupling β = 1/(4 log α) < 0 is stored alongside because the
    pair (V, β) forms a closed-form solution; see oracles.sharp_regularity_example.
    """

    alpha_cut: float
    decay_power = -math.inf   # supported inside the unit disk

    def __post_init__(self):
        if not (0.0 < self.alpha_cut < 1.0):
            raise ValueError("alpha_cut must lie in (0, 1)")

    @property
    def beta(self):
        return 1.0 / (4.0 * math.log(self.alpha_cut))

    @property
    def prefactor(self):
        # −1/(8πβ) = (−log α)/(2π) > 0
        return -math.log(self.alpha_cut) / (2.0 * math.pi)

    @property
    def n_pow(self):
        return -2.0

    @property
    def cutoff_radius(self):
        return self.alpha_cut

    def _value_deriv(self, r):
        if np.any(r == 0):
            raise ValueError("r = 0 not in the domain of the log-singular weight")
        v = np.zeros_like(r)
        dv = np.zeros_like(r)
        inside = r <= self.alpha_cut
        ri = r[inside]
        u = -np.log(ri)
        vi = self.prefactor / (ri * ri * u ** 1.5)
        v[inside] = vi
        dv[inside] = vi * (-2.0 / ri + 1.5 / (ri * u))
        return v, dv

    def origin_integrable(self, beta, delta, n):
        # rⁿV ~ r^{n−2}(−log r)^{−3/2}: integrable against r^{1−β−δ} iff
        # β+δ ≤ n
        return beta + delta <= n

    def smooth_at_origin(self):
        return None     # the solution falls to −∞ at the origin

    def has_positivity_annulus(self):
        return True     # V > 0 on 0 < r ≤ alpha_cut

    def descriptor(self):
        return f"logsing:alpha={self.alpha_cut!r}"


class Tabulated(Potential):
    """Weight sampled at (r, V) nodes, with one model that every layer reads.

    On [radii[0], radii[-1]] V is the monotone C¹ cubic in log r through the
    nodes (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).  Below radii[0]
    it is the constant values[0], so V ~ r⁰ at the origin.  Past radii[-1] it
    is the tail values[-1]·(r/radii[-1])^p, where p = decay_power is fitted to
    the last decade of the table; the tail is 0 when fewer than two nodes of
    that decade are positive.
    """

    sampled = True

    def __init__(self, radii, values, path=None):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.size < 2 or radii.shape != values.shape:
            raise ValueError("need matching 1-d radii/values with ≥ 2 rows")
        if not np.all(np.diff(radii) > 0) or radii[0] <= 0:
            raise ValueError("radii must be positive and strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("tabulated values must be finite and non-negative")
        self.radii = radii
        self.values = values
        self._log_r = np.log(radii)
        self.path = path
        self._cubic = PchipInterpolator(self._log_r, values)
        self.decay_power = self._fit_decay_power()

    def _fit_decay_power(self):
        """Slope of log V over the last decade of the table."""
        r_hi = self.radii[-1]
        r_lo = max(self.radii[0], r_hi / 10.0)
        mask = (self.radii >= r_lo) & (self.values > 0)
        if np.count_nonzero(mask) < 2:
            return -math.inf  # tail is identically zero: compact support
        x = np.log(self.radii[mask])
        y = np.log(self.values[mask])
        return float(np.polyfit(x, y, 1)[0])

    def _value_deriv(self, r):
        r = np.maximum(r, 1e-300)
        x = np.clip(np.log(r), self._log_r[0], self._log_r[-1])
        v = self._cubic(x)
        dv = self._cubic(x, 1) / r                 # dV/dr = (dV/d log r)/r
        dv[r < self.radii[0]] = 0.0
        past = r > self.radii[-1]
        p = self.decay_power
        if p == -math.inf:
            v[past] = dv[past] = 0.0
        elif np.any(past):
            v[past] = self.values[-1] * (r[past] / self.radii[-1]) ** p
            dv[past] = p * v[past] / r[past]
        return v, dv

    def smooth_lower_bound(self, r_a, r_b):
        """Least of V at the two ends and at the nodes between them: the
        monotone cubic keeps each cell between its node values, and V is
        constant below the table and a power past it."""
        inside = self.values[np.searchsorted(self.radii, r_a, side="right"):
                             np.searchsorted(self.radii, r_b)]
        return float(min(self.value(np.array([r_a, r_b])).min(),
                         inside.min(initial=math.inf)))

    def has_positivity_annulus(self):
        """At least two positive nodes; V is taken as positive between the
        first and the last of them."""
        return bool(np.count_nonzero(self.values > 0) >= 2)

    def log_slope_range(self):
        """g of the cubic on a log grid eight times finer than the table,
        where it is positive, with g = 0 below the table and g = p past it:
        approximate, like the fitted p."""
        x = np.linspace(self._log_r[0], self._log_r[-1], 8 * self.radii.size)
        v = self._cubic(x)
        g = np.append(self._cubic(x[v > 0], 1) / v[v > 0],
                      [0.0, self.decay_power])
        return float(g.min()), float(g.max())

    def descriptor(self):
        return f"table={self.path}" if self.path else "table=<inline>"


def load_tabulated(path):
    """Read a two-column CSV with header row ``r,V``."""
    radii, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["r", "V"]:
            raise ValueError(f"{path}: expected CSV header 'r,V'")
        for row in reader:
            if not row:
                continue
            radii.append(float(row[0]))
            values.append(float(row[1]))
    return Tabulated(radii, values, path=str(path))


# ---------------------------------------------------------------------------
# structural quantities
# ---------------------------------------------------------------------------

def alpha_of_v(V):
    """sup{α : ∫_{|x|>1} |V| |x|^{2α} dx < ∞}; +inf when every α qualifies.

    V ~ r^p at infinity (p = V.decay_power) makes ∫ r^{p+2α+1} dr finite iff
    2α < −p − 2.  For a Tabulated weight p is fitted to the last decade of
    the table and V follows r^p past it, so check_conditions flags the result
    approximate.  No package code reads it (see the module docstring).
    """
    return -1.0 - V.decay_power / 2.0


@dataclass
class ConditionReport:
    """Boolean record of the structural existence conditions for (V, β, δ)."""

    beta: float
    delta: float
    alpha_v: float
    min_condition_ok: bool       # β ≥ −α(V)
    origin_integral_ok: bool     # ∫_{D(0,1)} |x|ⁿV⁺ |x|^{−β−δ} < ∞
    infinity_integral_ok: bool   # ∫_{|x|>1} |x|ⁿV⁺ |x|^{−β+δ} < ∞
    vminus_integral_ok: bool     # ∫_{|x|>1} V⁻ |x|^{−2β} < ∞ (V⁻ ≡ 0 here)
    positivity_annulus_ok: bool
    approximate: bool = False

    @property
    def all_pass(self):
        return (self.min_condition_ok and self.origin_integral_ok
                and self.infinity_integral_ok and self.vminus_integral_ok
                and self.positivity_annulus_ok)

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["all_pass"] = self.all_pass
        return d


def check_conditions(V, beta, delta, n=0.0):
    """Check the structural conditions for coupling β with margin δ > 0.

    The origin and infinity integrals are taken over the problem weight
    rⁿV, so the weight exponent n shifts every power-law threshold by n.
    No package code reads it; existence is decided by `certify` (see the
    module docstring).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    alpha_v = alpha_of_v(V)
    return ConditionReport(
        beta=float(beta), delta=float(delta), alpha_v=float(alpha_v),
        min_condition_ok=bool(beta >= -alpha_v),
        origin_integral_ok=bool(V.origin_integrable(beta, delta, n)),
        infinity_integral_ok=bool(V.infinity_integrable(beta, delta, n)),
        vminus_integral_ok=True,
        positivity_annulus_ok=V.has_positivity_annulus(),
        approximate=V.sampled)


def check_exponent(n):
    """Refuse a weight exponent n that is negative or not finite."""
    if not 0.0 <= n < math.inf:
        raise ValueError(f"weight exponent n must be finite and non-negative, "
                         f"got {n:g}")


def certify(V, n, beta):
    """None when (V, n, β) meets two necessary conditions for a unit-mass
    solution of −Δψ̃ = 4πβ rⁿV e^ψ̃; else "no solution: " and the one it fails.

    * Finite mass: rψ̃′ = −2βM(r) with 0 < M < 1, so V ~ r^p at infinity
      (p = decay_power) needs β > (n + 2 + p)/2 for β > 0, ≥ for β < 0.
    * Index (Pokhozhaev) identity: β − n − 2 = ∫|x|ⁿe^ψ̃ x·∇V dx = E_μ[g]
      with g = rV′/V and μ = |x|ⁿV e^ψ̃ dx of unit mass, so β − n − 2 lies
      strictly inside ``V.log_slope_range()``, or equals g when g is
      constant (V ≡ c: β = n + 2 only; Chen & Li, Duke Math. J. 63, 1991).
      It assumes V is C¹ where positive and r^{n+2}V e^ψ̃ → 0 at 0 and ∞;
      a weight without a range skips it.  A sampled weight's verdict is
      approximate.

    Raises ValueError, before any verdict, for an input outside the domain:
    β not finite or zero, n not finite or negative.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta:g}")
    if beta == 0.0:
        raise ValueError("beta_target must be nonzero: zero coupling "
                         "degenerates the problem")
    check_exponent(n)
    edge = (n + 2.0 + V.decay_power) / 2.0
    gap = beta - n - 2.0
    lo, hi = V.log_slope_range() or (-math.inf, math.inf)
    if beta > 0 and not beta > edge or beta < 0 and not beta >= edge:
        text = (f"finite mass needs beta {'>' if beta > 0 else '>='} "
                f"(n + 2 + p)/2 = {edge:g}, where V ~ r^p at infinity "
                f"(p = {V.decay_power:g}); got beta = {beta:g}")
    elif lo == hi != gap:
        text = (f"the index identity needs beta - n - 2 = g = {lo:g}, since "
                f"g = rV'/V is constant; got {gap:g}")
    elif lo < hi and not lo < gap < hi:
        text = (f"the index identity needs beta - n - 2 strictly inside "
                f"(inf g, sup g) = ({lo:g}, {hi:g}), g = rV'/V; got {gap:g}")
    else:
        return None
    return (f"no solution: {text}"
            + (" (sampled weight: approximate)" if V.sampled else ""))


# ---------------------------------------------------------------------------
# CLI mini-grammar:  name:key=val,key=val   (names: const, gauss, sphere,
# logsing, table=path)
# ---------------------------------------------------------------------------

def parse_potential(spec):
    """Parse a single-line potential descriptor.

    Examples: ``const:c=1``, ``gauss:gamma=1,alpha=2``,
    ``sphere:l=-1,gamma=0``, ``logsing:alpha=0.36788``, ``table=weights.csv``.
    """
    spec = spec.strip()
    if spec.startswith("table="):
        return load_tabulated(spec[len("table="):])
    name, _, args = spec.partition(":")
    kv = {}
    if args:
        for item in args.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed potential spec item {item!r} "
                                 "(expected key=val)")
            kv[key.strip()] = float(val)
    if name == "const":
        made = Constant(c=kv.pop("c", 1.0))
    elif name == "gauss":
        made = PowerGauss(n_pow=kv.pop("npow", 0.0), gamma=kv.pop("gamma", 1.0),
                          alpha_exp=kv.pop("alpha", 2.0))
    elif name == "sphere":
        made = Sphere(l=kv.pop("l", 0.0), gamma=kv.pop("gamma", 0.0))
    elif name == "logsing":
        if "alpha" not in kv:
            raise ValueError("logsing requires alpha=<cutoff in (0,1)>")
        made = LogSingular(alpha_cut=kv.pop("alpha"))
    else:
        raise ValueError(f"unknown potential name {name!r} "
                         "(expected const, gauss, sphere, logsing or table=path)")
    if kv:
        raise ValueError(f"unknown keys {sorted(kv)} in potential spec {spec!r}")
    return made
