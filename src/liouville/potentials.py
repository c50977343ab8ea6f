"""Catalog of radial weights V(r) with derivatives and structural checks.

Every weight used by the suite is non-negative and radial.  The catalog:

    Constant(c)                      V = c
    PowerGauss(n_pow, gamma, a_exp)  V = r^n_pow · exp(−gamma·r^a_exp)
    Sphere(l, gamma)                 V = (1+r²)^l · exp(2·gamma/(1+r²))
    LogSingular(alpha_cut)           V = −1/(8πβ) · 1_{r≤α} · r⁻²(−log r)^{−3/2},
                                     β = 1/(4 log α) < 0 stored alongside
    Tabulated(radii, values)         piecewise linear in log r

Two structural quantities drive existence theory and are exposed here:

  * the integrability exponent α(V) = sup{α : ∫_{|x|>1} |V| |x|^{2α} dx < ∞},
  * the finiteness conditions on ∫_{D(0,1)} V⁺ |x|^{−β−δ},
    ∫_{|x|>1} V⁺ |x|^{−β+δ} and ∫_{|x|>1} V⁻ |x|^{−2β} for a coupling β and
    margin δ > 0 (V⁻ ≡ 0 for the whole catalog).
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constant", "PowerGauss", "Sphere", "LogSingular", "Tabulated",
    "alpha_of_v", "check_conditions", "ConditionReport",
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
    #: radius where V drops discontinuously to zero, or None
    cutoff_radius = None

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

    def smooth_value(self, r):
        """V(r) / r^n_pow, finite at the origin; used by the ODE weight."""
        r = np.asarray(r, dtype=float)
        if self.n_pow == 0:
            return self.value(r)
        return self.value(np.maximum(r, 1e-300)) * _safe_pow(r, -self.n_pow)

    def positivity_annulus(self):
        """(C, R1, R2) with V ≥ C > 0 on R1 < r < R2, or None."""
        return None

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


@dataclass(frozen=True, repr=False)
class Constant(Potential):
    c: float = 1.0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("constant weight must be non-negative")

    def _value_deriv(self, r):
        return np.full_like(r, self.c), np.zeros_like(r)

    def smooth_value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def positivity_annulus(self):
        return (self.c, 0.5, 2.0) if self.c > 0 else None

    def descriptor(self):
        return f"const:c={self.c!r}"


@dataclass(frozen=True, repr=False)
class PowerGauss(Potential):
    """V = r^n_pow · exp(−gamma · r^alpha_exp)."""

    n_pow: float = 0.0
    gamma: float = 1.0
    alpha_exp: float = 2.0

    def __post_init__(self):
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

    def smooth_value(self, r):
        return np.exp(-self.gamma * _safe_pow(np.asarray(r, dtype=float), self.alpha_exp))

    def positivity_annulus(self):
        lo, hi = 0.5, 2.0
        c = min(self.value(lo), self.value(hi))  # log V is concave-ish; ends suffice
        rs = np.linspace(lo, hi, 33)
        c = min(c, float(np.min(self.value(rs))))
        return (c, lo, hi)

    def descriptor(self):
        return f"gauss:npow={self.n_pow!r},gamma={self.gamma!r},alpha={self.alpha_exp!r}"


@dataclass(frozen=True, repr=False)
class Sphere(Potential):
    """V = (1+r²)^l · exp(2·gamma/(1+r²)), the stereographic weight."""

    l: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def _value_deriv(self, r):
        q = 1.0 + r * r
        v = q ** self.l * np.exp(2.0 * self.gamma / q)
        dv = v * (2.0 * self.l * r / q - 4.0 * self.gamma * r / (q * q))
        return v, dv

    def smooth_value(self, r):
        return self.value(np.asarray(r, dtype=float))

    def positivity_annulus(self):
        rs = np.linspace(0.5, 2.0, 33)
        return (float(np.min(self.value(rs))), 0.5, 2.0)

    def descriptor(self):
        return f"sphere:l={self.l!r},gamma={self.gamma!r}"


@dataclass(frozen=True, repr=False)
class LogSingular(Potential):
    """The exact-oracle weight V = −1/(8πβ) · 1_{[0,α]} · r⁻² (−log r)^{−3/2}.

    The matching coupling β = 1/(4 log α) < 0 is stored alongside because the
    pair (V, β) forms a closed-form solution; see oracles.sharp_regularity_example.
    """

    alpha_cut: float

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

    def cutoff_jump(self):
        """Drop of V across r = alpha_cut (V(α⁻) − V(α⁺))."""
        return float(self.value(self.alpha_cut))

    def positivity_annulus(self):
        a = self.alpha_cut
        rs = np.linspace(0.25 * a, 0.75 * a, 33)
        return (float(np.min(self.value(rs))), 0.25 * a, 0.75 * a)

    def descriptor(self):
        return f"logsing:alpha={self.alpha_cut!r}"


class Tabulated(Potential):
    """Piecewise-linear weight in log r, loaded from (r, V) samples.

    Values clamp to the table ends outside [radii[0], radii[-1]]; tabulate out
    to radii where V is negligible if the tail matters.
    """

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

    def _value_deriv(self, r):
        x = np.log(np.maximum(r, 1e-300))
        v = np.interp(x, self._log_r, self.values)
        # slope in log r per segment, then dV/dr = (dV/d log r)/r
        seg_slope = np.diff(self.values) / np.diff(self._log_r)
        idx = np.clip(np.searchsorted(self._log_r, x, side="right") - 1, 0,
                      seg_slope.size - 1)
        dv = np.where((r > self.radii[0]) & (r < self.radii[-1]),
                      seg_slope[idx] / np.maximum(r, 1e-300), 0.0)
        return v, dv

    def smooth_value(self, r):
        return self.value(np.asarray(r, dtype=float))

    def positivity_annulus(self):
        pos = self.values > 0
        if not np.any(pos):
            return None
        i0 = int(np.argmax(pos))
        i1 = len(pos) - int(np.argmax(pos[::-1])) - 1
        lo, hi = self.radii[i0], self.radii[i1]
        if hi <= lo:
            return None
        mask = (self.radii >= lo) & (self.radii <= hi)
        c = float(np.min(self.values[mask][self.values[mask] > 0], initial=np.inf))
        return (c, float(lo), float(hi)) if np.isfinite(c) else None

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

    Closed form for the catalog; a numeric decay probe (last decade of the
    table, flagged approximate by check_conditions) for Tabulated.
    """
    if isinstance(V, Constant):
        return -1.0  # ∫ r^{2α+1} dr finite iff 2α+2 < 0
    if isinstance(V, PowerGauss):
        if V.gamma > 0:
            return math.inf  # exponential decay beats every power
        return -1.0 - V.n_pow / 2.0
    if isinstance(V, Sphere):
        return -V.l - 1.0  # V ~ r^{2l} at infinity
    if isinstance(V, LogSingular):
        return math.inf  # compactly supported inside the unit disk
    if isinstance(V, Tabulated):
        return _alpha_probe(V)
    raise TypeError(f"unknown potential {type(V).__name__}")


def _alpha_probe(V):
    """Estimate the decay power p of V from the last decade of the table."""
    r_hi = V.radii[-1]
    r_lo = max(V.radii[0], r_hi / 10.0)
    mask = (V.radii >= r_lo) & (V.values > 0)
    if np.count_nonzero(mask) < 2:
        return math.inf  # tail is identically zero: compact support
    x = np.log(V.radii[mask])
    y = np.log(V.values[mask])
    p = np.polyfit(x, y, 1)[0]  # V ~ r^p
    return -(p + 2.0) / 2.0


@dataclass
class ConditionReport:
    """Boolean record of the structural existence conditions for (V, β, δ)."""

    beta: float
    delta: float
    alpha_v: float
    min_condition_ok: bool       # β ≥ −α(V)
    origin_integral_ok: bool     # ∫_{D(0,1)} V⁺ |x|^{−β−δ} < ∞
    infinity_integral_ok: bool   # ∫_{|x|>1} V⁺ |x|^{−β+δ} < ∞
    vminus_integral_ok: bool     # ∫_{|x|>1} V⁻ |x|^{−2β} < ∞ (V⁻ ≡ 0 here)
    positivity_annulus_ok: bool
    approximate: bool = False
    notes: list = field(default_factory=list)

    @property
    def all_pass(self):
        return (self.min_condition_ok and self.origin_integral_ok
                and self.infinity_integral_ok and self.vminus_integral_ok
                and self.positivity_annulus_ok)

    def to_dict(self):
        d = {k: getattr(self, k) for k in (
            "beta", "delta", "alpha_v", "min_condition_ok", "origin_integral_ok",
            "infinity_integral_ok", "vminus_integral_ok", "positivity_annulus_ok",
            "approximate")}
        d["all_pass"] = self.all_pass
        d["notes"] = list(self.notes)
        return d


def _probe_integral(V, exponent, lo, hi, refine_lo=True):
    """Crude finiteness probe: does ∫ V r^{exponent+1} dr stabilise as the
    domain end approaches the singular limit?  Used only for Tabulated."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    def f(r):
        return V.value(r) * r ** (exponent + 1.0)

    with warnings.catch_warnings():
        # coarse finiteness probe; quad roundoff chatter is expected
        warnings.simplefilter("ignore", IntegrationWarning)
        a1 = quad(f, lo, hi, limit=200)[0]
        lo2, hi2 = (lo / 100.0, hi) if refine_lo else (lo, hi * 100.0)
        a2 = quad(f, lo2, hi2, limit=200)[0]
    if abs(a1) < 1e-12 and abs(a2) < 1e-12:
        return True
    return abs(a2 - a1) < 0.05 * max(abs(a1), 1e-12)


def check_conditions(V, beta, delta):
    """Check the structural conditions for coupling β with margin δ > 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    alpha_v = alpha_of_v(V)
    approximate = isinstance(V, Tabulated)
    notes = []

    min_ok = beta >= -alpha_v

    # origin: 2π ∫_0^1 V(r) r^{1−β−δ} dr < ∞
    if isinstance(V, Constant):
        origin_ok = beta + delta < 2.0
    elif isinstance(V, PowerGauss):
        origin_ok = beta + delta < V.n_pow + 2.0
    elif isinstance(V, Sphere):
        origin_ok = beta + delta < 2.0
    elif isinstance(V, LogSingular):
        # V ~ r^{-2}(−log r)^{-3/2}: integrable against r^{1−β−δ} iff β+δ ≤ 0
        origin_ok = beta + delta <= 0.0
    else:
        origin_ok = _probe_integral(V, -beta - delta, 1e-4, 1.0, refine_lo=True)
        notes.append("origin integral probed numerically")

    # infinity: 2π ∫_1^∞ V(r) r^{1−β+δ} dr < ∞
    if isinstance(V, Constant):
        infinity_ok = beta > 2.0 + delta
    elif isinstance(V, PowerGauss):
        infinity_ok = True if V.gamma > 0 else beta > V.n_pow + 2.0 + delta
    elif isinstance(V, Sphere):
        infinity_ok = beta > 2.0 * V.l + 2.0 + delta
    elif isinstance(V, LogSingular):
        infinity_ok = True  # compact support
    else:
        infinity_ok = _probe_integral(V, -beta + delta, 1.0, V.radii[-1],
                                      refine_lo=False)
        notes.append("infinity integral probed numerically")

    return ConditionReport(
        beta=float(beta), delta=float(delta), alpha_v=float(alpha_v),
        min_condition_ok=bool(min_ok), origin_integral_ok=bool(origin_ok),
        infinity_integral_ok=bool(infinity_ok), vminus_integral_ok=True,
        positivity_annulus_ok=V.positivity_annulus() is not None,
        approximate=approximate, notes=notes)


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
