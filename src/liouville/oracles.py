"""Closed-form exact solutions used as ground truth.

Two families are implemented.

Conformal bubble (β = 2·n_fam > 0, weight |x|^{2(n_fam−1)}, V ≡ 1):

    ψ(r) = log 1/((λr)^{2n} + 1)² + log(n/π) + 2n log λ,      n = n_fam,

with exact cumulative mass M(r) = (λr)^{2n} / ((λr)^{2n} + 1) and flux
r ψ′ = −2β M(r).  The whole λ-family shares β = 2n, which is why a target
coupling pins the profile only up to scale.

Sharp-regularity example (β = 1/(4 log α) < 0, weight n = 0):

    ψ(r) = −½ log(−log r)                       for r ≤ α,
    ψ(r) = −log r/(2 log α) + ½ − ½ log(−log α) for r > α,

paired with the compactly supported LogSingular weight
V = −1/(8πβ)·1_{[0,α]}·r⁻²(−log r)^{−3/2}.  ψ is C¹ across r = α, just fails
to be C^0,1/2-regular at the origin, and carries exact mass
M(r) = (−log α)/(−log r) on r ≤ α, M ≡ 1 beyond the cutoff.
"""

import math

import numpy as np

from .grids import Grid
from .potentials import Constant, LogSingular
from .solution import NormalizedSolution

__all__ = [
    "conformal_bubble", "sharp_regularity_example",
    "bubble_raw_center", "bubble_lambda_from_raw_center",
]


def conformal_bubble(n_fam, lam, grid):
    """Exact bubble solution with β = 2·n_fam on the given grid."""
    if n_fam <= 0 or lam <= 0:
        raise ValueError("n_fam and lambda must be positive")
    if not isinstance(grid, Grid):
        raise TypeError("grid must be a Grid")
    n = float(n_fam)
    beta = 2.0 * n
    r = grid.nodes
    t = (lam * r) ** (2.0 * n)
    psi = -2.0 * np.log1p(t) + math.log(n / math.pi) + 2.0 * n * math.log(lam)
    dpsi = -2.0 * beta * (t / (1.0 + t))      # r ψ′ = −2βM(r), exact
    return NormalizedSolution(
        beta=beta, n=2.0 * (n - 1.0), psi=psi, dpsi=dpsi, grid=grid,
        potential=Constant(1.0),
        meta={"oracle": "conformal_bubble", "n_fam": n, "lambda": float(lam)})


def sharp_regularity_example(alpha_cut, grid):
    """Exact (V, solution) pair with β = 1/(4 log α) < 0 and unit mass.

    Grid nodes should avoid r = 1 exactly (the inner-branch formula written
    for r ≤ α degenerates there; the outer branch used for r > α is fine).
    """
    if not (0.0 < alpha_cut < 1.0):
        raise ValueError("alpha_cut must lie in (0, 1)")
    if not isinstance(grid, Grid):
        raise TypeError("grid must be a Grid")
    a = float(alpha_cut)
    log_a = math.log(a)                 # < 0
    beta = 1.0 / (4.0 * log_a)
    r = grid.nodes
    inner = r <= a
    psi = np.empty_like(r)
    psi[inner] = -0.5 * np.log(-np.log(r[inner]))
    psi[~inner] = (-np.log(r[~inner]) / (2.0 * log_a)
                   + 0.5 - 0.5 * math.log(-log_a))
    # r ψ′ = −2βM(r) = 1/(2(−log r)) inside, exact
    dpsi = -2.0 * beta * np.where(inner, log_a / np.log(r), 1.0)
    V = LogSingular(alpha_cut=a)
    sol = NormalizedSolution(
        beta=beta, n=0.0, psi=psi, dpsi=dpsi, grid=grid, potential=V,
        meta={"oracle": "sharp_regularity", "alpha_cut": a})
    return V, sol


def bubble_raw_center(n_fam, lam):
    """Center value s = ψ(0) of the *raw* bubble trajectory (before the
    −log(4πβ) normalization shift): s = log(8 n² λ^{2n})."""
    n = float(n_fam)
    return math.log(8.0 * n * n) + 2.0 * n * math.log(lam)


def bubble_lambda_from_raw_center(n_fam, s):
    """Invert bubble_raw_center: the scale λ whose raw trajectory starts at s."""
    n = float(n_fam)
    return math.exp((s - math.log(8.0 * n * n)) / (2.0 * n))
