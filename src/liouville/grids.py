"""Radial meshes and quadrature for integrals of the form 2π ∫ g(r) r dr.

All planar integrals in this suite are rotationally symmetric, so they reduce
to one-dimensional weighted integrals over [0, r_max].  Grids carry composite
trapezoid weights on nodes spaced uniformly in log r; profiles sampled at the
nodes integrate directly, without re-interpolation.

The origin is special: the smallest node r0 is strictly positive (singular
weights may not be evaluable at r = 0) and the cell [0, r0] is integrated with
the analytic local model g(r) ≈ g(r0)·(r/r0)^k, where the caller supplies the
local power k (k equals the weight exponent for weighted integrands):

    ∫_0^{r0} g(r) r dr ≈ g(r0) · r0² / (k + 2).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "make_grid", "integrate_radial", "cumulative_radial"]

#: smallest positive node of a log-graded grid, as a fraction of r_max
LOG_FLOOR = 1e-8

#: minimum node count accepted by make_grid
MIN_NODES = 16


@dataclass(frozen=True)
class Grid:
    """A strictly increasing radial mesh 0 < r0 < ... < r_{N-1} = r_max.

    ``weights`` are composite trapezoid weights applied to samples of the
    product g(r)·r; they do not include the origin cell [0, r0], which is
    handled analytically by :func:`integrate_radial`.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    grading: str      # "log" from make_grid; a loaded grid keeps its label

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0) or self.nodes[0] <= 0:
            raise ValueError("grid nodes must be strictly increasing and positive")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("grid weights must be finite and non-negative")

    @property
    def n_nodes(self):
        return self.nodes.size


def _trapezoid_weights(nodes):
    """Composite trapezoid weights w with Σ w_i f_i ≈ ∫ f over [r0, r_max]."""
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def make_grid(r_max, n_nodes):
    """Build a log-graded radial grid on (0, r_max].

    Nodes are spaced geometrically from LOG_FLOOR·r_max up to r_max, so at
    least 25% of them land below r_max/100 and resolve the origin.
    """
    if not (r_max > 0) or not np.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if n_nodes < MIN_NODES:
        raise ValueError(f"n_nodes must be at least {MIN_NODES}, got {n_nodes}")

    nodes = np.geomspace(LOG_FLOOR * r_max, r_max, n_nodes)
    nodes[-1] = r_max  # guard against geomspace round-off at the endpoint
    return Grid(nodes=nodes, weights=_trapezoid_weights(nodes), r_max=float(r_max),
                grading="log")


def _samples(grid, g):
    """Sample g on the grid nodes (g may be a callable or an array)."""
    if callable(g):
        vals = np.asarray(g(grid.nodes), dtype=float)
        if vals.shape == ():  # scalar-returning callable
            vals = np.full(grid.n_nodes, float(vals))
    else:
        vals = np.asarray(g, dtype=float)
    if vals.shape != grid.nodes.shape:
        raise ValueError(f"expected {grid.n_nodes} samples, got shape {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(
            f"non-finite sample at node index {bad[0]} (r = {grid.nodes[bad[0]]:.6g})")
    return vals


def integrate_radial(grid, g, k=0.0):
    """Approximate 2π ∫_0^{r_max} g(r) r dr from node samples of g.

    ``k`` is the local power of g near the origin, used for the analytic
    [0, r0] cell; k = 0 is correct for integrands finite at the origin.
    """
    vals = _samples(grid, g)
    origin = vals[0] * grid.nodes[0] ** 2 / (k + 2.0)
    return 2.0 * np.pi * (np.dot(grid.weights, vals * grid.nodes) + origin)


def cumulative_radial(grid, g, k=0.0):
    """Cumulative counterpart of integrate_radial: M_i = 2π ∫_0^{r_i} g r dr."""
    vals = _samples(grid, g)
    f = vals * grid.nodes
    seg = 0.5 * np.diff(grid.nodes) * (f[:-1] + f[1:])
    out = np.empty(grid.n_nodes)
    out[0] = vals[0] * grid.nodes[0] ** 2 / (k + 2.0)
    np.cumsum(seg, out=out[1:])
    out[1:] += out[0]
    return 2.0 * np.pi * out
