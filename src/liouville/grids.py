"""Log-graded radial grids.

Every profile in this suite is radial and sampled on nodes spaced uniformly
in log r over (0, r_max].  The smallest node r0 is strictly positive
(singular weights may not be evaluable at r = 0), so each consumer treats
the cell [0, r0] with its own local model.  A grid is its nodes alone:
r_max is the last node, and a caller that lumps or integrates node samples
builds its own quadrature from them.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "make_grid"]

#: smallest positive node of a log-graded grid, as a fraction of r_max
LOG_FLOOR = 1e-8

#: minimum node count accepted by make_grid
MIN_NODES = 16


@dataclass(frozen=True)
class Grid:
    """A strictly increasing radial mesh 0 < r0 < ... < r_{N-1} = r_max."""

    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0) or self.nodes[0] <= 0:
            raise ValueError("grid nodes must be strictly increasing and positive")

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def r_max(self):
        return float(self.nodes[-1])


def make_grid(r_max, n_nodes, r_first=None):
    """Build a log-graded radial grid on (0, r_max].

    Nodes are spaced geometrically from ``r_first`` up to r_max.  The first
    node defaults to LOG_FLOOR·r_max, so that at least 25% of the nodes land
    below r_max/100 and resolve the origin; a caller that knows where its
    profile leaves its value at the origin passes that radius instead, and
    the first node no longer moves with r_max.
    """
    if not (r_max > 0) or not np.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if n_nodes < MIN_NODES:
        raise ValueError(f"n_nodes must be at least {MIN_NODES}, got {n_nodes}")
    if r_first is None:
        r_first = LOG_FLOOR * r_max
    if not 0.0 < r_first < r_max:
        raise ValueError(f"first node must lie in (0, r_max), got {r_first}")

    nodes = np.geomspace(r_first, r_max, n_nodes)
    nodes[-1] = r_max  # guard against geomspace round-off at the endpoint
    return Grid(nodes)
