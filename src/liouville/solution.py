"""Normalized radial solution container and its JSON+CSV disk format.

A NormalizedSolution holds node samples of the shifted profile ψ̃ solving

    −Δψ̃ = 4πβ rⁿ V e^{ψ̃}  on ℝ²,      ∫_{ℝ²} rⁿ V e^{ψ̃} dx = 1,

together with r ψ̃′.  The cumulative mass M(r) = ∫_{D(0,r)} rⁿ V e^{ψ̃} dx
is not stored: the flux identity r ψ̃′(r) = −2β M(r) makes it a function of
the slope, so ``mass`` reads −rψ̃′/(2β) and the columns cannot contradict
each other.  ``verify.check_identities`` recomputes M from ψ̃ and the weight
alone, and checks M(r_max) = 1 and the flux identity against rψ̃′.

On disk a solution is a pair of sibling files: ``name.json`` carrying the
scalar header (beta, n, potential descriptor, r_max, tolerances, the
producer's residuals under ``residual_summary``) and ``name.csv`` carrying
the profile with the exact column header ``r,psi,r_dpsi``.  The split
keeps the bulk data directly consumable by plotting tools and spreadsheets.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .grids import Grid
from .potentials import parse_potential

CSV_HEADER = ["r", "psi", "r_dpsi"]


@dataclass
class NormalizedSolution:
    beta: float
    n: float
    psi: np.ndarray          # ψ̃ at the grid nodes
    dpsi: np.ndarray         # r ψ̃′ at the grid nodes
    grid: Grid
    potential: object = None
    tolerances: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_nodes = self.grid.n_nodes
        for name in ("psi", "dpsi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n_nodes,):
                raise ValueError(f"{name} must have one sample per grid node")
            setattr(self, name, arr)
        if self.beta == 0:
            raise ValueError("beta must be nonzero")

    # -- derived quantities -------------------------------------------------

    @property
    def r(self):
        return self.grid.nodes

    @property
    def r_max(self):
        return self.grid.r_max

    @property
    def mass(self):
        """Cumulative mass M(r) = −rψ̃′/(2β) at the nodes (flux identity)."""
        return -self.dpsi / (2.0 * self.beta)

    def psi_at(self, r):
        """Monotone cubic interpolation of ψ̃ in log r."""
        interp = PchipInterpolator(np.log(self.grid.nodes), self.psi,
                                   extrapolate=True)
        return interp(np.log(np.maximum(np.asarray(r, dtype=float), 1e-300)))

    # -- serialization ------------------------------------------------------

    def save(self, path):
        """Write ``path``(.json) and the sibling .csv; returns the json path."""
        jpath = Path(path)
        if jpath.suffix != ".json":
            jpath = jpath.with_suffix(".json")
        cpath = jpath.with_suffix(".csv")
        header = {
            "beta": self.beta,
            "n": self.n,
            "potential": (self.potential.descriptor()
                          if self.potential is not None else None),
            "r_max": self.r_max,
            "n_nodes": self.grid.n_nodes,
            "tolerances": dict(self.tolerances),
            "residual_summary": _jsonable(self.residuals),
            "csv": cpath.name,
            "meta": _jsonable(self.meta),
        }
        with open(jpath, "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")
        # repr round-trips every double; \r\n is csv.writer's row ending
        rows = np.column_stack((self.r, self.psi, self.dpsi))
        body = "".join(f"{r!r},{p!r},{d!r}\r\n" for r, p, d in rows.tolist())
        with open(cpath, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n" + body)
        return jpath

    @classmethod
    def load(cls, path):
        jpath = Path(path)
        if jpath.suffix == ".csv":
            jpath = jpath.with_suffix(".json")
        with open(jpath) as fh:
            header = json.load(fh)
        cpath = jpath.parent / header.get("csv", jpath.with_suffix(".csv").name)
        with open(cpath) as fh:
            got = fh.readline().rstrip("\n").split(",")
            if [h.strip() for h in got] != CSV_HEADER:
                raise ValueError(f"{cpath}: expected CSV header "
                                 f"'{','.join(CSV_HEADER)}'")
            lines = fh.read().splitlines()
        if not any(lines):
            raise ValueError(f"{cpath}: no rows")
        data = np.loadtxt(lines, delimiter=",", usecols=range(3), ndmin=2)
        grid = Grid(data[:, 0])
        # the header repeats the CSV's last node and row count; a file pair
        # that disagrees on them is not one solution
        for key, value in (("r_max", grid.r_max), ("n_nodes", grid.n_nodes)):
            if key in header and header[key] != value:
                raise ValueError(f"{jpath}: header {key} = {header[key]!r} "
                                 f"but {cpath.name} gives {value!r}")
        pot = None
        if header.get("potential"):
            try:
                pot = parse_potential(header["potential"])
            except (ValueError, OSError):
                pot = None  # descriptor may reference a moved table file
        return cls(beta=float(header["beta"]), n=float(header["n"]),
                   psi=data[:, 1], dpsi=data[:, 2], grid=grid, potential=pot,
                   tolerances=dict(header.get("tolerances", {})),
                   residuals=dict(header.get("residual_summary", {})),
                   meta=dict(header.get("meta", {})))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj
