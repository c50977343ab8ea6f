"""Normalized radial solution container and its JSON+CSV disk format.

A NormalizedSolution holds node samples of the shifted profile ψ̃ solving

    −Δψ̃ = 4πβ rⁿ V e^{ψ̃}  on ℝ²,      ∫_{ℝ²} rⁿ V e^{ψ̃} dx = 1,

together with r ψ̃′ and the cumulative mass M(r) = ∫_{D(0,r)} rⁿ V e^{ψ̃} dx.
Two invariants tie the columns together and are checked on demand:

    M(r_max) = 1          (total mass),
    r ψ̃′(r) = −2β M(r)   (flux identity at every node).

On disk a solution is a pair of sibling files: ``name.json`` carrying the
scalar header (beta, n, potential descriptor, r_max, tolerances, residual
summary) and ``name.csv`` carrying the profile with the exact column header
``r,psi,r_dpsi,mass``.  The split keeps the bulk data directly consumable by
plotting tools and spreadsheets.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .grids import Grid, _trapezoid_weights
from .potentials import parse_potential

CSV_HEADER = ["r", "psi", "r_dpsi", "mass"]


@dataclass
class NormalizedSolution:
    beta: float
    n: float
    psi: np.ndarray          # ψ̃ at the grid nodes
    dpsi: np.ndarray         # r ψ̃′ at the grid nodes
    mass: np.ndarray         # cumulative mass M(r), M(r_max) ≈ 1
    grid: Grid
    potential: object = None
    tolerances: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_nodes = self.grid.n_nodes
        for name in ("psi", "dpsi", "mass"):
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

    def mass_error(self):
        """|M(r_max) − 1|."""
        return abs(float(self.mass[-1]) - 1.0)

    def flux_error(self):
        """max over nodes of |r ψ̃′ + 2β M| / (1 + |β|)."""
        resid = np.abs(self.dpsi + 2.0 * self.beta * self.mass)
        return float(np.max(resid)) / (1.0 + abs(self.beta))

    def psi_at(self, r):
        """Monotone cubic interpolation of ψ̃ in log r."""
        interp = PchipInterpolator(np.log(self.grid.nodes), self.psi,
                                   extrapolate=True)
        return interp(np.log(np.maximum(np.asarray(r, dtype=float), 1e-300)))

    def residual_summary(self):
        out = {"mass_error": self.mass_error(), "flux_error": self.flux_error()}
        out.update(self.residuals)
        return out

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
            "grading": self.grid.grading,
            "n_nodes": self.grid.n_nodes,
            "tolerances": dict(self.tolerances),
            "residual_summary": _jsonable(self.residual_summary()),
            "csv": cpath.name,
            "meta": _jsonable(self.meta),
        }
        with open(jpath, "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(cpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for i in range(self.grid.n_nodes):
                writer.writerow([repr(float(v)) for v in
                                 (self.r[i], self.psi[i], self.dpsi[i],
                                  self.mass[i])])
        return jpath

    @classmethod
    def load(cls, path):
        jpath = Path(path)
        if jpath.suffix == ".csv":
            jpath = jpath.with_suffix(".json")
        with open(jpath) as fh:
            header = json.load(fh)
        cpath = jpath.parent / header.get("csv", jpath.with_suffix(".csv").name)
        rows = []
        with open(cpath, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None or [h.strip() for h in got] != CSV_HEADER:
                raise ValueError(f"{cpath}: expected CSV header "
                                 f"'{','.join(CSV_HEADER)}'")
            for row in reader:
                if row:
                    rows.append([float(v) for v in row[:4]])
        if not rows:
            raise ValueError(f"{cpath}: no rows")
        data = np.asarray(rows, dtype=float)
        nodes = data[:, 0]
        weights = _trapezoid_weights(nodes)
        grid = Grid(nodes=nodes, weights=weights, r_max=float(nodes[-1]),
                    grading=header.get("grading", "loaded"))
        pot = None
        if header.get("potential"):
            try:
                pot = parse_potential(header["potential"])
            except (ValueError, OSError):
                pot = None  # descriptor may reference a moved table file
        return cls(beta=float(header["beta"]), n=float(header["n"]),
                   psi=data[:, 1], dpsi=data[:, 2], mass=data[:, 3],
                   grid=grid, potential=pot,
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
