"""Closed-form oracle families: exactness, frozen values, serialization."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from liouville.grids import Grid, make_grid
from liouville.oracles import (
    bubble_lambda_from_raw_center, bubble_raw_center, conformal_bubble,
    sharp_regularity_example,
)
from liouville.solution import NormalizedSolution


def test_bubble_satisfies_pde_symbolically():
    # ψ″ + ψ′/r + 4πβ r^{2(n−1)} e^ψ ≡ 0 with β = 2n, for symbolic n, λ
    r, n, lam = sp.symbols("r n lam", positive=True)
    t = (lam * r) ** (2 * n)
    psi = -2 * sp.log(t + 1) + sp.log(n / sp.pi) + 2 * n * sp.log(lam)
    beta = 2 * n
    residual = (sp.diff(psi, r, 2) + sp.diff(psi, r) / r
                + 4 * sp.pi * beta * r ** (2 * (n - 1)) * sp.exp(psi))
    assert sp.simplify(residual) == 0


def test_bubble_node_residual_is_tiny():
    g = make_grid(50.0, 3000)
    sol = conformal_bubble(1.5, 0.8, g)
    r = g.nodes
    # second derivative from the exact closed form, forcing from samples
    lam, n = 0.8, 1.5
    t = (lam * r) ** (2 * n)
    dpsi = sol.dpsi / r
    # ψ″ = −4n t((2n−1) − t)/(r²(1+t)²), the exact second derivative
    d2psi = -4.0 * n * t * ((2.0 * n - 1.0) - t) / (r ** 2 * (1.0 + t) ** 2)
    forcing = 4.0 * math.pi * sol.beta * r ** (2 * (n - 1)) * np.exp(sol.psi)
    resid = d2psi + dpsi / r + forcing
    assert np.max(np.abs(resid) / np.maximum(np.abs(forcing), 1e-30)) < 1e-8


def test_bubble_center_value_frozen():
    g = make_grid(10.0, 2048)
    sol = conformal_bubble(1.0, 1.0, g)
    # ψ(0) = −log π ≈ −1.1447299; first node sits at r = 1e−7
    assert sol.psi[0] == pytest.approx(-1.1447299, abs=1e-6)
    assert sol.psi[0] == pytest.approx(-math.log(math.pi), abs=1e-8)


def test_bubble_total_mass_by_quadrature():
    sol = conformal_bubble(1.0, 1.0, make_grid(4.0, 64))
    n = 1.0

    def integrand(r):
        t = r ** (2 * n)
        psi = -2.0 * math.log1p(t) + math.log(n / math.pi)
        return r ** (2 * (n - 1)) * math.exp(psi) * r

    total = 2.0 * math.pi * quad(integrand, 0.0, np.inf, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-8)
    assert sol.mass[-1] == pytest.approx(
        2.0 * math.pi * quad(integrand, 0.0, 4.0, limit=200)[0], rel=1e-10)


def test_bubble_far_slope_frozen():
    g = make_grid(1e3, 2048)
    sol = conformal_bubble(2.0, 3.0, g)
    assert sol.beta == 4.0
    assert sol.n == 2.0
    assert sol.dpsi[-1] == pytest.approx(-8.0, abs=1e-4)


def test_bubble_flux_identity_exact():
    sol = conformal_bubble(2.5, 0.3, make_grid(100.0, 1024))
    assert np.max(np.abs(sol.dpsi + 2.0 * sol.beta * sol.mass)) == 0.0
    assert np.all(np.diff(sol.psi) <= 0)          # ψ decreasing
    assert np.all(np.diff(sol.mass) >= 0)         # M non-decreasing


def test_sharp_regularity_frozen_values():
    a = math.exp(-1.0)
    V, sol = sharp_regularity_example(a, make_grid(2.0, 2048))
    assert sol.beta == pytest.approx(-0.25)
    assert V.beta == sol.beta
    # ψ(α) = −½ log(−log α) = 0 exactly at α = e^{−1}
    i = np.searchsorted(sol.r, a, side="right") - 1  # last node ≤ α
    exact = -0.5 * math.log(-math.log(sol.r[i]))
    assert sol.psi[i] == pytest.approx(exact, abs=1e-14)
    assert sol.mass[-1] == 1.0
    assert np.max(np.abs(sol.dpsi + 2.0 * sol.beta * sol.mass)) == 0.0


def test_sharp_regularity_is_c1_across_cutoff():
    a = 0.2
    V, sol = sharp_regularity_example(a, make_grid(2.0, 2048))
    h = 1e-7

    def psi_of(r):
        _, s = sharp_regularity_example(a, Grid([r, 2.0]))
        return s.psi[0]

    slope_left = (psi_of(a - h) - psi_of(a - 2 * h)) / h
    slope_right = (psi_of(a + 2 * h) - psi_of(a + h)) / h
    assert slope_left == pytest.approx(slope_right, rel=1e-4)


def test_sharp_regularity_unit_mass_by_quadrature():
    # substitute u = −log r: ∫ V e^ψ dx = 2π ∫ V(e^{−u}) e^{ψ(e^{−u})} e^{−2u} du
    a = math.exp(-1.0)
    V, _ = sharp_regularity_example(a, make_grid(2.0, 64))

    def integrand(u):
        r = math.exp(-u)
        return V.value(r) * math.exp(-0.5 * math.log(u)) * r * r

    total = 2.0 * math.pi * quad(integrand, -math.log(a), np.inf, limit=200)[0]
    assert total == pytest.approx(1.0, rel=1e-8)


def test_sharp_regularity_mass_column_matches_incremental_quadrature():
    a = math.exp(-1.0)
    V, sol = sharp_regularity_example(a, make_grid(2.0, 256))
    # pick a few node pairs and check M(r2) − M(r1) against quad
    idx = [40, 80, 120, 160]
    for i, j in zip(idx[:-1], idx[1:]):
        r1, r2 = sol.r[i], sol.r[j]
        inc = 2.0 * math.pi * quad(
            lambda r: V.value(r) * np.exp(np.interp(r, sol.r, sol.psi)) * r,
            r1, r2, limit=200)[0]
        # interp error dominates; the structural agreement is what matters
        assert inc == pytest.approx(sol.mass[j] - sol.mass[i], rel=1e-3, abs=1e-9)


def test_sharp_regularity_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        sharp_regularity_example(1.5, make_grid(2.0, 64))


@settings(max_examples=30, deadline=None)
@given(n_fam=st.floats(0.25, 4.0), s=st.floats(-10.0, 10.0))
def test_bubble_center_value_inversion(n_fam, s):
    lam = bubble_lambda_from_raw_center(n_fam, s)
    assert bubble_raw_center(n_fam, lam) == pytest.approx(s, abs=1e-10)


def test_bubble_raw_center_frozen():
    # n_fam = 1, λ = 1: raw trajectory is log(8/(1+r²)²), center log 8
    assert bubble_raw_center(1.0, 1.0) == pytest.approx(math.log(8.0))
    assert bubble_raw_center(2.0, 1.0) == pytest.approx(math.log(32.0))


def test_solution_save_load_round_trip(tmp_path):
    g = make_grid(20.0, 512)
    sol = conformal_bubble(1.0, 2.0, g)
    jpath = sol.save(tmp_path / "bubble.json")
    back = NormalizedSolution.load(jpath)
    assert back.beta == sol.beta and back.n == sol.n
    np.testing.assert_array_equal(back.psi, sol.psi)       # repr round-trip
    np.testing.assert_array_equal(back.dpsi, sol.dpsi)
    np.testing.assert_array_equal(back.mass, sol.mass)
    np.testing.assert_allclose(back.r, sol.r, rtol=0)
    assert back.potential.descriptor() == "const:c=1.0"
    assert (tmp_path / "bubble.csv").exists()


def test_solution_validates_shapes():
    g = make_grid(1.0, 64)
    with pytest.raises(ValueError, match="psi"):
        NormalizedSolution(beta=1.0, n=0.0, psi=np.zeros(3),
                           dpsi=np.zeros(64), mass=np.zeros(64), grid=g)
