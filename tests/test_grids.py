"""Radial grid and quadrature checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville.grids import LOG_FLOOR, cumulative_radial, integrate_radial, make_grid


def test_area_of_unit_disk_is_exact():
    # trapezoid rule integrates the linear integrand r exactly
    g = make_grid(1.0, 64)
    assert integrate_radial(g, lambda r: np.ones_like(r)) == pytest.approx(
        math.pi, abs=1e-14)


def test_gaussian_mass():
    # ∫_{R²} e^{−r²} dx = π
    g = make_grid(10.0, 100000)
    val = integrate_radial(g, lambda r: np.exp(-r * r))
    assert val == pytest.approx(math.pi, rel=1e-8)


def test_log_grading_resolves_origin():
    g = make_grid(10.0, 512)
    assert np.count_nonzero(g.nodes < g.r_max / 100.0) >= 0.25 * g.n_nodes


def test_uniform_weight_disk_radius_two():
    g = make_grid(2.0, 4096)
    val = integrate_radial(g, lambda r: np.ones_like(r))
    assert val == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_inverse_sqrt_singularity_on_log_grid():
    # ∫_{D(0,2)} r^{−1/2} dx = 2π·(2/3)·2^{3/2} = (8/3)π√2
    exact = (8.0 / 3.0) * math.pi * math.sqrt(2.0)
    g = make_grid(2.0, 20000)
    val = integrate_radial(g, lambda r: 1.0 / np.sqrt(r), k=-0.5)
    assert val == pytest.approx(exact, rel=1e-6)
    # ∫_{D(0,2)} r^{−3/2} dx = 4π√2: the origin cell holds 1e-4 of the
    # total, so only the analytic cell with the right k meets the tolerance
    g_at = lambda r: r ** -1.5
    exact = 4.0 * math.pi * math.sqrt(2.0)
    assert integrate_radial(g, g_at, k=-1.5) == pytest.approx(exact, rel=1e-6)
    assert integrate_radial(g, g_at) != pytest.approx(exact, rel=1e-6)


def test_log_grid_floor_and_endpoint():
    g = make_grid(10.0, 256)
    assert g.nodes[0] == pytest.approx(LOG_FLOOR * 10.0)
    assert g.nodes[-1] == 10.0


def test_cumulative_matches_total():
    g = make_grid(5.0, 2048)
    f = lambda r: np.exp(-r)
    cum = cumulative_radial(g, f)
    total = integrate_radial(g, f)
    assert cum[-1] == pytest.approx(total, rel=1e-13)
    assert np.all(np.diff(cum) >= 0)


def test_refinement_is_second_order():
    # halving the log-r step should cut the error by ~4 for a smooth integrand
    exact = 2.0 * math.pi * (1.0 - 2.0 * math.exp(-1.0))  # ∫_{D(0,1)} e^{−r} dx
    errs = []
    for n in (2000, 4000, 8000):
        g = make_grid(1.0, n)
        errs.append(abs(integrate_radial(g, lambda r: np.exp(-r)) - exact))
    rate = math.log2(errs[0] / errs[2]) / 2.0
    assert rate > 1.8


def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        make_grid(-1.0, 64)
    with pytest.raises(ValueError):
        make_grid(1.0, 4)


def test_nonfinite_sample_names_the_node():
    g = make_grid(1.0, 64)
    bad = np.ones(g.n_nodes)
    bad[10] = np.nan
    with pytest.raises(ValueError, match="index 10"):
        integrate_radial(g, bad)


@settings(max_examples=40, deadline=None)
@given(r_max=st.floats(0.1, 100.0), n=st.integers(16, 400))
def test_grid_invariants_hold_for_any_shape(r_max, n):
    g = make_grid(r_max, n)
    assert g.n_nodes == n
    assert g.nodes[-1] == pytest.approx(r_max, rel=1e-12)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.nodes > 0)
    assert np.all(g.weights >= 0)
    # weights sum to the covered span
    assert g.weights.sum() == pytest.approx(g.nodes[-1] - g.nodes[0], rel=1e-9)
