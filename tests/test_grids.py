"""Log-graded radial grid checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville.grids import LOG_FLOOR, Grid, make_grid


def test_log_grading_resolves_origin():
    g = make_grid(10.0, 512)
    assert np.count_nonzero(g.nodes < g.r_max / 100.0) >= 0.25 * g.n_nodes


def test_log_grid_floor_and_endpoint():
    g = make_grid(10.0, 256)
    assert g.nodes[0] == pytest.approx(LOG_FLOOR * 10.0)
    assert g.nodes[-1] == 10.0


def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        make_grid(-1.0, 64)
    with pytest.raises(ValueError):
        make_grid(1.0, 4)
    for r_first in (0.0, 10.0, 20.0):
        with pytest.raises(ValueError, match="first node"):
            make_grid(10.0, 64, r_first)


def test_first_node_can_be_given():
    g = make_grid(10.0, 256, 1e-3)
    assert g.nodes[0] == 1e-3 and g.nodes[-1] == 10.0
    assert np.allclose(np.diff(np.log(g.nodes)), math.log(1e4) / 255)


@settings(max_examples=40, deadline=None)
@given(r_max=st.floats(0.1, 100.0), n=st.integers(16, 400))
def test_grid_invariants_hold_for_any_shape(r_max, n):
    g = make_grid(r_max, n)
    assert g.n_nodes == n
    assert g.nodes[-1] == pytest.approx(r_max, rel=1e-12)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.nodes > 0)


def test_grid_is_its_nodes():
    # regression: Grid also stored r_max, trapezoid weights and a grading
    # label, and accepted r_max = 7 on nodes ending at 2
    assert [f.name for f in dataclasses.fields(Grid)] == ["nodes"]
    g = Grid([1.0, 2.0])
    assert g.r_max == 2.0 and g.n_nodes == 2
    with pytest.raises(ValueError, match="increasing"):
        Grid([2.0, 1.0])
