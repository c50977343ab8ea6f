"""Weight catalog: values, derivatives, structure constants, parsing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from liouville.potentials import (
    Constant, LogSingular, PowerGauss, Sphere, Tabulated, _safe_pow,
    alpha_of_v, check_conditions, load_tabulated, parse_potential,
)


def fd_derivative(V, r, h=1e-6):
    vp, _ = V.value_and_derivative(r + h)
    vm, _ = V.value_and_derivative(r - h)
    return (vp - vm) / (2.0 * h)


@pytest.mark.parametrize("V", [
    Constant(2.5),
    PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0),
    PowerGauss(n_pow=3.0, gamma=0.7, alpha_exp=1.0),
    Sphere(l=-1.0, gamma=0.0),
    Sphere(l=2.0, gamma=1.3),
    LogSingular(alpha_cut=math.exp(-1.0)),
])
def test_analytic_derivative_matches_finite_difference(V):
    cutoff = getattr(V, "cutoff_radius", None)
    rs = [0.05, 0.3, 0.8, 2.0, 7.0]
    if cutoff is not None:
        rs = [0.3 * cutoff, 0.7 * cutoff, 0.95 * cutoff]
    for r in rs:
        v, dv = V.value_and_derivative(r)
        assert v >= 0
        assert dv == pytest.approx(fd_derivative(V, r), rel=2e-5, abs=1e-8)


def test_vectorized_evaluation_matches_scalar():
    V = PowerGauss(n_pow=1.0, gamma=0.5, alpha_exp=2.0)
    rs = np.array([0.0, 0.1, 1.0, 4.0])
    v, dv = V.value_and_derivative(rs)
    for i, r in enumerate(rs):
        vi, dvi = V.value_and_derivative(float(r))
        assert v[i] == vi and dv[i] == dvi


def test_safe_pow_at_origin_emits_no_warning():
    r = np.array([0.0, 0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(_safe_pow(r, 1.5),
                                      [0.0, 0.5 ** 1.5, 2.0 ** 1.5])
        np.testing.assert_array_equal(_safe_pow(r, -0.5),
                                      [np.inf, 0.5 ** -0.5, 2.0 ** -0.5])
        # n_pow − 1 < 0: the derivative takes the r = 0 branch of a negative power
        v, dv = PowerGauss(n_pow=0.5, gamma=1.0,
                           alpha_exp=2.0).value_and_derivative(r)
    assert v[0] == 0.0 and dv[0] == np.inf
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(dv[1:]))


def test_gaussian_values():
    V = PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)
    v, dv = V.value_and_derivative(1.0)
    assert v == pytest.approx(math.exp(-1.0))
    assert dv == pytest.approx(-2.0 * math.exp(-1.0))
    assert V.value_and_derivative(0.0)[0] == 1.0


def test_sphere_value_at_origin():
    V = Sphere(l=-2.0, gamma=1.0)
    v, dv = V.value_and_derivative(0.0)
    assert v == pytest.approx(math.exp(2.0))
    assert dv == 0.0


def test_log_singular_matches_formula_and_cutoff():
    a = math.exp(-1.0)
    V = LogSingular(alpha_cut=a)
    assert V.beta == pytest.approx(-0.25)
    r = 0.5 * a
    v, _ = V.value_and_derivative(r)
    c = -math.log(a) / (2.0 * math.pi)
    assert v == pytest.approx(c / (r * r * (-math.log(r)) ** 1.5))
    assert V.value_and_derivative(1.01 * a)[0] == 0.0
    assert V.cutoff_jump() == pytest.approx(V.value_and_derivative(a)[0])
    with pytest.raises(ValueError):
        V.value_and_derivative(0.0)


def test_log_singular_truncated_mass_follows_log_law():
    # ∫_{r0 < r < α} V e^ψ dx = 1 − (−log α)/(−log r0): the origin carries
    # mass that decays only like 1/log(1/r0), so naive truncation never
    # reaches unit mass — the cumulative column must track this law.
    a = math.exp(-1.0)
    V = LogSingular(alpha_cut=a)

    def f(r):
        return V.value(r) * math.exp(-0.5 * math.log(-math.log(r))) * r

    r0 = 1e-12
    val = 2.0 * math.pi * quad(f, r0, a, limit=200)[0]
    expected = 1.0 - (-math.log(a)) / (-math.log(r0))
    assert val == pytest.approx(expected, rel=1e-4)


def test_negative_power_rejects_origin():
    V = PowerGauss(n_pow=-0.5, gamma=1.0, alpha_exp=2.0)
    with pytest.raises(ValueError):
        V.value_and_derivative(0.0)


def test_smooth_value_is_finite_at_origin():
    V = PowerGauss(n_pow=2.0, gamma=1.0, alpha_exp=2.0)
    assert V.smooth_value(np.array([0.0]))[0] == 1.0


# --- integrability exponent alpha(V) ---------------------------------------

def test_alpha_of_v_closed_forms():
    assert alpha_of_v(Constant(1.0)) == -1.0
    assert alpha_of_v(PowerGauss(0.0, 1.0, 2.0)) == math.inf
    assert alpha_of_v(PowerGauss(3.0, 0.0, 2.0)) == pytest.approx(-2.5)
    assert alpha_of_v(Sphere(l=-2.0, gamma=0.5)) == pytest.approx(1.0)
    assert alpha_of_v(LogSingular(0.5)) == math.inf


def test_alpha_probe_on_tabulated_power_law():
    # V = r^{−6} tabulated: α(V) = (6−2)/2 = 2
    r = np.geomspace(0.1, 1e3, 400)
    V = Tabulated(r, r ** -6.0)
    assert alpha_of_v(V) == pytest.approx(2.0, abs=0.05)


# --- structural condition checks --------------------------------------------

def test_conditions_gaussian_beta_one_passes():
    rep = check_conditions(PowerGauss(0.0, 1.0, 2.0), beta=1.0, delta=0.5)
    assert rep.all_pass and not rep.approximate


def test_conditions_gaussian_origin_fails_at_beta_two():
    # β + δ < 2 fails for every δ > 0 at β = 2: existence window is open
    for delta in (1e-6, 0.1, 1.0):
        rep = check_conditions(PowerGauss(0.0, 1.0, 2.0), beta=2.0, delta=delta)
        assert not rep.origin_integral_ok
        assert not rep.all_pass


def test_conditions_constant_needs_beta_above_two():
    assert not check_conditions(Constant(1.0), beta=2.0, delta=0.1).infinity_integral_ok
    assert check_conditions(Constant(1.0), beta=4.0, delta=0.1).infinity_integral_ok
    # but the origin side then caps β + δ < 2, so Constant never passes both
    assert not check_conditions(Constant(1.0), beta=4.0, delta=0.1).all_pass


def test_conditions_sphere_window():
    V = Sphere(l=-2.0, gamma=0.5)   # needs 2l+2+δ < β < 2−δ i.e. −2 < β < 2
    assert check_conditions(V, beta=0.5, delta=0.2).all_pass
    assert not check_conditions(V, beta=-2.0, delta=0.2).infinity_integral_ok


def test_conditions_log_singular_negative_beta():
    V = LogSingular(alpha_cut=math.exp(-1.0))
    rep = check_conditions(V, beta=V.beta, delta=0.1)
    assert rep.origin_integral_ok and rep.infinity_integral_ok
    assert not check_conditions(V, beta=0.5, delta=0.1).origin_integral_ok


def test_conditions_tabulated_flagged_approximate():
    r = np.geomspace(1e-4, 50.0, 300)
    V = Tabulated(r, np.exp(-r))
    rep = check_conditions(V, beta=1.0, delta=0.2)
    assert rep.approximate
    assert rep.origin_integral_ok


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        check_conditions(Constant(1.0), beta=1.0, delta=0.0)


# --- descriptors, parsing, CSV loading ---------------------------------------

@pytest.mark.parametrize("spec,cls", [
    ("const:c=2.0", Constant),
    ("gauss:npow=1.0,gamma=0.5,alpha=2.0", PowerGauss),
    ("sphere:l=-1.0,gamma=0.25", Sphere),
    ("logsing:alpha=0.25", LogSingular),
])
def test_descriptor_round_trip(spec, cls):
    V = parse_potential(spec)
    assert isinstance(V, cls)
    again = parse_potential(V.descriptor())
    assert again == V or again.descriptor() == V.descriptor()


def test_parse_defaults_and_errors():
    assert parse_potential("const").c == 1.0
    assert parse_potential("gauss:gamma=1,alpha=2").n_pow == 0.0
    with pytest.raises(ValueError, match="unknown potential name"):
        parse_potential("bessel:nu=0")
    with pytest.raises(ValueError, match="unknown keys"):
        parse_potential("const:c=1,q=2")
    with pytest.raises(ValueError):
        parse_potential("logsing")  # alpha required


def test_tabulated_csv_round_trip(tmp_path):
    path = tmp_path / "w.csv"
    r = np.geomspace(0.01, 10.0, 50)
    v = np.exp(-r)
    with open(path, "w") as fh:
        fh.write("r,V\n")
        for ri, vi in zip(r, v):
            fh.write(f"{float(ri)!r},{float(vi)!r}\n")
    V = load_tabulated(path)
    assert isinstance(V, Tabulated)
    mid = math.sqrt(r[3] * r[4])
    assert V.value(mid) == pytest.approx(
        np.interp(math.log(mid), np.log(r), v))
    # interpolation is exact at the knots
    assert V.value(r[7]) == pytest.approx(v[7], rel=1e-12)


def test_tabulated_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,val\n1,2\n")
    with pytest.raises(ValueError, match="r,V"):
        load_tabulated(path)


def test_tabulated_rejects_negative_values():
    with pytest.raises(ValueError):
        Tabulated([1.0, 2.0], [1.0, -0.5])


@settings(max_examples=30, deadline=None)
@given(npw=st.floats(0.0, 4.0), gamma=st.floats(0.01, 5.0),
       a=st.floats(0.5, 3.0), r=st.floats(0.01, 20.0))
def test_power_gauss_derivative_property(npw, gamma, a, r):
    V = PowerGauss(n_pow=npw, gamma=gamma, alpha_exp=a)
    v, dv = V.value_and_derivative(r)
    assert v >= 0
    step = 1e-5 * max(r, 1.0)
    fd = (V.value(r + step) - V.value(r - step)) / (2.0 * step)
    assert dv == pytest.approx(fd, rel=5e-4, abs=5e-7)
