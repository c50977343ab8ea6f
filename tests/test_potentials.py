"""Weight catalog: values, derivatives, structure constants, parsing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

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
    assert V.smooth_scalar(0.0) == 1.0


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


def test_conditions_use_the_problem_weight_r_to_the_n():
    # regression: the origin test read β + δ < n_pow + 2 whatever n was, so
    # (Gaussian, n = 1, β = 2.5, δ = 0.25) failed although β + δ < n + 2
    gauss = PowerGauss(0.0, 1.0, 2.0)
    assert not check_conditions(gauss, beta=2.5, delta=0.25).origin_integral_ok
    rep = check_conditions(gauss, beta=2.5, delta=0.25, n=1.0)
    assert rep.origin_integral_ok and rep.all_pass
    # every power-law threshold moves by n
    const = Constant(1.0)
    assert check_conditions(const, 4.0, 0.1).infinity_integral_ok
    assert not check_conditions(const, 4.0, 0.1, n=2.0).infinity_integral_ok
    assert not check_conditions(const, 3.5, 0.1).origin_integral_ok
    assert check_conditions(const, 3.5, 0.1, n=2.0).origin_integral_ok
    sphere = Sphere(l=-2.0, gamma=0.5)
    assert check_conditions(sphere, -1.5, 0.2).infinity_integral_ok
    assert not check_conditions(sphere, -1.5, 0.2, n=1.0).infinity_integral_ok
    assert check_conditions(sphere, 2.5, 0.2, n=1.0).origin_integral_ok
    log_sing = LogSingular(alpha_cut=math.exp(-1.0))
    assert check_conditions(log_sing, 0.5, 0.1, n=1.0).origin_integral_ok


def test_conditions_tabulated_probe_uses_r_to_the_n():
    # V is values[0] = 1 below the table: ∫₀¹ rⁿ r^{1−β−δ} dr diverges for
    # β + δ = 2.5 at n = 0 and converges at n = 1
    r = np.geomspace(1e-4, 50.0, 300)
    V = Tabulated(r, np.exp(-r))
    assert not check_conditions(V, beta=2.3, delta=0.2).origin_integral_ok
    assert check_conditions(V, beta=2.3, delta=0.2, n=1.0).origin_integral_ok


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        check_conditions(Constant(1.0), beta=1.0, delta=0.0)


# --- pinned weight facts ------------------------------------------------------
# α(V) and check_conditions(V, β, δ = 0.25, n) as recorded before the weight
# facts moved onto the Potential classes.  Rows cover generic couplings, β = −α
# and every β where β + δ or β − δ equals an origin or infinity threshold
# exactly.  The flag string spells (min_condition_ok, origin_integral_ok,
# infinity_integral_ok); every value is compared with ==.

_TABLE_R = np.geomspace(1e-3, 1e3, 241)
_PINNED_WEIGHTS = {
    "const": Constant(1.0),
    "const-zero": Constant(0.0),
    "gauss": PowerGauss(0.0, 1.0, 2.0),
    "gauss-npow2": PowerGauss(2.0, 0.5, 1.0),
    "gauss-gamma0": PowerGauss(-1.0, 0.0, 2.0),
    "sphere-l-1": Sphere(-1.0, 0.0),
    "sphere-l-2": Sphere(-2.0, 0.5),
    "logsing": LogSingular(math.exp(-1.0)),
    "table": Tabulated(_TABLE_R, (1.0 + _TABLE_R * _TABLE_R) ** -2.0),
}
# name: (α(V), positivity_annulus_ok, approximate, [(n, β, flags)])
_PINNED_FACTS = {
    "const": (-1.0, True, False, [
        (0, -1.5, "FTF"),
        (0, 0.5, "FTF"),
        (0, 1.0, "TTF"),
        (0, 1.75, "TFF"),
        (0, 2.25, "TFF"),
        (0, 2.5, "TFT"),
        (1, -1.5, "FTF"),
        (1, 0.5, "FTF"),
        (1, 1.0, "TTF"),
        (1, 2.5, "TTF"),
        (1, 2.75, "TFF"),
        (1, 3.25, "TFF"),
        (2, -1.5, "FTF"),
        (2, 0.5, "FTF"),
        (2, 1.0, "TTF"),
        (2, 2.5, "TTF"),
        (2, 3.75, "TFF"),
        (2, 4.25, "TFF"),
    ]),
    "const-zero": (-1.0, False, False, [
        (0, -1.5, "FTF"),
        (0, 0.5, "FTF"),
        (0, 1.0, "TTF"),
        (0, 1.75, "TFF"),
        (0, 2.25, "TFF"),
        (0, 2.5, "TFT"),
        (1, -1.5, "FTF"),
        (1, 0.5, "FTF"),
        (1, 1.0, "TTF"),
        (1, 2.5, "TTF"),
        (1, 2.75, "TFF"),
        (1, 3.25, "TFF"),
        (2, -1.5, "FTF"),
        (2, 0.5, "FTF"),
        (2, 1.0, "TTF"),
        (2, 2.5, "TTF"),
        (2, 3.75, "TFF"),
        (2, 4.25, "TFF"),
    ]),
    "gauss": (math.inf, True, False, [
        (0, -1.5, "TTT"),
        (0, 0.5, "TTT"),
        (0, 1.0, "TTT"),
        (0, 1.75, "TFT"),
        (0, 2.5, "TFT"),
        (1, -1.5, "TTT"),
        (1, 0.5, "TTT"),
        (1, 1.0, "TTT"),
        (1, 2.5, "TTT"),
        (1, 2.75, "TFT"),
        (2, -1.5, "TTT"),
        (2, 0.5, "TTT"),
        (2, 1.0, "TTT"),
        (2, 2.5, "TTT"),
        (2, 3.75, "TFT"),
    ]),
    "gauss-npow2": (math.inf, True, False, [
        (0, -1.5, "TTT"),
        (0, 0.5, "TTT"),
        (0, 1.0, "TTT"),
        (0, 2.5, "TTT"),
        (0, 3.75, "TFT"),
        (1, -1.5, "TTT"),
        (1, 0.5, "TTT"),
        (1, 1.0, "TTT"),
        (1, 2.5, "TTT"),
        (1, 4.75, "TFT"),
        (2, -1.5, "TTT"),
        (2, 0.5, "TTT"),
        (2, 1.0, "TTT"),
        (2, 2.5, "TTT"),
        (2, 5.75, "TFT"),
    ]),
    "gauss-gamma0": (-0.5, True, False, [
        (0, -1.5, "FTF"),
        (0, 0.5, "TTF"),
        (0, 0.75, "TFF"),
        (0, 1.0, "TFF"),
        (0, 1.25, "TFF"),
        (0, 2.5, "TFT"),
        (1, -1.5, "FTF"),
        (1, 0.5, "TTF"),
        (1, 1.0, "TTF"),
        (1, 1.75, "TFF"),
        (1, 2.25, "TFF"),
        (1, 2.5, "TFT"),
        (2, -1.5, "FTF"),
        (2, 0.5, "TTF"),
        (2, 1.0, "TTF"),
        (2, 2.5, "TTF"),
        (2, 2.75, "TFF"),
        (2, 3.25, "TFF"),
    ]),
    "sphere-l-1": (0.0, True, False, [
        (0, -1.5, "FTF"),
        (0, -0.25, "FTF"),
        (0, -0.0, "TTF"),
        (0, 0.25, "TTF"),
        (0, 0.5, "TTT"),
        (0, 1.0, "TTT"),
        (0, 1.75, "TFT"),
        (0, 2.5, "TFT"),
        (1, -1.5, "FTF"),
        (1, -0.0, "TTF"),
        (1, 0.5, "TTF"),
        (1, 0.75, "TTF"),
        (1, 1.0, "TTF"),
        (1, 1.25, "TTF"),
        (1, 2.5, "TTT"),
        (1, 2.75, "TFT"),
        (2, -1.5, "FTF"),
        (2, -0.0, "TTF"),
        (2, 0.5, "TTF"),
        (2, 1.0, "TTF"),
        (2, 1.75, "TTF"),
        (2, 2.25, "TTF"),
        (2, 2.5, "TTT"),
        (2, 3.75, "TFT"),
    ]),
    "sphere-l-2": (1.0, True, False, [
        (0, -2.25, "FTF"),
        (0, -1.75, "FTF"),
        (0, -1.5, "FTT"),
        (0, -1.0, "TTT"),
        (0, 0.5, "TTT"),
        (0, 1.0, "TTT"),
        (0, 1.75, "TFT"),
        (0, 2.5, "TFT"),
        (1, -1.5, "FTF"),
        (1, -1.25, "FTF"),
        (1, -1.0, "TTF"),
        (1, -0.75, "TTF"),
        (1, 0.5, "TTT"),
        (1, 1.0, "TTT"),
        (1, 2.5, "TTT"),
        (1, 2.75, "TFT"),
        (2, -1.5, "FTF"),
        (2, -1.0, "TTF"),
        (2, -0.25, "TTF"),
        (2, 0.25, "TTF"),
        (2, 0.5, "TTT"),
        (2, 1.0, "TTT"),
        (2, 2.5, "TTT"),
        (2, 3.75, "TFT"),
    ]),
    "logsing": (math.inf, True, False, [
        (0, -1.5, "TTT"),
        (0, -0.25, "TTT"),
        (0, 0.5, "TFT"),
        (0, 1.0, "TFT"),
        (0, 2.5, "TFT"),
        (1, -1.5, "TTT"),
        (1, -0.25, "TTT"),
        (1, 0.5, "TTT"),
        (1, 0.75, "TTT"),
        (1, 1.0, "TFT"),
        (1, 2.5, "TFT"),
        (2, -1.5, "TTT"),
        (2, -0.25, "TTT"),
        (2, 0.5, "TTT"),
        (2, 1.0, "TTT"),
        (2, 1.75, "TTT"),
        (2, 2.5, "TFT"),
    ]),
    # the table follows its fitted r^−3.99993 tail past the last node, so
    # its infinity flags match sphere-l-2's r⁻⁴ decay; at the thresholds the
    # fitted power falls just short of −4
    "table": (0.9999664255504981, True, True, [
        (0, -1.75, "FTF"),
        (0, 1.75, "TFT"),
        (1, -0.75, "TTF"),
        (1, 2.75, "TFT"),
        (2, 0.25, "TTF"),
        (2, 3.75, "TFT"),
    ]),
}


@pytest.mark.parametrize("name,n,beta,flags", [
    (name, *row) for name, facts in _PINNED_FACTS.items() for row in facts[3]])
def test_weight_facts_match_the_recorded_table(name, n, beta, flags):
    V = _PINNED_WEIGHTS[name]
    alpha, annulus_ok, approximate, _ = _PINNED_FACTS[name]
    min_ok, origin_ok, infinity_ok = (f == "T" for f in flags)
    assert alpha_of_v(V) == alpha
    assert check_conditions(V, beta, 0.25, n).to_dict() == {
        "beta": beta, "delta": 0.25, "alpha_v": alpha,
        "min_condition_ok": min_ok, "origin_integral_ok": origin_ok,
        "infinity_integral_ok": infinity_ok, "vminus_integral_ok": True,
        "positivity_annulus_ok": annulus_ok, "approximate": approximate,
        "all_pass": min_ok and origin_ok and infinity_ok and annulus_ok}


# --- the tabulated model -------------------------------------------------------

_SPHERE_TABLE = _PINNED_WEIGHTS["table"]


def test_tabulated_infinity_verdict_matches_the_sphere_it_samples():
    # regression: a quad probe over the tail, clamped to values[-1], called
    # the r⁻⁴ decay of (1+r²)⁻² divergent
    table = check_conditions(_SPHERE_TABLE, 1.75, 0.25, 0.0)
    sphere = check_conditions(Sphere(-2.0, 0.5), 1.75, 0.25, 0.0)
    assert table.infinity_integral_ok == sphere.infinity_integral_ok


def test_tabulated_tail_follows_the_fitted_power():
    V = _SPHERE_TABLE
    r_end, p = V.radii[-1], V.decay_power
    r = r_end * np.array([1.5, 10.0, 1e3])
    v, dv = V.value_and_derivative(r)
    tail = V.values[-1] * (r / r_end) ** p
    np.testing.assert_allclose(v, tail, rtol=1e-14)
    np.testing.assert_allclose(dv, p * tail / r, rtol=1e-14)


def test_tabulated_compact_tail_is_zero():
    V = Tabulated([0.1, 0.2, 2.0, 4.0], [1.0, 0.5, 0.0, 0.0])
    assert V.decay_power == -math.inf
    v, dv = V.value_and_derivative(np.array([5.0, 1e3]))
    np.testing.assert_array_equal(v, 0.0)
    np.testing.assert_array_equal(dv, 0.0)


def test_tabulated_is_constant_below_the_first_node():
    V = _SPHERE_TABLE
    v, dv = V.value_and_derivative(V.radii[0] * np.array([0.0, 1e-6, 0.5]))
    np.testing.assert_array_equal(v, V.values[0])
    np.testing.assert_array_equal(dv, 0.0)


def test_tabulated_derivative_is_continuous_at_interior_nodes():
    # the cubic is C¹ in log r: the step control of the ODE integrator
    # assumes a smooth right-hand side
    nodes = _SPHERE_TABLE.radii[1:-1]
    _, left = _SPHERE_TABLE.value_and_derivative(np.nextafter(nodes, 0.0))
    _, right = _SPHERE_TABLE.value_and_derivative(np.nextafter(nodes, np.inf))
    np.testing.assert_allclose(left, right, rtol=1e-12)


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
        PchipInterpolator(np.log(r), v)(math.log(mid)))
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


_TABLE_R = np.geomspace(1e-3, 200.0, 400)
# every weight that shooting accepts, with a ring-type table (a bump at r = 5
# over a faint core), a power-tail table, and a rising one
SHOOTABLE = [
    Constant(0.7),
    PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0),
    PowerGauss(n_pow=2.0, gamma=0.5, alpha_exp=1.0),
    PowerGauss(n_pow=1.0, gamma=0.0, alpha_exp=2.0),
    Sphere(l=-1.0, gamma=0.0),
    Sphere(l=-1.0, gamma=1.0),
    Sphere(l=1.5, gamma=2.0),
    Sphere(l=-2.5, gamma=0.3),
    Tabulated(_TABLE_R, np.exp(-(_TABLE_R - 5.0) ** 2)
              + 1e-3 * np.exp(-_TABLE_R)),
    Tabulated(_TABLE_R, (1.0 + _TABLE_R ** 2) ** -1.5),
    Tabulated(_TABLE_R, _TABLE_R / (1.0 + _TABLE_R)),
]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(SHOOTABLE) - 1),
       ends=st.tuples(st.floats(-8.0, 6.0), st.floats(-8.0, 6.0)),
       from_zero=st.booleans())
# the ring's least value on [0.1, 5] is at an interior node, near r = 2
@example(which=8, ends=(-1.0, math.log10(5.0)), from_zero=False)
def test_smooth_lower_bound_is_below_the_weight(which, ends, from_zero):
    # the blow-up certificate of shooting is rigorous only if this bound is:
    # Ṽ on 257 log-spaced points of [r_a, r_b] never falls below it
    V = SHOOTABLE[which]
    lo, hi = sorted(10.0 ** e for e in ends)
    r_a = 0.0 if from_zero else lo
    bound = V.smooth_lower_bound(r_a, hi)
    values = [V.smooth_scalar(r) for r in np.geomspace(lo, hi, 257)]
    assert 0.0 <= bound <= min(values + [V.smooth_scalar(r_a)]) * (1 + 1e-12)
