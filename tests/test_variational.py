"""Gauged-energy minimization: gauge profile, energy/gradient, descent paths."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from liouville import variational
from liouville.grids import make_grid
from liouville.oracles import conformal_bubble
from liouville.potentials import Constant, PowerGauss, Sphere, Tabulated
from liouville.shooting import (Controls, MassDivergence, NonexistenceError,
                                solve_for_beta)
from liouville.variational import (
    EnergyUnboundedError, build_gauge, energy, minimize, to_solution,
    variational_solve,
)
from liouville.verify import check_identities, compare_solutions

GAUSS = PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)


def _blend(beta, r):
    # gauge profile: quartic blend inside r<1 matching 2β log r in C¹ at r=1
    return beta * (2.0 * r * r - 0.5 * r ** 4 - 1.5)


def test_gauge_matches_log_branch_in_c1():
    g = make_grid(4.0, 8192)
    gz = build_gauge(1.0, g)
    r = g.nodes
    inner = r < 1.0
    assert np.allclose(gz.psi0[inner], _blend(1.0, r[inner]), atol=1e-14)
    assert np.allclose(gz.psi0[~inner], 2.0 * np.log(r[~inner]), atol=1e-14)
    # value 0 and slope 2β at the seam, from both branches
    assert _blend(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    k = np.searchsorted(r, 1.0)
    fd = (gz.psi0[k + 1] - gz.psi0[k - 2]) / (r[k + 1] - r[k - 2])
    assert fd == pytest.approx(2.0, abs=1e-2)


def test_gauge_center_value_at_e():
    g = make_grid(12.0, 4096)
    gz = build_gauge(2.0, g)
    assert np.interp(math.e, g.nodes, gz.psi0) == pytest.approx(4.0, abs=1e-4)


@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_gauge_source_integrates_to_minus_4_pi_beta(beta):
    # the load is rescaled so that Σν = −4πβ exactly, which hides a wrong
    # source; the samples of f must carry that total on their own, up to
    # the trapezoid rule's O(h²) error (9.4e-6 here)
    gz = build_gauge(beta, make_grid(12.0, 4096))
    r = gz.grid.nodes
    weights = variational._Discretization(gz, Constant(1.0), 0.0).weights
    total = 2.0 * math.pi * (np.dot(weights, gz.f * r)
                             + gz.f[0] * r[0] ** 2 / 2.0)
    assert total == pytest.approx(-4.0 * math.pi * beta, rel=1e-4)


@settings(max_examples=40, deadline=None)
@given(r_max=st.floats(0.1, 100.0), n=st.integers(16, 400))
def test_lumping_weights_cover_the_span(r_max, n):
    # the trapezoid weights over [r₀, R] are non-negative and sum to R − r₀
    g = make_grid(r_max, n)
    weights = variational._Discretization(
        build_gauge(1.0, g), Constant(1.0), 0.0).weights
    assert np.all(weights >= 0)
    assert weights.sum() == pytest.approx(g.nodes[-1] - g.nodes[0], rel=1e-9)


def test_gauge_source_supported_inside_unit_disk():
    g = make_grid(6.0, 2048)
    gz = build_gauge(1.5, g)
    assert np.all(gz.f[g.nodes >= 1.0] == 0.0)
    # f = −8β(1−r²) at the origin end
    assert gz.f[0] == pytest.approx(-12.0, rel=1e-6)


def test_gauge_rejects_nonpositive_beta():
    g = make_grid(4.0, 256)
    with pytest.raises(ValueError, match="beta > 0"):
        build_gauge(0.0, g)
    with pytest.raises(ValueError, match="beta > 0"):
        build_gauge(-1.0, g)


def test_energy_zero_profile_matches_quadrature():
    # 𝓔[0] = −4πβ log ∫_{D(0,2)} e^{−ψ₀} for V ≡ 1, β = 1
    g = make_grid(2.0, 8192)
    gz = build_gauge(1.0, g)

    def integrand(r):
        psi0 = _blend(1.0, r) if r < 1.0 else 2.0 * math.log(r)
        return 2.0 * math.pi * r * math.exp(-psi0)

    total, _ = quad(integrand, 0.0, 2.0, points=[1.0], limit=200)
    expected = -4.0 * math.pi * math.log(total)
    value, _ = energy(gz, Constant(1.0), np.zeros(g.n_nodes))
    assert value == pytest.approx(expected, rel=1e-5)
    assert math.isfinite(value)


def test_energy_gradient_matches_finite_differences():
    g = make_grid(8.0, 1024)
    gz = build_gauge(1.0, g)
    phi = np.sin(np.linspace(0.0, 3.0, g.n_nodes))
    _, grad = energy(gz, GAUSS, phi)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(g.n_nodes)
        d /= np.linalg.norm(d)
        ep, _ = energy(gz, GAUSS, phi + h * d)
        em, _ = energy(gz, GAUSS, phi - h * d)
        fd = (ep - em) / (2.0 * h)
        assert fd == pytest.approx(float(grad @ d), rel=1e-5)


def test_energy_translation_invariance():
    # with the boundary row relaxed, 𝓔[φ+c] = 𝓔[φ] thanks to Σν = −4πβ
    g = make_grid(8.0, 2048)
    gz = build_gauge(1.0, g)
    phi = np.cos(np.linspace(0.0, 2.0, g.n_nodes))
    e1, _ = energy(gz, GAUSS, phi)
    e2, _ = energy(gz, GAUSS, phi + 11.25)
    assert abs(e1 - e2) < 1e-9


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-30.0, max_value=30.0,
                   allow_nan=False, allow_infinity=False))
def test_energy_translation_invariance_property(c):
    g = make_grid(6.0, 512)
    gz = build_gauge(1.5, g)
    phi = np.tanh(np.linspace(-2.0, 2.0, g.n_nodes))
    e1, _ = energy(gz, GAUSS, phi)
    e2, _ = energy(gz, GAUSS, phi + c)
    assert abs(e1 - e2) < 1e-9 * (1.0 + abs(e1))


def test_energy_rejects_profile_outside_admissible_class():
    g = make_grid(4.0, 512)
    gz = build_gauge(1.0, g)
    dead = Tabulated([0.1, 1.0, 4.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside admissible"):
        energy(gz, dead, np.zeros(g.n_nodes))


def test_energy_rejects_wrong_shape():
    g = make_grid(4.0, 512)
    gz = build_gauge(1.0, g)
    with pytest.raises(ValueError, match="per grid node"):
        energy(gz, GAUSS, np.zeros(17))


def test_minimize_gaussian_converges_and_matches_shooting():
    V = PowerGauss(n_pow=0.0, gamma=0.5, alpha_exp=2.0)
    g = make_grid(12.0, 4096)
    gz = build_gauge(1.0, g)
    res = minimize(gz, V)
    assert res.converged
    assert res.grad_norm < 1e-8
    trace = res.energy_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    sol = to_solution(res)
    reference = solve_for_beta(V, 0.0, 1.0, (-3.0, 3.0))
    sup = compare_solutions(sol, reference, mode="sup_diff")["sup_diff"]
    assert sup < 1e-3


def test_minimize_constant_trace_strictly_decreasing():
    g = make_grid(8.0, 4096)
    gz = build_gauge(1.0, g)
    res = minimize(gz, Constant(1.0), init=np.zeros(g.n_nodes))
    assert res.converged
    trace = res.energy_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_minimize_borderline_coupling_flagged_or_unbounded():
    # β = 2 Gaussian sits exactly on the upper edge of its window: the edge
    # itself is attempted, not refused, and flagged
    V = PowerGauss(n_pow=0.0, gamma=0.5, alpha_exp=2.0)
    g = make_grid(12.0, 4096)
    gz = build_gauge(2.0, g)
    res = minimize(gz, V)
    assert "existence_hypotheses_violated" in res.flags


_RING_R = np.geomspace(1e-3, 200.0, 4000)
RING = Tabulated(_RING_R, np.exp(-(_RING_R - 5.0) ** 2)
                 + 1e-3 * np.exp(-_RING_R))


@pytest.mark.parametrize("V, n, beta", [
    (GAUSS, 0.0, 2.5), (GAUSS, 1.0, 3.5), (GAUSS, 0.0, 1000.0),
    (RING, 1.0, 3.5)], ids=["gauss-n0-2.5", "gauss-n1-3.5", "gauss-n0-1000",
                            "ring-n1-3.5"])
def test_minimize_refuses_beta_above_the_window(V, n, beta):
    # regression: above β = n + 2 + n_pow the energy is unbounded below, yet
    # the Gaussian at β = 2.5 came back converged, β = 1000 gave a NaN
    # profile with overflow warnings, and the ring returned whichever
    # critical point its descent path reached
    gz = build_gauge(beta, make_grid(12.0, 4096))
    threshold = V.beta_window(n)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyUnboundedError,
                           match=rf"n \+ 2 \+ n_pow = {threshold:g}\b"):
            minimize(gz, V, n=n)


def test_minimize_init_shape_checked():
    g = make_grid(8.0, 512)
    gz = build_gauge(1.0, g)
    with pytest.raises(ValueError, match="match the grid"):
        minimize(gz, GAUSS, init=np.zeros(100))


def test_minimize_init_must_be_finite():
    # regression: one NaN node gave an all-NaN profile flagged only
    # not_converged
    gz = build_gauge(1.0, make_grid(8.0, 512))
    init = np.zeros(512)
    init[5] = np.nan
    with pytest.raises(ValueError, match="init"):
        minimize(gz, GAUSS, init=init)


@pytest.mark.parametrize("amplitude", [100.0, 1000.0])
def test_rough_init_is_not_called_unbounded(amplitude):
    # regression: the drop cap was anchored at 𝓔[init], which a rough init
    # puts far above the infimum, so a subcritical β raised "infimum -inf"
    gz = build_gauge(1.0, make_grid(12.0, 4096))
    init = amplitude * np.sin(np.linspace(0.0, 40.0, 4096))
    res = minimize(gz, GAUSS, init=init)
    assert res.converged
    assert float(np.max(np.abs(res.phi - minimize(gz, GAUSS).phi))) < 1e-6


def _count(monkeypatch, name):
    """Record the calls that ``variational`` makes to its global ``name``."""
    calls = []
    counted = getattr(variational, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(variational, name, counting)
    return calls


@pytest.mark.parametrize("n, beta", [(0.0, 1.0), (1.0, 2.5)])
def test_newton_alone_converges_subcritical_solves(monkeypatch, n, beta):
    calls = _count(monkeypatch, "scipy_minimize")
    _, res = variational_solve(GAUSS, n, beta)
    assert calls == []
    assert res.converged
    assert res.iterations <= 15


def test_lbfgs_rescues_a_newton_stall(monkeypatch):
    # β = n + 2 with a constant weight: Newton alone runs into its step cap
    calls = _count(monkeypatch, "scipy_minimize")
    res = minimize(build_gauge(4.0, make_grid(12.0, 4096)), Constant(1.0),
                   n=2.0)
    assert len(calls) == 1
    assert res.converged
    trace = res.energy_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


_TABLE_R = np.geomspace(1e-3, 1e3, 241)
_FLAG_WEIGHTS = {
    "gauss": GAUSS,
    "sphere-1": Sphere(-1.0, 0.0),
    "sphere-2": Sphere(-2.0, 0.5),
    "const": Constant(1.0),
    "gauss-npow2": PowerGauss(2.0, 0.5, 1.0),
    "table": Tabulated(_TABLE_R, (1.0 + _TABLE_R * _TABLE_R) ** -2.0),
}
_FLAG_BETAS = {
    "0.3": lambda hi: 0.3,
    "mid": lambda hi: hi / 2.0,
    "below-edge": lambda hi: hi - 0.05,
    "edge": lambda hi: hi,
}


@pytest.mark.parametrize("beta_of", _FLAG_BETAS.values(),
                         ids=_FLAG_BETAS.keys())
@pytest.mark.parametrize("n", [0.0, 1.0], ids=["n0", "n1"])
@pytest.mark.parametrize("V", _FLAG_WEIGHTS.values(), ids=_FLAG_WEIGHTS.keys())
def test_minimize_checks_conditions_for_the_weight_exponent(V, n, beta_of):
    # the flag is exactly "β outside the open window of rⁿV"; regressions:
    # the n-blind check flagged the Gaussian at n = 1, β = 2.5, and a margin
    # taken from the upper gap alone flagged Sphere(−1, 0) at n = 0, β = 0.3
    # and at n = 1, β = 1.5, both inside the window
    lo, hi = V.beta_window(n)
    beta = beta_of(hi)
    res = minimize(build_gauge(beta, make_grid(24.0, 512)), V, n=n)
    flagged = "existence_hypotheses_violated" in res.flags
    assert flagged == (not lo < beta < hi)


def test_one_discretization_per_disk(monkeypatch):
    built = []

    class Counting(variational._Discretization):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(variational, "_Discretization", Counting)
    gz = build_gauge(1.0, make_grid(8.0, 512))
    res = minimize(gz, GAUSS)
    sol = to_solution(res)
    assert len(built) == 1
    assert sol.meta["log_mass"] == res.log_mass


def test_threshold_weight_two_profile_is_a_bubble():
    # weight exponent 2 with β = 4 = n+2: the minimizer reproduces the
    # conformal family member selected by the disk truncation
    g = make_grid(30.0, 4096)
    gz = build_gauge(4.0, g)
    res = minimize(gz, Constant(1.0), n=2.0)
    sol = to_solution(res)
    # fit λ* by matching the center value: ψ(0) = log(2/π) + 4 log λ
    lam = math.exp((float(sol.psi[0]) - math.log(2.0 / math.pi)) / 4.0)
    oracle = conformal_bubble(2, lam, g)
    assert float(np.max(np.abs(sol.psi - oracle.psi))) < 5e-3


def test_to_solution_columns_are_exact_at_the_boundary():
    V = PowerGauss(n_pow=0.0, gamma=0.5, alpha_exp=2.0)
    g = make_grid(12.0, 4096)
    gz = build_gauge(1.0, g)
    res = minimize(gz, V)
    sol = to_solution(res)
    assert sol.tolerances["grad_tol"] == variational._GRAD_TOL
    assert float(sol.mass[-1]) == pytest.approx(1.0, abs=1e-4)
    # flux at the rim: r ψ′(R⁻) = −2β M(R)
    assert float(sol.dpsi[-1]) == pytest.approx(-2.0 * sol.beta, abs=1e-3)
    assert np.all(np.diff(sol.mass) >= 0.0)


def test_to_solution_survives_identity_checks():
    V = PowerGauss(n_pow=0.0, gamma=0.5, alpha_exp=2.0)
    g = make_grid(12.0, 4096)
    gz = build_gauge(1.0, g)
    sol = to_solution(minimize(gz, V))
    rep = check_identities(sol)
    assert rep.mass_residual < 1e-4
    assert rep.flux_residual < 1e-3
    assert rep.pokhozhaev_residual < 1e-3
    assert rep.log_lip_ok and rep.grad_bound_ok


def test_variational_solve_auto_disk(monkeypatch):
    # the Gaussian's tail past the first disk is far below tail_rel_tol, so
    # one disk is solved; the ψ(0) doubling rule solved two
    calls = _count(monkeypatch, "minimize")
    V = PowerGauss(n_pow=0.0, gamma=0.5, alpha_exp=2.0)
    sol, res = variational_solve(V, 0.0, 1.0)
    assert res.converged
    assert sol.r_max == 12.0
    assert len(calls) == 1
    reference = solve_for_beta(V, 0.0, 1.0, (-3.0, 3.0))
    assert float(sol.psi[0]) == pytest.approx(float(reference.psi[0]), abs=1e-3)


@pytest.mark.parametrize("l", [-1.5, -1.0, -0.5])
def test_sphere_family_disk_holds_its_mass(l):
    # V = (1+r²)^l, β = 2 + l has ψ̃ = −(2+l)·log(1+r²) − log π; its mass
    # past R is 1/(1+R²), so the disk must grow far past 12.  Regression:
    # the ψ(0) doubling rule stopped at R = 96, up to 1.3e-3 off
    beta = 2.0 + l
    sol, _ = variational_solve(Sphere(l, 0.0), 0.0, beta)
    inside = sol.r < 10.0
    exact = -beta * np.log1p(sol.r[inside] ** 2) - math.log(math.pi)
    assert float(np.max(np.abs(sol.psi[inside] - exact))) <= 1e-4
    assert sol.meta["flags"] == []


def test_constant_weight_off_its_only_coupling_is_nonexistence(monkeypatch):
    # a constant weight has finite-mass solutions only at β = 2 (Chen & Li
    # 1991): β = 1 is refused before any disk is minimized
    calls = _count(monkeypatch, "minimize")
    with pytest.raises(NonexistenceError, match="finite mass"):
        variational_solve(Constant(1.0), 0.0, 1.0)
    assert calls == []


def test_a_slow_tail_that_no_disk_holds_is_mass_divergence():
    # the sphere weight at β = 0.1 passes every condition, but its tail
    # falls like R^{−0.2}: no disk up to 10⁶ holds the mass
    with pytest.raises(MassDivergence, match="r_max"):
        variational_solve(Sphere(-1.0, 0.0), 0.0, 0.1)


_TAIL_WEIGHTS = {
    "gauss": GAUSS,
    "gauss-npow2": PowerGauss(2.0, 0.5, 1.0),
    "sphere-1": Sphere(-1.0, 0.0),
    "sphere-2": Sphere(-2.0, 0.5),
    "table": Tabulated(_TABLE_R, (1.0 + _TABLE_R * _TABLE_R) ** -2.0),
}


@pytest.mark.parametrize("frac", [0.5, 0.75])
@pytest.mark.parametrize("n", [0.0, 1.0], ids=["n0", "n1"])
@pytest.mark.parametrize("V", _TAIL_WEIGHTS.values(), ids=_TAIL_WEIGHTS.keys())
def test_every_returned_disk_passed_its_tail_test(V, n, frac):
    # β half and three quarters into the positive part of the window.  Lower
    # β leaves the sphere a tail ∝ R^{−2β} that no disk up to 10⁶ holds
    lo, hi = V.beta_window(n)
    lo = max(lo, 0.0)
    sol, _ = variational_solve(V, n, lo + frac * (hi - lo))
    tol = Controls.tail_rel_tol
    assert sol.tolerances["tail_rel_tol"] == tol
    assert 0.0 <= sol.residuals["tail_mass_fraction"] < tol


def test_threshold_coupling_on_a_disk_is_flagged_not_converged():
    # β = n + 2 + n_pow = 4 for r²·e^{−r/2}: the centre value climbs while
    # the gradient never meets its tolerance.  The plane has no solution
    # (certify refuses it), but the disk problem is minimized all the same
    V = PowerGauss(n_pow=2.0, gamma=0.5, alpha_exp=1.0)
    res = minimize(build_gauge(4.0, make_grid(12.0, 4096)), V)
    assert not res.converged
    assert "not_converged" in res.flags
    assert "existence_hypotheses_violated" in res.flags
