"""Shooting backend: raw trajectories, the mass map, root finding, and the
Pokhozhaev function.

The one nontrivial oracle here is an independent fixed-step RK4 integrator
written inline: same ODE, different discretization, different starting rule
(plain initial data at r₀ = 1e−8 instead of the series step), no shared code
with the package.  Richardson agreement between its two resolutions pins the
truth; the adaptive backend must land on it.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from liouville import shooting
from liouville.oracles import conformal_bubble
from liouville.potentials import Constant, LogSingular, PowerGauss
from liouville.shooting import (Controls, MassDivergence, NonexistenceError,
                                integrate_ivp, mass_map, pokhozhaev_P,
                                solve_for_beta)

GAUSS = PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)


def _rk4_beta(s, steps, r_end=60.0):
    """Reference β(s) for the Gaussian weight by fixed-step RK4 in log r."""
    t = math.log(1e-8)
    h = (math.log(r_end) - t) / steps
    psi, u = s, 0.0                      # series start skipped on purpose;
                                         # the induced error is O(r0²)

    def f(t, psi, u):
        r_sq = math.exp(2.0 * t)
        return u, -r_sq * math.exp(-r_sq) * math.exp(psi)

    for _ in range(steps):
        k1p, k1u = f(t, psi, u)
        k2p, k2u = f(t + 0.5 * h, psi + 0.5 * h * k1p, u + 0.5 * h * k1u)
        k3p, k3u = f(t + 0.5 * h, psi + 0.5 * h * k2p, u + 0.5 * h * k2u)
        k4p, k4u = f(t + h, psi + h * k3p, u + h * k3u)
        psi += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        t += h
    return -0.5 * u                      # β = −u(∞)/2; Gaussian tail is gone


# ---------------------------------------------------------------------------
# raw trajectories


@pytest.mark.parametrize("s", [-2.0, 0.0, 3.0])
def test_bubble_family_has_flat_mass_two(s):
    res = integrate_ivp(Constant(1.0), 0.0, s)
    assert res.beta_s == pytest.approx(2.0, abs=1e-6)
    assert res.beta_prime_s == pytest.approx(0.0, abs=1e-5)


def test_gaussian_beta_matches_independent_rk4():
    coarse, fine = _rk4_beta(0.0, 10_000), _rk4_beta(0.0, 20_000)
    assert abs(fine - coarse) < 1e-10     # the reference itself has converged
    res = integrate_ivp(GAUSS, 0.0, 0.0)
    assert abs(res.beta_s - fine) < 1e-6


def test_trajectory_monotone_and_phi_normalized():
    res = integrate_ivp(GAUSS, 0.0, 0.0)
    assert np.all(np.diff(res.psi) <= 1e-12)      # ψ′ ≤ 0 for positive β
    assert np.all(res.dpsi <= 1e-12)
    assert res.phi[0] == pytest.approx(1.0, abs=1e-6)
    assert res.tail_mass >= 0.0


def _scalar_sample(sampler, x):
    """Per-node reference: series below x0, else one OdeSolution call."""
    s, sigma, a, n_eff = sampler.series
    if x < sampler.x0:
        t = a * math.exp((n_eff + 2.0) * x)
        return np.array([s - sigma * t, -sigma * (n_eff + 2.0) * t,
                         1.0 - sigma * t, -sigma * (n_eff + 2.0) * t])
    xi = min(x, sampler.bounds[-1])
    k = min(bisect_right(sampler.bounds, xi), len(sampler.pieces) - 1)
    return sampler.pieces[k](xi)


def test_vectorized_sampler_matches_scalar_evaluation():
    # the bubble's r⁻⁴ tail needs several doublings of r_max
    res = integrate_ivp(Constant(1.0), 0.0, 0.0)
    sampler = res._sampler
    assert len(sampler.pieces) >= 3
    x0, bounds = sampler.x0, sampler.bounds
    x = np.concatenate([
        [x0 - 5.0, np.nextafter(x0, -np.inf), x0],
        bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
        np.linspace(x0 - 1.0, bounds[-1] + 2.0, 257),
        [bounds[-1] + 10.0]])
    ref = np.array([_scalar_sample(sampler, xi) for xi in x]).T
    np.testing.assert_array_equal(sampler.at_log_r(x), ref)
    r = np.concatenate([[0.0], np.exp(x)])
    ref_r = np.array([_scalar_sample(sampler, xi) for xi in
                      np.log(np.maximum(r, 1e-300))]).T
    np.testing.assert_array_equal(np.array(res.sample(r)), ref_r)


def test_blowup_reports_mass_divergence():
    # negative coupling with a non-decaying weight: e^ψ explodes at finite r
    with pytest.raises(MassDivergence, match="did not converge"):
        integrate_ivp(Constant(1.0), 0.0, 1.0, sigma=-1)


def test_log_singular_weight_rejected():
    with pytest.raises(ValueError, match="no finite center value"):
        integrate_ivp(LogSingular(alpha_cut=math.exp(-1.0)), 0.0, 0.0)


def test_double_weight_warns():
    with pytest.warns(UserWarning, match="double-count"):
        integrate_ivp(PowerGauss(n_pow=2.0, gamma=1.0, alpha_exp=2.0),
                      1.0, 0.0)


def test_input_validation():
    with pytest.raises(ValueError, match="non-negative"):
        integrate_ivp(GAUSS, -0.5, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        integrate_ivp(GAUSS, 0.0, 0.0, sigma=2)


# ---------------------------------------------------------------------------
# mass map


def test_mass_map_bubble_entries():
    entries = mass_map(Constant(1.0), 0.0, [-2.0, 0.0, 3.0])
    assert len(entries) == 3
    for e in entries:
        assert e.error is None
        assert e.beta == pytest.approx(2.0, abs=1e-6)


def test_mass_map_gaussian_increasing_below_two():
    entries = mass_map(GAUSS, 0.0, list(range(-5, 26, 5)))
    betas = [e.beta for e in entries]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    assert all(b < 2.0 for b in betas)
    assert betas[-1] > 1.9


def test_mass_map_derivative_crosscheck():
    entries = mass_map(GAUSS, 0.0, [-0.1, -0.05, 0.0, 0.05, 0.1])
    interior = [e for e in entries if not math.isnan(e.beta_prime_fd)]
    assert len(interior) == 3
    for e in interior:
        assert abs(e.beta_prime - e.beta_prime_fd) < 1e-4


def test_mass_map_empty_errors():
    with pytest.raises(ValueError, match="non-empty"):
        mass_map(GAUSS, 0.0, [])


def test_mass_map_keeps_order_and_per_entry_errors():
    # σ = −1 with the Gaussian weight blows up for s above log 4
    s_list = [1.6, -1.0, 2.0, 0.5, 0.0]
    entries = mass_map(GAUSS, 0.0, s_list, sigma=-1)
    assert [e.s for e in entries] == s_list
    bad = [e.s for e in entries if e.error is not None]
    assert bad == [1.6, 2.0]
    assert all("did not converge" in e.error for e in entries if e.error)
    good = [e for e in entries if e.error is None]
    assert all(e.beta < 0.0 and math.isfinite(e.beta_prime) for e in good)
    for e in good:
        assert e.beta == integrate_ivp(GAUSS, 0.0, e.s, sigma=-1).beta_s
    assert [math.isnan(e.beta_prime_fd) for e in entries] == \
        [True, True, True, True, False]


def test_mass_map_keeps_going_past_bad_entries():
    entries = mass_map(Constant(1.0), 0.0, [0.0, 1.0], sigma=-1)
    assert all(e.error is not None for e in entries)
    assert all(math.isnan(e.beta) for e in entries)


# ---------------------------------------------------------------------------
# root finding


def test_solve_for_beta_gaussian_unit_mass():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    assert sol.beta == pytest.approx(1.0, abs=1e-8)
    assert sol.mass_error() < 1e-6
    assert sol.flux_error() < 1e-6 * (1.0 + abs(sol.beta))
    assert sol.dpsi[-1] == pytest.approx(-2.0, abs=1e-3)
    assert "s_star" in sol.meta and sol.meta["method"] == "shooting"


def test_solve_for_beta_negative_coupling():
    sol = solve_for_beta(GAUSS, 0.0, -1.0, (-3.0, 3.0))
    assert sol.beta == pytest.approx(-1.0, abs=1e-8)
    assert sol.mass_error() < 1e-6
    assert np.all(np.diff(sol.psi) >= -1e-12)     # ψ grows when β < 0
    assert sol.dpsi[-1] == pytest.approx(2.0, abs=1e-3)


def test_solve_for_beta_is_the_accepted_trajectory():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    ref = integrate_ivp(GAUSS, 0.0, sol.meta["s_star"]).to_normalized()
    assert sol.beta == ref.beta
    for name in ("psi", "dpsi", "mass"):
        np.testing.assert_array_equal(getattr(sol, name), getattr(ref, name))
    np.testing.assert_array_equal(sol.grid.nodes, ref.grid.nodes)
    np.testing.assert_array_equal(sol.grid.weights, ref.grid.weights)


def test_solve_for_beta_samples_one_trajectory(monkeypatch):
    make_grid = shooting.make_grid
    calls = []

    def counting_make_grid(*args, **kwargs):
        calls.append(args)
        return make_grid(*args, **kwargs)

    monkeypatch.setattr(shooting, "make_grid", counting_make_grid)
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    assert sol.meta["root_iterations"] > 1
    assert len(calls) == 1


def test_solve_for_beta_zero_target_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        solve_for_beta(GAUSS, 0.0, 0.0, (-3.0, 3.0))


def test_unreachable_beta_is_nonexistence():
    with pytest.raises(NonexistenceError, match="threshold n > beta - 2") \
            as excinfo:
        solve_for_beta(GAUSS, 0.0, 2.5, (-3.0, 3.0))
    err = excinfo.value
    assert err.beta_range is not None and err.beta_range[1] < 2.5
    assert err.s_range is not None


def test_all_diverged_nonexistence_message_has_no_nan():
    # negative coupling with a non-decaying weight: every trajectory blows up
    with pytest.raises(NonexistenceError, match="every trajectory diverged") \
            as excinfo:
        solve_for_beta(Constant(1.0), 0.0, -1.0, (-4.0, 4.0))
    err = excinfo.value
    assert "nan" not in str(err).lower()
    assert err.beta_range is None
    assert err.s_range == (-4.0, 4.0)
    assert "[-4, 4]" in str(err)


def test_saturating_map_never_fakes_a_root():
    # β(s) → 2⁻ asymptotically: a one-sided approach within root_tol of the
    # target must be reported as nonexistence, not accepted as a solution
    with pytest.raises(NonexistenceError):
        solve_for_beta(GAUSS, 0.0, 2.0, (-3.0, 3.0))


def test_flat_family_is_accepted():
    # V≡1 at weight exponent 2: every s gives β = 4 (scaling family), so the
    # bracket is flat at the target and any member solves the problem
    sol = solve_for_beta(Constant(1.0), 2.0, 4.0, (-2.0, 3.0))
    assert sol.beta == pytest.approx(4.0, abs=1e-6)
    assert sol.meta["beta_target"] == 4.0
    exact = conformal_bubble(2.0, bubble_lambda(sol), sol.grid)
    assert float(np.max(np.abs(sol.psi - exact.psi))) < 1e-6


def bubble_lambda(sol):
    """λ matching a solved member of the β=4 family by its center value."""
    n_fam = 2.0
    return math.exp((float(sol.psi[0]) - math.log(n_fam / math.pi))
                    / (2.0 * n_fam))


# ---------------------------------------------------------------------------
# Pokhozhaev function


def test_pokhozhaev_zero_on_bubble():
    res = integrate_ivp(Constant(1.0), 2.0, 0.5)
    out = pokhozhaev_P(res, Constant(1.0))
    assert abs(out["min_P"]) < 1e-6
    assert float(np.max(np.abs(out["P"]))) < 1e-6


def test_pokhozhaev_gaussian_positive_with_vanishing_limit():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    out = pokhozhaev_P(sol, GAUSS)
    assert out["min_P"] >= -1e-6
    assert out["P_at_r_max"] < 1e-4
    # trapezoid on the stored samples limits the integral-form agreement
    assert out["max_crosscheck_diff"] < 1e-5


def test_pokhozhaev_zero_weight_trivial():
    res = integrate_ivp(Constant(0.0), 0.0, 0.0)
    out = pokhozhaev_P(res, Constant(0.0))
    assert res.beta_s == 0.0
    assert float(np.max(np.abs(out["P"]))) == 0.0
