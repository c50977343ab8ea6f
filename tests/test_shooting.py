"""Shooting backend: raw trajectories, the mass map, root finding, and the
Pokhozhaev function.

The one nontrivial oracle here is an independent fixed-step RK4 integrator
written inline: same ODE, different discretization, different starting rule
(plain initial data at r₀ = 1e−8 instead of the series step), no shared code
with the package.  Richardson agreement between its two resolutions pins the
truth; the adaptive backend must land on it.
"""

import math
import re
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from scipy.integrate import DOP853, quad

from liouville import shooting
from liouville.oracles import conformal_bubble
from liouville.potentials import (Constant, LogSingular, PowerGauss, Sphere,
                                  Tabulated)
from liouville.shooting import (Controls, MassDivergence, NonexistenceError,
                                NotFoundError, PrecisionLimitError,
                                integrate_ivp, mass_map, solve_for_beta)
from liouville.solution import NormalizedSolution
from liouville.verify import check_identities, pokhozhaev_P

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
    """Per-node reference: series below x0, else one OdeSolution call.

    The series uses numpy's exp, as the sampler does: math.exp differs from
    it by an ulp at some points.
    """
    s, sigma, a, n_eff = sampler.series
    if x < sampler.x0:
        t = a * np.exp((n_eff + 2.0) * x)
        return np.array([s - sigma * t, -sigma * (n_eff + 2.0) * t,
                         1.0 - sigma * t, -sigma * (n_eff + 2.0) * t])
    xi = min(x, sampler.bounds[-1])
    k = min(bisect_right(sampler.bounds, xi), len(sampler.pieces) - 1)
    return sampler.pieces[k](xi)


def test_vectorized_sampler_matches_scalar_evaluation():
    # at this center value the bubble's tail fraction lands just above
    # tail_rel_tol at the predicted radius, so a doubling follows the jump
    res = integrate_ivp(Constant(1.0), 0.0, 2.0)
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


@pytest.mark.parametrize("V, s", [
    (Constant(1.0), -2.0), (Constant(1.0), 0.0), (Constant(1.0), 2.0),
    (Sphere(-1.0, 0.0), -1.0), (Sphere(-1.0, 0.0), 0.5),
], ids=["bubble-2", "bubble0", "bubble2", "sphere-1", "sphere0.5"])
def test_slow_tail_jumps_to_the_predicted_radius(V, s):
    # regression: doubling r_max from 64 took 9–12 segments on these tails
    res = integrate_ivp(V, 0.0, s)
    assert res.diagnostics["n_segments"] <= 3
    assert res.r_max <= shooting._R_MAX_CAP
    fraction = res.tail_mass / (2.0 * abs(res.beta_s))
    assert fraction < Controls().tail_rel_tol


_OUT_OF_DOMAIN = (
    [(name, value) for name in ("abs_tol", "rel_tol", "tail_rel_tol",
                                "root_tol")
     for value in (math.nan, math.inf, -math.inf, -1e-9)]
    + [("r_max", value) for value in (math.nan, math.inf, 0.0, -8.0)]
    + [("n_sample", 15), ("n_sample", 0)])


@pytest.mark.parametrize("name, value", _OUT_OF_DOMAIN,
                         ids=[f"{n}={v}" for n, v in _OUT_OF_DOMAIN])
def test_controls_refuse_a_value_out_of_its_domain(name, value):
    # regression: integrate_ivp(PowerGauss(0, 1, 2), 0, 1, Controls(abs_tol=
    # nan)) and any trajectory under Controls(r_max=nan) ran for over 30 s
    # without returning.  A zero tolerance and the benchmark's warm-up
    # controls stay legal
    with pytest.raises(ValueError, match=rf"Controls\.{name} must be .*"
                                         rf"got {value!r}"):
        Controls(**{name: value})
    Controls(abs_tol=0.0, tail_rel_tol=0.0, r_max=8.0, n_sample=16)
    Controls(r_max=8.0, n_sample=64)


def test_zero_tail_tolerance_doubles_to_the_cap():
    # the jump's target log(tol·total) is undefined at tol = 0: the radius
    # doubles, and the bubble's r⁻² tail never meets a zero tolerance, so
    # the loop runs to the cap
    with pytest.raises(MassDivergence, match=r"r_max = 1e\+06"):
        integrate_ivp(Constant(1.0), 0.0, 0.0, Controls(tail_rel_tol=0.0))


def test_blowup_reports_mass_divergence():
    # negative coupling with a non-decaying weight: e^ψ explodes at finite r
    with pytest.raises(MassDivergence, match="did not converge"):
        integrate_ivp(Constant(1.0), 0.0, 1.0, sigma=-1)


@pytest.mark.parametrize("V", [GAUSS, Constant(1.0)], ids=["gauss", "const"])
def test_blowup_just_below_the_exponent_clamp_is_mass_divergence(V):
    # s = 699.9 starts 0.1 below _PSI_CAP: the blow-up certificate, kept in
    # logs, names the blow-up with nothing overflowing; the pole test that
    # backs it up is pinned by test_weight_without_a_bound_ends_at_the_pole
    with pytest.raises(MassDivergence, match="blows up"):
        integrate_ivp(V, 0.0, 699.9, sigma=-1)


class _Unbounded(Constant):
    """V ≡ c with the base class's bound of 0: no blow-up certificate."""

    def smooth_lower_bound(self, r_a, r_b):
        return 0.0


def _rhs_evals(monkeypatch):
    """The ``nfev`` of every ``solve_ivp`` call of shooting, in a list."""
    solve_ivp = shooting.solve_ivp
    counted = []

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        counted.append(sol.nfev)
        return sol

    monkeypatch.setattr(shooting, "solve_ivp", counting)
    return counted


def test_certified_blowup_ends_a_diverging_trajectory_early(monkeypatch):
    # regression: DOP853 crept toward the pole until its step collapsed,
    # 5420 RHS evaluations for this trajectory
    counted = _rhs_evals(monkeypatch)
    with pytest.raises(MassDivergence,
                       match="did not converge.*blows up before r = "):
        integrate_ivp(GAUSS, 0.0, 4.0, sigma=-1)
    assert sum(counted) < 1000


@pytest.mark.parametrize("s", [1.0, 40.0])
def test_weight_without_a_bound_ends_at_the_pole(s):
    # a bound of 0 certifies nothing, so the pole test names the blow-up;
    # it lies inside the radius that the certificate gives for V ≡ 1
    with pytest.raises(MassDivergence, match="blows up near r = ") as pole:
        integrate_ivp(_Unbounded(1.0), 0.0, s, sigma=-1)
    with pytest.raises(MassDivergence, match="certified") as sure:
        integrate_ivp(Constant(1.0), 0.0, s, sigma=-1)
    r_pole = float(str(pole.value).rsplit("near r = ", 1)[1])
    r_bound = float(re.search(r"before r = (\S+)", str(sure.value))[1])
    assert r_pole <= r_bound


@pytest.mark.parametrize("s", [-3.0, -6.0])
def test_divergent_frozen_slope_tail_is_never_accepted(s):
    # regression: g = r²Ṽ → 1 at infinity, so every σ = −1 trajectory
    # blows up, yet a tail quad of −0.324 (s = −3) and of −3.4e-9 at the
    # 10⁶ cap (s = −6) was accepted with a negative β
    with pytest.raises(MassDivergence, match="did not converge"):
        integrate_ivp(Sphere(-1.0, 1.0), 0.0, s, sigma=-1)


def test_divergent_tail_stops_a_negative_coupling_trajectory_at_once(
        monkeypatch):
    # regression: with σ = −1, u = rψ′ only grows, so a frozen-slope tail
    # that diverges once diverges for good; yet the trajectory ran 15 tail
    # tests, every one inf, from r = 64 to the 10⁶ cap
    tail = shooting._tail_integral
    tails = []

    def counting_tail(*args, **kwargs):
        tails.append(tail(*args, **kwargs))
        return tails[-1]

    monkeypatch.setattr(shooting, "_tail_integral", counting_tail)
    with pytest.raises(MassDivergence, match="frozen-slope tail diverges"):
        integrate_ivp(Sphere(-1.0, 1.0), 0.0, -6.0, sigma=-1)
    assert tails == [math.inf]


@pytest.mark.parametrize("psi", [-700.0, 0.0, 699.9, 2000.0])
@pytest.mark.parametrize("x", [math.log(1e-300), 0.0, math.log(1e6)])
def test_blowup_time_never_overflows(psi, x):
    u = np.array([1e-300, 1e-8, 1.0, 1e8, 1e300])
    y = np.concatenate([np.full(5, psi), u, np.ones(5), np.zeros(5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_t = shooting._log_blowup_times(Constant(1.0), 2.0, x, y)
    assert not any(math.isnan(v) for v in log_t)


@pytest.mark.parametrize("u", [0.05, 1.0, 2.0 ** 0.5, 3.0, 40.0])
def test_blowup_time_matches_its_integral(u):
    # T = ∫_ψ₁^∞ dψ/√(a + 2g e^ψ), a = u² − 2g e^ψ₁: at ψ₁ = 0 and g = 1,
    # a < 0, a = 0 and a > 0 in turn
    y = np.array([0.0, u, 1.0, 0.0])
    log_t = shooting._log_blowup_times(Constant(1.0), 2.0, 0.0, y)[0]
    a = u * u - 2.0
    # the integrand falls like e^{−ψ/2}: the part past ψ = 200 is below 1e-43
    exact = quad(lambda t: 1.0 / math.sqrt(a + 2.0 * math.exp(t)),
                 0.0, 200.0, limit=200)[0]
    assert math.exp(log_t) == pytest.approx(exact, rel=1e-8)


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
    for lo, mid, hi in zip(entries, entries[1:], entries[2:]):
        centred = (hi.beta - lo.beta) / (hi.s - lo.s)
        assert abs(mid.beta_prime - centred) < 1e-4


def test_mass_map_empty_errors():
    with pytest.raises(ValueError, match="non-empty"):
        mass_map(GAUSS, 0.0, [])


def test_mass_map_argument_error_raises():
    # regression: a bad argument was recorded on every entry, so a sweep of
    # NaN rows passed for a result
    with pytest.raises(ValueError, match="non-negative"):
        mass_map(GAUSS, -1.0, [0.0])


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
    # the certified members leave the batch at the certificate's event and
    # the rest go on from there, each within 1e-8 of its solo trajectory
    for e in good:
        solo = integrate_ivp(GAUSS, 0.0, e.s, sigma=-1)
        assert e.beta == pytest.approx(solo.beta_s, abs=1e-8)
    # mass_map is one batched integration; its accuracy against a tight
    # solo reference is pinned by test_batched_sweep_is_accurate
    batch = integrate_ivp(GAUSS, 0.0, s_list, sigma=-1)
    for e, res in zip(entries, batch):
        if e.error is None:
            assert e.beta == res.beta_s
        else:
            assert isinstance(res, MassDivergence) and e.error == str(res)


# ---------------------------------------------------------------------------
# batched trajectories


def _norm_solver(size):
    y0 = np.linspace(0.5, 1.5, 4 * size)
    return shooting._MaxNormDOP853(lambda x, y: -y, 0.0, y0, 1.0)


@pytest.mark.parametrize("size", [1, 3])
def test_max_norm_is_the_largest_member_norm(size):
    rng = np.random.default_rng(size)
    solver = _norm_solver(size)
    K = rng.standard_normal((solver.n_stages + 1, 4 * size))
    scale = 1e-8 * (1.0 + rng.random(4 * size))
    h = 0.37
    members = [DOP853._estimate_error_norm(_norm_solver(1), K[:, j::size], h,
                                           scale[j::size])
               for j in range(size)]
    got = solver._estimate_error_norm(K, h, scale)
    assert got == pytest.approx(max(members), rel=1e-12)
    if size == 1:
        assert got == DOP853._estimate_error_norm(solver, K, h, scale)


@pytest.mark.parametrize("sigma, s_list", [
    (1, [-3.0, -1.0, 0.0, 1.0, 2.5, 4.0, 6.0, 8.0, 10.0]),
    (-1, [-3.0, -2.0, -1.0, 0.0, 1.0]),
], ids=["positive", "negative"])
def test_batched_sweep_is_accurate(sigma, s_list):
    # each member meets its own local tolerance: β and β′ stay as close to a
    # tight solo reference as a default solo integration (up to 2.9e-9)
    tight = Controls(abs_tol=1e-13, rel_tol=1e-12, tail_rel_tol=1e-11)
    batch = integrate_ivp(GAUSS, 0.0, s_list, sigma=sigma)
    assert [res.s for res in batch] == s_list
    for s, res in zip(s_list, batch):
        ref = integrate_ivp(GAUSS, 0.0, s, tight, sigma=sigma)
        assert abs(res.beta_s - ref.beta_s) < 1e-9
        assert abs(res.beta_prime_s - ref.beta_prime_s) < 1e-9


def test_batch_from_a_short_first_radius_passes_every_tail_test():
    # r_max only sets where the first segment ends: on the sphere's slow
    # power-law tail every member goes on until its own tail test passes
    tol = Controls().tail_rel_tol
    batch = integrate_ivp(Sphere(-1.0, 0.0), 0.0, [-1.0, 0.5, 3.0],
                          Controls(r_max=8.0))
    for res in batch:
        assert res.r_max > 8.0
        assert res.tail_mass / (2.0 * abs(res.beta_s)) < tol
    assert max(res.diagnostics["n_segments"] for res in batch) >= 2


def test_short_first_radius_gives_the_default_solution():
    # regression: a set r_max stopped every trajectory there, tail test or
    # not; at r_max = 8 the sphere's profile was off by 1.2e-3, with a mass
    # residual of 0.028
    V = Sphere(-1.0, 0.0)
    ref = solve_for_beta(V, 0.0, 0.9, (-4.0, 4.0))
    sol = solve_for_beta(V, 0.0, 0.9, (-4.0, 4.0), Controls(r_max=8.0))
    assert check_identities(sol).mass_residual < 1e-6
    # both grids start at a fixed fraction of their own r_max: compare where
    # both are sampled
    r = ref.r[(ref.r >= sol.r[0]) & (ref.r < 4.0)]
    assert float(np.max(np.abs(sol.psi_at(r) - ref.psi_at(r)))) < 1e-6


@pytest.mark.parametrize("V, s", [(GAUSS, 0.5), (Constant(1.0), 2.0),
                                  (Sphere(-1.0, 0.0), -1.0)],
                         ids=["gauss", "bubble", "sphere"])
def test_batch_of_one_is_the_solo_trajectory(V, s):
    solo = integrate_ivp(V, 0.0, s)
    (one,) = integrate_ivp(V, 0.0, [s])
    assert (one.beta_s, one.beta_prime_s, one.r_max, one.tail_mass) == \
        (solo.beta_s, solo.beta_prime_s, solo.r_max, solo.tail_mass)
    assert one.diagnostics == solo.diagnostics
    np.testing.assert_array_equal(one.psi, solo.psi)
    np.testing.assert_array_equal(one.phi, solo.phi)


def test_batch_member_keeps_its_own_rows():
    s_list = [-1.0, 0.5, 2.0]
    batch = integrate_ivp(GAUSS, 0.0, s_list)
    r = np.geomspace(1e-3, 30.0, 50)
    for res in batch:
        solo = integrate_ivp(GAUSS, 0.0, res.s)
        np.testing.assert_allclose(res.sample(r), solo.sample(r), atol=1e-8)


def test_unattributed_step_collapse_integrates_each_member_alone(monkeypatch):
    solve_ivp = shooting.solve_ivp
    collapsed = []

    def collapse_first_batch(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        if len(y0) > 4 and not collapsed:
            # ψ decreases for σ = +1, so no member passes the pole test
            collapsed.append(len(y0))
            sol.status, sol.message = -1, "step size collapsed"
        return sol

    monkeypatch.setattr(shooting, "solve_ivp", collapse_first_batch)
    s_list = [-1.0, 0.5, 2.0]
    batch = integrate_ivp(GAUSS, 0.0, s_list)
    monkeypatch.undo()
    assert collapsed == [12]
    for s, res in zip(s_list, batch):
        assert res.beta_s == integrate_ivp(GAUSS, 0.0, s).beta_s


def test_batch_reports_argument_errors_and_per_member_failures():
    with pytest.raises(ValueError, match="no finite center value"):
        integrate_ivp(LogSingular(alpha_cut=math.exp(-1.0)), 0.0, [0.0, 1.0])
    out = integrate_ivp(GAUSS, 0.0, [0.0, 800.0, 2.0], sigma=-1)
    assert out[0].beta_s < 0.0
    assert type(out[1]) is shooting.ShootingError
    assert "too large" in str(out[1])
    assert isinstance(out[2], MassDivergence)
    assert integrate_ivp(GAUSS, 0.0, []) == []


def test_mass_map_keeps_going_past_bad_entries():
    entries = mass_map(Constant(1.0), 0.0, [0.0, 1.0], sigma=-1)
    assert all(e.error is not None for e in entries)
    assert all(math.isnan(e.beta) for e in entries)


# ---------------------------------------------------------------------------
# root finding


def test_solve_for_beta_gaussian_unit_mass():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    assert sol.beta == pytest.approx(1.0, abs=1e-8)
    assert abs(sol.mass[-1] - 1.0) < 1e-6
    flux = np.max(np.abs(sol.dpsi + 2.0 * sol.beta * sol.mass))
    assert flux < 1e-6 * (1.0 + abs(sol.beta)) ** 2
    assert sol.dpsi[-1] == pytest.approx(-2.0, abs=1e-3)
    assert "s_star" in sol.meta and sol.meta["method"] == "shooting"


def test_solve_for_beta_negative_coupling():
    sol = solve_for_beta(GAUSS, 0.0, -1.0, (-3.0, 3.0))
    assert sol.beta == pytest.approx(-1.0, abs=1e-8)
    assert abs(sol.mass[-1] - 1.0) < 1e-6
    assert np.all(np.diff(sol.psi) >= -1e-12)     # ψ grows when β < 0
    assert sol.dpsi[-1] == pytest.approx(2.0, abs=1e-3)


def test_solve_for_beta_is_the_accepted_trajectory():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    ref = integrate_ivp(GAUSS, 0.0, sol.meta["s_star"]).to_normalized()
    assert sol.beta == ref.beta
    for name in ("psi", "dpsi", "mass"):
        np.testing.assert_array_equal(getattr(sol, name), getattr(ref, name))
    np.testing.assert_array_equal(sol.grid.nodes, ref.grid.nodes)


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


def test_output_grid_starts_where_the_solution_leaves_its_centre():
    # regression: the first node was 1e-8·r_max, so it moved with how far the
    # tail test pushed r_max and psi_at extrapolated below it; two solves
    # whose s* agree to 2.5e-8 differed by 1.6e-4 in psi_at on [1e-5, 4]
    V = Sphere(-1.0, 0.0)
    sols = [solve_for_beta(V, 0.0, 0.9, (-4.0, 4.0), c)
            for c in (Controls(), Controls(r_max=4.0))]
    assert sols[0].r_max != sols[1].r_max
    r = np.geomspace(1e-5, 4.0, 200)
    assert np.max(np.abs(sols[0].psi_at(r) - sols[1].psi_at(r))) <= 1e-6
    for sol in sols:
        assert 0.0 < sol.mass[0] <= shooting._FIRST_MASS


# inputs across the catalog whose sampled profiles sit closest to the
# identity checks' bounds on a coarse grid: at 1024 nodes the Gaussian β = 1
# fails the log-Lipschitz check, and β = −5 and −20 exceed the flux margin
_MARGIN_INPUTS = [
    (GAUSS, 0.0, 1.0), (GAUSS, 0.0, -5.0), (GAUSS, 0.0, -20.0),
    (Sphere(-1.0, 0.0), 0.0, 1.94), (Sphere(-0.5, 1.0), 0.0, 1.97),
    (Constant(1.0), 2.0, 4.0)]


@pytest.mark.parametrize("V, n, beta", _MARGIN_INPUTS,
                         ids=["gauss-1", "gauss-m5", "gauss-m20", "sphere-1",
                              "sphere-half", "const-n2"])
def test_default_output_grid_passes_with_margin(V, n, beta):
    # Controls.n_sample is the smallest measured size whose profiles pass
    # with the flux residual 10x under its 1e-6·(1+|β|) bound; a smaller
    # default fails here
    sol = solve_for_beta(V, n, beta, (-4.0, 4.0))
    rep = check_identities(sol)
    assert rep.log_lip_ok
    assert rep.flux_residual <= 1e-7 * (1.0 + abs(beta))


def test_solve_for_beta_takes_newton_steps(monkeypatch):
    calls, _ = _count_trajectories(monkeypatch)
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    assert sol.beta == pytest.approx(1.0, abs=1e-8)
    assert len(calls) < 7        # bisection and a secant alone took 7


def test_solve_for_beta_on_a_table_matches_the_weight_it_samples():
    # regression: the table's V′ jumped at every node and its tail was
    # clamped to a constant, so this root search ran out of iterations
    r = np.geomspace(1e-3, 1e3, 241)
    table = Tabulated(r, (1.0 + r * r) ** -2.0)
    sol = solve_for_beta(table, 0.0, 1.5, (-4.0, 4.0))
    ref = solve_for_beta(Sphere(-2.0, 0.0), 0.0, 1.5, (-4.0, 4.0))
    assert sol.beta == pytest.approx(1.5, abs=1e-8)
    assert abs(sol.meta["s_star"] - ref.meta["s_star"]) <= 1e-5


def test_monotone_table_is_not_flagged_multiple_roots():
    # regression: the table samples (1 + r²)⁻², whose mass map is monotone,
    # but its β(s) jitters at the 1e-6 level, which a fold test on
    # differences of β read as a fold
    r = np.geomspace(1e-3, 1e3, 241)
    table = Tabulated(r, (1.0 + r * r) ** -2.0)
    sol = solve_for_beta(table, 0.0, 0.5, (-4.0, 4.0))
    assert "multiple_roots_possible" not in sol.meta.get("flags", [])


def test_ring_weight_fold_is_flagged_multiple_roots():
    # a ring of weight at r = 5 over a faint core: β(s) rises to a peak and
    # falls again, so the root found need not be the only one
    r = np.geomspace(1e-3, 200.0, 4000)
    ring = Tabulated(r, np.exp(-(r - 5.0) ** 2) + 1e-3 * np.exp(-r))
    sol = solve_for_beta(ring, 0.0, 5.0, (-8.0, 12.0), Controls(root_tol=1e-6))
    assert sol.meta["s_star"] == pytest.approx(1.1367, abs=1e-3)
    assert sol.meta["flags"] == ["multiple_roots_possible"]


def test_root_iterations_count_only_root_steps():
    # r²·const at β = n + 2 is a scaling family: both bracket ends already
    # solve, so no Newton or bisection step runs
    sol = solve_for_beta(Constant(1.0), 2.0, 4.0, (-2.0, 2.0))
    assert sol.meta["root_iterations"] == 0


def _count_trajectories(monkeypatch):
    """(calls, diverged): the arguments of every ``integrate_ivp`` call, and
    the centre values of the calls that raised MassDivergence."""
    integrate = shooting.integrate_ivp
    calls, diverged = [], []

    def counting_integrate(*args, **kwargs):
        calls.append(args)
        try:
            return integrate(*args, **kwargs)
        except MassDivergence:
            diverged.append(args[2])
            raise

    monkeypatch.setattr(shooting, "integrate_ivp", counting_integrate)
    return calls, diverged


@pytest.mark.parametrize("V, beta, most, most_diverged", [
    (GAUSS, 1.9, 10, 0),                 # 18 with a secant step
    (Sphere(-1.0, 0.0), 0.6, 5, 0),      # 7 with a secant step
    # σ = −1 trajectories of the Gaussian blow up for s above log 4.  From
    # s = 0 (β′ = −0.37) the Newton step lands at s = 2.95, inside the
    # bracket (0, 4) but more than half the last step (the bisection
    # 4 → 0), so the search bisects; taking that step costs 11
    # trajectories, 3 of them diverged
    (GAUSS, -1.4, 8, 2),
], ids=["gauss1.9", "sphere-1", "gauss-1.4"])
def test_newton_or_bisection_steps_only(monkeypatch, V, beta, most,
                                        most_diverged):
    calls, diverged = _count_trajectories(monkeypatch)
    sol = solve_for_beta(V, 0.0, beta, (-4.0, 4.0))
    assert sol.beta == pytest.approx(beta, abs=1e-8)
    assert len(calls) <= most
    assert len(diverged) <= most_diverged


def test_bracket_of_adjacent_doubles_stops_at_once(monkeypatch):
    # near the blow-up centre value log 4, β′ ≈ 6e8, so one ulp in s moves β
    # by more than root_tol: bisection cannot split the last bracket, and
    # must say so at once instead of spinning through its iterations
    calls, _ = _count_trajectories(monkeypatch)
    with pytest.raises(PrecisionLimitError, match="double precision") \
            as excinfo:
        solve_for_beta(GAUSS, 0.0, -100.0, (-4.0, 4.0))
    assert isinstance(excinfo.value, shooting.ShootingError)
    assert not isinstance(excinfo.value, NonexistenceError)
    assert len(calls) <= 40
    message = str(excinfo.value)
    numbers = set(re.findall(r"[-+.0-9e]+", message))
    s_lo, s_hi = sorted(s for s in {args[2] for args in calls}
                        if repr(s) in numbers)
    assert abs(s_lo - math.log(4.0)) < 1e-6
    assert math.nextafter(s_lo, math.inf) == s_hi
    assert "-99.99999971" in message and "-100.00000017" in message
    assert "target -100" in message
    assert excinfo.value.s_range == (s_lo, s_hi)
    b_lo, b_hi = excinfo.value.beta_range
    assert b_lo < -100.0 < b_hi
    assert f"{b_lo:.12g}" in message and f"{b_hi:.12g}" in message


def test_solve_for_beta_zero_target_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        solve_for_beta(GAUSS, 0.0, 0.0, (-3.0, 3.0))


def test_unreachable_beta_is_nonexistence(monkeypatch):
    # the message names the violated condition: g = −2r² of the Gaussian
    # ranges over (−inf, 0), so the index identity needs β < n + 2 = 2; it
    # is read before any trajectory
    calls, _ = _count_trajectories(monkeypatch)
    with pytest.raises(NonexistenceError,
                       match=r"\(inf g, sup g\) = \(-inf, 0\), g = rV'/V; "
                             r"got 0\.5$"):
        solve_for_beta(GAUSS, 0.0, 2.5, (-3.0, 3.0))
    assert calls == []


def test_all_diverged_nonexistence_message_has_no_nan():
    # σ = −1 trajectories of the Gaussian blow up for s above log 4, so the
    # bracket [2, 4] holds none that converges; no condition refuses β = −1,
    # so this is "not found", not a nonexistence
    with pytest.raises(NotFoundError, match="every trajectory diverged") \
            as excinfo:
        solve_for_beta(GAUSS, 0.0, -1.0, (2.0, 4.0))
    err = excinfo.value
    assert not isinstance(err, NonexistenceError)
    assert "nan" not in str(err).lower()
    assert err.beta_range is None
    assert err.s_range == (2.0, 4.0)
    assert "[2, 4]" in str(err)


def test_saturating_map_never_fakes_a_root():
    # β(s) → 2⁻ asymptotically: a one-sided approach within root_tol of the
    # target must be reported as nonexistence, not accepted as a solution
    with pytest.raises(NonexistenceError):
        solve_for_beta(GAUSS, 0.0, 2.0, (-3.0, 3.0))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the tail quad returns a negative "
                          "tail, which passes the stop test")
def test_constant_weight_deep_start_does_not_converge_to_a_wrong_beta():
    # V ≡ 1, n = 0: every trajectory carries β = 2 (Chen & Li 1991).  At
    # s = −13 the solver stops at r_max = 64 with β ≈ 3.1e-6 on a tail of
    # about −4.6e-3, which passes the tail test; a MassDivergence would be
    # a correct refusal
    try:
        res = integrate_ivp(Constant(1.0), 0.0, -13.0)
    except MassDivergence:
        return
    assert abs(res.beta_s - 2.0) < 1e-6


def test_constant_weight_off_its_only_coupling_is_nonexistence():
    # V ≡ 1, n = 0 has solutions only at β = 2, so β = 1 is a nonexistence;
    # it is certified before the wrong β of deep starts can end the bracket
    # at adjacent doubles
    with pytest.raises(NonexistenceError):
        solve_for_beta(Constant(1.0), 0.0, 1.0, (-4.0, 4.0))


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
    out = pokhozhaev_P(res.to_normalized(), Constant(1.0))
    assert abs(out["min_P"]) < 1e-6
    assert float(np.max(np.abs(out["P"]))) < 1e-6


def test_pokhozhaev_gaussian_positive_with_vanishing_limit():
    sol = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))
    out = pokhozhaev_P(sol, GAUSS)
    assert out["min_P"] >= -1e-6
    assert out["P_at_r_max"] < 1e-4
    # Simpson in log r on the stored samples limits the integral-form
    # agreement
    assert out["max_crosscheck_diff"] < 1e-5


def test_pokhozhaev_zero_weight_trivial():
    res = integrate_ivp(Constant(0.0), 0.0, 0.0)
    assert res.beta_s == 0.0
    # no mass and no tail: the stop rule accepts the first segment
    assert res.diagnostics["n_segments"] == 1
    assert res.r_max == pytest.approx(64.0)
    assert res.tail_mass == 0.0
    # zero coupling has no normalized form; carry the flat trajectory's
    # columns (rψ′ ≡ 0) under a nominal β, for which P must vanish exactly
    flat = NormalizedSolution(beta=1.0, n=0.0, psi=res.psi, dpsi=res.dpsi,
                              grid=res.grid)
    assert np.all(flat.dpsi == 0.0)
    out = pokhozhaev_P(flat, Constant(0.0))
    assert float(np.max(np.abs(out["P"]))) == 0.0
