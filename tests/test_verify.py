"""Identity re-derivation and solution comparison.

check_identities must recompute everything from the ψ̃ samples — so a
hand-corrupted profile has to light up the report even though its stored
slope column and the mass −rψ̃′/(2β) it implies still satisfy M(r_max) = 1.
"""

import json

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from liouville.applications import CSS, solve_app
from liouville.grids import make_grid
from liouville.oracles import conformal_bubble
from liouville.potentials import LogSingular, PowerGauss, Sphere
from liouville.shooting import Controls, solve_for_beta
from liouville.solution import NormalizedSolution
from liouville.variational import variational_solve
from liouville.verify import check_identities, compare_solutions, pokhozhaev_P

GAUSS = PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)


@pytest.fixture(scope="module")
def gaussian_sol():
    return solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))


def test_report_on_clean_solution(gaussian_sol):
    rep = check_identities(gaussian_sol)
    assert rep.mass_residual < 1e-6
    assert rep.flux_residual < 1e-6 * (1.0 + abs(rep.beta))
    assert rep.slope_at_infinity < 1e-3
    assert rep.pokhozhaev_residual < 1e-4
    assert rep.log_lip_ok and rep.grad_bound_ok
    assert rep.P_min >= -1e-6
    assert rep.beta == pytest.approx(1.0, abs=1e-6)
    assert rep.n == 0.0 and rep.n_nodes == gaussian_sol.grid.n_nodes


@pytest.fixture(scope="module")
def corrupted_sol(gaussian_sol):
    bump = 0.5 * np.exp(-(gaussian_sol.r - 3.0) ** 2)
    return NormalizedSolution(
        beta=gaussian_sol.beta, n=gaussian_sol.n,
        psi=gaussian_sol.psi + bump, dpsi=gaussian_sol.dpsi,
        grid=gaussian_sol.grid, potential=gaussian_sol.potential)


def test_corrupted_profile_is_flagged(corrupted_sol):
    rep = check_identities(corrupted_sol)
    assert rep.flux_residual > 1e-2
    assert not rep.log_lip_ok
    assert rep.mass_residual > 1e-3


def _log_lip_by_pairs(sol):
    """Reference: the log-Lipschitz verdict and constant, one pair at a time."""
    x = np.log(sol.r)
    cum = cumulative_simpson(sol.dpsi ** 2, x=x, initial=0.0)
    pick = np.unique(np.linspace(0, sol.r.size - 1, 32).astype(int))
    ok, worst = True, 0.0
    for a, i in enumerate(pick):
        for j in pick[a + 1:]:
            lhs = (sol.psi[i] - sol.psi[j]) ** 2
            rhs = (x[j] - x[i]) * (cum[j] - cum[i])
            worst = max(worst, lhs - rhs)
            ok = ok and not lhs > rhs + 1e-6 * (1.0 + abs(rhs))
    return ok, float(worst)


def test_log_lip_matches_the_pairwise_loop(gaussian_sol, corrupted_sol):
    for sol in (gaussian_sol, corrupted_sol):
        rep = check_identities(sol)
        assert (rep.log_lip_ok, rep.log_lip_constant) == _log_lip_by_pairs(sol)


def test_log_lip_passes_a_correct_coarse_profile(corrupted_sol):
    # regression: the trapezoid rule's error decided far-field pairs, near
    # the Cauchy–Schwarz equality case, and failed this correct profile by
    # 1.22 times the slack; the corrupted profile still fails
    coarse = solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0),
                            Controls(n_sample=1024))
    assert check_identities(coarse).log_lip_ok
    assert not check_identities(corrupted_sol).log_lip_ok


def test_potential_required():
    grid = make_grid(20.0, 128)
    sol = NormalizedSolution(beta=1.0, n=0.0, psi=np.zeros(128),
                             dpsi=np.zeros(128), grid=grid)
    with pytest.raises(ValueError, match="no potential"):
        check_identities(sol)


def test_minimum_resolution_enforced():
    grid = make_grid(20.0, 32)
    sol = NormalizedSolution(beta=1.0, n=0.0, psi=np.zeros(32),
                             dpsi=np.zeros(32), grid=grid, potential=GAUSS)
    with pytest.raises(ValueError, match="at least"):
        check_identities(sol)


def test_report_serialization(gaussian_sol, tmp_path):
    rep = check_identities(gaussian_sol)
    d = rep.to_dict()
    assert set(d) >= {"mass_residual", "flux_residual", "slope_at_infinity",
                      "pokhozhaev_residual", "log_lip_ok", "grad_bound_ok",
                      "P_min"}
    assert all(not isinstance(v, (np.floating, np.integer))
               for v in d.values())
    path = tmp_path / "report.json"
    text = rep.to_json(path)
    assert json.loads(text) == d
    assert json.loads(path.read_text()) == d


@pytest.mark.parametrize("solve", [
    lambda: solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0)),
    lambda: solve_app(CSS(1, 2.0, B=1.0)),
    lambda: solve_for_beta(Sphere(-1.0, 0.0), 0.0, 1.2, (-4.0, 4.0)),
], ids=["gauss", "css", "sphere"])
def test_pokhozhaev_crosscheck_reads_the_simpson_integrals(solve):
    # the integral form 2β(J + (n+2−β)M) shares its cumulative Simpson rule
    # with the mass and index checks; a trapezoid rule in r agreed only to
    # ~1e-6 on these smooth shooting profiles
    sol = solve()
    assert pokhozhaev_P(sol, sol.potential)["max_crosscheck_diff"] < 1e-7


def test_pokhozhaev_crosscheck_takes_the_cutoff_jump():
    # V drops from V(α⁻) to 0 at α = 0.5, so P jumps by about −5 on a scale
    # of 6; the integral form without the jump would miss it by ~0.8
    V = LogSingular(0.5)
    sol, res = variational_solve(V, 2.0, 1.0)
    assert res.converged
    assert pokhozhaev_P(sol, V)["max_crosscheck_diff"] < 1e-4


# ---------------------------------------------------------------------------
# comparison


def test_sup_diff_across_grids():
    fine = conformal_bubble(1.0, 1.0, make_grid(40.0, 4096))
    coarse = conformal_bubble(1.0, 1.0, make_grid(25.0, 2048))
    rep = compare_solutions(fine, coarse, "sup_diff")
    assert rep["sup_diff"] < 1e-6          # closed form + interpolation only
    assert rep["r_hi"] == pytest.approx(25.0)


def test_negative_beta_monotonicity():
    lo = solve_for_beta(GAUSS, 0.0, -1.0, (-3.0, 3.0))
    hi = solve_for_beta(GAUSS, 0.0, -0.5, (-3.0, 3.0))
    rep = compare_solutions(lo, hi, "beta_monotone")
    assert rep["violation"] < 1e-6
    assert rep["beta_lo"] == pytest.approx(-1.0, abs=1e-8)
    assert rep["beta_hi"] == pytest.approx(-0.5, abs=1e-8)


def test_compare_rejects_mismatches(gaussian_sol):
    with pytest.raises(TypeError, match="NormalizedSolution"):
        compare_solutions(gaussian_sol, {"psi": None}, "sup_diff")
    other = conformal_bubble(1.0, 1.0, make_grid(40.0, 2048))
    with pytest.raises(ValueError, match="incompatible potentials"):
        compare_solutions(gaussian_sol, other, "sup_diff")
    with pytest.raises(ValueError, match="unknown comparison mode"):
        compare_solutions(gaussian_sol, gaussian_sol, "psi_diff")


def test_compare_rejects_weight_mismatch():
    a = conformal_bubble(1.0, 1.0, make_grid(40.0, 2048))
    b = conformal_bubble(2.0, 1.0, make_grid(40.0, 2048))
    with pytest.raises(ValueError, match="weight exponents"):
        compare_solutions(a, b, "sup_diff")
