"""Acceptance gate: twelve end-to-end criteria at their published tolerances.

One test per criterion, each printing a single PASS/FAIL line that bypasses
pytest capture, so the gate status reads straight off any test log.  Shared
solves live in module fixtures; every criterion must finish inside a minute.
"""

import math
import time

import numpy as np
import pytest

from liouville.applications import CSS, css_scaling_check, solve_app
from liouville.cli import main as cli_main
from liouville.grids import make_grid
from liouville.oracles import conformal_bubble, sharp_regularity_example
from liouville.potentials import Constant, PowerGauss, certify
from liouville.shooting import Controls, integrate_ivp, mass_map, solve_for_beta
from liouville.variational import build_gauge, energy, variational_solve
from liouville.verify import (POKHOZHAEV_BOUND, check_identities,
                              compare_solutions, pokhozhaev_P)

GAUSS = PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)

_emit = print


def _record(num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _emit(line)
    assert ok, line


@pytest.fixture(autouse=True)
def _status_lines_visible(capfd):
    """Route _record output around pytest's capture, and time-box each run."""
    global _emit

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    _emit = emit
    start = time.perf_counter()
    yield
    _emit = print
    assert time.perf_counter() - start < 60.0


# -- shared solves ----------------------------------------------------------


@pytest.fixture(scope="module")
def gauss_sol():
    return solve_for_beta(GAUSS, 0.0, 1.0, (-3.0, 3.0))


@pytest.fixture(scope="module")
def conformal_sol():
    return solve_for_beta(Constant(1.0), 2.0, 4.0, (-2.0, 3.0))


@pytest.fixture(scope="module")
def negative_pair():
    return (solve_for_beta(GAUSS, 0.0, -1.0, (-3.0, 3.0)),
            solve_for_beta(GAUSS, 0.0, -0.5, (-3.0, 3.0)))


@pytest.fixture(scope="module")
def variational_pair():
    return variational_solve(GAUSS, 0.0, 1.0)


@pytest.fixture(scope="module")
def accepted_solutions(gauss_sol, conformal_sol, negative_pair,
                       variational_pair):
    sols = [("gauss beta=1", gauss_sol),
            ("bubble-family beta=4", conformal_sol),
            ("gauss beta=-1", negative_pair[0]),
            ("gauss beta=-0.5", negative_pair[1]),
            ("variational beta=1", variational_pair[0])]
    for s in (-2.0, 0.0, 3.0):
        sols.append((f"bubble s={s:g}",
                     integrate_ivp(Constant(1.0), 0.0, s).to_normalized()))
    for b_field in (1.0, 4.0):
        sol = solve_app(CSS(n_int=1, beta=2.0, B=b_field))
        sols.append((f"css B={b_field:g}", sol))
    return sols


# -- criteria ----------------------------------------------------------------


def test_criterion_01_bubble_flatness():
    worst_b = worst_bp = 0.0
    for s in (-2.0, 0.0, 3.0):
        res = integrate_ivp(Constant(1.0), 0.0, s)
        worst_b = max(worst_b, abs(res.beta_s - 2.0))
        worst_bp = max(worst_bp, abs(res.beta_prime_s))
    _record(1, "bubble flatness beta=2, beta'=0",
            worst_b < 1e-6 and worst_bp < 1e-5,
            f"|beta-2|<={worst_b:.3g} |beta'|<={worst_bp:.3g}")


def test_criterion_02_conformal_family_reproduction(conformal_sol):
    lam = math.exp((float(conformal_sol.psi[0]) - math.log(2.0 / math.pi))
                   / 4.0)
    exact = conformal_bubble(2.0, lam, conformal_sol.grid)
    mask = conformal_sol.r <= 10.0
    sup = float(np.max(np.abs(conformal_sol.psi[mask] - exact.psi[mask])))
    _record(2, "conformal family reproduced at beta=4", sup < 1e-6,
            f"sup(r<=10)={sup:.3g} lambda*={lam:.6g}")


def test_criterion_03_gaussian_threshold():
    tight = Controls(abs_tol=1e-12, rel_tol=1e-10)
    entries = mass_map(GAUSS, 0.0, list(range(-5, 26)), tight)
    betas = [e.beta for e in entries]
    below = all(b < 2.0 for b in betas)
    exit_code = cli_main(["solve", "--beta", "2.0", "--n", "0",
                          "--potential", "gauss:gamma=1,alpha=2"])
    _record(3, "gaussian sharp threshold beta<2",
            below and max(betas) > 1.9 and exit_code == 2,
            f"max beta={max(betas):.10f} solve-exit={exit_code}")


def test_criterion_04_pokhozhaev_identity(gauss_sol):
    residual = check_identities(gauss_sol).pokhozhaev_residual
    _record(4, "pokhozhaev index identity", residual < POKHOZHAEV_BOUND,
            f"|beta-2-n-integral|={residual:.3g}")


def test_criterion_05_flux_and_asymptotics(accepted_solutions):
    worst_flux = worst_slope = 0.0
    for _, sol in accepted_solutions:
        flux = float(np.max(np.abs(sol.dpsi + 2.0 * sol.beta * sol.mass)))
        worst_flux = max(worst_flux, flux / (1.0 + abs(sol.beta)))
        worst_slope = max(worst_slope,
                          abs(float(sol.dpsi[-1]) + 2.0 * sol.beta))
    _record(5, "flux identity and asymptotic slope, all solutions",
            worst_flux < 1e-6 and worst_slope < 1e-3,
            f"{len(accepted_solutions)} solutions, "
            f"flux<={worst_flux:.3g} slope-gap<={worst_slope:.3g}")


def test_criterion_06_cross_backend_agreement(gauss_sol, variational_pair):
    rep = compare_solutions(variational_pair[0], gauss_sol, "sup_diff")
    _record(6, "variational vs shooting at beta=1",
            rep["sup_diff"] < 1e-3, f"sup={rep['sup_diff']:.3g} on "
            f"r<={rep['r_hi']:.3g}")


def test_criterion_07_negative_beta_monotonicity(negative_pair):
    rep = compare_solutions(*negative_pair, mode="beta_monotone")
    _record(7, "psi+log|beta| ordering for beta<0",
            rep["violation"] < 1e-6, f"violation={rep['violation']:.3g}")


def test_criterion_08_sharp_regularity_oracle():
    _, sol = sharp_regularity_example(math.exp(-1.0),
                                      make_grid(2.0, 8192))
    residual = check_identities(sol).mass_residual
    _record(8, "sharp-regularity oracle mass", residual < 1e-6,
            f"mass residual={residual:.3g}")


def test_criterion_09_energy_gradient(variational_pair):
    grid = make_grid(8.0, 1024)
    gauge = build_gauge(1.0, grid)
    phi = np.sin(np.linspace(0.0, 3.0, grid.n_nodes))
    _, grad = energy(gauge, GAUSS, phi)
    rng = np.random.default_rng(7)
    h, worst = 1e-6, 0.0
    for _ in range(5):
        d = rng.standard_normal(grid.n_nodes)
        d /= np.linalg.norm(d)
        ep, _ = energy(gauge, GAUSS, phi + h * d)
        em, _ = energy(gauge, GAUSS, phi - h * d)
        fd = (ep - em) / (2.0 * h)
        worst = max(worst, abs(fd - float(grad @ d)) / abs(fd))
    trace = variational_pair[1].energy_trace
    monotone = bool(np.all(np.diff(trace) < 0.0))
    _record(9, "energy gradient vs finite differences",
            worst < 1e-5 and monotone,
            f"rel err<={worst:.3g} trace monotone={monotone}")


def test_criterion_10_pokhozhaev_positivity(gauss_sol):
    out = pokhozhaev_P(gauss_sol, GAUSS)
    _record(10, "P(psi) positivity with vanishing limit",
            out["min_P"] >= -1e-6 and out["P_at_r_max"] < 1e-4,
            f"min P={out['min_P']:.3g} P(r_max)={out['P_at_r_max']:.3g}")


def test_criterion_11_css_field_scaling():
    deviation = css_scaling_check(1, 2.0, 1.0, 4.0)["deviation"]
    rng = np.random.default_rng(11)
    verdicts_ok = True
    for _ in range(20):
        n_int = int(rng.integers(0, 6))
        beta = float(rng.uniform(-4.0, 8.0))
        b_field = float(rng.uniform(0.2, 5.0))
        refused = certify(*CSS(n_int, beta, b_field).problem()) is not None
        verdicts_ok = verdicts_ok and refused == (not 2.0 * n_int > beta - 2.0)
    _record(11, "css B-rescaling law and verdict sweep",
            deviation < 1e-4 and verdicts_ok,
            f"deviation={deviation:.3g} 20/20 verdicts={verdicts_ok}")


def test_criterion_12_phi_is_s_derivative():
    h = 1e-4
    base = integrate_ivp(GAUSS, 0.0, 0.0)
    plus = integrate_ivp(GAUSS, 0.0, h)
    minus = integrate_ivp(GAUSS, 0.0, -h)
    rs = base.grid.nodes[base.grid.nodes <= base.r_max / 2.0]
    fd = (plus.sample(rs)[0] - minus.sample(rs)[0]) / (2.0 * h)
    phi = base.sample(rs)[2]
    gap = float(np.max(np.abs(fd - phi)))
    tol = 1e-5 + 100.0 * h * h
    _record(12, "phi matches d(psi)/ds", gap < tol,
            f"max gap={gap:.3g} (tol {tol:.3g})")
