"""The existence certificate: the ranges of g = rV'/V that the index
identity reads, the verdicts it gives where the paper's window and the
command line disagreed, and the fact that it never refuses a profile that
passes the identity checks."""

import math
import warnings

import numpy as np
import pytest

from liouville import shooting, variational
from liouville.cli import main
from liouville.potentials import (Constant, LogSingular, PowerGauss, Sphere,
                                  Tabulated, certify, parse_potential)
from liouville.shooting import ShootingError, integrate_ivp, solve_for_beta
from liouville.verify import MASS_BOUND, POKHOZHAEV_BOUND, check_identities

_RING_R = np.geomspace(1e-3, 200.0, 4000)
RING = Tabulated(_RING_R, np.exp(-(_RING_R - 5.0) ** 2)
                 + 1e-3 * np.exp(-_RING_R))
INF = math.inf


def run(*argv):
    return main([str(a) for a in argv])


# (weight, log_slope_range(), (min, max) of g sampled on [1e-6, 1e6] where
# V > 0): the Gaussians' g = n_pow − γ·a·r^a is unbounded below, and the
# sample stops where V underflows
RANGES = {
    "gauss": (PowerGauss(0.0, 1.0, 2.0), (-INF, 0.0), (-1501.0, 0.0)),
    "gauss-npow2": (PowerGauss(2.0, 0.5, 1.0), (-INF, 2.0), (-743.06, 2.0)),
    "sphere-0.5": (Sphere(-0.5, 0.0), (-1.0, 0.0), (-1.0, 0.0)),
    "sphere-1-1": (Sphere(-1.0, 1.0), (-2.25, 0.0), (-2.25, 0.0)),
    "sphere-0-1": (Sphere(0.0, 1.0), (-1.0, 0.0), (-1.0, 0.0)),
    "sphere+1": (Sphere(1.0, 0.3), (0.0, 2.0), (0.0, 2.0)),
    "const": (Constant(1.0), (0.0, 0.0), (0.0, 0.0)),
    "ring": (RING, (-210.709, 12.2262), (-210.854, 12.2263)),
}


@pytest.mark.parametrize("V, closed, sampled", RANGES.values(),
                         ids=RANGES.keys())
def test_log_slope_range_matches_a_dense_sample(V, closed, sampled):
    r = np.geomspace(1e-6, 1e6, 200001)
    v, dv = V.value_and_derivative(r)
    g = r[v > 0] * dv[v > 0] / v[v > 0]
    assert (g.min(), g.max()) == pytest.approx(sampled, rel=1e-4, abs=1e-9)
    # a table's range is itself a sample of its cubic, so approximate
    assert V.log_slope_range() == pytest.approx(closed, rel=1e-5)
    tol = 1e-3 * (1.0 + np.abs(g).max()) if V.sampled else 1e-9
    lo, hi = V.log_slope_range()
    assert lo <= g.min() + tol and g.max() <= hi + tol


def test_log_singular_weight_has_no_range():
    assert LogSingular(0.3).log_slope_range() is None


def test_threshold_coupling_exits_two_before_minimizing(monkeypatch, capsys):
    # regression: β = 4 = n + 2 + sup g for r²·e^{−r/2} ran 740 minimizer
    # iterations and exited 0 with a flagged, unconverged profile
    calls = []
    monkeypatch.setattr(variational, "minimize",
                        lambda *args, **kwargs: calls.append(args))
    assert run("solve", "--method", "variational", "--beta", 4,
               "--potential", "gauss:npow=2,gamma=0.5,alpha=1") == 2
    assert "(inf g, sup g) = (-inf, 2)" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("beta", [-0.75, -0.6])
def test_negative_coupling_inside_the_window_can_be_refused(capsys, beta):
    # regression: for n + 2 + p < 0 the window's lower edge n + 2 + p lies
    # below the finite-mass bound (n + 2 + p)/2, so these "inside" inputs
    # ended in PrecisionLimitError (exit 1) instead of a verdict
    assert run("app", "sphere", "--l", -1.5, "--beta", beta) == 2
    assert ("finite mass needs beta >= (n + 2 + p)/2 = -0.5"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ("--l", -0.5, "--beta", 0.95), ("--l", -1, "--beta", 1.0),
    ("--l", -1.5, "--beta", -0.75), ("--l", -1, "--gamma", 1, "--beta",
                                     -0.1)])
def test_app_and_solve_agree_on_the_same_problem(capsys, argv):
    # regression: `app sphere --l -0.5 --beta 0.95` exited 2 while `solve`
    # on the same (V, n, β) exited 0
    opts = dict(zip(argv[::2], argv[1::2]))
    spec = f"sphere:l={opts['--l']},gamma={opts.get('--gamma', 0)}"
    assert (run("app", "sphere", *argv)
            == run("solve", "--beta", opts["--beta"], "--potential", spec))


SWEEP = [PowerGauss(0.0, 1.0, 2.0), PowerGauss(2.0, 0.5, 1.0),
         Sphere(-1.0, 0.0), Sphere(-0.5, 0.0), Sphere(-1.5, 0.0),
         Sphere(-1.0, 1.0)]


@pytest.mark.parametrize("V", SWEEP, ids=repr)
def test_no_profile_that_passes_the_gate_is_refused(V):
    # every converged trajectory solves the problem at its own β(s); those
    # that pass the command line's residual bounds must meet both necessary
    # conditions.  σ = −1 trajectories blow up for larger s.  A weight with
    # constant g is left out: its one coupling is met only to round-off
    passed = 0
    for n in (0.0, 1.0):
        for sigma, s_list in ((1, np.linspace(-4.0, 6.0, 6)),
                              (-1, np.linspace(-4.0, 1.0, 4))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results = integrate_ivp(V, n, s_list, sigma=sigma)
            for res in results:
                if isinstance(res, ShootingError):
                    continue
                sol = res.to_normalized()
                report = check_identities(sol)
                if (report.mass_residual <= MASS_BOUND
                        and report.pokhozhaev_residual <= POKHOZHAEV_BOUND):
                    assert certify(V, n, sol.beta) is None
                    passed += 1
    assert passed >= 8


@pytest.mark.parametrize("n, beta, named", [
    (0.0, math.nan, "beta must be finite"),
    (0.0, INF, "beta must be finite"),
    (0.0, -INF, "beta must be finite"),
    (0.0, 0.0, "beta_target must be nonzero"),
    (math.nan, 1.0, "n must be finite and non-negative"),
    (INF, 1.0, "n must be finite and non-negative"),
    (-1.0, 1.0, "n must be finite and non-negative"),
    (-1.0, 0.5, "n must be finite and non-negative")])
def test_out_of_domain_input_raises_before_any_trajectory_or_disk(
        monkeypatch, n, beta, named):
    # regression: certify gave a "no solution" verdict with nan or inf in it,
    # or none at all (β = 0.5, n = −1 minimized and returned a profile)
    calls = []

    def record(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(shooting, "integrate_ivp", record("integrate_ivp"))
    monkeypatch.setattr(variational, "build_gauge", record("build_gauge"))
    monkeypatch.setattr(variational, "minimize", record("minimize"))
    gauss = PowerGauss(0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=named):
        certify(gauss, n, beta)
    with pytest.raises(ValueError, match=named):
        solve_for_beta(gauss, n, beta, (-4.0, 4.0))
    with pytest.raises(ValueError, match=named):
        variational.variational_solve(gauss, n, beta)
    assert calls == []


@pytest.mark.parametrize("field, spec", [
    ("c", "const:c=inf"), ("gamma", "gauss:gamma=nan"),
    ("alpha_exp", "gauss:alpha=inf"), ("n_pow", "gauss:npow=nan"),
    ("l", "sphere:l=nan"), ("gamma", "sphere:gamma=inf")])
def test_weight_refuses_a_non_finite_parameter(field, spec):
    # regression: gamma = nan passed and certify read the weight as V ~ r^0
    with pytest.raises(ValueError, match=f"parameter {field} must be finite"):
        parse_potential(spec)
