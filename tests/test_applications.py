"""Physics-preset behavior: the certificate's verdicts on each preset,
end-to-end solves, the Chern–Simons field-rescaling law, and the
temperature-scan table."""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import applications, shooting
from liouville.applications import (
    CSS,
    Onsager,
    SCAN_CSV_HEADER,
    SphericalOnsager,
    _scan_entry,
    css_scaling_check,
    onsager_temperature_scan,
    scan_rows_to_csv,
    solve_app,
)
from liouville.potentials import PowerGauss, Sphere, certify
from liouville.shooting import Controls, NonexistenceError, ShootingError
from liouville.solution import NormalizedSolution
from liouville.verify import check_identities

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# derived parameters and the certificate's verdicts


def test_onsager_derived_parameters():
    V, n, beta = Onsager(n=1.0, gamma=1.0, alpha_exp=2.0,
                         beta_stat=-FOUR_PI).problem()
    assert beta == pytest.approx(1.0, abs=1e-15)
    assert n == 1.0
    assert V == PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)


def test_css_derived_parameters():
    V, n, _ = CSS(n_int=2, beta=1.5, B=3.0).problem()
    assert n == 4.0
    # weight e^{-B r^2 / 2}
    assert V == PowerGauss(n_pow=0.0, gamma=1.5, alpha_exp=2.0)


def test_sphere_potential():
    V, _, _ = SphericalOnsager(n=0.0, l=-1.0, gamma=0.5, beta=1.0).problem()
    assert V == Sphere(l=-1.0, gamma=0.5)


def _refused(spec):
    return certify(*spec.problem()) is not None


def test_window_examples():
    # inside the paper's window no necessary condition fails; on its edge
    # and past it the index identity refuses each of these weights, whose
    # g = rV'/V is not constant
    inside = [Onsager(1.0, 1.0, 2.0, -FOUR_PI), CSS(1, 2.0, 1.0),
              SphericalOnsager(0.0, -1.0, 0.0, 1.0)]
    edge_or_past = [Onsager(0.0, 1.0, 2.0, -2 * FOUR_PI),
                    Onsager(0.0, 1.0, 2.0, -4 * FOUR_PI),
                    CSS(0, 2.0, 1.0), CSS(0, 2.5, 1.0),
                    SphericalOnsager(0.0, -1.0, 0.0, 2.0),
                    SphericalOnsager(0.0, -1.0, 0.0, 3.0)]
    assert not any(_refused(spec) for spec in inside)
    assert all("index identity" in certify(*spec.problem())
               for spec in edge_or_past)


def test_window_inequality_mentions_numbers():
    reason = certify(*CSS(0, 2.0, 1.0).problem())
    assert "beta - n - 2" in reason and "(-inf, 0)" in reason
    assert reason.endswith("got 0")


@pytest.mark.parametrize("n", [0.0, 1.0, 2.5])
def test_onsager_without_confinement_has_an_empty_window(n):
    # γ = 0 makes V ≡ 1, whose solutions all have β = n + 2 (Chen & Li,
    # Duke Math. J. 63, 1991; Prajapat & Tarantello, PRSE 131A, 2001): the
    # paper's window is empty, and its edge is the one coupling certified
    edge = Onsager(n, 0.0, 2.0, -FOUR_PI * (n + 2.0))
    V, _, beta = edge.problem()
    assert V.beta_window(n) == (n + 2.0, n + 2.0)
    assert beta == n + 2.0
    assert certify(*edge.problem()) is None


@given(n=st.floats(0.0, 6.0), beta_stat=st.floats(-100.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_onsager_without_confinement_is_outside_off_the_edge(n, beta_stat):
    spec = Onsager(n, 0.0, 2.0, beta_stat)
    beta = spec.problem()[2]
    if beta == n + 2.0:
        assert not _refused(spec)
    elif beta != 0.0:
        assert _refused(spec)


@given(n_int=st.integers(0, 5),
       beta=st.floats(-6.0, 8.0),
       B=st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_css_window_matches_inequality(n_int, beta, B):
    # g = −B r² covers (−∞, 0), so the index identity reads 2·n_int > β − 2
    assert _refused(CSS(n_int, beta, B)) == (not 2.0 * n_int > beta - 2.0)


@given(n=st.floats(0.0, 6.0), beta_stat=st.floats(-100.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_onsager_window_matches_inequality(n, beta_stat):
    beta_eq = -beta_stat / FOUR_PI
    assert (_refused(Onsager(n, 1.0, 2.0, beta_stat))
            == (not n > beta_eq - 2.0))


@given(n=st.floats(0.0, 4.0), l=st.floats(-2.0, 1.0),
       beta=st.floats(-6.0, 8.0))
@settings(max_examples=60, deadline=None)
def test_sphere_window_matches_inequality(n, l, beta):
    # the window n + 2 + 2l < β < n + 2 is sufficient for β > 0, so no
    # necessary condition refuses inside it; for β < 0 finite mass also
    # needs β ≥ (n + 2 + 2l)/2; for l ≤ 0, sup g = 0 refuses β ≥ n + 2
    refused = _refused(SphericalOnsager(n, l, 0.3, beta))
    lo, hi = n + 2.0 + 2.0 * l, n + 2.0
    if lo < beta < hi:
        assert refused == (beta < 0.0 and beta < lo / 2.0)
    if l <= 0.0 and beta >= hi:
        assert refused


# ---------------------------------------------------------------------------
# solve_app


def test_css_winding_one_solves_with_unit_mass():
    sol = solve_app(CSS(n_int=1, beta=2.0, B=1.0))
    assert isinstance(sol, NormalizedSolution)
    assert sol.beta == pytest.approx(2.0, abs=1e-6)
    assert abs(sol.mass[-1] - 1.0) < 1e-6
    assert check_identities(sol).mass_residual < 1e-6
    assert sol.meta["application"] == "CSS"


def test_css_winding_zero_gets_nonexistence_verdict():
    # β = 2 is the edge of the n_int = 0 window, where the index identity
    # is strict: the solver's own verdict reaches the caller unwrapped
    with pytest.raises(NonexistenceError,
                       match=r"^no solution: the index identity needs beta - "
                             r"n - 2 strictly inside \(inf g, sup g\) = "
                             r"\(-inf, 0\), g = rV'/V; got 0$") as info:
        solve_app(CSS(n_int=0, beta=2.0, B=1.0))
    assert info.value.__cause__ is None


def test_spherical_onsager_inside_solves():
    sol = solve_app(SphericalOnsager(n=0.0, l=-1.0, gamma=0.0, beta=1.0))
    assert isinstance(sol, NormalizedSolution)
    assert sol.beta == pytest.approx(1.0, abs=1e-6)
    assert check_identities(sol).pokhozhaev_residual < 1e-6


def test_spherical_onsager_outside_is_immediate(monkeypatch):
    monkeypatch.setattr(shooting, "integrate_ivp", None)
    with pytest.raises(NonexistenceError,
                       match=r"^no solution: the index identity needs beta - "
                             r"n - 2 strictly inside \(inf g, sup g\) = "
                             r"\(-2, 0\), g = rV'/V; got 1$"):
        solve_app(SphericalOnsager(n=0.0, l=-1.0, gamma=0.0, beta=3.0))


def test_zero_coupling_is_refused_without_solving(monkeypatch):
    monkeypatch.setattr(shooting, "integrate_ivp", None)
    with pytest.raises(ValueError, match=r"nonzero: zero coupling "
                                         r"degenerates the problem$"):
        solve_app(Onsager(1.0, 1.0, 2.0, 0.0))


# ---------------------------------------------------------------------------
# CSS field rescaling


def test_css_scaling_law_b1_to_b4():
    out = css_scaling_check(1, 2.0, 1.0, 4.0)
    assert out["deviation"] < 1e-4
    assert out["trichotomy"] == "n+1=beta"


def test_css_scaling_same_field_is_deterministic():
    out = css_scaling_check(1, 2.0, 1.0, 1.0)
    assert out["deviation"] <= 1e-13


def test_css_scaling_survives_tolerance_refinement():
    loose = css_scaling_check(1, 2.0, 1.0, 4.0)["deviation"]
    tight = css_scaling_check(
        1, 2.0, 1.0, 4.0,
        controls=Controls(abs_tol=1e-12, rel_tol=1e-10,
                          tail_rel_tol=1e-10))["deviation"]
    # both sit at the resampling floor well below the acceptance bound;
    # refinement must not blow the deviation up
    assert tight <= max(4.0 * loose, 1e-8)
    assert tight < 1e-6


def test_css_scaling_strong_field_reports_boundary_trichotomy():
    out = css_scaling_check(1, 2.0, 1.0, 1e4)
    assert out["trichotomy"] == "n+1=beta"
    assert out["deviation"] < 1e-4


def test_css_trichotomy_classes():
    assert css_scaling_check(2, 2.0, 1.0, 2.0)["trichotomy"] == "n+1>beta"
    assert css_scaling_check(1, 2.5, 1.0, 2.0)["trichotomy"] == "n+1<beta"


def test_css_scaling_rejects_window_violation():
    with pytest.raises(NonexistenceError, match="index identity"):
        css_scaling_check(0, 2.5, 1.0, 4.0)


def test_css_scaling_rejects_bad_field():
    with pytest.raises(ValueError, match="positive"):
        css_scaling_check(1, 2.0, 0.0, 4.0)


# ---------------------------------------------------------------------------
# temperature scan


def test_scan_statuses_follow_window():
    rows = onsager_temperature_scan(
        1.0, 1.0, 2.0, [-FOUR_PI, FOUR_PI, -4 * FOUR_PI])
    assert [r.verdict for r in rows] == ["solved", "solved", "nonexistence"]
    assert rows[0].beta_eq == pytest.approx(1.0)
    assert rows[1].beta_eq == pytest.approx(-1.0)   # negative coupling
    assert math.isnan(rows[2].psi0)
    assert rows[2].error.startswith("no solution: the index identity ")
    assert not any(r.concentration for r in rows)


def test_scan_boundary_row():
    # β_eq = 2 = n + 2 is the window's edge; g = −2r² is not constant, so
    # the strict index identity refuses it
    (row,) = onsager_temperature_scan(0.0, 1.0, 2.0, [-2 * FOUR_PI])
    assert row.verdict == "nonexistence"
    assert "index identity" in row.error
    assert math.isnan(row.psi0)


def _mass_inner(n_sample):
    (row,) = onsager_temperature_scan(0.0, 1.0, 2.0, [-FOUR_PI],
                                      Controls(n_sample=n_sample))
    return row.mass_inner


def test_mass_inner_does_not_move_with_the_node_count():
    # regression: linear interpolation in log r moved mass_inner by up to
    # 4.3e-7 when the shooting grid halved; a Hermite step on the exact
    # slope dM/dlog r leaves it at round-off
    assert abs(_mass_inner(4096) - _mass_inner(8192)) < 1e-10


def test_scan_flags_concentration_under_strong_confinement():
    # tightening the background by ten orders shrinks the vortex core to
    # r ~ 1e-5 and lifts the center value past the default threshold
    (row,) = onsager_temperature_scan(0.0, 1e10, 2.0, [-FOUR_PI])
    assert row.verdict == "concentration"
    assert row.concentration
    assert row.psi0 > 20.0
    assert row.mass_inner > 0.99


def test_scan_empty_list_errors():
    with pytest.raises(ValueError, match="empty"):
        onsager_temperature_scan(1.0, 1.0, 2.0, [])


def test_scan_csv_round_trip(tmp_path):
    rows = onsager_temperature_scan(1.0, 1.0, 2.0, [-FOUR_PI, -4 * FOUR_PI])
    path = scan_rows_to_csv(rows, tmp_path / "scan.csv")
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == SCAN_CSV_HEADER
    assert len(records) == 3
    solved = records[1]
    assert solved[1] == "solved"
    assert float(solved[0]) == rows[0].param           # repr round-trips
    assert float(solved[2]) == rows[0].psi0
    assert float(solved[3]) == rows[0].mass_inner
    assert records[2][1] == "nonexistence"


# ---------------------------------------------------------------------------
# construction and validation


def test_css_rejects_bad_winding_and_field():
    with pytest.raises(ValueError, match="non-negative integer"):
        CSS(n_int=-1, beta=2.0, B=1.0)
    with pytest.raises(ValueError, match="non-negative integer"):
        CSS(n_int=1.5, beta=2.0, B=1.0)
    with pytest.raises(ValueError, match="B must be positive"):
        CSS(n_int=1, beta=2.0, B=0.0)


def test_flat_family_preset_solves_on_its_only_coupling():
    # V ≡ 1 at n = 0 solves only β_eq = 2, the edge of its window, where
    # g ≡ 0 meets the index identity
    sol = solve_app(Onsager(0.0, 0.0, 2.0, -2 * FOUR_PI))
    assert isinstance(sol, NormalizedSolution)
    assert sol.meta["application"] == "Onsager"
    assert check_identities(sol).mass_residual < 1e-6


def test_scan_row_records_a_solver_error(monkeypatch):
    def failing_solve(*args, **kwargs):
        raise ShootingError("integrator failure: step collapsed")

    monkeypatch.setattr(applications, "solve_for_beta", failing_solve)
    row = _scan_entry(1.0, 1.0, 2.0, -FOUR_PI, None)
    assert row.verdict == "error"
    assert row.error == "ShootingError: integrator failure: step collapsed"
    assert math.isnan(row.psi0)
