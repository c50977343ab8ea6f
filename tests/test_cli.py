"""Command-line contract: exit codes, file artifacts, console formatting.

Exit codes are the load-bearing interface — 0 success, 2 nonexistence
verdict, 1 anything else — so every test drives `main(argv)` directly and
asserts on the returned status plus the artifacts it leaves behind.
"""

import csv
import json
import math

import numpy as np
import pytest

from liouville.cli import SCAN_HEADER, main
from liouville.solution import CSV_HEADER

GAUSS = "gauss:gamma=1,alpha=2"


def run(*argv):
    return main([str(a) for a in argv])


def test_solve_writes_verifiable_files(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run("solve", "--method", "shooting", "--beta", 1, "--n", 0,
               "--potential", GAUSS, "--out", out) == 0
    console = capsys.readouterr().out
    assert "beta=1 " in console and "mass_residual=" in console
    assert out.exists() and out.with_suffix(".csv").exists()
    with open(out.with_suffix(".csv"), newline="") as fh:
        assert next(csv.reader(fh)) == CSV_HEADER

    report_path = tmp_path / "report.json"
    assert run("verify", out, "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["mass_residual"] < 1e-6
    assert report["flux_residual"] < 1e-6 * (1.0 + abs(report["beta"]))
    assert report["log_lip_ok"] and report["grad_bound_ok"]


def test_solve_variational_backend(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run("solve", "--method", "variational", "--beta", 1,
               "--potential", GAUSS, "--out", out) == 0
    assert "r_max=12" in capsys.readouterr().out
    assert run("verify", out) == 0


@pytest.mark.parametrize("argv, printed", [
    (("--method", "variational", "--beta", 2,
      "--potential", "sphere:l=0,gamma=0"),
     "flags=existence_hypotheses_violated"),
    (("--method", "variational", "--beta", 0.9,
      "--potential", "sphere:l=-1,gamma=0"), None),
    (("--beta", 1, "--potential", GAUSS), None)],
    ids=["sphere-variational", "sphere-variational-inside", "gauss-default"])
def test_solve_prints_its_flags(tmp_path, capsys, argv, printed):
    # regression: a flagged profile was written with its flags in the JSON,
    # yet the console said nothing.  The constant weight at its threshold
    # β = 2 is flagged; the sphere inside its window is not
    assert run("solve", *argv, "--out", tmp_path / "s.json") == 0
    console = capsys.readouterr().out
    if printed is None:
        assert "flags=" not in console
    else:
        assert printed in console.split()


def _ring_table(tmp_path):
    """A ring of weight at r = 5 over a faint core, as a table file."""
    r = np.geomspace(1e-3, 200.0, 4000)
    path = tmp_path / "ring.csv"
    v = np.exp(-(r - 5.0) ** 2) + 1e-3 * np.exp(-r)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(r.tolist(), v.tolist()))
    path.write_text("r,V\n" + rows)
    return f"table={path}"


def test_variational_above_the_window_exits_one(tmp_path, capsys):
    # regression: the minimizer returned a "converged" profile above
    # β = n + 2 + n_pow, where no minimizer exists.  That rules out a
    # minimizer, not a solution: the ring's g = rV'/V reaches 12.2, so no
    # condition refuses β = 3.5 at n = 1, and this is no verdict
    out = tmp_path / "v.json"
    assert run("solve", "--method", "variational", "--beta", 3.5, "--n", 1,
               "--potential", _ring_table(tmp_path), "--out", out) == 1
    assert "n + 2 + n_pow = 3" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_ring_table_off_its_first_branch_is_not_found(tmp_path, capsys):
    # regression: the ring table at β = 9.406 exited 2 with no theorem
    # behind it: g reaches 12.2, so the index identity allows β < 14.2, and
    # β(s) peaks near 12.6 where the serial search never looks
    assert run("solve", "--beta", 9.406, "--potential", _ring_table(tmp_path),
               "--bracket", "-8,12") == 1
    assert "target beta = 9.406 not found" in capsys.readouterr().err


def test_find_reports_nonexistence_with_exit_two(capsys):
    assert run("solve", "--beta", 2.5, "--n", 0, "--potential", GAUSS) == 2
    err = capsys.readouterr().err
    assert "(inf g, sup g) = (-inf, 0)" in err


def test_solve_reports_nonexistence_with_exit_two(tmp_path, capsys):
    out = tmp_path / "x.json"
    for method in ("shooting", "variational"):
        assert run("solve", "--method", method, "--beta", 2.5,
                   "--potential", GAUSS, "--out", out) == 2
        assert "(inf g, sup g) = (-inf, 0)" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".csv").exists()


def test_find_success_prints_summary(capsys):
    assert run("solve", "--beta", 1, "--potential", GAUSS) == 0
    out = capsys.readouterr().out
    assert "s_star=" in out and "beta=1 " in out


def test_scan_csv_contract(tmp_path):
    out = tmp_path / "map.csv"
    args = ("scan", "--n", 0, "--potential", GAUSS,
            "--s-range", "-2,2", "--points", 5, "--out", out)
    assert run(*args) == 0
    first = out.read_bytes()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SCAN_HEADER
    assert len(rows) == 6
    betas = [float(r[1]) for r in rows[1:]]
    assert betas == sorted(betas)
    # full double precision in the file: repr round-trip adds no error
    assert repr(float(rows[1][1])) == rows[1][1]

    assert run(*args) == 0              # same inputs ⇒ byte-identical output
    assert out.read_bytes() == first


def test_scan_s_list_and_validation(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run("scan", "--potential", "const:c=1", "--s-list", "0,1",
               "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-6)
    capsys.readouterr()
    assert run("scan", "--potential", GAUSS, "--points", 1,
               "--out", out) == 1
    assert "at least 2" in capsys.readouterr().err
    # regression: an argument error exited 0 with a CSV of NaN rows
    bad = tmp_path / "bad.csv"
    assert run("scan", "--n", -1, "--s-list", "0,1", "--out", bad) == 1
    assert "non-negative" in capsys.readouterr().err
    assert not bad.exists()


def test_oracle_emission(tmp_path, capsys):
    bub = tmp_path / "bubble.json"
    assert run("oracle", "--kind", "bubble", "--lam", 2.0, "--n-fam", 1,
               "--out", bub) == 0
    assert "beta=2" in capsys.readouterr().out
    assert run("verify", bub) == 0
    out = json.loads(capsys.readouterr().out)
    # the emitted profile is exact; the only mass deficit is the closed-form
    # tail beyond the truncation radius, 1/(1 + λ²R²)
    tail = 1.0 / (1.0 + (2.0 * 40.0) ** 2)
    assert out["mass_residual"] == pytest.approx(tail, rel=1e-3)

    sharp = tmp_path / "sharp.json"
    assert run("oracle", "--kind", "sharp", "--alpha", math.exp(-1.0),
               "--out", sharp) == 0
    assert sharp.with_suffix(".csv").exists()


def test_app_exit_codes(tmp_path, capsys):
    out = tmp_path / "css.json"
    assert run("app", "css", "--n-int", 1, "--beta", 2, "--out", out) == 0
    assert out.exists()
    capsys.readouterr()

    assert run("app", "css", "--n-int", 0, "--beta", 2) == 2
    assert "index identity" in capsys.readouterr().err

    assert run("app", "sphere", "--l", -1, "--beta", 1) == 0
    assert "beta=1 " in capsys.readouterr().out

    assert run("app", "sphere", "--beta", 1) == 1      # missing --l
    assert "sphere needs" in capsys.readouterr().err


def test_app_onsager_scan_table(tmp_path, capsys):
    out = tmp_path / "temps.csv"
    temps = f"{-4 * math.pi},{-16 * math.pi}"
    assert run("app", "onsager", "--n", 1, "--scan", temps,
               "--out", out) == 0
    console = capsys.readouterr().out
    assert "-> solved" in console and "-> nonexistence" in console
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "verdict", "psi0", "mass_inner", "beta_eq"]
    assert rows[1][1] == "solved" and rows[2][1] == "nonexistence"


def test_plot_svg_deterministic(tmp_path, capsys):
    src = tmp_path / "g.json"
    assert run("solve", "--beta", 1, "--potential", GAUSS, "--out", src) == 0
    csv_file = src.with_suffix(".csv")
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run("plot", csv_file, "--y", "psi", "--log-x", "--out", svg_a) == 0
    assert run("plot", csv_file, "--y", "psi", "--log-x", "--out", svg_b) == 0
    body = svg_a.read_bytes()
    assert body == svg_b.read_bytes()
    assert body.startswith(b"<svg ") and b"<polyline" in body
    assert b"log10(r)" in body
    capsys.readouterr()

    assert run("plot", csv_file, "--y", "nope", "--out",
               tmp_path / "x.svg") == 1
    assert "missing column 'nope'" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    assert run("plot", empty, "--out", tmp_path / "e.svg") == 1
    assert "no rows" in capsys.readouterr().err


def test_config_file_supplies_tolerances(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("abs_tol=1e-11\nrel_tol=1e-9\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 0
    assert "beta=1 " in capsys.readouterr().out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key (dash for underscore) would otherwise be ignored silently
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("root-tol=1e-30\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 1
    assert "'root-tol'" in capsys.readouterr().err
    # the truncation radius is no setting: every trajectory runs until its
    # tail test passes
    cfg.write_text("r_max=40\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 1
    assert "unknown key 'r_max'" in capsys.readouterr().err


def test_config_file_skips_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "commented.cfg"
    cfg.write_text("# tolerances\n\n  abs_tol = 1e-11  \n# end\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 0
    assert "beta=1 " in capsys.readouterr().out


def test_config_file_malformed_line_names_its_location(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("abs_tol=1e-11\nnot a pair\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 1
    assert "run.cfg:2" in capsys.readouterr().err


def test_config_file_rejects_non_numeric_values(tmp_path, capsys):
    cfg = tmp_path / "words.cfg"
    cfg.write_text("rel_tol=tight\n")
    assert run("solve", "--beta", 1, "--potential", GAUSS,
               "--config", cfg) == 1
    assert "'tight'" in capsys.readouterr().err


def test_onsager_without_confinement_is_nonexistence(capsys):
    # --gamma 0 makes V ≡ 1, whose only coupling is β_eq = n + 2 = 2; at
    # β_eq = 1 finite mass alone exits 2
    assert run("app", "onsager", "--gamma", 0, "--beta-stat",
               -4 * math.pi) == 2
    err = capsys.readouterr().err
    assert "finite mass needs beta > (n + 2 + p)/2 = 1" in err


def test_usage_errors_exit_one(capsys):
    assert run("solve", "--beta", 1, "--potential", "bogus:x=1",
               "--out", "x.json") == 1
    assert "unknown potential name" in capsys.readouterr().err
    assert run("no-such-command") == 1
    assert run("solve", "--no-such-flag") == 1
    # the Gaussian weight passes certify at beta = -1; variational needs
    # beta > 0
    assert run("solve", "--method", "variational", "--beta", -1,
               "--potential", "gauss:gamma=1,alpha=2", "--out", "x.json") == 1
    assert "the variational backend needs beta > 0" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    listed = capsys.readouterr().out
    for name in ("solve", "scan", "verify", "oracle", "app", "plot"):
        assert name in listed
    assert "find" not in listed


def test_shooting_radius_is_a_usage_error(tmp_path, capsys):
    # regression: --radius stopped every trajectory at r = 8 whether or not
    # its tail test passed, and wrote a profile with a mass residual of 0.028.
    # Both backends now grow their truncation radius by the tail test, and
    # solve has no --radius option
    out = tmp_path / "s.json"
    for method in ("shooting", "variational"):
        assert run("solve", "--method", method, "--beta", 0.9,
                   "--potential", "sphere:l=-1,gamma=0", "--radius", 8,
                   "--out", out) == 1
        assert "--radius" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--abs-tol", "1e-6"), ("--rel-tol", "1e-6"), ("--config", None),
    ("--bracket", "1,2")])
def test_variational_refuses_shooting_tolerances(tmp_path, capsys, flag,
                                                  value):
    # regression: the variational backend parsed these and then ignored
    # them; a config with tail_rel_tol=1e-3 exited 0 and stored 1e-8
    if value is None:
        value = tmp_path / "c.cfg"
        value.write_text("tail_rel_tol=1e-3\n")
    out = tmp_path / "v.json"
    assert run("solve", "--method", "variational", "--beta", 1,
               "--potential", GAUSS, flag, value, "--out", out) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_variational_mass_no_disk_holds_exits_one(tmp_path, capsys):
    # regression: the ψ(0) doubling rule wrote "solutions" whose mass no
    # disk held, and exited 0.  On the sphere weight at β = 0.1 the tail
    # falls like R^{−0.2}: no condition refuses it, and no disk holds it
    out = tmp_path / "c.json"
    assert run("solve", "--method", "variational", "--beta", 0.1,
               "--potential", "sphere:l=-1,gamma=0", "--out", out) == 1
    assert "mass did not converge" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_zero_coupling_exits_one(tmp_path, capsys):
    # regression: the boundary verdict for β_eq = 0 exited 0 with no
    # solution; it is neither a solution nor a nonexistence verdict
    out = tmp_path / "z.json"
    assert run("app", "onsager", "--beta-stat", 0, "--out", out) == 1
    assert "zero coupling" in capsys.readouterr().err
    assert not out.exists()


def test_zero_temperature_in_a_scan_exits_one(tmp_path, capsys):
    # a zero temperature is zero coupling, refused as in a single solve
    out = tmp_path / "t.csv"
    assert run("app", "onsager", "--scan=0,-12.566", "--out", out) == 1
    assert "zero coupling" in capsys.readouterr().err
    assert not out.exists()


def test_flat_family_app_exits_zero(capsys):
    # --gamma 0 makes V ≡ 1, whose only coupling β_eq = 2 is the window edge
    assert run("app", "onsager", "--gamma", 0,
               f"--beta-stat={-8 * math.pi!r}") == 0
    assert "beta=2 " in capsys.readouterr().out


@pytest.mark.parametrize("argv, residual", [
    (("app", "sphere", "--l", -1, "--gamma", 1, "--beta", 0.05), 0.035),
    (("solve", "--beta", 0.05, "--potential", "sphere:l=-1,gamma=1"), 0.035),
    (("app", "sphere", "--l", -1.5, "--beta", -0.4), 5.5e-3),
    (("app", "sphere", "--l", -2.5, "--beta", -1.5), 8.1e-3)],
    ids=["sphere-gamma1", "solve-sphere-gamma1", "sphere-1.5", "sphere-2.5"])
def test_truncated_tail_fails_the_gate(tmp_path, capsys, argv, residual):
    # regression: these slow tails stop at the 10⁶ cap with the mass still
    # arriving; no condition refuses them, check_identities did, yet the
    # command printed the profile and exited 0
    out = tmp_path / "s.json"
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    found = float(err.split("pokhozhaev_residual = ")[1].split()[0])
    assert found == pytest.approx(residual, rel=0.05)
    assert "exceeds its bound 0.0001" in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("argv, condition", [
    (("--beta", -0.1, "--potential", "sphere:l=-1,gamma=1"),
     "finite mass needs beta >= (n + 2 + p)/2 = 0"),
    (("--beta", 0.95, "--potential", "sphere:l=-0.5,gamma=0"),
     "(inf g, sup g) = (-1, 0)")], ids=["mass", "index"])
def test_certified_inputs_that_exited_zero_exit_two(capsys, argv, condition):
    # regression: both printed a profile that check_identities rejects and
    # exited 0 (mass residual 1.98; Pokhozhaev residual 0.050)
    assert run("solve", *argv) == 2
    assert condition in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (("solve", "--beta", 1, "--bracket", "1"), "--bracket"),
    (("scan", "--s-list", "a,b"), "--s-list"),
    (("app", "onsager", "--scan", "x"), "--scan"),
], ids=["bracket", "s-list", "scan"])
def test_malformed_number_list_exits_one(tmp_path, capsys, argv, option):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", out) == 1
    assert f"{option} wants" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


# (argv, exit code, text the error names); "{out}" is a scratch output path
_OUT_OF_DOMAIN = [
    (("solve", "--beta", "nan", "--potential", GAUSS), 1,
     "beta must be finite, got nan"),
    (("solve", "--beta", "inf", "--potential", GAUSS), 1,
     "beta must be finite, got inf"),
    (("solve", "--beta", "-inf", "--potential", GAUSS), 1,
     "beta must be finite, got -inf"),
    (("solve", "--method", "variational", "--beta", "nan",
      "--potential", GAUSS), 1, "beta must be finite, got nan"),
    (("solve", "--method", "variational", "--beta", "inf",
      "--potential", GAUSS), 1, "beta must be finite, got inf"),
    (("solve", "--method", "variational", "--beta", "-inf",
      "--potential", GAUSS), 1, "beta must be finite, got -inf"),
    (("solve", "--beta", 1, "--n", "nan", "--potential", GAUSS), 1,
     "n must be finite and non-negative, got nan"),
    (("solve", "--beta", 1, "--n", "inf", "--potential", GAUSS), 1,
     "n must be finite and non-negative, got inf"),
    (("solve", "--beta", 1, "--n", -1, "--potential", GAUSS), 1,
     "n must be finite and non-negative, got -1"),
    (("solve", "--beta", 1, "--n", -3, "--potential", GAUSS), 1,
     "n must be finite and non-negative, got -3"),
    (("solve", "--beta", 0.5, "--n", -1, "--potential", GAUSS), 1,
     "n must be finite and non-negative, got -1"),
    (("solve", "--method", "variational", "--beta", 0.5, "--n", -1,
      "--potential", GAUSS), 1, "n must be finite and non-negative, got -1"),
    (("solve", "--beta", 1, "--potential", "gauss:gamma=nan"), 1,
     "weight parameter gamma must be finite, got nan"),
    (("solve", "--beta", 1, "--potential", "const:c=inf"), 1,
     "weight parameter c must be finite, got inf"),
    (("solve", "--beta", 1, "--potential", "sphere:l=nan"), 1,
     "weight parameter l must be finite, got nan"),
    (("app", "sphere", "--l", "nan", "--beta", 1), 1,
     "weight parameter l must be finite, got nan"),
    (("app", "css", "--n-int", 1, "--beta", "nan"), 1,
     "beta must be finite, got nan"),
    (("app", "onsager", "--beta-stat", "nan"), 1,
     "beta must be finite, got nan"),
    (("app", "onsager", "--beta-stat", -6, "--gamma", "nan"), 1,
     "weight parameter gamma must be finite, got nan"),
    (("scan", "--s-list", "nan,0", "--out", "{out}"), 1,
     "center value s = nan is not finite"),
    (("scan", "--n", "nan", "--out", "{out}"), 1,
     "n must be finite and non-negative, got nan"),
    # one (V, n, β) gets one exit code on both backends
    (("solve", "--beta", -0.1, "--potential", "sphere:l=-1,gamma=1"), 2,
     "finite mass needs beta >= (n + 2 + p)/2 = 0"),
    (("solve", "--method", "variational", "--beta", -0.1,
      "--potential", "sphere:l=-1,gamma=1"), 2,
     "finite mass needs beta >= (n + 2 + p)/2 = 0"),
]


@pytest.mark.parametrize("argv, code, named", _OUT_OF_DOMAIN,
                         ids=[" ".join(map(str, a)).replace(" --out {out}", "")
                              for a, _, _ in _OUT_OF_DOMAIN])
def test_out_of_domain_input_is_refused_before_any_verdict(tmp_path, capsys,
                                                           argv, code, named):
    # regression: the non-finite and negative inputs exited 2 with a
    # "no solution" verdict that printed nan or inf, or exited 0 or 1
    # depending on the backend; the variational backend refused the last
    # input as a usage error (exit 1) before reading the certificate
    out = tmp_path / "scan.csv"
    assert run(*(str(out) if a == "{out}" else a for a in argv)) == code
    err = capsys.readouterr().err
    assert named in err
    assert ("no solution" in err) == (code == 2)
    assert not out.exists()
