"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs whole at its smallest size (one round).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout; the smallest-size runs take about
one minute on two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import Weight  # noqa: E402

CONST = Weight("const", c=1.0)


def bubble(lam=1.0, n_fam=2.0, r_max=100.0, nodes=8192):
    """The closed-form β = 2·n_fam bubble on a log grid, as a solution."""
    r = np.geomspace(1e-8 * r_max, r_max, nodes)
    t = (lam * r) ** (2.0 * n_fam)
    mass = t / (1.0 + t)
    beta = 2.0 * n_fam
    return SimpleNamespace(
        r=r, beta=beta, n=2.0 * (n_fam - 1.0),
        psi=(-2.0 * np.log1p(t) + math.log(n_fam / math.pi)
             + 2.0 * n_fam * math.log(lam)),
        dpsi=-2.0 * beta * mass, meta={})


def test_exact_bubble_passes_every_identity():
    sol = bubble()
    assert checks.identity_problems(sol, CONST, beta_target=4.0) == []
    assert checks.bubble_gap_problems(sol, 2.0, 1.0) == []


def test_perturbed_profile_is_rejected():
    sol = bubble()
    sol.psi = sol.psi + 1e-3 * np.exp(-np.log(sol.r) ** 2)
    found = checks.identity_problems(sol, CONST)
    assert any("mass" in p for p in found)
    assert any("flux" in p for p in found)


def test_bubble_with_wrong_lambda_is_rejected():
    sol = bubble(lam=1.3)
    assert checks.bubble_gap_problems(sol, 2.0, 1.3) == []
    assert checks.bubble_gap_problems(sol, 2.0, 1.3 * 1.001)
    s_star = math.log(8.0 * 4.0) + 4.0 * math.log(1.3)
    assert checks.bubble_problems(sol, s_star) == []
    assert checks.bubble_problems(sol, s_star + 1e-3)


def test_missed_target_beta_is_rejected():
    assert checks.identity_problems(bubble(), CONST, beta_target=4.0 + 1e-7)


def test_wrong_verdict_is_rejected():
    beta_eqs = [1.0, 2.5]
    right = [SimpleNamespace(verdict="solved", psi0=-0.2),
             SimpleNamespace(verdict="nonexistence", psi0=math.nan)]
    assert checks.verdict_problems(right, 0.0, beta_eqs) == []
    wrong = [right[0], SimpleNamespace(verdict="solved", psi0=3.0)]
    assert checks.verdict_problems(wrong, 0.0, beta_eqs)
    refused = [SimpleNamespace(verdict="nonexistence", psi0=math.nan),
               right[1]]
    assert checks.verdict_problems(refused, 0.0, beta_eqs)


def test_css_law_and_ordering_reject_shifted_profiles():
    a, b = bubble(lam=1.0), bubble(lam=2.0)
    # bubbles obey the same rescaling: ψ_λ(r) = ψ_1(λ r) + 2 n_fam log λ
    assert checks.css_problems(a, b, 4.0, 1) == []
    b.psi = b.psi + 1e-3
    assert checks.css_problems(a, b, 4.0, 1)
    lo = SimpleNamespace(r=a.r, psi=a.psi, dpsi=a.dpsi, beta=-2.0)
    hi = SimpleNamespace(r=a.r, psi=a.psi - 1.0, dpsi=a.dpsi, beta=-1.0)
    assert checks.ordering_problems(lo, hi) == []
    hi.psi = a.psi + math.log(2.0) + 1e-3
    assert checks.ordering_problems(lo, hi)


def test_sweep_derivative_and_window_checks():
    step = 0.001
    entries = [SimpleNamespace(s=s, beta=0.5 + 0.1 * s, beta_prime=0.1,
                               error=None) for s in (-step, 0.0, step)]
    assert checks.sweep_problems(entries, [0.0], step, "positive") == []
    entries[1].beta_prime = 0.1 + 2e-4
    assert checks.sweep_problems(entries, [0.0], step, "positive")
    flat = [SimpleNamespace(s=s, beta=2.0 + 5e-6, beta_prime=0.0, error=None)
            for s in (-step, 0.0, step)]
    assert checks.sweep_problems(flat, [0.0], step, "flat", 2.0)
    assert checks.sweep_problems(entries[:2], [0.0], step, "positive")


def _run(workload, trace=0, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


@pytest.mark.parametrize("workload, tasks, may_fail", [
    ("shoot", 13, 1), ("scan", 5, 0), ("variational", 2, 0)])
def test_workload_runs_whole_at_smallest_size(workload, tasks, may_fail):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr[-2000:]
    assert result["attempted"] == tasks
    assert result["failed"] <= may_fail
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"]
                                               for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("variational", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"]
                                               for m in spec["per_layer"])
    metrics = result["metrics"]
    assert metrics["variational.minimize.calls"]["value"] >= 2
    assert metrics["verify.check_identities.calls"]["value"] == 2
    assert metrics["shooting.integrate_ivp.calls"]["value"] == 0


def test_without_the_program_it_fails_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("shoot", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
