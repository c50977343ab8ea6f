"""Seeded inputs and tasks of the three workloads.

A workload is a fixed round of tasks drawn once from the seed; the client
repeats the round.  Each task calls the program through its module
attributes (so the traced run sees the wrappers), and returns the program's
output or the exception it raised.  Checks run between tasks, untimed.
"""

import math
import random

import checks
from checks import Weight

GAUSS = Weight("gauss", gamma=1.0, alpha=2.0)
CONST = Weight("const", c=1.0)
SPHERE = Weight("sphere", l=-1.0, gamma=0.0)
BRACKET = (-4.0, 4.0)      # the command line's default ψ(0) bracket


class Task:
    """One request: ``call(lv, workdir)`` and what a right answer looks like.

    expect is "solution" (identity checks, optional target β and bubble),
    "nonexistence" (must raise NonexistenceError), "sweep" or "rows".
    """

    def __init__(self, name, call, expect, weight=None, n=0.0,
                 beta_target=None, variational=False, bubble=False,
                 check=None):
        self.name = name
        self.call = call
        self.expect = expect
        self.weight = weight
        self.n = n
        self.beta_target = beta_target
        self.variational = variational
        self.bubble = bubble
        self.check = check

    def problems(self, lv, out):
        """(failed, problems) for one outcome of this task."""
        if self.expect == "nonexistence":
            if isinstance(out, lv.shooting.NonexistenceError):
                return False, []
            if isinstance(out, Exception):
                return True, []
            return False, [f"{self.name}: returned a solution where none "
                           f"exists (beta={out.beta!r})"]
        if isinstance(out, Exception):
            return True, []
        if self.expect == "solution":
            if not isinstance(out, lv.solution.NormalizedSolution):
                return False, [f"{self.name}: no solution ({out})"]
            found = checks.identity_problems(out, self.weight,
                                             self.variational,
                                             self.beta_target)
            if self.bubble:
                found += checks.bubble_problems(out, out.meta["s_star"])
            return False, [f"{self.name}: {p}" for p in found]
        return False, [f"{self.name}: {p}" for p in self.check(out)]


def _request(solve, name):
    """solve, then save, load and check_identities on the loaded copy."""
    def call(lv, workdir):
        out = solve(lv)
        if isinstance(out, tuple):                 # solve_app: (sol, report)
            out = out[0]
        if not isinstance(out, lv.solution.NormalizedSolution):
            return out
        path = out.save(workdir / f"{name}.json")
        loaded = lv.solution.NormalizedSolution.load(path)
        lv.verify.check_identities(loaded)
        return loaded
    return call


def _shoot(weight_of, n, beta, bracket=BRACKET):
    return lambda lv: lv.shooting.solve_for_beta(weight_of(lv), n, beta,
                                                 bracket)


def _gauss(lv):
    return lv.potentials.PowerGauss(n_pow=0.0, gamma=1.0, alpha_exp=2.0)


def _const(lv):
    return lv.potentials.Constant(1.0)


def _sphere(lv):
    return lv.potentials.Sphere(l=-1.0, gamma=0.0)


def _strata(rng, bands):
    return [rng.uniform(lo, hi) for lo, hi in bands]


def shoot_tasks(seed):
    rng = random.Random(seed)
    tasks = []
    # narrow bands: the root search's step count, and so the cost, depends
    # on β; each band keeps a seed's round close to every other seed's
    for i, beta in enumerate(_strata(rng, [(0.40, 0.50), (0.75, 0.85),
                                           (1.05, 1.15), (1.35, 1.45)])):
        name = f"gauss_pos{i}"
        tasks.append(Task(name, _request(_shoot(_gauss, 0.0, beta), name),
                          "solution", GAUSS, 0.0, beta))
    for i, beta in enumerate(_strata(rng, [(-1.45, -1.35), (-0.65, -0.55)])):
        name = f"gauss_neg{i}"
        tasks.append(Task(name, _request(_shoot(_gauss, 0.0, beta), name),
                          "solution", GAUSS, 0.0, beta))
    bracket = (rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0))
    tasks.append(Task("bubble_n2", _request(
        _shoot(_const, 2.0, 4.0, bracket), "bubble_n2"),
        "solution", CONST, 2.0, 4.0, bubble=True))
    # below β ≈ 0.8 the slow r^(-1-2β) tail of the mass integrand defeats
    # the solver's tail quadrature (see CHANGES.md); those solves are left out
    for i, beta in enumerate(_strata(rng, [(0.85, 0.95), (1.15, 1.25)])):
        name = f"sphere{i}"
        tasks.append(Task(name, _request(_shoot(_sphere, 0.0, beta), name),
                          "solution", SPHERE, 0.0, beta))
    for field in (1.0, 4.0):
        name = f"css_B{field:g}"
        solve = (lambda f: lambda lv: lv.applications.solve_app(
            lv.applications.CSS(n_int=1, beta=2.0, B=f)))(field)
        tasks.append(Task(name, _request(solve, name), "solution",
                          Weight("gauss", gamma=0.5 * field, alpha=2.0),
                          2.0, 2.0))
    beta = rng.uniform(2.0, 3.0)
    tasks.append(Task("gauss_above_window", _shoot_only(_gauss, 0.0, beta),
                      "nonexistence"))
    # the n_fam = 1 bubble family exists at every scale; the bracket is the
    # command line's default and does not depend on the seed
    tasks.append(Task("bubble_n0", _request(_shoot(_const, 0.0, 2.0),
                                            "bubble_n0"),
                      "solution", CONST, 0.0, 2.0, bubble=True))
    return tasks


def _shoot_only(weight_of, n, beta):
    solve = _shoot(weight_of, n, beta)
    return lambda lv, workdir: solve(lv)


def shoot_round_problems(outs):
    """Cross-task facts of one shoot round: β < 0 ordering and the CSS law."""
    found = []
    pair = [outs[k] for k in ("gauss_neg0", "gauss_neg1")]
    if all(hasattr(o, "psi") for o in pair):       # both are solutions
        found += checks.ordering_problems(*pair)
    css = [outs[k] for k in ("css_B1", "css_B4")]
    if all(hasattr(o, "psi") for o in css):
        found += checks.css_problems(css[0], css[1], 4.0, 1)
    return found


def _triplets(centres, step):
    return [c + d * step for c in centres for d in (-1, 0, 1)]


STEP = 0.001     # centred-difference error h²β‴/6 stays below 1e-5 up to s = 1 on σ = −1


def _sweep(name, weight_of, n, centres, sigma, kind, flat_beta=None):
    s_list = _triplets(centres, STEP)

    def call(lv, workdir):
        return lv.shooting.mass_map(weight_of(lv), n, s_list, sigma=sigma)

    def check(entries):
        return checks.sweep_problems(entries, centres, STEP, kind, flat_beta)
    return Task(name, call, "sweep", check=check)


def scan_tasks(seed):
    rng = random.Random(seed)
    tasks = [
        _sweep("gauss_pos", _gauss, 0.0,
               _strata(rng, [(-3.0, 0.0), (0.0, 4.0), (4.0, 10.0)]),
               1, "positive"),
        # σ = −1 trajectories blow up for s ≥ log 4; stay below it
        _sweep("gauss_neg", _gauss, 0.0,
               _strata(rng, [(-3.0, -1.0), (-0.5, 1.0)]), -1, "negative"),
        _sweep("const_n0", _const, 0.0,
               _strata(rng, [(-2.5, 0.0), (0.5, 3.5)]), 1, "flat", 2.0),
        _sweep("const_n2", _const, 2.0,
               _strata(rng, [(-2.5, 0.0), (0.5, 3.5)]), 1, "flat", 4.0),
    ]
    # Onsager n = 0: the window n > β_eq − 2 closes at β_eq = 2
    beta_eqs = _strata(rng, [(0.5, 1.0), (1.0, 1.5), (2.2, 2.6), (2.6, 3.0)])
    temps = [-4.0 * math.pi * b for b in beta_eqs]

    def onsager(lv, workdir):
        return lv.applications.onsager_temperature_scan(0.0, 1.0, 2.0, temps)

    tasks.append(Task("onsager", onsager, "rows",
                      check=lambda rows: checks.verdict_problems(
                          rows, 0.0, beta_eqs)))
    return tasks


def _variational(n, beta, name):
    def call(lv, workdir):
        sol, _ = lv.variational.variational_solve(_gauss(lv), n, beta)
        path = sol.save(workdir / f"{name}.json")
        loaded = lv.solution.NormalizedSolution.load(path)
        lv.verify.check_identities(loaded)
        return loaded
    return Task(name, call, "solution", GAUSS, n, beta, variational=True)


def variational_tasks(seed):
    rng = random.Random(seed)
    tasks = []
    # every solve runs L-BFGS-B to its iteration cap, so the cost hardly
    # depends on β and one input per family suffices
    for n, band in ((0.0, (0.3, 1.7)), (1.0, (2.1, 2.9))):
        beta = rng.uniform(*band)
        tasks.append(_variational(n, beta, f"n{n:g}"))
    return tasks


def agreement_problems(lv, tasks, outputs):
    """Variational outputs against a shooting solve of the same input."""
    found = []
    for task in tasks:
        ref = lv.shooting.solve_for_beta(_gauss(lv), task.n, task.beta_target,
                                         BRACKET)
        for out in outputs.get(task.name, {}).values():
            found += [f"{task.name}: {p}"
                      for p in checks.agreement_problems(out, ref)]
    return found


# name → (tasks from a seed, check of one round's outputs, check after the
# timed loop of the outputs kept by the client)
WORKLOADS = {
    "shoot": (shoot_tasks, shoot_round_problems, None),
    "scan": (scan_tasks, None, None),
    "variational": (variational_tasks, None, agreement_problems),
}
