"""Structural guards: solver-free modules, no unused imports or settings, no
branching on the weight's type, and the traced benchmark's hooks and output."""

import ast
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from liouville.potentials import LogSingular, Potential
from liouville.shooting import Controls

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liouville"
TESTS = ROOT / "tests"
SOLVERS = {"shooting", "variational"}


def _imported_modules(path):
    """Last dotted component of every module a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            if node.level or node.module == "liouville":
                found |= {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("name", ["verify", "grids", "solution",
                                  "potentials", "oracles"])
def test_module_imports_no_solver(name):
    # verify.py is an independent check of the solvers' output, oracles.py
    # the closed forms the tests compare them with; the others are layers
    # the solvers build on
    assert not _imported_modules(PACKAGE / f"{name}.py") & SOLVERS


def test_weights_are_not_probed_by_quadrature():
    # every integrability verdict follows from the exponents a weight
    # states; a numerical probe of ∫ rⁿV r^k dr gave wrong verdicts
    assert "integrate" not in _imported_modules(PACKAGE / "potentials.py")


@pytest.mark.parametrize("module", ["__init__"] + sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is gone breaks
    # `from liouville import *` and misleads readers of the export list
    name = "liouville" if module == "__init__" else f"liouville.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _unused_imports(path):
    """Names a source file imports but never reads; a name listed in
    ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py"))
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_has_no_unused_import(path):
    # an import that nothing reads is usually left behind by a deletion
    assert _unused_imports(path) == []


def _unread_constants(path):
    """Module-level UPPER_CASE names a source file assigns but never reads;
    a name listed in ``__all__`` counts as read (an export)."""
    tree = ast.parse(path.read_text())
    assigned = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            name = getattr(target, "id", "")
            if name.lstrip("_").isupper():
                assigned[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in assigned.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_has_no_unread_constant(path):
    # a setting that nothing reads is usually left behind by a deletion
    assert _unread_constants(path) == []


def _attribute_reads(path, skip_class):
    """Attribute names a source file reads, outside the class ``skip_class``."""
    reads, stack = set(), [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def test_every_control_is_read_and_every_config_key_is_a_control():
    # a Controls field that nothing reads is a knob left behind by a
    # deletion.  A field counts as read when its name is read as an
    # attribute anywhere in the package outside the class.  The command
    # line has no config keys: it runs at the default Controls, where the
    # gate bounds were measured, so it builds none, and no option of it is
    # named after a field
    fields = {f.name for f in dataclasses.fields(Controls)}
    reads = set().union(*(_attribute_reads(path, "Controls")
                          for path in PACKAGE.glob("*.py")))
    assert sorted(fields - reads) == []
    built, options = [], []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "Controls":
            built.append(node.lineno)
        elif name == "option":
            for arg in node.args:
                text = getattr(arg, "value", None)
                if (isinstance(text, str) and
                        text.lstrip("-").replace("-", "_") in fields):
                    options.append(text)
    assert built == [] and options == []


WEIGHT_CLASSES = {"Constant", "PowerGauss", "Sphere", "LogSingular",
                  "Tabulated"}
# shooting refuses the log-singular weight, which has no finite center value
ALLOWED_WEIGHT_TESTS = {("shooting", "integrate_ivp", "LogSingular")}


def _weight_type_tests(path):
    """(enclosing function, class) of every isinstance call on a weight class."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = getattr(kind, "id", getattr(kind, "attr", None))
                if name in WEIGHT_CLASSES:
                    found.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_module_tests_a_weight_type():
    # per-weight facts are attributes of the Potential classes; a module that
    # branches on the weight's type must be edited for every new weight
    found = [(path.stem, func, cls) for path in sorted(PACKAGE.glob("*.py"))
             for func, cls in _weight_type_tests(path)]
    assert [site for site in found if site not in ALLOWED_WEIGHT_TESTS] == []


def test_every_shootable_weight_bounds_its_smooth_factor():
    # the base class's bound of 0 switches shooting's blow-up certificate
    # off; a new weight that forgot the method would lose it silently
    catalog = [cls for cls in Potential.__subclasses__()
               if cls.__module__ == Potential.__module__]
    assert sorted(cls.__name__ for cls in catalog) == sorted(WEIGHT_CLASSES)
    assert [cls.__name__ for cls in catalog if cls is not LogSingular
            and cls.smooth_lower_bound is Potential.smooth_lower_bound] == []


def _nonexistence_sites(path):
    """(function, backed) for each NonexistenceError a source file builds;
    backed when its one argument is a name that the same function assigns
    from a ``certify`` call."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        certified = {target.id for node in ast.walk(func)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Call)
                     and getattr(node.value.func, "id", None) == "certify"
                     for target in node.targets
                     if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "NonexistenceError"):
                found.append((func.name, len(node.args) == 1
                              and not node.keywords
                              and getattr(node.args[0], "id", None)
                              in certified))
    return found


def test_every_nonexistence_reads_the_certificate():
    # exit 2 needs a theorem: a NonexistenceError carries the text of the
    # condition that certify found violated, and nothing else
    sites = {(path.stem, func, backed)
             for path in sorted(PACKAGE.glob("*.py"))
             for func, backed in _nonexistence_sites(path)}
    assert sites == {("shooting", "solve_for_beta", True),
                     ("variational", "variational_solve", True)}


TRACED_METRICS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import liouville
from tracing import Tracer, layer_metrics
tracer = Tracer().install(liouville)
metrics = layer_metrics([], tracer.wrapped, 0.0)
print(json.dumps(sorted(k for k, (v, _) in metrics.items() if v is None)))
"""


def test_traced_benchmark_finds_every_layer():
    # a layer the tracer cannot find is reported as null, which makes the
    # benchmark's output malformed
    out = subprocess.run(
        [sys.executable, "-c", TRACED_METRICS, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT)
    assert json.loads(out.stdout) == []


@pytest.mark.parametrize("workload", ["shoot", "scan", "variational"])
def test_traced_benchmark_round_reports_every_metric(tmp_path, workload):
    # one traced round of the benchmark, end to end, in a copy of the
    # checkout so that its output directory stays untouched
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=tmp_path)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert [name for name, m in metrics.items() if m["value"] is None] == []
