"""Structural guards: solver-free modules and the traced benchmark's hooks."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liouville"
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
                                  "potentials"])
def test_module_imports_no_solver(name):
    # verify.py is an independent check of the solvers' output; the others
    # are layers the solvers build on
    assert not _imported_modules(PACKAGE / f"{name}.py") & SOLVERS


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
