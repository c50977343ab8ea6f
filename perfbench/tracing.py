"""Traced run: wrappers around the program's layers, spans in memory.

``Tracer.install`` wraps every public function of the traced modules, the
methods that do a layer's work (``Potential.value_and_derivative``,
``NormalizedSolution.save`` and ``.load``) and the scipy functions as they
are bound in ``liouville.shooting`` and ``liouville.variational``.  Each
call becomes a span (name, start, end, parent); a span opened in a worker
thread with no open span of its own takes the client thread's innermost
open span as its parent.  Metrics are derived from the spans after the run;
a metric whose wrapper found nothing to wrap is reported as absent (None).
"""

import functools
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

MODULES = ("shooting", "variational", "verify", "solution", "potentials",
           "applications")

# (span name, module, attribute) of the scipy bindings
SCIPY = (
    ("shooting.solve_ivp", "shooting", "solve_ivp"),
    ("shooting.tail_quad", "shooting", "quad"),
    ("variational.lbfgs", "variational", "scipy_minimize"),
    ("variational.solve_banded", "variational", "solve_banded"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "error", "data")

    def __init__(self, span_id, name, start, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.error = None
        self.data = None


def _solve_ivp_data(result, args, kwargs):
    return {"nfev": int(result.nfev)}


def _lbfgs_data(result, args, kwargs):
    return {"nit": int(result.nit), "nfev": int(result.nfev),
            "converged": int(bool(result.success))}


def _minimize_data(result, args, kwargs):
    return {"iterations": int(result.iterations)}


def _mass_map_data(result, args, kwargs):
    return {"points": len(result)}


def _save_data(result, args, kwargs):
    path = Path(result)
    return {"bytes": path.stat().st_size + path.with_suffix(".csv").stat().st_size}


DATA = {
    "shooting.solve_ivp": _solve_ivp_data,
    "variational.lbfgs": _lbfgs_data,
    "variational.minimize": _minimize_data,
    "shooting.mass_map": _mass_map_data,
    "solution.save": _save_data,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.wrapped = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = self._stack()
        self.active = True

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        data = DATA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._client[-1] if tracer._client else None)
            span = Span(next(tracer._ids), name, time.perf_counter(),
                        parent.id if parent is not None else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if data is not None:
                span.data = data(result, args, kwargs)
            return result
        self.wrapped.add(name)
        return wrapper

    def install(self, lv):
        """Wrap the layers of the imported package ``lv``; returns self."""
        modules = [getattr(lv, m) for m in MODULES if hasattr(lv, m)]
        every = [lv] + [m for m in vars(lv).values()
                        if isinstance(m, types.ModuleType)]
        replace = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    replace[obj] = self._wrap(f"{short}.{attr}", obj)
        # a function re-exported by another module keeps the name it has
        # there when that is the layer it belongs to (pokhozhaev_P)
        verify = getattr(lv, "verify", None)
        if verify is not None and hasattr(verify, "pokhozhaev_P"):
            fn = verify.pokhozhaev_P
            replace[fn] = self._wrap("verify.pokhozhaev_P", fn)
        for name, mod_name, attr in SCIPY:
            mod = getattr(lv, mod_name, None)
            if mod is not None and hasattr(mod, attr):
                fn = getattr(mod, attr)
                setattr(mod, attr, self._wrap(name, fn))
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    setattr(mod, attr, replace[obj])
        self._wrap_method(lv, "potentials", "Potential",
                          "value_and_derivative",
                          "potentials.value_and_derivative")
        self._wrap_method(lv, "solution", "NormalizedSolution", "save",
                          "solution.save")
        self._wrap_method(lv, "solution", "NormalizedSolution", "load",
                          "solution.load")
        return self

    def _wrap_method(self, lv, mod_name, cls_name, attr, name):
        cls = getattr(getattr(lv, mod_name, None), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, self._wrap(name, raw))

    def write(self, path):
        """Write the spans as JSON lines (id, name, start, end, parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                rec = {"id": s.id, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent}
                if s.error:
                    rec["error"] = s.error
                if s.data:
                    rec.update(s.data)
                fh.write(json.dumps(rec) + "\n")


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Metrics:
    """Per-layer metrics from a list of spans."""

    def __init__(self, spans, wrapped):
        self.spans = spans
        self.wrapped = wrapped
        self.by_id = {s.id: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def has(self, *names):
        return all(n in self.wrapped for n in names)

    def calls(self, name):
        return len(self.by_name[name]) if self.has(name) else None

    def seconds(self, name):
        if not self.has(name):
            return None
        return sum(s.end - s.start for s in self.by_name[name])

    def total(self, name, key):
        if not self.has(name):
            return None
        return sum((s.data or {}).get(key, 0) for s in self.by_name[name])

    def under(self, name, ancestor):
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        out = []
        for s in self.by_name[name]:
            p = self.by_id.get(s.parent)
            while p is not None and p.name != ancestor:
                p = self.by_id.get(p.parent)
            if p is not None:
                out.append(s)
        return out

    def self_seconds(self, name):
        if not self.has(name):
            return None
        total = 0.0
        for s in self.by_name[name]:
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in self.children[s.id]]
            total += (s.end - s.start) - _union(
                [k for k in kids if k[1] > k[0]])
        return total


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(spans, wrapped, import_s):
    """name → (value, unit) for every per-layer metric of the benchmark."""
    m = Metrics(spans, wrapped)
    ivp, sfb = "shooting.integrate_ivp", "shooting.solve_for_beta"
    trajectories = (len(m.under(ivp, sfb)) if m.has(ivp, sfb) else None)
    solves = (sum(1 for s in m.by_name[sfb] if s.error is None)
              if m.has(sfb) else None)
    sweep_traj = (sum(s.end - s.start for s in m.under(ivp, "shooting.mass_map"))
                  if m.has(ivp, "shooting.mass_map") else None)
    minimize_its = m.total("variational.minimize", "iterations")
    lbfgs_nit = m.total("variational.lbfgs", "nit")
    newton_steps = (minimize_its - lbfgs_nit
                    if None not in (minimize_its, lbfgs_nit) else None)
    diverged = (sum(1 for s in m.by_name[ivp] if s.error == "MassDivergence")
                if m.has(ivp) else None)
    out = {
        "import.s": (import_s, "s"),
        "shooting.integrate_ivp.calls": (m.calls(ivp), "count"),
        "shooting.integrate_ivp.diverged": (diverged, "count"),
        "shooting.integrate_ivp.s": (m.seconds(ivp), "s"),
        "shooting.integrate_ivp.s_per_call": (
            _ratio(m.seconds(ivp), m.calls(ivp)), "s"),
        "shooting.trajectories_per_solve": (
            _ratio(trajectories, m.calls(sfb)), "count"),
        "shooting.root.useful_ratio": (_ratio(solves, trajectories), "ratio"),
        "shooting.solve_ivp.calls": (m.calls("shooting.solve_ivp"), "count"),
        "shooting.solve_ivp.s": (m.seconds("shooting.solve_ivp"), "s"),
        "shooting.rhs_evals": (m.total("shooting.solve_ivp", "nfev"), "count"),
        "shooting.tail_quad.calls": (m.calls("shooting.tail_quad"), "count"),
        "shooting.tail_quad.s": (m.seconds("shooting.tail_quad"), "s"),
        "shooting.sampling.s": (m.self_seconds(ivp), "s"),
        "shooting.solve_for_beta.s": (m.seconds(sfb), "s"),
        "applications.solve_app.s": (m.seconds("applications.solve_app"), "s"),
        "shooting.mass_map.s": (m.seconds("shooting.mass_map"), "s"),
        "shooting.mass_map.points": (m.total("shooting.mass_map", "points"),
                                     "count"),
        "shooting.mass_map.overlap": (
            _ratio(sweep_traj, m.seconds("shooting.mass_map")), "ratio"),
        "applications.onsager_temperature_scan.s": (
            m.seconds("applications.onsager_temperature_scan"), "s"),
        "variational.variational_solve.s": (
            m.seconds("variational.variational_solve"), "s"),
        "variational.minimize.calls": (m.calls("variational.minimize"), "count"),
        "variational.minimize.s": (m.seconds("variational.minimize"), "s"),
        "variational.minimize.iterations": (minimize_its, "count"),
        "variational.lbfgs.s": (m.seconds("variational.lbfgs"), "s"),
        "variational.lbfgs.nit": (lbfgs_nit, "count"),
        "variational.lbfgs.nfev": (m.total("variational.lbfgs", "nfev"), "count"),
        "variational.lbfgs.converged": (
            m.total("variational.lbfgs", "converged"), "count"),
        "variational.newton.steps": (newton_steps, "count"),
        "variational.solve_banded.calls": (
            m.calls("variational.solve_banded"), "count"),
        "variational.solve_banded.s": (m.seconds("variational.solve_banded"), "s"),
        "variational.newton.useful_ratio": (
            _ratio(newton_steps, m.calls("variational.solve_banded")), "ratio"),
        "variational.build_gauge.s": (m.seconds("variational.build_gauge"), "s"),
        "variational.to_solution.s": (m.seconds("variational.to_solution"), "s"),
        "potentials.check_conditions.s": (
            m.seconds("potentials.check_conditions"), "s"),
        "verify.check_identities.calls": (m.calls("verify.check_identities"),
                                          "count"),
        "verify.check_identities.s": (m.seconds("verify.check_identities"), "s"),
        "verify.pokhozhaev_P.s": (m.seconds("verify.pokhozhaev_P"), "s"),
        "potentials.value_and_derivative.s": (
            m.seconds("potentials.value_and_derivative"), "s"),
        "solution.save.s": (m.seconds("solution.save"), "s"),
        "solution.load.s": (m.seconds("solution.load"), "s"),
        "solution.bytes_written": (m.total("solution.save", "bytes"), "B"),
    }
    return out
