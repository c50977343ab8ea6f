"""Closed-loop benchmark of the liouville package, one workload per run.

    python3 perfbench/run.py --workload {shoot,scan,variational} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One client in this process repeats
the workload's round of tasks until S seconds of tasks have run, always
finishing the round.  Every output is checked (see checks.py) between
tasks, outside the timed region.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics — the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  Trace spans are written to perfbench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


def import_program():
    """Import liouville from ./src; returns (module, seconds)."""
    if not (SRC / "liouville" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'liouville'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import liouville              # imports every module the tasks call
    seconds = time.perf_counter() - start
    if Path(liouville.__file__).resolve().parent != SRC / "liouville":
        raise SystemExit(f"imported liouville from {liouville.__file__}")
    return liouville, seconds


def set_up(workload, seed):
    """Everything before the first timed task: import, inputs, warm-up."""
    from workloads import WORKLOADS
    lv, import_s = import_program()
    tasks = WORKLOADS[workload][0](seed)
    # one tiny trajectory loads what scipy defers to its first call
    lv.shooting.integrate_ivp(lv.potentials.Constant(1.0), 2.0, 0.0,
                              lv.shooting.Controls(r_max=8.0, n_sample=64))
    return lv, import_s, tasks


def probe_setup_seconds(workload, seed):
    """Median wall time from process start to ready, over fresh processes."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready - start)
    return statistics.median(times)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0           # ru_maxrss is in KiB on Linux


class Client:
    """Runs whole rounds of tasks and keeps the tallies and check results."""

    def __init__(self, lv, tasks, workdir, round_check=None):
        self.lv = lv
        self.tasks = tasks
        self.workdir = workdir
        self.round_check = round_check
        self.task_seconds = []
        self.by_task = {}          # task name → its wall times
        self.loop_seconds = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = {}          # variational task → distinct solutions
        self._reported = set()

    def run_round(self):
        outs = {}
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for task in self.tasks:
            t0 = time.perf_counter()
            try:
                out = task.call(self.lv, self.workdir)
            except Exception as exc:   # an outcome of the request
                # drop the traceback: its frames hold the solver's dense
                # trajectories in a cycle that outlives the round
                out = exc.with_traceback(None)
                if task.name not in self._reported:
                    self._reported.add(task.name)
                    print(f"[{task.name}] {type(exc).__name__}: {exc}",
                          file=sys.stderr)
            self.task_seconds.append(time.perf_counter() - t0)
            self.by_task.setdefault(task.name, []).append(
                self.task_seconds[-1])
            outs[task.name] = out
        self.loop_seconds += time.perf_counter() - start
        self.cpu += cpu_seconds() - cpu0
        self.attempted += len(self.tasks)
        for task in self.tasks:
            try:
                failed, found = task.problems(self.lv, outs[task.name])
            except Exception as exc:
                failed, found = False, [f"{task.name}: check crashed: "
                                        f"{type(exc).__name__}: {exc}"]
            self.failed += failed
            self.problems += found
            out = outs[task.name]
            if task.variational and not isinstance(out, Exception):
                self.outputs.setdefault(task.name, {}).setdefault(
                    out.psi.tobytes(), out)
        if self.round_check is not None:
            self.problems += self.round_check(outs)

    def run(self, seconds):
        while True:
            self.run_round()
            if self.loop_seconds >= seconds:
                break


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("shoot", "scan", "variational"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    # the program runs with its own defaults
    os.environ.pop("LIOUVILLE_THREADS", None)
    sys.path.insert(0, str(HERE))

    if args.probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from workloads import WORKLOADS
    _, round_check, final_check = WORKLOADS[args.workload]
    lv, import_s, tasks = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install(lv)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(lv, tasks, workdir, round_check)
        client.run(args.seconds)
        rss = peak_rss_mb()
        if tracer:
            tracer.active = False     # the reference solves are not measured
        if final_check is not None:
            client.problems += final_check(lv, tasks, client.outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"loop: {client.attempted} tasks in {client.loop_seconds:.3f} s, "
          f"{client.attempted / client.loop_seconds:.4f} tasks/s",
          file=sys.stderr)
    for name, secs in client.by_task.items():
        print(f"task {name}: {len(secs)} x median "
              f"{statistics.median(secs):.3f} s", file=sys.stderr)
    for p in client.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tracer:
        from tracing import layer_metrics
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics(
                       tracer.spans, tracer.wrapped, import_s).items()}
    else:
        n = client.attempted
        metrics = {
            "setup_s": {"value": probe_setup_seconds(args.workload, args.seed),
                        "unit": "s"},
            "tasks_per_s": {"value": n / client.loop_seconds, "unit": "1/s"},
            "task_s_p50": {"value": statistics.median(client.task_seconds),
                           "unit": "s"},
            "cpu_s_per_task": {"value": client.cpu / n, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": not client.problems,
                      "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
