"""Benchmark of the doubletop package: one command, every metric, checked.

    python3 bench/run.py --workload modular_ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory.  Workloads (see ``workloads.py``):

* ``modular_ladder``: ``modular-data`` through the CLI, in-process, for
  ising, fibonacci and vec_z4..vec_z7 (tube dim 7 to 49).  Category
  validation, tube, center, irreps and canonical order grow with dim^3.
* ``statesum_lens``: ``state_sum`` for ising, vec_z3 and fibonacci on the
  60 lens triangulations L(p, q), 5 <= p <= 12, within 5e6 colorings.
  Enumeration is the whole cost.
* ``two_route``: modular data, state sums against surgery, ~1.6k lens
  chains and 600 random forest plumbings with blow-up/blow-down round
  trips over vec_z2, vec_z3, fibonacci and ising: thousands of tiny
  calls, so fixed per-call cost shows here.

The seed orders the cases, and draws the framings and blow-up sites of
the ``two_route`` plumbings (their sizes are fixed); the package's own
center seed stays at its default, so a pass does the same work for every
seed.  One process, one thread of load, BLAS pinned to one thread, state
sums at the default ``workers=1``.

``--trace 0``: set-up runs SETUP_REPS times from a fresh import of the
package (``setup_s`` is the median); then passes over the case list
repeat while the next one is expected to end within ``--seconds`` (at
least one).  ``wall_s`` and ``cpu_s`` are medians over passes and
``peak_rss_mb`` is the process's peak resident memory up to the end of
the first pass.  Every pass is
checked; ``ok_ratio`` is the share of operations that passed, that is
1 - fail_ratio (the result line also gives ``failed`` of ``attempted``).

``--trace 1``: one set-up, one untraced pass and one traced pass.  Public
functions of each module are wrapped from outside the package
(``tracer.py``); the per-layer figures cover the set-up, the traced pass
and its checks, and ``trace.overhead_s`` is the traced pass's wall time
minus the untraced one's.

The last line of stdout is the JSON result; a fuller record (environment,
per-pass times, per-case digests and sizes, and the spans of a traced run)
is written to ``bench/out/``.  Exit code 2 if the package cannot be found.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "doubletop"
SETUP_REPS = 5


def fresh_import():
    """Import the package from scratch: drop every loaded submodule first."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    dt = importlib.import_module(PACKAGE)
    if not Path(dt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError("%s imported from %s, not from %s"
                          % (PACKAGE, dt.__file__, SRC))
    importlib.import_module(PACKAGE + ".cli")
    return dt


def timed_setup(workload, seed):
    t0 = time.perf_counter()
    dt = fresh_import()
    state = workload.setup(dt, seed)
    return time.perf_counter() - t0, dt, state


def timed_pass(workload, dt, state):
    w0, c0 = time.perf_counter(), time.process_time()
    outputs = workload.run_pass(dt, state)
    return time.perf_counter() - w0, time.process_time() - c0, outputs


def environment(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(BLAS_THREADS),
            "git_commit": git_commit(), "load": "1 process, 1 thread"}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summarize(records):
    """(attempted, failed) over one pass's records."""
    return len(records), sum(not r["ok"] for r in records)


def run_untraced(workload, args):
    setups = [timed_setup(workload, args.seed) for _ in range(SETUP_REPS)]
    _, dt, state = setups[-1]
    walls, cpus, first, failures, attempted = [], [], None, [], 0
    t_start = time.perf_counter()
    while True:
        wall, cpu, outputs = timed_pass(workload, dt, state)
        walls.append(wall)
        cpus.append(cpu)
        recs = workload.check(dt, state, outputs)
        if first is None:
            # later passes only add allocator history, so stop here
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            first = recs
        for r, r1 in zip(recs, first):
            if r["ok"] and r["digest"] != r1["digest"]:
                r["ok"], r["error"] = False, "output differs from pass 1"
        attempted += len(recs)
        failures += [r for r in recs if not r["ok"]]
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    failed = len(failures)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    detail = {"setup_s": [s[0] for s in setups], "pass_wall_s": walls,
              "pass_cpu_s": cpus, "cases": first, "failures": failures}
    return attempted, failed, metrics, detail


def run_traced(workload, args):
    from tracer import Tracer

    dt = fresh_import()
    tracer = Tracer()
    with tracer:
        state = workload.setup(dt, args.seed)
    wall_plain, _, plain = timed_pass(workload, dt, state)
    with tracer:
        first_pass = len(tracer.spans)
        wall_traced, _, outputs = timed_pass(workload, dt, state)
        pass_end = len(tracer.spans)
        recs = workload.check(dt, state, outputs)
    for r, d in zip(recs, workload.check(dt, state, plain)):
        if r["ok"] and r["digest"] != d["digest"]:
            r["ok"], r["error"] = False, "traced output differs from untraced"
    attempted, failed = summarize(recs)
    metrics = layer_metrics(tracer, wall_traced, wall_plain)
    pass_stats = tracer.layer_stats(first_pass, pass_end)
    detail = {"pass_wall_s": {"untraced": wall_plain, "traced": wall_traced},
              "pass_self_s": sum(st["self_s"] for st in pass_stats.values()),
              "tube_builds": tracer.tube_builds(), "cases": recs,
              "spans": tracer.dump()}
    return attempted, failed, metrics, detail


def layer_metrics(tracer, wall_traced, wall_plain):
    """The per-layer metrics of a traced run, by name."""
    from tracer import STATS

    metrics = {"%s.%s" % (layer, stat): st[stat]
               for layer, st in tracer.layer_stats().items() for stat in STATS}
    metrics.update(tracer.sizes())
    busy = metrics["statesum.state_sum.busy_s"]
    metrics["statesum.colorings_per_s"] = (
        metrics["statesum.colorings"] / busy if busy else 0.0)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    return metrics


def metric_units():
    """Units of every metric, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
            for m in spec[key]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # numpy is not imported yet
    os.environ.pop("DOUBLETOP_SEED", None)  # the package's default center seed

    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write("error: no %s package under %s; run from a source "
                         "checkout\n" % (PACKAGE, SRC))
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write("error: unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    runner = run_traced if args.trace else run_untraced
    attempted, failed, metrics, detail = runner(workload, args)

    units = metric_units()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    out = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                              args.trace))
    out.write_text(json.dumps({"environment": env, "result": result,
                               **detail}, indent=1, default=str))
    for k, v in metrics.items():
        print("%-58s %16.6f %s" % (k, v, units.get(k, "")))
    print("%d of %d operations failed; record in %s"
          % (failed, attempted, out.relative_to(ROOT)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
