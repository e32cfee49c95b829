"""Closed-loop benchmark of the latticevc `scan` and `ssp` verbs.

    python3 perfbench/run.py --workload scan|ssp-brute|ssp-auto \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory; without it
the command exits with status 2.  One client in one process drives the
verbs in-process through ``latticevc.cli.run(argv, out=StringIO)`` with
``--jobs 1``; each op starts when the previous one has finished.  Ops run in
whole passes over a fixed op mix (see ops.py), each after a fresh set-up
(import, input files written, one warm-up op).  Passes go on while the next
is expected to end within ``--seconds``, and every op's exit status and
stdout are checked.

End-to-end metrics (``--trace 0``); latency and throughput are read at the
slow end of a run's passes.  On a 2-CPU shared virtual machine the host runs
the benchmark up to 1.6 times faster for spells of seconds to minutes; a
median over passes moves with the share of a run such a spell covers, while
the 90th percentile of times (10th of rates) stays put until a spell covers
nine tenths of the run.
  setup_s         median of the set-up times, one before each pass
  op_p50_s        90th percentile over passes of the pass's median op time
  lattices_per_s  10th percentile over passes of lattices per second of op
                  time (300 per scan op, 1 per ssp op)
  decided_ratio   lattices decided (CertifiedSSP or Violated) over lattices
                  attempted; pool (c) of ssp-brute is Inconclusive today
  peak_rss_mib    peak resident set size of the process
``failed`` counts ops with a wrong exit status or stdout, an exception, a
replay that disagrees with its verb, or output that differs at --jobs 2.

Workloads:
  scan       `scan --max-n 8`: 300 lattices per op, nearly all time in
             search (enumeration and canonical forms), little Mobius work.
  ssp-brute  `ssp --strategy brute` on 40 seeded 8-element lattices, 5
             lattices decided in 0.1-0.45 s and 3 that exhaust the budget:
             the tail is all family search, the median is CLI overhead.
  ssp-auto   `ssp` on 14 lattices up to 512 elements decided by Mobius
             certificates or the non-RC counterexample: core and mobius on
             large inputs, never the family search.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each op is also replayed layer by layer (replay.py) and
the line carries per-layer metrics per pass, with the spans written to
``.perfbench_work/<workload>-<seed>/trace.json``.  The line before it
records the seed, Python version, commit, CPU count and load average.
The exit status is 0 only when every check passed.
"""

import argparse
import collections
import gc
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import ops
import replay

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def commit_id():
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def environment(args):
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "commit": commit_id(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg": loadavg}


def run_op(lv, op):
    """(seconds, exit status, stdout) of one op; an exception is a failure."""
    out = io.StringIO()
    start = perf_counter()
    try:
        code = lv.cli.run(list(op.argv), out=out)
    except Exception:
        traceback.print_exc()
        code = None
    return perf_counter() - start, code, out.getvalue()


class Checker:
    """Checks op results and keeps the failures."""

    def __init__(self):
        self.lv = None  # the latest import, set after each set-up
        self.orders = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def order_of(self, source):
        if source not in self.orders:
            lattice = self.lv.cli.load_source(source)
            self.orders[source] = ops.OwnOrder(lattice.names, lattice.covers)
        return self.orders[source]

    def check(self, op, code, out):
        self.attempted += 1
        err = ops.check_output(op, code, out, self.order_of)
        if err:
            self.fail(err)
        return err is None

    def fail(self, message, count=True):
        """Record a failure; ``count`` is False when its op already failed."""
        self.errors.append(message)
        self.failed += count


def setup(workload, seed, work, checker):
    """Import afresh, write the inputs and run the warm-up op, timed.

    Any earlier import and inputs are dropped first, outside the timing;
    the caller holds no reference to the earlier import.  The warm-up op is
    checked like any other.  Returns (seconds, the package, the pass's ops).
    """
    checker.lv = None
    for name in [m for m in sys.modules if m.split(".")[0] == "latticevc"]:
        del sys.modules[name]
    gc.collect()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = perf_counter()
    lv = importlib.import_module("latticevc")
    importlib.import_module("latticevc.cli")
    pass_ops, warm = ops.workload_ops(workload, seed, work / "inputs")
    _, code, out = run_op(lv, warm)
    elapsed = perf_counter() - start
    checker.lv = lv
    checker.check(warm, code, out)
    return elapsed, lv, pass_ops


def time_left(start, done, seconds):
    """Whether a pass as long as the mean of ``done`` so far ends in time."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


def slow_end(values, of_times=True):
    """The 90th percentile of times, or the 10th of rates."""
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[8] if of_times else deciles[0]


def measure(workload, seed, seconds, work, checker):
    """End-to-end metrics over whole passes that fill ``seconds``.

    A fresh set-up precedes every pass, so set-up times are sampled over the
    whole run like the passes are.  Returns the last import, the pass's ops
    and the metrics.
    """
    setups = []
    medians = []
    rates = []
    lattices = decided = 0
    start = perf_counter()
    shuffled = None
    while not medians or time_left(start, len(medians), seconds):
        lv = None
        elapsed, lv, pass_ops = setup(workload, seed, work, checker)
        setups.append(elapsed)
        shuffled = shuffled or ops.passes(pass_ops, seed)
        order = next(shuffled)
        results = [(op, *run_op(lv, op)) for op in order]
        times = [dt for _, dt, _, _ in results]
        medians.append(statistics.median(times))
        rates.append(sum(op.lattices for op in order) / sum(times))
        for op, _, code, out in results:
            lattices += op.lattices
            if checker.check(op, code, out):
                decided += ops.outcome(op, out)
    return lv, pass_ops, {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (slow_end(medians), "s"),
        "lattices_per_s": (slow_end(rates, of_times=False), "1/s"),
        "decided_ratio": (decided / lattices, "ratio"),
    }


def traced(lv, pass_ops, seed, seconds, checker, work):
    """Per-layer metrics per pass; every replay must agree with its verb."""
    tracer = replay.Tracer()
    n_ops = n_passes = 0
    start = perf_counter()
    for order in ops.passes(pass_ops, seed):
        if n_passes and not time_left(start, n_passes, seconds):
            break
        for op in order:
            tracer.begin_op(n_ops)
            n_ops += 1
            with tracer.span("cli.run"):
                _, code, out = run_op(lv, op)
            ok = checker.check(op, code, out)
            with tracer.span("replay"):
                if op.source is None:
                    got = replay.replay_scan(lv, ops.SCAN_MAX_N,
                                             lv.ssp.DEFAULT_BUDGET, tracer)
                else:
                    budget = (lv.ssp.DEFAULT_BUDGET if op.pool == "auto"
                              else ops.BRUTE_BUDGET)
                    got = replay.replay_ssp(lv, op, budget, tracer)
            if got != (code, out):
                checker.fail(f"{' '.join(op.argv)}: replay gave {got!r}, "
                             f"verb gave {(code, out)!r}", count=ok)
        n_passes += 1
    (work / "trace.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return replay.layer_metrics(tracer.spans, n_passes)


def jobs_invariance(lv, workload, checker):
    """Untimed: --jobs 1 and --jobs 2 must print the same bytes."""
    if workload == "scan":
        pairs = [[ops.scan_op(ops.INVARIANCE_SCAN_MAX_N, jobs) for jobs in (1, 2)]]
    elif workload == "ssp-brute":
        pairs = [[ops.ssp_op("b", src, line, jobs) for jobs in (1, 2)]
                 for src, line in ops.POOL_B.items()]
    else:
        return
    for one, two in pairs:
        _, code1, out1 = run_op(lv, one)
        _, code2, out2 = run_op(lv, two)
        ok = checker.check(one, code1, out1) & checker.check(two, code2, out2)
        if (code1, out1) != (code2, out2):
            checker.fail(f"{' '.join(two.argv)}: differs from --jobs 1", count=ok)
    multiprocessing.active_children()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "latticevc" / "__init__.py").is_file():
        print(f"perfbench: no latticevc sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    env = environment(args)
    work = WORK / f"{args.workload}-{args.seed}"

    checker = Checker()
    if args.trace:
        _, lv, pass_ops = setup(args.workload, args.seed, work, checker)
        metrics = traced(lv, pass_ops, args.seed, args.seconds, checker, work)
    else:
        lv, pass_ops, values = measure(args.workload, args.seed, args.seconds,
                                       work, checker)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mib"] = (rss_kib / 1024, "MiB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    jobs_invariance(lv, args.workload, checker)

    for err in checker.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    per_pool = collections.Counter(op.pool for op in pass_ops)
    print(json.dumps({"environment": env, "ops_per_pass": per_pool}))
    print(json.dumps({"correct": not checker.errors,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0 if not checker.errors else 1


if __name__ == "__main__":
    sys.exit(main())
