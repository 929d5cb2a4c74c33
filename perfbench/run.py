"""Benchmark of the cayleyx CLI: end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload construct|search|analyze \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory and driven
in-process through ``cayleyx.cli.main(argv)``; it receives only the inputs
the benchmark generates from ``--seed`` (see workloads.py).  Every op's
outputs are checked (see checks.py); an op that exits non-zero or fails a
check counts as failed.

``--trace 0`` measures end to end, with tracing off:

* ``setup_s``: process start to the first timed op (importing numpy and
  cayleyx, generating the inputs, a toy-size warm-up pass), median over
  SETUP_PROBES fresh processes;
* ``wall_s``: one pass over the workload's ops, median over the passes that
  fit in ``--seconds`` (a pass starts when the previous one's time still
  fits; at least one pass).  Each pass imports cayleyx afresh, as a new CLI
  process would.  A fixed kernel (``calibrate``) is timed right after every
  op, for a quarter of the op's time, to gauge the machine's speed during
  the run.  On the workloads in ``workloads.CALIBRATED`` the median pass is
  multiplied by CALIBRATION_NOMINAL_S over the kernel's median time; the
  record line keeps the unscaled samples;
* ``peak_rss_mb``: peak resident memory of this process;
* ``failed_frac``: failed ops over attempted ops.  It is 0 when the program
  is correct, so it is carried by the ``failed`` and ``attempted`` fields of
  the result line rather than as a metric.

``--trace 1`` runs one untraced pass, then traced passes (see spans.py) for
the rest of ``--seconds``, and reports per-layer self times and counts,
median over the traced passes, with the tracing overhead as
``trace.overhead_ratio`` (traced over untraced pass time).  No layer waits
on a queue or another thread, so no wait times are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``record``, adds the provenance (commit, Python, numpy and BLAS
versions, nproc, BLAS thread cap, seed), the spread and sample count of each
timing, and the first failures.  The spans of the last traced pass are
written to ``.perfbench_out/<workload>.spans.jsonl`` as
[name, start, end, parent index].

Self-test, at toy size: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread: the ops are single-threaded Python apart from the dense
# oracle, and one thread keeps the process on one core of a shared machine.
BLAS_THREADS = 1
SETUP_PROBES = 7
# The shared host's speed drifts by tens of percent over minutes, and every
# run sees a different stretch of it.  A fixed kernel, timed right after
# every op for CALIBRATION_SHARE of the op's time, tracks that speed; on the
# workloads it tracks, wall_s is rescaled to a machine on which the kernel
# takes CALIBRATION_NOMINAL_S.
CALIBRATION_SHARE = 0.25
CALIBRATION_NOMINAL_S = 0.2

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402  (after the BLAS thread cap)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {m: unit for m, unit, *_ in spans.LAYER_METRICS}
LAYER_UNITS.update({"search.scanned": "count", "search.hit_ratio": "ratio",
                    "cli.bytes_written": "bytes", "trace.overhead_ratio": "ratio"})
COUNT_METRICS = [m for m, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def parse_args(argv):
    p = argparse.ArgumentParser(description="cayleyx benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cli():
    """Import cayleyx afresh, as a new CLI process would: no module-level
    cache survives from one pass to the next."""
    for name in [m for m in sys.modules if m == "cayleyx" or m.startswith("cayleyx.")]:
        del sys.modules[name]
    import cayleyx.cli

    if not os.path.abspath(cayleyx.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cayleyx from {cayleyx.cli.__file__}, not {SRC}")
    return cayleyx.cli


def setup(workload, seed, workdir, size="full"):
    """Import cayleyx, generate the inputs, warm up on toy-size ops."""
    cli = import_cli()
    reference = workloads.load_reference()
    for op in workloads.make_ops(workload, "toy", seed, os.path.join(workdir, "warmup"),
                                 reference):
        run_op(cli, op)
    return workloads.make_ops(workload, size, seed, os.path.join(workdir, "run"), reference)


def run_op(cli, op):
    """(exit code, captured stdout); a crash counts as a failed op."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # the run goes on; the op is reported as failed
        rc = f"raised {type(e).__name__}: {e}"
    return rc, out.getvalue()


def run_pass(ops, tracer=None, calibration=None):
    """Wall time of each op in one pass, and the problems found in their
    outputs.  With a tracer, the pass is traced; with a calibration list,
    calibration times taken after each op are appended to it."""
    cli = import_cli()
    if tracer:
        tracer.install()
    gc.collect()  # the previous pass's garbage is not this pass's work
    results, op_walls = [], []
    try:
        for op in ops:
            start = perf_counter()
            results.append(run_op(cli, op))
            op_walls.append(perf_counter() - start)
            if calibration is not None:
                spent = 0.0
                while not spent or spent < CALIBRATION_SHARE * op_walls[-1]:
                    calibration.append(calibrate())
                    spent += calibration[-1]
    finally:
        if tracer:
            tracer.uninstall()
    problems = {}
    for op, (rc, stdout) in zip(ops, results):
        found = checks.check_op(op, rc, stdout)
        if found:
            problems[op.label] = found
    return op_walls, problems


def bytes_written(ops):
    return sum(entry.stat().st_size for op in ops for entry in os.scandir(op.out)
               if entry.is_file())


def probe_setup(workload, seed):
    """Seconds from starting a fresh process to its first timed op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe exited {rc} after {line.strip()!r}")
    return elapsed


def calibrate():
    """Seconds for a fixed pure-Python kernel, independent of cayleyx: four
    BFS sweeps over tuples of Z16 x Z16 x Z8, the kind of work that
    dominates the passes."""
    factors = (16, 16, 8)
    steps = [c for c in itertools.product((0, 1, -1), repeat=3) if any(c)]
    start = perf_counter()
    for _ in range(4):
        seen = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            nxt = []
            for u in frontier:
                for c in steps:
                    w = tuple((x + y) % d for x, y, d in zip(u, c, factors))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return perf_counter() - start


def measure(ops, seconds):
    """Per-op walls of the untraced passes that fit in ``seconds``, judged
    by the previous pass (at least one pass), and the calibration times."""
    passes, failures, calibration = [], [], []
    start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - start + last <= seconds:
        began = perf_counter()
        op_walls, problems = run_pass(ops, calibration=calibration)
        last = perf_counter() - began
        passes.append(op_walls)
        failures.append(problems)
    return passes, failures, calibration


def measure_traced(ops, seconds, spans_path):
    """One untraced pass, then traced passes for the rest of ``seconds``."""
    start = perf_counter()
    op_walls, problems = run_pass(ops)
    untraced = sum(op_walls)
    failures = [problems]
    scanned = sum(op.scanned for op in ops)
    tracer = spans.Tracer()
    walls, per_pass = [], []
    while not walls or perf_counter() - start + walls[-1] <= seconds:
        tracer.reset()
        op_walls, problems = run_pass(ops, tracer)
        metrics, absent = tracer.layer_metrics(scanned)
        metrics["cli.bytes_written"] = bytes_written(ops)
        walls.append(sum(op_walls))
        failures.append(problems)
        per_pass.append(metrics)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(walls) / untraced
    repeat = all(p[m] == per_pass[0][m] for p in per_pass for m in COUNT_METRICS)
    extra = {"untraced_wall_s": untraced, "traced_walls_s": walls, "absent": absent,
             "counts_repeat_across_passes": repeat, "wait": "not applicable"}
    return metrics, failures, extra


def provenance(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": seed}


def git_sha(root):
    """Commit of the checkout, or "unknown" when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def run(args):
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return None
        setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed)
                                                for _ in range(SETUP_PROBES)]
        ops = setup(args.workload, args.seed, workdir)
        record = {"workload": args.workload, "trace": args.trace, **provenance(args.seed)}
        if args.trace:
            spans_path = os.path.join(ROOT, ".perfbench_out", f"{args.workload}.spans.jsonl")
            metrics, failures, extra = measure_traced(ops, args.seconds, spans_path)
            record.update(extra)
            units = LAYER_UNITS
        else:
            passes, failures, calibration = measure(ops, args.seconds)
            walls = [sum(p) for p in passes]
            speed = CALIBRATION_NOMINAL_S / statistics.median(calibration)
            scale = speed if args.workload in workloads.CALIBRATED else 1.0
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(walls) * scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            record.update({"setup_s": summary(setup_samples), "machine_speed": speed,
                           "speed_scale": scale, "unscaled": {
                "wall_s": summary(walls), "calibration_s": summary(calibration),
                "pass_walls_s": walls,
                "op_median_walls_s": dict(zip([op.label for op in ops],
                                              map(statistics.median, zip(*passes))))}})
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(ops) * len(failures)
    failed = sum(len(problems) for problems in failures)
    record.update({"attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted,
                   "failures": [p for p in failures if p][:5]})
    return record, {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cayleyx", "cli.py")):
        print(f"error: no cayleyx sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    if result is None:
        return 0
    record, metrics = result
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, m in metrics.items():
        detail = ""
        if name == "setup_s":
            detail = " (median of {n} processes: q1 {q1:.4g}, q3 {q3:.4g})".format(
                **record["setup_s"])
        elif name == "wall_s":
            detail = (" (x{:.3f} of an unscaled median of {n} passes: {median:.4g},"
                      " q1 {q1:.4g}, q3 {q3:.4g})").format(record["speed_scale"],
                                                          **record["unscaled"]["wall_s"])
        print(f"  {name} = {m['value']} {m['unit']}{detail}")
    print(f"  failed_frac = {record['failed_frac']} ratio")
    for problems in record["failures"]:
        print(f"  failure: {problems}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
