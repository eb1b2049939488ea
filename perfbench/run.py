"""Benchmark runner: time dmpfem to a checked solution on one workload.

    python3 perfbench/run.py --workload steady_newton --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``; BLAS and OpenMP are pinned to one thread.  The workloads are
deterministic; ``--seed`` is recorded with the results.  With ``--trace 0`` it
repeats whole runs (set-up, solve, audit and output) while the next one still
fits in ``--seconds``, times extra set-ups until it has SETUPS besides the
first, and reports the end-to-end medians.  With ``--trace 1``
it makes a traced run between two untraced ones and reports the per-layer
figures of the traced one; its counts must reconcile with the solver reports.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A run that fails a correctness gate counts as failed, and the exit code is
then 1.  Each invocation also writes ``perfbench/results/<workload>-seed<n>-
trace<t>-<seconds>s.json``, with a ``.2``, ``.3``, ... before ``.json`` rather
than overwrite an earlier one, holding every sample, the gate outcomes,
iteration counts and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-ups timed per run besides the first one of the process, which is
# dropped: one set-up is too short to ride out the machine's noise
SETUPS = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: every workload is deterministic")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package():
    """Import dmpfem from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "dmpfem" / "__init__.py").is_file():
        sys.exit(f"error: no dmpfem sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import dmpfem
    if Path(dmpfem.__file__).resolve().parent != src / "dmpfem":
        sys.exit(f"error: imported dmpfem from {dmpfem.__file__}, not {src}")


def _git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(args):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "seed": args.seed,
    }


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sample_record(out):
    return {
        "setup_s": out.setup_s, "solve_s": out.solve_s,
        "output_s": out.output_s, "wall_s": out.wall_s,
        "iterations": out.iterations, "gates": out.gates,
        "error": out.error, "error_norms": out.errors, "correct": out.correct,
    }


def _time_setup(wl, problem):
    from workloads import set_up
    gc.collect()
    t0 = time.perf_counter()
    state = set_up(wl, problem)
    elapsed = time.perf_counter() - t0
    del state
    return elapsed


def _measure(wl, args, outdir):
    """End-to-end mode: whole runs while the next one fits in the budget,
    then set-ups until there are SETUPS besides the first."""
    import dmpfem.bench
    from workloads import run_once

    samples = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        samples.append(run_once(wl, outdir))
        # later runs reuse the freed memory; their fragmentation would tie
        # the high-water mark to how many runs fit in the budget
        peak_rss_mb = peak_rss_mb or _peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    setups = [o.setup_s for o in samples]
    problem = dmpfem.bench.make_problem(wl.problem)
    while len(setups) < SETUPS + 1:
        setups.append(_time_setup(wl, problem))

    values = {
        "wall_s": statistics.median(o.wall_s for o in samples),
        "setup_s": statistics.median(setups[1:]),
        "solve_s": statistics.median(o.solve_s for o in samples),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in _units("end_to_end").items()}
    record = {"samples": [_sample_record(o) for o in samples],
              "setup_samples_s": setups}
    return samples, metrics, record


def _reconcile(layers, reports, newton):
    """Traced counts against the solver reports; a mismatch means a binding
    the tracer did not wrap."""
    iterations = sum(r.iterations for r in reports)
    checks = {
        "solvers.iterations": (layers["solvers.iterations"], iterations),
        "system.jacobian_calls": (layers["system.jacobian_calls"],
                                  iterations if newton else 0),
        "system.linear_solves": (layers["system.linear_solves"], iterations),
    }
    return {k: {"traced": a, "reports": b, "ok": a == b} for k, (a, b) in checks.items()}


def _trace(wl, args, outdir):
    """Traced mode: a traced run between two untraced ones, whose mean solve
    time is the baseline of the tracing overhead."""
    from tracer import Tracer, layer_metrics
    from workloads import run_once

    before = run_once(wl, outdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_once(wl, outdir, span=tracer.span)
    finally:
        tracer.uninstall()
    after = run_once(wl, outdir)
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = traced.solve_s - (before.solve_s + after.solve_s) / 2
    checks = _reconcile(layers, traced.reports, traced.solver == "newton")
    reconciled = all(c["ok"] for c in checks.values())
    if not reconciled:
        traced.error = traced.error or "traced counts do not match SolverReport"

    units = _units("per_layer")
    metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    runs = [before, traced, after]
    record = {"samples": [_sample_record(o) for o in runs],
              "reconcile": checks, "bindings": tracer.bindings,
              "spans": len(tracer.spans)}
    return runs, metrics, record


def _units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    args = _parse_args(argv)
    for key in THREAD_PINS:
        os.environ[key] = "1"
    sys.dont_write_bytecode = True
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    results = HERE / "results"
    outdir = results / args.workload
    outdir.mkdir(parents=True, exist_ok=True)

    run = _trace if args.trace else _measure
    samples, metrics, record = run(wl, args, outdir)
    failed = sum(not o.correct for o in samples)
    summary = {"correct": failed == 0, "attempted": len(samples),
               "failed": failed, "metrics": metrics}

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=_environment(args),
                  result=summary)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.seconds:g}s"
    path = results / f"{stem}.json"
    n = 1
    while path.exists():
        n += 1
        path = results / f"{stem}.{n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for i, o in enumerate(samples):
        status = "ok" if o.correct else f"FAILED {o.error or o.gates}"
        print(f"run {i}: setup {o.setup_s:.3f} s, solve {o.solve_s:.3f} s, "
              f"wall {o.wall_s:.3f} s, iterations {sum(o.iterations)}: {status}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
