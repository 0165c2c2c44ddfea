#!/usr/bin/env python3
"""Time-to-solution benchmark of lattice-pdo.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # summary table, all workloads

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload is a closed loop: one client runs one operation at a time in
this process, CLI tasks with ``--threads 2``, OpenBLAS at its default thread
count.  After one warm-up pass the benchmark repeats passes over the
workload's operations for ``--seconds`` seconds and checks every answer.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median wall
seconds of a pass), ``setup_s`` (median over fresh processes of the wall
seconds of ``import lattice_pdo.cli`` plus the cold first operation) and
``peak_rss_mb``; the median CPU seconds of a pass are printed beside them.
With ``--trace 1`` it measures untraced passes for half the time and traced
passes for the other half, and reports the per-layer metrics.  Metric units
are those declared in ``BENCHMARK.json``.  The last
line of standard output is the result as one JSON object; the run record
(environment, every pass time, counts and spans) goes to
``.perfbench/results/``.
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
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3
WORKLOADS = ("scan", "sums", "diag-export", "quadrature")


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "lattice_pdo", "cli.py")):
        sys.exit(f"perfbench: no lattice_pdo sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)


def _clock():
    """(wall, CPU) seconds; CPU is user + system time of all threads of this process."""
    return time.perf_counter(), time.process_time()


def _since(start):
    wall, cpu = _clock()
    return wall - start[0], cpu - start[1]


class Runner:
    """Runs passes over a workload's operations and tallies failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None           # paused while answers are checked

    def run_op(self, op):
        """Run and check one operation; return the (wall, CPU) seconds of its run step."""
        self.attempted += 1
        start = _clock()
        try:
            rc = op.run()
        except Exception:
            rc = None
            self._fail(op, traceback.format_exc(limit=3))
        elapsed = _since(start)
        if rc != 0:
            if rc is not None:
                self._fail(op, f"exit code {rc}")
            return elapsed
        tracing = self.tracer is not None and self.tracer.enabled
        if tracing:
            self.tracer.enabled = False
        try:
            problems = op.check()
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        finally:
            if tracing:
                self.tracer.enabled = True
        if problems:
            self._fail(op, "; ".join(problems))
        return elapsed

    def _fail(self, op, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.name}: {message}")

    def one_pass(self):
        """(wall, CPU) seconds of one pass over the operations."""
        wall = cpu = 0.0
        for op in self.ops:
            w, c = self.run_op(op)
            wall += w
            cpu += c
        return wall, cpu

    def passes(self, seconds, minimum=MIN_PASSES, one_pass=None, between=None):
        """Passes until ``seconds`` have elapsed and ``minimum`` were made: (walls, cpus)."""
        one_pass = one_pass or self.one_pass
        walls, cpus = [], []
        t_end = time.perf_counter() + seconds
        while len(walls) < minimum or time.perf_counter() < t_end:
            wall, cpu = one_pass()
            walls.append(wall)
            cpus.append(cpu)
            if between is not None:
                between()
        return walls, cpus


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded (None if not found)."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _env():
    import platform
    import numpy as np
    from importlib import metadata
    import workloads
    try:
        scipy_version = metadata.version("scipy")    # not imported: lattice_pdo does not use it
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "cli_threads": workloads.THREADS,
    }


# --- set-up: a fresh process, import plus the cold first operation ----------

def probe(workload, seed):
    """Body of the set-up probe process; prints its timings as JSON."""
    start = _clock()
    import lattice_pdo.cli  # noqa: F401  (the import is what is timed)
    import_wall, import_cpu = _since(start)
    import workloads
    work = os.path.join(OUT, f"probe-{workload}-{os.getpid()}")
    try:
        runner = Runner(workloads.build(workload, work, seed)[:1])
        first_wall, first_cpu = runner.one_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"wall_s": import_wall + first_wall, "cpu_s": import_cpu + first_cpu,
                      "import_wall_s": import_wall, "import_cpu_s": import_cpu,
                      "failed": runner.failed, "problems": runner.problems}))


def measure_setup(workload, seed):
    """Set-up probe results from fresh processes, with their attempts and failures."""
    probes, failed, problems = [], 0, []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe",
                               "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            failed += 1
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        probes.append(res)
        failed += res["failed"]
        problems += res["problems"]
    return probes, SETUP_PROBES, failed, problems


# --- per-layer metrics from the traced passes --------------------------------

# metric -> (kind, key): "wall"/"thread"/"self"/"calls" of a function's spans,
# "layer_self" of a module, or a count taken at a layer boundary
LAYER_METRICS = {
    "symbols.coeff_evals": ("count", "symbols.coeff_evals"),
    "symbols.eval_points": ("count", "symbols.eval_points"),
    "fourier.spectrum_of_row_s": ("wall", "fourier.spectrum_of_row"),
    "fourier.spectrum_of_row_thread_s": ("thread", "fourier.spectrum_of_row"),
    "fourier.spectrum_of_row_calls": ("calls", "fourier.spectrum_of_row"),
    "fourier.coefficient_table_s": ("wall", "fourier.coefficient_table"),
    "fourier.table_to_csv_s": ("wall", "fourier.table_to_csv"),
    "fourier.decay_constant_s": ("wall", "fourier.estimate_decay_constant"),
    "kernel.assemble_s": ("wall", "kernel.assemble"),
    "kernel.assemble_calls": ("calls", "kernel.assemble"),
    "kernel.assemble_entries": ("count", "kernel.assemble_entries"),
    "kernel.assemble_bytes": ("count", "kernel.assemble_bytes"),
    "kernel.quadrature_threads1_s": ("baseline", None),
    "kernel.write_csv_s": ("wall", "kernel.write_csv"),
    "kernel.write_binary_s": ("wall", "kernel.write_binary"),
    "kernel.hermitize_s": ("wall", "kernel.hermitize"),
    "kernel.output_bytes": ("count", "kernel.output_bytes"),
    "criteria.sums_s": ("sums", None),
    "criteria.sums_bytes": ("count", "criteria.sums_bytes"),
    "criteria.tail_bound_s": ("wall", "criteria.truncation_tail_bound"),
    "spectral.eigendecompose_s": ("wall", "spectral.eigendecompose_hermitian"),
    "spectral.residue_norm_s": ("wall", "spectral.residue_norm"),
    "spectral.diag_approx_self_s": ("self", "spectral.diagonal_approximation"),
    "schrodinger.build_hamiltonian_s": ("wall", "schrodinger.build_hamiltonian"),
    "schrodinger.scan_self_s": ("self", "schrodinger.spectrum_converged"),
    "schrodinger.eigensolves": ("count", "schrodinger.eigensolves"),
    "schrodinger.max_dim": ("count", "schrodinger.max_dim"),
    "cli.self_s": ("layer_self", "cli"),
    "cli.runs": ("count", "cli.runs"),
    "cli.failed": ("count", "cli.failed"),
    "pass.cpu_s": ("untraced_cpu", None),
    "trace.overhead_s": ("overhead", None),
}


def _units():
    """Unit of every metric, as declared in BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = set(LAYER_METRICS) - set(units)
    if missing:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(missing)}")
    return units


def layer_values(spans, counts):
    """The per-layer metrics one traced pass yields on its own."""
    from tracing import summarize
    functions, layer_self, sums_wall = summarize(spans)
    values = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "count":
            values[metric] = counts.get(key, 0)
        elif kind in ("wall", "thread", "self", "calls"):
            fn = functions.get(key)
            values[metric] = fn[kind if kind == "calls" else kind + "_s"] if fn else 0
        elif kind == "layer_self":
            values[metric] = layer_self.get(key, 0.0)
        elif kind == "sums":
            values[metric] = sums_wall
    largest = max(functions.items(), key=lambda kv: kv[1]["self_s"])[0] if functions else None
    return values, functions, largest


def traced_run(workload, seed, seconds, runner, record, units):
    import workloads
    from tracing import Tracer

    untraced, untraced_cpu = runner.passes(seconds / 2, minimum=2)
    tracer = Tracer()
    runner.tracer = tracer
    baseline = []
    between = None
    if workload == "quadrature":
        def between():
            baseline.append(workloads.quadrature_threads1_s(seed))

    per_pass, all_spans = [], []

    def traced_pass():
        tracer.begin_pass()
        elapsed = runner.one_pass()
        spans, counts = tracer.end_pass()
        all_spans.append(spans)
        per_pass.append(layer_values(spans, counts))
        return elapsed

    tracer.install()
    try:
        traced, _ = runner.passes(seconds / 2, minimum=2, one_pass=traced_pass,
                                  between=between)
    finally:
        tracer.uninstall()

    metrics = {}
    for metric, (kind, _) in LAYER_METRICS.items():
        if kind == "baseline":
            metrics[metric] = statistics.median(baseline) if baseline else 0.0
        elif kind == "untraced_cpu":
            metrics[metric] = statistics.median(untraced_cpu)
        elif kind == "overhead":
            metrics[metric] = statistics.median(traced) - statistics.median(untraced)
        elif units[metric] == "s":
            metrics[metric] = statistics.median(p[0][metric] for p in per_pass)
        else:
            seen = {p[0][metric] for p in per_pass}
            if len(seen) != 1:
                runner.failed += 1
                runner.problems.append(f"count {metric} differs between passes: {sorted(seen)}")
            metrics[metric] = per_pass[0][0][metric]
    record.update({
        "untraced_pass_wall_s": untraced, "untraced_pass_cpu_s": untraced_cpu,
        "traced_pass_wall_s": traced,
        "largest_self": [p[2] for p in per_pass],
        "functions": [p[1] for p in per_pass],
        "spans": [[[s.name, s.id, s.parent, s.thread, s.start, s.end] for s in spans]
                  for spans in all_spans],
    })
    print(f"{workload}: traced pass {statistics.median(traced):.3f} s vs untraced "
          f"{statistics.median(untraced):.3f} s; largest self time: "
          f"{statistics.mode(record['largest_self'])}")
    return metrics


def bench(workload, seed, seconds, trace):
    units = _units()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    attempted = failed = 0
    problems = []
    if not trace:
        probes, attempted, failed, problems = measure_setup(workload, seed)
        if not probes:
            sys.exit("perfbench: every set-up probe failed:\n" + "\n".join(problems))
        record["setup_probes"] = probes

    import workloads
    work = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    try:
        runner = Runner(workloads.build(workload, work, seed))
        runner.one_pass()                       # warm-up
        # the peak of the first pass: later passes fragment the heap further, which
        # would tie the peak to how many passes fit in the run
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["env"] = _env()
        if trace:
            metrics = traced_run(workload, seed, seconds, runner, record, units)
        else:
            walls, cpus = runner.passes(seconds)
            record.update({"pass_wall_s": walls, "pass_cpu_s": cpus})
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(p["wall_s"] for p in probes),
                       "peak_rss_mb": peak_mb}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += runner.attempted
    failed += runner.failed
    problems += runner.problems
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    record.update({"attempted": attempted, "failed": failed, "problems": problems,
                   "result": result})
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh)

    print("env: " + json.dumps(record["env"], sort_keys=True))
    for p in problems:
        print(f"FAILED {p}")
    if not trace:
        lo, hi = _quartiles(walls)
        setup_lo, setup_hi = _quartiles([p["wall_s"] for p in probes])
        print(f"{workload}: wall_s {metrics['wall_s']:.3f} s (median of {len(walls)} passes, "
              f"quartiles {lo:.3f}-{hi:.3f}; CPU {statistics.median(cpus):.3f} s), "
              f"setup_s {metrics['setup_s']:.3f} s (median of {len(probes)} processes, "
              f"quartiles {setup_lo:.3f}-{setup_hi:.3f}), peak_rss_mb {peak_mb:.1f} MB, "
              f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    print(json.dumps(result))
    return 0


def summary(seed, seconds):
    """Run every workload in its own process and print one table of end-to-end metrics."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        ok = ok and res["correct"]
        with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace0.json")) as fh:
            cpu = statistics.median(json.load(fh)["pass_cpu_s"])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        rows.append(f"{name:12s} {m['wall_s']:9.3f} s {m['setup_s']:9.3f} s "
                    f"{m['peak_rss_mb']:9.1f} MB {res['failed'] / res['attempted']:9.4f} "
                    f"({res['failed']}/{res['attempted']}) {cpu:9.3f} s")
    print(f"{'workload':12s} {'wall_s':>11s} {'setup_s':>11s} {'peak_rss_mb':>12s} "
          f"{'error_rate':>9s} {'':7s} {'CPU/pass':>11s}")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
