"""pullback-lab benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the root of a source checkout; the engine is imported from its
``src/``. Load is a closed loop: one process, one operation at a time.
After one untimed warm-up operation the workload's fixed work (a pass) is
repeated while another pass fits in ``--seconds``, and timings take each
operation at its fastest over the passes. Timings are CPU time of the
measuring process (``time.process_time``), so time spent waiting for a
core while other load runs on a shared machine does not count.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` takes an
import breakdown, spends half the time left untraced and half with span
wrappers installed, and prints the per-layer metrics and the tracing
overhead. The last line of output is one JSON object. With
``--workload all`` each workload runs in its own fresh interpreter.
See perfbench/METRICS.md for what each metric means.
"""

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One process, no threads: numpy's OpenBLAS otherwise starts a helper
# thread per core on import, whose start-up and spinning count in the
# process's CPU time (0.05-0.1 s of the import's, varying between runs).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("corpus", "deep_anchor", "generated", "cert_search")

IMPORT_RUNS = 9
IMPORT_SNIPPET = ("import time; t = time.process_time(); import pullbacklab.cli; "
                  "print(time.process_time() - t)")


def fresh_import(importtime=False):
    """Run ``import pullbacklab.cli`` in a fresh interpreter; return its
    CPU seconds and, with ``importtime``, the -X importtime report (wall
    microseconds)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        ["-c", IMPORT_SNIPPET]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def cumulative_import_s(report, module):
    """Cumulative seconds of one module in an -X importtime report."""
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def import_breakdown():
    """Median numpy and pullbacklab-without-numpy import seconds."""
    numpy_s, package_s = [], []
    fresh_import(importtime=True)
    for _ in range(IMPORT_RUNS):
        report = fresh_import(importtime=True)[1]
        numpy_s.append(cumulative_import_s(report, "numpy"))
        package_s.append(cumulative_import_s(report, "pullbacklab.cli") - numpy_s[-1])
    return statistics.median(numpy_s), statistics.median(package_s)


def quantiles_ms(seconds):
    """(p50, p90) of op latencies in ms (inclusive method)."""
    q = statistics.quantiles(seconds, n=10, method="inclusive")
    return 1e3 * q[4], 1e3 * q[8]


def measure(workload, seconds, tracer=None, imports=None):
    """Repeat passes while another one fits in ``seconds`` of wall time (at
    least one); return their PassLogs. Given a list ``imports``, also time
    IMPORT_RUNS fresh imports into it, spread evenly over the run between
    passes and inside its ``seconds``: import time on a shared machine
    moves between regimes that last seconds, so consecutive imports would
    sample only one."""
    from workloads import PassLog
    logs = []
    pass_wall = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        log = PassLog()
        workload.run_pass(log)
        if tracer is not None:
            tracer.fold()
        logs.append(log)
        now = time.perf_counter()
        pass_wall += now - t0
        if imports is not None and len(imports) < IMPORT_RUNS and \
                now - start >= len(imports) * seconds / IMPORT_RUNS:
            imports.append(fresh_import()[0])
            now = time.perf_counter()
        if now - start + pass_wall / len(logs) > seconds:
            break
    while imports is not None and len(imports) < IMPORT_RUNS:
        imports.append(fresh_import()[0])
    return logs


def outcome_counts(logs):
    outcomes = collections.Counter(o for log in logs for _, o in log.ops)
    attempted = sum(outcomes.values())
    errors = sum(n for o, n in outcomes.items() if o.startswith("error:"))
    defects = sum(n for o, n in outcomes.items() if o.startswith("defect:"))
    return outcomes, attempted, errors, defects


def best_pass(logs):
    """(op latencies, seconds) of an undisturbed pass: every pass does
    the same work in the same order, and other load on the machine only
    ever slows work down, so each separately timed stretch of an operation
    and each stretch of work outside one is taken at its fastest over the
    run."""
    ops = [sum(min(stretch) for stretch in zip(*column))
           for column in zip(*(log.parts for log in logs))]
    work = [min(column) for column in zip(*(log.work for log in logs))]
    return ops, sum(ops) + sum(work)


def end_to_end(logs, setup_s):
    ops, pass_s = best_pass(logs)
    p50, p90 = quantiles_ms(ops)
    return {
        "setup_s": (setup_s, "s"),
        "pass_cpu_s": (pass_s, "s"),
        "op_cpu_ms.p50": (p50, "ms"),
        "op_cpu_ms.p90": (p90, "ms"),
        "steps_per_cpu_s": (statistics.median(log.steps for log in logs) / pass_s,
                            "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def report_lines(name, logs, metrics):
    """Human-readable summary: metrics with units, sample counts and the
    failure histogram."""
    outcomes, attempted, errors, defects = outcome_counts(logs)
    failed = errors + defects
    ops = sum(len(log.ops) for log in logs)
    lines = ["%s: %d passes of %d ops (%d ops in all); timings take each op "
             "at its fastest over the passes" % (
                 name, len(logs), len(logs[0].ops), ops)]
    for key, (value, unit) in metrics.items():
        lines.append("%s: %-40s %14.6g %s" % (name, key, value, unit))
    certs = [s for log in logs for s in log.cert_s]
    checks = [s for log in logs for s in log.check_s]
    if certs:
        lines.append("%s: %-40s %14.6g ms (n=%d)" % (
            name, "cert_cpu_ms.p50", 1e3 * statistics.median(certs), len(certs)))
    if checks:
        lines.append("%s: %-40s %14.6g ms (n=%d)" % (
            name, "check_cpu_ms.p50", 1e3 * statistics.median(checks), len(checks)))
    lines.append("%s: fail_ratio %d/%d = %.4f (known defects %d, errors %d)" % (
        name, failed, attempted, failed / attempted, defects, errors))
    for outcome, n in sorted(outcomes.items()):
        if outcome != "ok":
            lines.append("%s:   %6d  %s" % (name, n, outcome))
    return lines


def per_layer(workload, seconds):
    """The import breakdown, then half the time left untraced and half
    traced; (all PassLogs, metrics)."""
    import tracing
    start = time.perf_counter()
    numpy_s, package_s = import_breakdown()
    half = max(seconds - (time.perf_counter() - start), 0.0) / 2.0
    untraced = measure(workload, half)
    with tracing.Tracer() as tracer:
        traced = measure(workload, half, tracer)
    untraced_s = best_pass(untraced)[1]
    traced_s = best_pass(traced)[1]
    _, attempted, errors, defects = outcome_counts(untraced)
    checks = [s for log in untraced for s in log.check_s]
    metrics = {"import.numpy_s": (numpy_s, "s"),
               "import.pullbacklab_s": (package_s, "s")}
    metrics.update(tracing.layer_metrics(tracer, len(traced)))
    metrics.update({
        "cli.bytes_written": (statistics.median(
            log.bytes_written for log in untraced), "B"),
        "check_cpu_ms.p50": (1e3 * statistics.median(checks) if checks else 0.0,
                             "ms"),
        "fail_ratio": ((errors + defects) / attempted, "ratio"),
        "trace.untraced_pass_cpu_s": (untraced_s, "s"),
        "trace.traced_pass_cpu_s": (traced_s, "s"),
        "trace.overhead_cpu_s": (traced_s - untraced_s, "s"),
    })
    return untraced + traced, metrics


def run_workload(args):
    sys.path.insert(0, SRC)
    import pullbacklab
    if os.path.dirname(os.path.abspath(pullbacklab.__file__)) != \
            os.path.join(SRC, "pullbacklab"):
        print("error: imported pullbacklab from %s, not from this checkout"
              % pullbacklab.__file__, file=sys.stderr)
        return 2
    import inputs
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # the engine's own temporary files (``check``) stay in the checkout too
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        print("%s: seed %d, inputs sha256 %s" % (
            args.workload, args.seed, inputs.digest(workload.inputs)))
        if args.trace:
            workload.warm_up(workloads.PassLog())
            logs, metrics = per_layer(workload, args.seconds)
        else:
            fresh_import()  # may compile bytecode; not counted
            workload.warm_up(workloads.PassLog())
            imports = []
            logs = measure(workload, args.seconds, imports=imports)
            metrics = end_to_end(logs, statistics.median(imports))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    for line in report_lines(args.workload, logs, metrics):
        print(line)
    _, attempted, errors, _ = outcome_counts(logs)
    print(json.dumps({
        "correct": errors == 0, "attempted": attempted, "failed": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh interpreter; a table at the end."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rows.append((name, json.loads(lines[-1])))
    keys = list(rows[0][1]["metrics"])
    print("%-36s" % "metric" + "".join("%16s" % name for name, _ in rows))
    for key in keys:
        unit = rows[0][1]["metrics"][key]["unit"]
        print("%-36s" % ("%s [%s]" % (key, unit)) + "".join(
            "%16.6g" % res["metrics"][key]["value"] for _, res in rows))
    print("%-36s" % "failed/attempted (errors only)" + "".join(
        "%16s" % ("%d/%d" % (res["failed"], res["attempted"])) for _, res in rows))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pullbacklab", "__init__.py")):
        print("error: no engine sources at %s; run from a pullback-lab checkout"
              % os.path.join(SRC, "pullbacklab"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
