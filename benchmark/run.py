#!/usr/bin/env python3
"""Run the mlangevin benchmark and print every metric with its unit.

    python3 benchmark/run.py                        # all four workloads
    python3 benchmark/run.py --workload probes --seed 3 --seconds 32
    python3 benchmark/run.py --workload ou-d10-runs200 --trace 1

Each workload is set up once, then its timed call is repeated while one
more call, as slow as the slowest so far, fits in ``--seconds``.  With
``--trace 0`` the end-to-end metrics are printed: medians over the repeats
of the timed call's wall time and gradient evaluations per second, the
median set-up time over several fresh processes, and the process's peak RSS
up to the end of the first timed call.  With ``--trace 1`` the same
untraced repeats are followed by one traced repeat and the per-layer
metrics are printed instead (see ``tracing.py``).

Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full record,
with provenance, is written under ``benchmark/results/``.  The exit code is
0 when every check passed, 1 when one failed and 2 when the benchmark could
not run (for example, without the package sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEFAULT_SECONDS = 32  # run_seconds in BENCHMARK.json
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported.

    Level scheduling is left at the library's serial default: the benchmark
    passes no thread count and drops any inherited override.
    """
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cap):
            os.environ[var] = str(cap)
    os.environ.pop("MLANGEVIN_THREADS", None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _last_level_cache() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
        "command": list(sys.orig_argv),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def time_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its estimator call.

    The child imports the package and runs the workload's set-up, then
    reports that it is ready; import costs are paid once per process, so
    set-up is sampled in fresh processes.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child for {name} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[name]
    setup_samples = ([] if trace else
                     [time_setup(name, seed) for _ in range(SETUP_SAMPLES)])
    state = workload.setup(seed)
    outcomes = []
    start = time.perf_counter()
    while True:
        outcome, _ = workload.measure(state)
        outcomes.append(outcome)
        if len(outcomes) == 1:
            # later repeats only add allocator fragmentation, which varies
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + max(o.wall_s for o in outcomes) > seconds:
            break
    walls = [o.wall_s for o in outcomes]
    record = {
        "workload": name,
        "repeats": len(outcomes),
        "wall_s_samples": walls,
        "setup_s_samples": setup_samples,
    }
    if trace:
        tracer = tracing.Tracer()
        traced_state = workload.setup(seed, tracer.span)
        with tracer:
            traced, outputs = workload.measure(traced_state, tracer.span)
        outcomes.append(traced)
        micro = tracing.microbenchmarks(workload, state)
        values, absent = tracing.layer_metrics(
            tracer, workload, traced_state, outputs, traced.wall_s,
            statistics.median(walls), micro)
        metrics = {k: _metric(values[k], unit)
                   for k, (unit, _) in tracing.LAYER_METRICS.items()}
        record["traced_wall_s"] = traced.wall_s
        record["absent"] = absent
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "grad_evals_per_s": _metric(statistics.median(
                o.grad_evals / o.wall_s for o in outcomes), "1/s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    record.update(
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        failures=[f for o in outcomes for f in o.failures],
        metrics=metrics)
    return record


def _report(record: dict) -> None:
    print(f"== {record['workload']}: {record['repeats']} untraced repeats, "
          f"wall_s samples {[round(w, 4) for w in record['wall_s_samples']]}")
    wall = statistics.median(record["wall_s_samples"])
    for name, m in record["metrics"].items():
        value = m["value"]
        text = "absent" if value is None else f"{value:.6g} {m['unit']}"
        if value is not None and name.endswith("self_s"):
            share = 100.0 * value / record["traced_wall_s"]
            text += f"  ({share:.1f}% of traced wall_s)"
        print(f"  {name:32s} {text}")
    for metric, reason in record.get("absent", {}).items():
        print(f"  absent {metric}: {reason}")
    for failure in record["failures"][:20]:
        print(f"  FAIL {failure}")
    print(f"  checks: {record['failed']} failed of {record['attempted']} "
          f"(untraced wall median {wall:.4f} s)")


def _parse(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workload_names + ["all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.setup_child and args.workload == "all":
        p.error("--setup-child needs one workload")
    return args


def main(argv=None) -> int:
    cap_threads()
    try:
        import workloads as wl
    except ImportError as err:
        print(f"error: cannot load the package under test: {err}",
              file=sys.stderr)
        return 2
    args = _parse(argv, list(wl.WORKLOADS))
    if args.setup_child:
        wl.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for record in records:
        _report(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": m
                   for r in records for k, m in r["metrics"].items()}
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}{'-trace' if args.trace else ''}.json"
    out.write_text(json.dumps({"provenance": prov, "records": records,
                               "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
