"""rafsim benchmark: three workloads, end-to-end metrics and a traced run.

    python3 benchmarks/run.py --workload long_trace --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Load model: a closed loop with one caller, in one process and one thread,
that waits on each call; BLAS and OpenMP pools are pinned to one thread.
A run computes the oracle's reference for its seed, then starts worker
processes one after another (worker.py). Each fresh worker times
``import rafsim`` through the end of its first op (set-up), then runs timed
ops within its share of ``--seconds`` and checks every op against the
reference outside the timed interval; times are scaled to a reference host
speed (see worker.py), and raw wall times go to the record. With ``--trace 1`` each worker then
runs one traced unit of work, and the run reports per-layer metrics; the
exact counts among them must agree between the workers and with earlier
runs of the same seed and code, or the run fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's record: sample counts, the oracle verdict and provenance.
Scratch files live under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracle
import tracer
import workloads
from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0  # every run ends within 180 s

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_msteps_s", "Msteps/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]
# Fresh worker processes per run: each gives one set-up sample.
WORKERS = {False: 3, True: 2}


class RunError(Exception):
    """The run could not produce a trustworthy result."""


def reference(name, inputs, core):
    if name == "long_trace":
        # The dynamics are checked on the program's own impulse binning.
        events = inputs["events"]
        inc = core.InputSignal(events=events).impulse_increments(inputs["dt"], inputs["n_steps"])
        lost = abs(float(np.sum(inc)) - math.fsum(a for _, a in events))
        if not lost <= 1e-9 * math.fsum(abs(a) for _, a in events):
            raise RunError(f"impulse_increments lost {lost!r} of the impulse total")
        return oracle.long_trace_reference(inputs, inc)
    if name == "freq_sweep":
        return oracle.freq_sweep_reference(inputs)
    return oracle.online_step_reference(inputs)


def import_rafsim():
    src = ROOT / "src"
    if not (src / "rafsim" / "core.py").is_file():
        raise RunError(f"no rafsim sources under {src}")
    sys.path.insert(0, str(src))
    import rafsim.core as core

    if src.resolve() not in Path(core.__file__).resolve().parents:
        raise RunError(f"rafsim was imported from {core.__file__}, not from {src}")
    return core


def run_worker(spec, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker ran past the run's {RUN_LIMIT_S:g} s limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p99(values):
    """Nearest-rank 99th percentile when at least ten values lie beyond it.

    Below 1000 values no such tail exists (long_trace and freq_sweep run a
    few long ops), and the median stands in for it.
    """
    ordered = sorted(values)
    if len(ordered) < 1000:
        return statistics.median(ordered)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(workers, steps_per_op, raw=False):
    """End-to-end metrics; ``raw`` takes the unscaled wall times."""
    prefix = "raw_" if raw else ""
    lat = [x for w in workers for x in w[prefix + "latencies_ns"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    return {
        "setup_s": statistics.median(w[prefix + "setup_s"] for w in workers),
        # Steps per second of the median op: a long-op workload has too few
        # ops for a total over them to be steady.
        "throughput_msteps_s": steps_per_op / statistics.median(lat) * 1e3,
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p99_ms": p99(lat) / 1e6,
        "peak_rss_mb": max(w["maxrss_kb"] for w in workers) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }, len(lat)


def per_layer(workers, ledger):
    """Layer metrics of the traced units: exact counts must agree, times are averaged."""
    first = workers[0]["layers"]
    for w in workers[1:]:
        diff = {k: (first[k], w["layers"][k]) for k in tracer.EXACT
                if first[k] != w["layers"][k]}
        if diff:
            raise RunError(f"exact counts differ between worker processes: {diff}")
    counts = {k: first[k] for k in sorted(tracer.EXACT)}
    if ledger.exists():
        seen = json.loads(ledger.read_text())
        if seen != counts:
            diff = {k: (seen.get(k), v) for k, v in counts.items() if seen.get(k) != v}
            raise RunError(f"exact counts differ from an earlier run ({ledger.name}): {diff}")
    else:
        tmp = ledger.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, indent=1))
        os.replace(tmp, ledger)

    metrics = {k: statistics.fmean(w["layers"][k] for w in workers) for k in first}
    metrics.update(counts)
    untraced = [x for w in workers for x in w["latencies_ns"]]
    traced = [x for w in workers for x in w["traced_latencies_ns"]]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    share = {k: statistics.fmean(w["self_share"].get(k, 0.0) for w in workers)
             for k in workers[0]["self_share"]}
    return metrics, share


def source_hash():
    """Hash of the program's and the benchmark's sources: the key of the count ledger."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rafsim").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(load_before, src_hash):
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "rafsim").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        **git_state(),
        "source_sha256": src_hash,
        "src_rafsim_lines": src_lines,
    }


def run_workload(name, seed, seconds, trace, smoke):
    """One run of one workload; returns (result, record)."""
    load_before = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    core = import_rafsim()
    inputs = workloads.make_inputs(name, seed, smoke)
    ref = reference(name, inputs, core)
    n_workers = WORKERS[trace]
    seconds_each = seconds / n_workers / (2 if trace else 1)
    src_hash = source_hash()
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        np.savez(work / "reference.npz", **ref)
        workers = [run_worker({"root": str(ROOT), "workload": name, "seed": seed,
                               "smoke": smoke, "seconds": seconds_each, "trace": trace,
                               "workdir": str(work), "reference": str(work / "reference.npz"),
                               "spans": str(OUT / f"spans-{tag}-w{k}.csv")}, deadline)
                   for k in range(n_workers)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    e2e, samples = end_to_end(workers, int(ref["steps_per_op"]))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "op_samples": samples, "setup_samples": n_workers,
              "failed_frac": failed / attempted,
              "oracle": {"verdict": "pass" if failed == 0 else "fail", "rtol": oracle.RTOL,
                         "errors": [e for w in workers for e in w["errors"]][:5]}}
    if trace:
        ledger = OUT / f"counts-{tag}-{src_hash[:16]}.json"
        metrics, record["self_share"] = per_layer(workers, ledger)
        units = {m: unit for m, unit, _, _ in tracer.PER_LAYER}
    else:
        metrics, units = e2e, {m: unit for m, unit, _ in END_TO_END}
        record["end_to_end"] = e2e
        record["raw_wall_end_to_end"] = end_to_end(workers, int(ref["steps_per_op"]), raw=True)[0]
    probes = [x / PROBE_REF_S for w in workers for x in w["probe_s"]]
    record["probe_time_over_ref"] = {"median": statistics.median(probes),
                                     "min": min(probes), "max": max(probes)}
    record["provenance"] = provenance(load_before, src_hash)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()}}
    return result, record


def print_table(rows):
    print(f"{'workload':<12} {'metric':<38} {'value':>16}  unit")
    for workload, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{workload:<12} {metric:<38} {m['value']:>16.6g}  {m['unit']}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:<12} {'failed_frac':<38} {failed / attempted:>16.6g}  ratio "
              f"({failed} of {attempted} ops)")
        print(f"{workload:<12} {'oracle verdict':<38} "
              f"{'pass' if result['correct'] else 'FAIL':>16}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    # Pinned for the workers, which inherit this environment.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows, records = [], []
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.smoke)
            rows.append((name, result))
            records.append(record)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_table(rows)
    for record in records:
        print(json.dumps({"record": record}))
    if len(rows) == 1:
        result = rows[0][1]
    else:
        result = {"correct": all(r["correct"] for _, r in rows),
                  "attempted": sum(r["attempted"] for _, r in rows),
                  "failed": sum(r["failed"] for _, r in rows),
                  "metrics": {f"{n}.{m}": v for n, r in rows for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
