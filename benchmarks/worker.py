"""One benchmark process: set-up, timed ops and, when tracing, one traced unit.

run.py starts it with a JSON spec on standard input and reads the JSON
result from the last line of its standard output. The process builds its
inputs first, then times ``import rafsim`` through the end of the first op
as set-up, then runs timed ops within its share of the run's seconds (at
least one), checking each op's output against the oracle's reference
outside the timed interval. In trace mode it then runs one traced unit.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

import workloads

# The host's speed swings by up to 2x within a fraction of a second (a
# 2-vCPU Xeon VM shared with other tenants; no steal time is reported), and
# rafsim's numpy-scalar work and a short loop of the same kind slow down
# together. So the benchmark times each rafsim call of an op, runs a probe
# loop between calls once PROBE_EVERY_NS of calls have run since the last
# probe, and scales each call's time by PROBE_REF_S over the mean of the
# two probes around it. Reported times are times at that reference speed:
# PROBE_REF_S is the probe's time on that VM when it runs fast. Raw wall
# times stay in the run's record.
PROBE_REF_S = 2.0e-3
PROBE_EVERY_NS = 10_000_000
PROBE_STEPS = 500


def probe_seconds():
    """Time one fixed loop of numpy-scalar rotations, the kind of work rafsim's step loop does."""
    import numpy as np

    c, s = np.array(math.cos(0.01)), np.array(math.sin(0.01))
    out = np.empty(PROBE_STEPS)
    u, v = 1.0, 0.0
    t = time.perf_counter()
    for i in range(PROBE_STEPS):
        u, v = c * u - s * v + 1e-3, s * u + c * v
        if not (np.isfinite(u) and np.isfinite(v)):
            raise ArithmeticError("probe diverged")
        out[i] = u
    return time.perf_counter() - t


class Timer:
    """Times the rafsim calls of each op, raw and at the reference speed.

    Ops make every rafsim call through ``call``. An op's latency is the sum
    of its calls' times; the benchmark's own code between calls and the
    probes are left out.
    """

    def __init__(self, probe=probe_seconds):
        self.probe = probe
        self.probes = [probe()]
        # Per op, in the order started; flat arrays keep the benchmark's own
        # memory small next to the program's peak RSS.
        self.raw_ns = array("d")
        self.scaled_ns = array("d")
        self._pending = []  # (op, ns) of calls since the last probe
        self._since = 0

    def start_op(self):
        self.raw_ns.append(0.0)
        self.scaled_ns.append(0.0)

    def call(self, fn, *args, **kwargs):
        t = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ns = time.perf_counter_ns() - t
            op = len(self.raw_ns) - 1
            self.raw_ns[op] += ns
            self._pending.append((op, ns))
            self._since += ns
            if self._since >= PROBE_EVERY_NS:
                self.flush()

    def flush(self):
        """Probe now and scale the calls made since the last probe."""
        self.probes.append(self.probe())
        speed = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        for op, ns in self._pending:
            self.scaled_ns[op] += ns * speed
        self._pending.clear()
        self._since = 0


def main():
    spec = json.loads(sys.stdin.read())
    root = Path(spec["root"])
    inputs = workloads.make_inputs(spec["workload"], spec["seed"], spec["smoke"])

    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import rafsim.core as core
    import ops

    op = ops.OPS[spec["workload"]](core, inputs, spec["workdir"])
    build_s = time.perf_counter() - t0
    timer = Timer()
    timer.start_op()
    first = op.run(0, timer.call)
    timer.flush()
    # Set-up: the import, the op's construction and the first op's calls.
    raw_setup_s = build_s + timer.raw_ns[0] / 1e9
    setup_s = build_s * PROBE_REF_S / timer.probes[0] + timer.scaled_ns[0] / 1e9

    src = (root / "src").resolve()
    if src not in Path(core.__file__).resolve().parents:
        raise SystemExit(f"rafsim was imported from {core.__file__}, not from {src}")

    import numpy as np

    with np.load(spec["reference"]) as data:
        ref = {k: data[k] for k in data.files}
    errors = []
    failed = 0

    def fail(reason):
        nonlocal failed
        failed += 1
        if len(errors) < 5:
            errors.append(reason)

    def check(i, out):
        reason = op.check(i, out, ref)
        if reason:
            fail(f"op {i}: {reason}")

    check(0, first)
    del first

    def run_ops(timer, run, start, until=None, count=None):
        """Run `count` ops from index start, or ops until one more as long as
        the last would end past time `until` (at least one op); return their
        indices."""
        i = start
        while True:
            began = time.perf_counter()
            timer.start_op()
            try:
                out = run(i, timer.call)
            except Exception:  # an op that raises counts as failed
                fail(f"op {i} raised:\n{traceback.format_exc()}")
            else:
                check(i, out)
            i += 1
            now = time.perf_counter()
            if i - start == count or until is not None and 2 * now - began >= until:
                timer.flush()
                return range(start, i)

    timed = run_ops(timer, op.run, 1, until=time.perf_counter() + spec["seconds"])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
              "latencies_ns": timer.scaled_ns[1:].tolist(),
              "raw_latencies_ns": timer.raw_ns[1:].tolist(),
              "probe_s": timer.probes, "maxrss_kb": maxrss_kb}
    attempted = 1 + len(timed)

    if spec["trace"]:
        import tracer

        tr = tracer.Tracer()
        with tr.installed(core):
            traced_timer = Timer(tr.wrap("probe", probe_seconds))
            traced = run_ops(traced_timer, lambda i, call: tr.run_op(i, op.run, i, call),
                             timed.stop, count=op.unit_ops)

        def unit_counts(signal, dt, n_steps):
            unit = core.InputSignal(events=[(t, 1.0) for t, _ in signal.events])
            return unit.impulse_increments(dt, n_steps)

        layers, share = tracer.layer_metrics(tr.spans, unit_counts, PROBE_REF_S * 1e9)
        tr.write_spans(spec["spans"])
        result.update(traced_latencies_ns=traced_timer.scaled_ns.tolist(),
                      layers=layers, self_share=share)
        attempted += len(traced)

    result.update(attempted=attempted, failed=failed, errors=errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
