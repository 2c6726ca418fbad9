"""Spans around rafsim's public layers, recorded from outside the program.

``Tracer.installed(core)`` replaces every public function of ``rafsim.core``
and the methods of ``InputSignal`` and ``StateTrace`` with timing wrappers,
and puts the originals back on exit. Each call leaves one span: its name,
start and end (``perf_counter_ns``), the id of the span that was open when
it started, and the id of the benchmark op it belongs to. Spans stay in
memory; ``write_spans`` writes them out once the run is over.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Layer times are reported at the worker's reference
host speed (see worker.py), using the ``probe`` spans between calls.
"""

from __future__ import annotations

import bisect
import csv
import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from oracle import misbinned_events

# Work counts of the recurrence loop in simulate, computed from array sizes:
# u' = m00*u + m01*v + inc_u and v' = m10*u + m11*v + inc_v take 4 multiplies
# and 4 adds; the loop reads inc_u and inc_v and writes u, v (float64) and z (int8).
FLOPS_PER_STEP = 8
BYTES_PER_STEP = 2 * 8 + 2 * 8 + 1

# (name, unit, better, exact): an exact metric is a count that must repeat
# bit for bit across runs of one seed.
PER_LAYER = [
    ("InputSignal.self_ms", "ms", "lower", False),
    ("impulse_increments.events", "count", "lower", True),
    ("impulse_increments.ns_per_event", "ns", "lower", False),
    ("impulse_increments.misbinned_events", "count", "lower", True),
    ("transition_terms.calls", "count", "lower", True),
    ("transition_terms.us_per_call", "us", "lower", False),
    ("transition_terms.useful_ratio", "ratio", "higher", True),
    ("input_vector.calls", "count", "lower", True),
    ("input_vector.us_per_call", "us", "lower", False),
    ("input_vector.useful_ratio", "ratio", "higher", True),
    ("simulate.steps", "count", "lower", True),
    ("simulate.self_ms", "ms", "lower", False),
    ("simulate.ns_per_step", "ns", "lower", False),
    ("simulate.flops_computed", "flop", "lower", True),
    ("simulate.bytes_computed", "B", "lower", True),
    ("step.calls", "count", "lower", True),
    ("step.self_us_per_call", "us", "lower", False),
    ("resonance_response.self_ms", "ms", "lower", False),
    ("to_csv.ms", "ms", "lower", False),
    ("to_csv.bytes", "B", "lower", True),
    ("to_csv.mb_s", "MB/s", "higher", False),
    ("from_csv.ms", "ms", "lower", False),
    ("from_csv.bytes", "B", "lower", True),
    ("from_csv.mb_s", "MB/s", "higher", False),
    ("trace.overhead_frac", "ratio", "lower", False),
    ("trace.coverage", "ratio", "higher", False),
]
EXACT = {name for name, _, _, exact in PER_LAYER if exact}


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 for none
    op: int
    info: object  # what the layer's metrics need, taken after the span ended


def _args(args, kwargs, result):
    return args


def _size_of_path_arg(args, kwargs, result):
    return os.path.getsize(args[1])


def _trace_size(args, kwargs, result):
    return int(np.size(result.u))


# What each layer keeps from its call for the metrics below.
INFO = {
    "transition_terms": _args,
    "input_vector": _args,
    "impulse_increments": _args,  # (signal, dt, n_steps)
    "simulate": _trace_size,
    "to_csv": _size_of_path_arg,
    "from_csv": _size_of_path_arg,  # (cls, path)
}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter_ns, INFO.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, returned = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.op,
                                  info(args, kwargs, result) if info and returned else None)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op inside an ``op`` span."""
        self.op = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = -1

    @contextmanager
    def installed(self, core):
        """Trace rafsim.core's public functions and class methods, then restore them."""
        saved = []
        for name in core.__all__:
            obj = getattr(core, name)
            if inspect.isfunction(obj):
                saved.append((core, name, obj))
        for cls in (core.InputSignal, core.StateTrace):
            for attr, obj in vars(cls).items():
                if attr == "__init__" or not attr.startswith("_"):
                    saved.append((cls, attr, obj))
        try:
            for owner, attr, obj in saved:
                name = owner.__name__ if attr == "__init__" else attr
                if isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self.wrap(name, obj.__func__))
                elif inspect.isfunction(obj):
                    new = self.wrap(name, obj)
                else:  # properties and plain attributes stay as they are
                    continue
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, obj in saved:
                setattr(owner, attr, obj)

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "op"])
            for sid, s in enumerate(self.spans):
                writer.writerow([sid, s.name, s.start, s.end, s.parent, s.op])


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span, its duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[sid], s.start, s.end)
            for sid, s in enumerate(spans)]


def _key(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    return value


def speed_scales(spans, probe_ref_ns):
    """Per span, the factor that takes its time to the reference host speed.

    ``probe`` spans time the worker's speed probe between rafsim calls; a
    span between two probes is scaled by probe_ref_ns over their mean time.
    """
    probes = [(s.start, s.end - s.start) for s in spans if s.name == "probe"]
    starts = [start for start, _ in probes]
    scales = []
    for s in spans:
        k = bisect.bisect_right(starts, s.start)
        around = [probes[j][1] for j in (k - 1, k) if 0 <= j < len(probes)]
        scales.append(probe_ref_ns / statistics.fmean(around) if around else 1.0)
    return scales


def layer_metrics(spans, unit_counts, probe_ref_ns):
    """Per-layer metrics of one traced unit of work, at the reference speed.

    ``unit_counts(signal, dt, n_steps)`` returns how many events the program
    puts in each step when every impulse has amplitude 1; it is how the
    misbinned count observes the program's binning. Returns the metrics and
    each layer's share of the self time of all layers.
    """
    selfs = self_times(spans)
    scales = speed_scales(spans, probe_ref_ns)
    probe_ns = defaultdict(int)  # per op span, the time its probes took
    for s in spans:
        if s.name == "probe" and s.parent >= 0:
            probe_ns[s.parent] += s.end - s.start
    calls, self_ns, total_ns = defaultdict(int), defaultdict(float), defaultdict(float)
    keys = defaultdict(set)
    steps = events = misbinned = 0
    io_bytes = defaultdict(int)
    op_ns = op_covered = 0
    for sid, (s, own, scale) in enumerate(zip(spans, selfs, scales)):
        if s.name == "probe":
            continue
        if s.name == "op":
            op_ns += s.end - s.start - probe_ns[sid]
            op_covered += s.end - s.start - own - probe_ns[sid]
            continue
        calls[s.name] += 1
        self_ns[s.name] += own * scale
        total_ns[s.name] += (s.end - s.start) * scale
        if s.info is None:
            continue
        if s.name in ("transition_terms", "input_vector"):
            keys[s.name].add(tuple(_key(a) for a in s.info))
        elif s.name == "simulate":
            steps += s.info
        elif s.name == "impulse_increments":
            signal, dt, n_steps = s.info
            times = [t for t, _ in signal.events]
            events += len(times)
            if times:
                misbinned += misbinned_events(times, dt, n_steps,
                                              unit_counts(signal, dt, n_steps))
        elif s.name in ("to_csv", "from_csv"):
            io_bytes[s.name] += s.info

    layer_ns = sum(self_ns.values())
    share = {name: ns / layer_ns for name, ns in self_ns.items()} if layer_ns else {}

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "InputSignal.self_ms": self_ns["InputSignal"] / 1e6,
        "impulse_increments.events": events,
        "impulse_increments.ns_per_event": per(self_ns["impulse_increments"], events),
        "impulse_increments.misbinned_events": misbinned,
        "simulate.steps": steps,
        "simulate.self_ms": self_ns["simulate"] / 1e6,
        "simulate.ns_per_step": per(self_ns["simulate"], steps),
        "simulate.flops_computed": FLOPS_PER_STEP * steps,
        "simulate.bytes_computed": BYTES_PER_STEP * steps,
        "step.calls": calls["step"],
        "step.self_us_per_call": per(self_ns["step"], calls["step"], 1e-3),
        "resonance_response.self_ms": self_ns["resonance_response"] / 1e6,
        "trace.coverage": per(op_covered, op_ns),
    }
    for name in ("transition_terms", "input_vector"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.us_per_call"] = per(self_ns[name], calls[name], 1e-3)
        m[f"{name}.useful_ratio"] = per(len(keys[name]), calls[name])
    for name in ("to_csv", "from_csv"):
        m[f"{name}.ms"] = total_ns[name] / 1e6
        m[f"{name}.bytes"] = io_bytes[name]
        m[f"{name}.mb_s"] = per(io_bytes[name], total_ns[name], 1e3)
    return m, share
