"""Tests of the benchmark itself: its oracle, its span arithmetic and its runs.

Run with ``python3 -m pytest benchmarks/tests -q`` from the repository root.
The end-to-end cases use the tiny ``--smoke`` size of each workload.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rafsim import core  # noqa: E402


@pytest.fixture(scope="module")
def long_trace():
    inputs = workloads.make_inputs("long_trace", 3, smoke=True)
    signal = core.InputSignal(dense=np.array(inputs["dense"]), events=inputs["events"])
    inc = signal.impulse_increments(inputs["dt"], inputs["n_steps"])
    ref = oracle.long_trace_reference(inputs, inc)
    params = core.RafParams(**inputs["params"])
    trace = core.simulate(params, signal, inputs["dt"], inputs["n_steps"])
    return trace, ref, params.theta


def check(trace, ref, theta, u=None, v=None, z=None):
    return oracle.check_states(trace.u if u is None else u, trace.v if v is None else v,
                               trace.z if z is None else z,
                               ref["u"], ref["v"], ref["z"], theta, ref["scale"])


class TestOracle:
    def test_accepts_the_exact_trace(self, long_trace):
        assert check(*long_trace) is None

    def test_rejects_one_sample_nudged_by_1e_6(self, long_trace):
        trace, ref, theta = long_trace
        v = trace.v.copy()
        k = int(np.argmax(np.abs(v)))
        v[k] *= 1.0 + 1e-6
        assert "state error" in check(trace, ref, theta, v=v)

    def test_rejects_a_spike_flipped_far_from_theta(self, long_trace):
        trace, ref, theta = long_trace
        z = trace.z.copy()
        k = int(np.argmax(np.abs(ref["v"] - theta)))
        assert abs(ref["v"][k] - theta) > 0.1 * ref["scale"]
        z[k] = 1 - z[k]
        assert "spike flags" in check(trace, ref, theta, z=z)

    def test_allows_a_flip_within_tolerance_of_theta(self, long_trace):
        trace, ref, _ = long_trace
        theta = float(ref["v"][7])  # threshold sitting on a reference sample
        ref = dict(ref, z=ref["v"] >= theta)
        z = trace.v >= theta
        z[7] = not z[7]
        assert check(trace, ref, theta, z=z) is None

    def test_rejects_a_csv_with_dt_rounded(self, long_trace, tmp_path):
        trace = long_trace[0]
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = core.StateTrace.from_csv(path)
        assert oracle.check_roundtrip(trace, back) is None
        rounded = core.StateTrace(dt=float(f"{trace.dt:.6g}"), u=back.u, v=back.v, z=back.z)
        assert "dt" in oracle.check_roundtrip(trace, rounded)

    def test_sweep_check_needs_every_point_and_the_peak(self):
        freqs = [150.0, 200.0, 250.0]
        ref = {"responses": np.array([1.0, 3.0, 2.0])}
        assert oracle.check_sweep([1.0, 3.0, 2.0], ref, freqs, 200.0) is None
        assert "sweep point 2" in oracle.check_sweep([1.0, 3.0, 2.0 + 1e-6], ref, freqs, 200.0)
        off_peak = {"responses": np.array([1.0, 3.0, 4.0])}
        assert "peaks at" in oracle.check_sweep([1.0, 3.0, 4.0], off_peak, freqs, 200.0)

    def test_misbinned_count_from_histograms(self):
        dt, n = 0.1, 5
        times = [0.05, 0.15, 0.25, 0.35]  # exact bins 0, 1, 2, 3
        assert oracle.misbinned_events(times, dt, n, [1, 1, 1, 1, 0]) == 0
        assert oracle.misbinned_events(times, dt, n, [1, 0, 2, 1, 0]) == 1
        assert oracle.misbinned_events(times, dt, n, [1, 0, 1, 1, 1]) == 3  # a chain of moves

    def test_exact_bin_is_rational(self):
        dt = 1e-4
        t = 5 * dt  # lies below 5 * dt in exact arithmetic, though t / dt rounds to 5.0
        assert int(t / dt) == 5
        assert oracle.exact_bin(t, dt, 10) == 4


def span(name, start, end, parent=-1, info=None):
    return tracer.Span(name, start, end, parent, 0, info)


class TestSpans:
    # op [0, 100] holds A [10, 50] and B [60, 90]; A holds a1 [20, 30] and the
    # overlapping a2 [25, 40]; B holds b1 [80, 95], which runs past B's end.
    TREE = [span("op", 0, 100), span("A", 10, 50, 0), span("a1", 20, 30, 1),
            span("a2", 25, 40, 1), span("B", 60, 90, 0), span("b1", 80, 95, 4)]

    def test_self_time_subtracts_covered_child_time(self):
        assert tracer.self_times(self.TREE) == [30, 20, 10, 15, 20, 15]

    def test_covered_merges_and_clips(self):
        assert tracer.covered([(5, 15), (0, 2), (12, 30)], 1, 20) == 1 + 15
        assert tracer.covered([], 0, 10) == 0

    def test_layer_metrics_of_a_synthetic_unit(self):
        key = (1.0, 1.0, 0.0, 0.0, 1e-3)
        spans = [span("op", 0, 1000), span("step", 0, 900, 0),
                 span("transition_terms", 100, 300, 1, key),
                 span("transition_terms", 400, 600, 1, key),
                 span("transition_terms", 700, 800, 1, key[:4] + (2e-3,))]
        m, share = tracer.layer_metrics(spans, unit_counts=None, probe_ref_ns=10)
        assert m["step.calls"] == 1
        assert m["step.self_us_per_call"] == pytest.approx(0.4)
        assert m["transition_terms.calls"] == 3
        assert m["transition_terms.useful_ratio"] == pytest.approx(2 / 3)
        assert m["transition_terms.us_per_call"] == pytest.approx(0.5 / 3)
        assert m["trace.coverage"] == 0.9
        assert share == pytest.approx({"step": 4 / 9, "transition_terms": 5 / 9})

    def test_layer_times_scale_to_the_reference_speed(self):
        # Probes of 10, 20 and 10 ns against a 10 ns reference: each step ran
        # at 2/3 of the reference speed. Probe time is not op time.
        spans = [span("op", 0, 1000), span("probe", 0, 10, 0), span("step", 10, 410, 0),
                 span("probe", 410, 430, 0), span("step", 430, 830, 0),
                 span("probe", 830, 840, 0)]
        m, _ = tracer.layer_metrics(spans, unit_counts=None, probe_ref_ns=10)
        assert m["step.self_us_per_call"] == pytest.approx(0.4 * 10 / 15)
        assert m["trace.coverage"] == pytest.approx(800 / 960)

    def test_tracer_nests_spans_and_restores_the_api(self):
        originals = (core.simulate, core.InputSignal.__init__, vars(core.StateTrace)["from_csv"])
        p = core.RafParams(omega_u=2 * math.pi * 100, omega_v=2 * math.pi * 100)
        tr = tracer.Tracer()
        with tr.installed(core):
            trace = tr.run_op(0, lambda: core.simulate(p, core.InputSignal.impulse(1.0), 1e-4, 10))
        assert (core.simulate, core.InputSignal.__init__,
                vars(core.StateTrace)["from_csv"]) == originals
        names = [s.name for s in tr.spans]
        by_name = {s.name: s for s in tr.spans}
        assert names[:3] == ["op", "impulse", "InputSignal"]
        assert tr.spans[by_name["simulate"].parent].name == "op"
        assert tr.spans[by_name["transition_terms"].parent].name == "simulate"
        assert by_name["simulate"].info == len(trace) == 10
        assert all(s.op == 0 for s in tr.spans)


class TestTimer:
    def test_scales_calls_by_the_probes_around_them(self):
        timer = worker.Timer(probe=iter([worker.PROBE_REF_S, 2 * worker.PROBE_REF_S]).__next__)
        timer.start_op()
        assert timer.call(sum, [1, 2]) == 3
        timer.flush()
        assert timer.scaled_ns[0] == pytest.approx(timer.raw_ns[0] / 1.5)

    def test_probe_time_is_not_op_time(self):
        def slow_probe():
            time.sleep(0.05)
            return worker.PROBE_REF_S

        timer = worker.Timer(probe=slow_probe)
        timer.start_op()
        timer.call(sum, [1])
        timer.flush()
        timer.call(sum, [2])
        timer.flush()
        assert timer.raw_ns[0] < 0.01e9
        assert timer.scaled_ns[0] == pytest.approx(timer.raw_ns[0])


class TestExactCounts:
    def worker(self, calls, ms):
        layers = {name: 0 for name, *_ in tracer.PER_LAYER}
        layers.update({"step.calls": calls, "step.self_us_per_call": ms})
        return {"layers": layers, "self_share": {"step": 1.0},
                "latencies_ns": [1.0], "traced_latencies_ns": [1.1]}

    def test_times_are_averaged_and_counts_kept(self, tmp_path):
        m, _ = run.per_layer([self.worker(64, 1.0), self.worker(64, 3.0)], tmp_path / "c.json")
        assert m["step.calls"] == 64 and m["step.self_us_per_call"] == 2.0
        assert m["trace.overhead_frac"] == pytest.approx(0.1)

    def test_fails_when_workers_disagree(self, tmp_path):
        with pytest.raises(run.RunError, match="between worker processes"):
            run.per_layer([self.worker(64, 1.0), self.worker(65, 1.0)], tmp_path / "c.json")

    def test_fails_when_an_earlier_run_counted_otherwise(self, tmp_path):
        ledger = tmp_path / "c.json"
        run.per_layer([self.worker(64, 1.0)], ledger)
        run.per_layer([self.worker(64, 2.0)], ledger)
        with pytest.raises(run.RunError, match="earlier run"):
            run.per_layer([self.worker(63, 1.0)], ledger)


class TestInputs:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, name):
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
        assert workloads.make_inputs(name, 5) != workloads.make_inputs(name, 6)

    def test_online_population_covers_every_propagator_branch(self):
        discs = []
        for nrn in workloads.make_inputs("online_step", 1)["neurons"]:
            p = core.RafParams(**nrn["params"])
            delta = 0.5 * (p.k_u - p.k_v)
            discs.append(p.omega_u * p.omega_v - delta * delta)
        assert any(d > 0 for d in discs) and any(d < 0 for d in discs)
        assert discs.count(0.0) >= 20

    def test_a_quarter_of_long_trace_events_on_step_boundaries(self):
        inputs = workloads.make_inputs("long_trace", 1)
        dt = inputs["dt"]
        on_grid = sum(t == round(t / dt) * dt for t, _ in inputs["events"])
        assert len(inputs["events"]) == 20_000 and on_grid >= 5_000


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_result_line(name, trace):
    proc = bench("--workload", name, "--seed", "4", "--seconds", "0.3", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared("per_layer" if trace == "1" else "end_to_end")
    assert json.loads(record)["record"]["provenance"]["nproc"] >= 1


def test_declared_metrics_and_workloads_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [row[:3] for row in tracer.PER_LAYER])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "online_step", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
