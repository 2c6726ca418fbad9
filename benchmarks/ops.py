"""One op of each workload, driving rafsim only through its public API.

``run(i, call)`` makes op i's rafsim calls through ``call(fn, *args)``,
which times them. Ops look up ``core.<name>`` at call time, so the tracer's
patched functions and methods are the ones that run. ``check`` compares an
op's output with the oracle's reference and returns None or the reason the
op failed.
"""

from __future__ import annotations

import os

import numpy as np

import oracle


class LongTrace:
    """Build the input signal, simulate 100k steps, write and re-read the CSV."""

    unit_ops = 1  # ops in one traced unit

    def __init__(self, core, inputs, workdir):
        self.core = core
        self.params = core.RafParams(**inputs["params"])
        self.dense = np.array(inputs["dense"])
        self.events = inputs["events"]
        self.dt, self.n_steps = inputs["dt"], inputs["n_steps"]
        self.path = os.path.join(workdir, f"trace-{os.getpid()}.csv")

    def run(self, i, call):
        core = self.core
        signal = call(core.InputSignal, dense=self.dense, events=self.events)
        trace = call(core.simulate, self.params, signal, self.dt, self.n_steps)
        call(trace.to_csv, self.path)
        return trace, call(core.StateTrace.from_csv, self.path)

    def check(self, i, out, ref):
        trace, back = out
        return (oracle.check_states(trace.u, trace.v, trace.z, ref["u"], ref["v"], ref["z"],
                                    self.params.theta, ref["scale"])
                or oracle.check_roundtrip(trace, back))


class FreqSweep:
    """One resonance_response call per drive frequency of the sweep."""

    unit_ops = 1

    def __init__(self, core, inputs, workdir):
        self.core = core
        self.params = core.RafParams(**inputs["params"])
        self.freqs = inputs["freqs"]
        self.amplitude, self.duration, self.f0 = (
            inputs["amplitude"], inputs["duration"], inputs["f0"])

    def run(self, i, call):
        core = self.core
        return [call(core.resonance_response, self.params, f, self.amplitude, self.duration)
                for f in self.freqs]

    def check(self, i, out, ref):
        return oracle.check_sweep(out, ref, self.freqs, self.f0)


class OnlineStep:
    """One ``step`` call; op i steps neuron i % N at tick (i // N) % ticks.

    The population restarts from its initial states every episode of
    ``n_ticks`` ticks, so the oracle's one-episode reference covers every op.
    """

    def __init__(self, core, inputs, workdir):
        self.core = core
        neurons = inputs["neurons"]
        self.params = [core.RafParams(**nrn["params"]) for nrn in neurons]
        self.initial = [core.NeuronState(nrn["u0"], nrn["v0"]) for nrn in neurons]
        self.states = list(self.initial)
        self.dt, self.hold, self.impulse = inputs["dt"], inputs["hold"], inputs["impulse"]
        self.n_neurons, self.n_ticks = len(neurons), inputs["n_ticks"]
        self.unit_ops = self.n_neurons * self.n_ticks  # one episode

    def run(self, i, call):
        tick, j = divmod(i % self.unit_ops, self.n_neurons)
        if i % self.unit_ops == 0:
            self.states = list(self.initial)
        state, spiked = call(self.core.step, self.states[j], self.params[j],
                             self.impulse[tick][j], self.dt, self.hold[tick][j])
        self.states[j] = state
        return state, spiked

    def check(self, i, out, ref):
        tick, j = divmod(i % self.unit_ops, self.n_neurons)
        state, spiked = out
        return oracle.check_states(state.u, state.v, spiked, ref["u"][tick, j],
                                   ref["v"][tick, j], ref["z"][tick, j],
                                   ref["theta"][j], ref["scale"][j])


OPS = {"long_trace": LongTrace, "freq_sweep": FreqSweep, "online_step": OnlineStep}
