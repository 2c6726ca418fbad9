"""Seeded inputs of the benchmark's three workloads.

Only the standard library is used here, so a worker process can build its
inputs before it starts the set-up clock at ``import rafsim`` (which is also
where numpy gets imported). The same seed gives the same inputs on every run
and in every process: ``random.Random`` seeded with a string hashes it with
SHA-512, independent of ``PYTHONHASHSEED``.

Why these three workloads:

* ``long_trace``: one 100k-step trace of a high-Q neuron at 4096 steps per
  cycle, with a dense drive, 20k impulses and a CSV round trip. The
  recurrence kernel, input binning and trace I/O each take a large share,
  while the propagator is built once. The high Q and fine dt make a kernel
  that loses precision miss the oracle.
* ``freq_sweep``: the 60-point resonance sweep. Many medium dense-only runs,
  no events and no I/O, and a dt per point above resonance, so a propagator
  cache gets only partial reuse.
* ``online_step``: 64 heterogeneous neurons stepped in lockstep, one ``step``
  call at a time. It never enters the recurrence kernel; each call rebuilds
  the propagator and the zero-order-hold vector for a key it has seen.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
WORKLOADS = ("long_trace", "freq_sweep", "online_step")


def make_inputs(name: str, seed: int, smoke: bool = False) -> dict:
    """Inputs of workload ``name`` for ``seed``; ``smoke`` gives a tiny size for tests."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}") from None
    return build(random.Random(f"{name}:{seed}"), smoke)


def _params(omega_u, omega_v, tau_u, tau_v, theta) -> dict:
    return {"omega_u": omega_u, "omega_v": omega_v, "tau_u": tau_u,
            "tau_v": tau_v, "theta": theta}


def _long_trace(rng: random.Random, smoke: bool) -> dict:
    f0 = 1e5
    omega = TWO_PI * f0
    q = rng.uniform(0.9e4, 1.1e4)
    tau = 2.0 * q / omega  # Q = omega * tau / 2 for equal decay on both states
    dt = 1.0 / (4096 * f0)
    n_steps = 2_000 if smoke else 100_000
    n_events = 400 if smoke else 20_000

    f_drive = f0 * rng.uniform(0.98, 1.02)
    phase = rng.uniform(0.0, TWO_PI)
    amp, noise = 0.05 * omega, 0.01 * omega
    dense = [amp * math.sin(TWO_PI * f_drive * (k + 0.5) * dt + phase)
             + rng.gauss(0.0, noise) for k in range(n_steps)]

    # A quarter of the impulses come from a clocked source and sit exactly on
    # step boundaries k*dt, where float binning is fragile; the rest fall
    # anywhere before the last step, so none lies past the horizon.
    n_clocked = n_events // 4
    times = [rng.randrange(n_steps) * dt for _ in range(n_clocked)]
    times += [rng.uniform(0.0, (n_steps - 1) * dt) for _ in range(n_events - n_clocked)]
    rng.shuffle(times)
    events = [(t, rng.gauss(0.0, 0.05)) for t in times]

    return {"params": _params(omega, omega, tau, tau, rng.uniform(2.0, 8.0)),
            "dt": dt, "n_steps": n_steps, "dense": dense, "events": events}


def _freq_sweep(rng: random.Random, smoke: bool) -> dict:
    f0 = 200.0
    tau = 60.0 / (TWO_PI * f0)  # omega * tau = 60
    if smoke:
        lo, hi, n_points, duration = 0.9 * f0, 1.1 * f0, 9, 4.0 * tau
    else:
        lo, hi, n_points, duration = 0.2 * f0, 5.0 * f0, 60, 12.0 * tau
    # The geometric grid is shifted by a seeded fraction of one grid step, so
    # each seed probes other frequencies while the grid point nearest f0
    # stays within half a step of it.
    ratio = (hi / lo) ** (1.0 / (n_points - 1))
    shift = rng.uniform(-0.5, 0.5)
    freqs = [lo * ratio ** (i + shift) for i in range(n_points)]
    return {"params": _params(TWO_PI * f0, TWO_PI * f0, tau, tau, 1.0),
            "f0": f0, "freqs": freqs, "amplitude": rng.uniform(0.5, 2.0),
            "duration": duration}


def _critical_omega(w: float) -> float:
    """Nudge w until 1/(1/(2w)) == 2w, so tau_u = 1/(2w) gives disc == 0 exactly."""
    while 1.0 / (1.0 / (2.0 * w)) != 2.0 * w:
        w = math.nextafter(w, math.inf)
    return w


def _online_step(rng: random.Random, smoke: bool) -> dict:
    n_neurons, n_ticks = (6, 10) if smoke else (64, 150)
    dt = 1e-4
    neurons = []
    for j in range(n_neurons):
        w = TWO_PI * rng.uniform(50.0, 400.0)
        kind = j % 3
        if kind == 0:  # high Q: damped rotation
            q = rng.uniform(100.0, 1000.0)
            skew = rng.uniform(0.5, 2.0)
            tau = 2.0 * q / w
            p = _params(w, w, tau * skew, tau / skew, rng.uniform(0.2, 1.0))
        elif kind == 1:  # overdamped: delta > w
            p = _params(w, w, 1.0 / (2.0 * w * rng.uniform(1.5, 4.0)), math.inf,
                        rng.uniform(0.1, 0.5))
        else:  # exactly critical: delta == w, so disc == 0 in floating point
            w = _critical_omega(w)
            p = _params(w, w, 1.0 / (2.0 * w), math.inf, rng.uniform(0.1, 0.5))
        neurons.append({"params": p, "u0": rng.uniform(-0.5, 0.5),
                        "v0": rng.uniform(-0.5, 0.5), "hold_scale": 2.0 * w})

    # Every call gets a non-zero hold current; about one call in twenty also
    # gets an impulse.
    hold, impulse = [], []
    for _ in range(n_ticks):
        hold.append([nrn["hold_scale"] * rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
                     for nrn in neurons])
        impulse.append([rng.gauss(0.0, 0.5) if rng.random() < 0.05 else 0.0
                        for _ in neurons])
    return {"dt": dt, "neurons": neurons, "n_ticks": n_ticks,
            "hold": hold, "impulse": impulse}


_BUILDERS = {"long_trace": _long_trace, "freq_sweep": _freq_sweep,
             "online_step": _online_step}
