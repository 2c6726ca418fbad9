"""Independent reference for every benchmark op, and the checks against it.

The reference never calls rafsim's propagator: it takes exp(A*dt) from
``scipy.linalg.expm``, the zero-order-hold vector from the resolvent
b = A^-1 (exp(A*dt) - I) e1 (A is regular in every workload), and applies
them with its own per-step recurrence in plain Python floats.

Tolerance: a state trace passes when max |x - x_ref| <= RTOL * max |x_ref|
over the trace (per neuron for ``online_step``). A spike flag may differ
from the reference only where |v_ref - theta| is within that same bound.
Over 20 ``long_trace`` seeds the exact closed-form loop stays within 7.1e-12
of this reference (about 1e-14 on the other workloads), while a
transfer-function kernel (``scipy.signal.ss2tf`` plus ``lfilter``) drifts by
1e-10 to 5e-10 at that Q and dt, so RTOL sits between the two.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RTOL = 3e-11
DT_RTOL = 1e-12  # the CSV round trip must give back dt this closely
ARGMAX_RTOL = 0.05  # the sweep's best frequency must lie this close to f0


def generator(params: dict) -> np.ndarray:
    k_u = 0.0 if math.isinf(params["tau_u"]) else 1.0 / params["tau_u"]
    k_v = 0.0 if math.isinf(params["tau_v"]) else 1.0 / params["tau_v"]
    return np.array([[-k_u, -params["omega_v"]], [params["omega_u"], -k_v]])


def propagator(params: dict, dt: float):
    """(exp(A*dt), b) by scipy's expm and the resolvent."""
    from scipy.linalg import expm  # only the reference needs scipy

    A = generator(params)
    M = expm(A * dt)
    b = np.linalg.solve(A, (M - np.eye(2)) @ np.array([1.0, 0.0]))
    return M, b


def recurrence(M, b, u, v, impulses, currents):
    """x <- M x + e1*impulse + b*current, step by step; returns (us, vs)."""
    m00, m01, m10, m11 = (float(x) for x in M.ravel())
    b0, b1 = float(b[0]), float(b[1])
    us, vs = [], []
    for imp, cur in zip(impulses, currents):
        u, v = (m00 * u + m01 * v + imp + b0 * cur,
                m10 * u + m11 * v + b1 * cur)
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def long_trace_reference(inputs: dict, increments) -> dict:
    """Reference of one ``long_trace`` op.

    ``increments`` are the per-step impulses rafsim's ``impulse_increments``
    produced, so the dynamics are checked on the program's own binning, and
    its binning error is reported as a count instead of failing every op.
    """
    p, dt = inputs["params"], inputs["dt"]
    M, b = propagator(p, dt)
    u, v = recurrence(M, b, 0.0, 0.0, [float(x) for x in increments], inputs["dense"])
    return {"u": u, "v": v, "z": v >= p["theta"],
            "scale": max(np.abs(u).max(), np.abs(v).max()),
            "steps_per_op": inputs["n_steps"]}


def sweep_grid(params: dict, freq: float, duration: float, steps_per_cycle: int = 64):
    """(dt, n_steps) of one sweep point: the discretisation rule of resonance_response."""
    k_u = 0.0 if math.isinf(params["tau_u"]) else 1.0 / params["tau_u"]
    k_v = 0.0 if math.isinf(params["tau_v"]) else 1.0 / params["tau_v"]
    delta = 0.5 * (k_u - k_v)
    disc = params["omega_u"] * params["omega_v"] - delta * delta
    f_res = math.sqrt(disc) / (2.0 * math.pi) if disc > 0.0 else 0.0
    dt = 1.0 / (steps_per_cycle * max(freq, f_res))
    return dt, max(int(round(duration / dt)), 2)


def freq_sweep_reference(inputs: dict) -> dict:
    """Peak |v| over the steady 40% of each driven run, as resonance_response defines it."""
    p, amp = inputs["params"], inputs["amplitude"]
    responses, steps = [], 0
    for f in inputs["freqs"]:
        dt, n = sweep_grid(p, f, inputs["duration"])
        currents = amp * np.sin(2.0 * math.pi * f * ((np.arange(n) + 0.5) * dt))
        M, b = propagator(p, dt)
        _, v = recurrence(M, b, 0.0, 0.0, [0.0] * n, currents.tolist())
        responses.append(np.abs(v[int(0.6 * n):]).max())
        steps += n
    return {"responses": np.array(responses), "steps_per_op": steps}


def online_step_reference(inputs: dict) -> dict:
    """Reference states after every (tick, neuron) call of one episode."""
    dt, neurons = inputs["dt"], inputs["neurons"]
    shape = (inputs["n_ticks"], len(neurons))
    u, v = np.empty(shape), np.empty(shape)
    for j, nrn in enumerate(neurons):
        M, b = propagator(nrn["params"], dt)
        u[:, j], v[:, j] = recurrence(
            M, b, nrn["u0"], nrn["v0"],
            [row[j] for row in inputs["impulse"]], [row[j] for row in inputs["hold"]])
    theta = np.array([nrn["params"]["theta"] for nrn in neurons])
    return {"u": u, "v": v, "z": v >= theta, "theta": theta,
            "scale": np.maximum(np.abs(u).max(axis=0), np.abs(v).max(axis=0)),
            "steps_per_op": 1}


def check_states(u, v, z, ref_u, ref_v, ref_z, theta, scale):
    """None if the trace matches the reference, else the reason it does not."""
    err = max(np.abs(np.asarray(u) - ref_u).max(), np.abs(np.asarray(v) - ref_v).max())
    if not err <= RTOL * scale:  # also catches NaN
        return f"state error {err / scale:.3g} of scale exceeds {RTOL:g}"
    flips = (np.asarray(z, dtype=bool) != ref_z) & (np.abs(ref_v - theta) > RTOL * scale)
    if flips.any():
        return f"{int(flips.sum())} spike flags differ away from theta"
    return None


def check_roundtrip(trace, back):
    """None if the CSV round trip gave back u, v, z bit for bit and dt closely."""
    for name in ("u", "v", "z"):
        if not np.array_equal(getattr(trace, name), getattr(back, name)):
            return f"CSV round trip changed {name}"
    if not abs(back.dt - trace.dt) <= DT_RTOL * trace.dt:
        return f"CSV round trip gave dt {back.dt!r}, expected {trace.dt!r}"
    return None


def check_sweep(responses, ref: dict, freqs, f0):
    """None if every sweep point matches and the best frequency lies near f0."""
    got = np.asarray(responses, dtype=float)
    if got.shape != ref["responses"].shape:
        return f"sweep returned {got.shape} points, expected {ref['responses'].shape}"
    err = np.abs(got - ref["responses"]) / ref["responses"]
    if not err.max() <= RTOL:
        return f"sweep point {int(np.argmax(err))} off by {err.max():.3g} relative"
    best = freqs[int(np.argmax(got))]
    if not abs(best - f0) <= ARGMAX_RTOL * f0:
        return f"sweep peaks at {best:.4g} Hz, not within {ARGMAX_RTOL:.0%} of {f0:g} Hz"
    return None


def exact_bin(t: float, dt: float, n_steps: int) -> int:
    """floor(t/dt) in exact rational arithmetic, clamped to the last step."""
    return min(math.floor(Fraction(t) / Fraction(dt)), n_steps - 1)


def misbinned_events(times, dt: float, n_steps: int, counts) -> int:
    """Events binned differently from exact floor(t/dt).

    ``counts`` holds how many events the program put in each step (binning
    unit impulses). The count is the least total displacement between the
    exact and the observed histogram: the sum of |running difference|. It
    equals the number of misbinned events when each moves by one step,
    which is all float rounding of t/dt can do.
    """
    exact = np.zeros(n_steps)
    for t in times:
        exact[exact_bin(t, dt, n_steps)] += 1.0
    return int(round(np.abs(np.cumsum(exact - np.asarray(counts))).sum()))
