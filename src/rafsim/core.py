"""Two-state linear resonate-and-fire (RAF) neuron dynamics.

The subthreshold system is the linear ODE

    du/dt = -u/tau_u - omega_v * v + I_u(t)
    dv/dt =  omega_u * u - v/tau_v

with a Heaviside spike output z = H(v - theta) and no reset: crossing the
threshold never modifies the state. Because the system is linear, stepping
uses the exact closed-form matrix exponential, so traces carry no step-size
artifacts. States are dimensionless and centered at zero.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RafParams",
    "NeuronState",
    "InputSignal",
    "StateTrace",
    "transition_terms",
    "transition_matrix",
    "input_vector",
    "step",
    "simulate",
    "resonance_response",
    "SimulationError",
]

BLOCK = 32  # steps per block of simulate's scan
CHUNK = 128  # block rows per matmul of simulate's scan: a 64 KiB buffer


class SimulationError(RuntimeError):
    """Numerical failure during simulation (non-finite state, divergence)."""


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_count(name, value):
    """A count is an integer >= 1; numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class RafParams:
    """Mathematical neuron parameters.

    omega_u, omega_v: cross-coupling rates (rad/s), >= 0.
    tau_u, tau_v: decay time constants (s), > 0 with a finite reciprocal;
        math.inf means no decay.
    theta: spike threshold on the v state (state units), finite.
    """

    omega_u: float
    omega_v: float
    tau_u: float = math.inf
    tau_v: float = math.inf
    theta: float = 1.0

    def __post_init__(self):
        for name in ("omega_u", "omega_v"):
            w = getattr(self, name)
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValueError(f"{name} must be finite and >= 0, got {w!r}")
        for name in ("tau_u", "tau_v"):
            tau = getattr(self, name)
            if not tau > 0.0:  # inf allowed
                raise ValueError(f"{name} must be > 0 (inf = no decay), got {tau!r}")
            if math.isinf(1.0 / tau):
                raise ValueError(f"{name} must have a finite reciprocal, got {tau!r}")
        _check_finite("theta", self.theta)

    @property
    def k_u(self) -> float:
        """Decay rate 1/tau_u (0 for no decay)."""
        return 0.0 if math.isinf(self.tau_u) else 1.0 / self.tau_u

    @property
    def k_v(self) -> float:
        return 0.0 if math.isinf(self.tau_v) else 1.0 / self.tau_v

    @property
    def resonance_frequency(self) -> float:
        """Natural oscillation frequency Im(eigenvalue)/2pi in Hz (0 if overdamped)."""
        delta = 0.5 * (self.k_u - self.k_v)
        disc = self.omega_u * self.omega_v - delta * delta
        return math.sqrt(disc) / (2.0 * math.pi) if disc > 0.0 else 0.0


@dataclass(frozen=True)
class NeuronState:
    """Instantaneous (u, v) state pair."""

    u: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"state must be finite, got ({self.u!r}, {self.v!r})")


class InputSignal:
    """Input current I_u(t) driving the u state.

    Two representations, which may be combined:
      * ``events``: sparse weighted impulses, an (N, 2) array of (time,
        amplitude) rows stably sorted by time; each impulse adds its
        amplitude to u at the end of the step containing it.
      * ``dense``: per-step current values (state units / s), held constant
        over each step (zero-order hold, integrated exactly).

    Every time, amplitude and current must be finite, and times >= 0.
    """

    def __init__(self, dense=None, events=None):
        self.dense = None if dense is None else np.asarray(dense, dtype=float)
        if self.dense is not None:
            if self.dense.ndim != 1:
                raise ValueError(f"dense input must be 1-D, got shape {self.dense.shape}")
            if not np.all(np.isfinite(self.dense)):
                raise ValueError("dense input must be finite")
        events = () if events is None else events
        ev = np.array(events, dtype=float).reshape(len(events), 2)  # (time, amplitude) rows
        ok = np.isfinite(ev).all(axis=1) & (ev[:, 0] >= 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"event {i} (time, amplitude) must be finite with time >= 0, "
                             f"got {tuple(ev[i].tolist())!r}")
        self.events = ev[np.argsort(ev[:, 0], kind="stable")]

    @classmethod
    def impulse(cls, amplitude: float, time: float = 0.0) -> "InputSignal":
        return cls(events=[(time, amplitude)])

    def impulse_increments(self, dt: float, n_steps: int) -> np.ndarray:
        """Per-step impulse amounts; an event at t lands in step floor(t/dt), exactly.

        The step is numpy's floor division of the floats t and dt, which
        takes the exact remainder and so gives the floor of the exact
        quotient wherever that is below 2**51: an event at a step boundary
        k*dt, as the float k*dt rounds it, lands in step k if k*dt <= t and
        in step k-1 otherwise. A quotient of 2**51 or more gives a step of at
        least 2**51 - 1, and one that overflows gives inf. The bincount below
        takes 8 bytes per step, 16 PiB at 2**51 steps, so every horizon it
        can hold is below 2**51 - 1 and such an event is past it. Amplitudes
        landing in one step are added in time order, ties in the order
        given. An event whose step is n_steps or later, at or past the
        horizon n_steps*dt, is an error.
        """
        _check_positive("dt", dt)
        if not len(self.events):
            return np.zeros(n_steps)
        # a quotient that overflows gives inf, and numpy flags it as over and invalid
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.floor_divide(self.events[:, 0], dt)
        if steps[-1] >= n_steps:
            raise ValueError(f"event at time {float(self.events[-1, 0])!r} is at or past the "
                             f"horizon {n_steps} * {dt!r} = {n_steps * dt!r}")
        return np.bincount(steps.astype(np.int64), weights=self.events[:, 1],
                           minlength=n_steps)


@dataclass
class StateTrace:
    """Recorded trajectory: arrays of post-step (u, v, z) values.

    Sample i holds the state after i+1 steps, at time t = (i+1)*dt.
    """

    dt: float
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_positive("dt", self.dt)
        if len(self.u) == 0:
            raise ValueError("trace must be nonempty")
        if not len(self.u) == len(self.v) == len(self.z):
            raise ValueError(f"u, v and z must have equal lengths, "
                             f"got {len(self.u)}, {len(self.v)} and {len(self.z)}")

    def __len__(self):
        return len(self.u)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, len(self.u) + 1)

    def to_csv(self, path) -> None:
        """Write columns t, u, v, z; floats as repr, so they re-read exactly."""
        columns = (self.times.tolist(), np.asarray(self.u, dtype=float).tolist(),
                   np.asarray(self.v, dtype=float).tolist(),
                   np.asarray(self.z, dtype=np.int64).tolist())
        with open(path, "w", newline="") as fh:
            fh.write("t,u,v,z\n")
            fh.writelines(f"{t!r},{u!r},{v!r},{z}\n" for t, u, v, z in zip(*columns))

    @classmethod
    def from_csv(cls, path) -> "StateTrace":
        with warnings.catch_warnings():  # a file without rows raises below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not len(rows):
            raise ValueError(f"trace file {str(path)!r} has no rows")
        if rows.shape[1] != 4:
            raise ValueError(f"trace file {str(path)!r} has {rows.shape[1]} columns, "
                             f"expected 4 (t, u, v, z)")
        # t = (i+1)*dt, so t[1] - t[0] = 2*dt - dt is exact (Sterbenz)
        dt = rows[0, 0] if len(rows) == 1 else rows[1, 0] - rows[0, 0]
        return cls(dt=float(dt), u=rows[:, 1], v=rows[:, 2],
                   z=rows[:, 3].astype(np.int8))


def transition_terms(omega_u, omega_v, k_u, k_v, dt):
    """Entries (m00, m01, m10, m11) of exp(A*dt) for A = [[-k_u, -omega_v], [omega_u, -k_v]].

    Takes and returns Python floats and computes with math, that is libm,
    so the bits do not depend on numpy's SIMD dispatch. Closed form
    exp(A*dt) = env * (C*I + S*N) via A = mu*I + N with N*N = -disc*I:
    disc > 0 gives damped rotation, disc < 0 real (overdamped) modes and
    disc = 0 the critical limit; a NaN disc or an infinite rotation angle
    gives four NaNs. The envelope env is applied last, so C and S stay
    normal numbers where the entries are subnormal. The overdamped branch
    takes env = exp((mu + lam)*dt); with rates >= 0 no exponent is
    positive, so no exp overflows.
    """
    mu = -0.5 * (k_u + k_v)
    delta = 0.5 * (k_u - k_v)
    disc = omega_u * omega_v - delta * delta

    env = math.exp(mu * dt)
    C = S = math.nan
    if disc > 0.0:
        om = math.sqrt(disc)
        x = om * dt
        if math.isfinite(x):  # math.cos raises on inf
            C, S = math.cos(x), math.sin(x) / om
    elif disc < 0.0:
        lam = math.sqrt(-disc)  # lam <= |mu|
        em = math.expm1(-2.0 * lam * dt)
        env = math.exp((mu + lam) * dt)
        C = 1.0 + 0.5 * em  # cosh(lam*dt) * exp(-lam*dt)
        S = -em / (2.0 * lam)  # sinh(lam*dt) / lam * exp(-lam*dt)
    elif disc == 0.0:
        C, S = 1.0, dt
    return (env * (C - delta * S), env * (-omega_v * S), env * (omega_u * S),
            env * (C + delta * S))


def transition_matrix(params: RafParams, dt: float) -> np.ndarray:
    """Exact one-step propagator exp(A*dt) as a 2x2 array."""
    _check_positive("dt", dt)
    mat = np.reshape(transition_terms(params.omega_u, params.omega_v, params.k_u, params.k_v, dt),
                     (2, 2))
    if not np.all(np.isfinite(mat)):
        raise SimulationError(f"non-finite transition matrix for {params!r}, dt={dt!r}")
    return mat


def input_vector(params: RafParams, dt: float) -> np.ndarray:
    """Zero-order-hold input weights b = integral_0^dt exp(A*s) @ [1, 0] ds.

    A constant current I held over the step contributes b*I to the state.
    Evaluated as G(dt) @ e1 with G(h) = integral of exp(A*s): a short Taylor
    series at a halved step, then doubled via G(2h) = (I + exp(A*h)) @ G(h).
    exp(A*h) is built only when the step is halved, that is when
    max|A|*dt > 0.5. Immune to the singular-A corner cases of the eigenvalue
    formulas.
    """
    _check_positive("dt", dt)
    A = np.array([[-params.k_u, -params.omega_v],
                  [params.omega_u, -params.k_v]], dtype=float)
    scale = float(np.max(np.abs(A))) * dt
    if not math.isfinite(scale):
        raise SimulationError(f"max|A|*dt is not finite for {params!r}, dt={dt!r}")
    if scale > 2.0**1022:  # dt / 2**n_half below would not fit a float
        raise SimulationError(f"max|A|*dt = {scale!r} is above 2**1022 for {params!r}, dt={dt!r}")
    n_half = math.ceil(math.log2(scale / 0.5)) if scale > 0.5 else 0
    h = dt / (1 << n_half)

    # G(h) = sum_k A^k h^(k+1) / (k+1)!   (14 terms: remainder < 1e-17 at |A|h <= 0.5)
    G = np.eye(2) * h
    term = np.eye(2) * h
    for k in range(1, 15):
        term = term @ A * (h / (k + 1))
        G = G + term

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E or b raises below
        if n_half:  # E = exp(A*h), squared at each doubling
            E = np.reshape(transition_terms(params.omega_u, params.omega_v, params.k_u,
                                            params.k_v, h), (2, 2))
            for _ in range(n_half):
                G = G + E @ G
                E = E @ E
        b = G @ np.array([1.0, 0.0])
    if not np.all(np.isfinite(b)):
        raise SimulationError(f"non-finite input vector for {params!r}, dt={dt!r}")
    return b


def step(state: NeuronState, params: RafParams, input_increment: float,
         dt: float, hold_current: float = 0.0):
    """Advance one step of size dt; returns (new_state, spiked).

    input_increment is added to u at the step boundary (impulse model);
    hold_current is a constant current integrated exactly over the step.
    The spike flag is v >= theta evaluated on the new state; the state
    itself is never reset. The inputs are checked only when the new state
    is not finite: a non-finite input_increment or hold_current raises
    ValueError naming it, and otherwise SimulationError names the new
    state, the state before the step and both inputs.

    M and the zero-order-hold vector b come from simulate's cache
    (``_propagator``, keyed by params and dt), so a step equals a one-step
    simulate bit for bit and fails wherever simulate fails, even with no
    current: a b that is not finite raises SimulationError whatever
    hold_current is.
    """
    (m00, m01, m10, m11), (b0, b1) = _propagator(params, dt)  # checks dt
    fu, fv = input_increment + b0 * hold_current, b1 * hold_current  # summed first, as in _forcing
    u = m00 * state.u + m01 * state.v + fu
    v = m10 * state.u + m11 * state.v + fv
    if not (math.isfinite(u) and math.isfinite(v)):
        _check_finite("input_increment", input_increment)
        _check_finite("hold_current", hold_current)
        raise SimulationError(f"non-finite state ({u!r}, {v!r}) after step from {state!r} "
                              f"with input_increment={input_increment!r}, "
                              f"hold_current={hold_current!r}, {params!r}, dt={dt!r}")
    new_state = NeuronState(float(u), float(v))
    return new_state, bool(new_state.v >= params.theta)


@functools.lru_cache(maxsize=8)
def _propagator(params: RafParams, dt: float):
    """(m, b) of params at step dt, memoised; read by step and simulate.

    m = (m00, m01, m10, m11) holds the entries of M = exp(A*dt), and
    b = (b0, b1) = input_vector(params, dt) the zero-order-hold vector;
    input_vector checks dt. The key is the caller's params, so an error
    raised while building names them. A non-finite M is kept, and simulate
    reports the step where the state first leaves the finite range.
    """
    # b before M: the benchmark's tracer takes the last transition_terms span
    # of a run as M's own, directly under simulate
    b = tuple(input_vector(params, dt).tolist())
    m = transition_terms(params.omega_u, params.omega_v, params.k_u, params.k_v, dt)
    return m, b


def _w_index(L):
    """The (2*L, 2*L) gather that builds W from [0, 0, 0, 0] + the entries of M^0..M^(L-1).

    Entry [2*j + c, 2*i + r] is 4 + 4*(i - j) + 2*r + c, the place of
    M^(i-j)[r, c], where i >= j, and 0, which reads a zero, where i < j.
    """
    j, c, i, r = np.ogrid[:L, :2, :L, :2]
    return np.where(i >= j, 4 + 4 * (i - j) + 2 * r + c, 0).reshape(2 * L, 2 * L)


_W_INDEX = _w_index(BLOCK)


@functools.lru_cache(maxsize=8)  # 8 W matrices of 32 KiB: 256 KiB in all
def _toeplitz(m):
    """(mL, W) of the scan for the M with entries m, memoised.

    mL: the entries of M^L for L = BLOCK, M multiplied out L times as the
        per-step loop would, which carries a block's start state to the
        next block; the scan's next level runs on it, from this same cache.
    W: the read-only (2*L, 2*L) block-Toeplitz matrix of M^0..M^(L-1) in
        step-major order: W[2*j + c, 2*i + r] = M^(i-j)[r, c] carries input
        c at step j of a block to state r at step i. Its diagonal is exactly
        1 and everything below it is 0, and its last two columns give a
        block's end state. It is one gather (``_W_INDEX``) from the powers'
        entries behind four zeros.
    """
    L = BLOCK
    m00, m01, m10, m11 = m
    powers = []  # entries of M^0..M^(L-1), multiplied out as the loop does
    mk = 1.0, 0.0, 0.0, 1.0  # entries of M^k; of M^L after the loop
    for _ in range(L):
        powers += mk
        p00, p01, p10, p11 = mk
        mk = (m00 * p00 + m01 * p10, m00 * p01 + m01 * p11,
              m10 * p00 + m11 * p10, m10 * p01 + m11 * p11)
    W = np.array([0.0] * 4 + powers)[_W_INDEX]
    W.flags.writeable = False  # shared by every hit
    return mk, W


def simulate(params: RafParams, input_signal: InputSignal, dt: float,
             n_steps: int, initial_state: NeuronState | None = None) -> StateTrace:
    """Simulate n_steps of the neuron.

    Propagator: two small LRU caches of 8 entries each. M = exp(A*dt) and
    the zero-order-hold vector b are built once per (params, dt)
    (``_propagator``, which step reads too). The kernel's M^BLOCK and block
    matrix W depend on M alone and are built once per M
    (``_toeplitz``, 256 KiB in all): M's powers multiplied out in a Python
    loop, then W in one gather from them through a constant index array.
    The scan's upper levels take theirs from the same cache. A repeated dt,
    such as the points of a resonance sweep below resonance, reuses both.
    Results are the same bit for bit whether the caches are warm or cold.

    Kernel: an exact multi-level blocked scan over the real 2x2 propagator
    M (``_blocked_scan``), the chunked scan of a linear state-space recurrence,
    run in place in one buffer. The per-step inputs are written into one
    step-major (steps, 2) array of (u, v) pairs, padded with zeros to whole
    blocks of BLOCK = 32 steps, and the scan turns them into the states
    where they lie; the trace's u and v are strided views of its two
    columns. Each block enters with its start state s folded into its first
    input as M s, and one matmul with the block-Toeplitz matrix of
    M^0..M^31 gives every state. The start states obey the same recurrence
    over blocks, with M^32 in place of M, and are scanned the same way one
    level up, until at most BLOCK + 1 blocks are left for the per-step loop
    (``_loop_scan``): 100k steps take three levels, the last with 4 blocks.
    M is never diagonalised, so the defective propagator of critical damping
    needs no special case. With the carry loop-free, the matmul's 8 * BLOCK
    flops per step set the block length: on a 2-vCPU Xeon, 32 steps scanned
    12.7k and 100k steps about 20% faster than 64, and 16 was no faster than
    32 and strayed further from the loop (7.4e-13 of scale at Q = 1e4).
    The scan allocates no other array of the run's length.

    Precision: against the per-step loop it replaced (``_loop_scan``), the
    states agree within 1e-12 of the trace's largest |state|, Q >= 1e4 at
    100k steps included (2.7e-13). The scan's error grows with the length
    of the run, as M^32 carries the rounding of its 32 products: an
    undamped neuron at 16 steps per cycle drifts by about 8e-18 of scale per
    step, 8e-13 at 100k steps and 2.4e-12 at 300k, where the loop stays
    within 3e-14 of the same recurrence run in extended precision.

    Run path: simulate bins the events, each in step floor(t/dt) by numpy's
    floor division (``InputSignal.impulse_increments``), and hands the
    currents and the binned impulses to ``_run``, the one run path it shares with
    resonance_response. If the scan leaves a state that is not finite, the
    per-step loop reruns the whole run from step 0: a kernel overflow that
    the loop avoids gives the loop's trace, and a state that truly leaves
    the finite range raises SimulationError naming the first step at which
    the loop leaves it. Input errors (a dense input of another length, an
    event past the horizon) are raised before the propagator is built.

    Reproducibility: M comes from libm (transition_terms), so its bits do
    not depend on numpy's SIMD dispatch. b and the scan go through numpy
    matmuls, whose bits follow the BLAS kernel that runs them: at a halved
    step, b0 read 66 ulps apart under OpenBLAS's Haswell and Sandybridge
    kernels. So a run repeats bit for bit on one libm and BLAS kernel, not
    across them.
    """
    _check_count("n_steps", n_steps)
    _check_positive("dt", dt)  # here too: a dense-only run never calls impulse_increments
    currents = input_signal.dense
    if currents is not None and len(currents) != n_steps:
        raise ValueError(f"dense input has {len(currents)} samples, expected {n_steps}")
    increments = input_signal.impulse_increments(dt, n_steps) if len(input_signal.events) else None
    X = _run(params, dt, n_steps, currents, increments, initial_state or NeuronState())
    return StateTrace(dt=dt, u=X[:, 0], v=X[:, 1], z=(X[:, 1] >= params.theta).astype(np.int8),
                      metadata={"params": params, "n_steps": n_steps})


def _run(params, dt, n_steps, currents, increments, state=NeuronState(), first=0):
    """The (n_steps, 2) states (u, v) of a run from state: simulate's and resonance_response's.

    currents (state units / s, held over each step) and increments (impulses
    added to u) are per-step arrays of n_steps values, or None for none.
    M and b come from ``_propagator``, which checks dt. The inputs go into
    one padded buffer (``_forcing``), and the scan (``_blocked_scan``) turns
    them into states in place from the chunk holding step first on; rows
    before that chunk keep their inputs, and only the states from step
    first on are meant to be read.

    Those states are checked once. If one is not finite, the per-step loop
    (``_loop_scan``) reruns the whole run from step 0 on inputs written anew.
    A non-finite value spreads over its whole block at every level of the
    kernel, earlier steps included, and the kernel can overflow where the
    loop would not: the loop either finishes the run, and its states replace
    the kernel's, or raises SimulationError naming the first step at which
    the state leaves the finite range.
    """
    m, b = _propagator(params, dt)
    X = np.empty((-(-n_steps // BLOCK) * BLOCK, 2))
    X[n_steps:] = 0.0  # the pad rows: zero past the run
    with np.errstate(over="ignore", invalid="ignore"):
        _forcing(b, currents, increments, X[:n_steps])
        _blocked_scan(m, X, state.u, state.v, first // BLOCK)
        if not np.isfinite(X[first:n_steps]).all():
            _forcing(b, currents, increments, X[:n_steps])  # the scan has overwritten them
            X[:n_steps, 0], X[:n_steps, 1] = _loop_scan(m, X[:n_steps, 0], X[:n_steps, 1],
                                                        state.u, state.v)
            finite = np.isfinite(X[:n_steps]).all(axis=1)
            if not finite.all():
                raise SimulationError(f"non-finite state at step {int(np.argmin(finite))} "
                                      f"with {params!r}, dt={dt!r}")
    return X[:n_steps]


def _forcing(b, currents, increments, out):
    """Write the per-step inputs into every value of out, an (n_steps, 2) array.

    Column 0 gets the u input, b0*I plus the impulse increments, and column
    1 the v input b1*I, where I is the current held over each step (ZOH).
    currents and increments hold n_steps values each, or are None. out
    may come from np.empty: it is zeroed first where no currents fill it.
    """
    if currents is None:
        out[...] = 0.0
    else:
        b0, b1 = b
        np.multiply(currents, b0, out=out[:, 0])
        np.multiply(currents, b1, out=out[:, 1])
    if increments is not None:
        out[:, 0] += increments


def _blocked_scan(m, X, u, v, first=0):
    """Turn X into the states of x[i] = M x[i-1] + X[i] from x[-1] = (u, v), in place.

    X is a C-ordered (n_blocks * L, 2) array of per-step (u, v) inputs, zero
    past the run, for L = BLOCK; m = (m00, m01, m10, m11) holds M, and M^L
    and the block-Toeplitz matrix W come from M's cached ``_toeplitz(m)``.
    Seen as (n_blocks, 2 * L), each row of X is one block, and a block that
    starts from state s runs as if from zero with M s added to its first
    input: x[i] = sum_{j<=i} M^(i-j) f[j] with f[0] += M s, that is the
    block's row times W. The start states come first. They obey
    s' = M^L s + e, where e is a block's end state from zero, its row times
    the last two columns of W: the same recurrence over blocks, which this
    function scans one level up in a buffer of its own, with M^L in place
    of M. At most BLOCK + 1 blocks are carried by ``_loop_scan`` instead.
    Every row of the product depends on that row alone, so the rows are
    multiplied a chunk at a time through one small buffer and written back.

    Only the blocks from first // CHUNK * CHUNK on become states; the rows
    before them keep their inputs. Every block's end state is still
    computed, so the start states, and the states written, are those of a
    scan from block 0 bit for bit. The start is a whole chunk because
    OpenBLAS can give a row other bits at another place in a matmul.
    """
    L = BLOCK
    n_blocks = len(X) // L
    F = X.reshape(n_blocks, 2 * L)  # a view, so the scan writes into X
    mL, W = _toeplitz(m)
    k = n_blocks - 1
    S = np.empty((1 + -(-k // L) * L, 2))  # (u, v), then the start states of blocks 1..k
    S[0] = u, v
    S[n_blocks:] = 0.0  # zero past the run, as the level above reads it
    ends = S[1:n_blocks]
    np.matmul(F[:-1], W[:, -2:], out=ends)  # e of every block but the last
    if k <= L:
        ends[:, 0], ends[:, 1] = _loop_scan(mL, ends[:, 0], ends[:, 1], u, v)
    else:
        _blocked_scan(mL, S[1:], u, v)
    start = first // CHUNK * CHUNK
    su, sv = S[start:n_blocks, 0], S[start:n_blocks, 1]
    m00, m01, m10, m11 = m
    # f + (M s): the loop's own operations, so step 0 equals step() bit for bit
    F[start:, 0] += m00 * su + m01 * sv
    F[start:, 1] += m10 * su + m11 * sv
    rows = np.empty((min(CHUNK, n_blocks - start), 2 * L))
    for i in range(start, n_blocks, CHUNK):
        chunk = F[i:i + CHUNK]
        np.matmul(chunk, W, out=rows[:len(chunk)])
        chunk[...] = rows[:len(chunk)]


def _loop_scan(m, inc_u, inc_v, u, v):
    """The recurrence one step per iteration: _blocked_scan's reference.

    It also carries the block start states at the top level of
    _blocked_scan, and finishes a run in which simulate meets a non-finite
    state. m = (m00, m01, m10, m11) holds M. Returns the states as two
    float64 arrays of len(inc_u) values; those after the first non-finite
    one are NaN. They are stored in array('d'), 8 bytes a value as in
    numpy, but without numpy's per-element cost.
    """
    m00, m01, m10, m11 = m
    us = array("d", [math.nan]) * len(inc_u)
    vs = array("d", us)
    for i, (fu, fv) in enumerate(zip(inc_u.tolist(), inc_v.tolist())):
        u, v = m00 * u + m01 * v + fu, m10 * u + m11 * v + fv
        us[i], vs[i] = u, v
        if not (math.isfinite(u) and math.isfinite(v)):
            break
    return np.frombuffer(us), np.frombuffer(vs)


def resonance_response(params: RafParams, drive_frequency: float,
                       drive_amplitude: float, duration: float,
                       steps_per_cycle: int = 64) -> float:
    """Peak |v| over the steady portion of a sinusoidally driven run.

    The drive current amp*sin(2*pi*f*t) is sampled at step midpoints and
    applied zero-order-hold. The samples come from about 4*sqrt(n_steps)
    sines and cosines by angle addition (``_sine_drive``), not one sine per
    step. Each lies within 2*eps*(1 + 2*pi*f*dt*n_steps)*|amp| of the exact
    value, which is the rounding of its phase: over 0.2-5 times resonance at
    64 steps per cycle and 100k steps, the worst was 2.4e-12*|amp|, against
    2.8e-12*|amp| with one sine per step.

    The first 60% of the run is discarded as transient, so duration should
    cover several decay times. Each argument is checked at entry, and a bad
    one raises ValueError naming it: so does a steps_per_cycle for which 1/dt
    overflows, and a duration that rounds to fewer than 2 steps, or to more
    steps than a float holds.

    The step is dt = 1/(steps_per_cycle * max(f, resonance frequency)), so
    every drive frequency below resonance runs at one dt. The points of a
    sweep there share one cached (M, b) and one cached W (see simulate);
    each point above resonance has its own dt, and so its own M and W.

    The result is max|v| over simulate's trace from step int(0.6*n_steps)
    on, bit for bit. The run takes simulate's own path (``_run``) with the
    drive as its currents, but makes no InputSignal or StateTrace, and the
    scan computes only the states of the chunks that hold the window. If a
    state of the window is not finite, the per-step loop reruns the point
    from step 0, as in simulate: it repairs a kernel overflow or raises
    simulate's SimulationError.
    """
    _check_positive("drive_frequency", drive_frequency)
    _check_finite("drive_amplitude", drive_amplitude)
    _check_positive("duration", duration)
    _check_count("steps_per_cycle", steps_per_cycle)
    f_ref = max(drive_frequency, params.resonance_frequency)
    try:  # an int past the float range overflows, and so can 1/dt, giving dt = 0
        dt = 1.0 / (float(steps_per_cycle) * f_ref)
        steps = duration / dt
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"steps_per_cycle must be small enough that 1/dt is finite, got "
                         f"{steps_per_cycle!r} at drive_frequency = {drive_frequency!r}") from None
    if not math.isfinite(steps):
        raise ValueError(f"duration must be a finite number of steps, got {duration!r}: "
                         f"duration / dt overflows at dt = {dt!r}")
    n_steps = int(round(steps))
    if n_steps < 2:
        raise ValueError(f"duration must cover at least 2 steps, got {duration!r}: "
                         f"{n_steps} steps of dt = {dt!r}")
    drive = _sine_drive(drive_frequency, drive_amplitude, dt, n_steps)
    first = int(0.6 * n_steps)  # the steady window's first step
    steady = _run(params, dt, n_steps, drive, None, first=first)[first:, 1]
    return float(np.abs(steady).max())


def _sine_drive(frequency, amplitude, dt, n_steps):
    """amplitude * sin(w * (k + 1/2)) for k < n_steps and w = 2*pi*frequency*dt.

    By angle addition: with k = R*J + j and R = isqrt(n_steps) + 1, the value
    is amp*sin(a_J)*cos(c_j) + amp*cos(a_J)*sin(c_j) for a_J = w*(R*J) and
    c_j = w*(j + 1/2), one (rows, 2) @ (2, R) matmul over about
    4*sqrt(n_steps) sines and cosines. Every value is computed from two exact
    angles, so no error accumulates along k.
    """
    w = 2.0 * math.pi * frequency * dt
    R = math.isqrt(n_steps) + 1
    a = w * np.arange(0, n_steps, R, dtype=float)  # R*J for J < ceil(n_steps / R)
    c = w * np.arange(0.5, R)
    coef = np.empty((len(a), 2))
    np.sin(a, out=coef[:, 0])
    np.cos(a, out=coef[:, 1])
    coef *= amplitude
    cs = np.empty((2, R))
    np.cos(c, out=cs[0])
    np.sin(c, out=cs[1])
    return (coef @ cs).reshape(-1)[:n_steps]
