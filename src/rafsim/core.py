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
from dataclasses import dataclass, field, replace

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

BLOCK = 64  # steps per block of simulate's scan


class SimulationError(RuntimeError):
    """Numerical failure during simulation (non-finite state, divergence)."""


def _check_dt(dt):
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")


def _check_count(name, value):
    """A count is an integer >= 1; numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class RafParams:
    """Mathematical neuron parameters.

    omega_u, omega_v: cross-coupling rates (rad/s), >= 0.
    tau_u, tau_v: decay time constants (s), > 0; math.inf means no decay.
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
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")

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
        """Per-step impulse amounts; an event at t lands in step floor(t/dt).

        Amplitudes landing in one step are added in time order, ties in the
        order given. An event at or past the horizon n_steps*dt is an error.
        """
        if not len(self.events):
            return np.zeros(n_steps)
        steps = self.events[:, 0] / dt
        if steps[-1] >= n_steps:
            t = float(self.events[-1, 0])
            raise ValueError(f"event at time {t!r} is at or past the horizon "
                             f"{n_steps} * {dt!r} = {n_steps * dt!r}")
        return np.bincount(steps.astype(np.int64), weights=self.events[:, 1],
                           minlength=n_steps)

    def dense_currents(self, n_steps: int) -> np.ndarray:
        if self.dense is None:
            return np.zeros(n_steps)
        if len(self.dense) != n_steps:
            raise ValueError(
                f"dense input has {len(self.dense)} samples, expected {n_steps}"
            )
        return self.dense


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
        _check_dt(self.dt)
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
    def from_csv(cls, path, metadata=None) -> "StateTrace":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        # t = (i+1)*dt, so t[1] - t[0] = 2*dt - dt is exact (Sterbenz)
        dt = rows[0, 0] if len(rows) == 1 else rows[1, 0] - rows[0, 0]
        return cls(dt=float(dt), u=rows[:, 1], v=rows[:, 2],
                   z=rows[:, 3].astype(np.int8), metadata=metadata or {})


def transition_terms(omega_u, omega_v, k_u, k_v, dt):
    """Entries (m00, m01, m10, m11) of exp(A*dt) for A = [[-k_u, -omega_v], [omega_u, -k_v]].

    Closed form exp(A*dt) = env * (C*I + S*N) via A = mu*I + N with
    N*N = -disc*I: disc > 0 gives damped rotation, disc < 0 real
    (overdamped) modes, disc = 0 the critical limit. The envelope env is
    applied last, so C and S stay normal numbers where the entries are
    subnormal. The overdamped branch takes env = exp((mu + lam)*dt), whose
    exponent is never positive, so no intermediate overflows. Works
    elementwise on arrays.
    """
    ou, ov, ku, kv = np.broadcast_arrays(
        np.asarray(omega_u, dtype=float), np.asarray(omega_v, dtype=float),
        np.asarray(k_u, dtype=float), np.asarray(k_v, dtype=float))
    shape = ou.shape
    ou, ov, ku, kv = (np.atleast_1d(x).ravel() for x in (ou, ov, ku, kv))
    with np.errstate(over="ignore", invalid="ignore"):
        mu = -0.5 * (ku + kv)
        delta = 0.5 * (ku - kv)
        disc = ou * ov - delta * delta

        env = np.exp(mu * dt)
        C = np.empty_like(mu)  # stays NaN where disc is NaN
        C.fill(np.nan)
        S = C.copy()
        osc = disc > 0.0
        if osc.any():
            om = np.sqrt(disc[osc])
            C[osc] = np.cos(om * dt)
            S[osc] = np.sin(om * dt) / om
        over = disc < 0.0
        if over.any():
            lam = np.sqrt(-disc[over])  # lam <= |mu|
            em = np.expm1(-2.0 * lam * dt)
            env[over] = np.exp((mu[over] + lam) * dt)
            C[over] = 1.0 + 0.5 * em  # cosh(lam*dt) * exp(-lam*dt)
            S[over] = -em / (2.0 * lam)  # sinh(lam*dt) / lam * exp(-lam*dt)
        crit = disc == 0.0
        if crit.any():
            C[crit] = 1.0
            S[crit] = dt

        m00 = (env * (C - delta * S)).reshape(shape)
        m01 = (env * (-ov * S)).reshape(shape)
        m10 = (env * (ou * S)).reshape(shape)
        m11 = (env * (C + delta * S)).reshape(shape)
    return m00, m01, m10, m11


def transition_matrix(params: RafParams, dt: float) -> np.ndarray:
    """Exact one-step propagator exp(A*dt) as a 2x2 array."""
    _check_dt(dt)
    m00, m01, m10, m11 = transition_terms(
        params.omega_u, params.omega_v, params.k_u, params.k_v, dt)
    mat = np.array([[m00, m01], [m10, m11]], dtype=float)
    if not np.all(np.isfinite(mat)):
        raise SimulationError(f"non-finite transition matrix for {params!r}, dt={dt!r}")
    return mat


def input_vector(params: RafParams, dt: float) -> np.ndarray:
    """Zero-order-hold input weights b = integral_0^dt exp(A*s) @ [1, 0] ds.

    A constant current I held over the step contributes b*I to the state.
    Evaluated as G(dt) @ e1 with G(h) = integral of exp(A*s): a short Taylor
    series at a halved step, then doubled via G(2h) = (I + exp(A*h)) @ G(h).
    Immune to the singular-A corner cases of the eigenvalue formulas.
    """
    _check_dt(dt)
    A = np.array([[-params.k_u, -params.omega_v],
                  [params.omega_u, -params.k_v]], dtype=float)
    scale = float(np.max(np.abs(A))) * dt
    if not math.isfinite(scale):
        raise SimulationError(f"max|A|*dt is not finite for {params!r}, dt={dt!r}")
    n_half = max(0, int(math.ceil(math.log2(scale / 0.5)))) if scale > 0.5 else 0
    h = dt / (1 << n_half)

    # G(h) = sum_k A^k h^(k+1) / (k+1)!   (14 terms: remainder < 1e-17 at |A|h <= 0.5)
    G = np.eye(2) * h
    term = np.eye(2) * h
    for k in range(1, 15):
        term = term @ A * (h / (k + 1))
        G = G + term

    E = transition_matrix(params, h)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite b raises below
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
    itself is never reset.

    M and the zero-order-hold vector b come from simulate's cache
    (``_propagator``), so a step equals a one-step simulate bit for bit and
    fails wherever simulate fails, even with no current: a b that is not
    finite raises SimulationError whatever hold_current is.
    """
    _check_dt(dt)
    (m00, m01, m10, m11), (b0, b1) = _propagator(params, dt)
    fu, fv = input_increment + b0 * hold_current, b1 * hold_current  # summed first, as in _forcing
    u = m00 * state.u + m01 * state.v + fu
    v = m10 * state.u + m11 * state.v + fv
    if not (math.isfinite(u) and math.isfinite(v)):
        raise SimulationError(
            f"non-finite state ({u!r}, {v!r}) after step with {params!r}, dt={dt!r}")
    new_state = NeuronState(float(u), float(v))
    return new_state, bool(new_state.v >= params.theta)


@functools.lru_cache(maxsize=8)
def _build_propagator(params: RafParams, dt: float):
    """(m, b) of params at step dt, memoised; params.theta is always 0.

    m = (m00, m01, m10, m11) holds the entries of M = exp(A*dt), and
    b = (b0, b1) = input_vector(params, dt) the zero-order-hold vector;
    input_vector checks dt. A non-finite M is kept, and simulate reports the
    step where the state first leaves the finite range.
    """
    # b before M: the benchmark's tracer takes the last transition_terms span
    # of a run as M's own, directly under simulate
    b = tuple(input_vector(params, dt).tolist())
    m = tuple(map(float, transition_terms(
        params.omega_u, params.omega_v, params.k_u, params.k_v, dt)))
    return m, b


def _propagator(params: RafParams, dt: float):
    """The cached (m, b) of params at step dt, read by step and simulate.

    theta enters neither M nor b, so neurons that differ only in their
    threshold share one entry. The key is params with theta set to 0, so b
    is built from the very fields that input_vector reads.
    """
    return _build_propagator(replace(params, theta=0.0), dt)


@functools.lru_cache(maxsize=8)  # 8 W matrices of 128 KiB: 1 MiB in all
def _toeplitz(m):
    """(m64, W) of the scan for the M with entries m, memoised.

    m64: the entries of M^BLOCK, M multiplied out BLOCK times as the
        per-step loop would, which carries a block's start state to the
        next block.
    W: the read-only (2*BLOCK, 2*BLOCK) block-Toeplitz matrix of
        M^0..M^(BLOCK-1); W[c*L + j, r*L + i] = M^(i-j)[r, c] carries input c
        at step j of a block to state r at step i.
    """
    L = BLOCK
    m00, m01, m10, m11 = m
    # P[k] = entries of M^k for k < L, multiplied out as the loop does;
    # row L is the zero filling the Toeplitz matrix above its diagonal.
    P = np.zeros((L + 1, 4))
    mk = 1.0, 0.0, 0.0, 1.0  # entries of M^k; of M^L after the loop
    for k in range(L):
        P[k] = p00, p01, p10, p11 = mk
        mk = (m00 * p00 + m01 * p10, m00 * p01 + m01 * p11,
              m10 * p00 + m11 * p10, m10 * p01 + m11 * p11)
    lag = np.arange(L) - np.arange(L)[:, None]  # [j, i] = i - j
    lag[lag < 0] = L
    W = P[lag].reshape(L, L, 2, 2).transpose(3, 0, 2, 1).reshape(2 * L, 2 * L)
    W.flags.writeable = False  # shared by every hit
    return mk, W


def simulate(params: RafParams, input_signal: InputSignal, dt: float,
             n_steps: int, initial_state: NeuronState | None = None) -> StateTrace:
    """Simulate n_steps of the neuron; deterministic given its inputs.

    Propagator: two small LRU caches of 8 entries each. M = exp(A*dt) and
    the zero-order-hold vector b are built once per (omega_u, omega_v,
    tau_u, tau_v, dt) (``_propagator``, which step reads too). The kernel's
    M^64 and block matrix W depend on M alone and are built once per M
    (``_toeplitz``, about 1 MiB in all). A repeated dt, such as the points
    of a resonance sweep below resonance, reuses both. Results are the same
    bit for bit whether the caches are warm or cold.

    Kernel: an exact blocked scan over the real 2x2 propagator M
    (``_blocked_scan``). A plain-float loop over blocks of BLOCK = 64 steps
    carries their start states with M^64; each start state s then enters its
    block as M s added to the block's first input, and one matmul with the
    block-Toeplitz matrix of M^0..M^63 gives every state. M is never
    diagonalised, so the defective propagator of critical damping needs no
    special case. The block length trades the matmul's work (8 * BLOCK
    flops per step) against the Python carry loop (one iteration per
    block): on a 2-vCPU Xeon, of 16 to 256 steps, 64 was the fastest at
    100k steps and within 3% of the fastest at 13k steps.

    Precision: against the per-step loop it replaced (``_loop_scan``), the
    states agree within 1e-12 of the trace's largest |state|, Q >= 1e4 at
    100k steps included. Only an undamped neuron run for more than about
    20k steps drifts further, and there the loop is the less accurate side.
    A non-finite state raises SimulationError naming the step at which the
    per-step loop first leaves the finite range.
    """
    _check_count("n_steps", n_steps)
    _check_dt(dt)
    state = initial_state or NeuronState()
    m, b = _propagator(params, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        inc_u, inc_v = _forcing(b, dt, input_signal, n_steps)
        us, vs = _blocked_scan(m, inc_u, inc_v, state.u, state.v)
    finite = np.isfinite(us) & np.isfinite(vs)
    if not finite.all():
        # A non-finite value spreads over the kernel's whole block, and the
        # kernel can overflow where the loop would not; the per-step loop,
        # restarted at that block, finds the step or finishes the run.
        start = int(np.argmin(finite)) // BLOCK * BLOCK
        u0, v0 = (float(us[start - 1]), float(vs[start - 1])) if start else (state.u, state.v)
        us[start:], vs[start:] = _loop_scan(m, inc_u[start:], inc_v[start:], u0, v0)
        finite = np.isfinite(us) & np.isfinite(vs)
        if not finite.all():
            raise SimulationError(f"non-finite state at step {int(np.argmin(finite))} "
                                  f"with {params!r}, dt={dt!r}")
    zs = (vs >= params.theta).astype(np.int8)
    return StateTrace(dt=dt, u=us, v=vs, z=zs,
                      metadata={"params": params, "n_steps": n_steps})


def _forcing(b, dt, input_signal, n_steps):
    """Per-step additive inputs (inc_u, inc_v): impulses plus the ZOH current b*I."""
    inc_u = input_signal.impulse_increments(dt, n_steps)
    currents = input_signal.dense_currents(n_steps)
    if not np.any(currents):
        return inc_u, np.zeros(n_steps)
    b0, b1 = b
    return inc_u + b0 * currents, b1 * currents


def _blocked_scan(m, inc_u, inc_v, u, v):
    """States of x[i] = M x[i-1] + (inc_u[i], inc_v[i]) from x[-1] = (u, v).

    m = (m00, m01, m10, m11) holds M; M^L and the block-Toeplitz matrix W
    come from M's cached ``_toeplitz(m)``. A block of L = BLOCK steps that
    starts from state s runs as if from zero with M s added to its first
    input, so that x[i] = sum_{j<=i} M^(i-j) f[j] with f[0] += M s: one
    matmul with W for every block. The start states come first, from
    s' = M^L s + e in a loop over the blocks, where e is the block's end
    state from zero, read off two columns of W.
    """
    L, n = BLOCK, len(inc_u)
    n_blocks, k = -(-n // L), n // L
    F = np.zeros((n_blocks, 2, L))  # block-major, zero past step n
    for r, inc in enumerate((inc_u, inc_v)):
        F[:k, r] = inc[:k * L].reshape(k, L)
        F[k:, r, :n - k * L] = inc[k * L:]
    F2 = F.reshape(n_blocks, 2 * L)
    (a00, a01, a10, a11), W = _toeplitz(m)
    ends = F2 @ W[:, L - 1::L]

    starts = []
    for eu, ev in ends.tolist():
        starts.append((u, v))
        u, v = a00 * u + a01 * v + eu, a10 * u + a11 * v + ev
    su, sv = np.array(starts).T
    m00, m01, m10, m11 = m
    # f + (M s): the loop's own operations, so step 0 equals step() bit for bit
    F[:, 0, 0] += m00 * su + m01 * sv
    F[:, 1, 0] += m10 * su + m11 * sv
    x = (F2 @ W).reshape(n_blocks, 2, L)
    return x[:, 0].reshape(-1)[:n], x[:, 1].reshape(-1)[:n]


def _loop_scan(m, inc_u, inc_v, u, v):
    """Reference for _blocked_scan: the recurrence one step per iteration.

    m = (m00, m01, m10, m11) holds M. States after the first non-finite one
    are left NaN.
    """
    m00, m01, m10, m11 = m
    us = np.full(len(inc_u), np.nan)
    vs = np.full(len(inc_u), np.nan)
    for i, (fu, fv) in enumerate(zip(inc_u.tolist(), inc_v.tolist())):
        u, v = m00 * u + m01 * v + fu, m10 * u + m11 * v + fv
        us[i], vs[i] = u, v
        if not (math.isfinite(u) and math.isfinite(v)):
            break
    return us, vs


def resonance_response(params: RafParams, drive_frequency: float,
                       drive_amplitude: float, duration: float,
                       steps_per_cycle: int = 64) -> float:
    """Peak |v| over the steady portion of a sinusoidally driven run.

    The drive current amp*sin(2*pi*f*t) is sampled at step midpoints and
    applied zero-order-hold; the first 60% of the run is discarded as
    transient, so duration should cover several decay times. Each argument
    is checked at entry, and a bad one raises ValueError naming it: so does
    a duration that rounds to fewer than 2 steps, or to more steps than a
    float holds.

    The step is dt = 1/(steps_per_cycle * max(f, resonance frequency)), so
    every drive frequency below resonance runs at one dt. The points of a
    sweep there share one cached (M, b) and one cached W (see simulate);
    each point above resonance has its own dt, and so its own M and W.
    """
    if not (drive_frequency > 0 and math.isfinite(drive_frequency)):
        raise ValueError(f"drive_frequency must be finite and > 0, got {drive_frequency!r}")
    if not math.isfinite(drive_amplitude):
        raise ValueError(f"drive_amplitude must be finite, got {drive_amplitude!r}")
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    _check_count("steps_per_cycle", steps_per_cycle)
    f_ref = max(drive_frequency, params.resonance_frequency)
    dt = 1.0 / (steps_per_cycle * f_ref)
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"duration must be a finite number of steps, got {duration!r}: "
                         f"duration / dt overflows at dt = {dt!r}")
    n_steps = int(round(steps))
    if n_steps < 2:
        raise ValueError(f"duration must cover at least 2 steps, got {duration!r}: "
                         f"{n_steps} steps of dt = {dt!r}")
    t_mid = (np.arange(n_steps) + 0.5) * dt
    currents = drive_amplitude * np.sin(2.0 * math.pi * drive_frequency * t_mid)
    trace = simulate(params, InputSignal(dense=currents), dt, n_steps)
    steady = trace.v[int(0.6 * n_steps):]
    return float(np.max(np.abs(steady)))
