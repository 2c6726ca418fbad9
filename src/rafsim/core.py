"""Two-state linear resonate-and-fire (RAF) neuron dynamics.

The subthreshold system is the linear ODE

    du/dt = -u/tau_u - omega_v * v + I_u(t)
    dv/dt =  omega_u * u - v/tau_v

with a Heaviside spike output z = H(v - theta) and no reset: crossing the
threshold never modifies the state. Because the system is linear, stepping
uses the exact closed-form matrix exponential, so traces carry no step-size
artifacts. States are dimensionless and centered at zero.

Docstrings state contracts, each bound next to the test in tests/test_core.py
that asserts it.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
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
CHUNK = 128  # blocks per matmul of simulate's scan
# the most steps of a run: numpy's floor division is exact below a quotient of
# 2**51, so every event of such a run is binned by its exact floor (see
# InputSignal.impulse_increments)
MAX_STEPS = 2**50
ROUNDS = (MAX_STEPS // BLOCK - 1).bit_length()  # the carry's rounds in a run of MAX_STEPS: 45


class SimulationError(RuntimeError):
    """Numerical failure during simulation (non-finite state, divergence)."""


def _as_float(name, value):
    """value as a Python float: the one way a number enters this module.

    Every scalar that a caller hands in, a parameter, a state, a dt or an
    input, passes here where it enters and is used from then on as the float
    returned, so a numpy scalar, an int, a bool or a Fraction, any
    numbers.Real, computes as the float it converts to
    (test_float32_and_float64_params_give_the_same_bits,
    test_float32_state_and_inputs_step_as_one_step_simulate). Anything else,
    such as a Decimal, a str, None, a complex or a 0-d array, raises
    ValueError naming it
    (test_a_value_that_is_not_a_real_number_is_named_where_it_enters), and
    so does an int past the float range
    (test_an_int_past_the_float_range_is_named).
    """
    # float first: numbers.Real's ABC check is about 20 times slower
    if not (isinstance(value, float) or isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must fit a float, got {value!r}") from None


def _as_float_array(name, value):
    """np.asarray(value), whose dtype is bool, int or float: the array form of _as_float.

    A ragged value, and one of any other dtype, such as complex, str or
    object (a list holding a None, a Decimal or a Fraction), raises
    ValueError naming it and the dtype
    (test_an_array_that_is_not_real_numbers_is_named_where_it_enters). The
    caller checks the shape and converts to float64.
    """
    try:
        x = np.asarray(value)
    except ValueError as e:  # a ragged value
        raise ValueError(f"{name} must be an array of real numbers: {e}") from None
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be an array of real numbers, got {x.dtype}")
    return x


def _check_finite(name, value):
    """value as a finite float (see _as_float)."""
    if not math.isfinite(x := _as_float(name, value)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_positive(name, value):
    """value as a finite float > 0 (see _as_float)."""
    if not ((x := _as_float(name, value)) > 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return x


def _check_count(name, value):
    """value as a Python int from 1 to MAX_STEPS: the one way a count enters this module.

    Any numbers.Integral but bool passes, and the caller computes with the
    int returned, as with _check_finite's float, so a numpy integer such as
    np.int8(100) or np.uint64(100) runs as int(value), never in its own
    type, whose arithmetic can wrap or raise
    (test_accepts_a_numpy_integer_n_steps). A count past MAX_STEPS = 2**50,
    the longest run whose every event numpy's floor division bins exactly
    (see InputSignal.impulse_increments), is named before anything is
    allocated (test_a_count_past_max_steps_is_named).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if value > MAX_STEPS:
        raise ValueError(f"{name} must be at most MAX_STEPS = {MAX_STEPS}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RafParams:
    """Mathematical neuron parameters; any other value raises ValueError naming it.

    omega_u, omega_v: cross-coupling rates (rad/s), finite and >= 0.
    tau_u, tau_v: decay time constants (s), > 0 with a finite reciprocal;
        math.inf means no decay.
    theta: spike threshold on the v state (state units), finite.

    Each field is stored as the float that _as_float makes of it, so params
    that compare equal compute alike; a value that is not a real number, such
    as a str, None, a complex or a Decimal, is named too
    (test_params_name_a_value_that_is_not_a_real_number).
    """

    omega_u: float
    omega_v: float
    tau_u: float = math.inf
    tau_v: float = math.inf
    theta: float = 1.0

    def __post_init__(self):  # frozen: each field is set once, here, as its float
        for name in ("omega_u", "omega_v", "tau_u", "tau_v", "theta"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
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
        """Decay rate 1/tau_u: 0.0 for tau_u = inf."""
        return 1.0 / self.tau_u

    @property
    def k_v(self) -> float:
        return 1.0 / self.tau_v

    @property
    def resonance_frequency(self) -> float:
        """Natural oscillation frequency Im(eigenvalue)/2pi in Hz (0 if overdamped)."""
        delta = 0.5 * (self.k_u - self.k_v)
        disc = self.omega_u * self.omega_v - delta * delta
        return math.sqrt(disc) / (2.0 * math.pi) if disc > 0.0 else 0.0


@dataclass(frozen=True)
class NeuronState:
    """Instantaneous (u, v) state pair, stored as floats by _check_finite.

    A non-finite value, or one that is not a real number, raises ValueError
    naming it.
    """

    u: float = 0.0
    v: float = 0.0

    def __post_init__(self):  # frozen: each field is set once, here
        object.__setattr__(self, "u", _check_finite("state u", self.u))
        object.__setattr__(self, "v", _check_finite("state v", self.v))


class InputSignal:
    """Input current I_u(t) driving the u state.

    Two representations, which may be combined:
      * ``events``: sparse weighted impulses, an (N, 2) array of (time,
        amplitude) rows stably sorted by time; each impulse adds its
        amplitude to u at the end of the step containing it.
      * ``dense``: per-step current values (state units / s), held constant
        over each step (zero-order hold, integrated exactly).

    Both are taken by _as_float_array and kept as float64 copies. Every
    time, amplitude and current must be finite, and times >= 0, or
    ValueError is raised, naming the first bad event if an event is bad.
    events that are not an array of real numbers (see _as_float_array) or
    not empty and not shaped (N, 2), and a dense input that is not an array
    of real numbers or not 1-D, raise ValueError naming events or dense
    (test_input_signal_rejects_non_finite_or_misshapen_input).
    """

    def __init__(self, dense=None, events=None):
        self.dense = None if dense is None else _as_float_array("dense input", dense).astype(float)
        if self.dense is not None:
            if self.dense.ndim != 1:
                raise ValueError(f"dense input must be 1-D, got shape {self.dense.shape}")
            if not np.all(np.isfinite(self.dense)):
                raise ValueError("dense input must be finite")
        ev = _as_float_array("events", () if events is None else events).astype(float)
        if ev.size and (ev.ndim != 2 or ev.shape[1] != 2):
            raise ValueError(f"events must be (time, amplitude) rows, an (N, 2) array, "
                             f"got shape {ev.shape}")
        ev = ev.reshape(-1, 2)  # no events: (0, 2)
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
        """Per-step impulse amounts: an event at t lands in step floor(t/dt) of the exact quotient.

        numpy's floor division takes the exact remainder, so the step is
        exact below a quotient of 2**51
        (test_floor_division_is_exact_up_to_max_steps): an event at the
        float k*dt lands in step k if k*dt <= t and in step k-1 otherwise
        (test_events_near_step_boundaries_bin_by_the_exact_floor). A run
        holds at most MAX_STEPS = 2**50 steps, so every event inside it
        lands in the step of its exact floor, and an event whose exact floor
        is at or past the horizon is rejected, also where its quotient is
        inexact, since the step is then at least 2**51 - 1
        (test_an_event_on_the_horizon_of_max_steps_is_named).
        Amplitudes in one step are added in time order, ties in the order
        given (test_coincident_events_out_of_order_match_in_order_loop). An
        event at or past the horizon n_steps*dt raises ValueError
        (test_events_at_or_past_the_horizon_are_rejected); so do a bad dt,
        checked first, and a bad n_steps, checked after the horizon: only a
        real number is compared with the horizon, so any other n_steps, such
        as a str or None, is named as n_steps
        (test_impulse_increments_rejects_a_bad_n_steps).
        """
        dt = _check_positive("dt", dt)
        # a quotient that overflows gives inf, and numpy flags it as over and invalid
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.floor_divide(self.events[:, 0], dt)
        if len(steps) and isinstance(n_steps, numbers.Real) and steps[-1] >= n_steps:
            raise ValueError(f"event at time {float(self.events[-1, 0])!r} is at or past the "
                             f"horizon {n_steps} * {dt!r} = {float(n_steps * dt)!r}")
        n_steps = _check_count("n_steps", n_steps)
        # as float: without events, bincount gives int64 zeros
        return np.bincount(steps.astype(np.int64), weights=self.events[:, 1],
                           minlength=n_steps).astype(float, copy=False)


@dataclass
class StateTrace:
    """Recorded trajectory: arrays of post-step (u, v, z) values.

    Sample i holds the state after i+1 steps, at time t = (i+1)*dt. dt is
    kept as a float (see _as_float), u and v as 1-D float64 arrays, without
    a copy where they are already that, and z as a 1-D int8 array. A bad dt,
    a u, v or z that is not an array of real numbers (see _as_float_array),
    which the message names, u, v and z not 1-D arrays of one shape, whose
    shapes it names (test_trace_rejects_a_misshapen_or_non_numeric_column),
    u, v and z empty, or a z other than 0 or 1
    (test_trace_rejects_a_z_other_than_0_or_1) raise ValueError.
    """

    dt: float
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dt = _check_positive("trace dt", self.dt)
        u, v, z = (_as_float_array(f"trace {name}", getattr(self, name)) for name in "uvz")
        if not (u.ndim == 1 and u.shape == v.shape == z.shape):
            raise ValueError(f"trace u, v and z must be 1-D arrays of one length, "
                             f"got u {u.shape}, v {v.shape} and z {z.shape}")
        if len(u) == 0:
            raise ValueError("trace must be nonempty")
        bad = np.flatnonzero((z != 0) & (z != 1))  # NaN too
        if len(bad):
            raise ValueError(f"trace has z = {float(z[bad[0]])!r} at sample {bad[0]}, "
                             f"expected 0 or 1")
        self.u, self.v = u.astype(np.float64, copy=False), v.astype(np.float64, copy=False)
        self.z = z.astype(np.int8, copy=False)

    def __len__(self):
        return len(self.u)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, len(self.u) + 1)

    def to_csv(self, path) -> None:
        """Write a header and columns t, u, v, z, with floats as repr."""
        columns = self.times.tolist(), self.u.tolist(), self.v.tolist(), self.z.tolist()
        with open(path, "w", newline="") as fh:
            fh.write("t,u,v,z\n")
            fh.writelines(f"{t!r},{u!r},{v!r},{z}\n" for t, u, v, z in zip(*columns))

    @classmethod
    def from_csv(cls, path) -> "StateTrace":
        """Read what to_csv writes: u, v and z bit for bit, and dt exactly.

        to_csv writes t[0] = 1*dt, so dt = t[0] (test_trace_csv_roundtrip,
        test_trace_csv_roundtrip_one_row), and every t it writes is (i+1)*dt
        exactly. A file with no rows (test_trace_csv_without_rows_is_an_error),
        with a column count other than 4, a row that numpy cannot parse,
        ragged or not a number, or a z other than 0 or 1
        (test_trace_csv_with_a_bad_column_is_an_error), with a t other than
        (i+1)*dt for that dt, named at its sample, or with a dt that is not
        finite and > 0 (test_trace_csv_with_a_t_off_the_grid_is_an_error)
        raises ValueError; StateTrace checks z and dt. One except names the
        file for all of them: "trace file '<path>'", then the error's own
        text, less StateTrace's leading "trace". u and v are read as
        written, non-finite too, as StateTrace takes them.
        """
        try:
            with warnings.catch_warnings():  # a file without rows raises below instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if not len(rows):
                raise ValueError("has no rows")
            if rows.shape[1] != 4:
                raise ValueError(f"has {rows.shape[1]} columns, expected 4 (t, u, v, z)")
            t, u, v, z = rows.T
            trace = cls(dt=t[0], u=u, v=v, z=z)  # checks dt and z first
            bad = np.flatnonzero(t != trace.times)  # NaN too
            if len(bad):
                raise ValueError(f"has t = {float(t[bad[0]])!r} at sample {bad[0]}, "
                                 f"expected (i+1)*dt = {float(trace.times[bad[0]])!r}")
        except ValueError as e:
            raise ValueError(f"trace file {str(path)!r} {str(e).removeprefix('trace ')}") from None
        return trace


def transition_terms(omega_u, omega_v, k_u, k_v, dt):
    """Entries (m00, m01, m10, m11) of exp(A*dt) for A = [[-k_u, -omega_v], [omega_u, -k_v]].

    Python floats in and out, as RafParams's fields and every checked dt
    are (see _as_float), computed with math: the bits follow libm, not
    numpy's SIMD dispatch (test_bits_do_not_follow_numpys_simd_dispatch).
    Closed form exp(A*dt) = env * (C*I + S*N) via A = mu*I + N with
    N*N = -disc*I: disc > 0 gives damped rotation, disc < 0 real
    (overdamped) modes and disc = 0 the critical limit. A NaN disc or an
    infinite rotation angle gives four NaNs. With rates >= 0 no exponent is
    positive, so no exp overflows. env is applied last, so C and S stay
    normal where the entries are subnormal.

    Precision: within rtol 1e-9, atol 1e-12 of scipy's expm
    (test_matches_scipy_expm); subnormal entries within 1e-11 relative of
    the squared half step (test_subnormal_entries_keep_relative_precision);
    a disc a few ulps either side of 0 within 1e-12 of scale of the
    critical branch and of expm (test_continuous_across_critical_damping).
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
    """transition_terms as a 2x2 array; a non-finite entry raises SimulationError."""
    dt = _check_positive("dt", dt)
    mat = np.reshape(transition_terms(params.omega_u, params.omega_v, params.k_u, params.k_v, dt),
                     (2, 2))
    if not np.all(np.isfinite(mat)):
        raise SimulationError(f"non-finite transition matrix for {params!r}, dt={dt!r}")
    return mat


def input_vector(params: RafParams, dt: float) -> np.ndarray:
    """Zero-order-hold input weights b = integral_0^dt exp(A*s) @ [1, 0] ds.

    A constant current I held over the step adds b*I to the state. Only b's
    column is formed: a Taylor series b(h) = sum_k A^k e1 h^(k+1) / (k+1)! at
    h = dt / 2**n, the largest step with max|A|*h <= 0.5, then n doublings
    b(2*h_i) = b(h_i) + exp(A*h_i) @ b(h_i) at h_i = dt / 2**(n - i), each
    with its own closed-form exp(A*h_i) from transition_terms
    (test_builds_one_e_per_doubling). No matrix is squared, and b never holds
    the integral of the other column, so b keeps its value where that one
    would overflow (test_an_overflow_in_gs_second_column_leaves_b_finite). No
    eigenvalue formula is used, so a singular A is no special case
    (test_singular_generators). exp(A*h_i)'s bits follow libm. Without a
    doubling, where max|A|*dt <= 0.5, b has the same bits under every BLAS
    kernel (test_b_without_a_doubling_does_not_follow_the_blas_kernel); the
    doublings' matrix-vector products give a doubled b the rounding of the
    BLAS kernel that runs them.

    Precision: within max(4 + 4*n, max|A|*dt / 2) eps of the largest |b|
    at the steps dt / 2**j, j <= n, of the series summed exactly and rounded
    once (test_matches_the_exact_series, n <= 11): b at dt itself cancels
    towards 0 where dt is near whole cycles. max|A|*dt <= 2**(n - 1), so the
    bound is (4 + 4*n) eps up to n = 7. Past that, the term in max|A|*dt
    grows faster: it is the rounding of the phase om*h_i inside
    transition_terms, about eps*om*h_i at each doubling, which sums to
    about eps*om*dt. Within 1e-7 relative of quadrature
    (test_matches_quadrature) and of A^-1 (exp(A*dt) - I) e1
    (test_matches_resolvent_formula).

    Raises SimulationError if max|A|*dt is not finite
    (test_rejects_a_step_out_of_range) or is above 2**1022, where dt / 2**n
    would not fit a float (test_rejects_a_scale_above_2_to_the_1022), and
    if b is not finite (test_fails_alike_with_one_step_simulate_without_current).
    """
    dt = _check_positive("dt", dt)
    A = np.array([[-params.k_u, -params.omega_v],
                  [params.omega_u, -params.k_v]])
    scale = float(np.max(np.abs(A))) * dt
    if not math.isfinite(scale):
        raise SimulationError(f"max|A|*dt is not finite for {params!r}, dt={dt!r}")
    if scale > 2.0**1022:
        raise SimulationError(f"max|A|*dt = {scale!r} is above 2**1022 for {params!r}, dt={dt!r}")
    n_half = math.ceil(math.log2(scale / 0.5)) if scale > 0.5 else 0
    h = dt / (1 << n_half)

    # b(h) = sum_k A^k e1 h^(k+1) / (k+1)! for k <= 14
    b = term = np.array([h, 0.0])
    for k in range(1, 15):
        term = A @ term * (h / (k + 1))
        b = b + term

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E or b raises below
        for i in range(n_half):
            E = transition_terms(params.omega_u, params.omega_v, params.k_u, params.k_v,
                                 dt / (1 << (n_half - i)))
            b = b + np.reshape(E, (2, 2)) @ b
    if not np.all(np.isfinite(b)):
        raise SimulationError(f"non-finite input vector for {params!r}, dt={dt!r}")
    return b


def step(state: NeuronState, params: RafParams, input_increment: float,
         dt: float, hold_current: float = 0.0):
    """Advance one step of size dt; returns (new_state, spiked).

    input_increment is added to u at the step boundary (impulse model);
    hold_current is a constant current integrated exactly over the step.
    spiked is new_state.v >= theta; the state is never reset.

    It reads simulate's (m, b) from ``_propagator``, so it equals a one-step
    simulate bit for bit (test_hold_current_matches_dense_simulate) and
    fails wherever that fails, whatever hold_current is
    (test_fails_alike_with_one_step_simulate_without_current). Only a
    NeuronState, whose u and v entered as floats, is taken as the state:
    any other object raises ValueError naming state
    (test_a_state_that_is_not_a_neuron_state_is_named). dt and both inputs
    are checked up front and stepped as floats (see _as_float), dt before
    the cache hashes it
    (test_a_value_that_is_not_a_real_number_is_named_where_it_enters): a
    non-finite input raises ValueError naming it
    (test_rejects_a_non_finite_input). A new state that is not finite
    raises SimulationError naming it, the state before the step and both
    inputs (test_error_names_the_state_before_the_step_and_both_inputs).
    """
    if not isinstance(state, NeuronState):
        raise ValueError(f"state must be a NeuronState, got {state!r}")
    dt = _check_positive("dt", dt)
    input_increment = _check_finite("input_increment", input_increment)
    hold_current = _check_finite("hold_current", hold_current)
    (m00, m01, m10, m11), (b0, b1) = _propagator(params, dt)
    fu, fv = input_increment + b0 * hold_current, b1 * hold_current  # summed as in the scan's step 0
    u = m00 * state.u + m01 * state.v + fu
    v = m10 * state.u + m11 * state.v + fv
    if not (math.isfinite(u) and math.isfinite(v)):
        raise SimulationError(f"non-finite state ({u!r}, {v!r}) after step from {state!r} "
                              f"with input_increment={input_increment!r}, "
                              f"hold_current={hold_current!r}, {params!r}, dt={dt!r}")
    new_state = NeuronState(u, v)
    return new_state, new_state.v >= params.theta


@functools.lru_cache(maxsize=32)
def _propagator(params: RafParams, dt: float):
    """(m, b) of params at step dt, cached; read by step and _run.

    m = (m00, m01, m10, m11) = transition_terms(...) holds M = exp(A*dt),
    and b = (b0, b1) = input_vector(params, dt) bit for bit
    (test_b_is_input_vector_bit_for_bit). b is built first, so that
    input_vector's own dt check raises ValueError on a bad dt before M is
    built: transition_terms would take a negative one, and can overflow on
    it (test_every_entry_point_rejects_bad_dt). The key
    is the caller's params, so an error raised while building names them
    (test_errors_name_the_callers_params), and dt one ulp apart do not
    share (test_dt_one_ulp_apart_do_not_share). Warm and cold caches give
    the same bits (test_cold_cache_gives_the_same_bits_as_warm). A
    non-finite M is kept, for _run to name the step where the state first
    leaves the finite range.

    The cache holds 32 entries, a few hundred bytes each, so the 31 keys
    that a resonance sweep cycles through, one dt per point above resonance
    and one below, stay cached from one sweep to the next
    (test_a_second_sweep_builds_no_b); an LRU cache smaller than the cycle
    would miss on every key.
    """
    b = tuple(input_vector(params, dt).tolist())
    return transition_terms(params.omega_u, params.omega_v, params.k_u, params.k_v, dt), b


# T[g, j] = Y.ravel()[_T_INDEX[g, j]]: the (2*L + 2) floats of input g's
# response, in _toeplitz's Y, from 2*(L - j) floats past its start
_T_INDEX = ((4 * BLOCK + 2) * np.arange(3)[:, None, None]
            + 2 * (BLOCK - np.arange(BLOCK))[:, None] + np.arange(2 * BLOCK + 2))


@functools.lru_cache(maxsize=31)
def _toeplitz(m, b):
    """(P, O, ON) of the scan for the M with entries m and the b = (b0, b1), cached.

    All three are read from one array of the reference loop's responses to
    a unit input, for L = BLOCK: ``_loop_scan`` runs once per input
    component c on L + 1 zero inputs but a 1 on c at step 0, from a zero
    state, so its states are M^k e_c, the powers multiplied out in the loop's
    own order of operations. Y[g] holds L zero steps and then steps 0..L of
    the response to input g, (u, v) per step: Y[c, L + k] = M^k e_c for e_0
    and e_1, and Y[2] = b0*Y[0] + b1*Y[1], the response to b, a numpy
    multiply and add. An input g at step j of a block reaches step i as
    Y[g, L + i - j], zero where i < j, so its row over the block's steps
    0..L, T[g, j], is one contiguous run of Y, 2*(L - j) floats past the
    start of Y[g]; one gather (``_T_INDEX``) reads all 3*L runs. In the
    names of the tests cited here, "w" means O's rows.

    P: the read-only (ROUNDS, 2, 2) array of the powers that
        ``_blocked_scan``'s carry reads, P[r] = (M^(L*2**r))^T in round r.
        P[0] = Y[:2, 2*L] = (M^L)^T (test_carry_is_m_multiplied_out_block_times),
        and each next power is the matmul P[r + 1] = P[r] @ P[r]
        (test_powers_are_the_matmul_chain), so round r reads P[r] with the
        bits its own squaring would give. ROUNDS = 45 powers cover a run of
        MAX_STEPS = 2**50 steps, 2**45 blocks in ceil(log2(n_blocks)) = 45
        rounds, so every count that _check_count passes
        (test_a_count_past_max_steps_is_named). The carry reads only the
        rounds its run needs, and a run past the powers would raise
        IndexError in its last round (test_a_run_past_the_powers_fails_loudly).
        Powers that a short run never reads may overflow, for a defective M
        with a large omega_v*dt, and are built without a warning
        (test_unused_powers_that_overflow_raise_no_warning).
    O: the read-only (2*L + 2, 2*L) operator of the scan's Toeplitz level,
        T's steps 0..L-1. Its rows take a block's inputs by kind, in three
        contiguous groups: rows j < L are T[0, j], the impulse rows, which
        carry a unit added to u at step j; rows L and L + 1 are T[0, 0] and
        T[1, 0], the t rows, which carry the block's t = M s, its start
        state times M, in at step 0; and rows L + 2 + j are T[2, j], the
        current rows, which carry a current held over step j, whose ZOH
        input is b times it. So a run's currents enter the scan as they
        are, L to a block and with no (b0*I, b1*I) pairs formed, and each
        run reads the contiguous rows of its own inputs: [0, L + 2) for
        impulses alone, [L, 2*L + 2) for currents alone, all of them for
        both and [L, L + 2) for none. Every impulse and t row is the loop's
        response to a unit input bit for bit by construction, and every
        current row b0 times its response on u plus b1 times its response
        on v (test_w_rows_are_the_loops_response_to_a_unit_input).
    ON: the read-only (2*L + 2, 2) end-state rows in O's layout: the same
        rows at step L, T[g, j]'s last (u, v), with the two t rows zero;
        each is the loop's state at step L after the row's unit input, bit
        for bit (same test), and a block's inputs times ON are M e, its end
        state from zero times M, which the carry adds. ON[0] is P[0][0], the
        same L products (test_carry_is_m_multiplied_out_block_times).

    The cache holds 31 entries, the most that a budget of 1 MiB of O allows
    at (2*L + 2) * 2*L floats each, with ON's 1 KiB and P's 1440 bytes
    besides (test_cache_holds_at_most_one_mib_of_w), so the 31 keys that a
    resonance sweep cycles through (see ``_propagator``) stay cached from
    one sweep to the next (test_a_second_sweep_builds_no_w), and a warm run
    squares no power. A cold build runs the 44 squarings once per key.
    """
    L = BLOCK
    Y = np.zeros((3, 2 * L + 1, 2))
    Y[0, L, 0] = Y[1, L, 1] = 1.0  # the unit inputs at step 0
    for c in (0, 1):
        _loop_scan(m, Y[c, L:], 0.0, 0.0)
    P = np.empty((ROUNDS, 2, 2))
    P[0] = Y[:2, 2 * L]
    with np.errstate(over="ignore", invalid="ignore"):  # _run handles a run that reads one
        Y[2] = b[0] * Y[0] + b[1] * Y[1]  # the response to b
        for r in range(ROUNDS - 1):
            P[r + 1] = P[r] @ P[r]
    T = Y.ravel()[_T_INDEX]  # T[g, j]: input g at step j, over the block's steps 0..L
    O = np.concatenate((T[0, :, :2 * L], T[:2, 0, :2 * L], T[2, :, :2 * L]))
    ON = np.concatenate((T[0, :, 2 * L:], np.zeros((2, 2)), T[2, :, 2 * L:]))
    P.flags.writeable = O.flags.writeable = ON.flags.writeable = False  # shared by every hit
    return P, O, ON


def simulate(params: RafParams, input_signal: InputSignal, dt: float,
             n_steps: int, initial_state: NeuronState | None = None) -> StateTrace:
    """Simulate n_steps of the neuron from initial_state (zero if None).

    The events are binned by InputSignal.impulse_increments, and the run
    takes ``_run``, the path resonance_response shares. A bad n_steps or
    dt, an initial_state that is neither None nor a NeuronState
    (test_a_state_that_is_not_a_neuron_state_is_named), a dense input of
    another length or an event past the horizon raises ValueError before
    the propagator is built, and a state that leaves the finite range
    raises SimulationError (see ``_run``). z is v >= theta. The run's fresh
    memory peaks at 4 * n_steps floats
    (test_simulate_allocates_at_most_four_arrays_of_its_length), and it
    repeats bit for bit on one libm and one BLAS kernel.
    """
    n_steps = _check_count("n_steps", n_steps)
    dt = _check_positive("dt", dt)
    if not (initial_state is None or isinstance(initial_state, NeuronState)):
        raise ValueError(f"initial_state must be a NeuronState or None, got {initial_state!r}")
    currents = input_signal.dense
    if currents is not None and len(currents) != n_steps:
        raise ValueError(f"dense input has {len(currents)} samples, expected {n_steps}")
    increments = input_signal.impulse_increments(dt, n_steps) if len(input_signal.events) else None
    X = _run(params, dt, n_steps, currents, increments, initial_state or NeuronState())
    return StateTrace(dt=dt, u=X[:, 0], v=X[:, 1], z=(X[:, 1] >= params.theta).astype(np.int8),
                      metadata={"params": params, "n_steps": n_steps})


def _run(params, dt, n_steps, currents, increments, state=NeuronState(), first=0):
    """The (n_steps - first, 2) states (u, v) from step first on of a run from state.

    simulate reads every step of its run (first = 0), and resonance_response
    only its steady window. currents (state units / s, held over each step)
    and increments (impulses added to u) are per-step arrays of n_steps
    values, or None for none. M and b come from ``_propagator``, which checks
    dt. ``_blocked_scan`` copies each kind of input as it is into its own
    columns of the run's one buffer, and returns the run's n_steps rows,
    step k at row k, which hold states from the chunk holding step first on.

    Repair: those states are checked once. If one is not finite,
    ``_forcing`` writes the per-step (u, v) inputs into the state rows, and
    ``_loop_scan``, the scan's recurrence with one plain step per row, turns
    them into states from step 0 in place: the scan spreads a non-finite
    value over its block and, through the carry, over every later block, and
    can overflow where the loop does not. The loop's states are then the
    run's (test_kernel_overflow_the_loop_avoids_is_repaired,
    test_repair_past_the_first_upper_block_is_the_loop_from_step_0), or
    SimulationError names the first step at which the state leaves the
    finite range (test_error_names_the_first_non_finite_step). Only the
    repair forms the (u, v) inputs: a finite run never calls ``_forcing``
    (test_a_finite_run_never_calls_forcing).
    """
    m, b = _propagator(params, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        X = _blocked_scan(m, b, n_steps, currents, increments, state.u, state.v, first // BLOCK)
        if not np.isfinite(X[first:]).all():
            _forcing(b, currents, increments, X)
            _loop_scan(m, X, state.u, state.v)
            finite = np.isfinite(X).all(axis=1)
            if not finite.all():
                raise SimulationError(f"non-finite state at step {int(np.argmin(finite))} "
                                      f"with {params!r}, dt={dt!r}")
    return X[first:]


def _forcing(b, currents, increments, out):
    """Write the per-step (u, v) inputs into every value of out, an (n_steps, 2) array.

    Column 0 gets the u input, b0*I plus the impulse increments, and column
    1 the v input b1*I, where I is the current held over each step (ZOH).
    currents and increments hold n_steps values each, or are None. out
    may come from np.empty (test_no_row_of_a_fresh_buffer_is_read_unwritten).
    These pairs are ``_loop_scan``'s inputs, so only ``_run``'s repair and
    the reference loop form them: the scan takes the currents themselves, b
    folded into its operator (see ``_toeplitz``).
    """
    if currents is None:
        out[...] = 0.0
    else:
        b0, b1 = b
        np.multiply(currents, b0, out=out[:, 0])
        np.multiply(currents, b1, out=out[:, 1])
    if increments is not None:
        out[:, 0] += increments


def _blocked_scan(m, b, n_steps, currents, increments, u, v, first=0):
    """The states of x[i] = M x[i-1] + f[i] from x[-1] = (u, v), an (n_steps, 2) array.

    f[i] = (increments[i] + b0*I[i], b1*I[i]) for the currents I held over
    each step and the increments added to u, n_steps values each or None
    for none, and L = BLOCK. m = (m00, m01, m10, m11) holds M and b = (b0,
    b1) the ZOH input vector, and ``_toeplitz(m, b)`` gives the carry's
    powers P, with the runs they cover, the Toeplitz level's operator O and
    its end-state rows ON.

    Each kind of input is copied in as it is, into its own columns: G holds
    one row per block, [its L impulses | its t | its L currents], without
    the kinds the run lacks and zero past the run, so a block of currents is
    L contiguous values, with no (b0*I, b1*I) pairs formed. A block that
    starts from state s runs as if from zero with t = M s entered at step 0,
    so its states are its row of G times the rows of O in the same layout,
    the scan's one Toeplitz level. The carried values come first. They obey
    t' = M^L t + M e, where e is a block's end state from zero and M e its
    inputs' columns times their rows of ON (for a run of both kinds, the
    whole row, its t columns zeroed first), and a doubling carries them (the
    associative scan of a linear recurrence): S holds M (u, v), from the
    loop's own operations, then the M e of every block but the last, as
    rows, and each round r, d = 2**r = 1, 2, 4, ..., adds S[i-d] @ P[r],
    M^(L*d) applied to S[i-d], to S[i] for i >= d. After the round for d,
    S[i] sums the 2*d terms up to i, so ceil(log2(n_blocks)) rounds leave S
    holding each block's t, which is copied into its t columns. Only block
    0's t is made by the loop's operations; the others carry BLAS's rounding
    of M e and of the rounds. The rounds read the cached powers and square
    nothing: their bits are those of a carry that squares P[r] @ P[r] inline
    (test_the_carry_equals_a_doubling_that_squares_inline). Only the run's
    own P, O and ON are built, so ``_toeplitz`` misses once per distinct
    (M, b) (test_a_cold_long_run_builds_w_once). M is never diagonalised, so
    a defective M (critical damping) is no special case.

    Step 0: a matmul may sum t, b0*I[0] and the impulse in any order, and
    may fuse b0*I[0] with t in an FMA. So where the scan starts at block 0,
    step 0 is written anew with the loop's own operations, t +
    (increments[0] + b0*I[0]) for u and t + b1*I[0] for v in Python floats,
    as step() sums them, and equals step() bit for bit
    (test_hold_current_matches_dense_simulate).

    Only the blocks from first // CHUNK * CHUNK on become states. The states
    written are those of a scan from block 0 bit for bit
    (test_a_scan_from_a_later_block_writes_the_whole_scans_bits): the start
    is a whole chunk because OpenBLAS can give a row other bits at another
    place in a matmul. The bits follow the BLAS kernel, in the end states,
    the carry's rounds and P's squarings as in the Toeplitz level. The rows
    before the first chunk's are not written.

    One buffer: the run takes one np.empty of 2*L*CHUNK + max(w, 2*L) *
    n_blocks floats, for w columns of G, with the states at its start and G
    at its end; for a run of currents alone that is the size of the (u, v)
    pairs behind one chunk of headroom. Each chunk's matmul reads CHUNK rows
    of G and writes their states at the blocks' own rows, which end at or
    before the first row of G not yet read, so no matmul's output shares
    memory with its input and numpy copies no input first
    (test_no_matmul_of_the_scan_writes_over_its_input); a run shorter than
    a chunk writes only its own blocks at the start. The states and the
    inputs share one array because with an array each, glibc's dynamic mmap
    and trim thresholds hand pages back between a sweep's points, and the
    next point faults them in anew
    (test_a_warm_sweep_point_allocates_its_drive_and_one_buffer).
    ``_loop_scan`` runs the same recurrence in place on (u, v) inputs, with
    one plain step per row.

    Precision: the bounds cover the whole scan, the Toeplitz level's sums
    and the carry's rounds and P's squarings together. Within SCAN_RTOL =
    1e-12 of the trace's largest |state| of ``_loop_scan`` (TestScanKernel:
    test_matches_loop, test_matches_loop_across_levels, test_block_edges,
    test_high_q_long_trace, up to 100k steps). M^L carries the rounding of
    the loop's L products, and each squaring in P doubles the rounding
    already in M^(L*d), so the error grows with the run: on an undamped
    orbit at 16 steps per cycle, free or driven, the states stay within
    n_steps * eps / 8 of the largest |state| of the exact recurrence on M's
    float entries (test_scan_against_the_exact_recurrence, up to 300k steps).
    """
    L = BLOCK
    n_blocks = -(-n_steps // L)
    P, O, ON = _toeplitz(m, b)
    lo = L if increments is None else 0  # the rows of O, and the columns of G, of this run
    hi = L + 2 if currents is None else 2 * L + 2
    w, c = hi - lo, L - lo  # G's width, and the first of its two t columns
    buf = np.empty(2 * L * CHUNK + max(w, 2 * L) * n_blocks)
    F = buf[:2 * L * n_blocks].reshape(n_blocks, 2 * L)  # block i's states, (u, v) per step
    G = buf[len(buf) - w * n_blocks:].reshape(n_blocks, w)
    G[-1] = 0.0  # the pad: zero past the run
    q = n_steps // L  # whole blocks
    for j, x in ((0, increments), (c + 2, currents)):
        if x is not None:
            G[:q, j:j + L] = x[:q * L].reshape(q, L)
            G[q:, j:j + n_steps - q * L] = x[q * L:]
    a = c + 2 if increments is None else 0  # M e reads the inputs' columns [a, z) alone,
    z = c if currents is None else w
    if a < c < z:  # and the t columns between two kinds as zero
        G[:, c:c + 2] = 0.0
    m00, m01, m10, m11 = m
    t = m00 * u + m01 * v, m10 * u + m11 * v  # the loop's own operations: block 0's t
    S = np.empty((n_blocks, 2))  # M s, then M e of blocks 0..n_blocks-2; each t after
    S[0] = t
    np.matmul(G[:-1, a:z], ON[lo + a:lo + z], out=S[1:])
    for r in range((n_blocks - 1).bit_length()):  # d = 2**r = 1, 2, 4, ... < n_blocks
        d = 1 << r
        S[d:] += np.dot(S[:-d], P[r])  # the right side is read first
    start = first // CHUNK * CHUNK
    G[start:, c:c + 2] = S[start:]
    for i in range(start, n_blocks, CHUNK):
        np.matmul(G[i:i + CHUNK], O[lo:hi], out=F[i:i + CHUNK])
    if start == 0:  # step 0 as step() sums it
        k0, i0 = (0.0 if x is None else float(x[0]) for x in (increments, currents))
        F[0, :2] = t[0] + (k0 + b[0] * i0), t[1] + b[1] * i0
    return F.reshape(-1, 2)[:n_steps]


def _loop_scan(m, X, u, v):
    """Turn X into the states of x[i] = M x[i-1] + X[i] from x[-1] = (u, v), step by step.

    ``_blocked_scan``'s recurrence in place, with one plain step per row:
    the scan's reference, and the kernel of the runs that ``_run`` repairs.
    X is an (n_steps, 2) array of per-step (u, v) inputs, and m = (m00, m01,
    m10, m11) holds M. Every row becomes the plain recurrence's state bit for
    bit, a non-finite state and those after it too
    (test_loop_scan_is_the_plain_recurrence_on_every_row).

    Precision: on an undamped orbit at 16 steps per cycle, free or driven,
    within n_steps * eps / 8 of the largest |state| of the exact recurrence
    on M's float entries (test_loop_against_the_exact_recurrence, up to
    300k steps).
    """
    m00, m01, m10, m11 = m
    states = []
    for fu, fv in X.tolist():
        u, v = m00 * u + m01 * v + fu, m10 * u + m11 * v + fv
        states += u, v
    X.flat = states


def resonance_response(params: RafParams, drive_frequency: float,
                       drive_amplitude: float, duration: float) -> float:
    """Peak |v| over the steady portion of a sinusoidally driven run.

    The drive current amp*sin(2*pi*f*t) is sampled at step midpoints
    (``_sine_drive``) and applied zero-order-hold, always at 64 steps per
    cycle, dt = 1/(64 * max(f, resonance frequency)): every drive frequency
    below resonance runs at one dt and so shares the cached propagators. A
    finer sweep is one simulate call per point at the caller's dt. The first
    60% of the run is discarded as transient, so duration should cover
    several decay times.

    The result is max|v| over simulate's trace from step int(0.6*n_steps)
    on, bit for bit (test_equals_the_peak_of_simulates_window_bit_for_bit).
    The run takes simulate's ``_run`` with the drive as its currents, which
    scans only the chunks that hold the window and returns the window's
    states alone. A non-finite state in the window raises simulate's
    SimulationError
    (test_an_overflowing_drive_raises_simulates_error).

    Each argument is checked at entry, and a bad one raises ValueError
    naming it (test_rejects_bad_arguments_at_entry): so does a
    drive_frequency for which 1/dt overflows, and a duration that rounds to
    fewer than 2 steps (test_rejects_a_duration_under_two_steps) or to more
    than MAX_STEPS (test_a_count_past_max_steps_is_named). Where
    1/dt overflows at the params' resonance frequency, above the drive's,
    the message names that frequency and the params
    (test_an_infinite_resonance_frequency_names_the_params).
    """
    drive_frequency = _check_positive("drive_frequency", drive_frequency)
    drive_amplitude = _check_finite("drive_amplitude", drive_amplitude)
    duration = _check_positive("duration", duration)
    f_ref = max(drive_frequency, params.resonance_frequency)
    dt = 1.0 / (64.0 * f_ref)  # 0 where 1/dt overflows to inf
    if dt == 0.0:
        name = ("drive_frequency" if f_ref == drive_frequency
                else f"the resonance frequency of {params!r}")
        raise ValueError(f"{name} must be small enough that 1/dt is finite, got {f_ref!r}, "
                         f"with 1/dt = 64 * {f_ref!r}")
    steps = duration / dt
    if not steps <= MAX_STEPS:  # inf too
        raise ValueError(f"duration must be at most MAX_STEPS = {MAX_STEPS} steps of dt = "
                         f"{dt!r}, got {duration!r}: duration / dt = {steps!r}")
    n_steps = int(round(steps))
    if n_steps < 2:
        raise ValueError(f"duration must cover at least 2 steps, got {duration!r}: "
                         f"{n_steps} steps of dt = {dt!r}")
    drive = _sine_drive(drive_frequency, drive_amplitude, dt, n_steps)
    first = int(0.6 * n_steps)  # the steady window's first step
    steady = _run(params, dt, n_steps, drive, None, first=first)[:, 1]
    return float(np.abs(steady).max())


def _sine_drive(frequency, amplitude, dt, n_steps):
    """amplitude * sin(w * (k + 1/2)) for k < n_steps and w = 2*pi*frequency*dt.

    By angle addition: with k = R*J + j and R = isqrt(n_steps) + 1, the value
    is amp*sin(a_J)*cos(c_j) + amp*cos(a_J)*sin(c_j) for a_J = w*(R*J) and
    c_j = w*(j + 1/2), one (rows, 2) @ (2, R) matmul over the sines and
    cosines of ceil(n_steps / R) + R angles. Every value comes from two angles
    computed directly, so no error accumulates along k: each is within
    2*eps*(1 + w*n_steps)*|amplitude| of the exact value, the rounding of
    its phase (test_sine_drive_is_within_its_phase_rounding).
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
