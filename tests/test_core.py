"""Core dynamics tests: exact propagator, stepping, simulation invariants.

Oracles used here are independent of the closed-form implementation:
fine-step forward Euler products, scipy.linalg.expm, numerical quadrature
of the input integral, and FFT/cross-correlation trace analysis.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rafsim.core import (
    BLOCK,
    InputSignal,
    NeuronState,
    RafParams,
    SimulationError,
    StateTrace,
    _build_propagator,
    _forcing,
    _loop_scan,
    _propagator,
    _toeplitz,
    input_vector,
    resonance_response,
    simulate,
    step,
    transition_matrix,
    transition_terms,
)

TWO_PI = 2.0 * math.pi
# simulate's blocked scan against the per-step reference loop, as a share of
# the trace's largest |state|
SCAN_RTOL = 1e-12


def a_matrix(p: RafParams) -> np.ndarray:
    return np.array([[-p.k_u, -p.omega_v], [p.omega_u, -p.k_v]])


def euler_matrix(p: RafParams, dt: float, substeps: int) -> np.ndarray:
    """Oracle: forward-Euler product (I + A*h)^substeps with h = dt/substeps."""
    h = dt / substeps
    base = np.eye(2) + a_matrix(p) * h
    return np.linalg.matrix_power(base, substeps)


@st.composite
def raf_params(draw, allow_overdamped=True):
    f_res = draw(st.floats(10.0, 1e5))
    ratio = draw(st.floats(0.5, 2.0))
    omega_u = TWO_PI * f_res * ratio
    omega_v = TWO_PI * f_res / ratio
    if draw(st.booleans()):
        tau_u = tau_v = math.inf
    else:
        q = draw(st.floats(0.05 if allow_overdamped else 2.0, 100.0))
        tau = q / (TWO_PI * f_res)
        skew = draw(st.floats(0.5, 2.0))
        tau_u, tau_v = tau * skew, tau / skew
    return RafParams(omega_u=omega_u, omega_v=omega_v, tau_u=tau_u, tau_v=tau_v)


def critical_omega(w: float) -> float:
    """Nudge w until tau_u = 1/(2w) gives disc == 0 exactly (tau_v = inf)."""
    while 1.0 / (1.0 / (2.0 * w)) != 2.0 * w:
        w = math.nextafter(w, math.inf)
    return w


def loop_reference(p, signal, dt, n_steps, state=NeuronState()):
    """(u, v) of the per-step reference loop on simulate's own forcing."""
    m = tuple(float(x) for x in transition_terms(p.omega_u, p.omega_v, p.k_u, p.k_v, dt))
    _, b = _propagator(p, dt)
    return _loop_scan(m, *_forcing(b, dt, signal, n_steps), state.u, state.v)


def assert_matches_loop(p, signal, dt, n_steps, state=NeuronState()):
    ref_u, ref_v = loop_reference(p, signal, dt, n_steps, state)
    tol = SCAN_RTOL * max(np.abs(ref_u).max(), np.abs(ref_v).max())
    # a threshold sitting exactly on a state is the hardest case for the flags
    p = dataclasses.replace(p, theta=float(ref_v[n_steps // 2]))
    trace = simulate(p, signal, dt, n_steps, initial_state=state)
    assert np.abs(trace.u - ref_u).max() <= tol
    assert np.abs(trace.v - ref_v).max() <= tol
    flipped = trace.z != (ref_v >= p.theta)
    assert np.all(np.abs(ref_v[flipped] - p.theta) <= tol)


def mixed_input(p, dt, n_steps, seed):
    """A dense drive near resonance plus impulses, a quarter on step boundaries."""
    rng = np.random.default_rng(seed)
    w = max(math.sqrt(p.omega_u * p.omega_v), p.k_u, p.k_v, 1.0)
    t = (np.arange(n_steps) + 0.5) * dt
    dense = w * (np.sin(w * t) + 0.2 * rng.normal(size=n_steps))
    times = rng.uniform(0.0, n_steps * dt, size=n_steps // 5 + 1)
    times[::4] = rng.integers(0, n_steps, size=times[::4].size) * dt
    return InputSignal(dense=dense, events=list(zip(times, rng.normal(size=times.size))))


class TestTransitionMatrix:
    def test_quarter_period_pure_rotation(self):
        p = RafParams(omega_u=TWO_PI * 1000, omega_v=TWO_PI * 1000)
        m = transition_matrix(p, 0.25e-3)
        np.testing.assert_allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-9)

    def test_decoupled_exponential_decay(self):
        p = RafParams(omega_u=0.0, omega_v=0.0, tau_u=10e-3, tau_v=10e-3)
        m = transition_matrix(p, 10e-3)
        np.testing.assert_allclose(m, np.eye(2) * math.exp(-1.0), rtol=1e-12)

    def test_asymmetric_against_fine_euler(self):
        p = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200,
                      tau_u=5e-3, tau_v=20e-3)
        m = transition_matrix(p, 1e-3)
        oracle = euler_matrix(p, 1e-3, 10_000)
        np.testing.assert_allclose(m, oracle, atol=1e-4)

    def test_overdamped_branch_against_expm(self):
        # strong decay asymmetry pushes the eigenvalues onto the real axis
        p = RafParams(omega_u=TWO_PI * 10, omega_v=TWO_PI * 10,
                      tau_u=1e-4, tau_v=1.0)
        m = transition_matrix(p, 5e-4)
        oracle = scipy.linalg.expm(a_matrix(p) * 5e-4)
        np.testing.assert_allclose(m, oracle, rtol=1e-10, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(raf_params(), st.floats(1e-6, 1e-2))
    def test_matches_scipy_expm(self, p, dt):
        m = transition_matrix(p, dt)
        oracle = scipy.linalg.expm(a_matrix(p) * dt)
        np.testing.assert_allclose(m, oracle, rtol=1e-9, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(raf_params(), st.floats(1e-6, 1e-2))
    def test_semigroup_property(self, p, dt):
        whole = transition_matrix(p, dt)
        half = transition_matrix(p, dt / 2)
        # a subnormal entry is stored only to 2**-1074 absolute
        np.testing.assert_allclose(half @ half, whole, rtol=1e-9,
                                   atol=max(1e-9 * np.abs(whole).max(), 4 * 2.0**-1074))

    def test_subnormal_entries_keep_relative_precision(self):
        # overdamped, with every entry of exp(A*dt) near 1e-310
        p = RafParams(omega_u=423317.04, omega_v=423317.04, tau_u=5.9e-7, tau_v=2.36e-6)
        dt = 1.217e-3
        whole = transition_matrix(p, dt)
        half = transition_matrix(p, dt / 2).astype(np.longdouble)
        assert np.all(np.abs(whole) < 1e-308)
        # squared in extended range, where the product stays normal
        np.testing.assert_allclose(whole, half @ half, rtol=1e-11, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(TWO_PI * 10, TWO_PI * 1e5), st.floats(1e-3, 8.0),
           st.integers(1, 64), st.booleans())
    def test_continuous_across_critical_damping(self, w, w_dt, ulps, above):
        # omega_u = omega_v = w with k_u = 2w, k_v = 0 gives disc = w*w - w*w
        # = 0 exactly; omega_u a few ulps off w makes disc a tiny +- number
        dt = w_dt / w
        ou = w
        for _ in range(ulps):
            ou = math.nextafter(ou, math.inf if above else 0.0)
        disc = ou * w - w * w
        assume(disc != 0.0)
        assert (disc > 0.0) == above  # the oscillatory or the overdamped branch
        near = np.array(transition_terms(ou, w, 2.0 * w, 0.0, dt))
        critical = np.array(transition_terms(w, w, 2.0 * w, 0.0, dt))
        oracle = scipy.linalg.expm(np.array([[-2.0 * w, -w], [ou, 0.0]]) * dt).ravel()
        scale = np.abs(oracle).max()
        assert np.abs(near - critical).max() <= 1e-12 * scale
        assert np.abs(near - oracle).max() <= 1e-12 * scale

    def test_rejects_bad_dt(self):
        p = RafParams(omega_u=1.0, omega_v=1.0)
        with pytest.raises(ValueError):
            transition_matrix(p, 0.0)
        with pytest.raises(ValueError):
            transition_matrix(p, -1e-3)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_every_entry_point_rejects_bad_dt(self, dt):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        match = "dt must be finite and > 0"
        with pytest.raises(ValueError, match=match):
            step(NeuronState(1.0, 0.0), p, 0.0, dt)
        with pytest.raises(ValueError, match=match):
            simulate(p, InputSignal.impulse(1.0), dt, 10)
        with pytest.raises(ValueError, match=match):
            transition_matrix(p, dt)
        with pytest.raises(ValueError, match=match):
            input_vector(p, dt)
        with pytest.raises(ValueError, match=match):
            _propagator(p, dt)

    def test_rejects_non_finite_result(self):
        p = RafParams(omega_u=1e200, omega_v=1e200)  # omega product overflows
        with pytest.raises(SimulationError):
            transition_matrix(p, 1.0)


class TestInputVector:
    @settings(max_examples=60, deadline=None)
    @given(raf_params(), st.floats(0.01, 2.0))
    def test_matches_quadrature(self, p, cycles_per_step):
        # steps covering up to a couple of oscillation cycles, where the
        # quadrature oracle itself stays accurate
        dt = cycles_per_step / max(p.resonance_frequency, p.k_u, p.k_v, 1.0)
        b = input_vector(p, dt)
        A = a_matrix(p)
        for row in range(2):
            ref, _ = scipy.integrate.quad(
                lambda s: scipy.linalg.expm(A * s)[row, 0], 0.0, dt,
                limit=400, epsabs=1e-15, epsrel=1e-11)
            assert b[row] == pytest.approx(ref, rel=1e-7, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(raf_params(), st.floats(1e-5, 5e-3))
    def test_matches_resolvent_formula(self, p, dt):
        # independent route: b = A^-1 (exp(A dt) - I) e1 whenever A is regular
        A = a_matrix(p)
        b = input_vector(p, dt)
        ref = np.linalg.solve(A, (scipy.linalg.expm(A * dt) - np.eye(2))
                              @ np.array([1.0, 0.0]))
        np.testing.assert_allclose(b, ref, rtol=1e-7, atol=1e-15)

    @pytest.mark.parametrize("p", [
        RafParams(omega_u=0.0, omega_v=0.0),                       # A == 0
        RafParams(omega_u=0.0, omega_v=0.0, tau_u=1e-3),           # singular A
        RafParams(omega_u=0.0, omega_v=TWO_PI * 50, tau_v=1e-3),   # singular A
        RafParams(omega_u=TWO_PI * 50, omega_v=0.0, tau_u=2e-3),   # singular A
    ])
    def test_singular_generators(self, p):
        dt = 7e-4
        b = input_vector(p, dt)
        A = a_matrix(p)
        for row in range(2):
            ref, _ = scipy.integrate.quad(
                lambda s: scipy.linalg.expm(A * s)[row, 0], 0.0, dt, limit=200)
            assert b[row] == pytest.approx(ref, rel=1e-9, abs=1e-15)

    def test_zero_dynamics_reduces_to_dt(self):
        b = input_vector(RafParams(omega_u=0.0, omega_v=0.0), 1e-3)
        np.testing.assert_allclose(b, [1e-3, 0.0], rtol=1e-14)

    def test_rejects_a_step_out_of_range(self):
        # max|A|*dt = 1e310 overflows; no warning, and the error names both
        p = RafParams(omega_u=1e300, omega_v=1e300)
        match = r"max\|A\|\*dt is not finite for RafParams\(.*\), dt=10000000000\.0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=match):
                input_vector(p, 1e10)
            with pytest.raises(SimulationError, match=match):
                step(NeuronState(), p, 0.0, 1e10, hold_current=1.0)


class TestStep:
    def test_quarter_period_rotation_of_state(self):
        p = RafParams(omega_u=TWO_PI * 1000, omega_v=TWO_PI * 1000)
        state, spiked = step(NeuronState(1.0, 0.0), p, 0.0, 0.25e-3)
        assert state.u == pytest.approx(0.0, abs=1e-9)
        assert state.v == pytest.approx(1.0, rel=1e-9)
        assert spiked  # v reached theta = 1.0 (ties fire)

    def test_threshold_is_inclusive(self):
        p = RafParams(omega_u=0.0, omega_v=0.0, theta=0.5)
        frozen = NeuronState(0.2, 0.5)
        state, spiked = step(frozen, p, 0.0, 1e-3)
        assert (state.u, state.v) == (frozen.u, frozen.v)
        assert spiked
        state, spiked = step(NeuronState(0.2, 0.5 + 1e-12), p, 0.0, 1e-3)
        assert spiked
        _, spiked = step(NeuronState(0.2, 0.5 - 1e-9), p, 0.0, 1e-3)
        assert not spiked

    def test_damped_envelope_over_one_period(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100,
                      tau_u=50e-3, tau_v=50e-3)
        period = 1.0 / 100.0
        state = NeuronState(1.0, 0.0)
        for _ in range(64):
            state, _ = step(state, p, 0.0, period / 64)
        norm = math.hypot(state.u, state.v)
        assert norm == pytest.approx(math.exp(-period / 50e-3), rel=1e-3)

    def test_impulse_increments_u_only(self):
        p = RafParams(omega_u=0.0, omega_v=0.0)
        state, _ = step(NeuronState(0.0, 0.0), p, 0.7, 1e-3)
        assert (state.u, state.v) == (0.7, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(raf_params(), st.floats(1e-6, 1e-2), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.sampled_from([0.0, 0.7, -1e-3]), st.sampled_from([0.0, 3.0, -250.0]))
    def test_hold_current_matches_dense_simulate(self, p, dt, u0, v0, impulse, current):
        # the impulse and the held current are summed before they meet M x
        state, _ = step(NeuronState(u0, v0), p, impulse, dt, hold_current=current)
        trace = simulate(p, InputSignal(dense=[current], events=[(0.0, impulse)]), dt, 1,
                         initial_state=NeuronState(u0, v0))
        assert state.u == trace.u[0] and state.v == trace.v[0]

    def test_fails_alike_with_one_step_simulate_without_current(self):
        # M is finite, but b overflows in input_vector's doubling at dt = 1e5
        p = RafParams(omega_u=1e300, omega_v=0.0)
        match = "non-finite input vector"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=match):
                input_vector(p, 1e5)
            with pytest.raises(SimulationError, match=match):
                step(NeuronState(), p, 0.0, 1e5)
            with pytest.raises(SimulationError, match=match):
                simulate(p, InputSignal(), 1e5, 1)


class TestSimulate:
    def test_zero_input_zero_state_is_all_zero(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=10e-3,
                      tau_v=10e-3)
        trace = simulate(p, InputSignal(), 1e-4, 100)
        assert np.all(trace.u == 0.0) and np.all(trace.v == 0.0)
        assert np.all(trace.z == 0)

    def test_impulse_fft_peak_near_resonance(self):
        f0 = 250.0
        p = RafParams(omega_u=TWO_PI * f0, omega_v=TWO_PI * f0,
                      tau_u=0.1, tau_v=0.1)
        dt = 1.0 / (64 * f0)
        trace = simulate(p, InputSignal.impulse(1.0), dt, 64 * 100)
        # spectral oracle: windowed FFT peak of the u trace
        u = trace.u * np.hanning(len(trace.u))
        spec = np.abs(np.fft.rfft(u, n=8 * len(u)))
        f_peak = np.fft.rfftfreq(8 * len(u), dt)[np.argmax(spec)]
        assert f_peak == pytest.approx(f0, rel=0.02)

    def test_u_v_quadrature_lag(self):
        f0 = 250.0
        steps_per_period = 64
        p = RafParams(omega_u=TWO_PI * f0, omega_v=TWO_PI * f0,
                      tau_u=0.1, tau_v=0.1)
        dt = 1.0 / (steps_per_period * f0)
        trace = simulate(p, InputSignal.impulse(1.0), dt, steps_per_period * 50)
        corr = np.correlate(trace.u, trace.v, "full")
        shift = np.argmax(corr) - (len(trace.u) - 1)  # u shifted by `shift` aligns with v
        assert abs(-shift - steps_per_period // 4) <= 1  # v lags u by a quarter period

    def test_energy_decay_exact_for_symmetric_params(self):
        tau = 30e-3
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 300,
                      tau_u=tau, tau_v=tau)
        dt = 1e-5
        trace = simulate(p, InputSignal(), dt, 2000,
                         initial_state=NeuronState(0.6, -0.3))
        norms = np.hypot(trace.u, trace.v)
        expected = math.hypot(0.6, -0.3) * np.exp(-trace.times / tau)
        np.testing.assert_allclose(norms, expected, rtol=1e-6)

    def test_euler_equivalence_over_ten_periods(self):
        f0 = 500.0
        p = RafParams(omega_u=TWO_PI * f0, omega_v=TWO_PI * f0,
                      tau_u=20e-3, tau_v=20e-3)
        dt = 1.0 / (64 * f0)
        n_steps = 64 * 10
        trace = simulate(p, InputSignal.impulse(1.0), dt, n_steps)
        # oracle: forward Euler at 1000x finer substeps
        m = euler_matrix(p, dt, 1000)
        x = np.array([1.0, 0.0])  # impulse lands at the first step boundary
        ref = np.empty((n_steps, 2))
        ref[0] = x
        for i in range(1, n_steps):
            x = m @ x
            ref[i] = x
        rmse = np.sqrt(np.mean((trace.u - ref[:, 0]) ** 2 +
                               (trace.v - ref[:, 1]) ** 2))
        assert rmse < 1e-3

    @settings(max_examples=30, deadline=None)
    @given(raf_params(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity_in_inputs(self, p, a, b):
        dt, n = 2e-4, 40
        rng = np.random.default_rng(7)
        in1 = rng.normal(size=n)
        in2 = rng.normal(size=n)
        t_a = simulate(p, InputSignal(dense=in1), dt, n)
        t_b = simulate(p, InputSignal(dense=in2), dt, n)
        t_ab = simulate(p, InputSignal(dense=a * in1 + b * in2), dt, n)
        scale = max(np.abs(t_ab.u).max(), np.abs(t_ab.v).max(), 1e-30)
        np.testing.assert_allclose(t_ab.u, a * t_a.u + b * t_b.u,
                                   rtol=1e-9, atol=1e-9 * scale)
        np.testing.assert_allclose(t_ab.v, a * t_a.v + b * t_b.v,
                                   rtol=1e-9, atol=1e-9 * scale)

    def test_no_reset_trajectory_independent_of_threshold(self):
        base = dict(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200,
                    tau_u=30e-3, tau_v=30e-3)
        lo = simulate(RafParams(**base, theta=0.05), InputSignal.impulse(1.0),
                      1e-4, 500)
        hi = simulate(RafParams(**base, theta=1e9), InputSignal.impulse(1.0),
                      1e-4, 500)
        assert np.array_equal(lo.u, hi.u) and np.array_equal(lo.v, hi.v)
        assert lo.z.sum() > 0 and hi.z.sum() == 0

    def test_step_semigroup_on_traces(self):
        p = RafParams(omega_u=TWO_PI * 150, omega_v=TWO_PI * 150,
                      tau_u=40e-3, tau_v=40e-3)
        coarse = simulate(p, InputSignal(), 2e-4, 100,
                          initial_state=NeuronState(1.0, 0.0))
        fine = simulate(p, InputSignal(), 1e-4, 200,
                        initial_state=NeuronState(1.0, 0.0))
        np.testing.assert_allclose(coarse.u, fine.u[1::2], rtol=1e-9,
                                   atol=1e-9)
        np.testing.assert_allclose(coarse.v, fine.v[1::2], rtol=1e-9,
                                   atol=1e-9)

    def test_rejects_bad_args(self):
        p = RafParams(omega_u=1.0, omega_v=1.0)
        with pytest.raises(ValueError):
            simulate(p, InputSignal(), 1e-3, 0)
        with pytest.raises(ValueError):
            simulate(p, InputSignal(), -1e-3, 10)
        with pytest.raises(ValueError):
            simulate(p, InputSignal(dense=np.ones(5)), 1e-3, 10)

    @pytest.mark.parametrize("n_steps", [2.5, 10.0, True, 0, -3])
    def test_rejects_n_steps_that_is_not_an_integer_of_at_least_one(self, n_steps):
        p = RafParams(omega_u=1.0, omega_v=1.0)
        with pytest.raises(ValueError, match=f"^n_steps must be an integer >= 1, got {n_steps!r}"):
            simulate(p, InputSignal(), 1e-3, n_steps)

    def test_accepts_a_numpy_integer_n_steps(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        trace = simulate(p, InputSignal.impulse(1.0), 1e-4, np.int64(5))
        np.testing.assert_array_equal(trace.v, simulate(p, InputSignal.impulse(1.0), 1e-4, 5).v)


class TestScanKernel:
    """simulate's blocked scan against the per-step loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(raf_params(), st.floats(0.001, 0.5), st.integers(1, 4 * BLOCK + 3),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_matches_loop(self, p, cycles_per_step, n_steps, u0, v0, seed):
        dt = cycles_per_step / max(p.resonance_frequency, p.k_u, p.k_v, 1.0)
        assert_matches_loop(p, mixed_input(p, dt, n_steps, seed), dt, n_steps,
                            NeuronState(u0, v0))

    @pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 20_000])
    def test_block_edges(self, n_steps):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        assert_matches_loop(p, mixed_input(p, dt, n_steps, n_steps), dt, n_steps,
                            NeuronState(0.4, -0.7))

    def test_high_q_long_trace(self):
        # Q = 1e4 at f0 = 100 kHz and 4096 steps per cycle over 100k steps
        f0 = 1e5
        w = TWO_PI * f0
        tau = 2.0 * 1e4 / w
        p = RafParams(omega_u=w, omega_v=w, tau_u=tau, tau_v=tau)
        dt = 1.0 / (4096 * f0)
        assert_matches_loop(p, mixed_input(p, dt, 100_000, 1), dt, 100_000,
                            NeuronState(0.3, -0.1))

    @pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9, 1e-5, -1e-5])
    def test_critical_and_near_critical(self, rel):
        w = critical_omega(TWO_PI * 377.0)
        p = RafParams(omega_u=w * (1.0 + rel), omega_v=w, tau_u=1.0 / (2.0 * w))
        delta = 0.5 * (p.k_u - p.k_v)
        disc = p.omega_u * p.omega_v - delta * delta
        assert (disc == 0.0) == (rel == 0.0)
        dt = 1e-4
        assert_matches_loop(p, mixed_input(p, dt, 20_000, 2), dt, 20_000,
                            NeuronState(0.5, 0.2))

    def test_overdamped(self):
        p = RafParams(omega_u=TWO_PI * 10, omega_v=TWO_PI * 10, tau_u=1e-4, tau_v=1.0)
        assert p.resonance_frequency == 0.0
        dt = 5e-4
        assert_matches_loop(p, mixed_input(p, dt, 20_000, 3), dt, 20_000,
                            NeuronState(1.0, -1.0))

    def test_kernel_overflow_the_loop_avoids_is_repaired(self):
        # Summed within the block first, the two impulses overflow; added to
        # the state one at a time, they do not.
        p = RafParams(omega_u=0.0, omega_v=0.0)
        signal = InputSignal(events=[(70.0, 1e308), (71.0, 1e308)])
        trace = simulate(p, signal, 1.0, 100, initial_state=NeuronState(-1e308, 0.0))
        ref_u, ref_v = loop_reference(p, signal, 1.0, 100, NeuronState(-1e308, 0.0))
        assert np.all(np.isfinite(ref_u))
        np.testing.assert_array_equal(trace.u, ref_u)
        np.testing.assert_array_equal(trace.v, ref_v)

    @pytest.mark.parametrize("p, dt, current, failing_step", [
        (RafParams(omega_u=0.0, omega_v=0.0), 1.0, 0.6e308, 102),  # M = I
        (RafParams(omega_u=0.3, omega_v=0.3, tau_u=50.0), 1.0, 1e308, 101),
        # b[0] * current overflows to inf, which the matmul spreads over the block
        (RafParams(omega_u=0.0, omega_v=0.0), 2.0, 1e308, 100),
    ])
    def test_error_names_the_first_non_finite_step(self, p, dt, current, failing_step):
        currents = np.zeros(200)
        currents[100:] = current
        with pytest.raises(SimulationError, match=f"at step {failing_step} "):
            simulate(p, InputSignal(dense=currents), dt, 200)


class TestPropagator:
    """The cached (m, b) per (omega_u, omega_v, tau_u, tau_v, dt), and (m64, W) per M."""

    def test_cold_cache_gives_the_same_bits_as_warm(self):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt, n_steps = 1.0 / (64 * 250), 1000
        signal = mixed_input(p, dt, n_steps, 5)
        _build_propagator.cache_clear()
        _toeplitz.cache_clear()
        cold = simulate(p, signal, dt, n_steps)
        cold_peak = resonance_response(p, 180.0, 2.0, 0.1)
        hits = _build_propagator.cache_info().hits
        warm = simulate(p, signal, dt, n_steps)
        assert _build_propagator.cache_info().hits > hits
        for a, b in ((cold.u, warm.u), (cold.v, warm.v), (cold.z, warm.z)):
            np.testing.assert_array_equal(a, b)
        assert resonance_response(p, 180.0, 2.0, 0.1) == cold_peak

    def test_step_reads_the_cache(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 90, tau_u=0.05, theta=0.5)
        _build_propagator.cache_clear()
        step(NeuronState(0.1, 0.2), p, 0.0, 1e-4)
        hits = _build_propagator.cache_info().hits
        step(NeuronState(0.3, -0.4), p, 0.5, 1e-4, hold_current=2.0)
        assert _build_propagator.cache_info().hits == hits + 1

    def test_dt_one_ulp_apart_do_not_share(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        dt = 1e-4
        assert _propagator(p, dt) is not _propagator(p, math.nextafter(dt, 1.0))
        assert _propagator(p, dt) is _propagator(p, dt)

    def test_params_differing_only_in_theta_share(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 90, tau_u=0.05, theta=0.5)
        q = dataclasses.replace(p, theta=7.0)
        assert _propagator(p, 1e-4) is _propagator(q, 1e-4)

    def test_cache_holds_at_most_one_mib_of_w(self):
        p = RafParams(omega_u=1.0, omega_v=1.0)
        m, _ = _propagator(p, 1e-3)
        w_bytes = _toeplitz(m)[1].nbytes
        assert w_bytes == (2 * BLOCK) ** 2 * 8
        assert _toeplitz.cache_info().maxsize * w_bytes <= 2**20

    def test_b_is_input_vector_bit_for_bit(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 110, tau_u=3e-3, tau_v=0.3,
                      theta=0.25)
        q = dataclasses.replace(p, theta=-4.0)
        dt = 1.0 / 6400
        assert _propagator(p, dt)[1] == tuple(input_vector(p, dt))
        assert _propagator(q, dt)[1] == tuple(input_vector(q, dt))

    def test_carry_is_m_multiplied_out_block_times(self):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        m00, m01, m10, m11 = (float(x) for x in transition_terms(
            p.omega_u, p.omega_v, p.k_u, p.k_v, dt))
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for _ in range(BLOCK):  # M @ (M^k), in the loop's order of operations
            a, b, c, d = (m00 * a + m01 * c, m00 * b + m01 * d,
                          m10 * a + m11 * c, m10 * b + m11 * d)
        assert _toeplitz((m00, m01, m10, m11))[0] == (a, b, c, d)

    def test_cached_arrays_are_read_only(self):
        m, _ = _propagator(RafParams(omega_u=1.0, omega_v=2.0), 1e-3)
        _, W = _toeplitz(m)
        with pytest.raises(ValueError):
            W[0, 0] = 1.0


class TestResonanceResponse:
    def test_sweep_peaks_near_resonance(self):
        f0 = 200.0
        tau = 60.0 / (TWO_PI * f0)  # omega * tau = 60
        p = RafParams(omega_u=TWO_PI * f0, omega_v=TWO_PI * f0,
                      tau_u=tau, tau_v=tau)
        freqs = np.geomspace(0.2 * f0, 5.0 * f0, 60)
        responses = [resonance_response(p, f, 1.0, 12 * tau) for f in freqs]
        f_best = freqs[int(np.argmax(responses))]
        assert f_best == pytest.approx(f0, rel=0.05)

    def test_zero_amplitude_gives_zero_response(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100,
                      tau_u=0.05, tau_v=0.05)
        assert resonance_response(p, 100.0, 0.0, 0.5) == 0.0

    def test_rolloff_above_resonance(self):
        f0 = 200.0
        tau = 60.0 / (TWO_PI * f0)
        p = RafParams(omega_u=TWO_PI * f0, omega_v=TWO_PI * f0,
                      tau_u=tau, tau_v=tau)
        at_res = resonance_response(p, f0, 1.0, 12 * tau)
        above = resonance_response(p, 5 * f0, 1.0, 12 * tau)
        assert above < at_res

    def test_rejects_nonpositive_frequency(self):
        p = RafParams(omega_u=1.0, omega_v=1.0)
        with pytest.raises(ValueError):
            resonance_response(p, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("kwargs, name", [
        ({"duration": -1.0}, "duration"),
        ({"duration": 0.0}, "duration"),
        ({"duration": math.nan}, "duration"),
        ({"duration": math.inf}, "duration"),
        ({"steps_per_cycle": 0}, "steps_per_cycle"),
        ({"steps_per_cycle": -64}, "steps_per_cycle"),
        ({"steps_per_cycle": 64.5}, "steps_per_cycle"),
        ({"steps_per_cycle": True}, "steps_per_cycle"),
        ({"drive_frequency": math.inf}, "drive_frequency"),
        ({"duration": 1e306}, "duration"),  # duration / dt overflows
        ({"drive_amplitude": math.inf}, "drive_amplitude"),
        ({"drive_amplitude": math.nan}, "drive_amplitude"),
    ])
    def test_rejects_bad_arguments_at_entry(self, kwargs, name):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05, tau_v=0.05)
        args = {"drive_frequency": 100.0, "drive_amplitude": 1.0, "duration": 0.5}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            resonance_response(p, **{**args, **kwargs})

    @pytest.mark.parametrize("duration, n_steps", [(1e-9, 0), (1e-4, 1)])
    def test_rejects_a_duration_under_two_steps(self, duration, n_steps):
        # f = f0 = 100 Hz at 64 steps per cycle: dt = 1/6400 s
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100)
        match = (f"^duration must cover at least 2 steps, got {duration!r}: "
                 f"{n_steps} steps of dt = {1 / 6400!r}")
        with pytest.raises(ValueError, match=match):
            resonance_response(p, 100.0, 1.0, duration)
        assert resonance_response(p, 100.0, 1.0, 1.5 / 6400) > 0.0  # rounds to 2 steps

    def test_accepts_a_numpy_integer_steps_per_cycle(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05, tau_v=0.05)
        assert (resonance_response(p, 90.0, 1.0, 0.5, steps_per_cycle=np.int64(32))
                == resonance_response(p, 90.0, 1.0, 0.5, steps_per_cycle=32))


class TestTypesAndValidation:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            RafParams(omega_u=-1.0, omega_v=1.0)
        with pytest.raises(ValueError):
            RafParams(omega_u=1.0, omega_v=math.nan)
        with pytest.raises(ValueError):
            RafParams(omega_u=1.0, omega_v=1.0, tau_u=0.0)
        with pytest.raises(ValueError):
            RafParams(omega_u=1.0, omega_v=1.0, theta=math.inf)
        p = RafParams(omega_u=1.0, omega_v=1.0, tau_u=math.inf)
        assert p.k_u == 0.0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            NeuronState(math.nan, 0.0)

    def test_input_signal_validation(self):
        with pytest.raises(ValueError, match=r"event 1 .*\(-1\.0, 0\.5\)"):
            InputSignal(events=[(0.0, 1.0), (-1.0, 0.5)])
        sig = InputSignal(events=[(0.5e-3, 2.0), (0.0, 1.0)])
        inc = sig.impulse_increments(1e-3, 10)
        assert inc[0] == 3.0  # both events land in the first step

    def test_events_at_or_past_the_horizon_are_rejected(self):
        dt, n_steps = 0.25, 8  # the horizon n_steps * dt = 2.0 is exact
        inside = InputSignal(events=[(0.0, 1.0), (math.nextafter(2.0, 0.0), 1.0)])
        assert inside.impulse_increments(dt, n_steps)[-1] == 1.0
        for t in (2.0, 5.0):
            sig = InputSignal(events=[(0.0, 1.0), (t, 1.0)])
            with pytest.raises(ValueError, match=f"time {t!r} is at or past the horizon"):
                sig.impulse_increments(dt, n_steps)
            with pytest.raises(ValueError, match="horizon"):
                simulate(RafParams(omega_u=1.0, omega_v=1.0), sig, dt, n_steps)

    def test_coincident_events_out_of_order_match_in_order_loop(self):
        rng = np.random.default_rng(11)
        dt, n_steps = 1e-4, 50
        # few distinct times, on and between step boundaries, and amplitudes
        # whose sum depends on the order they are added in
        times = rng.choice(np.concatenate([np.arange(n_steps) * dt,
                                           (np.arange(n_steps) + 0.37) * dt]), size=2000)
        amps = rng.choice([1e16, -1e16, 1.0, 3.0, -0.5], size=times.size)
        events = list(zip(times.tolist(), amps.tolist()))
        ref = np.zeros(n_steps)
        for t, a in sorted(events, key=lambda e: e[0]):
            ref[int(t / dt)] += a
        inc = InputSignal(events=events).impulse_increments(dt, n_steps)
        np.testing.assert_array_equal(inc, ref)

    @pytest.mark.parametrize("kwargs", [
        {"dense": [1.0, math.inf]},
        {"dense": [1.0, math.nan]},
        {"dense": [[1.0, 2.0], [3.0, 4.0]]},
        {"events": [(math.nan, 1.0)]},
        {"events": [(math.inf, 1.0)]},
        {"events": [(0.0, math.inf)]},
        {"events": [(0.0, math.nan)]},
        {"events": [(0.0, 1.0, 2.0)]},
    ], ids=["dense-inf", "dense-nan", "dense-2d", "time-nan", "time-inf",
            "amplitude-inf", "amplitude-nan", "event-triple"])
    def test_input_signal_rejects_non_finite_or_misshapen_input(self, kwargs):
        with pytest.raises(ValueError):
            InputSignal(**kwargs)

    def test_trace_csv_roundtrip(self, tmp_path):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100,
                      tau_u=20e-3, tau_v=20e-3, theta=0.2)
        trace = simulate(p, InputSignal.impulse(1.0), 1e-4, 50)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = StateTrace.from_csv(path)
        np.testing.assert_array_equal(loaded.u, trace.u)
        np.testing.assert_array_equal(loaded.v, trace.v)
        np.testing.assert_array_equal(loaded.z, trace.z)
        assert loaded.z.dtype == trace.z.dtype == np.int8
        assert loaded.dt == trace.dt

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_trace_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            StateTrace(dt=dt, u=np.zeros(3), v=np.zeros(3), z=np.zeros(3, dtype=np.int8))

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 1), (2, 3, 3)])
    def test_trace_rejects_unequal_lengths(self, lengths):
        u, v, z = (np.zeros(k) for k in lengths)
        with pytest.raises(ValueError, match="u, v and z must have equal lengths"):
            StateTrace(dt=1e-3, u=u, v=v, z=z)

    def test_trace_csv_roundtrip_one_row(self, tmp_path):
        trace = StateTrace(dt=0.1, u=np.array([0.1 + 0.2]), v=np.array([-1e-300]),
                           z=np.array([1], dtype=np.int8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text() == "t,u,v,z\n0.1,0.30000000000000004,-1e-300,1\n"
        loaded = StateTrace.from_csv(path)
        assert (loaded.dt, loaded.u.tolist(), loaded.v.tolist(), loaded.z.tolist()) == (
            0.1, [0.1 + 0.2], [-1e-300], [1])
