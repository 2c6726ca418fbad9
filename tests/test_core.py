"""Core dynamics tests: exact propagator, stepping, simulation invariants.

Oracles used here are independent of the closed-form implementation:
fine-step forward Euler products, scipy.linalg.expm, numerical quadrature
of the input integral, and FFT/cross-correlation trace analysis.
"""

import dataclasses
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rafsim
from rafsim.core import (
    BLOCK,
    CHUNK,
    MAX_STEPS,
    ROUNDS,
    InputSignal,
    NeuronState,
    RafParams,
    SimulationError,
    StateTrace,
    _blocked_scan,
    _forcing,
    _loop_scan,
    _propagator,
    _sine_drive,
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
# the loop's and the scan's error against the exact recurrence on an undamped
# orbit, per step of the run, as a share of the largest exact |state|
EXACT_RTOL_PER_STEP = np.finfo(float).eps / 8


def a_matrix(p: RafParams) -> np.ndarray:
    return np.array([[-p.k_u, -p.omega_v], [p.omega_u, -p.k_v]])


def exact_series_b(p: RafParams, dt: float) -> np.ndarray:
    """b = sum_k A^k e1 dt^(k+1) / (k+1)! exactly, on the exact values of A's floats and dt.

    With D the power of 2 that makes them integers, term k is
    n_k / (D**(2k+1) * (k+1)!) with n_k = (D*A)^k e1 (D*dt)^(k+1). The sum is
    kept over that common denominator in Python integers until a term is
    below 2**-200 of it, then each entry is rounded once.
    """
    A = a_matrix(p).tolist()
    D = max(Fraction(x).denominator for x in [dt, *A[0], *A[1]])
    (a00, a01), (a10, a11) = ((int(Fraction(x) * D) for x in row) for row in A)
    H = int(Fraction(dt) * D)
    n0, n1, s0, s1, q = H, 0, H, 0, D
    k = 1
    while True:
        n0, n1 = (a00 * n0 + a01 * n1) * H, (a10 * n0 + a11 * n1) * H
        r = D * D * (k + 1)
        s0, s1, q = s0 * r + n0, s1 * r + n1, q * r
        if max(abs(n0), abs(n1)) << 200 < max(abs(s0), abs(s1)):
            return np.array([s0 / q, s1 / q])
        k += 1


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


def child_lines(code, arg, **env):
    """stdout lines of python -c code with sys.argv[1] = repr(arg), rafsim importable, env set."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(rafsim.__file__)), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, repr(arg)], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.splitlines()


def critical_omega(w: float) -> float:
    """Nudge w until tau_u = 1/(2w) gives disc == 0 exactly (tau_v = inf)."""
    while 1.0 / (1.0 / (2.0 * w)) != 2.0 * w:
        w = math.nextafter(w, math.inf)
    return w


def critical_params(w: float) -> RafParams:
    """An exactly critically damped neuron near omega_u = omega_v = w."""
    w = critical_omega(w)
    return RafParams(omega_u=w, omega_v=w, tau_u=1.0 / (2.0 * w))


def loop_reference(p, signal, dt, n_steps, state=NeuronState()):
    """(u, v) of the per-step reference loop on simulate's own forcing."""
    m = transition_terms(p.omega_u, p.omega_v, p.k_u, p.k_v, dt)
    _, b = _propagator(p, dt)
    X = np.zeros((n_steps, 2))
    _forcing(b, signal.dense, signal.impulse_increments(dt, n_steps), X)
    _loop_scan(m, X, state.u, state.v)
    return X[:, 0], X[:, 1]


KINDS = ("mixed", "currents", "impulses")  # the scan's three kinds of input


def kind_inputs(kind, currents, increments):
    """(currents, increments) of one input kind: the other is None."""
    return (None if kind == "impulses" else currents, None if kind == "currents" else increments)


def nan_empty(monkeypatch):
    """Make np.empty fill its arrays with NaN, so a value read before it is written shows."""
    empty = np.empty

    def filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", filled)
    assert np.isnan(np.empty(2)).all()


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


def exact_recurrence(m, inc_u, inc_v, u, v):
    """x[i] = M x[i-1] + f[i] on the exact values of m's floats, the inputs and (u, v).

    In Python integers: M's entries at 80 fractional bits, which must hold
    them exactly, and the state at 160, so each step is off by less than
    2**-159. Returns the states as two float arrays, each value rounded once.
    """
    assert all((x * 2.0**80).is_integer() for x in m)
    m00, m01, m10, m11 = (int(x * 2.0**80) for x in m)
    u, v = int(math.ldexp(u, 160)), int(math.ldexp(v, 160))
    us, vs = [], []
    for fu, fv in zip(inc_u.tolist(), inc_v.tolist()):
        u, v = (((m00 * u + m01 * v) >> 80) + int(math.ldexp(fu, 160)),
                ((m10 * u + m11 * v) >> 80) + int(math.ldexp(fv, 160)))
        us.append(u / 2**160)
        vs.append(v / 2**160)
    return np.array(us), np.array(vs)


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

    # transition_terms overflows on dt = -100 at this tau_u, so the check must come first
    @pytest.mark.parametrize("dt", [0.0, -0.1, -100.0, math.nan, math.inf])
    def test_every_entry_point_rejects_bad_dt(self, dt):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        match = "dt must be finite and > 0"
        with pytest.raises(ValueError, match=match):
            step(NeuronState(1.0, 0.0), p, 0.0, dt)
        with pytest.raises(ValueError, match=match):
            simulate(p, InputSignal.impulse(1.0), dt, 10)
        with pytest.raises(ValueError, match=match):
            InputSignal.impulse(1.0).impulse_increments(dt, 10)
        with pytest.raises(ValueError, match=match):
            transition_matrix(p, dt)
        with pytest.raises(ValueError, match=match):
            input_vector(p, dt)
        with pytest.raises(ValueError, match=match):
            _propagator(p, dt)

    def test_rejects_non_finite_result(self):
        cases = [
            (RafParams(omega_u=1e200, omega_v=1e200), 1.0),  # omega product overflows
            # omega_u*omega_v and delta*delta overflow, so disc = inf - inf is NaN;
            # env = 0, so a NaN disc taken as critical would give a finite, all-zero M
            (RafParams(omega_u=1e200, omega_v=1e200, tau_u=1e-300), 1e-3),
            # disc = 1e300 is finite, but the rotation angle om*dt = 1e150 * 1e300 is not
            (RafParams(omega_u=1e200, omega_v=1e100), 1e300),
        ]
        for p, dt in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SimulationError):
                    transition_matrix(p, dt)
                with pytest.raises(SimulationError):
                    step(NeuronState(), p, 0.0, dt)
                with pytest.raises(SimulationError):
                    simulate(p, InputSignal(), dt, 3)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="NPY_DISABLE_CPU_FEATURES=X86_V4 names an x86-64 feature group")
    def test_bits_do_not_follow_numpys_simd_dispatch(self):
        # keys whose entries numpy's AVX-512 and baseline exp/expm1 kernels
        # round differently
        w1, w2, w3 = TWO_PI * 101, TWO_PI * 102, TWO_PI * 119
        keys = [(w1, w1, 1 / 0.02, 1 / 0.05, 1 / (64 * 101)),  # damped
                (w2, w2, 1 / 1e-4, 1.0, 1 / (64 * 102)),  # overdamped
                (w3, w3, 2.0 * w3, 0.0, 1 / 6400)]  # critical: disc = w3*w3 - w3*w3
        entries = [transition_terms(*k) for k in keys]
        assert all(type(x) is float for m in entries for x in m)
        child = child_lines("import ast, sys; from rafsim.core import transition_terms\n"
                            "for k in ast.literal_eval(sys.argv[1]):\n"
                            "    print(*(x.hex() for x in transition_terms(*k)))",
                            keys, NPY_DISABLE_CPU_FEATURES="X86_V4")
        assert child == [" ".join(x.hex() for x in m) for m in entries]


class TestInputVector:
    @settings(max_examples=60, deadline=None)
    @given(raf_params(), st.floats(0.01, 2.0))
    @example(RafParams(omega_u=TWO_PI * 10, omega_v=TWO_PI * 10), 2.0)  # b near 0, dt = 0.2
    def test_matches_quadrature(self, p, cycles_per_step):
        # steps covering up to a couple of oscillation cycles, where the
        # quadrature oracle itself stays accurate
        dt = cycles_per_step / max(p.resonance_frequency, p.k_u, p.k_v, 1.0)
        b = input_vector(p, dt)
        A = a_matrix(p)
        for row in range(2):
            # expm's rounding puts quad's error floor near 1e-14 * dt; with dt <= 0.2
            # here, epsabs stays 10x under the assertion's abs
            ref, _ = scipy.integrate.quad(
                lambda s: scipy.linalg.expm(A * s)[row, 0], 0.0, dt,
                limit=400, epsabs=5e-14 * dt, epsrel=1e-11)
            assert b[row] == pytest.approx(ref, rel=1e-7, abs=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(raf_params(), st.floats(TWO_PI * 10, TWO_PI * 1e5).map(critical_params)),
           st.integers(0, 11), st.floats(0.55, 0.95))
    @example(RafParams(omega_u=TWO_PI * 5.5, omega_v=TWO_PI * 22.0), 7, 0.55)  # skewed and undamped
    # the largest error found at 11 halvings: 313 eps against a bound of 384
    @example(RafParams(omega_u=286208.1503954557, omega_v=263443.29527349357), 11, 0.75)
    def test_matches_the_exact_series(self, p, halvings, frac):
        # max|A|*dt = frac * 2**(halvings - 1), so input_vector halves dt that many
        # times. The scale is the largest b of the halved steps, since b at dt
        # cancels towards 0 where dt is near whole cycles, and its halves do not.
        a_dt = frac * 2.0**(halvings - 1)  # max|A|*dt
        dt = a_dt / float(np.abs(a_matrix(p)).max())
        scale = max(np.abs(exact_series_b(p, dt / 2**j)).max() for j in range(halvings + 1))
        err = np.abs(input_vector(p, dt) - exact_series_b(p, dt)).max()
        assert err <= max(4 + 4 * halvings, a_dt / 2) * np.finfo(float).eps * scale

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

    @pytest.mark.parametrize("dt", [5e7, 1e8])
    def test_rejects_a_scale_above_2_to_the_1022(self, dt):
        # max|A|*dt is finite, but halving it below 0.5 takes over 1023 halvings:
        # 5e307 > 2**1022, and at 1e308 doubling it overflows
        p = RafParams(omega_u=1e300, omega_v=0.0)
        match = (re.escape(f"max|A|*dt = {dt * 1e300!r} is above 2**1022 for RafParams(")
                 + r".*" + re.escape(f"), dt={dt!r}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=match):
                input_vector(p, dt)
            with pytest.raises(SimulationError, match=match):
                step(NeuronState(), p, 0.0, dt)
            with pytest.raises(SimulationError, match=match):
                simulate(p, InputSignal(), dt, 3)

    def test_a_non_finite_half_step_names_the_callers_dt(self):
        # k_u = 1e300 gives exp(A*h) an infinite entry at the halved step h
        p = RafParams(omega_u=1.0, omega_v=1.0, tau_u=1e-300)
        match = r"non-finite input vector for RafParams\(.*tau_u=1e-300.*\), dt=0\.001$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=match):
                input_vector(p, 1e-3)
            with pytest.raises(SimulationError, match=match):
                step(NeuronState(), p, 0.0, 1e-3)
            with pytest.raises(SimulationError, match=match):
                simulate(p, InputSignal(), 1e-3, 3)

    @pytest.mark.parametrize("dt, doublings", [(1.0 / 6400, 0), (1e-2, 4)])
    def test_builds_one_e_per_doubling(self, monkeypatch, dt, doublings):
        # max|A|*dt is 0.11 at dt = 1/6400, so no doubling; at dt = 0.01 it is 6.9, so 4
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 110, tau_u=3e-3, tau_v=0.3)
        calls = []

        def counted(*args):
            calls.append(args)
            return transition_terms(*args)

        monkeypatch.setattr("rafsim.core.transition_terms", counted)
        input_vector(p, dt)
        # doubling i reads exp(A*h_i) at h_i = dt / 2**(doublings - i)
        assert calls == [(p.omega_u, p.omega_v, p.k_u, p.k_v, dt / 2**(doublings - i))
                         for i in range(doublings)]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="Sandybridge and Haswell are x86-64 OpenBLAS kernels")
    def test_b_without_a_doubling_does_not_follow_the_blas_kernel(self):
        # max|A|*dt <= 0.5, so b is the series alone, whose bits the sweep's
        # and a long trace's cross-kernel equality rest on; a doubled b's
        # matrix-vector products round as the kernel does, with or without FMA
        w, f0 = TWO_PI * 200, TWO_PI * 1e5
        keys = [((w, w, 60 / w, 60 / w), 1 / (64 * 317.0)),  # a sweep point above resonance
                ((f0, f0, 2e4 / f0, 2e4 / f0), 1 / (4096 * 1e5)),  # high Q, 4096 steps per cycle
                ((TWO_PI * 50, TWO_PI * 50, 1 / (4 * TWO_PI * 50), 1.0), 1e-4)]  # overdamped
        params = [(RafParams(*k), dt) for k, dt in keys]
        assert all(max(p.omega_u, p.omega_v, p.k_u, p.k_v) * dt <= 0.5 for p, dt in params)
        b = [" ".join(x.hex() for x in input_vector(p, dt).tolist()) for p, dt in params]
        for core in ("Sandybridge", "Haswell"):
            child = child_lines("import ast, sys; from rafsim.core import RafParams, input_vector\n"
                                "for k, dt in ast.literal_eval(sys.argv[1]):\n"
                                "    print(*(x.hex() for x in input_vector(RafParams(*k), dt)))",
                                keys, OPENBLAS_CORETYPE=core)
            assert child == b, core

    def test_an_overflow_in_gs_second_column_leaves_b_finite(self):
        # A*e1 = 0, so b = (dt, 0) and M = [[1, -1e305], [0, 1]] are finite; the
        # integral of exp(A*s)'s second column, -omega_v*dt**2/2, would overflow
        p = RafParams(omega_u=0.0, omega_v=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert input_vector(p, 1e5).tolist() == [1e5, 0.0]
            assert step(NeuronState(0.5, 0.0), p, 0.25, 1e5, hold_current=2.0) == (
                NeuronState(200_000.75, 0.0), False)
            trace = simulate(p, InputSignal(dense=[2.0, 2.0, 2.0]), 1e5, 3,
                             initial_state=NeuronState(0.5, 0.0))
        assert trace.u.tolist() == [200_000.5, 400_000.5, 600_000.5]
        assert trace.v.tolist() == [0.0, 0.0, 0.0]

    def test_scale_2_to_the_1022_still_builds(self):
        # the largest scale whose step halves to 0.5 within a float
        b = input_vector(RafParams(omega_u=2.0**1022, omega_v=0.0), 1.0)
        assert np.all(np.isfinite(b))


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
           st.sampled_from([0.0, 0.7, -1e-3]), st.sampled_from([0.0, 3.0, -250.0]),
           st.sampled_from(KINDS), st.sampled_from([1, 2 * BLOCK + 3]))
    def test_hold_current_matches_dense_simulate(self, p, dt, u0, v0, impulse, current, kind,
                                                 n_steps):
        # step 0 of a run of each input kind, one step long or three blocks:
        # the impulse and the held current are summed before they meet M x
        dense, events = kind_inputs(kind, np.full(n_steps, current), [(0.0, impulse)])
        state, _ = step(NeuronState(u0, v0), p, 0.0 if events is None else impulse, dt,
                        hold_current=0.0 if dense is None else current)
        trace = simulate(p, InputSignal(dense=dense, events=events), dt, n_steps,
                         initial_state=NeuronState(u0, v0))
        assert (np.array([state.u, state.v]).tobytes()
                == np.array([trace.u[0], trace.v[0]]).tobytes())

    @pytest.mark.parametrize("kwargs, name", [
        ({"input_increment": math.nan}, "input_increment"),
        ({"input_increment": -math.inf}, "input_increment"),
        ({"hold_current": math.inf}, "hold_current"),
        ({"hold_current": math.nan}, "hold_current"),
        ({"input_increment": math.inf, "hold_current": math.nan}, "input_increment"),
    ])
    def test_rejects_a_non_finite_input(self, kwargs, name):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100)
        args = {"input_increment": 0.5, "hold_current": 2.0}
        value = {**args, **kwargs}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
                step(NeuronState(0.1, -0.2), p, dt=1e-3, **{**args, **kwargs})

    def test_error_names_the_state_before_the_step_and_both_inputs(self):
        # M is the identity and the inputs are finite, but u overflows
        p = RafParams(omega_u=0.0, omega_v=0.0)
        before = NeuronState(1e308, -0.25)
        match = re.escape(f"non-finite state (inf, -0.25) after step from {before!r} with "
                          f"input_increment=1e+308, hold_current=0.0, {p!r}, dt=0.001")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=f"^{match}$"):
                step(before, p, 1e308, 1e-3)

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

    # in its own type, all but the int64 would wrap or raise in _run's buffer
    # size: 4096 rows of headroom do not fit an int8 or a uint8, -n_steps wraps
    # a uint64, and 4096 + 30_000 wraps an int16
    @pytest.mark.parametrize("n_steps", [np.int64(5), np.int8(100), np.uint8(100),
                                         np.uint64(100), np.int16(30_000)], ids=repr)
    def test_accepts_a_numpy_integer_n_steps(self, n_steps):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        dense = np.random.default_rng(3).normal(size=int(n_steps))
        signal = InputSignal(dense=dense, events=[(0.0, 1.0), (int(n_steps) * 0.5e-4, -0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(p, signal, 1e-4, n_steps)
        expected = simulate(p, signal, 1e-4, int(n_steps))
        assert len(trace) == n_steps
        assert type(trace.metadata["n_steps"]) is int
        for got, want in ((trace.u, expected.u), (trace.v, expected.v), (trace.z, expected.z)):
            assert got.tobytes() == want.tobytes()


class TestScanKernel:
    """simulate's blocked scan against the per-step loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(raf_params(), st.floats(0.001, 0.5), st.integers(1, 4 * BLOCK + 3),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_matches_loop(self, p, cycles_per_step, n_steps, u0, v0, seed):
        dt = cycles_per_step / max(p.resonance_frequency, p.k_u, p.k_v, 1.0)
        assert_matches_loop(p, mixed_input(p, dt, n_steps, seed), dt, n_steps,
                            NeuronState(u0, v0))

    @settings(max_examples=15, deadline=None)
    @given(raf_params(), st.floats(0.001, 0.5),
           st.integers(BLOCK * (BLOCK + 1) + 1, 4 * BLOCK * (BLOCK + 1)),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_matches_loop_across_levels(self, p, cycles_per_step, n_steps, u0, v0, seed):
        # 34 to 132 blocks: the doubling carries the start states in 6 to 8 rounds
        dt = cycles_per_step / max(p.resonance_frequency, p.k_u, p.k_v, 1.0)
        assert_matches_loop(p, mixed_input(p, dt, n_steps, seed), dt, n_steps,
                            NeuronState(u0, v0))

    # one step either side of one block and of BLOCK + 1 blocks, one step past
    # BLOCK*(BLOCK+1) blocks and past one block more; and a block count at a
    # power of two and one past it, where the doubling takes one round more
    # (7 rounds, then 8)
    @pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 20_000,
                                         BLOCK * (BLOCK + 1) - 1, BLOCK * (BLOCK + 1),
                                         BLOCK * (BLOCK + 1) + 1, BLOCK**2 * (BLOCK + 1) + 1,
                                         BLOCK * (BLOCK * (BLOCK + 1) + 1) + 1,
                                         BLOCK * 2**7, BLOCK * 2**7 + 1])
    def test_block_edges(self, n_steps):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        assert len(simulate(p, InputSignal(), dt, n_steps)) == n_steps
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

    def test_repair_past_the_first_upper_block_is_the_loop_from_step_0(self):
        # The two 1e308 impulses overflow the end state of block 62 (steps
        # 1984-2015), which the carry passes on to the blocks after it (step
        # 2047 among them), but not the loop, which adds them to a state of
        # -1e308 one at a time. The repair reruns the loop from
        # step 0, so the steps before that block are the loop's bits too, not
        # the kernel's sums of the random drive.
        p = RafParams(omega_u=0.0, omega_v=0.0)  # M = I
        n_steps = 3 * BLOCK**2
        currents = np.random.default_rng(13).normal(size=n_steps)
        signal = InputSignal(dense=currents,
                             events=[(1100.0, -1e308), (2000.0, 1e308), (2001.0, 1e308)])
        m, b = _propagator(p, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            X = _blocked_scan(m, b, n_steps, currents, signal.impulse_increments(1.0, n_steps),
                              0.0, 0.0)
        assert not np.isfinite(X[2 * BLOCK**2 - 1]).all()  # the kernel overflows
        ref_u, ref_v = loop_reference(p, signal, 1.0, n_steps)
        assert np.isfinite(ref_u).all() and np.isfinite(ref_v).all()
        trace = simulate(p, signal, 1.0, n_steps)
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

    @pytest.mark.parametrize("p, n_steps, onset, current, failing_step", [
        (RafParams(omega_u=0.0, omega_v=0.0), 3000, 2000, 0.6e308, 2002),  # 94 blocks
        (RafParams(omega_u=0.0, omega_v=0.0), 40_000, 35_000, 0.6e308, 35_002),  # 1250 blocks
        (RafParams(omega_u=0.3, omega_v=0.3, tau_u=50.0), 40_000, 35_000, 1e308, 35_001),
    ])
    def test_error_names_a_failing_step_past_the_first_upper_block(self, p, n_steps, onset,
                                                                   current, failing_step):
        # past BLOCK**2 steps; the carry passes the non-finite state on to
        # every later block, and the repair's loop names the first failing step
        currents = np.zeros(n_steps)
        currents[onset:] = current
        with pytest.raises(SimulationError, match=f"at step {failing_step} "):
            simulate(p, InputSignal(dense=currents), 1.0, n_steps)

    # one step either side of whole blocks, then 35 and 1062 blocks, carried in
    # 6 and 11 rounds; each run with pad rows past its last step
    @pytest.mark.parametrize("n_steps", [3 * BLOCK - 1, 3 * BLOCK + 1, BLOCK * (BLOCK + 2) + 1,
                                         BLOCK**2 * (BLOCK + 1) + 5 * BLOCK + 5])
    def test_no_row_of_a_fresh_buffer_is_read_unwritten(self, monkeypatch, n_steps):
        # With np.empty filled with NaN, a row read before it is written,
        # such as a pad row left unzeroed, makes a state non-finite: the
        # loop's repair, whose bits differ from the scan's, or an error follows.
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        mixed = mixed_input(p, dt, n_steps, n_steps)
        signals = [mixed, InputSignal(dense=mixed.dense), InputSignal(events=mixed.events)]
        sweep = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200, tau_u=0.05, tau_v=0.05)
        points = [(f, n_steps / (64 * max(f, 200.0))) for f in (90.0, 200.0, 555.0)]

        def run():
            traces = [simulate(p, s, dt, n_steps, initial_state=NeuronState(0.4, -0.7))
                      for s in signals]
            return ([np.column_stack((t.u, t.v, t.z)).tobytes() for t in traces],
                    [resonance_response(sweep, f, 1.5, duration) for f, duration in points])

        expected = run()
        nan_empty(monkeypatch)
        assert run() == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_matmul_of_the_scan_writes_over_its_input(self, monkeypatch, kind):
        # each chunk's states end at or before the first input row not yet
        # read, in the run's one buffer, so numpy never copies a matmul's
        # input first: a run of 4 chunks of each input kind, and a sweep
        # point whose window starts in chunk 1
        p = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200, tau_u=0.05, tau_v=0.05)
        dt, n_steps = 1.0 / (64 * 200), 3 * CHUNK * BLOCK + 5
        mixed = mixed_input(p, dt, n_steps, 9)
        dense, events = kind_inputs(kind, mixed.dense, mixed.events)
        calls = []
        matmul = np.matmul

        def checked(a, b, out=None):
            if sys._getframe(1).f_code is _blocked_scan.__code__:
                calls.append(np.may_share_memory(out, a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", checked)
        simulate(p, InputSignal(dense=dense, events=events), dt, n_steps)
        assert calls == [False] * 5  # the end states, then 4 chunks
        calls.clear()
        resonance_response(p, 180.0, 1.0, n_steps * dt)  # the window from step 7375, block 230
        assert calls == [False] * 4  # the end states, then chunks 1 to 3

    def test_a_finite_run_never_calls_forcing(self, monkeypatch):
        # the scan takes each kind of input as it is; only the repair forms
        # the (u, v) inputs of the loop
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt, n_steps = 1.0 / (64 * 250), 3 * CHUNK * BLOCK + 5
        mixed = mixed_input(p, dt, n_steps, 10)
        calls = []
        forcing = rafsim.core._forcing

        def counted(*args):
            calls.append(args)
            return forcing(*args)

        monkeypatch.setattr(rafsim.core, "_forcing", counted)
        for kind in (*KINDS, "none"):
            dense, events = kind_inputs(kind, mixed.dense, mixed.events)
            if kind == "none":
                dense = events = None
            simulate(p, InputSignal(dense=dense, events=events), dt, n_steps,
                     initial_state=NeuronState(0.3, 0.1))
        resonance_response(p, 180.0, 1.0, n_steps * dt)
        assert calls == []
        # the counter counts: a run that the loop repairs forms them once
        signal = InputSignal(events=[(70.0, 1e308), (71.0, 1e308)])
        simulate(RafParams(omega_u=0.0, omega_v=0.0), signal, 1.0, 100,
                 initial_state=NeuronState(-1e308, 0.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad_input", [None, "inf_at_0", "inf_at_17", "overflow_at_40"])
    def test_loop_scan_is_the_plain_recurrence_on_every_row(self, bad_input):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        m00, m01, m10, m11 = m = _propagator(p, 1e-5)[0]
        X = np.random.default_rng(5).normal(size=(50, 2))
        if bad_input is not None:
            kind, step_ = bad_input.split("_at_")
            if kind == "inf":
                X[int(step_), 1] = math.inf
            else:  # two inputs of 1e308 in a row; u, with m00 near 1, overflows
                X[int(step_) - 1:int(step_) + 1, 0] = 1e308
        u, v, ref = 0.25, -0.5, []
        for fu, fv in X.tolist():
            u, v = m00 * u + m01 * v + fu, m10 * u + m11 * v + fv
            ref.append((u, v))
        _loop_scan(m, X, 0.25, -0.5)
        finite = np.isfinite(X).all(axis=1)
        n_ok = len(X) if finite.all() else int(np.argmin(finite))
        assert n_ok == (len(X) if bad_input is None else int(step_))
        # every row, the non-finite ones too; assert_array_equal takes NaN as equal to NaN
        np.testing.assert_array_equal(X, ref)
        assert X[:n_ok].tobytes() == np.array(ref[:n_ok]).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_simulate_allocates_at_most_four_arrays_of_its_length(self, kind):
        # the fresh buffers of a run: the scan's one buffer, two floats a
        # step and two more a block for dense+events, the binned impulses,
        # one more, and little else
        n = 100_000
        w = TWO_PI * 1e5
        p = RafParams(omega_u=w, omega_v=w, tau_u=2e4 / w, tau_v=2e4 / w)
        dt = 1.0 / (4096 * 1e5)
        mixed = mixed_input(p, dt, n, 4)
        signal = InputSignal(*kind_inputs(kind, mixed.dense, mixed.events))
        assert (signal.dense is not None, len(signal.events) > 0) == (
            kind != "impulses", kind != "currents")
        simulate(p, signal, dt, n)  # fills the propagator caches
        tracemalloc.start()
        try:
            simulate(p, signal, dt, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * 8


UNDAMPED = RafParams(omega_u=TWO_PI, omega_v=TWO_PI)  # 1 Hz, no decay
UNDAMPED_DT = 1.0 / 16  # 16 steps per cycle


@pytest.fixture(scope="module", params=["free", "driven"])
def undamped_orbit(request):
    """(dense, start state, forcing, exact states) of 300k steps of UNDAMPED.

    free: from (1, 0) with no input; driven: from (0, 0) with a random dense
    current. The forcing is simulate's own, so the exact reference and the
    float recurrences run on the same inputs.
    """
    n_steps = 300_000
    if request.param == "free":
        dense, state = None, NeuronState(1.0, 0.0)
    else:
        dense, state = np.random.default_rng(16).normal(size=n_steps), NeuronState()
    m, b = _propagator(UNDAMPED, UNDAMPED_DT)
    f = np.empty((n_steps, 2))
    _forcing(b, dense, None, f)
    return dense, state, f, exact_recurrence(m, f[:, 0], f[:, 1], state.u, state.v)


def exact_error(us, vs, exact):
    """Largest |error| of (us, vs) against the first len(us) exact states, over their peak."""
    ex_u, ex_v = (x[:len(us)] for x in exact)
    scale = max(np.abs(ex_u).max(), np.abs(ex_v).max())
    return max(np.abs(us - ex_u).max(), np.abs(vs - ex_v).max()) / scale


class TestExactReference:
    """The loop and the scan against the recurrence on M's float entries run exactly.

    Undamped, the error grows with the run, so the bound is n_steps times
    EXACT_RTOL_PER_STEP.
    """

    def test_the_reference_is_the_rational_recurrence(self, undamped_orbit):
        _, state, f, (ex_u, ex_v) = undamped_orbit
        m00, m01, m10, m11 = map(Fraction, _propagator(UNDAMPED, UNDAMPED_DT)[0])
        u, v = Fraction(state.u), Fraction(state.v)
        for i, (fu, fv) in enumerate(f[:48].tolist()):
            u, v = m00 * u + m01 * v + Fraction(fu), m10 * u + m11 * v + Fraction(fv)
            assert abs(Fraction(ex_u[i]) - u) <= math.ulp(float(u))
            assert abs(Fraction(ex_v[i]) - v) <= math.ulp(float(v))

    @pytest.mark.parametrize("n_steps", [100_000, 300_000])
    def test_loop_against_the_exact_recurrence(self, undamped_orbit, n_steps):
        _, state, f, exact = undamped_orbit
        m, _ = _propagator(UNDAMPED, UNDAMPED_DT)
        X = f[:n_steps].copy()  # the fixture's forcing is shared
        _loop_scan(m, X, state.u, state.v)
        assert exact_error(X[:, 0], X[:, 1], exact) <= n_steps * EXACT_RTOL_PER_STEP

    @pytest.mark.parametrize("n_steps", [100_000, 300_000])
    def test_scan_against_the_exact_recurrence(self, undamped_orbit, n_steps):
        dense, state, _, exact = undamped_orbit
        signal = InputSignal(dense=None if dense is None else dense[:n_steps])
        trace = simulate(UNDAMPED, signal, UNDAMPED_DT, n_steps, initial_state=state)
        assert exact_error(trace.u, trace.v, exact) <= n_steps * EXACT_RTOL_PER_STEP


class TestPropagator:
    """The cached (m, b) per (params, dt), and (P, O, ON) per (m, b)."""

    def test_cold_cache_gives_the_same_bits_as_warm(self):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt, n_steps = 1.0 / (64 * 250), 1000
        signal = mixed_input(p, dt, n_steps, 5)
        _propagator.cache_clear()
        _toeplitz.cache_clear()
        cold = simulate(p, signal, dt, n_steps)
        cold_peak = resonance_response(p, 180.0, 2.0, 0.1)
        hits = _propagator.cache_info().hits
        warm = simulate(p, signal, dt, n_steps)
        assert _propagator.cache_info().hits > hits
        for a, b in ((cold.u, warm.u), (cold.v, warm.v), (cold.z, warm.z)):
            np.testing.assert_array_equal(a, b)
        assert resonance_response(p, 180.0, 2.0, 0.1) == cold_peak

    def test_step_reads_the_cache(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 90, tau_u=0.05, theta=0.5)
        _propagator.cache_clear()
        step(NeuronState(0.1, 0.2), p, 0.0, 1e-4)
        hits = _propagator.cache_info().hits
        step(NeuronState(0.3, -0.4), p, 0.5, 1e-4, hold_current=2.0)
        assert _propagator.cache_info().hits == hits + 1

    def test_errors_name_the_callers_params(self):
        # the cache key is the caller's params, so the error names the theta passed in
        p = RafParams(omega_u=1e300, omega_v=0.0, theta=0.3)
        match = r"non-finite input vector for RafParams\(.*theta=0\.3\), dt=100000\.0"
        with pytest.raises(SimulationError, match=match):
            step(NeuronState(), p, 0.0, 1e5)
        with pytest.raises(SimulationError, match=match):
            simulate(p, InputSignal(), 1e5, 1)

    def test_dt_one_ulp_apart_do_not_share(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        dt = 1e-4
        assert _propagator(p, dt) is not _propagator(p, math.nextafter(dt, 1.0))
        assert _propagator(p, dt) is _propagator(p, dt)

    def test_theta_enters_neither_m_nor_b(self):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 90, tau_u=0.05, theta=0.5)
        q = dataclasses.replace(p, theta=7.0)
        assert _propagator(p, 1e-4) == _propagator(q, 1e-4)

    def test_cache_holds_at_most_one_mib_of_w(self):
        # O holds the impulse, t and current rows: 2*L + 2 rows of 2*L steps' (u, v)
        p = RafParams(omega_u=1.0, omega_v=1.0)
        _, O, ON = _toeplitz(*_propagator(p, 1e-3))
        assert O.nbytes == (2 * BLOCK + 2) * 2 * BLOCK * 8
        assert _toeplitz.cache_info().maxsize * O.nbytes <= 2**20
        assert ON.nbytes == (2 * BLOCK + 2) * 2 * 8  # ON's 1 KiB besides

    def test_a_cold_long_run_builds_w_once(self):
        # many more than BLOCK + 1 blocks, and the scan builds O for its key alone
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        n_steps = 3 * BLOCK * (BLOCK + 1) + 7
        signal = mixed_input(p, dt, n_steps, 6)
        _toeplitz.cache_clear()
        simulate(p, signal, dt, n_steps)
        assert _toeplitz.cache_info().misses == 1

    def test_a_second_sweep_builds_no_w(self):
        # 31 points above resonance, each with a dt and an M of its own, as
        # many as the benchmark's sweep has: all of their O stay cached
        p = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200, tau_u=0.05, tau_v=0.05)
        freqs = [200.0 * 1.05**k for k in range(1, 32)]
        _toeplitz.cache_clear()
        first = [resonance_response(p, f, 1.0, 0.02) for f in freqs]
        assert _toeplitz.cache_info().misses == len(freqs)
        assert [resonance_response(p, f, 1.0, 0.02) for f in freqs] == first
        assert _toeplitz.cache_info().misses == len(freqs)

    def test_a_second_sweep_builds_no_b(self):
        # the same 31 points, each with a dt of its own, as many keys as the
        # benchmark's sweep cycles through: all of their (m, b) stay cached
        p = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200, tau_u=0.05, tau_v=0.05)
        freqs = [200.0 * 1.05**k for k in range(1, 32)]
        _propagator.cache_clear()
        first = [resonance_response(p, f, 1.0, 0.02) for f in freqs]
        assert _propagator.cache_info().misses == len(freqs)
        assert [resonance_response(p, f, 1.0, 0.02) for f in freqs] == first
        assert _propagator.cache_info().misses == len(freqs)

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
        m00, m01, m10, m11 = transition_terms(p.omega_u, p.omega_v, p.k_u, p.k_v, dt)
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for _ in range(BLOCK):  # M @ (M^k), in the loop's order of operations
            a, b, c, d = (m00 * a + m01 * c, m00 * b + m01 * d,
                          m10 * a + m11 * c, m10 * b + m11 * d)
        # the carry multiplies rows M s from the right, so P[0] holds (M^L)^T;
        # ON's rows for step 0, which carry a block's first input one step past
        # the block into the next M s, are the same L products: the impulse
        # row is P[0]'s first row, and the current row b0 times it plus b1
        # times its second
        b0, b1 = _propagator(p, dt)[1]
        P, _, ON = _toeplitz((m00, m01, m10, m11), (b0, b1))
        assert P[0].tobytes() == np.array([[a, c], [b, d]]).tobytes()
        assert ON[0].tobytes() == P[0][0].tobytes()
        assert ON[BLOCK + 2].tobytes() == (b0 * P[0][0] + b1 * P[0][1]).tobytes()

    @pytest.mark.parametrize("critical", [False, True])
    def test_powers_are_the_matmul_chain(self, critical):
        # P[r] = (M^(L*2**r))^T is P[0] squared r times with @, the squaring
        # the carry would run inline, so every round reads the bits it would make
        if critical:
            p, dt = critical_params(TWO_PI * 377.0), 1e-4
        else:
            p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
            dt = 1.0 / (64 * 250)
        P = _toeplitz(*_propagator(p, dt))[0]
        assert P.shape == (ROUNDS, 2, 2)
        PT = P[0].copy()
        for r in range(ROUNDS):
            assert P[r].tobytes() == PT.tobytes(), r
            PT = PT @ PT

    # one block and two, 2**k blocks and one more, so the last round sums
    # whole halves or adds one block; 512 blocks span four chunks
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_blocks", [1, 2, 64, 65, 512, 513])
    def test_the_carry_equals_a_doubling_that_squares_inline(self, n_blocks, kind):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.08, tau_v=0.08)
        m, b = _propagator(p, 1.0 / 6400)
        n_steps = n_blocks * BLOCK
        currents, increments = kind_inputs(
            kind, *np.random.default_rng(n_blocks).normal(size=(2, n_steps)))
        X = _blocked_scan(m, b, n_steps, currents, increments, 0.1, -0.2)
        # on fresh copies of the inputs, one row a block of [impulses | t |
        # currents] less the kind left out: the carry of M s with (M^L)^T
        # squared by @ in each round, M e from the inputs' own columns, t
        # written, the same Toeplitz level chunk by chunk, and step 0 summed
        # as step() sums it
        P, O, ON = _toeplitz(m, b)
        lo = 0 if kind != "currents" else BLOCK
        hi = 2 * BLOCK + 2 if kind != "impulses" else BLOCK + 2
        G = np.zeros((n_blocks, 2 * BLOCK + 2))
        if increments is not None:
            G[:, :BLOCK] = increments.reshape(n_blocks, BLOCK)
        if currents is not None:
            G[:, BLOCK + 2:] = currents.reshape(n_blocks, BLOCK)
        G = G[:, lo:hi].copy()
        c = BLOCK - lo  # t's columns
        # M e reads the inputs' columns, and the zero t columns between two kinds
        a = c + 2 if kind == "currents" else 0
        z = c if kind == "impulses" else None
        m00, m01, m10, m11 = m
        S = np.empty((n_blocks, 2))
        S[0] = m00 * 0.1 + m01 * -0.2, m10 * 0.1 + m11 * -0.2
        S[1:] = G[:-1, a:z] @ ON[lo:hi][a:z]
        PT, d = P[0], 1
        while d < n_blocks:
            S[d:] += S[:-d] @ PT
            PT, d = PT @ PT, 2 * d
        G[:, c:c + 2] = S
        states = np.concatenate([G[i:i + CHUNK] @ O[lo:hi]
                                 for i in range(0, n_blocks, CHUNK)]).reshape(-1, 2)
        k0 = 0.0 if increments is None else increments[0]
        i0 = 0.0 if currents is None else currents[0]
        states[0] = S[0, 0] + (k0 + b[0] * i0), S[0, 1] + b[1] * i0
        assert X.tobytes() == states.tobytes()

    def test_a_run_past_the_powers_fails_loudly(self, monkeypatch):
        # a run of 2**r blocks needs r rounds, and one more block another
        # round; with only 2 powers, 4 blocks run and 5 raise
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.08, tau_v=0.08)
        m, b = _propagator(p, 1.0 / 6400)
        P, O, ON = _toeplitz(m, b)
        currents, increments = np.random.default_rng(8).normal(size=(2, 5 * BLOCK))
        n = 4 * BLOCK
        whole = _blocked_scan(m, b, n, currents[:n], increments[:n], 0.1, -0.2)
        monkeypatch.setattr(rafsim.core, "_toeplitz", lambda m, b: (P[:2], O, ON))
        X = _blocked_scan(m, b, n, currents[:n], increments[:n], 0.1, -0.2)
        assert X.tobytes() == whole.tobytes()
        with pytest.raises(IndexError):
            _blocked_scan(m, b, 5 * BLOCK, currents, increments, 0.1, -0.2)

    def test_unused_powers_that_overflow_raise_no_warning(self):
        # M = [[1, -1e300], [0, 1]] is defective, and its powers grow by
        # 32 * 2**r * 1e300: P[23] overflows, and P[24] holds inf * 0 = NaN
        p = RafParams(omega_u=0.0, omega_v=1e300)
        m, b = _propagator(p, 1.0)
        assert m == (1.0, -1e300, 0.0, 1.0)
        _toeplitz.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = _toeplitz(m, b)[0]
        assert np.isfinite(P[:23]).all() and not np.isfinite(P[23:]).all(axis=(1, 2)).any()
        # a short run reads only finite powers and gives the loop's states
        assert_matches_loop(p, InputSignal(), 1.0, 4 * BLOCK, NeuronState(0.0, 1e-300))
        # and where u = -n * 1e308 overflows at step 1, the loop's error
        with pytest.raises(SimulationError, match="at step 1 "):
            simulate(p, InputSignal(), 1.0, 4 * BLOCK, initial_state=NeuronState(0.0, 1e8))

    # the three branches of transition_terms, a damped rotation (disc > 0),
    # the critical limit (disc = 0) and real modes (disc < 0); an undamped
    # orbit at a coarse step, where b0 < 0; and omega_u = 0, where b1 = 0
    @pytest.mark.parametrize("key", ["rotation", "critical", "overdamped", "coarse", "no_omega_u"])
    def test_w_rows_are_the_loops_response_to_a_unit_input(self, key):
        # the loop's states (u, v) of each step of a block, interleaved, after
        # a unit input on component c at step j: O's impulse row j holds the
        # response to c = 0, its t rows those to c = 0 and 1 at step 0, and
        # its current row j b0 times the response to c = 0 plus b1 times the
        # one to c = 1; the same row of ON holds the state one step past the
        # block, at step L, and ON's t rows are zero
        p, dt = {
            "rotation": (RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02,
                                   tau_v=0.05), 1.0 / (64 * 250)),
            "critical": (critical_params(TWO_PI * 377.0), 1e-4),
            "overdamped": (RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100,
                                     tau_u=1.0 / (6 * TWO_PI * 100)), 1e-4),
            "coarse": (RafParams(omega_u=TWO_PI, omega_v=TWO_PI), 0.75),
            "no_omega_u": (RafParams(omega_u=0.0, omega_v=1.0, tau_u=0.5), 1e-3),
        }[key]
        m = transition_terms(p.omega_u, p.omega_v, p.k_u, p.k_v, dt)
        b0, b1 = b = _propagator(p, dt)[1]
        if key == "coarse":
            assert b0 < 0.0 < b1
        if key == "no_omega_u":
            assert b1 == 0.0
        _, O, ON = _toeplitz(m, b)
        assert O.shape == (2 * BLOCK + 2, 2 * BLOCK) and ON.shape == (2 * BLOCK + 2, 2)
        for j in range(BLOCK):
            R = []
            for c in range(2):
                X = np.zeros((BLOCK + 1, 2))
                X[j, c] = 1.0
                _loop_scan(m, X, 0.0, 0.0)
                R.append(X.reshape(-1))
                if j == 0:
                    assert O[BLOCK + c].tobytes() == X[:BLOCK].tobytes(), c
                    assert ON[BLOCK + c].tobytes() == bytes(16), c
            current = b0 * R[0] + b1 * R[1]
            for row, response in ((j, R[0]), (BLOCK + 2 + j, current)):
                assert O[row].tobytes() == response[:2 * BLOCK].tobytes(), (j, row)
                assert ON[row].tobytes() == response[2 * BLOCK:].tobytes(), (j, row)

    def test_cached_arrays_are_read_only(self):
        for array in _toeplitz(*_propagator(RafParams(omega_u=1.0, omega_v=2.0), 1e-3)):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def simulated_response(p, frequency, amplitude, duration):
    """resonance_response by its definition: max|v| over simulate's steady window."""
    dt = 1.0 / (64 * max(frequency, p.resonance_frequency))
    n_steps = int(round(duration / dt))
    drive = _sine_drive(frequency, amplitude, dt, n_steps)
    trace = simulate(p, InputSignal(dense=drive), dt, n_steps)
    return float(np.max(np.abs(trace.v[int(0.6 * n_steps):])))


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
        # Oracle: the gain |H| = |e2^T (z I - M)^-1 b| at z = exp(j*w*dt) of
        # the discretised x' = M x + b I. The sampled peak misses the
        # steady-state amplitude by at most half a step of phase, w*dt/2 <=
        # pi/64, and the transient left after 60% of 12 decay times adds little.
        for f, response in zip(freqs, responses):
            dt = 1.0 / (64 * max(f, p.resonance_frequency))
            z = np.exp(1j * TWO_PI * f * dt)
            gain = abs(np.linalg.solve(z * np.eye(2) - transition_matrix(p, dt),
                                       input_vector(p, dt))[1])
            assert math.cos(math.pi / 64) <= response / gain <= 1.005, f

    @settings(max_examples=60, deadline=None)
    @given(raf_params(), st.floats(0.2, 5.0), st.integers(2, 40_000), st.floats(-3.0, 3.0))
    def test_equals_the_peak_of_simulates_window_bit_for_bit(self, p, ratio, n_steps, amplitude):
        # the scan of the window's chunks alone gives simulate's states there
        f_ref = p.resonance_frequency or math.sqrt(p.omega_u * p.omega_v) / TWO_PI
        frequency = ratio * f_ref
        duration = n_steps / (64 * max(frequency, p.resonance_frequency))
        assert (resonance_response(p, frequency, amplitude, duration)
                == simulated_response(p, frequency, amplitude, duration))

    def test_a_scan_from_a_later_block_writes_the_whole_scans_bits(self, monkeypatch):
        # the scan starts at the chunk holding block first, so each row it
        # writes has the place it has in a whole scan's matmuls; OpenBLAS's
        # Haswell kernel gives a row other bits at another place. No matmul
        # writes a state row before that chunk's
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.08, tau_v=0.08)
        m, b = _propagator(p, 1.0 / 6400)
        rng = np.random.default_rng(12)
        n_blocks = 3 * CHUNK + 5
        n_steps = n_blocks * BLOCK - 7
        outs = []
        matmul = np.matmul

        def recorded(a, b, out=None):
            outs.append(out)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        for kind in KINDS:
            currents, increments = kind_inputs(kind, *rng.normal(size=(2, n_steps)))
            whole = _blocked_scan(m, b, n_steps, currents, increments, 0.1, -0.2)
            assert len(whole) == n_steps
            for first in range(0, n_blocks, 3):
                outs.clear()
                X = _blocked_scan(m, b, n_steps, currents, increments, 0.1, -0.2, first)
                assert len(X) == n_steps
                start = first // CHUNK * CHUNK * BLOCK
                assert X[start:].tobytes() == whole[start:].tobytes(), (kind, first)
                assert not any(np.shares_memory(out, X[:start]) for out in outs), (kind, first)

    def test_a_warm_sweep_point_allocates_its_drive_and_one_buffer(self):
        # the drive, n floats and its last row's pad, one scan buffer of two
        # floats a step and one chunk of headroom, where the run's states and
        # its currents lie together, and the window's |v|; a second array
        # for the currents, one more float a step, would pass the bound
        p = RafParams(omega_u=TWO_PI * 200, omega_v=TWO_PI * 200, tau_u=0.05, tau_v=0.05)
        n = 40_000
        duration = n / (64 * 200)
        resonance_response(p, 180.0, 1.0, duration)  # fills the caches
        tracemalloc.start()
        try:
            resonance_response(p, 180.0, 1.0, duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        R = math.isqrt(n) + 1
        drive = 8 * R * -(-n // R)
        buffer = 8 * (2 * BLOCK * CHUNK + 2 * BLOCK * -(-n // BLOCK))
        window = 8 * (n - int(0.6 * n))
        assert drive + buffer <= peak <= drive + buffer + window + 16 * 1024

    def test_an_infinite_resonance_frequency_names_the_params(self):
        # omega_u * omega_v overflows, so the resonance frequency is inf, and
        # it, not the 1 Hz drive, sets dt = 1/(64 * inf) = 0
        p = RafParams(omega_u=1e200, omega_v=1e200)
        assert p.resonance_frequency == math.inf
        match = re.escape(f"the resonance frequency of {p!r} must be small enough that 1/dt "
                          f"is finite, got inf, with 1/dt = 64 * inf")
        for frequency in (1.0, 1e307):
            with pytest.raises(ValueError, match=f"^{match}$"):
                resonance_response(p, frequency, 1.0, 1.0)
        # a drive above a finite resonance frequency is named as before
        q = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100)
        with pytest.raises(ValueError, match=re.escape(
                "drive_frequency must be small enough that 1/dt is finite, got 1e+307, "
                "with 1/dt = 64 * 1e+307")):
            resonance_response(q, 1e307, 1.0, 1.0)

    @pytest.mark.parametrize("amplitude, duration", [
        (1e308, 10.0),  # first non-finite at step 237, before the window at 384
        (2.5e307, 20.0),  # at step 926, inside the window from 768
    ])
    def test_an_overflowing_drive_raises_simulates_error(self, amplitude, duration):
        p = RafParams(omega_u=TWO_PI, omega_v=TWO_PI)  # undamped at 1 Hz: dt = 1/64 s
        with pytest.raises(SimulationError) as direct:
            simulated_response(p, 1.0, amplitude, duration)
        with pytest.raises(SimulationError) as raised:
            resonance_response(p, 1.0, amplitude, duration)
        assert str(raised.value) == str(direct.value)

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
        ({"drive_frequency": math.inf}, "drive_frequency"),
        ({"duration": 1e306}, "duration"),  # duration / dt overflows
        ({"drive_amplitude": math.inf}, "drive_amplitude"),
        ({"drive_amplitude": math.nan}, "drive_amplitude"),
        ({"drive_frequency": 1e307}, "drive_frequency"),  # 1/dt = 64 * 1e307 overflows
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

    @pytest.mark.parametrize("n_steps", [2, 3, 4, 15, 16, 17, 1023, 1024, 1025, 36_700])
    @pytest.mark.parametrize("frequency, dt, amplitude", [
        (250.0, 1.0 / (64 * 250), 1.0),
        (37.3, 1.0 / (64 * 200), -2.5),
        (1000.0, 1.0 / 7000, 3e5),
        (200.0, 1e-4, 0.0),  # the bound is 0: every value is zero
    ])
    def test_sine_drive_is_within_its_phase_rounding(self, n_steps, frequency, dt, amplitude):
        drive = _sine_drive(frequency, amplitude, dt, n_steps)
        assert drive.shape == (n_steps,)
        pi = 4 * np.arctan(np.longdouble(1))
        phase = 2 * pi * np.longdouble(frequency) * np.longdouble(dt) * (
            np.arange(n_steps, dtype=np.longdouble) + np.longdouble(0.5))
        exact = np.longdouble(amplitude) * np.sin(phase)
        w = TWO_PI * frequency * dt
        bound = 2 * np.finfo(float).eps * (1 + w * n_steps) * abs(amplitude)
        assert np.max(np.abs(drive - exact)) <= bound


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
        # numpy scalars and ints are real numbers
        p = RafParams(np.float32(2.0), 3, tau_v=np.float64(0.5), theta=np.int64(2))
        assert (p.k_u, p.k_v, p.theta) == (0.0, 2.0, 2)

    @pytest.mark.parametrize("kwargs, name", [
        ({"omega_u": "a"}, "omega_u"),
        ({"omega_v": 1j}, "omega_v"),
        ({"tau_u": "x"}, "tau_u"),
        ({"tau_v": [1.0, 2.0]}, "tau_v"),
        ({"theta": None}, "theta"),
        ({"omega_u": Decimal("2")}, "omega_u"),
        ({"tau_v": np.array(0.5)}, "tau_v"),
    ], ids=["omega_u-str", "omega_v-complex", "tau_u-str", "tau_v-list", "theta-none",
            "omega_u-decimal", "tau_v-0d-array"])
    def test_params_name_a_value_that_is_not_a_real_number(self, kwargs, name):
        values = {"omega_u": 1.0, "omega_v": 1.0, **kwargs}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, "
                                                       f"got {kwargs[name]!r}")):
            RafParams(**values)

    @pytest.mark.parametrize("name, tau", [("tau_u", 5e-324), ("tau_v", 5e-324),
                                           ("tau_u", 5.56e-309)])
    def test_params_reject_a_tau_whose_reciprocal_overflows(self, name, tau):
        with pytest.raises(ValueError, match=f"^{name} must have a finite reciprocal, "
                                             f"got {tau!r}$"):
            RafParams(omega_u=1.0, omega_v=1.0, **{name: tau})
        p = RafParams(omega_u=1.0, omega_v=1.0, **{name: 5.57e-309})  # 1/tau is finite
        assert math.isfinite(p.k_u) and math.isfinite(p.k_v)

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
        # on the horizon, past it, about 2**60 steps out, and a quotient that
        # overflows to inf
        for t, t_dt in ((2.0, dt), (5.0, dt), (3e17, dt), (1e300, 5e-324)):
            sig = InputSignal(events=[(0.0, 1.0), (t, 1.0)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match=re.escape(f"time {t!r} is at or past the horizon")):
                    sig.impulse_increments(t_dt, n_steps)
                with pytest.raises(ValueError, match="horizon"):
                    simulate(RafParams(omega_u=1.0, omega_v=1.0), sig, t_dt, n_steps)
        # a numpy n_steps names the horizon as a float too
        with pytest.raises(ValueError, match=re.escape("the horizon 8 * 0.25 = 2.0")):
            InputSignal(events=[(2.0, 1.0)]).impulse_increments(dt, np.int64(n_steps))

    def test_an_event_just_below_the_horizon_is_inside(self):
        # the float 5 * 1e-4 lies below the exact product, so t/dt rounds up
        # to 5 while the exact floor is 4, the last step
        dt, n_steps = 1e-4, 5
        t = n_steps * dt
        assert Fraction(t) < n_steps * Fraction(dt) and t / dt == n_steps
        assert InputSignal(events=[(t, 1.0)]).impulse_increments(dt, n_steps)[-1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, 1e303), st.lists(st.integers(0, 10**5), min_size=1, max_size=20))
    def test_events_near_step_boundaries_bin_by_the_exact_floor(self, dt, ks):
        # k*dt as the float product rounds it, and one ulp to either side:
        # where the float quotient t/dt rounds onto an integer
        times = [t for k in ks for t in (math.nextafter(k * dt, 0.0), k * dt,
                                         math.nextafter(k * dt, math.inf))]
        exact = [math.floor(Fraction(t) / Fraction(dt)) for t in times]
        n_steps = max(exact) + 1
        signal = InputSignal(events=[(t, 1.0) for t in times])
        np.testing.assert_array_equal(signal.impulse_increments(dt, n_steps),
                                      np.bincount(exact, minlength=n_steps))
        with pytest.raises(ValueError, match="horizon"):  # one step fewer: the last event is past it
            signal.impulse_increments(dt, n_steps - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, 1e290), st.lists(st.integers(0, MAX_STEPS), min_size=1, max_size=20))
    def test_floor_division_is_exact_up_to_max_steps(self, dt, ks):
        # the premise of MAX_STEPS: below a quotient of 2**51 numpy's floor
        # division gives the exact floor of k*dt and of its two neighbours;
        # dt <= 1e290 keeps k*dt finite
        times = [t for k in ks for t in (math.nextafter(k * dt, 0.0), k * dt,
                                         math.nextafter(k * dt, math.inf))]
        exact = [math.floor(Fraction(t) / Fraction(dt)) for t in times]
        assert np.floor_divide(np.array(times), dt).tolist() == exact

    def test_an_event_on_the_horizon_of_max_steps_is_named(self):
        # the horizon is checked before the bincount, so nothing is allocated
        dt = 0.25
        t = MAX_STEPS * dt  # exact: its floor is MAX_STEPS
        assert math.floor(Fraction(t) / Fraction(dt)) == MAX_STEPS
        signal = InputSignal(events=[(0.0, 1.0), (t, 1.0)])
        with pytest.raises(ValueError, match=re.escape(f"time {t!r} is at or past the horizon")):
            signal.impulse_increments(dt, MAX_STEPS)

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
            ref[math.floor(Fraction(t) / Fraction(dt))] += a  # the exact floor
        inc = InputSignal(events=events).impulse_increments(dt, n_steps)
        np.testing.assert_array_equal(inc, ref)

    @pytest.mark.parametrize("kwargs, message", [
        ({"dense": [1.0, math.inf]}, "dense input must be finite"),
        ({"dense": [1.0, math.nan]}, "dense input must be finite"),
        ({"dense": [[1.0, 2.0], [3.0, 4.0]]}, "dense input must be 1-D, got shape (2, 2)"),
        ({"dense": [[1.0, 2.0], [3.0]]}, "dense input must be an array of real numbers: "),
        ({"dense": ["a", "b"]}, "dense input must be an array of real numbers, got <U1"),
        ({"dense": [1.0, 1j]}, "dense input must be an array of real numbers, got complex128"),
        ({"events": [(math.nan, 1.0)]}, "event 0 (time, amplitude) must be finite"),
        ({"events": [(math.inf, 1.0)]}, "event 0 (time, amplitude) must be finite"),
        ({"events": [(0.0, math.inf)]}, "event 0 (time, amplitude) must be finite"),
        ({"events": [(0.0, math.nan)]}, "event 0 (time, amplitude) must be finite"),
        ({"events": [(0.0, 1.0, 2.0)]}, "an (N, 2) array, got shape (1, 3)"),
        # neither a flat pair nor a (2, 1, 2) array is a list of (time, amplitude) rows
        ({"events": np.array([1.0, 2.0])}, "an (N, 2) array, got shape (2,)"),
        ({"events": np.zeros((2, 1, 2))}, "an (N, 2) array, got shape (2, 1, 2)"),
        ({"events": [(0.0, 1.0), (1.0,)]}, "events must be an array of real numbers: "),
        ({"events": [(0.0, 1j)]}, "events must be an array of real numbers, got complex128"),
    ], ids=["dense-inf", "dense-nan", "dense-2d", "dense-ragged", "dense-str", "dense-complex",
            "time-nan", "time-inf", "amplitude-inf", "amplitude-nan", "event-triple",
            "events-flat", "events-3d", "events-ragged", "events-complex"])
    def test_input_signal_rejects_non_finite_or_misshapen_input(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            InputSignal(**kwargs)

    def test_input_signal_copies_dense(self):
        # a change to the caller's array after construction changes no output
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt, n_steps = 1.0 / (64 * 250), 100
        dense = mixed_input(p, dt, n_steps, 9).dense
        signal = InputSignal(dense=dense)
        before = simulate(p, signal, dt, n_steps)
        dense[10] = math.nan
        after = simulate(p, signal, dt, n_steps)
        for a, b in ((before.u, after.u), (before.v, after.v), (before.z, after.z)):
            assert a.tobytes() == b.tobytes()
        assert np.isfinite(signal.dense).all()

    # with an event in step 0, an n_steps below 1 puts it past the horizon, which is named
    # first; an n_steps that is not a real number is not compared with the horizon
    @pytest.mark.parametrize("events, n_steps", [
        (None, 2.5), (None, 10.0), (None, -1), (None, 0), (None, True), (None, "10"),
        (None, None), ([(0.0, 1.0)], 2.5), ([(0.0, 1.0)], 10.0), ([(0.0, 1.0)], True),
        ([(0.0, 1.0)], "10"), ([(0.0, 1.0)], None),
    ])
    def test_impulse_increments_rejects_a_bad_n_steps(self, events, n_steps):
        signal = InputSignal(events=events)
        with pytest.raises(ValueError, match=re.escape(f"n_steps must be an integer >= 1, "
                                                       f"got {n_steps!r}")):
            signal.impulse_increments(1e-3, n_steps)
        good = signal.impulse_increments(1e-3, 3)
        assert good.dtype == np.float64
        assert good.tolist() == ([0.0, 0.0, 0.0] if events is None else [1.0, 0.0, 0.0])

    def test_a_count_past_max_steps_is_named(self):
        # a run of MAX_STEPS is whole blocks, the carry's powers cover its
        # rounds, and its largest scan buffer, 2*L*CHUNK floats and 2*L + 2
        # a block for dense+events, numpy can index in bytes
        assert MAX_STEPS % BLOCK == 0
        assert (MAX_STEPS // BLOCK - 1).bit_length() <= ROUNDS
        assert (8 * (2 * BLOCK * CHUNK + (2 * BLOCK + 2) * (MAX_STEPS // BLOCK))
                <= np.iinfo(np.intp).max)
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100)
        for n_steps in (MAX_STEPS + 1, 10**20, np.uint64(2**64 - 1)):
            match = re.escape(f"n_steps must be at most MAX_STEPS = {MAX_STEPS}, got {n_steps!r}")
            match = f"^{match}$"
            with pytest.raises(ValueError, match=match):
                simulate(p, InputSignal(dense=[1.0, 2.0], events=[(0.0, 1.0)]), 1e-4, n_steps)
            for signal in (InputSignal(), InputSignal.impulse(1.0, 0.5)):
                with pytest.raises(ValueError, match=match):
                    signal.impulse_increments(1e-4, n_steps)
        # dt = 1/(64 * 1e300): a second holds 6.4e301 steps
        with pytest.raises(ValueError, match=re.escape(
                f"duration must be at most MAX_STEPS = {MAX_STEPS} steps of dt = "
                f"{1 / 6.4e301!r}, got 1.0: duration / dt = {1.0 / (1 / 6.4e301)!r}")):
            resonance_response(p, 1e300, 1.0, 1.0)

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

    @pytest.mark.parametrize("z, message", [
        ([0.0, 0.7, 1.0], "trace has z = 0.7 at sample 1, expected 0 or 1"),
        ([0, 1, 2], "trace has z = 2.0 at sample 2, expected 0 or 1"),
        ([1, -1, -1], "trace has z = -1.0 at sample 1, expected 0 or 1"),
        ([0.0, 1.0, math.nan], "trace has z = nan at sample 2, expected 0 or 1"),
    ], ids=["fraction", "two", "negative", "nan"])
    def test_trace_rejects_a_z_other_than_0_or_1(self, z, message):
        # to_csv's integer cast would write 0.7 as 0, and 2 and -1 as rows from_csv rejects
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                StateTrace(dt=1e-3, u=np.zeros(3), v=np.zeros(3), z=np.array(z))

    @pytest.mark.parametrize("name, value", [
        ("u", np.zeros((3, 2))),
        ("v", np.zeros((1, 3))),
        ("z", np.zeros((3, 1))),
        ("u", np.float64(0.5)),
        ("u", np.array(["a", "b", "c"])),
        ("v", np.zeros(3, dtype=complex)),
        ("z", np.array([0, 1, None])),
        ("u", [[1.0, 2.0], [3.0]]),
    ], ids=["u-2d", "v-row", "z-column", "u-scalar", "u-strings", "v-complex", "z-object",
            "u-ragged"])
    def test_trace_rejects_a_misshapen_or_non_numeric_column(self, name, value):
        # to_csv would write a 2-D row as a cell like [0.0, 0.0], which from_csv cannot read
        columns = {"u": np.zeros(3), "v": np.zeros(3), "z": np.zeros(3, dtype=np.int8)}
        columns[name] = value
        if isinstance(value, list):  # ragged: numpy's reason follows
            message = f"trace {name} must be an array of real numbers: "
        elif value.dtype.kind not in "biuf":
            message = f"trace {name} must be an array of real numbers, got {value.dtype}"
        else:  # the shapes are named in the order u, v, z
            shapes = {key: np.shape(column) for key, column in columns.items()}
            message = (f"trace u, v and z must be 1-D arrays of one length, got "
                       f"u {shapes['u']}, v {shapes['v']} and z {shapes['z']}")
        with pytest.raises(ValueError, match=re.escape(message)):
            StateTrace(dt=1e-3, **columns)

    def test_trace_rejects_an_empty_trace(self):
        with pytest.raises(ValueError, match="^trace must be nonempty$"):
            StateTrace(dt=1e-3, u=[], v=[], z=[])

    def test_trace_keeps_1d_float64_u_and_v_and_int8_z(self):
        u = np.linspace(0.0, 1.0, 4)
        trace = StateTrace(dt=1e-3, u=u, v=[0, 1, 2, 3], z=[True, False, 1, 0])
        assert trace.u is u  # a float64 array is kept, not copied
        assert (trace.v.dtype, trace.z.dtype) == (np.float64, np.int8)
        assert (trace.v.tolist(), trace.z.tolist()) == ([0.0, 1.0, 2.0, 3.0], [1, 0, 1, 0])

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 1), (2, 3, 3)])
    def test_trace_rejects_unequal_lengths(self, lengths):
        u, v, z = (np.zeros(k) for k in lengths)
        a, b, c = lengths
        match = re.escape(f"u, v and z must be 1-D arrays of one length, "
                          f"got u ({a},), v ({b},) and z ({c},)")
        with pytest.raises(ValueError, match=match):
            StateTrace(dt=1e-3, u=u, v=v, z=z)

    def test_trace_csv_without_rows_is_an_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("t,u,v,z\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = re.escape(f"trace file {str(path)!r} has no rows")
            with pytest.raises(ValueError, match=match):
                StateTrace.from_csv(path)

    @pytest.mark.parametrize("header, rows, message", [
        ("t,u,v", ["0.1,0.5,-0.5"] * 2, "has 3 columns, expected 4 (t, u, v, z)"),
        ("t,u,v,z,w", ["0.1,0.5,-0.5,0,7.0"] * 2, "has 5 columns, expected 4 (t, u, v, z)"),
        # a cast to int8 alone would turn z = 0.7, 300 and -1 into 0, 44 and -1, silently
        ("t,u,v,z", ["0.1,0.5,-0.5,1", "0.2,0.25,0.5,0.7"], "has z = 0.7 at sample 1"),
        ("t,u,v,z", ["0.1,0.5,-0.5,0", "0.2,0.25,0.5,1", "0.3,0.0,1.5,300"],
         "has z = 300.0 at sample 2"),
        ("t,u,v,z", ["0.1,0.5,-0.5,-1", "0.2,0.25,0.5,0"], "has z = -1.0 at sample 0"),
        ("t,u,v,z", ["0.1,0.5,-0.5,1", "0.2,0.25,0.5,nan"], "has z = nan at sample 1"),
        # numpy's own parse errors, named after the file too
        ("t,u,v,z", ["0.1,0.5,-0.5,1", "0.2,0.25,0.5"], "the number of columns changed"),
        ("t,u,v,z", ["0.1,abc,-0.5,1"], "could not convert string 'abc'"),
    ], ids=["three_columns", "five_columns", "z_fraction", "z_300", "z_negative", "z_nan",
            "ragged_row", "non_numeric_row"])
    def test_trace_csv_with_a_bad_column_is_an_error(self, tmp_path, header, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n" + "".join(row + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = re.escape(f"trace file {str(path)!r} {message}")
            with pytest.raises(ValueError, match=match):
                StateTrace.from_csv(path)

    def test_trace_csv_roundtrip_one_row(self, tmp_path):
        trace = StateTrace(dt=0.1, u=np.array([0.1 + 0.2]), v=np.array([-1e-300]),
                           z=np.array([1], dtype=np.int8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text() == "t,u,v,z\n0.1,0.30000000000000004,-1e-300,1\n"
        loaded = StateTrace.from_csv(path)
        assert (loaded.dt, loaded.u.tolist(), loaded.v.tolist(), loaded.z.tolist()) == (
            0.1, [0.1 + 0.2], [-1e-300], [1])

    @pytest.mark.parametrize("rows, message", [
        # t = 0.7 would read back as 0.3
        (["0.1,0.5,-0.5,0", "0.2,0.25,0.5,1", "0.7,0.0,1.5,1"],
         "has t = 0.7 at sample 2, expected (i+1)*dt = 0.30000000000000004"),
        (["0.25,0.5,-0.5,0", "0.5,0.25,0.5,1", "0.75,0.0,1.5,1", "0.75,0.0,1.5,1"],
         "has t = 0.75 at sample 3, expected (i+1)*dt = 1.0"),
        (["0.25,0.5,-0.5,0", "0.5,0.25,0.5,1", "nan,0.0,1.5,1"],
         "has t = nan at sample 2, expected (i+1)*dt = 0.75"),
        # dt is t[0], so the sample named is the one off the grid
        (["0.1,0.5,-0.5,0", "0.3,0.25,0.5,1"],
         "has t = 0.3 at sample 1, expected (i+1)*dt = 0.2"),
        # a t grid whose dt is not finite and > 0
        (["0.0,0.5,-0.5,0", "0.0,0.25,0.5,1"], "dt must be finite and > 0, got 0.0"),
        (["-0.5,0.5,-0.5,0", "-1.0,0.25,0.5,1"], "dt must be finite and > 0, got -0.5"),
        (["0.0,0.5,-0.5,0"], "dt must be finite and > 0, got 0.0"),
        (["-1.0,0.5,-0.5,0"], "dt must be finite and > 0, got -1.0"),
        (["inf,0.5,-0.5,0"], "dt must be finite and > 0, got inf"),
    ], ids=["t_jumps", "t_repeats", "t_nan", "t_skips_a_step", "dt_zero", "dt_negative",
            "one_row_t_zero", "one_row_t_negative", "one_row_t_inf"])
    def test_trace_csv_with_a_t_off_the_grid_is_an_error(self, tmp_path, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text("t,u,v,z\n" + "".join(row + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"trace file {str(path)!r} {message}")):
                StateTrace.from_csv(path)

    def test_trace_csv_roundtrip_keeps_every_t_on_the_grid(self, tmp_path):
        # every t that to_csv writes is (i+1)*dt exactly, at any dt and length
        rng = np.random.default_rng(18)
        path = tmp_path / "trace.csv"
        for dt, n in zip(10.0 ** rng.uniform(-300, 300, size=60), rng.integers(1, 300, size=60)):
            trace = StateTrace(dt=float(dt), u=np.zeros(n), v=np.ones(n),
                               z=np.zeros(n, dtype=np.int8))
            trace.to_csv(path)
            loaded = StateTrace.from_csv(path)
            assert loaded.dt == trace.dt
            assert loaded.times.tobytes() == trace.times.tobytes()

    def test_trace_csv_reads_non_finite_u_and_v_as_written(self, tmp_path):
        # StateTrace takes them, so from_csv reads back what to_csv writes of them
        trace = StateTrace(dt=1e-3, u=np.array([math.nan, math.inf]),
                           v=np.array([-math.inf, 0.5]), z=np.array([0, 1], dtype=np.int8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = StateTrace.from_csv(path)
        assert loaded.u.tobytes() == trace.u.tobytes()
        assert loaded.v.tobytes() == trace.v.tobytes()


class TestNumbersEnterAsFloats:
    """Each number is checked and made a float once, where it enters (_as_float)."""

    def test_float32_and_float64_params_give_the_same_bits(self):
        # equal params share a _propagator key, so both must build what either would
        values = {"omega_u": TWO_PI * 300, "omega_v": TWO_PI * 200, "tau_u": 0.02,
                  "tau_v": 0.05, "theta": 0.3}
        p32 = RafParams(**{k: np.float32(x) for k, x in values.items()})
        p64 = RafParams(**{k: float(np.float32(x)) for k, x in values.items()})
        assert p32 == p64 and hash(p32) == hash(p64)
        dt = 1.0 / (64 * 250)
        signal = InputSignal(dense=np.ones(2000), events=[(0.0, 1.0)])
        runs = []
        for order in ((p32, p64), (p64, p32)):
            _propagator.cache_clear()
            for p in order:
                m, b = _propagator(p, dt)
                trace = simulate(p, signal, dt, 2000)
                runs.append(np.array(m + b).tobytes() + trace.u.tobytes() + trace.v.tobytes()
                            + trace.z.tobytes())
        assert runs == [runs[0]] * 4
        for p in (p32, p64):
            assert {type(getattr(p, f.name)) for f in dataclasses.fields(p)} == {float}
            assert {type(x) for x in transition_terms(p.omega_u, p.omega_v, p.k_u, p.k_v,
                                                      dt)} == {float}

    def test_float32_state_and_inputs_step_as_one_step_simulate(self):
        p = RafParams(omega_u=TWO_PI * 300, omega_v=TWO_PI * 200, tau_u=0.02, tau_v=0.05)
        dt = 1.0 / (64 * 250)
        state = NeuronState(np.float32(0.3), np.float32(-0.7))
        increment, current = np.float32(0.1), np.float32(2.5)
        new, spiked = step(state, p, increment, dt, hold_current=current)
        trace = simulate(p, InputSignal(dense=[current], events=[(0.0, increment)]), dt, 1,
                         initial_state=state)
        assert (new.u.hex(), new.v.hex()) == (trace.u[0].hex(), trace.v[0].hex())
        assert (type(state.u), type(new.u), type(new.v), type(spiked)) == (float, float,
                                                                          float, bool)

    # a float32 namespace would step in float32, a NaN one pass entry, and a
    # tuple raise AttributeError: only a NeuronState's floats enter
    @pytest.mark.parametrize("state", [SimpleNamespace(u=np.float32(0.1), v=np.float32(0.2)),
                                       (0.1, 0.2), SimpleNamespace(u=math.nan, v=0.2)],
                             ids=["float32_namespace", "tuple", "nan_namespace"])
    def test_a_state_that_is_not_a_neuron_state_is_named(self, state):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        with pytest.raises(ValueError, match="^" + re.escape(f"state must be a NeuronState, "
                                                             f"got {state!r}")):
            step(state, p, 0.0, 1e-3)
        with pytest.raises(ValueError, match=re.escape(f"initial_state must be a NeuronState "
                                                       f"or None, got {state!r}")):
            simulate(p, InputSignal(), 1e-3, 100, initial_state=state)

    @pytest.mark.parametrize("value", [Decimal("0.001"), "0.001", None, 1e-3 + 0j,
                                       np.array(1e-3), [1e-3]],
                             ids=["decimal", "str", "none", "complex", "0d_array", "list"])
    def test_a_value_that_is_not_a_real_number_is_named_where_it_enters(self, value):
        p = RafParams(omega_u=TWO_PI * 100, omega_v=TWO_PI * 100, tau_u=0.05)
        state = NeuronState(0.1, -0.2)
        trace = {"u": np.zeros(3), "v": np.zeros(3), "z": np.zeros(3, dtype=np.int8)}
        drive = {"drive_frequency": 100.0, "drive_amplitude": 1.0, "duration": 0.5}
        entries = [(name, lambda x, name=name: RafParams(**{"omega_u": 1.0, "omega_v": 1.0,
                                                            name: x}))
                   for name in ("omega_u", "omega_v", "tau_u", "tau_v", "theta")]
        entries += [(name, lambda x, name=name: resonance_response(p, **{**drive, name: x}))
                    for name in drive]
        entries += [
            ("state u", lambda x: NeuronState(x, 0.0)),
            ("state v", lambda x: NeuronState(0.0, x)),
            ("input_increment", lambda x: step(state, p, x, 1e-3)),
            ("hold_current", lambda x: step(state, p, 0.0, 1e-3, hold_current=x)),
            ("dt", lambda x: simulate(p, InputSignal(), x, 10)),
            ("dt", lambda x: input_vector(p, x)),
            ("dt", lambda x: transition_matrix(p, x)),
            ("dt", lambda x: InputSignal.impulse(1.0).impulse_increments(x, 10)),
            ("trace dt", lambda x: StateTrace(dt=x, **trace)),
            ("dt", lambda x: step(state, p, 0.0, x)),
        ]
        for name, enter in entries:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, "
                                                 f"got {re.escape(repr(value))}$"):
                enter(value)

    def test_an_int_past_the_float_range_is_named(self):
        with pytest.raises(ValueError, match=r"^omega_u must fit a float, got 1000"):
            RafParams(omega_u=10**400, omega_v=1.0)

    @pytest.mark.parametrize("value", [np.array([1.0, 1j]), np.array(["1.0", "2.0"]),
                                       ["1.0", "2.0"], [1.0, None]],
                             ids=["complex-array", "numeric-str-array", "numeric-str-list",
                                  "none-in-list"])
    def test_an_array_that_is_not_real_numbers_is_named_where_it_enters(self, value):
        dtype = np.asarray(value).dtype
        columns = {"u": np.zeros(2), "v": np.zeros(2), "z": np.zeros(2, dtype=np.int8)}
        entries = [("dense input", lambda x: InputSignal(dense=x)),
                   ("events", lambda x: InputSignal(events=[x]))]
        entries += [(f"trace {name}", lambda x, name=name: StateTrace(dt=1e-3,
                                                                      **{**columns, name: x}))
                    for name in columns]
        for name, enter in entries:
            kind = np.asarray([value]).dtype if name == "events" else dtype
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's ComplexWarning included
                with pytest.raises(ValueError, match=re.escape(
                        f"{name} must be an array of real numbers, got {kind}")):
                    enter(value)

    @pytest.mark.parametrize("value", [2, np.int64(2), True, np.float32(0.5), np.float64(0.5),
                                       Fraction(1, 3), 0.5],
                             ids=["int", "np-int64", "bool", "np-float32", "np-float64",
                                  "fraction", "float"])
    def test_a_real_number_of_any_type_enters_as_its_float(self, value):
        x = float(value)
        p = RafParams(omega_u=value, omega_v=value, tau_u=value, tau_v=value, theta=value)
        state = NeuronState(value, value)
        trace = simulate(p, InputSignal(), value, 2)
        for got in (p.omega_u, p.omega_v, p.tau_u, p.tau_v, p.theta, state.u, state.v, trace.dt,
                    StateTrace(dt=value, u=[0.0], v=[0.0], z=[0]).dt):
            assert type(got) is float and got.hex() == x.hex()
        new, _ = step(state, p, value, value, hold_current=value)
        assert type(new.u) is type(new.v) is float
        assert input_vector(p, value).tobytes() == input_vector(p, x).tobytes()

    @pytest.mark.parametrize("dense, events", [
        ([1, 2], [(0, 1)]),
        (np.array([1, 2], dtype=np.int32), np.array([[0, 1]], dtype=np.uint8)),
        ([True, False], [(False, True)]),
        (np.array([1.0, 2.0], dtype=np.float32), np.array([[0.0, 1.0]], dtype=np.float16)),
        (None, []),
        (None, ()),
    ], ids=["python-ints", "numpy-ints", "bools", "narrow-floats", "no-events", "empty-tuple"])
    def test_an_array_of_real_numbers_enters_as_float64(self, dense, events):
        signal = InputSignal(dense=dense, events=events)
        if dense is not None:
            assert signal.dense.dtype == np.float64
            assert signal.dense.tolist() == np.asarray(dense, dtype=float).tolist()
        assert signal.events.dtype == np.float64 and signal.events.shape == (len(events), 2)


def test_every_test_that_core_cites_is_defined():
    # core.py's docstrings cite the test that asserts each bound, so a
    # renamed or deleted test must not leave a stale contract behind
    with open(rafsim.core.__file__) as fh:
        cited = set(re.findall(r"\btest_\w+", fh.read())) - {"test_core"}
    with open(__file__) as fh:
        defined = set(re.findall(r"^\s*def (test_\w+)", fh.read(), re.MULTILINE))
    assert cited
    assert sorted(cited - defined) == []
