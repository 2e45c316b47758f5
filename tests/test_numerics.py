"""Tests for the numerical oracle layer."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gatesynth import numerics
from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec
from gatesynth.numerics import (
    PropagationError,
    QuadratureError,
    action_integral,
    cf4_propagate,
    expm_antihermitian,
    propagate_reference,
    spectral_norm,
)
from gatesynth.workbench.targets import trial_rng

RNG = np.random.default_rng(77)


def random_antihermitian(d, scale=1.0):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return scale * 0.5 * (m - m.conj().T)


def ibmq_spec(horizon=0.5, m=3, piecewise=False):
    sys = ibmq3()
    control = PiecewiseControl(m) if piecewise else PolyControl(m)
    return ProblemSpec(sys.h0, sys.hc, horizon, control)


# -- matrix exponential ---------------------------------------------------------


def test_expm_zero_is_identity():
    assert np.allclose(expm_antihermitian(np.zeros((3, 3))), np.eye(3))


def test_expm_pauli_rotation():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = expm_antihermitian(-1j * (np.pi / 2) * sx)
    assert np.allclose(u, -1j * sx, atol=1e-12)


def test_expm_matches_scipy():
    for d in (2, 3, 5):
        m = random_antihermitian(d, scale=1.5)
        assert np.allclose(expm_antihermitian(m), expm(m), atol=1e-11)


def test_expm_output_unitary():
    for _ in range(10):
        m = random_antihermitian(4, scale=2.0)
        u = expm_antihermitian(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


def test_expm_rejects_hermitian():
    with pytest.raises(ValueError):
        expm_antihermitian(np.eye(2))


# -- reference propagation -------------------------------------------------------


def test_propagate_constant_control_closed_form():
    # m=1 goes through the stepper like any m; its 512 equal slices telescope
    spec = ibmq_spec(horizon=0.7, m=1)
    x = np.array([0.3])
    u = propagate_reference(spec, x)
    exact = expm(-1j * 0.7 * (np.asarray(spec.h0) + 0.3 * np.asarray(spec.hc)))
    assert np.linalg.norm(u - exact) < 1e-12


def test_propagate_output_unitary():
    # draws stay inside the series convergence region (action below pi)
    spec = ibmq_spec(horizon=0.5, m=3)
    checked = 0
    while checked < 3:
        x = RNG.uniform(-1, 1, size=3)
        if action_integral(spec, x) >= np.pi - 1e-3:
            continue
        u = propagate_reference(spec, x)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-11
        checked += 1


def test_cf4_fourth_order_convergence():
    spec = ibmq_spec(horizon=0.5, m=3)
    x = np.array([0.4, -0.8, 0.6])
    u1 = cf4_propagate(spec, x, 16)
    u2 = cf4_propagate(spec, x, 32)
    u4 = cf4_propagate(spec, x, 64)
    d1 = np.linalg.norm(u1 - u2)
    d2 = np.linalg.norm(u2 - u4)
    assert 12.0 < d1 / d2 < 20.0


def ode_propagate(spec, x):
    """U(T) from an adaptive Runge-Kutta integration of i dU/dt = H(t) U."""
    d = spec.dim

    def rhs(t, y):
        env = np.polyval(x[::-1], t)
        return (-1j * (spec.h0 + env * spec.hc) @ y.reshape(d, d)).ravel()

    y0 = np.eye(d, dtype=complex).ravel()
    sol = solve_ivp(rhs, (0.0, spec.horizon), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    return sol.y[:, -1].reshape(d, d)


@pytest.mark.parametrize("qubits", [pytest.param(None, id="ibmq3"), 2, 3])
def test_propagate_reference_ising_matches_ode(qubits):
    pair = ibmq3() if qubits is None else build_ising(qubits)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3))
    x = trial_rng(0, 0).uniform(-1.0, 1.0, 3)
    u = propagate_reference(spec, x)
    assert np.linalg.norm(u - ode_propagate(spec, x)) < 1e-9


def test_propagate_piecewise_exact_product():
    spec = ibmq_spec(horizon=0.6, m=3, piecewise=True)
    x = np.array([0.2, -0.5, 0.9])
    u = propagate_reference(spec, x)
    dt = 0.2
    expect = np.eye(3, dtype=complex)
    for xi in x:
        expect = expm(-1j * dt * (np.asarray(spec.h0) + xi * np.asarray(spec.hc))) @ expect
    assert np.linalg.norm(u - expect) < 1e-12


def test_propagate_detects_coarse_grids(monkeypatch):
    # at 1 step the doubling defect for this drive is far above tolerance
    monkeypatch.setattr(numerics, "DEFAULT_STEPS", 1)
    spec = ibmq_spec(horizon=0.5, m=3)
    x = np.array([0.9, 0.9, 0.9])
    with pytest.raises(PropagationError):
        propagate_reference(spec, x)


@pytest.mark.parametrize("slices", [3, 5, 7, 256])
@pytest.mark.parametrize("chunk", [1, 2, 4, 8])
def test_slice_product_chunking_bit_identical(slices, chunk, monkeypatch):
    # forced chunks of `chunk` slices, the last one partial unless `chunk`
    # divides `slices`, pair the factors as one chunk over all of them
    sys_ = ibmq3()
    h0, hc = np.asarray(sys_.h0), np.asarray(sys_.hc)
    coeffs = np.random.default_rng(slices).uniform(-1.0, 1.0, slices)
    whole = numerics._slice_product(h0, hc, coeffs, 0.01)
    monkeypatch.setattr(numerics, "_CHUNK_ENTRIES", chunk * h0.size + h0.size - 1)
    assert np.array_equal(numerics._slice_product(h0, hc, coeffs, 0.01), whole)


def test_cf4_memory_bounded():
    # Ising N=6 (d=64) at 256 steps: all 512 slices at once peaked at 161 MB
    pair = build_ising(6)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3))
    x = trial_rng(0, 0).uniform(-1.0, 1.0, 3)
    tracemalloc.start()
    try:
        cf4_propagate(spec, x, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


def test_propagate_rejects_bad_shape():
    spec = ibmq_spec(m=3)
    with pytest.raises(ValueError):
        propagate_reference(spec, [0.1, 0.2])


# -- spectral norm ---------------------------------------------------------------


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([0.0, 0.5159, 1.0])) == pytest.approx(1.0)


def test_spectral_norm_flip():
    sx = np.array([[0, 1], [1, 0]])
    assert spectral_norm(sx) == pytest.approx(1.0)


def test_spectral_norm_vs_svd():
    for _ in range(10):
        m = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
        assert spectral_norm(m) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-9, abs=1e-9
        )


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


# -- action integral --------------------------------------------------------------


def test_action_zero_control():
    spec = ibmq_spec(horizon=0.5, m=3)
    assert action_integral(spec, np.zeros(3)) == pytest.approx(0.5, abs=1e-8)


def test_action_constant_control():
    spec = ibmq_spec(horizon=0.8, m=1)
    x = np.array([0.6])
    expect = 0.8 * np.linalg.norm(np.asarray(spec.h0) + 0.6 * np.asarray(spec.hc), 2)
    assert action_integral(spec, x) == pytest.approx(expect, abs=1e-8)


def test_action_vs_riemann_sum():
    # midpoint sums on 20000 cells, on ibmq3 and on the Ising chain N=3
    ts = (np.arange(20000) + 0.5) * (0.5 / 20000)
    for pair, x in ((ibmq3(), RNG.uniform(-1, 1, size=3)),
                    (build_ising(3), trial_rng(0, 1).uniform(-1, 1, 3))):
        spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3))
        env = x[0] + x[1] * ts + x[2] * ts**2
        gens = np.asarray(spec.h0) + env[:, None, None] * np.asarray(spec.hc)
        riemann = np.linalg.norm(gens, 2, axis=(1, 2)).sum() * (0.5 / 20000)
        assert action_integral(spec, x) == pytest.approx(riemann, abs=1e-7)


def test_action_monotone_in_horizon():
    x = RNG.uniform(-1, 1, size=3)
    a1 = action_integral(ibmq_spec(horizon=0.4, m=3), x)
    a2 = action_integral(ibmq_spec(horizon=0.8, m=3), x)
    assert a2 >= a1


def test_action_piecewise_exact():
    spec = ibmq_spec(horizon=0.6, m=3, piecewise=True)
    x = np.array([0.1, -0.4, 0.8])
    expect = sum(
        0.2 * np.linalg.norm(np.asarray(spec.h0) + xi * np.asarray(spec.hc), 2)
        for xi in x
    )
    assert action_integral(spec, x) == pytest.approx(expect, rel=1e-10)


def test_action_raises_quadpack_failure(monkeypatch):
    # quad returns a 4-tuple, its message last, when QUADPACK reports failure
    def failing_quad(f, a, b, **kwargs):
        return 0.0, 1.0, {}, "The maximum number of subdivisions (50) has been achieved."

    monkeypatch.setattr(numerics, "quad", failing_quad)
    with pytest.raises(QuadratureError, match="maximum number of subdivisions"):
        action_integral(ibmq_spec(), np.zeros(3))
