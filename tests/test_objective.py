"""Tests for objective construction and fidelity metrics."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, logm

from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import PolyControl, ProblemSpec, build_lambda
from gatesynth.numerics import expm_antihermitian
from gatesynth.objective import (
    BranchAmbiguityError,
    build_objective,
    infidelity,
    principal_log,
)
from gatesynth.polymat import pm_eval

RNG = np.random.default_rng(909)


def random_antihermitian(d, spectral_cap):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    m = 0.5 * (m - m.conj().T)
    norm = np.linalg.norm(m, 2)
    return m * (spectral_cap / norm) * RNG.uniform(0.3, 1.0)


def haar_unitary(d):
    z = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- principal logarithm ----------------------------------------------------------


def test_log_identity():
    assert np.allclose(principal_log(np.eye(4)), 0.0)


def test_log_diagonal_phases():
    u = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    expect = np.diag([0.3j, -0.3j])
    assert np.allclose(principal_log(u), expect, atol=1e-12)


def test_log_expm_roundtrip():
    for d in (2, 3, 5):
        for _ in range(5):
            omega = random_antihermitian(d, 3.0)
            u = expm_antihermitian(omega)
            assert np.linalg.norm(principal_log(u) - omega) < 1e-10


def test_log_matches_scipy_logm():
    u = haar_unitary(4)
    try:
        ours = principal_log(u)
    except BranchAmbiguityError:
        pytest.skip("eigenphase on the cut")
    assert np.linalg.norm(ours - logm(u)) < 1e-9


def test_log_output_antihermitian():
    for _ in range(10):
        u = haar_unitary(3)
        try:
            omega = principal_log(u)
        except BranchAmbiguityError:
            continue
        assert np.linalg.norm(omega + omega.conj().T) == 0.0


def test_log_degenerate_eigenvalues():
    # degenerate phase pairs, then pairs split by 1e-7: an eigenbasis skewed
    # inside a near-degenerate cluster shows in both the round trip and the
    # generator
    v = haar_unitary(4)
    for phases in ([0.5, 0.5, -0.2, -0.2], [0.5, 0.5 + 1e-7, -0.2, -0.2 + 1e-7]):
        generator = v @ np.diag(1j * np.array(phases)) @ v.conj().T
        u = expm(generator)
        omega = principal_log(u)
        assert np.linalg.norm(expm(omega) - u) < 1e-12
        assert np.linalg.norm(omega - generator) < 1e-12


def test_log_branch_cut_detected():
    u = np.diag([np.exp(1j * np.pi), 1.0])
    with pytest.raises(BranchAmbiguityError):
        principal_log(u)


def test_log_rejects_nonunitary():
    with pytest.raises(ValueError):
        principal_log(2.0 * np.eye(2))


# -- objective construction ------------------------------------------------------------


def ibmq_lambda(horizon=0.5, m=3, order=3):
    sys = ibmq3()
    spec = ProblemSpec(sys.h0, sys.hc, horizon, PolyControl(m))
    return spec, build_lambda(spec, order)


def test_objective_zero_at_planted_point():
    spec, lam = ibmq_lambda()
    x_star = RNG.uniform(-1, 1, size=3)
    omega = pm_eval(lam, x_star)
    p = build_objective(lam, omega)
    assert abs(p.eval(x_star)) < 1e-12


def test_objective_degree_bounds():
    # the generic bound is twice the truncation order; for a single drive
    # channel the top-degree commutator words cancel ([Hc,Hc]=0), so the
    # entry degree of the order-k term is k-1 for k >= 2 and the realized
    # objective degrees are 2, 2, 4 for orders 1, 2, 3
    expected = {1: 2, 2: 2, 3: 4}
    for order in (1, 2, 3):
        spec, lam = ibmq_lambda(order=order)
        omega = pm_eval(lam, np.zeros(3))
        p = build_objective(lam, omega)
        assert p.degree() <= 2 * order
        assert p.degree() == expected[order]


def test_objective_matches_numeric_norm():
    spec, lam = ibmq_lambda()
    omega = pm_eval(lam, RNG.uniform(-1, 1, size=3))
    p = build_objective(lam, omega)
    for _ in range(20):
        x = RNG.uniform(-1.5, 1.5, size=3)
        direct = np.linalg.norm(pm_eval(lam, x) - omega, "fro") ** 2
        assert p.eval(x).real == pytest.approx(direct, rel=1e-10, abs=1e-12)
        assert p.eval(x).imag == 0.0


def test_objective_nonnegative():
    spec, lam = ibmq_lambda()
    omega = pm_eval(lam, np.array([0.2, -0.3, 0.1]))
    p = build_objective(lam, omega)
    pts = RNG.uniform(-2, 2, size=(1000, 3))
    vals = p.eval_many(pts)
    assert np.all(vals.real >= -1e-12)


def test_objective_rejects_nan_target():
    # a NaN entry must not be pruned away as if it were zero
    spec, lam = ibmq_lambda()
    omega = pm_eval(lam, np.array([0.2, -0.3, 0.1]))
    omega[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        build_objective(lam, omega)


def test_objective_dimension_mismatch():
    spec, lam = ibmq_lambda()
    with pytest.raises(ValueError):
        build_objective(lam, np.zeros((2, 2)))


def test_objective_zero_implies_gate_match():
    # an exact generator match reproduces the target gate exactly
    spec, lam = ibmq_lambda()
    x_star = np.array([0.25, -0.55, 0.4])
    omega = pm_eval(lam, x_star)
    u_star = expm_antihermitian(omega)
    p = build_objective(lam, omega)
    assert abs(p.eval(x_star)) < 1e-12
    u_hat = expm_antihermitian(pm_eval(lam, x_star))
    assert infidelity(u_hat, u_star) < 1e-10


# -- infidelity -------------------------------------------------------------------------


def test_infidelity_identical():
    u = haar_unitary(3)
    assert infidelity(u, u) <= 1e-14


def test_infidelity_global_phase():
    u = haar_unitary(4)
    assert infidelity(np.exp(0.7j) * u, u) < 1e-12


def test_infidelity_orthogonal_gates():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert infidelity(sx, np.eye(2)) == pytest.approx(1.0)


def test_infidelity_range():
    for _ in range(20):
        a, b = haar_unitary(3), haar_unitary(3)
        f = infidelity(a, b)
        assert 0.0 <= f <= 1.0


def test_infidelity_shape_mismatch():
    with pytest.raises(ValueError):
        infidelity(np.eye(2), np.eye(3))


def test_ising_build_memory_bounded():
    # Ising N=7, m=7: an 8.5 MiB generator of 34 coefficients of 128 x 128.
    # Arithmetic shares operand coefficients instead of copying them, so the
    # build peaks below twice its result and the objective adds little to
    # the generator it reads (2.75x and 2.1x when every result was copied)
    pair = build_ising(7)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(7))
    tracemalloc.start()
    try:
        lam = build_lambda(spec, 3)
        _, build_peak = tracemalloc.get_traced_memory()
        omega = pm_eval(lam, RNG.uniform(-1, 1, 7))
        tracemalloc.reset_peak()
        objective = build_objective(lam, omega)
        _, objective_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(m.nbytes for m in lam.coeffs.values())
    assert len(lam.coeffs) == 34 and objective.degree() == 4
    assert build_peak < 2.0 * result
    assert objective_peak < 1.25 * result
