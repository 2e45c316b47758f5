"""Tests for the graded BCH composition layer."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from gatesynth.bch import (
    bch_compose,
    build_sigma,
    gbchd_eq12,
    slice_generator,
)
from gatesynth.hamlib import ibmq3
from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec
from gatesynth.polymat import PolyMatrix, pm_eval

RNG = np.random.default_rng(31337)


def pw_spec(horizon=0.5, m=3):
    sys = ibmq3()
    return ProblemSpec(sys.h0, sys.hc, horizon, PiecewiseControl(m), label="ibmq3")


def random_antihermitian(d, cap):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    m = 0.5 * (m - m.conj().T)
    return m * (cap / np.linalg.norm(m, 2))


def as_const(mat):
    return PolyMatrix.constant(0, mat)


# -- slice generators -----------------------------------------------------------


def test_slice_generator_affine():
    spec = pw_spec(horizon=0.6, m=3)
    a2 = slice_generator(spec, 2)
    assert set(a2.coeffs) == {(0, 0, 0), (0, 1, 0)}
    assert np.allclose(a2.coeffs[(0, 0, 0)], -1j * 0.2 * np.asarray(spec.h0))
    assert np.allclose(a2.coeffs[(0, 1, 0)], -1j * 0.2 * np.asarray(spec.hc))
    assert a2.max_entry_degree() == 1


def test_slice_generator_index_bounds():
    spec = pw_spec(m=2)
    with pytest.raises(ValueError):
        slice_generator(spec, 0)
    with pytest.raises(ValueError):
        slice_generator(spec, 3)


def test_slice_generator_rejects_poly_control():
    sys = ibmq3()
    spec = ProblemSpec(sys.h0, sys.hc, 0.5, PolyControl(3))
    with pytest.raises(ValueError):
        slice_generator(spec, 1)


# -- pairwise composition ---------------------------------------------------------


def test_bch_commuting_inputs():
    x = as_const(np.diag([1j, -1j, 0.5j]))
    y = as_const(np.diag([0.2j, 0.1j, -0.3j]))
    for n in (1, 2, 3, 4):
        z = bch_compose(x, y, n)
        assert np.allclose(pm_eval(z, []), pm_eval(x, []) + pm_eval(y, []))


def test_bch_zero_second_factor():
    x = as_const(random_antihermitian(3, 0.5))
    y = as_const(np.zeros((3, 3)))
    z = bch_compose(x, y, 4)
    assert np.allclose(pm_eval(z, []), pm_eval(x, []))


def test_bch_grade2_closed_form():
    xm = random_antihermitian(3, 0.3)
    ym = random_antihermitian(3, 0.3)
    z = bch_compose(as_const(xm), as_const(ym), 2)
    expect = xm + ym + 0.5 * (xm @ ym - ym @ xm)
    assert np.allclose(pm_eval(z, []), expect, atol=1e-13)


def test_bch_remainder_fifth_order():
    # grade-4 truncation: halving both inputs must shrink the residual against
    # the exact log by at least 2^4.5
    for _ in range(5):
        xm = random_antihermitian(3, 0.1)
        ym = random_antihermitian(3, 0.1)
        errs = []
        for s in (1.0, 0.5):
            zm = pm_eval(bch_compose(as_const(s * xm), as_const(s * ym), 4), [])
            exact = logm(expm(s * xm) @ expm(s * ym))
            errs.append(np.linalg.norm(zm - exact))
        assert errs[0] / errs[1] >= 2**4.5


def test_bch_rejects_bad_grade():
    x = as_const(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bch_compose(x, x, 0)
    with pytest.raises(ValueError):
        bch_compose(x, x, 5)


def test_bch_rejects_mismatched_operands():
    x = as_const(np.zeros((2, 2)))
    y = as_const(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        bch_compose(x, y, 2)


# -- folded multi-slice generator ----------------------------------------------------


def test_sigma_single_slice():
    spec = pw_spec(horizon=0.5, m=1)
    sigma = build_sigma(spec, 4)
    x = np.array([0.7])
    expect = -1j * 0.5 * (np.asarray(spec.h0) + 0.7 * np.asarray(spec.hc))
    assert np.allclose(pm_eval(sigma, x), expect, atol=1e-13)


def test_sigma_two_slices_grade2_closed_form():
    spec = pw_spec(horizon=0.5, m=2)
    dt = 0.25
    sigma = build_sigma(spec, 2)
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)
    k = h0 @ hc - hc @ h0
    for x in ([0.3, -0.8], [1.0, 0.25]):
        expect = -1j * dt * (2 * h0 + (x[0] + x[1]) * hc) - (dt**2 / 2.0) * (
            x[0] - x[1]
        ) * k
        assert np.allclose(pm_eval(sigma, np.array(x)), expect, atol=1e-13)


def test_sigma_two_slices_matches_numeric_log():
    spec = pw_spec(horizon=0.2, m=2)
    sigma = build_sigma(spec, 4)
    x = np.array([0.4, -0.3])
    dt = 0.1
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)
    u = expm(-1j * dt * (h0 + x[1] * hc)) @ expm(-1j * dt * (h0 + x[0] * hc))
    exact = logm(u)
    assert np.linalg.norm(pm_eval(sigma, x) - exact) < 5e-8


def test_sigma_equal_slices_collapse():
    spec = pw_spec(horizon=0.5, m=3)
    sigma = build_sigma(spec, 4)
    for xv in (0.35, -0.6):
        x = np.full(3, xv)
        expect = -1j * 0.5 * (np.asarray(spec.h0) + xv * np.asarray(spec.hc))
        assert np.allclose(pm_eval(sigma, x), expect, atol=1e-12)


def test_sigma_fold_remainder_scaling():
    # all slice generators scale linearly with the horizon, so the grade-4
    # fold residual against the exact product log drops ~2^5 under T-halving
    x = np.array([0.5, -0.7, 0.3])
    errs = []
    for horizon in (0.4, 0.2):
        spec = pw_spec(horizon=horizon, m=3)
        sigma = build_sigma(spec, 4)
        dt = horizon / 3
        h0 = np.asarray(spec.h0)
        hc = np.asarray(spec.hc)
        u = np.eye(3, dtype=complex)
        for xi in x:
            u = expm(-1j * dt * (h0 + xi * hc)) @ u
        errs.append(np.linalg.norm(pm_eval(sigma, x) - logm(u)))
    assert errs[0] / errs[1] >= 2**4.5


def test_sigma_antihermitian_at_random_points():
    spec = pw_spec(horizon=0.5, m=3)
    for n in (2, 3, 4):
        sigma = build_sigma(spec, n)
        for _ in range(100):
            x = RNG.uniform(-1, 1, size=3)
            g = pm_eval(sigma, x)
            assert np.linalg.norm(g + g.conj().T) < 1e-12


def test_sigma_degree_bound():
    spec = pw_spec(m=3)
    for n in (1, 2, 3, 4):
        assert build_sigma(spec, n).max_entry_degree() <= n


def test_sigma_rejects_poly_control():
    sys = ibmq3()
    spec = ProblemSpec(sys.h0, sys.hc, 0.5, PolyControl(3))
    with pytest.raises(ValueError):
        build_sigma(spec, 2)


# -- explicit multi-factor expansion ---------------------------------------------------


def test_eq12_order1_matches_fold():
    spec = pw_spec(m=3)
    diff = gbchd_eq12(spec, 1) - build_sigma(spec, 1)
    assert diff.is_zero()


def test_eq12_order2_matches_fold_exactly():
    spec = pw_spec(m=3)
    diff = gbchd_eq12(spec, 2) - build_sigma(spec, 2)
    worst = max(
        (float(np.abs(mat).max()) for mat in diff.coeffs.values()), default=0.0
    )
    assert worst < 1e-14


def test_eq12_order3_coefficient_gap():
    # third-order parts differ: the explicit form carries 1/6 where the fold
    # carries the pairwise 1/12, so the gap is the 1/12 combination itself
    spec = pw_spec(horizon=0.5, m=2)
    a1 = slice_generator(spec, 1)
    a2 = slice_generator(spec, 2)
    from gatesynth.polymat import pm_commutator

    gap = build_sigma(spec, 3) - gbchd_eq12(spec, 3)
    expect = (
        pm_commutator(a1, pm_commutator(a1, a2))
        + pm_commutator(a2, pm_commutator(a2, a1))
    ).scale(-1.0 / 12.0)
    diff = gap - expect
    worst = max(
        (float(np.abs(mat).max()) for mat in diff.coeffs.values()), default=0.0
    )
    assert worst < 1e-14


def test_eq12_rejects_order_above_printed():
    spec = pw_spec(m=2)
    with pytest.raises(ValueError):
        gbchd_eq12(spec, 4)
