"""Tests for the piecewise-constant generator: the Magnus series of the
slice-indicator envelope, which is the BCH logarithm of the slice product."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import PiecewiseControl, ProblemSpec, build_lambda
from gatesynth.polymat import pm_commutator, pm_eval

from gbchd import gbchd_eq12, slice_generator

RNG = np.random.default_rng(31337)
# the control that runs a two-slice problem on its constant drive, then on
# its full drive: see two_slice_spec
FIRST_OFF = np.array([0.0, 1.0])


def pw_spec(horizon=0.5, m=3):
    sys = ibmq3()
    return ProblemSpec(sys.h0, sys.hc, horizon, PiecewiseControl(m), label="ibmq3")


def two_slice_spec(a, b, h=1.0):
    """Two slices of width h whose generators at FIRST_OFF are b, then a:
    H0 = i b / h and Hc = i (a - b) / h, so Sigma(FIRST_OFF) = log(e^a e^b)."""
    return ProblemSpec(1j * b / h, 1j * (a - b) / h, 2 * h, PiecewiseControl(2))


def random_antihermitian(d, cap):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    m = 0.5 * (m - m.conj().T)
    return m * (cap / np.linalg.norm(m, 2))


def log_series(gens, n):
    """Grades 1..n of log(e^{gens[-1]} ... e^{gens[0]}), exactly: the
    coefficients of eps^1..eps^n of log(prod e^{eps g}) in truncated
    power-series arithmetic, each a matrix."""
    eye = np.eye(gens[0].shape[0], dtype=complex)

    def mul(p, q):
        return [sum(p[i] @ q[j - i] for i in range(j + 1)) for j in range(n + 1)]

    product = [eye] + [np.zeros_like(eye)] * n
    for g in gens:
        factor = [eye]
        for j in range(1, n + 1):
            factor.append(factor[-1] @ g / j)
        product = mul(factor, product)
    x = [np.zeros_like(eye)] + product[1:]
    log, power = [np.zeros_like(eye)] * (n + 1), x
    for j in range(1, n + 1):
        log = [acc + (-1) ** (j + 1) * p / j for acc, p in zip(log, power)]
        power = mul(power, x)
    return log[1:]


# -- two slices: the BCH series of a product of two exponentials ----------------


def test_bch_commuting_inputs():
    x = np.diag([1j, -1j, 0.5j])
    y = np.diag([0.2j, 0.1j, -0.3j])
    spec = two_slice_spec(x, y)
    for n in (1, 2, 3, 4):
        assert np.allclose(pm_eval(build_lambda(spec, n), FIRST_OFF), x + y)


def test_bch_zero_second_factor():
    x = random_antihermitian(3, 0.5)
    spec = two_slice_spec(x, np.zeros((3, 3)))
    assert np.allclose(pm_eval(build_lambda(spec, 4), FIRST_OFF), x)


def test_bch_grade2_closed_form():
    xm = random_antihermitian(3, 0.3)
    ym = random_antihermitian(3, 0.3)
    z = build_lambda(two_slice_spec(xm, ym), 2)
    expect = xm + ym + 0.5 * (xm @ ym - ym @ xm)
    assert np.allclose(pm_eval(z, FIRST_OFF), expect, atol=1e-13)


def test_bch_remainder_fifth_order():
    # grade-4 truncation: halving both inputs must shrink the residual against
    # the exact log by at least 2^4.5
    for _ in range(5):
        xm = random_antihermitian(3, 0.1)
        ym = random_antihermitian(3, 0.1)
        errs = []
        for s in (1.0, 0.5):
            zm = pm_eval(build_lambda(two_slice_spec(s * xm, s * ym), 4), FIRST_OFF)
            exact = logm(expm(s * xm) @ expm(s * ym))
            errs.append(np.linalg.norm(zm - exact))
        assert errs[0] / errs[1] >= 2**4.5


def test_bch_rejects_bad_grade():
    spec = pw_spec(m=2)
    for n in (0, 5):
        with pytest.raises(ValueError):
            build_lambda(spec, n)


# -- the piecewise generator Sigma ----------------------------------------------------


def test_sigma_single_slice():
    spec = pw_spec(horizon=0.5, m=1)
    sigma = build_lambda(spec, 4)
    x = np.array([0.7])
    expect = -1j * 0.5 * (np.asarray(spec.h0) + 0.7 * np.asarray(spec.hc))
    assert np.allclose(pm_eval(sigma, x), expect, atol=1e-13)


def test_sigma_two_slices_grade2_closed_form():
    spec = pw_spec(horizon=0.5, m=2)
    dt = 0.25
    sigma = build_lambda(spec, 2)
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
    sigma = build_lambda(spec, 4)
    x = np.array([0.4, -0.3])
    dt = 0.1
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)
    u = expm(-1j * dt * (h0 + x[1] * hc)) @ expm(-1j * dt * (h0 + x[0] * hc))
    exact = logm(u)
    assert np.linalg.norm(pm_eval(sigma, x) - exact) < 5e-8


def test_sigma_equal_slices_collapse():
    spec = pw_spec(horizon=0.5, m=3)
    sigma = build_lambda(spec, 4)
    for xv in (0.35, -0.6):
        x = np.full(3, xv)
        expect = -1j * 0.5 * (np.asarray(spec.h0) + xv * np.asarray(spec.hc))
        assert np.allclose(pm_eval(sigma, x), expect, atol=1e-12)


def test_sigma_fold_remainder_scaling():
    # all slice generators scale linearly with the horizon, so the order-4
    # residual against the exact product log drops ~2^5 under T-halving
    x = np.array([0.5, -0.7, 0.3])
    errs = []
    for horizon in (0.4, 0.2):
        spec = pw_spec(horizon=horizon, m=3)
        sigma = build_lambda(spec, 4)
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
        sigma = build_lambda(spec, n)
        for _ in range(100):
            x = RNG.uniform(-1, 1, size=3)
            g = pm_eval(sigma, x)
            assert np.linalg.norm(g + g.conj().T) < 1e-12


def test_sigma_degree_bound():
    # words of Hc alone vanish, so order n reaches degree n - 1 only
    spec = pw_spec(m=3)
    for n in (1, 2, 3, 4):
        assert build_lambda(spec, n).max_entry_degree() == max(1, n - 1)


@pytest.mark.parametrize("system", ["ibmq3", "ising3"])
def test_sigma_matches_log_series(system):
    # grade j of log(e^{A_m} ... e^{A_1}) is the eps^j coefficient when every
    # slice generator A_i is scaled by eps; Sigma at order n is grades 1..n,
    # and the explicit expansion shares grades 1 and 2
    pair = ibmq3() if system == "ibmq3" else build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PiecewiseControl(3))
    sigmas = {n: build_lambda(spec, n) for n in (1, 2, 3, 4)}
    explicit = {n: gbchd_eq12(spec, n) for n in (1, 2)}
    dt = spec.horizon / spec.m
    for _ in range(5):
        x = RNG.uniform(-1, 1, size=spec.m)
        gens = [-1j * dt * (spec.h0 + xi * spec.hc) for xi in x]
        grades = log_series(gens, 4)
        scale = np.linalg.norm(grades[0])
        for n, sigma in sigmas.items():
            exact = sum(grades[:n])
            assert np.linalg.norm(pm_eval(sigma, x) - exact) <= 1e-15 * scale
            if n in explicit:
                assert np.linalg.norm(pm_eval(explicit[n], x) - exact) <= 1e-15 * scale


# -- the explicit multi-factor expansion ---------------------------------------------


def test_eq12_order1_matches_fold():
    spec = pw_spec(m=3)
    diff = gbchd_eq12(spec, 1) - build_lambda(spec, 1)
    assert diff.is_zero()


def test_eq12_order2_matches_fold_exactly():
    spec = pw_spec(m=3)
    diff = gbchd_eq12(spec, 2) - build_lambda(spec, 2)
    worst = max(
        (float(np.abs(mat).max()) for mat in diff.coeffs.values()), default=0.0
    )
    assert worst < 1e-14


def test_eq12_order3_coefficient_gap():
    # third-order parts differ: the explicit form carries 1/6 where the series
    # carries the pairwise 1/12, so the gap is the 1/12 combination itself
    spec = pw_spec(horizon=0.5, m=2)
    a1 = slice_generator(spec, 1)
    a2 = slice_generator(spec, 2)
    gap = build_lambda(spec, 3) - gbchd_eq12(spec, 3)
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
