"""Tests for the truncated Magnus series builder."""

import copy
import itertools

import numpy as np
import pytest
from scipy import integrate

from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import (
    PiecewiseControl,
    PolyControl,
    ProblemSpec,
    _simplex_weight,
    build_lambda,
    magnus_term,
)
from gatesynth.numerics import action_integral, propagate_reference
from gatesynth.objective import principal_log
from gatesynth.polymat import PolyMatrix, pm_eval

RNG = np.random.default_rng(4242)


def ibmq_spec(horizon=0.5, m=3):
    sys = ibmq3()
    return ProblemSpec(sys.h0, sys.hc, horizon, PolyControl(m))


# -- problem validation -----------------------------------------------------------


def test_spec_rejects_nonhermitian():
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            ProblemSpec(bad, np.eye(2), 1.0, PolyControl(1))


def test_spec_rejects_nonpositive_horizon():
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ProblemSpec(np.eye(2), np.eye(2), horizon, PolyControl(1))


def test_spec_rejects_zero_basis():
    with pytest.raises(ValueError):
        PolyControl(0)
    with pytest.raises(ValueError):
        PiecewiseControl(0)


def test_spec_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), np.eye(3), 1.0, PolyControl(1))


# -- individual series terms -----------------------------------------------------------


def test_order1_closed_form():
    spec = ibmq_spec(horizon=0.5, m=3)
    omega1 = magnus_term(spec, 1)
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)
    T = 0.5
    x = RNG.uniform(-1, 1, size=3)
    expect = -1j * (
        h0 * T + hc * (x[0] * T + x[1] * T**2 / 2.0 + x[2] * T**3 / 3.0)
    )
    assert np.allclose(pm_eval(omega1, x), expect, atol=1e-13)


def test_order1_matches_quadrature():
    spec = ibmq_spec(horizon=0.5, m=3)
    omega1 = magnus_term(spec, 1)
    x = RNG.uniform(-1, 1, size=3)
    dense = pm_eval(omega1, x)
    for idx in ((0, 0), (0, 1), (1, 2), (2, 2)):
        def f(t, ij=idx):
            env = x[0] + x[1] * t + x[2] * t**2
            a = -1j * (np.asarray(spec.h0) + env * np.asarray(spec.hc))
            return a[ij]

        re, _ = integrate.quad(lambda t: f(t).real, 0, 0.5)
        im, _ = integrate.quad(lambda t: f(t).imag, 0, 0.5)
        assert dense[idx] == pytest.approx(re + 1j * im, abs=1e-10)


def test_order2_constant_control_vanishes():
    spec = ibmq_spec(m=1)
    assert magnus_term(spec, 2).is_zero()
    assert magnus_term(spec, 3).is_zero()


def test_order2_linear_envelope_closed_form():
    # E(t) = x1 t: the double integral collapses to (x1 T^3/12) [H0, Hc]
    spec = ibmq_spec(horizon=0.8, m=2)
    omega2 = magnus_term(spec, 2)
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)
    comm = h0 @ hc - hc @ h0
    x = np.array([0.0, 0.9])
    expect = (0.9 * 0.8**3 / 12.0) * comm
    assert np.allclose(pm_eval(omega2, x), expect, atol=1e-12)


def test_order2_matches_double_quadrature():
    spec = ibmq_spec(horizon=0.5, m=2)
    omega2 = magnus_term(spec, 2)
    x = np.array([0.4, -0.7])
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)

    def a_at(t):
        return -1j * (h0 + (x[0] + x[1] * t) * hc)

    dense = pm_eval(omega2, x)
    for idx in ((0, 1), (1, 2), (0, 0)):
        def f(s, t, ij=idx):
            c = a_at(t) @ a_at(s) - a_at(s) @ a_at(t)
            return c[ij]

        re, _ = integrate.dblquad(
            lambda s, t: f(s, t).real, 0, 0.5, 0, lambda t: t
        )
        im, _ = integrate.dblquad(
            lambda s, t: f(s, t).imag, 0, 0.5, 0, lambda t: t
        )
        assert dense[idx] == pytest.approx(0.5 * (re + 1j * im), abs=1e-9)


def test_order3_matches_triple_quadrature():
    spec = ibmq_spec(horizon=0.5, m=2)
    omega3 = magnus_term(spec, 3)
    x = np.array([0.3, 0.8])
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)

    def a_at(t):
        return -1j * (h0 + (x[0] + x[1] * t) * hc)

    def comm(p, q):
        return p @ q - q @ p

    dense = pm_eval(omega3, x)
    idx = (0, 1)

    def f(u, s, t):
        c = comm(a_at(t), comm(a_at(s), a_at(u))) - comm(
            a_at(u), comm(a_at(t), a_at(s))
        )
        return c[idx]

    re, _ = integrate.tplquad(
        lambda u, s, t: f(u, s, t).real,
        0, 0.5, 0, lambda t: t, 0, lambda t, s: s,
    )
    im, _ = integrate.tplquad(
        lambda u, s, t: f(u, s, t).imag,
        0, 0.5, 0, lambda t: t, 0, lambda t, s: s,
    )
    assert dense[idx] == pytest.approx((re + 1j * im) / 6.0, abs=1e-9)


def simplex_gauss(f, horizon, k, nodes=8):
    """Nested Gauss-Legendre rule for f(t1..tk) over 0 <= tk <= ... <= t1 <= T.

    Collapsed coordinates t1 = T u1, tj = t(j-1) uj carry the Jacobian
    T t1 ... t(k-1); with 8 nodes per level the rule is exact up to degree 15
    in each uj.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    total = 0.0
    for idx in itertools.product(range(nodes), repeat=k):
        upper, weight, ts = horizon, 1.0, []
        for i in idx:
            weight *= w[i] * upper
            upper *= u[i]
            ts.append(upper)
        total = total + weight * f(*ts)
    return total


@pytest.mark.parametrize("system", ["ibmq3", "ising2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_term_matches_simplex_gauss_rule(system, k):
    pair = ibmq3() if system == "ibmq3" else build_ising(2)
    horizon = 0.5
    spec = ProblemSpec(pair.h0, pair.hc, horizon, PolyControl(3))
    x = np.array([0.6, -0.9, 1.3])
    h0 = np.asarray(spec.h0)
    hc = np.asarray(spec.hc)

    def a_at(t):
        return -1j * (h0 + (x[0] + x[1] * t + x[2] * t**2) * hc)

    def comm(p, q):
        return p @ q - q @ p

    def integrand(*ts):
        a = [a_at(t) for t in ts]
        if k == 1:
            return a[0]
        if k == 2:
            return 0.5 * comm(a[0], a[1])
        return (comm(a[0], comm(a[1], a[2])) - comm(a[2], comm(a[0], a[1]))) / 6.0

    expect = simplex_gauss(integrand, horizon, k)
    got = pm_eval(magnus_term(spec, k), x)
    assert np.abs(got - expect).max() <= 1e-12


def per_choice_integrand(a):
    """Order-k Magnus integrand at k fixed operators, four commutators a call."""

    def comm(p, q):
        return p @ q - q @ p

    if len(a) == 1:
        return a[0]
    if len(a) == 2:
        return 0.5 * comm(a[0], a[1])
    return (1.0 / 6.0) * (comm(a[0], comm(a[1], a[2])) - comm(a[2], comm(a[0], a[1])))


def per_choice_lie(ops, choice):
    """A choice's Lie element with every nested commutator formed afresh."""
    return per_choice_integrand([ops[c] for c in choice])


def old_memo_lie():
    """A choice's Lie element as formed from a memo of every right-nested
    commutator, the vanishing ones included: 2 products per distinct word."""
    memo = {}

    def nested(ops, word):
        if word not in memo:
            if len(word) == 1:
                memo[word] = ops[word[0]]
            else:
                p, q = ops[word[0]], nested(ops, word[1:])
                memo[word] = p @ q - q @ p
        return memo[word]

    def lie_of(ops, choice):
        lie = nested(ops, choice)
        if len(choice) == 2:
            return 0.5 * lie
        if len(choice) == 3:
            c1, c2, c3 = choice
            return (1.0 / 6.0) * (lie - nested(ops, (c3, c1, c2)))
        return lie

    return lie_of


def magnus_term_reference(spec, k, lie_of):
    """magnus_term with each choice's Lie element from ``lie_of(ops, choice)``,
    skipped when it has no nonzero entry."""
    ops = (-1j * spec.h0, -1j * spec.hc)
    coeffs = {}
    for choice in itertools.product((0, 1), repeat=k):
        lie = lie_of(ops, choice)
        if not lie.any():
            continue
        weights = {}
        for powers in itertools.product(range(spec.m), repeat=sum(choice)):
            it = iter(powers)
            power, denom = _simplex_weight(tuple(next(it) if c else 0 for c in choice))
            e = tuple(powers.count(i) for i in range(spec.m))
            weights[e] = weights.get(e, 0j) + spec.horizon**power / denom
        for e, w in weights.items():
            coeffs[e] = coeffs[e] + w * lie if e in coeffs else w * lie
    return PolyMatrix(spec.m, spec.dim, coeffs).coeffs


@pytest.mark.parametrize("system", ["ibmq3", "ising3"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_term_commutators_memoised_bit_identical(system, m, k):
    # one commutator per distinct operand choice gives the same bytes, in the
    # same key order, as four commutators for every choice
    pair = ibmq3() if system == "ibmq3" else build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(m))
    want = magnus_term_reference(spec, k, per_choice_lie)
    got = magnus_term(spec, k).coeffs
    assert list(got) == list(want)
    for e, c in want.items():
        assert got[e].tobytes() == c.tobytes()


class MatmulCount(np.ndarray):
    """An array that counts the matrix products it is the left factor of."""

    products = 0

    def __matmul__(self, other):
        MatmulCount.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("system", ["ibmq3", "ising3"])
def test_term_forms_each_nonzero_word_once(system, monkeypatch):
    # words ending in a repeated letter vanish and those ending in (Gc, G0)
    # negate a formed one, so order 2 forms [G0, Gc] and order 3 also
    # [G0, [G0, Gc]] and [Gc, [G0, Gc]]: 8 products for build_lambda(., 3),
    # where a memo of every word took 32; the coefficients keep their bytes
    pair = ibmq3() if system == "ibmq3" else build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3))
    counted = copy.copy(spec)
    for name in ("h0", "hc"):
        object.__setattr__(counted, name, getattr(spec, name).view(MatmulCount))
    monkeypatch.setattr(MatmulCount, "products", 0)
    build_lambda(counted, 3)
    assert MatmulCount.products == 8
    for k in (1, 2, 3):
        want = magnus_term_reference(spec, k, old_memo_lie())
        got = magnus_term(spec, k).coeffs
        assert list(got) == list(want)
        for e, c in want.items():
            assert got[e].tobytes() == c.tobytes()


def test_degree_bounds():
    spec = ibmq_spec(m=3)
    for k in (1, 2, 3):
        assert magnus_term(spec, k).max_entry_degree() <= k


def test_magnus_rejects_order_4():
    with pytest.raises(ValueError):
        magnus_term(ibmq_spec(), 4)


# -- assembled truncations -----------------------------------------------------------


def test_lambda1_constant_control():
    spec = ibmq_spec(horizon=0.5, m=1)
    lam = build_lambda(spec, 1)
    x = np.array([0.7])
    expect = -1j * 0.5 * (np.asarray(spec.h0) + 0.7 * np.asarray(spec.hc))
    assert np.allclose(pm_eval(lam, x), expect, atol=1e-13)


def test_lambda3_constant_control_collapses():
    spec = ibmq_spec(horizon=0.5, m=1)
    lam = build_lambda(spec, 3)
    x = np.array([-0.4])
    expect = -1j * 0.5 * (np.asarray(spec.h0) - 0.4 * np.asarray(spec.hc))
    assert np.allclose(pm_eval(lam, x), expect, atol=1e-13)


def test_lambda_antihermitian_at_random_points():
    spec = ibmq_spec(horizon=0.5, m=3)
    for n in (1, 2, 3):
        lam = build_lambda(spec, n)
        for _ in range(100):
            x = RNG.uniform(-1, 1, size=3)
            g = pm_eval(lam, x)
            assert np.linalg.norm(g + g.conj().T) < 1e-12


def test_lambda_degree_bound():
    spec = ibmq_spec(m=3)
    for n in (1, 2, 3):
        assert build_lambda(spec, n).max_entry_degree() <= n


def test_lambda3_defect_fourth_order_under_compression():
    # halving the horizon with the envelope shape compressed onto it rescales
    # every series term by 2^-k, so the truncation defect shrinks by ~16x
    sys = ibmq3()
    ratios = []
    trials = 0
    while len(ratios) < 5 and trials < 50:
        trials += 1
        x = 0.5 * RNG.uniform(-1, 1, size=3)
        spec_a = ProblemSpec(sys.h0, sys.hc, 0.25, PolyControl(3))
        if action_integral(spec_a, x) > 0.5:
            continue
        defects = []
        for half in (0, 1):
            horizon = 0.25 / 2**half
            xs = x * 2.0 ** (half * np.arange(3))
            spec = ProblemSpec(sys.h0, sys.hc, horizon, PolyControl(3))
            lam = pm_eval(build_lambda(spec, 3), xs)
            log_u = principal_log(propagate_reference(spec, xs))
            defects.append(np.linalg.norm(lam - log_u))
        if defects[1] < 1e-14:
            continue
        ratios.append(defects[0] / defects[1])
    assert len(ratios) == 5
    for r in ratios:
        assert 12.0 < r < 20.0


def test_lambda3_defect_fifth_order_at_fixed_controls():
    # at fixed x the innermost commutator [A(t),A(s)] carries a factor
    # E(t)-E(s) = O(T), so the first neglected term scales as T^5 and plain
    # horizon halving shrinks the defect by ~32x, not 16x
    sys = ibmq3()
    x = np.array([0.3, -0.25, 0.15])
    defects = []
    for horizon in (0.25, 0.125, 0.0625):
        spec = ProblemSpec(sys.h0, sys.hc, horizon, PolyControl(3))
        lam = pm_eval(build_lambda(spec, 3), x)
        log_u = principal_log(propagate_reference(spec, x))
        defects.append(np.linalg.norm(lam - log_u))
    r1 = defects[0] / defects[1]
    r2 = defects[1] / defects[2]
    assert 22.0 < r1 < 45.0
    assert 22.0 < r2 < 45.0


def test_lambda_rejects_piecewise():
    sys = ibmq3()
    spec = ProblemSpec(sys.h0, sys.hc, 0.5, PiecewiseControl(2))
    with pytest.raises(ValueError):
        build_lambda(spec, 2)


def test_lambda_rejects_bad_order():
    with pytest.raises(ValueError):
        build_lambda(ibmq_spec(), 0)
    with pytest.raises(ValueError):
        build_lambda(ibmq_spec(), 4)


def test_lambda_rejects_horizon_whose_weight_overflows():
    # the order-3 weights reach T^7 at m = 3, past the float range at T = 1e50;
    # the order-1 weights stop at T^3 and still fit
    spec = ibmq_spec(horizon=1e50)
    with pytest.raises(ValueError, match="horizon 1e\\+50 overflows a float at power 7"):
        build_lambda(spec, 3)
    assert np.isfinite(build_lambda(spec, 1).coeffs[(0, 0, 1)]).all()
