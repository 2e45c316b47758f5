"""Tests for the sparse polynomial / polynomial-matrix layer."""

import math
import operator

import mpmath
import numpy as np
import pytest
from scipy import integrate

from gatesynth.bch import build_sigma
from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import (
    PiecewiseControl,
    PolyControl,
    ProblemSpec,
    _simplex_weight,
    build_lambda,
    magnus_term,
)
from gatesynth.objective import build_objective
from gatesynth.polymat import (
    Polynomial,
    PolyMatrix,
    Ring,
    _product,
    frobenius_sq,
    grlex_key,
    pm_commutator,
    pm_eval,
)

RNG = np.random.default_rng(20260816)


def random_poly(ring, max_terms=6, max_deg=3):
    terms = {}
    for _ in range(RNG.integers(1, max_terms + 1)):
        e = tuple(int(v) for v in RNG.integers(0, max_deg + 1, size=ring.controls))
        terms[e] = terms.get(e, 0) + RNG.normal()
    return Polynomial(ring, terms)


def random_pm(ring, dim, max_terms=4, max_deg=2):
    coeffs = {}
    for _ in range(max_terms):
        e = tuple(int(v) for v in RNG.integers(0, max_deg + 1, size=ring.controls))
        m = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
        coeffs[e] = coeffs.get(e, 0) + m
    return PolyMatrix(ring, dim, coeffs)


# -- scalar polynomial basics ------------------------------------------------


def test_add_merges_like_terms():
    ring = Ring(2)
    p = Polynomial(ring, {(1, 0): 2.0, (0, 1): 1.0})
    q = Polynomial(ring, {(1, 0): 3.0, (0, 0): -1.0})
    s = p + q
    assert s.terms == {(1, 0): 5.0, (0, 1): 1.0, (0, 0): -1.0}


def test_add_cancels_to_zero():
    ring = Ring(1)
    p = Polynomial(ring, {(2,): 1.5})
    assert (p + (-p)).is_zero()


def test_mul_univariate():
    ring = Ring(1)
    p = Polynomial(ring, {(1,): 1.0, (0,): 1.0})  # x + 1
    q = Polynomial(ring, {(1,): 1.0, (0,): -1.0})  # x - 1
    assert (p * q).terms == {(2,): 1.0, (0,): -1.0}


def test_mul_cross_terms():
    ring = Ring(2)
    p = Polynomial(ring, {(1, 0): 1.0})  # x0
    q = Polynomial(ring, {(0, 1): 2.0, (0, 0): 1.0})  # 2 x1 + 1
    assert (p * q).terms == {(1, 1): 2.0, (1, 0): 1.0}


def test_scalar_ops():
    ring = Ring(1)
    p = Polynomial(ring, {(1,): 2.0})
    assert (3 * p).terms == {(1,): 6.0}
    assert (p + 1).terms == {(1,): 2.0, (0,): 1.0}
    assert (1 - p).terms == {(1,): -2.0, (0,): 1.0}


def test_prune_small_coefficients():
    ring = Ring(1)
    p = Polynomial(ring, {(1,): 1e-15})
    assert p.is_zero()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, -math.inf)])
def test_nonfinite_coefficient_raises(bad):
    # a NaN fails the magnitude test of pruning, so it must be caught first;
    # a complex value is only a PolyMatrix coefficient
    entries = [bad]
    if not isinstance(bad, complex):
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial(Ring(1), {(1,): bad})
        entries.append(complex(0.0, bad))
    for entry in entries:
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            PolyMatrix(Ring(1), 2, {(0,): mat})


@pytest.mark.parametrize("coeff", [1j, np.complex128(1), complex(2.0, 0.0)])
def test_complex_coefficient_raises(coeff):
    # an imaginary part is never dropped, not even a zero one
    with pytest.raises(ValueError, match=r"of \(1,\) is not real"):
        Polynomial(Ring(1), {(1,): coeff})


def test_complex_scalar_raises():
    p = Polynomial(Ring(1), {(1,): 2.0})
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, 1j)
        with pytest.raises(TypeError):
            op(1j, p)


def test_numpy_real_scalars_stored_as_float():
    ring = Ring(1)
    p = Polynomial(ring, {(1,): np.float64(2.5), (0,): np.int64(3)})
    q = p * np.float32(2.0) + np.int32(1)
    for poly in (p, q):
        assert all(type(c) is float for c in poly.terms.values())
    assert q.terms == {(1,): 5.0, (0,): 7.0}
    assert type(p.eval([1.0])) is float


def test_eval_simple():
    ring = Ring(2)
    p = Polynomial(ring, {(2, 0): 1.0, (0, 1): -3.0, (0, 0): 0.5})
    val = p.eval([2.0, 1.0])
    assert val == pytest.approx(4.0 - 3.0 + 0.5)


def test_eval_extended_precision_oracle():
    # evaluate a moderately large random polynomial against mpmath at 50 digits
    ring = Ring(3)
    p = random_poly(ring, max_terms=12, max_deg=4)
    x = RNG.uniform(-1.3, 1.3, size=3)
    with mpmath.workdps(50):
        acc = mpmath.mpf(0)
        for e, c in p.terms.items():
            term = mpmath.mpf(c)
            for xi, pw in zip(x, e):
                term *= mpmath.mpf(xi) ** pw
            acc += term
        expected = float(acc)
    assert p.eval(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_eval_many_matches_eval():
    ring = Ring(2)
    p = random_poly(ring, max_terms=8, max_deg=3)
    pts = RNG.uniform(-2, 2, size=(40, 2))
    vals = p.eval_many(pts)
    for k in range(40):
        assert vals[k] == pytest.approx(p.eval(pts[k]), rel=1e-12, abs=1e-12)


def test_monomial_table_is_graded_downward_closure():
    ring = Ring(2)
    p = Polynomial(ring, {(2, 1): 3.0, (0, 3): -1.0, (0, 0): 0.5})
    table = p.monomial_table()
    assert p.monomial_table() is table
    closure = {(a, b) for ea, eb in p.terms for a in range(ea + 1) for b in range(eb + 1)}
    assert table.exponents == tuple(sorted(closure, key=grlex_key))
    rows = dict(zip(table.exponents, table.coeffs))
    assert {e: c for e, c in rows.items() if c} == p.terms
    assert not table.coeffs.flags.writeable


def test_eval_many_chunks_match_eval():
    # 84 rows take 780 points per chunk, so 2000 points span three chunks
    ring = Ring(3)
    rng = np.random.default_rng(5)
    terms = {e: rng.normal() for e in map(tuple, np.ndindex(7, 7, 7)) if sum(e) <= 6}
    p = Polynomial(ring, terms)
    pts = rng.uniform(-1.2, 1.2, size=(2000, 3))
    vals = p.eval_many(pts)
    assert len(p.monomial_table().coeffs) == 84
    for k in range(0, 2000, 7):
        assert vals[k] == pytest.approx(p.eval(pts[k]), rel=1e-12, abs=1e-12)


def test_eval_zero_and_arity_zero():
    assert Polynomial.zero(Ring(2)).eval([0.3, -1.0]) == 0.0
    c = Polynomial.constant(Ring(0), 2.5)
    assert c.eval([]) == 2.5
    np.testing.assert_array_equal(c.eval_many(np.zeros((3, 0))), [2.5, 2.5, 2.5])
    value, grad, hess = Polynomial.constant(Ring(2), 2.5).jet([1.0, 2.0])
    assert value == 2.5 and not grad.any() and not hess.any()


def test_diff_formal():
    ring = Ring(2)
    p = Polynomial(ring, {(3, 1): 2.0, (0, 2): 1.0, (0, 0): 7.0})
    dx0 = p.diff(0)
    assert dx0.terms == {(2, 1): 6.0}
    dx1 = p.diff(1)
    assert dx1.terms == {(3, 0): 2.0, (0, 1): 2.0}


def test_ring_mismatch_raises():
    p = Polynomial(Ring(1), {(1,): 1.0})
    q = Polynomial(Ring(2), {(1, 0): 1.0})
    with pytest.raises(ValueError):
        _ = p + q


def test_ring_laws_random():
    ring = Ring(3)
    for _ in range(25):
        a = random_poly(ring)
        b = random_poly(ring)
        c = random_poly(ring)
        assert (a + b).isclose(b + a)
        assert ((a + b) + c).isclose(a + (b + c))
        assert (a * b).isclose(b * a)
        assert ((a * b) * c).isclose(a * (b * c), tol=1e-9)
        assert (a * (b + c)).isclose(a * b + a * c, tol=1e-10)


def test_degree_and_constant():
    ring = Ring(2)
    p = Polynomial(ring, {(2, 1): 1.0, (0, 0): 4.0})
    assert p.degree() == 3
    assert p.constant_term() == 4.0
    assert Polynomial.zero(ring).degree() == 0


# -- matrix layer --------------------------------------------------------------


def test_pm_constant_product_matches_numpy():
    ring = Ring(1)
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    pa = PolyMatrix.constant(ring, a)
    pb = PolyMatrix.constant(ring, b)
    prod = pa @ pb
    assert np.allclose(prod.coeffs[(0,)], a @ b)


def test_pm_mul_matches_entrywise_convolution():
    # scalar oracle: convolve the coefficients of each entry product by hand
    ring = Ring(2)
    a = random_pm(ring, 2, max_terms=3, max_deg=2)
    b = random_pm(ring, 2, max_terms=3, max_deg=2)
    prod = a @ b
    expect = {}
    for ea, ma in a.coeffs.items():
        for eb, mb in b.coeffs.items():
            e = tuple(u + v for u, v in zip(ea, eb))
            acc = expect.setdefault(e, np.zeros((2, 2), dtype=complex))
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        acc[i, j] += ma[i, k] * mb[k, j]
    assert set(prod.coeffs) <= set(expect)
    for e, m in expect.items():
        np.testing.assert_allclose(prod.coeffs.get(e, 0), m, rtol=1e-12, atol=1e-12)


def test_pm_mul_matches_pointwise_product():
    # oracle independent of _product: a polynomial product evaluates to the
    # product of the evaluated matrices
    ring = Ring(2)
    a = random_pm(ring, 2, max_terms=3, max_deg=2)
    b = random_pm(ring, 2, max_terms=3, max_deg=2)
    prod = a @ b
    for x in RNG.uniform(-1.5, 1.5, size=(10, 2)):
        np.testing.assert_allclose(prod.eval(x), a.eval(x) @ b.eval(x), rtol=1e-12, atol=1e-12)


def test_pm_eval_matches_entry_eval():
    # each entry is the scalar polynomial sum_e x^e M_e[i, j], evaluated here
    ring = Ring(2)
    pm = random_pm(ring, 3)
    x = RNG.uniform(-1, 1, size=2)
    dense = pm_eval(pm, x)
    for i in range(3):
        for j in range(3):
            entry = sum(x[0] ** e[0] * x[1] ** e[1] * m[i, j] for e, m in pm.coeffs.items())
            assert dense[i, j] == pytest.approx(entry, abs=1e-12)


def test_pm_commutator_antisymmetric_and_numeric():
    ring = Ring(1)
    a = random_pm(ring, 3, max_terms=2, max_deg=1)
    b = random_pm(ring, 3, max_terms=2, max_deg=1)
    c = pm_commutator(a, b)
    c2 = pm_commutator(b, a)
    x = np.array([0.7])
    av, bv = a.eval(x), b.eval(x)
    assert np.allclose(c.eval(x), av @ bv - bv @ av)
    assert np.allclose(c.eval(x), -c2.eval(x))


def test_pm_commutator_of_constants():
    ring = Ring(1)
    h0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    hc = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    c = pm_commutator(PolyMatrix.constant(ring, h0), PolyMatrix.constant(ring, hc))
    assert np.allclose(c.coeffs[(0,)], h0 @ hc - hc @ h0)


def test_pm_dimension_mismatch():
    ring = Ring(1)
    a = PolyMatrix.identity(ring, 2)
    b = PolyMatrix.identity(ring, 3)
    with pytest.raises(ValueError):
        _ = a @ b


def same_bytes(a: PolyMatrix, b: PolyMatrix) -> bool:
    """Equal exponents in equal order, with byte-identical coefficients."""
    return list(a.coeffs) == list(b.coeffs) and all(
        ma.tobytes() == mb.tobytes() for ma, mb in zip(a.coeffs.values(), b.coeffs.values())
    )


def awkward_pm(ring, dim):
    """Coefficients with entries below PRUNE_EPS, signed zeros and a tiny term."""
    pm = random_pm(ring, dim)
    coeffs = dict(pm.coeffs)
    first = next(iter(coeffs))
    m = coeffs[first].copy()
    m[0, 0] = 3e-15 - 2e-15j
    m[0, 1] = complex(-0.0, 1.5)
    m[1, 0] = complex(2.0, -0.0)
    coeffs[first] = m
    coeffs[(dim,) * ring.controls] = np.full((dim, dim), 1e-15 + 0j)
    return PolyMatrix(ring, dim, coeffs)


def test_arithmetic_matches_validating_constructor():
    # every result is what the public constructor makes of the same term map
    ring, dim = Ring(2), 3
    a, b = awkward_pm(ring, dim), awkward_pm(ring, dim)
    # a and b share one coefficient exactly, so a - b cancels there; at
    # (0, 0) b is exactly zero where a holds a -0.0 beside a nonzero part
    shared = next(e for e in a.coeffs if e != (0, 0))
    signed, zero = np.ones((dim, dim), complex), np.ones((dim, dim), complex)
    signed[0, 1], zero[0, 1] = complex(-0.0, 1.5), 0.0
    a = PolyMatrix(ring, dim, {**a.coeffs, (0, 0): signed})
    b = PolyMatrix(ring, dim, {**b.coeffs, shared: a.coeffs[shared], (0, 0): zero})

    def public(terms):
        return PolyMatrix(ring, dim, terms)

    def summed(x, y):
        merged = dict(x.coeffs)
        for e, m in y.coeffs.items():
            merged[e] = merged[e] + m if e in merged else m
        return public(merged)

    negated = public({e: -m for e, m in b.coeffs.items()})
    cases = {
        "add": (a + b, summed(a, b)),
        "neg": (-b, negated),
        "sub": (a - b, summed(a, negated)),
        "matmul": (a @ b, public(_product(a.coeffs, b.coeffs, operator.matmul))),
        "scale": (a.scale(0.3 - 1e-16j), public({e: (0.3 - 1e-16j) * m for e, m in a.coeffs.items()})),
        "commutator": (pm_commutator(a, b), summed(a @ b, -(b @ a))),
    }
    assert shared not in (a - b).coeffs
    for name, (fast, reference) in cases.items():
        assert same_bytes(fast, reference), name
        assert same_bytes(fast, PolyMatrix(ring, dim, fast.coeffs)), name


@pytest.mark.parametrize("qubits, m", [(2, 3), (3, 5), (5, 2)])
def test_builds_match_validating_constructor(monkeypatch, qubits, m):
    pair = build_ising(qubits)
    poly = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(m))
    piecewise = ProblemSpec(pair.h0, pair.hc, 0.5, PiecewiseControl(m))
    omega = pm_eval(build_lambda(poly, 3), RNG.uniform(-1, 1, m))
    fast = [build_lambda(poly, 3), build_sigma(piecewise, 4)]
    fast_obj = build_objective(fast[0], omega)
    # the same builds with every arithmetic result through the public constructor
    monkeypatch.setattr(
        PolyMatrix, "_adopt", classmethod(lambda cls, ring, dim, coeffs: cls(ring, dim, coeffs))
    )
    slow = [build_lambda(poly, 3), build_sigma(piecewise, 4)]
    slow_obj = build_objective(slow[0], omega)
    for f, s in zip(fast, slow):
        assert same_bytes(f, s)
    assert list(fast_obj.terms.items()) == list(slow_obj.terms.items())


def test_results_read_only_and_never_alias_caller_arrays():
    ring, dim = Ring(1), 3
    mats = [RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim)) for _ in range(2)]
    a = PolyMatrix(ring, dim, {(0,): mats[0], (1,): mats[1]})
    b = PolyMatrix(ring, dim, {(2,): mats[1]})
    results = [a, b, a + b, a - b, -a, a @ b, a.scale(2.0), pm_commutator(a, b)]
    pair = ibmq3()
    results.append(magnus_term(ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(2)), 3))
    for r in results:
        for m in r.coeffs.values():
            assert not m.flags.writeable
            assert not any(np.shares_memory(m, caller) for caller in mats)
    saved = a.coeffs[(0,)].copy()
    mats[0][:] = 0.0
    np.testing.assert_array_equal(a.coeffs[(0,)], saved)


def test_results_share_unchanged_operand_coefficients():
    ring, dim = Ring(1), 2
    a = PolyMatrix(ring, dim, {(0,): np.eye(dim), (1,): np.ones((dim, dim))})
    b = PolyMatrix(ring, dim, {(1,): np.eye(dim), (2,): np.ones((dim, dim))})
    total = a + b
    assert total.coeffs[(0,)] is a.coeffs[(0,)]
    assert total.coeffs[(2,)] is b.coeffs[(2,)]
    assert not np.shares_memory(total.coeffs[(1,)], a.coeffs[(1,)])
    assert (a - b).coeffs[(0,)] is a.coeffs[(0,)]


def test_sorted_coeffs_computed_once_in_grlex_order():
    # scalar polynomials keep their order in the monomial table
    # (test_monomial_table_is_graded_downward_closure)
    ring = Ring(2)
    random_poly(ring, max_terms=8)  # keeps the draws of the tests below
    pm = random_pm(ring, 2)
    assert pm.sorted_coeffs() is pm.sorted_coeffs()
    assert [e for e, _ in pm.sorted_coeffs()] == sorted(pm.coeffs, key=grlex_key)


# -- ordered simplex integration ----------------------------------------------


def simplex_integral(time_exps, horizon):
    """Integral of t1^a1 ... tk^ak over 0 <= tk <= ... <= t1 <= horizon."""
    power, denom = _simplex_weight(time_exps)
    return horizon**power / denom


def test_simplex_constant_one_time_slot():
    # integral of 1 over 0 <= t1 <= T is T
    assert _simplex_weight((0,)) == (1, 1)
    assert simplex_integral((0,), 2.0) == 2.0


def test_simplex_constant_two_slots():
    # volume of the ordered triangle is T^2/2
    assert simplex_integral((0, 0), 3.0) == pytest.approx(9.0 / 2.0)


def test_simplex_constant_three_slots():
    assert simplex_integral((0, 0, 0), 2.0) == pytest.approx(8.0 / 6.0)


def test_simplex_t1_over_triangle():
    # integral of t1 over the ordered triangle: T^3/3
    assert simplex_integral((1, 0), 1.5) == pytest.approx(1.5**3 / 3.0)


def test_simplex_monomial_against_quadrature():
    # t1^2 * t2 over 0 <= t2 <= t1 <= T, nested scipy quadrature oracle
    horizon = 1.7
    oracle, _ = integrate.dblquad(
        lambda t2, t1: t1**2 * t2, 0, horizon, 0, lambda t1: t1
    )
    assert simplex_integral((2, 1), horizon) == pytest.approx(oracle, rel=1e-10)


def test_simplex_three_slot_monomial_quadrature():
    # t1 * t3^2 over the ordered 3-simplex
    horizon = 1.2
    oracle, _ = integrate.tplquad(
        lambda t3, t2, t1: t1 * t3**2,
        0,
        horizon,
        0,
        lambda t1: t1,
        0,
        lambda t1, t2: t2,
    )
    assert simplex_integral((1, 0, 2), horizon) == pytest.approx(oracle, rel=1e-9)


def test_simplex_keeps_control_exponents():
    # order 1: the integral of E(t1) Gc = sum_i x_i t1^i Gc puts the weight
    # T^(i+1)/(i+1) of power i on the monomial x_i
    pair = ibmq3()
    horizon = 2.0
    term = magnus_term(ProblemSpec(pair.h0, pair.hc, horizon, PolyControl(3)), 1)
    gc = -1j * np.asarray(pair.hc)
    assert set(term.coeffs) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for i in range(3):
        e = tuple(int(j == i) for j in range(3))
        assert np.allclose(term.coeffs[e], horizon ** (i + 1) / (i + 1) * gc)


# -- squared Frobenius norm -----------------------------------------------------


def test_frobenius_constant_matrix():
    ring = Ring(1)
    m = np.array([[1.0, 2.0], [0.0, 1j]])
    p = frobenius_sq(PolyMatrix.constant(ring, m))
    assert p.terms == {(0,): pytest.approx(6.0)}


def test_frobenius_matches_numeric_scan():
    ring = Ring(2)
    pm = random_pm(ring, 3, max_terms=4, max_deg=2)
    p = frobenius_sq(pm)
    for _ in range(30):
        x = RNG.uniform(-1.5, 1.5, size=2)
        dense = pm.eval(x)
        expected = float(np.linalg.norm(dense, "fro") ** 2)
        got = sum(c * x[0] ** e[0] * x[1] ** e[1] for e, c in p.terms.items())
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_frobenius_output_exactly_real():
    ring = Ring(2)
    pm = random_pm(ring, 4, max_terms=6, max_deg=3)
    p = frobenius_sq(pm)
    assert p.terms and all(type(c) is float for c in p.terms.values())


def test_frobenius_degree_doubles():
    ring = Ring(1)
    pm = random_pm(ring, 2, max_terms=3, max_deg=3)
    assert frobenius_sq(pm).degree() <= 2 * pm.max_entry_degree()


def test_frobenius_nonnegative_on_scan():
    ring = Ring(2)
    pm = random_pm(ring, 2)
    p = frobenius_sq(pm)
    pts = RNG.uniform(-2, 2, size=(200, 2))
    vals = p.eval_many(pts)
    assert vals.dtype == np.float64
    assert np.all(vals >= -1e-12)


def test_frobenius_zero_matrix():
    p = frobenius_sq(PolyMatrix.zero(Ring(1), 2))
    assert p.is_zero()
