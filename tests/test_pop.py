"""Tests for the moment relaxation pipeline and the embedded SDP solver."""

import functools
import math
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import gatesynth
from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec, build_lambda
from gatesynth.numerics import expm_antihermitian
from gatesynth.objective import build_objective, principal_log
from gatesynth.polymat import Polynomial, pm_eval
from gatesynth.pop import (
    SDPProblem,
    ball_scan_minimum,
    minimize_global,
    moment_relax,
    newton_polish,
    relaxation_setup,
    sdp_solve,
)
from gatesynth.pop import minimize as minimize_mod
from gatesynth.pop import polish as polish_mod
from gatesynth.pop import relax as relax_mod
from gatesynth.pop import sdp as sdp_mod
from gatesynth.pop.minimize import GAP_TOL
from gatesynth.pop.polish import GRAD_TOL, kkt_residual
from gatesynth.pop.relax import monomials_up_to
from gatesynth.workbench.targets import gen_target, trial_rng


def planted_instance(seed, m=3, horizon=1.0, order=3):
    sys_ = ibmq3()
    spec = ProblemSpec(sys_.h0, sys_.hc, horizon, PolyControl(m), label="ibmq3")
    lam = build_lambda(spec, order)
    rng = np.random.default_rng(seed)
    xstar = rng.uniform(-1, 1, m)
    generator = principal_log(expm_antihermitian(pm_eval(lam, xstar)))
    return build_objective(lam, generator), xstar


# ---------------------------------------------------------------- sdp_solve


def csr_rows(stack):
    """A constraint block from a (p, s, s) stack: row i holds matrix i in
    row-major order."""
    stack = np.asarray(stack, dtype=float)
    p, s, _ = stack.shape
    return sparse.csr_array(stack.reshape(p, s * s))


def sdp_psd_boundary_2x2():
    # min x subject to [[x,1],[1,x]] PSD has optimum x = 1
    c = (np.array([[1.0, 0.0], [0.0, 0.0]]),)
    a = (csr_rows([[[0.0, 0.5], [0.5, 0.0]], np.diag([1.0, -1.0])]),)
    return SDPProblem((2,), c, a, np.array([1.0, 0.0]))


def sdp_identity_cost_3x3():
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    return SDPProblem((3,), (np.eye(3),), (csr_rows([e11]),), np.array([1.0]))


def sdp_block_structure():
    # two independent blocks solved jointly: min x+y with x,y >= 1 on diagonals
    c = (np.eye(1), np.eye(1))
    a = (csr_rows([[[1.0]], [[0.0]]]), csr_rows([[[0.0]], [[1.0]]]))
    return SDPProblem((1, 1), c, a, np.array([1.0, 2.0]))


def kernel_blocks(sizes, stacks):
    """Constraint blocks as SDPProblem validates and symmetrises them, for
    the kernel tests, but without its block-0 rule: rows may share cells."""
    p = len(stacks[0])
    a_blocks = []
    for s, a in zip(sizes, stacks):
        rows = csr_rows(a)
        at = rows[:, np.arange(s * s).reshape(s, s).T.ravel()]
        a_blocks.append(sparse.csr_array(0.5 * (rows + at)))
    return types.SimpleNamespace(block_sizes=tuple(sizes), a_blocks=tuple(a_blocks),
                                 n_constraints=p)


def sdp_duplicated_constraint():
    # the same constraint written twice (A2 = 2 A1): both rows hold cell
    # (0, 0) of block 0, which SDPProblem rejects and the kernels must handle
    e00 = np.diag([1.0, 0.0])
    return kernel_blocks((2,), (np.stack([e00, 2.0 * e00]),))


def certify_ising_relaxation():
    # the order-2 relaxation of the certify-ising instance N=3, m=5
    pair = build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(5), label=pair.label)
    lam = build_lambda(spec, 3)
    xstar = np.random.default_rng([0, 1]).uniform(-1, 1, 5)
    obj = build_objective(lam, pm_eval(lam, xstar))
    scaled, _, radius, order = relaxation_setup(obj)
    return moment_relax(scaled, radius, order)[0]


def test_sdp_psd_boundary_2x2():
    sol = sdp_solve(sdp_psd_boundary_2x2())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-6
    assert abs(sol.dual_value - 1.0) < 1e-6


@pytest.mark.parametrize("make", [certify_ising_relaxation, sdp_psd_boundary_2x2])
def test_sdp_reported_values_belong_to_returned_iterate(make):
    # the values, gap and residuals are those of x_blocks, y and z_blocks,
    # recomputed here from the problem's public blocks
    prob = make()
    sol = sdp_solve(prob)
    pv, dv = sol.primal_value, sol.dual_value
    assert pv == sum(float(np.vdot(c, x)) for c, x in zip(prob.c_blocks, sol.x_blocks))
    assert dv == pytest.approx(prob.b @ sol.y, rel=1e-12)
    assert sol.gap == abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
    rp = prob.b - sum(a @ x.ravel() for a, x in zip(prob.a_blocks, sol.x_blocks))
    b_norm = np.linalg.norm(prob.b)
    assert abs(sol.primal_residual - np.linalg.norm(rp)) <= 1e-12 * (1.0 + b_norm)
    rd = max(np.linalg.norm(c - z - (a.T @ sol.y).reshape(c.shape))
             for c, z, a in zip(prob.c_blocks, sol.z_blocks, prob.a_blocks))
    c_norm = max(np.linalg.norm(c) for c in prob.c_blocks)
    assert abs(sol.dual_residual - rd) <= 1e-12 * (1.0 + c_norm)


def test_sdp_identity_cost_3x3():
    sol = sdp_solve(sdp_identity_cost_3x3())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-6
    x = sol.x_blocks[0]
    assert abs(x[0, 0] - 1.0) < 1e-6
    assert np.abs(x[1:, 1:]).max() < 1e-6


def test_sdp_rejects_zero_constraint():
    z = csr_rows(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="identically zero"):
        SDPProblem((2,), (np.eye(2),), (z,), np.array([0.0]))


def test_sdp_rejects_no_constraints():
    with pytest.raises(ValueError):
        SDPProblem((2,), (np.eye(2),), (csr_rows(np.zeros((0, 2, 2))),), np.zeros(0))


def test_sdp_validates_shapes():
    with pytest.raises(ValueError):
        SDPProblem((2,), (np.eye(3),), (csr_rows(np.zeros((1, 2, 2))),), np.array([1.0]))
    with pytest.raises(ValueError):
        SDPProblem(
            (2,),
            (np.array([[0.0, 1.0], [0.0, 0.0]]),),
            (csr_rows([np.eye(2)]),),
            np.array([1.0]),
        )
    # a block count that differs from block_sizes is rejected, whether the
    # extra blocks would be dropped or the missing ones looked up
    a, z = csr_rows([np.eye(2)]), csr_rows(np.zeros((1, 3, 3)))
    with pytest.raises(ValueError, match="per block size"):
        SDPProblem((2,), (np.eye(2), np.eye(3)), (a, z), np.array([1.0]))
    with pytest.raises(ValueError, match="per block size"):
        SDPProblem((2, 3), (np.eye(2),), (a,), np.array([1.0]))


@pytest.mark.parametrize("where", ["b", "cost", "csr_constraint"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sdp_rejects_non_finite_data(where, bad):
    # checked once at construction, so the solver never meets it
    c, a, b = np.eye(2), csr_rows([np.eye(2)]), np.array([1.0])
    if where == "b":
        b = np.array([bad])
    elif where == "cost":
        c = np.array([[1.0, 0.0], [0.0, bad]])
    else:
        a = csr_rows([[[1.0, 0.0], [0.0, bad]]])
    with pytest.raises(ValueError, match="non-finite"):
        SDPProblem((2,), (c,), (a,), b)


def test_sdp_block_structure():
    # constraint 2 has no entry in block 0, so no primal fix reaches it and
    # its residual falls with the steps alone
    sol = sdp_solve(sdp_block_structure())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 3.0) < 1e-6


def test_sdp_duplicated_constraint():
    # a cell of block 0 in two constraints is rejected when the problem is
    # built: the same constraint written twice, and two distinct rows that
    # share cell (0, 0)
    e00 = np.diag([1.0, 0.0])
    b = np.array([1.0, 2.0])
    for second in (2.0 * e00, np.eye(2)):
        with pytest.raises(ValueError, match="block 0"):
            SDPProblem((2,), (np.eye(2),), (csr_rows([e00, second]),), b)
    # rows may share cells of the other blocks
    prob = SDPProblem((1, 2), (np.eye(1), np.eye(2)),
                      (csr_rows([[[1.0]], [[0.0]]]), csr_rows([e00, np.eye(2)])), b)
    assert prob.n_constraints == 2


def test_sdp_keeps_symmetric_csr_rows():
    prob = sdp_psd_boundary_2x2()
    (a,) = prob.a_blocks
    assert sparse.issparse(a) and a.format == "csr" and a.shape == (2, 4)
    np.testing.assert_array_equal(a.toarray(), [[0, 0.5, 0.5, 0], [1, 0, 0, -1]])
    # validated blocks are taken again as they are; a row that is not a
    # symmetric pattern, or a block of the wrong shape, is rejected
    again = SDPProblem((2,), prob.c_blocks, prob.a_blocks, prob.b)
    np.testing.assert_array_equal(again.a_blocks[0].toarray(), a.toarray())
    skew = sparse.csr_array(np.array([[0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        SDPProblem((2,), (np.eye(2),), (skew,), np.array([1.0]))
    with pytest.raises(ValueError):
        SDPProblem((2,), (np.eye(2),), (sparse.csr_array((1, 9)),), np.array([1.0]))


SDP_OPERATOR_CASES = {
    "psd_boundary_2x2": sdp_psd_boundary_2x2,
    "identity_cost_3x3": sdp_identity_cost_3x3,
    "block_structure": sdp_block_structure,
    "duplicated_constraint": sdp_duplicated_constraint,
    "certify_ising_n3_m5": certify_ising_relaxation,
}


def dense_stacks(prob):
    """Reference (p, s, s) constraint stacks, built from the CSR rows."""
    p = prob.n_constraints
    return [a.toarray().reshape(p, s, s) for a, s in zip(prob.a_blocks, prob.block_sizes)]


def random_spd(rng, s):
    g = rng.standard_normal((s, s))
    return g @ g.T / s + np.eye(s)


def schur_assembler(prob, slabs):
    """The Schur assembler with an accumulator laid out as the solver lends
    it: the C-contiguous transpose of a Fortran-order (p, p) array."""
    p = prob.n_constraints
    return sdp_mod._schur_assembler(prob.a_blocks, slabs, np.empty((p, p), order="F").T)


def transposes(a_blocks):
    """The CSR transposes of constraint blocks, as the solver keeps them."""
    return [sparse.csr_array(a.T) for a in a_blocks]


def schur_slabs(prob):
    return [sdp_mod._schur_slabs(at) for at in transposes(prob.a_blocks)]


def assert_rel_close(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("slab_entries", [sdp_mod._SLAB_ENTRIES, 50])
@pytest.mark.parametrize("case", sorted(SDP_OPERATOR_CASES))
def test_sdp_operators_match_dense_reference(case, slab_entries, monkeypatch):
    # A(X), A*(y) and the Schur matrix sum_k <A_i, W_k A_j W_k> against
    # dense einsums; the small slab splits every block into several slabs
    monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", slab_entries)
    prob = SDP_OPERATOR_CASES[case]()
    rng = np.random.default_rng(5)
    stacks = dense_stacks(prob)
    xs = [random_spd(rng, s) for s in prob.block_sizes]
    ws = [random_spd(rng, s) for s in prob.block_sizes]
    y = rng.standard_normal(prob.n_constraints)

    want = sum(np.einsum("nij,ij->n", a, x) for a, x in zip(stacks, xs))
    assert_rel_close(sdp_mod._apply_forward(prob.a_blocks, xs), want)
    got = sdp_mod._apply_adjoint(transposes(prob.a_blocks), y)
    for g, a in zip(got, stacks):
        assert_rel_close(g, np.einsum("n,nij->ij", y, a))
    slabs = schur_slabs(prob)
    if slab_entries == 50:
        assert all(len(sl) > 1 for sl, s in zip(slabs, prob.block_sizes) if s > 7)
    want = sum(
        np.einsum("nij,mij->nm", a, np.einsum("ij,mjk,kl->mil", w, a, w, optimize=True))
        for a, w in zip(stacks, ws)
    )
    assert_rel_close(schur_assembler(prob, slabs)(ws), want)


@pytest.mark.parametrize("case", sorted(SDP_OPERATOR_CASES))
def test_sdp_operators_match_scipy_bytes(case):
    # A(X) on A_k and A*(y) on its CSR transpose add in the order of scipy's
    # csr_matvec and csc_matvec: the same bytes on the given blocks and on
    # the solver's normalised ones
    prob = SDP_OPERATOR_CASES[case]()
    rng = np.random.default_rng(10)
    y = rng.standard_normal(prob.n_constraints)
    normalised = sdp_mod._Operators(prob.a_blocks).a_blocks
    for a in (*prob.a_blocks, *normalised):
        s = math.isqrt(a.shape[1])
        x = rng.standard_normal((s, s))
        forward = sdp_mod._apply_forward([a], [x])
        assert forward.tobytes() == (a @ x.ravel()).tobytes()
        (adjoint,) = sdp_mod._apply_adjoint(transposes([a]), y)
        assert adjoint.shape == (s, s)
        assert adjoint.tobytes() == (a.T @ y).tobytes()


def column_slabs(a, s):
    """Schur slabs built from column slices of ``a.tocsc()``, the way the
    solver built them before it kept each block's CSR transpose."""
    width = max(1, sdp_mod._SLAB_ENTRIES // (s * s))
    cols = a.tocsc()
    slabs = []
    for lo in range(0, s * s, width):
        hi = min(lo + width, s * s)
        part = cols[:, lo:hi]
        rows = np.unique(part.indices)
        if rows.size:
            i, j = np.divmod(np.arange(lo, hi), s)
            slabs.append((i, j, rows, sparse.csr_array(part[rows])))
    return slabs


@pytest.mark.parametrize("slab_entries", [sdp_mod._SLAB_ENTRIES, 50])
@pytest.mark.parametrize("case", sorted(SDP_OPERATOR_CASES))
def test_schur_slabs_from_transpose_match_column_slices(case, slab_entries, monkeypatch):
    # row ranges of A^T give the slabs that column slices of A's CSC copy
    # gave, field by field: cells, constraints and the CSR submatrix's arrays
    monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", slab_entries)
    prob = SDP_OPERATOR_CASES[case]()
    normalised = sdp_mod._Operators(prob.a_blocks).a_blocks
    for a in (*prob.a_blocks, *normalised):
        got = sdp_mod._schur_slabs(sparse.csr_array(a.T))
        want = column_slabs(a, math.isqrt(a.shape[1]))
        assert len(got) == len(want)
        for (i, j, rows, sub), (wi, wj, wrows, wsub) in zip(got, want):
            for g, w in ((i, wi), (j, wj), (rows, wrows), (sub.indptr, wsub.indptr),
                         (sub.indices, wsub.indices), (sub.data, wsub.data)):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert sub.format == "csr" and sub.shape == wsub.shape


def max_step_one_matrix(eig, dm):
    """Largest alpha with m + alpha*dm PSD, from eig = eigh(m), one eigvalsh a call."""
    w, v = eig
    linv = v / np.sqrt(w)
    t = sdp_mod._sym(linv.T @ dm @ linv)
    lam = np.linalg.eigvalsh(t).min()
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def test_sdp_batched_step_lengths_match_one_matrix_calls():
    # one stacked eigvalsh per block gives the steps of one call per matrix
    rng = np.random.default_rng(11)
    sizes = (10, 4)
    for trial in range(20):
        x = [random_spd(rng, s) for s in sizes]
        z = [random_spd(rng, s) for s in sizes]
        # every few trials one side has no blocking direction
        dx = [np.eye(s) if trial % 3 == 0 else sdp_mod._sym(rng.standard_normal((s, s)))
              for s in sizes]
        dz = [sdp_mod._sym(rng.standard_normal((s, s))) * 3.0 for s in sizes]
        x_eig = [np.linalg.eigh(m) for m in x]
        z_eig = [np.linalg.eigh(m) for m in z]
        pairs = [(vx / np.sqrt(wx), vz / np.sqrt(wz))
                 for (wx, vx), (wz, vz) in zip(x_eig, z_eig)]
        ap = min(max_step_one_matrix(e, d) for e, d in zip(x_eig, dx))
        ad = min(max_step_one_matrix(e, d) for e, d in zip(z_eig, dz))
        want = (min(1.0, sdp_mod.STEP_FRACTION * ap), min(1.0, sdp_mod.STEP_FRACTION * ad))
        congruences = [np.empty((2, s, s)) for s in sizes]
        assert sdp_mod._step_lengths(pairs, dx, dz, congruences) == want


def test_sdp_cholesky_failure_stalls(monkeypatch):
    # a Schur matrix that dpotrf reports not positive definite ends the solve
    # as a stall, with the best iterate so far
    def not_positive_definite(a, **kwargs):
        return a, 1

    monkeypatch.setattr(sdp_mod.lapack, "dpotrf", not_positive_definite)
    sol = sdp_solve(sdp_psd_boundary_2x2())
    assert (sol.stop_reason, sol.iterations) == ("stall", 1)
    assert sol.status == "numerical_failure"


def failing_gufunc(gufunc, fail_at=None, matrix=None):
    """``gufunc`` that rejects NaN input and whose ``fail_at``-th call leaves
    NaN for one matrix of a stack (or for its one matrix), as a failed LAPACK
    solve does."""
    calls = []

    def run(a, **kwargs):
        assert not np.isnan(a).any(), "the solver computed on a failed eigensolve"
        out = gufunc(a, **kwargs)
        calls.append(None)
        if len(calls) == fail_at:
            for o in out if isinstance(out, tuple) else (out,):
                o[matrix if a.ndim == 3 else ...] = np.nan
        return out

    return run


@pytest.mark.parametrize("name, fail_at, matrix", [
    ("eigh_lo", 1, 0),       # X of the stacked (X, Z) eigh
    ("eigh_lo", 1, 1),       # Z of it
    ("eigh_lo", 2, None),    # the NT scaling core
    ("eigvalsh_lo", 1, 0),   # predictor primal step
    ("eigvalsh_lo", 2, 1),   # corrector dual step
])
def test_sdp_eigensolve_failure_stalls(name, fail_at, matrix, monkeypatch):
    # the LAPACK gufuncs return NaN where np.linalg raises LinAlgError; the
    # solve must raise it too and stall at once, never step on NaN
    real = sdp_mod._umath_linalg
    fake = types.SimpleNamespace(eigh_lo=failing_gufunc(real.eigh_lo),
                                 eigvalsh_lo=failing_gufunc(real.eigvalsh_lo))
    setattr(fake, name, failing_gufunc(getattr(real, name), fail_at, matrix))
    monkeypatch.setattr(sdp_mod, "_umath_linalg", fake)
    sol = sdp_solve(sdp_psd_boundary_2x2())
    assert (sol.stop_reason, sol.iterations) == ("stall", 1)
    assert sol.status == "numerical_failure"


def pinv_block0_fix(a0):
    """The block-0 fix A_0*((A_0 A_0^T)^+ defect), through a dense pseudo-inverse."""
    g_pinv = np.linalg.pinv((a0 @ a0.T).toarray(), hermitian=True)
    a0t = transposes([a0])
    return lambda defect: sdp_mod._apply_adjoint(a0t, g_pinv @ defect)[0]


def test_sdp_primal_fix_exact_in_moment_block():
    # the moment block carries every moment on disjoint cells, so A_0 A_0^T
    # is diagonal and the block-0 fix meets any defect; block 1 is left alone
    prob = certify_ising_relaxation()
    a0 = prob.a_blocks[0]
    gram = (a0 @ a0.T).toarray()
    np.testing.assert_array_equal(gram, np.diag(np.diag(gram)))
    defect = np.random.default_rng(6).standard_normal(prob.n_constraints)
    fix = sdp_mod._block0_fix(a0, *transposes([a0]))(defect)
    assert np.array_equal(fix, pinv_block0_fix(a0)(defect))
    s0, s1 = prob.block_sizes
    assert fix.shape == (s0, s0)
    np.testing.assert_array_equal(fix, fix.T)
    got = sdp_mod._apply_forward(prob.a_blocks, [fix, np.zeros((s1, s1))])
    assert np.linalg.norm(got - defect) <= 1e-13 * np.linalg.norm(defect)
    # a constraint with no block-0 entry gets no fix, as under the
    # pseudo-inverse: the second row of the block-structure problem
    a0 = sdp_block_structure().a_blocks[0]
    fix0 = sdp_mod._block0_fix(a0, *transposes([a0]))
    assert np.array_equal(fix0(np.array([0.0, 1.0])), np.zeros((1, 1)))
    defect = np.array([0.5, -3.0])
    assert np.array_equal(fix0(defect), [[0.5]])
    assert np.array_equal(fix0(defect), pinv_block0_fix(a0)(defect))


def sdp_dense_random():
    # every cell of both blocks is in all 6 constraints: no slab is skipped
    rng = np.random.default_rng(8)
    sizes, stacks = (5, 3), []
    for s in sizes:
        g = rng.standard_normal((6, s, s))
        stacks.append(g + g.transpose(0, 2, 1))
    return kernel_blocks(sizes, stacks)


def schur_allocating(a_blocks, slabs, w_blocks):
    """The Schur assembly with fresh arrays for every slab, in the same order."""
    p = a_blocks[0].shape[0]
    m = np.zeros((p, p))
    for a, block_slabs, w in zip(a_blocks, slabs, w_blocks):
        s = w.shape[0]
        for i, j, rows, sub in block_slabs:
            wi, wj = np.take(w, i, axis=1), np.take(w, j, axis=1)
            kron_cols = (wi[:, None, :] * wj[None, :, :]).reshape(s * s, i.size)
            m[rows] += sub @ (a @ kron_cols).T
    return 0.5 * (m + m.T)


def test_schur_buffers_reused_bit_identical(monkeypatch):
    # one assembler's buffers serve a whole solve; at 50 entries both blocks
    # end on a short slab, so each call writes a shorter prefix of the slab
    # buffer than the call before it.  At 25 chunk entries each slab's 6
    # rows are split into chunks of 4 and 2
    monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", 50)
    prob = sdp_dense_random()
    slabs = schur_slabs(prob)
    assert all(sl[-1][0].size < sl[0][0].size for sl in slabs)
    rng = np.random.default_rng(9)
    w1, w2 = ([random_spd(rng, s) for s in prob.block_sizes] for _ in range(2))
    for chunk_entries in (sdp_mod._CHUNK_ENTRIES, 25):
        monkeypatch.setattr(sdp_mod, "_CHUNK_ENTRIES", chunk_entries)
        shared = schur_assembler(prob, slabs)
        for ws in (w1, w2, w1):
            got = shared(ws).copy()
            assert np.array_equal(got, schur_assembler(prob, slabs)(ws))
            assert np.array_equal(got, schur_allocating(prob.a_blocks, slabs, ws))


def moment_relaxation(m, order):
    # min x0^(2 order) on the ball in m controls: the moment block takes
    # several Schur slabs at m=7, order 2 (s=36) and m=4, order 3 (s=35)
    x0_power = Polynomial(m, {(2 * order,) + (0,) * (m - 1): 1.0})
    return moment_relax(x0_power, 1.05 * np.sqrt(m), order)[0]


SCHUR_REFERENCE_CASES = {
    # case: (problem, slab entries, chunk entries, slabs of block 0).  At 25
    # chunk entries every U chunk holds at most 4 rows, and the moment
    # blocks' slabs (202 and 213 cells) are formed in chunks of 50 cells
    "moment_m7_order2": (lambda: moment_relaxation(7, 2), sdp_mod._SLAB_ENTRIES,
                         sdp_mod._CHUNK_ENTRIES, 7),
    "moment_m4_order3": (lambda: moment_relaxation(4, 3), sdp_mod._SLAB_ENTRIES,
                         sdp_mod._CHUNK_ENTRIES, 6),
    "dense_random_50": (sdp_dense_random, 50, sdp_mod._CHUNK_ENTRIES, 13),
    "moment_m7_order2_chunks_25": (lambda: moment_relaxation(7, 2),
                                   sdp_mod._SLAB_ENTRIES, 25, 7),
    "moment_m4_order3_chunks_25": (lambda: moment_relaxation(4, 3),
                                   sdp_mod._SLAB_ENTRIES, 25, 6),
    "dense_random_50_chunks_25": (sdp_dense_random, 50, 25, 13),
}


@pytest.mark.parametrize("case", sorted(SCHUR_REFERENCE_CASES))
def test_schur_assembler_matches_scipy_reference_bytes(case, monkeypatch):
    # the csr_matvecs assembler writes the bytes of scipy's @ with fresh
    # arrays per slab, on every call of one assembler, however its chunks
    # split the slabs
    make, slab_entries, chunk_entries, block0_slabs = SCHUR_REFERENCE_CASES[case]
    monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", slab_entries)
    monkeypatch.setattr(sdp_mod, "_CHUNK_ENTRIES", chunk_entries)
    prob = make()
    slabs = schur_slabs(prob)
    assert len(slabs[0]) == block0_slabs
    rng = np.random.default_rng(12)
    shared = schur_assembler(prob, slabs)
    for _ in range(2):
        ws = [random_spd(rng, s) for s in prob.block_sizes]
        want = schur_allocating(prob.a_blocks, slabs, ws)
        assert shared(ws).tobytes() == want.tobytes()


def assert_same_solution(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, list):
            assert len(other) == len(value)
            assert all(np.array_equal(g, w) for g, w in zip(other, value)), name
        else:
            assert np.array_equal(other, value), name


def test_sdp_solve_repeats_bit_identical():
    # the operators a problem shares with its twins are read-only and the
    # per-solve buffers die with the solve: a repeat, and a repeat after a
    # larger problem, reproduce the first solution exactly
    small, large = sdp_psd_boundary_2x2(), certify_ising_relaxation()
    first = sdp_solve(small)
    assert_same_solution(sdp_solve(small), first)
    sdp_solve(large)
    assert_same_solution(sdp_solve(small), first)


def solve_on_reference_path(prob, monkeypatch):
    """sdp_solve with scipy's @ Schur assembly, np.linalg eigensolves and norms,
    and the block-0 fix through the dense pseudo-inverse."""
    with monkeypatch.context() as patch:
        patch.setattr(prob._ops, "block0_fix", pinv_block0_fix(prob._ops.a_blocks[0]))
        patch.setattr(sdp_mod, "_schur_assembler", lambda a_blocks, slabs, acc: (
            functools.partial(schur_allocating, a_blocks, slabs)))
        patch.setattr(sdp_mod, "_eigh", np.linalg.eigh)
        patch.setattr(sdp_mod, "_least_eigenvalues",
                      lambda a: np.linalg.eigvalsh(a).min(axis=1))
        patch.setattr(sdp_mod, "_norm", lambda v: float(np.linalg.norm(v)))
        return sdp_solve(prob)


def planted_order3_relaxation():
    # a planted-poly3 objective (degree 4) one above its base order: blocks
    # (20, 10)
    obj, _ = planted_instance(0)
    scaled, _, radius, order = relaxation_setup(obj, order=3)
    return moment_relax(scaled, radius, order)[0]


@pytest.mark.parametrize("make", [certify_ising_relaxation, planted_order3_relaxation])
def test_sdp_solve_matches_reference_path(make, monkeypatch):
    # the lean kernels and the per-row block-0 fix change no bit of a solve
    prob = make()
    want = solve_on_reference_path(prob, monkeypatch)
    assert_same_solution(sdp_solve(prob), want)


def test_schur_workspace_linear_in_p():
    # beyond the p x p matrix it returns, the assembler's workspace is O(p)
    # plus a constant: 411 p doubles at p = 494, where the two slab buffers
    # it kept before chunking took 1.07 p^2 and 0.75 p^2 (921 p)
    obj, _ = planted_instance(0, m=8, horizon=0.5)
    scaled, _, radius, order = relaxation_setup(obj)
    prob = moment_relax(scaled, radius, order)[0]
    p = prob.n_constraints
    assert (p, order) == (494, 2)
    ws = [random_spd(np.random.default_rng(3), s) for s in prob.block_sizes]
    acc = np.empty((p, p), order="F").T
    tracemalloc.start()
    try:
        sdp_mod._schur_assembler(prob._ops.a_blocks, prob._ops.slabs, acc)(ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * p * p + 8 * 512 * p


def test_sdp_solve_peak_memory():
    # a solve holds the Schur matrix, the accumulator its lifted copy and
    # Cholesky factor are written over, and an O(p) Schur workspace.  At
    # p = 494 it peaked at 5.05 p^2 doubles when the assembler kept an
    # accumulator of its own, at 4.05 p^2 without it, and at 3.04 p^2 with
    # chunked slabs
    obj, _ = planted_instance(0, m=8, horizon=0.5)
    scaled, _, radius, order = relaxation_setup(obj)
    prob = moment_relax(scaled, radius, order)[0]
    p = prob.n_constraints
    assert (p, order) == (494, 2)
    tracemalloc.start()
    try:
        sdp_solve(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * p * p


def test_sdp_stop_reason(monkeypatch):
    prob = certify_ising_relaxation()
    assert sdp_solve(prob).stop_reason in ("stall", "floor")
    monkeypatch.setattr(sdp_mod, "MAX_ITER", 1)
    sol = sdp_solve(prob)
    assert (sol.status, sol.stop_reason) == ("max_iterations", "max_iterations")


# ------------------------------------------------------------- moment_relax


def test_monomial_basis_count():
    assert len(monomials_up_to(3, 3)) == 20
    assert len(monomials_up_to(3, 2)) == 10
    assert len(monomials_up_to(1, 2)) == 3


def test_relax_sos_square_first_order():
    # p = x^2 is already a square: first-order bound is 0
    prob, relax = moment_relax(Polynomial(1, {(2,): 1.0}), 1.0, 1)
    assert prob.block_sizes[0] == 2
    sol = sdp_solve(prob)
    bound = relax.constant_term - sol.primal_value
    assert sol.status == "optimal"
    assert abs(bound) < 1e-7


def test_relax_shifted_square_moment():
    # grid-scan oracle for min of (x-1/2)^2 on [-1,1]: 0 at x = 1/2
    p = Polynomial(1, {(2,): 1.0, (1,): -1.0, (0,): 0.25})
    grid = np.linspace(-1.0, 1.0, 200001)
    oracle = float(np.min((grid - 0.5) ** 2))
    prob, relax = moment_relax(p, 1.0, 1)
    sol = sdp_solve(prob)
    bound = relax.constant_term - sol.primal_value
    assert abs(bound - oracle) < 1e-7
    y1 = sol.y[relax.moment_index[(1,)]]
    assert abs(y1 - 0.5) < 1e-3


def test_relax_rejects_low_order():
    with pytest.raises(ValueError):
        moment_relax(Polynomial(1, {(4,): 1.0}), 1.0, 1)


def test_relax_rejects_bad_radius():
    for radius in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            moment_relax(Polynomial(1, {(1,): 1.0}), radius, 1)


def test_relax_block_sizes_match_binomial():
    prob, _ = moment_relax(Polynomial(3, {(6, 0, 0): 1.0}), 1.0, 3)
    assert prob.block_sizes[0] == 20
    assert prob.block_sizes[1] == 10


def test_relax_memory_bounded():
    # seven controls at order 3: blocks (120, 36) and 1715 moments, which as
    # dense (p, s, s) stacks would take 200 MB and more
    p = Polynomial(7, {(6,) + (0,) * 6: 1.0})
    tracemalloc.start()
    try:
        prob, _ = moment_relax(p, 1.05 * np.sqrt(7), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prob.block_sizes == (120, 36)
    assert prob.n_constraints == 1715
    assert peak < 32 * 2**20


def certify_objective(x_seed):
    # the certify-ising N=3, m=3 objective at one planted control
    pair = build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3), label=pair.label)
    lam = build_lambda(spec, 3)
    xstar = np.random.default_rng([1, x_seed]).uniform(-1, 1, 3)
    scaled, _, radius, order = relaxation_setup(build_objective(lam, pm_eval(lam, xstar)))
    return scaled, radius, order


def test_relax_shares_structure_per_key():
    # two objectives with the same (m, order, radius) share every block and
    # the index maps; only b and the constant term are their own
    (p1, radius, order), (p2, _, _) = certify_objective(0), certify_objective(1)
    prob1, rel1 = moment_relax(p1, radius, order)
    prob2, rel2 = moment_relax(p2, radius, order)
    assert all(a is b for a, b in zip(prob1.a_blocks, prob2.a_blocks))
    assert all(a is b for a, b in zip(prob1.c_blocks, prob2.c_blocks))
    assert rel1.moment_index is rel2.moment_index
    assert prob1._ops is prob2._ops
    assert not np.array_equal(prob1.b, prob2.b)
    other, _ = moment_relax(p1, 2.0 * radius, order)
    assert other.a_blocks[1] is not prob1.a_blocks[1]


def test_relax_shared_arrays_read_only():
    scaled, radius, order = certify_objective(0)
    prob, rel = moment_relax(scaled, radius, order)
    ops = prob._ops
    arrays = [*prob.c_blocks, ops.norms]
    assert len(ops.transposes) == len(ops.a_blocks)
    for a in (*prob.a_blocks, *ops.a_blocks, *ops.transposes):
        arrays += [a.data, a.indices, a.indptr]
    for i, j, rows, sub in ops.slabs[0]:
        arrays += [i, j, rows, sub.data, sub.indices, sub.indptr]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
    with pytest.raises(TypeError):
        rel.moment_index[(0, 0, 0)] = 5
    assert isinstance(prob.b, np.ndarray) and prob.b.flags.writeable


def test_relax_second_solve_matches_fresh_problem():
    # a relaxation built from the shared structure, solved after another
    # relaxation of its key, matches a problem built and solved afresh
    (p1, radius, order), (p2, _, _) = certify_objective(2), certify_objective(3)
    sdp_solve(moment_relax(p1, radius, order)[0])
    prob, _ = moment_relax(p2, radius, order)
    template = relax_mod._structure.__wrapped__(p2.controls, order, radius)[0]
    fresh = template._with_rhs(prob.b.copy())
    assert fresh.a_blocks[0] is not prob.a_blocks[0]
    assert_same_solution(sdp_solve(prob), sdp_solve(fresh))


def test_sdp_rebuilt_from_own_blocks_solves_bit_identically():
    # SDPProblem sorts each constraint block's indices before it symmetrises,
    # so a problem built again from its own blocks sums in the same order and
    # solves to the same bytes; the certify-ising N=3, m=3 pool instance
    pair = build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(3), label=pair.label)
    lam = build_lambda(spec, 3)
    obj = build_objective(lam, pm_eval(lam, np.random.default_rng([0, 0]).uniform(-1, 1, 3)))
    scale = max(abs(c) for c in obj.real_coeff_dict().values())
    prob, _ = moment_relax(obj * (1.0 / scale), math.sqrt(3) * 1.05, 2)
    again = SDPProblem(prob.block_sizes, prob.c_blocks, prob.a_blocks, prob.b)
    want, got = sdp_solve(prob), sdp_solve(again)
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, list):
            assert [a.tobytes() for a in other] == [a.tobytes() for a in value], name
        else:
            assert np.asarray(other).tobytes() == np.asarray(value).tobytes(), name


def test_sdp_rhs_validated_on_every_twin():
    prob = sdp_psd_boundary_2x2()
    for bad in (np.array([1.0, np.nan]), np.array([1.0]), np.ones((2, 1))):
        with pytest.raises(ValueError):
            prob._with_rhs(bad)
    twin = prob._with_rhs([2.0, 0.0])
    assert twin.a_blocks is prob.a_blocks and twin._ops is prob._ops
    np.testing.assert_array_equal(prob.b, [1.0, 0.0])


def test_relax_patterns_at_point_mass():
    # at a point mass the CSR constraint rows assemble M_2 = v v^T and the
    # localizing block (R^2 - |x|^2) w w^T, with v and w the monomial vectors
    # of degree <= 2 and <= 1
    radius = 1.5
    prob, relax = moment_relax(Polynomial(3, {(4, 0, 0): 1.0}), radius, 2)
    point = np.array([0.3, -0.7, 0.4])
    y = relax.point_moments(point)
    v = np.array([np.prod(point ** np.array(e)) for e in monomials_up_to(3, 2)])
    w = v[:4]
    expected = (np.outer(v, v), (radius**2 - point @ point) * np.outer(w, w))
    for c, a, want in zip(prob.c_blocks, prob.a_blocks, expected):
        assert np.allclose(c - (a.T @ y).reshape(c.shape), want, atol=1e-12)
    assert np.allclose(relax.first_moments(y), point, atol=1e-15)


# ------------------------------------------------------------ first_moments


def rank_ratio(z):
    """s1/s0 of a moment matrix: below 1e-6 it is numerically rank one."""
    svals = np.linalg.svd(z, compute_uv=False)
    return svals[1] / svals[0]


def test_extract_point_mass_exact():
    # the graded basis puts x0..x{m-1} in moment slots 0..m-1
    prob, relax = moment_relax(Polynomial(3, {(2, 0, 0): 1.0}), 1.5, 2)
    point = np.array([0.3, -0.2, 0.7])
    y = relax.point_moments(point)
    got = relax.first_moments(y)
    np.testing.assert_array_equal(got, point)
    assert not np.shares_memory(got, y)


def test_extract_planted_single_control():
    # single-control planted instance: the relaxation concentrates on the
    # minimizer, so its moment matrix (the dual slack of block 0) is rank
    # one and the first moments land within 1e-4 before any polish
    obj, xstar = planted_instance(3, m=1, horizon=0.5)
    scale = max(abs(c) for c in obj.terms.values())
    prob, relax = moment_relax(obj * (1.0 / scale), 1.05, 2)
    sol = sdp_solve(prob)
    assert rank_ratio(sol.z_blocks[0]) < 1e-6
    assert abs(relax.first_moments(sol.y)[0] - xstar[0]) < 1e-4


# ------------------------------------------------------------ newton_polish


def test_polish_quadratic_one_step(monkeypatch):
    monkeypatch.setattr(polish_mod, "MAX_STEPS", 1)
    # (x0 - 1/4)^2 + 2 (x1 + 1/2)^2
    p = Polynomial(2, {(2, 0): 1.0, (1, 0): -0.5, (0, 2): 2.0, (0, 1): 2.0, (0, 0): 0.5625})
    got = newton_polish(p, np.array([0.9, 0.9]), 2.0)
    np.testing.assert_allclose(got, [0.25, -0.5], atol=1e-12)


def test_polish_quartic_flat_minimum():
    # derivative 4(x-1/2)^3 has its zero at 1/2; bisection oracle
    # (x - 1/2)^4
    p = Polynomial(1, {(4,): 1.0, (3,): -2.0, (2,): 1.5, (1,): -0.5, (0,): 0.0625})
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 4 * (mid - 0.5) ** 3 < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    got = newton_polish(p, np.array([0.0]), 1.0)
    assert abs(got[0] - oracle) < 1e-3


def test_polish_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    obj, _ = planted_instance(5)
    h = 1e-5
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        _, grad, _ = obj.jet(x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (obj.eval(x + e) - obj.eval(x - e)) / (2 * h)
            assert abs(grad[k] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_polish_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    obj, _ = planted_instance(6)
    h = 1e-5
    x = rng.uniform(-1, 1, 3)
    _, _, hess = obj.jet(x)
    for i in range(3):
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (obj.jet(x + e)[1][i] - obj.jet(x - e)[1][i]) / (2 * h)
            assert abs(hess[i, j] - fd) <= 1e-6 * max(1.0, abs(fd))


def _piecewise_objective(seed):
    """Planted objective of the order-4 generator on 3 slices (degree 6)."""
    pair = ibmq3()
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PiecewiseControl(3), label="ibmq3")
    sigma = build_lambda(spec, 4)
    xstar = np.random.default_rng(seed).uniform(-1, 1, 3)
    return build_objective(sigma, principal_log(expm_antihermitian(pm_eval(sigma, xstar))))


@pytest.mark.parametrize(
    "make",
    [lambda: planted_instance(3)[0], lambda: _piecewise_objective(4),
     lambda: planted_instance(5, m=7, horizon=0.5)[0]],
    ids=["poly_m3", "piecewise_grade4", "poly_m7"],
)
def test_jet_matches_diff_polynomials(make):
    # the table's exact derivatives against the formal ones, built by diff
    obj = make()
    m = obj.controls
    grads = [obj.diff(k) for k in range(m)]
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.uniform(-1, 1, m)
        value, grad, hess = obj.jet(x)
        assert value == obj.eval(x)
        g_ref = np.array([gk.eval(x) for gk in grads])
        h_ref = np.array([[gk.diff(l).eval(x) for l in range(m)] for gk in grads])
        assert np.abs(grad - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        assert np.abs(hess - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
        assert np.array_equal(hess, hess.T)


def test_polish_concave_ends_on_sphere():
    # p = -x^2 has no interior minimizer: the polish stops on the sphere at a
    # KKT point of the ball problem, with g + mu x = 0 at mu = 2, so H + mu I = 0
    p = Polynomial(1, {(2,): -1.0})
    got = newton_polish(p, np.array([0.1]), 0.4)
    assert abs(abs(got[0]) - 0.4) <= 1e-15
    assert abs(p.eval(got) + 0.16) <= 1e-15
    res, mu = kkt_residual(np.array([-2.0 * got[0]]), got, 0.4)
    assert res <= GRAD_TOL
    assert mu == pytest.approx(2.0)


def test_polish_projects_start_into_ball():
    # a start outside the ball (first moments can sit just outside it, by the
    # solver's tolerance) is scaled back radially before the first step
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    got = newton_polish(p, np.array([-3.0, -4.0]), 1.0)
    np.testing.assert_allclose(got, [-np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-12)
    assert np.linalg.norm(got) <= 1.0 + 1e-12


def _kkt_at(p, x, radius):
    return kkt_residual(p.jet(x)[1], x, radius)[0]


@pytest.mark.parametrize("seed", range(4))
def test_polish_reaches_kkt_at_five_controls(seed):
    # m = 5 controls: x-hat lies in a nearly flat valley, where a shifted
    # Newton step stalled at gradients near 5e-6; the in-ball step reaches
    # a KKT point of the ball problem
    obj, _ = planted_instance(seed, m=5, horizon=0.5)
    res = minimize_global(obj)
    assert np.linalg.norm(res.x) <= res.radius * (1 + 1e-12)
    assert _kkt_at(obj, res.x, res.radius) <= 1e-10
    assert -1e-8 <= res.gap <= GAP_TOL


UNREACHABLE = [("ibmq3", 3), ("ibmq3", 5), ("ising", 3)]
# (system, m, eps) whose moment matrix is numerically rank one
RANK_ONE = {("ibmq3", 3, 0.3), ("ibmq3", 3, 1.0), ("ibmq3", 5, 1.0),
            ("ising", 3, 0.05), ("ising", 3, 0.3), ("ising", 3, 1.0)}


@functools.lru_cache(maxsize=len(UNREACHABLE))
def unreachable_results(system, m):
    """(eps, objective, result) for planted trial 0 plus eps K, eps = 0.05, 0.3, 1."""
    pair = ibmq3() if system == "ibmq3" else build_ising(2)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(m), label=pair.label)
    lam = build_lambda(spec, 3)
    d = pair.h0.shape[0]
    a = np.random.default_rng(123).standard_normal((2, d, d))
    k = (a[0] + 1j * a[1]) - (a[0] + 1j * a[1]).conj().T
    k /= np.linalg.norm(k)
    target = gen_target(spec, 0, 0).generator
    out = []
    for eps in (0.05, 0.3, 1.0):
        obj = build_objective(lam, target + eps * k)
        out.append((eps, obj, minimize_global(obj)))
    return out


@pytest.mark.parametrize("system, m", UNREACHABLE)
def test_polish_reaches_kkt_on_unreachable_targets(system, m):
    # planted trial 0 plus eps K, K a unit anti-Hermitian matrix, is out of
    # the model's reach: the minimizer sits on the sphere |x| = R, and the
    # polish must end there at a KKT point no worse than the moment point
    for _, obj, res in unreachable_results(system, m):
        assert np.linalg.norm(res.x) <= res.radius * (1 + 1e-12)
        assert _kkt_at(obj, res.x, res.radius) <= 1e-10
        assert -1e-8 <= res.gap <= GAP_TOL


@pytest.mark.parametrize("system, m", UNREACHABLE)
def test_status_follows_gap(system, m):
    # the status is read off the gap alone, whatever the rank of the moment
    # matrix; that matrix is the solver's dual slack of block 0
    for eps, _, res in unreachable_results(system, m):
        assert res.status == ("polished" if res.gap <= GAP_TOL else "uncertified")
        if (system, m, eps) in RANK_ONE:
            assert rank_ratio(res.sdp.z_blocks[0]) < 1e-6


def test_polish_validates_start_shape():
    p = Polynomial(2, {(1, 0): 1.0})
    for start in (np.array([1.0]), np.array([np.nan, 0.0])):
        with pytest.raises(ValueError):
            newton_polish(p, start, 1.0)
    # the radius must be finite and positive: 0 would divide by zero in
    # kkt_residual, and -1, NaN and inf describe no ball
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            newton_polish(p, np.array([0.3, 0.2]), radius)


# ---------------------------------------------------------- minimize_global


def test_minimize_sum_of_squares():
    res = minimize_global(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}))
    np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-8)
    assert res.value <= 1e-12
    assert abs(res.gap) <= 1e-9


def test_minimize_constant_polynomial():
    res = minimize_global(Polynomial(2, {(0, 0): 3.5}))
    assert abs(res.bound - 3.5) < 1e-8
    assert abs(res.value - 3.5) < 1e-12
    assert np.linalg.norm(res.x) <= res.radius + 1e-9


def test_minimize_planted_instance():
    obj, xstar = planted_instance(42, horizon=0.5)
    res = minimize_global(obj)
    assert res.status == "polished"
    assert res.gap <= 1e-6
    assert np.linalg.norm(res.x - xstar) < 1e-4
    assert res.gap >= -1e-8


def test_minimize_gap_never_significantly_negative():
    # minimizers outside the default ball 1.05 sqrt(m): the result must stay
    # in the ball the bound covers, so its value cannot fall below the bound
    # (x - 2)^2 and (y0 - 2)^2 + (y1 + 1/2)^2
    outside = [Polynomial(1, {(2,): 1.0, (1,): -4.0, (0,): 4.0}),
               Polynomial(2, {(2, 0): 1.0, (1, 0): -4.0, (0, 2): 1.0, (0, 1): 1.0,
                              (0, 0): 4.25})]
    for obj in [planted_instance(seed)[0] for seed in range(6)] + outside:
        res = minimize_global(obj)
        assert res.gap >= -1e-8
        assert np.linalg.norm(res.x) <= res.radius * (1 + 1e-12)


def test_minimize_respects_explicit_order():
    res = minimize_global(Polynomial(1, {(2,): 1.0}), order=2)
    assert res.order >= 2
    assert abs(res.value) < 1e-10


def test_minimize_rejects_too_small_order():
    with pytest.raises(ValueError):
        minimize_global(Polynomial(1, {(4,): 1.0}), order=1)


def test_bound_below_ball_scan():
    # certificate validity against a dense deterministic scan
    for seed in (0, 1, 2):
        obj, _ = planted_instance(seed)
        res = minimize_global(obj)
        scan = ball_scan_minimum(obj, res.radius, count=200_000)
        assert res.bound <= scan + 1e-7


def test_bound_monotone_in_order():
    p = Polynomial(1, {(2,): 1.0, (1,): -1.0, (0,): 0.25})
    bounds = []
    for d in (1, 2, 3):
        res = minimize_global(p, order=d)
        bounds.append(res.bound)
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi >= lo - 1e-8


def test_extraction_soundness_pre_polish():
    # whenever the moment matrix is rank one the unpolished moment point is
    # already close to optimal in value
    for seed in (3, 5, 11):
        obj, _ = planted_instance(seed, m=1, horizon=0.5)
        scaled, scale, radius, order = relaxation_setup(obj)
        prob, relax = moment_relax(scaled, radius, order)
        sol = sdp_solve(prob)
        if rank_ratio(sol.z_blocks[0]) < 1e-6:
            x = relax.first_moments(sol.y)
            bound = minimize_mod._certified_bound(relax, sol, scale)
            assert obj.eval(x) - bound <= 1e-5


@pytest.mark.parametrize("qubits, m, stream", [(3, 3, 0), (5, 5, 4)])
def test_ising_certificate_feasible_iterate(qubits, m, stream):
    # exact-interpolation Ising targets (p(x*) = 0) from the certify-ising
    # pool: with the primal residual at round-off, the residual slack in the
    # bound is negligible and the gap stays within GAP_TOL
    pair = build_ising(qubits)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(m), label=pair.label)
    lam = build_lambda(spec, 3)
    xstar = np.random.default_rng([0, stream]).uniform(-1, 1, m)
    obj = build_objective(lam, pm_eval(lam, xstar))
    scaled, scale, radius, order = relaxation_setup(obj)
    prob, relax = moment_relax(scaled, radius, order)
    sol = sdp_solve(prob)
    bound = minimize_mod._certified_bound(relax, sol, scale)
    assert sol.primal_residual <= 1e-12 * (1 + np.linalg.norm(prob.b))
    assert obj.eval(xstar) - bound <= GAP_TOL
    assert sol.iterations <= 40


def test_solve_above_base_order_keeps_going_while_mu_falls():
    # a degree-4 objective relaxed at order 3, one above its base order: the
    # relative gap sits near 1 for several iterations while mu falls fast, and
    # a patience rule on the gap alone ended this solve numerical_failure
    pair = build_ising(3)
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PolyControl(5), label=pair.label)
    lam = build_lambda(spec, 3)
    xstar = trial_rng(0, 2).uniform(-1, 1, 5)
    obj = build_objective(lam, pm_eval(lam, xstar))
    res = minimize_global(obj, order=3)
    assert res.order == 3
    assert res.sdp.status in sdp_mod.BOUND_STATUSES
    assert res.status != "failed"
    assert -1e-8 <= res.gap <= GAP_TOL


def _piecewise_trial(trial):
    # one planted-pw3 instance (ibmq3, three slices, order-4 generator, base
    # seed 0): its objective and order-3 moment relaxation
    pair = ibmq3()
    spec = ProblemSpec(pair.h0, pair.hc, 0.5, PiecewiseControl(3), label=pair.label)
    sigma = build_lambda(spec, 4)
    obj = build_objective(sigma, gen_target(spec, 0, trial).generator)
    scaled, _, radius, order = relaxation_setup(obj)
    assert order == 3
    prob, _ = moment_relax(scaled, radius, order)
    return obj, prob


def test_piecewise_median_instance_solve():
    # planted-pw3's median instance (trial 2): the block-0 primal fix keeps
    # the primal residual at round-off and the certified gap within GAP_TOL
    obj, prob = _piecewise_trial(2)
    sol = sdp_solve(prob)
    assert sol.primal_residual <= 1e-12 * (1 + np.linalg.norm(prob.b))
    assert minimize_global(obj).gap <= GAP_TOL


@pytest.mark.parametrize("trial", [3, 4])
def test_piecewise_solve_reaches_optimal(trial):
    # a least-norm fix over all blocks pushes the localizing block to the
    # edge of the cone, the primal steps collapse and these solves end
    # "stalled"; the fix in the moment block keeps the steps and reaches TOL
    _, prob = _piecewise_trial(trial)
    assert sdp_solve(prob).status == "optimal"


def test_polish_saddle_start_deterministic():
    # quartic with two symmetric wells, polished from exactly x = 0: zero
    # gradient and negative curvature, so the first step is the hard case of
    # the ball model, and its sign must pick the same well every run
    p = Polynomial(1, {(4,): 1.0, (2,): -2.0, (0,): 1.0})  # (x^2 - 1)^2
    picks = {float(newton_polish(p, np.array([0.0]), 1.05)[0]) for _ in range(3)}
    assert len(picks) == 1
    (pick,) = picks
    assert abs(abs(pick) - 1.0) <= 1e-12
    # the minimum is 0, so the value is the gap against the exact bound
    assert p.eval(np.array([pick])) <= GAP_TOL
    res = minimize_global(p)
    assert res.gap <= GAP_TOL


def test_motzkin_ends_uncertified():
    # the Motzkin polynomial is nonnegative but not a sum of squares: its
    # base-order bound sits well below the minimum 0, and the first moment is
    # the origin, a degenerate critical point (gradient and Hessian vanish)
    # where the polish stops.  The result is reported as uncertified, with
    # its true gap, rather than rescued by a multi-start
    # x^4 y^2 + x^2 y^4 - 3 x^2 y^2 + 1
    p = Polynomial(2, {(4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0, (0, 0): 1.0})
    res = minimize_global(p, radius=1.5)
    assert res.status == "uncertified"
    assert np.linalg.norm(res.x) <= 1e-6
    assert abs(res.value - 1.0) <= 1e-6
    assert res.gap > GAP_TOL
    assert res.bound <= 0.0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.7 s to import, two thirds of
    # `import gatesynth`, and nothing in the package needs it
    src = str(Path(gatesynth.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import gatesynth; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_timings_recorded(monkeypatch):
    # one SDP at the base order, and its time is booked under "solve" only
    calls = []

    def counting_solve(prob):
        t0 = time.perf_counter()
        sol = sdp_solve(prob)
        calls.append(time.perf_counter() - t0)
        return sol

    monkeypatch.setattr(minimize_mod, "sdp_solve", counting_solve)
    obj, _ = planted_instance(9)
    res = minimize_global(obj)
    assert len(calls) == 1
    assert res.order == (obj.degree() + 1) // 2
    assert set(res.timings) == {"relax", "solve", "polish"}
    assert res.timings["relax"] > 0
    assert res.timings["solve"] >= calls[0]


def test_single_relaxation_at_five_controls(monkeypatch):
    # a wider control vector must not escalate: one order-2 relaxation
    relaxations = []

    def recording_relax(p, radius, order):
        prob, relax = moment_relax(p, radius, order)
        relaxations.append((order, prob.block_sizes))
        return prob, relax

    monkeypatch.setattr(minimize_mod, "moment_relax", recording_relax)
    obj, _ = planted_instance(0, m=5, horizon=0.5)
    res = minimize_global(obj)
    assert relaxations == [(2, (21, 6))]
    assert res.order == 2
    assert res.gap >= -1e-8
    # the control is one point of a flat valley; its value is certified
    assert res.status != "failed"
    assert res.gap <= GAP_TOL
