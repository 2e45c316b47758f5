"""Primal-dual interior-point solver for small block-diagonal SDPs.

Solves min <C,X> subject to <A_i,X> = b_i, X >= 0 (PSD), together with the
dual max b'y with C - sum_i y_i A_i = Z >= 0.  Path following uses
Nesterov-Todd scaling with a predictor-corrector centering choice.

The iterates, the cost blocks and the Schur complement are dense; the
constraints are sparse.  Block k of every constraint is one (p, s_k^2) CSR
matrix A_k whose row i is block k of A_i in row-major order, and the solver
keeps its CSR transpose A_k^T beside it.  Every sparse product runs on
``csr_matvecs``, the kernel behind scipy's CSR @ dense, called without
scipy's dispatch: A(X) on A_k, A*(y) and the block-0 fix on A_k^T, the
block-0 row norms on A_0 with squared entries.  The Schur complement
sum_k A_k (W_k (x) W_k) A_k^T is assembled from fixed-size column slabs of
W (x) W, each a run of rows of A_k^T: in a moment block every cell belongs
to one constraint, so a block costs s^4 (Fujisawa, Kojima & Nakata, Math.
Program. 79, 1997, formula F3).

What the solver derives from the constraint blocks alone (the normalised
blocks, their transposes, the Schur slabs and the block-0 row norms) is
built with the problem and shared, read-only, by every problem made from the
same blocks with another right-hand side; a moment relaxation's structure is
such a problem.  Buffers allocated once per solve hold the Schur matrix,
the Schur accumulator that its lifted copy and then its Cholesky factor are
written over, and per block the (X_k, Z_k) pair and the two step-length
congruences, each a (2, s_k, s_k) stack for one eigensolve.  The rest of the
Schur workspace is O(p) plus a constant: a slab's products T = A (W (x)
W)[:, cells] and U = A[rows, cells] T^T are formed in fixed-size chunks of
cells and of rows, and only T^T is held whole.

The eigensolves call numpy's LAPACK gufuncs, the ones under
``np.linalg.eigh`` and ``eigvalsh``, directly.  Where np.linalg raises
LinAlgError on a failed solve, a gufunc returns NaN (and warns); every use
below tests the least eigenvalue for NaN, or with a comparison that NaN
fails, and raises the same LinAlgError.  LAPACK returns eigenvalues in
ascending order, so the least is the first.  Vector and matrix norms are sqrt(v . v), which
is what ``np.linalg.norm`` computes for real input.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

# relative duality gap (and residual scale) at which a solve is "optimal"
TOL = 1e-8
MAX_ITER = 200
# statuses whose iterate is close enough to the optimum to carry a bound
BOUND_STATUSES = ("optimal", "stalled", "max_iterations")
STEP_FRACTION = 0.98
# entries of W (x) W that one Schur slab holds (2 MiB of float64)
_SLAB_ENTRIES = 1 << 18
# entries that one chunk of a slab's W (x) W columns, T or U holds (512 KiB)
_CHUNK_ENTRIES = 1 << 16


def _read_only(*arrays):
    """Mark arrays read-only, and the data, indices and indptr of sparse ones."""
    for a in arrays:
        for part in (a.data, a.indices, a.indptr) if sparse.issparse(a) else (a,):
            part.setflags(write=False)


def _checked_rhs(b) -> np.ndarray:
    """b as a finite float vector."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError("b must be a vector")
    if not np.isfinite(b).all():
        raise ValueError("b has a non-finite entry")
    return b


@dataclass(frozen=True, eq=False)
class SDPProblem:
    """Block-diagonal standard-form SDP data.

    ``c_blocks`` is one symmetric matrix per block.  ``a_blocks[k]`` is the
    k-th block of every constraint as one sparse (n_constraints, s_k * s_k)
    CSR matrix, row i holding block k of A_i in row-major order.  ``b`` is the
    right-hand side, with at least one constraint.  Every entry must be
    finite and no constraint zero.  The validated cost and constraint blocks
    are read-only copies.

    No cell of block 0 may carry two constraints.  A moment relaxation's
    moment block has this form, since its cell (i, j) holds the one moment of
    basis_i + basis_j.  So A_0 A_0^T is diagonal, and the fix by which the
    solver keeps A(X) = b to round-off is a per-row division in block 0.
    Only constraints with an entry in block 0 are fixed exactly; for the
    others (none in a moment relaxation) the residual falls with the steps.
    """

    block_sizes: tuple[int, ...]
    c_blocks: tuple[np.ndarray, ...]
    a_blocks: tuple[sparse.csr_array, ...]
    b: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        if not len(self.c_blocks) == len(self.a_blocks) == len(sizes):
            raise ValueError("want one cost and one constraint block per block size")
        b = _checked_rhs(self.b)
        p = b.shape[0]
        if p == 0:
            raise ValueError("at least one constraint is required")
        cs, As = [], []
        for k, s in enumerate(sizes):
            c = np.asarray(self.c_blocks[k], dtype=float)
            if c.shape != (s, s):
                raise ValueError(f"cost block {k} has shape {c.shape}, want ({s},{s})")
            # a copy with sorted indices, so that the symmetrised block, and the
            # solve's sums, do not depend on the order the caller stored
            a = sparse.csr_array(self.a_blocks[k], dtype=float, copy=True)
            a.sort_indices()
            if a.shape != (p, s * s):
                raise ValueError(
                    f"constraint block {k} has shape {a.shape}, want ({p},{s * s})"
                )
            if not (np.isfinite(c).all() and np.isfinite(a.data).all()):
                raise ValueError(f"block {k} has a non-finite cost or constraint entry")
            if np.linalg.norm(c - c.T) > 1e-12 * (1 + np.abs(c).max()):
                raise ValueError(f"cost block {k} is not symmetric")
            # column (i, j) of a row holds cell (i, j); at holds cell (j, i)
            at = a[:, np.arange(s * s).reshape(s, s).T.ravel()]
            if abs(a - at).max() > 1e-12 * (1 + abs(a).max()):
                raise ValueError(f"constraint block {k} is not symmetric")
            cs.append(0.5 * (c + c.T))
            As.append(sparse.csr_array(0.5 * (a + at)))
        if np.bincount(As[0].indices).max(initial=0) > 1:
            raise ValueError("a cell of block 0 carries more than one constraint")
        _read_only(*cs, *As)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "c_blocks", tuple(cs))
        object.__setattr__(self, "a_blocks", tuple(As))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_ops", _Operators(self.a_blocks))

    def _with_rhs(self, b) -> SDPProblem:
        """This problem with right-hand side ``b``, which is validated.

        The twin shares the blocks and the solver operators derived from them.
        """
        b = _checked_rhs(b)
        if b.shape != self.b.shape:
            raise ValueError(f"b has shape {b.shape}, want {self.b.shape}")
        twin = copy.copy(self)
        object.__setattr__(twin, "b", b)
        return twin

    @property
    def n_constraints(self) -> int:
        return self.b.shape[0]


@dataclass
class SDPSolution:
    """Solver outcome with primal/dual iterates and convergence diagnostics.

    ``stop_reason`` says why the iterations ended: "floor" (the quality
    reached 1e-12), "stall" (no progress in five iterations, a regression, a
    collapsed step, or an iterate or Schur matrix that lost definiteness),
    "max_iterations", or "infeasible" (b'y diverged).

    For a moment relaxation the dual slack ``z_blocks[0]`` is the moment
    matrix M(y), up to the dual residual.
    """

    status: str
    primal_value: float
    dual_value: float
    gap: float
    y: np.ndarray
    x_blocks: list = field(default_factory=list)
    z_blocks: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""
    primal_residual: float = 0.0
    dual_residual: float = 0.0


def _sym(m: np.ndarray, out=None) -> np.ndarray:
    """0.5 (m + m^T), written into ``out`` when given."""
    out = np.add(m, m.T, out=out)
    return np.multiply(out, 0.5, out=out)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` (2-norm, Frobenius) of a real array, without its wrapper."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _eigh(a: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix or stack.

    NaN where the solve failed; see the module docstring.
    """
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def _least_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each symmetric matrix in a stack; NaN where it failed."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")[:, 0]


def _nt_scaling(z: np.ndarray, x_eig):
    """W with W Z W = X, from x_eig = eigh(X)."""
    wx, vx = x_eig
    if not wx[0] > 0:
        raise LinAlgError("primal block lost definiteness or its eigh failed")
    sx = vx * np.sqrt(wx)  # X^{1/2} = sx @ vx.T
    xh = sx @ vx.T
    inner = _sym(xh @ z @ xh)
    wi, vi = _eigh(inner)
    if not wi[0] > 0:
        raise LinAlgError("scaling core lost definiteness or its eigh failed")
    inner_isqrt = (vi / np.sqrt(wi)) @ vi.T
    return _sym(xh @ inner_isqrt @ xh)


def _step_lengths(isqrt_pairs, dx, dz, congruences) -> tuple[float, float]:
    """Primal and dual step lengths: STEP_FRACTION of the largest alpha with
    X + alpha dX and Z + alpha dZ PSD, capped at 1.

    ``isqrt_pairs[k]`` holds V / sqrt(w) from eigh(X_k) and from eigh(Z_k),
    which act as M^{-1/2} = (V / sqrt(w)) @ V.T.  The two congruences of
    block k are written into the (2, s_k, s_k) buffer ``congruences[k]`` so
    that one stacked eigensolve per block serves both sides.  With lam the
    least eigenvalue of T over all blocks, I + alpha T is PSD up to
    alpha = -1/lam when lam < 0, and for every alpha otherwise.
    """
    least = []
    for (lx, lz), dxk, dzk, t in zip(isqrt_pairs, dx, dz, congruences):
        _sym(lx.T @ dxk @ lx, out=t[0])
        _sym(lz.T @ dzk @ lz, out=t[1])
        least.append(_least_eigenvalues(t))
    least = np.min(least, axis=0)
    if np.isnan(least).any():
        raise LinAlgError("eigvalsh failed")
    return tuple(min(1.0, STEP_FRACTION * (-1.0 / lam)) if lam < 0 else 1.0
                 for lam in least.tolist())


def _initial_point(sizes, c_norms, b):
    """Scaled identities.  With unit-norm constraint rows the usual primal
    scale max(1, (1 + |b_i|) / sqrt(1 + |A_i|^2)) uses sqrt(2) throughout."""
    xi = max(1.0, float(np.max(1.0 + np.abs(b))) / np.sqrt(2.0))
    eta = 1.0 + max(c_norms)
    x0 = [xi * np.sqrt(s) * np.eye(s) for s in sizes]
    z0 = [eta * np.sqrt(s) * np.eye(s) for s in sizes]
    return x0, np.zeros(b.shape[0]), z0


def _matvecs(a: sparse.csr_array, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ x for a dense x and a C-contiguous out: scipy's kernel for
    CSR @ dense without its dispatch.  Each row starts from +0 and adds its
    entries in stored order, as ``csr_matvec`` and ``csc_matvec`` do."""
    out.fill(0.0)
    n_row, n_col = a.shape
    _sparsetools.csr_matvecs(
        n_row, n_col, x.size // n_col, a.indptr, a.indices, a.data, x, out
    )
    return out


def _apply_forward(a_blocks, x_blocks):
    """vector of <A_i, X> across blocks."""
    return sum(_matvecs(a, x, np.empty(a.shape[0])) for a, x in zip(a_blocks, x_blocks))


def _apply_adjoint(transposes, y):
    """sum_i y_i A_i per block, from the blocks' (s*s, p) CSR transposes."""
    out = []
    for at in transposes:
        s = math.isqrt(at.shape[0])
        out.append(_matvecs(at, y, np.empty((s, s))))
    return out


def _schur_slabs(at: sparse.csr_array) -> list:
    """Cell slabs of one constraint block for ``_schur_assembler``, from its
    (s*s, p) CSR transpose.

    Each slab is a run of at most _SLAB_ENTRIES // s^2 cells (row-major
    indices lo:hi, so rows lo:hi of the transpose) with an entry in some
    constraint: the row and column of each cell, the constraints with an
    entry there, and their (constraints, cells) CSR submatrix.
    """
    cells = at.shape[0]
    s = math.isqrt(cells)
    width = max(1, _SLAB_ENTRIES // cells)
    slabs = []
    for lo in range(0, cells, width):
        hi = min(lo + width, cells)
        part = at[lo:hi]
        rows = np.unique(part.indices)
        if rows.size:
            i, j = np.divmod(np.arange(lo, hi), s)
            slabs.append((i, j, rows, sparse.csr_array(part[:, rows].T)))
    return slabs


def _schur_assembler(a_blocks, slabs, acc: np.ndarray):
    """The map W -> symmetrised sum_k A_k (W_k (x) W_k) A_k^T.

    W (x) W is symmetric, so the rows of M that a slab's cells touch gain
    U = A[rows, cells] T^T with T = A (W (x) W)[:, cells]; the slab's column
    for cell (i, j) is the outer product of W[:, i] and W[:, j].  A slab's
    columns and T are formed in chunks of cells, as many as _CHUNK_ENTRIES
    doubles hold but at least 50, and U and its update in chunks of rows,
    at most _CHUNK_ENTRIES doubles (or one row).  Every entry of T, U and
    the accumulator sums the same terms in the same order as an unchunked
    slab would.  The row pieces of each slab's CSR submatrix are cut here,
    once per assembler.

    Two flat buffers serve every slab.  The front one holds T^T, whose rows
    for a cell chunk are written over that chunk's columns, spent by then,
    and after T^T the accumulator rows that a U chunk updates; the back one
    holds a T chunk, then a U chunk.  Both are O(p) plus a constant.  They
    and the returned matrix are shared by every call, so each call
    overwrites the matrix the previous one returned.  The C-contiguous
    (p, p) accumulator ``acc`` is the caller's, and is dead once the call
    returns: the solver lends it the buffer its Cholesky factor is later
    written over.
    """
    p = a_blocks[0].shape[0]
    height = max(1, _CHUNK_ENTRIES // p)
    plan, front_size, back_size = [], 0, 0
    for a, block_slabs in zip(a_blocks, slabs):
        cols = a.shape[1]
        # at least 50 cells, so that einsum's inner loop, which runs over a
        # chunk's cells, stays long
        width = max(50, _CHUNK_ENTRIES // max(cols, p))
        pieces = []
        for i, j, rows, sub in block_slabs:
            n = i.size
            cell_chunks = [(lo, i[lo:lo + width], j[lo:lo + width])
                           for lo in range(0, n, width)]
            row_chunks = ([(rows, sub)] if rows.size <= height else
                          [(rows[lo:lo + height], sub[lo:lo + height])
                           for lo in range(0, rows.size, height)])
            pieces.append((n, cell_chunks, row_chunks))
            r = row_chunks[0][0].size
            front_size = max(front_size, (n + r) * p,
                             *(lo * p + cols * ci.size for lo, ci, _ in cell_chunks))
            back_size = max(back_size, p * cell_chunks[0][1].size, r * p)
        plan.append((a, pieces))
    front, back = np.empty(front_size), np.empty(back_size)
    m = np.empty((p, p))

    def assemble(w_blocks):
        acc.fill(0.0)
        for (a, pieces), w in zip(plan, w_blocks):
            s = w.shape[0]
            for n, cell_chunks, row_chunks in pieces:
                tt = front[: n * p].reshape(n, p)
                for lo, i, j in cell_chunks:
                    c = i.size
                    kron_cols = front[lo * p: lo * p + s * s * c]
                    # one product per entry, faster than a broadcast multiply;
                    # only the sign of a zero product can differ, and the sums
                    # in T start from +0, which hides it
                    np.einsum("ac,bc->abc", np.take(w, i, axis=1), np.take(w, j, axis=1),
                              out=kron_cols.reshape(s, s, c))
                    t = back[: p * c]
                    _matvecs(a, kron_cols, t)
                    np.copyto(tt[lo: lo + c], t.reshape(p, c).T)
                for rows, sub in row_chunks:
                    r = rows.size
                    u, gathered = back[: r * p], front[n * p: (n + r) * p].reshape(r, p)
                    _matvecs(sub, tt, u)
                    # acc[rows] += U without a temporary; the rows are in
                    # range, and mode="clip" lets take write straight into
                    # the buffer
                    np.take(acc, rows, axis=0, out=gathered, mode="clip")
                    gathered += u.reshape(r, p)
                    acc[rows] = gathered
        np.add(acc, acc.T, out=m)
        return np.multiply(m, 0.5, out=m)

    return assemble


def _block0_fix(a0: sparse.csr_array, a0t: sparse.csr_array):
    """Map a defect to the least-norm block-0 correction X_0 with A_0(X_0) = defect.

    X_0 = A_0*(defect / d), with d the squared block-0 norm of each row:
    the rows have disjoint supports, so A_0 A_0^T = diag(d).  A row with
    d = 0 gets no fix, as under the pseudo-inverse.  The other blocks get no
    correction, so the fix is exact for every constraint with an entry in
    block 0.  ``a0t`` is A_0's CSR transpose.
    """
    squares = sparse.csr_array((a0.data * a0.data, a0.indices, a0.indptr), shape=a0.shape)
    d = _matvecs(squares, np.ones(a0.shape[1]), np.empty(a0.shape[0]))
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    _read_only(inv)
    return lambda defect: _apply_adjoint((a0t,), inv * defect)[0]


class _Operators:
    """What the solver derives from a problem's constraint blocks alone.

    The blocks are normalised to unit Frobenius norm per constraint for a
    better-scaled Schur complement; ``norms`` maps b and y to and from that
    scaling.  ``transposes`` holds each normalised block's CSR transpose,
    which A*(y), the block-0 fix and the Schur slabs read.  Every array here
    is read-only.
    """

    def __init__(self, a_blocks):
        norms = np.sqrt(sum(a.multiply(a).sum(axis=1) for a in a_blocks))
        if norms.min() == 0.0:
            raise ValueError("a constraint matrix is identically zero")
        unit = sparse.diags_array(1.0 / norms)
        self.a_blocks = tuple(sparse.csr_array(unit @ a) for a in a_blocks)
        self.transposes = tuple(sparse.csr_array(a.T) for a in self.a_blocks)
        self.norms = norms
        self.slabs = [_schur_slabs(at) for at in self.transposes]
        self.block0_fix = _block0_fix(self.a_blocks[0], self.transposes[0])
        _read_only(norms, *self.a_blocks, *self.transposes,
                   *(part for sl in self.slabs for slab in sl for part in slab))


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of an SPD Fortran-order matrix, written over it."""
    factor, info = lapack.dpotrf(a, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(f"leading minor {info} is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return factor


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = lapack.dpotrs(factor, rhs, lower=0)
    if info != 0:
        raise ValueError(f"dpotrs rejected argument {-info}")
    return x


def sdp_solve(prob: SDPProblem) -> SDPSolution:
    """Path-following solve to relative duality gap ``TOL``.

    Each search direction is corrected in block 0 to satisfy
    A(dX) = b - A(X), so the primal residual of every constraint with an
    entry in block 0 falls to round-off and stays there.  The loop runs past
    ``TOL`` while the quality (worst of gap and residuals) or mu still
    halves within five iterations (``MAX_ITER`` at most), and returns the
    best iterate seen.

    Status is "optimal", "stalled" (steps collapsed with the iterate already
    near convergence), "max_iterations", "numerical_failure", or
    "suspected_infeasible"; the final iterate is always attached.
    """
    nblk = len(prob.block_sizes)
    ntot = sum(prob.block_sizes)

    # the solve runs on unit-norm constraints; y is mapped back at the end
    ops = prob._ops
    c_blocks = prob.c_blocks
    norms, a_blocks, transposes = ops.norms, ops.a_blocks, ops.transposes
    b = prob.b / norms
    p = b.shape[0]
    b_norm = _norm(b)
    c_norms = [_norm(c) for c in c_blocks]
    # the lifted Schur matrix, in Fortran order so that potrf factors it in
    # place; its transpose, C-contiguous, is the assembler's accumulator
    lifted = np.empty((p, p), order="F")
    schur = _schur_assembler(a_blocks, ops.slabs, lifted.T)

    # X_k and Z_k live in one (2, s_k, s_k) stack for the stacked eigh
    pairs = [np.empty((2, s, s)) for s in prob.block_sizes]
    congruences = [np.empty((2, s, s)) for s in prob.block_sizes]
    x0, y, z0 = _initial_point(prob.block_sizes, c_norms, b)
    for pair, xk, zk in zip(pairs, x0, z0):
        pair[0], pair[1] = xk, zk
    x = [pair[0] for pair in pairs]
    z = [pair[1] for pair in pairs]

    ended_by = "max_iterations"
    best = None
    halved_at = mu_at = np.inf  # quality and mu when patience was last reset
    patience = 0
    for it in range(1, MAX_ITER + 1):
        # rp, rd and y are rebound here and by each step, never written in
        # place, so the snapshot of the best iterate may keep them
        rp = b - _apply_forward(a_blocks, x)
        ady = _apply_adjoint(transposes, y)
        rd = [c_blocks[k] - z[k] - ady[k] for k in range(nblk)]
        pv = sum(float(np.vdot(c_blocks[k], x[k])) for k in range(nblk))
        dv = float(b @ y)
        mu = sum(float(np.vdot(x[k], z[k])) for k in range(nblk)) / ntot
        gap_rel = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
        rp_norm = _norm(rp) / (1.0 + b_norm)
        rd_norm = max(_norm(rd[k]) / (1.0 + c_norms[k]) for k in range(nblk))
        quality = max(gap_rel, rp_norm, rd_norm)
        if best is None or quality < best[0]:
            best = (quality, gap_rel, rp_norm, rd_norm, pv, dv, rp, rd,
                    [xk.copy() for xk in x], y, [zk.copy() for zk in z])
        # patience runs out only when neither the quality nor mu has halved
        # in five iterations: above the base order the relative gap can sit
        # near 1 for several iterations while mu still falls fast
        if quality <= 0.5 * halved_at or mu <= 0.5 * mu_at:
            halved_at, mu_at, patience = min(quality, halved_at), mu, 0
        else:
            patience += 1
        if quality <= 1e-12:
            ended_by = "floor"
            break
        if patience >= 5 or quality > 100 * best[0]:
            ended_by = "stall"
            break

        try:
            # one stacked eigh of (X_k, Z_k) per block serves the scaling,
            # Z^{-1} and both step-length calls
            w, zinv, isqrt_pairs = [], [], []
            for k in range(nblk):
                (wx, wz), (vx, vz) = _eigh(pairs[k])
                w.append(_nt_scaling(z[k], (wx, vx)))
                if not wz[0] > 0:
                    raise LinAlgError("dual block lost definiteness or its eigh failed")
                zinv.append((vz / wz) @ vz.T)
                isqrt_pairs.append((vx / np.sqrt(wx), vz / np.sqrt(wz)))
            wrdw = [_sym(w[k] @ rd[k] @ w[k]) for k in range(nblk)]

            # Schur complement M_ij = sum_k <A_i, W A_j W> (SPD)
            m_schur = schur(w)
            # tiny diagonal lift keeps the factorization stable near the optimum;
            # the problem data are finite, so the solver's own buffers need no
            # finiteness scans
            lift = 1e-14 * (1.0 + np.abs(np.diag(m_schur)).max())
            np.copyto(lifted, m_schur)
            lifted.flat[:: p + 1] += lift
            factor = _cholesky_in_place(lifted)

            def solve_direction(sigma_mu):
                rhs = b + _apply_forward(
                    a_blocks, [wrdw[k] - sigma_mu * zinv[k] for k in range(nblk)]
                )
                dy = _cholesky_solve(factor, rhs)
                # one round of iterative refinement against the exact matrix;
                # the Schur complement turns severely ill-conditioned near the
                # optimum and the raw factorization loses the direction
                r = rhs - m_schur @ dy
                if _norm(r) > 1e-14 * (1.0 + _norm(rhs)):
                    dy = dy + _cholesky_solve(factor, r)
                ady = _apply_adjoint(transposes, dy)
                dz = [rd[k] - ady[k] for k in range(nblk)]
                dx = [
                    _sym(sigma_mu * zinv[k] - x[k] - w[k] @ dz[k] @ w[k])
                    for k in range(nblk)
                ]
                # fix in the moment block so that A(dX) = rp holds to
                # round-off; the Schur solve's error would otherwise leak into
                # the residual.  A least-norm fix over all blocks pushes the
                # localizing block out of the cone and collapses the steps.
                defect = rp - _apply_forward(a_blocks, dx)
                dx[0] = dx[0] + ops.block0_fix(defect)
                return dx, dy, dz

            # predictor
            dx_a, dy_a, dz_a = solve_direction(0.0)
            ap_a, ad_a = _step_lengths(isqrt_pairs, dx_a, dz_a, congruences)
            mu_aff = sum(
                float(np.vdot(x[k] + ap_a * dx_a[k], z[k] + ad_a * dz_a[k]))
                for k in range(nblk)
            ) / ntot
            sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)
            # corrector (recentered target, no second-order term)
            dx, dy, dz = solve_direction(sigma * mu)
            ap, ad = _step_lengths(isqrt_pairs, dx, dz, congruences)
            if ap <= 1e-14 or ad <= 1e-14:
                ended_by = "stall"
                break
            # dX (block-0 fix included) and dZ are exactly symmetric, so
            # plain adds keep the iterates exactly symmetric
            for k in range(nblk):
                x[k] += ap * dx[k]
                z[k] += ad * dz[k]
            y = y + ad * dy
            if float(b @ y) > 1e12 * (1.0 + b_norm):
                ended_by = "infeasible"
                break
        except LinAlgError:
            ended_by = "stall"
            break

    _, gap_rel, rp_norm, rd_norm, pv, dv, rp, rd, x, y, z = best
    if ended_by == "infeasible":
        status = "suspected_infeasible"
    elif gap_rel <= TOL and rp_norm <= 10 * TOL and rd_norm <= 10 * TOL:
        status = "optimal"
    elif ended_by == "max_iterations":
        status = "max_iterations"
    elif gap_rel <= 100 * TOL and rp_norm <= 100 * TOL and rd_norm <= 100 * TOL:
        status = "stalled"
    else:
        status = "numerical_failure"

    # residuals are reported against the caller's (unnormalized) constraints
    return SDPSolution(
        status=status,
        primal_value=pv,
        dual_value=dv,
        gap=gap_rel,
        y=y / norms,
        x_blocks=x,
        z_blocks=z,
        iterations=it,
        stop_reason=ended_by,
        primal_residual=_norm(rp * norms),
        dual_residual=max(_norm(r) for r in rd),
    )
