"""Moment relaxation of polynomial minimization over a ball.

The order-d relaxation minimizes the linear functional L_y(p) over moment
vectors y with PSD moment matrix M_d(y) and PSD localizing matrix
M_{d-1}((R^2 - |x|^2) y).  It is encoded as a standard-form SDP whose dual
variable IS the moment vector, so the solver returns moments directly and the
primal value yields the certified lower bound p(0)-independent part.  The
solver's dual slack block 0, Z_0 = C_0 - A_0*(y), is M_d(y) up to the dual
residual.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from types import MappingProxyType

import numpy as np
from scipy import sparse

from gatesynth.polymat import Polynomial
from gatesynth.pop.sdp import SDPProblem

# relaxation structures kept, one per (m, order, radius)
_STRUCTURES = 8


def monomials_up_to(m: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors in m variables of total degree <= d, graded order."""
    out = [(0,) * m]
    for total in range(1, d + 1):
        block = []
        for combo in combinations_with_replacement(range(m), total):
            e = [0] * m
            for v in combo:
                e[v] += 1
            block.append(tuple(e))
        out.extend(sorted(block, reverse=True))
    return out


@dataclass(frozen=True, eq=False)
class MomentRelaxation:
    """Index bookkeeping for one relaxation instance.

    ``moment_index`` maps each exponent of degree <= 2*order to its slot in
    the moment vector y (-1 for the constant y_0 = 1), in graded order.  It
    is read-only and shared by every relaxation with the same (m, order,
    radius).  The moment matrix M_d(y) is not rebuilt here: the solver
    returns it as ``SDPSolution.z_blocks[0]``.
    """

    n_vars: int
    order: int
    radius: float
    moment_index: Mapping
    constant_term: float

    def point_moments(self, x: np.ndarray) -> np.ndarray:
        """Moment vector of the point mass at x (for tests and diagnostics)."""
        x = np.asarray(x, dtype=float)
        y = np.empty(len(self.moment_index) - 1)
        for e, idx in self.moment_index.items():
            if idx >= 0:
                y[idx] = float(np.prod(x**np.array(e)))
        return y

    def first_moments(self, y: np.ndarray) -> np.ndarray:
        """Mean of the moment vector: x0..x{m-1} take slots 0..m-1 of graded y."""
        return y[:self.n_vars].copy()


def _split_patterns(s: int, n_y: int, terms) -> tuple[np.ndarray, sparse.csr_array]:
    """Cost block and negated (n_y, s*s) constraint rows of one block.

    ``terms`` pairs an (s, s) array of pattern slots with the value its cells
    take; slot 0 goes to the cost, slot t >= 1 to constraint row t - 1.
    """
    slots = np.concatenate([t.ravel() for t, _ in terms])
    values = np.concatenate([np.full(s * s, v) for _, v in terms])
    cells = np.tile(np.arange(s * s), len(terms))
    fixed = slots == 0
    cost = np.zeros(s * s)
    np.add.at(cost, cells[fixed], values[fixed])
    rows = sparse.csr_array(
        (-values[~fixed], (slots[~fixed] - 1, cells[~fixed])), shape=(n_y, s * s)
    )
    return cost.reshape(s, s), rows


@functools.lru_cache(maxsize=_STRUCTURES)
def _structure(m: int, order: int, radius: float):
    """What the order-``order`` relaxation over the radius ball shares for
    every objective in m variables: a template SDP (b = 0) and the read-only
    ``moment_index``.  ``pair_index[i, j]`` is the slot of basis_i + basis_j
    in (y_0, y), over the graded basis of degree <= order; the localizing
    basis is the leading degree <= order - 1 block of that basis.

    The template builds the solver operators from its blocks, once per key,
    and every relaxation with this key shares them.
    """
    basis = monomials_up_to(m, order)
    n = len(basis)
    nl = comb(m + order - 1, m)
    # moment variables: all monomials of degree 1..2*order (degree 0 is y_0)
    moment_index = {e: k - 1 for k, e in enumerate(monomials_up_to(m, 2 * order))}
    n_y = len(moment_index) - 1
    pair_index = np.array([
        [moment_index[tuple(a + b for a, b in zip(be, ge))] + 1 for ge in basis]
        for be in basis
    ])

    # block k of every pattern as one sparse (moment slot, cell) matrix; a
    # moment cell belongs to one slot, and slot 0 is the fixed y_0 = 1 part,
    # which becomes the cost C.  Each (slot, cell) entry is set once.
    c_mom, a_mom = _split_patterns(n, n_y, [(pair_index, 1.0)])
    # localizing block for g = R^2 - sum x_k^2: basis_i + basis_j + 2 e_k is
    # the pair (basis_i + e_k, basis_j + e_k), both within the degree-order basis
    position = {e: i for i, e in enumerate(basis)}
    loc = [(pair_index[:nl, :nl], radius * radius)]
    for k in range(m):
        shift = [position[e[:k] + (e[k] + 1,) + e[k + 1:]] for e in basis[:nl]]
        loc.append((pair_index[np.ix_(shift, shift)], -1.0))
    c_loc, a_loc = _split_patterns(nl, n_y, loc)
    template = SDPProblem((n, nl), (c_mom, c_loc), (a_mom, a_loc), np.zeros(n_y))
    return template, MappingProxyType(moment_index)


def moment_relax(
    p: Polynomial, radius: float, order: int
) -> tuple[SDPProblem, MomentRelaxation]:
    """Order-``order`` moment relaxation of min p over the radius ball.

    The SDP is the conjugate standard form: C carries the y_0 = 1 pattern,
    each constraint matrix is the negated pattern of one moment variable, and
    b holds the negated objective coefficients.  Lower bound on p equals
    p_constant - primal value; the dual y is the moment vector.

    Everything but b and the constant term depends only on (m, order,
    radius), and relaxations with the same key share it read-only, solver
    operators included: the first call for a key builds them.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
    m = p.ring.controls
    if m < 1:
        raise ValueError("objective needs at least one variable")
    if 2 * order < p.degree():
        raise ValueError(
            f"relaxation order {order} too small for degree {p.degree()}"
        )
    template, moment_index = _structure(m, order, float(radius))
    b = np.zeros(template.n_constraints)
    constant = 0.0
    for e, c in p.terms.items():
        idx = moment_index[e]
        if idx < 0:
            constant = c
        else:
            b[idx] = -c
    relax = MomentRelaxation(
        n_vars=m,
        order=order,
        radius=radius,
        moment_index=moment_index,
        constant_term=constant,
    )
    return template._with_rhs(b), relax

