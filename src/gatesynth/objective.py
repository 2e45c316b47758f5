"""Objective construction and gate fidelity metrics.

Bridges the symbolic side (a truncated generator polynomial in the controls)
and a concrete target unitary: the target's principal logarithm is subtracted
from the generator and the squared Frobenius norm closed into a real
polynomial objective whose zeros are exact generator matches.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import schur

from gatesynth.polymat import Polynomial, PolyMatrix, frobenius_sq

UNITARITY_TOL = 1e-10
BRANCH_MARGIN = 1e-9


class BranchAmbiguityError(ValueError):
    """An eigenphase sits on the logarithm branch cut."""


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    return u


def principal_log(u: np.ndarray) -> np.ndarray:
    """Anti-Hermitian principal logarithm of a unitary.

    A unitary is normal, so its complex Schur form ``u = Z T Z†`` has T
    diagonal and Z an orthonormal eigenbasis, also inside clusters of equal
    or nearly equal eigenvalues.  Eigenphases are taken in (-pi, pi]; any
    phase within ``BRANCH_MARGIN`` of the cut at pi raises
    :class:`BranchAmbiguityError`.  The result is symmetrized exactly.
    """
    u = _check_unitary(u)
    t, z = schur(u, output="complex")
    theta = np.angle(np.diag(t))
    if np.any(np.abs(theta) > np.pi - BRANCH_MARGIN):
        worst = float(np.abs(theta).max())
        raise BranchAmbiguityError(
            f"eigenphase magnitude {worst:.12f} within {BRANCH_MARGIN:g} of the "
            "branch cut at pi"
        )
    omega = (z * (1j * theta)[None, :]) @ z.conj().T
    return 0.5 * (omega - omega.conj().T)


def build_objective(g: PolyMatrix, omega: np.ndarray) -> Polynomial:
    """Real polynomial ||G(x) - omega||_F^2 over the control variables."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (g.dim, g.dim):
        raise ValueError(
            f"target shape {omega.shape} does not match generator dim {g.dim}"
        )
    diff = g - PolyMatrix.constant(g.controls, omega)
    return frobenius_sq(diff)


def infidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive gate infidelity 1 - |Tr(V†U)|/d, clipped to [0, 1]."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    overlap = abs(np.trace(v.conj().T @ u)) / d
    return float(min(max(1.0 - overlap, 0.0), 1.0))
