"""Numerical ground truth: exponentials, reference propagation, norms.

These routines are the oracles the symbolic generators are judged against, so
they favor verifiable accuracy over speed: unitarity-exact exponentials, a
midpoint rule with mandatory step-doubling verification, and quadrature with
an explicit failure mode.
"""

from __future__ import annotations

import numpy as np

from gatesynth.magnus import ProblemSpec

ANTIHERM_TOL = 1e-10
STEP_DOUBLING_TOL = 1e-10
# 4096 steps leave a doubling defect of 3-7e-10 for the three-level system at
# T=0.5 inside the convergence region; 16384 brings it under the tolerance.
DEFAULT_STEPS = 16384
# interval halvings adaptive Simpson may make before it gives up
SIMPSON_MAX_DEPTH = 40


class PropagationError(RuntimeError):
    """Reference propagation failed its step-doubling self-check."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature exceeded its subdivision budget."""


def expm_antihermitian(m: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian matrix via eigenphases."""
    m = np.asarray(m, dtype=complex)
    defect = np.linalg.norm(m + m.conj().T)
    if defect > ANTIHERM_TOL:
        raise ValueError(f"matrix is not anti-Hermitian: defect {defect:.3e}")
    herm = 1j * m
    herm = 0.5 * (herm + herm.conj().T)
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _envelope(spec: ProblemSpec, x: np.ndarray, t):
    """E(t) for a polynomial control at scalar or vector t."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t)
    for k in range(spec.m - 1, -1, -1):
        acc = acc * t + x[k]
    return acc


def _tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise halving."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        half = n // 2
        paired = mats[1 : 2 * half : 2] @ mats[0 : 2 * half : 2]
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def midpoint_propagate(spec: ProblemSpec, x, steps: int) -> np.ndarray:
    """Single-resolution exponential-midpoint propagator (no self-check).

    Each step applies the exact unitary of the Hamiltonian frozen at the step
    midpoint, so the output is unitary regardless of step count.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"expected {spec.m} control values, got shape {x.shape}")
    if spec.m == 1:
        # constant envelope: the midpoint product telescopes to one exponential
        return expm_antihermitian(
            -1j * spec.horizon * (spec.h0 + x[0] * spec.hc)
        )
    h = spec.horizon / steps
    mids = (np.arange(steps) + 0.5) * h
    env = _envelope(spec, x, mids)
    hams = spec.h0[None, :, :] + env[:, None, None] * spec.hc[None, :, :]
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * h * w)
    slices = (v * phases[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    return _tree_product(slices)


def propagate_piecewise(spec: ProblemSpec, x) -> np.ndarray:
    """Exact product of per-slice exponentials for a piecewise-constant drive."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"expected {spec.m} control values, got shape {x.shape}")
    dt = spec.horizon / spec.m
    u = np.eye(spec.dim, dtype=complex)
    for xi in x:
        u = expm_antihermitian(-1j * dt * (spec.h0 + xi * spec.hc)) @ u
    return u


def propagate_reference(spec: ProblemSpec, x, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Reference unitary U(T) for the driven system.

    Piecewise drives use exact slice exponentials.  Polynomial drives use the
    exponential-midpoint rule at ``steps`` and ``2*steps`` resolutions; the two
    results must agree to within the step-doubling tolerance, and the finer one
    is returned.
    """
    if spec.is_piecewise():
        return propagate_piecewise(spec, x)
    coarse = midpoint_propagate(spec, x, steps)
    fine = midpoint_propagate(spec, x, 2 * steps)
    defect = np.linalg.norm(coarse - fine)
    if defect > STEP_DOUBLING_TOL:
        raise PropagationError(
            f"step-doubling defect {defect:.3e} above {STEP_DOUBLING_TOL:g} "
            f"at steps={steps}"
        )
    return fine


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD)."""
    return float(np.linalg.norm(m, 2))


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(f"adaptive quadrature failed on [{a}, {b}]")
    return _adaptive_simpson(
        f, a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8):
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance."""
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, SIMPSON_MAX_DEPTH)


def action_integral(spec: ProblemSpec, x) -> float:
    """Integral of the generator's spectral norm over the horizon.

    Values below pi are the Magnus convergence regime.  Piecewise drives sum
    exact per-slice contributions; polynomial drives are integrated adaptively.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"expected {spec.m} control values, got shape {x.shape}")
    if spec.is_piecewise():
        dt = spec.horizon / spec.m
        return float(
            sum(dt * spectral_norm(spec.h0 + xi * spec.hc) for xi in x)
        )

    def integrand(t):
        return spectral_norm(spec.h0 + _envelope(spec, x, t) * spec.hc)

    return float(adaptive_simpson(integrand, 0.0, spec.horizon, tol=1e-8))
