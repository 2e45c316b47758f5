"""Numerical ground truth: exponentials, reference propagation, norms.

These routines are the oracles the symbolic generators are judged against, so
they favor verifiable accuracy over speed: unitarity-exact exponentials, a
4th-order commutator-free Magnus stepper whose result must pass a mandatory
step-doubling check, an independent second-order exponential-midpoint stepper
to cross-check it, and quadrature with an explicit failure mode.  Both
steppers are products of exact slice unitaries, so their outputs are unitary
at any step count.  They stay numerical and apart from the symbolic Magnus
expansion in ``gatesynth.magnus``.
"""

from __future__ import annotations

import numpy as np

from gatesynth.magnus import ProblemSpec

ANTIHERM_TOL = 1e-10
STEP_DOUBLING_TOL = 1e-10
# cf4_propagate at 128 against 256 steps, T=0.5, m=3, controls of trials 0-4
# of base seed 0: the largest doubling defect is 3.8e-13 on the three-level
# system and 6.3e-12, 1.2e-11, 2.2e-11 on Ising chains of 2, 3, 4 qubits
DEFAULT_STEPS = 128
# Gauss-Legendre nodes on [0, 1] and the weights of the 4th-order
# commutator-free Magnus step built on them
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0,
                (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)
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


def _checked_controls(spec: ProblemSpec, x, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"expected {spec.m} control values, got shape {x.shape}")
    return x


def _constant_drive(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """exp(-i T (H0 + x0 Hc)): any step product telescopes to it at m=1."""
    return expm_antihermitian(-1j * spec.horizon * (spec.h0 + x[0] * spec.hc))


def _slice_exponentials(h0, hc, coeffs: np.ndarray, h: float) -> np.ndarray:
    """exp(-i h (h0 + c hc)) for every c in coeffs, by one batched eigh."""
    hams = h0[None, :, :] + coeffs[:, None, None] * hc[None, :, :]
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * h * w)
    return (v * phases[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def midpoint_propagate(spec: ProblemSpec, x, steps: int) -> np.ndarray:
    """Single-resolution exponential-midpoint propagator (no self-check).

    Each step applies the exact unitary of the Hamiltonian frozen at the step
    midpoint, so the output is unitary regardless of step count.  The global
    error is second order in the step size.
    """
    x = _checked_controls(spec, x, steps)
    if spec.m == 1:
        return _constant_drive(spec, x)
    h = spec.horizon / steps
    env = _envelope(spec, x, (np.arange(steps) + 0.5) * h)
    return _tree_product(_slice_exponentials(spec.h0, spec.hc, env, h))


def cf4_propagate(spec: ProblemSpec, x, steps: int) -> np.ndarray:
    """Single-resolution 4th-order commutator-free Magnus propagator.

    Each step of size h at t_n applies two exponentials, first
    exp(-i h (H0/2 + (a2 E(t1) + a1 E(t2)) Hc)) and then
    exp(-i h (H0/2 + (a1 E(t1) + a2 E(t2)) Hc)), with Gauss-Legendre nodes
    t1,2 = t_n + (1/2 -+ sqrt(3)/6) h and weights a1,2 = (3 -+ 2 sqrt(3))/12
    (Blanes & Moan, Appl. Numer. Math. 56, 2006; Alvermann & Fehske,
    J. Comput. Phys. 230, 2011).  Every factor is an exact unitary, and the
    global error is fourth order in h.  No self-check.
    """
    x = _checked_controls(spec, x, steps)
    if spec.m == 1:
        return _constant_drive(spec, x)
    h = spec.horizon / steps
    starts = np.arange(steps) * h
    e1 = _envelope(spec, x, starts + _GAUSS_NODES[0] * h)
    e2 = _envelope(spec, x, starts + _GAUSS_NODES[1] * h)
    a1, a2 = _CF4_WEIGHTS
    # interleaved per step, so _tree_product applies each step's first
    # factor before its second
    coeffs = np.stack([a2 * e1 + a1 * e2, a1 * e1 + a2 * e2], axis=1).ravel()
    return _tree_product(_slice_exponentials(0.5 * spec.h0, spec.hc, coeffs, h))


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
    4th-order commutator-free Magnus stepper (``cf4_propagate``) at ``steps``
    and ``2*steps`` resolutions; the two results must agree in Frobenius norm
    to within ``STEP_DOUBLING_TOL`` or ``PropagationError`` is raised, and the
    finer one is returned.  A constant envelope (m=1) is one exact exponential.
    """
    if spec.is_piecewise():
        return propagate_piecewise(spec, x)
    coarse = cf4_propagate(spec, x, steps)
    fine = cf4_propagate(spec, x, 2 * steps)
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
