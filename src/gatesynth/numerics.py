"""Numerical ground truth: exponentials, reference propagation, the action.

These routines are the oracles the symbolic generators are judged against, so
they favor verifiable accuracy over speed: unitarity-exact exponentials, a
4th-order commutator-free Magnus stepper that doubles its step count from 128
until two successive results agree (and raises past a fixed number of
doublings), and the action integral by scipy's QUADPACK, whose reported
failure is raised.  The stepper and the piecewise propagator share
one kernel, a product of exact slice unitaries formed in chunks of bounded
size, so their outputs are unitary at any step count and their memory does
not grow with it.  They stay numerical and apart from the symbolic Magnus
expansion in ``gatesynth.magnus``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from gatesynth.magnus import ProblemSpec
from gatesynth.polymat import control_values

ANTIHERM_TOL = 1e-10
STEP_DOUBLING_TOL = 1e-10
# cf4_propagate at 128 against 256 steps, T=0.5, m=3, controls of trials 0-4
# of base seed 0: the largest doubling defect is 3.8e-13 on the three-level
# system and 6.3e-12, 1.2e-11, 2.2e-11 on Ising chains of 2, 3, 4 qubits
DEFAULT_STEPS = 128
# step doublings propagate_reference makes before it gives up (finest grid
# 128 * 2^6 = 8192 steps); controls of trials 0-9 of base seed 0, m=3, T=2
# agree by 256 against 512 steps on the three-level system and by 512
# against 1024 on an Ising chain of 3 qubits
MAX_DOUBLINGS = 6
# Gauss-Legendre nodes on [0, 1] and the weights of the 4th-order
# commutator-free Magnus step built on them
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0,
                (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)
# matrix entries of the slice exponentials formed at once (16 MiB of
# complex128); Ising N=7 at 256 steps then forms 8 chunks of 64 slices
_CHUNK_ENTRIES = 1 << 20


class PropagationError(RuntimeError):
    """Reference propagation missed its step-doubling tolerance at every grid."""


class QuadratureError(RuntimeError):
    """QUADPACK (``scipy.integrate.quad``) reported that the action integral
    missed its tolerance; the message is QUADPACK's."""


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


def _slice_product(h0, hc, coeffs: np.ndarray, h: float) -> np.ndarray:
    """Ordered product of exp(-i h (h0 + c hc)) over coeffs, first on the right.

    The slices are formed by batched eigh and multiplied in aligned
    power-of-two chunks of at most ``_CHUNK_ENTRIES`` entries, and the chunk
    products are tree-multiplied.  Aligned chunks pair the slices exactly as
    one ``_tree_product`` over all of them, so the result is bit-identical at
    any chunk size.
    """
    chunk = 1 << max(0, (_CHUNK_ENTRIES // h0.size).bit_length() - 1)
    products = []
    for lo in range(0, coeffs.shape[0], chunk):
        c = coeffs[lo : lo + chunk]
        w, v = np.linalg.eigh(h0[None, :, :] + c[:, None, None] * hc[None, :, :])
        phases = np.exp(-1j * h * w)
        products.append(_tree_product(
            (v * phases[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))))
    return _tree_product(np.stack(products))


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
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = control_values(spec.m, x)
    h = spec.horizon / steps
    starts = np.arange(steps) * h
    e1 = polyval(starts + _GAUSS_NODES[0] * h, x)
    e2 = polyval(starts + _GAUSS_NODES[1] * h, x)
    a1, a2 = _CF4_WEIGHTS
    # interleaved per step, so the product applies each step's first factor
    # before its second
    coeffs = np.stack([a2 * e1 + a1 * e2, a1 * e1 + a2 * e2], axis=1).ravel()
    return _slice_product(0.5 * spec.h0, spec.hc, coeffs, h)


def propagate_piecewise(spec: ProblemSpec, x) -> np.ndarray:
    """Exact product of per-slice exponentials for a piecewise-constant drive."""
    x = control_values(spec.m, x)
    return _slice_product(spec.h0, spec.hc, x, spec.horizon / spec.m)


def propagate_reference(spec: ProblemSpec, x) -> np.ndarray:
    """Reference unitary U(T) for the driven system.

    Piecewise drives use exact slice exponentials.  Polynomial drives use the
    4th-order commutator-free Magnus stepper (``cf4_propagate``), starting at
    ``DEFAULT_STEPS`` and doubling the step count until two successive results
    agree in Frobenius norm to within ``STEP_DOUBLING_TOL``; the finer of the
    two is returned.  After ``MAX_DOUBLINGS`` doublings without agreement
    ``PropagationError`` is raised.
    """
    if spec.is_piecewise():
        return propagate_piecewise(spec, x)
    steps = DEFAULT_STEPS
    coarse = cf4_propagate(spec, x, steps)
    for _ in range(MAX_DOUBLINGS):
        fine = cf4_propagate(spec, x, 2 * steps)
        defect = np.linalg.norm(coarse - fine)
        if defect <= STEP_DOUBLING_TOL:
            return fine
        coarse, steps = fine, 2 * steps
    raise PropagationError(
        f"step-doubling defect {defect:.3e} above {STEP_DOUBLING_TOL:g} "
        f"at steps={steps // 2} against {steps}"
    )


def action_integral(spec: ProblemSpec, x) -> float:
    """Integral of the generator's spectral norm over the horizon.

    Values below pi are the Magnus convergence regime.  Piecewise drives sum
    exact per-slice contributions.  Polynomial drives are integrated by
    QUADPACK (``scipy.integrate.quad``) to absolute error 1e-8, and a reported
    failure raises ``QuadratureError``.
    """
    x = control_values(spec.m, x)
    if spec.is_piecewise():
        dt = spec.horizon / spec.m
        return float(sum(dt * np.linalg.norm(spec.h0 + xi * spec.hc, 2) for xi in x))

    def integrand(t):
        return np.linalg.norm(spec.h0 + polyval(t, x) * spec.hc, 2)

    out = quad(integrand, 0.0, spec.horizon, epsabs=1e-8, epsrel=0, full_output=1)
    if len(out) == 4:
        # QUADPACK's message spans lines; the CLI prints the error on one
        message = " ".join(out[3].split())
        raise QuadratureError(f"action integral over [0, {spec.horizon}]: {message}")
    return float(out[0])
