"""Checks made apart from the program under test.

Propagation here never goes through ``gatesynth.numerics``: polynomial drives
are integrated with ``scipy.integrate.solve_ivp`` on the Schrodinger
equation, piecewise drives are products of ``scipy.linalg.expm`` slices, and
target generators are principal logarithms taken from a complex Schur form.
Objective values are recomputed with numpy from the generator matrix at a
point, never through the objective polynomial.  Each check returns the list
of reasons it rejects an output; an empty list accepts it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, schur

INFIDELITY_MAX = 1e-5       # criterion 1/2 recovery level
INFIDELITY_AGREE = 1e-8     # program-reported infidelity vs independent one
CERT_TOL = 1e-8             # slack in the certificate inequalities
OBJECTIVE_RTOL = 1e-9       # objective polynomial vs numpy Frobenius norm
INTERP_TOL = 1e-10          # exact-interpolation target: p(x*) ~ 0
PLANTED_OK = ("rank-1", "polished")
CERTIFY_OK = ("optimal", "stalled", "max_iterations")
BALL_SAMPLE = 64


def propagate_poly(h0, hc, horizon, x) -> np.ndarray:
    """U(T) for E(t) = sum_k x_k t^k by an 8th-order Runge-Kutta integration."""
    d = h0.shape[0]
    coeffs = np.asarray(x, dtype=float)[::-1]

    def rhs(t, u):
        return (-1j * (h0 + np.polyval(coeffs, t) * hc) @ u.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (0.0, horizon), np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"independent propagation failed: {sol.message}")
    return sol.y[:, -1].reshape(d, d)


def propagate_slices(h0, hc, horizon, x) -> np.ndarray:
    """Product of per-slice exponentials, later slices applied on the left."""
    x = np.asarray(x, dtype=float)
    dt = horizon / len(x)
    u = np.eye(h0.shape[0], dtype=complex)
    for xi in x:
        u = expm(-1j * dt * (h0 + xi * hc)) @ u
    return u


def principal_generator(u: np.ndarray) -> np.ndarray:
    """Anti-Hermitian principal logarithm of a unitary via complex Schur."""
    t, z = schur(u, output="complex")
    return (z * (1j * np.angle(np.diag(t)))[None, :]) @ z.conj().T


def gate_infidelity(u: np.ndarray, v: np.ndarray) -> float:
    return float(1.0 - abs(np.trace(v.conj().T @ u)) / u.shape[0])


def frobenius_sq(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a) ** 2))


def ball_sample(m: int, radius: float, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (radius * rng.random(count) ** (1.0 / m))[:, None]


def check_planted(*, status, x_star, x_hat, value, bound, infid_reported,
                  propagate, generator_at) -> tuple[list, float]:
    """Reasons to reject one planted-target trial, and its independent infidelity.

    ``propagate(x)`` is an independent propagator of the spec and
    ``generator_at(x)`` the program's generator matrix at x.
    """
    if status not in PLANTED_OK:
        return [f"status {status!r}"], math.nan
    reasons = []
    u_star = propagate(x_star)
    infid = gate_infidelity(propagate(x_hat), u_star)
    if not infid <= INFIDELITY_MAX:
        reasons.append(f"infidelity {infid:.3e} above {INFIDELITY_MAX:g}")
    if not abs(infid - infid_reported) <= INFIDELITY_AGREE:
        reasons.append(f"reported infidelity {infid_reported:.3e} != {infid:.3e}")
    omega = principal_generator(u_star)
    p_star = frobenius_sq(generator_at(x_star) - omega)
    p_hat = frobenius_sq(generator_at(x_hat) - omega)
    if not abs(value - p_hat) <= OBJECTIVE_RTOL * (1.0 + p_hat):
        reasons.append(f"value {value:.3e} != ||G(x)-W||^2 = {p_hat:.3e}")
    if not bound <= value + CERT_TOL:
        reasons.append(f"bound {bound:.3e} above value {value:.3e}")
    if not bound <= p_star:
        reasons.append(f"bound {bound:.3e} above p(x*) {p_star:.3e}")
    if not value <= p_star + CERT_TOL:
        reasons.append(f"value {value:.3e} above p(x*) {p_star:.3e}")
    return reasons, infid


def check_certificate(*, status, x_star, omega, bound, objective, generator_at,
                      sample) -> list:
    """Reasons to reject one single-shot certificate on an exact target."""
    if status not in CERTIFY_OK:
        return [f"status {status!r}"]
    reasons = []
    p_star = frobenius_sq(generator_at(x_star) - omega)
    if not p_star <= INTERP_TOL * (1.0 + frobenius_sq(omega)):
        reasons.append(f"target not interpolated at x*: p(x*) = {p_star:.3e}")
    if not bound <= p_star + CERT_TOL:
        reasons.append(f"bound {bound:.3e} above p(x*) {p_star:.3e}")
    values = np.array([frobenius_sq(generator_at(x) - omega) for x in sample])
    if not bound <= values.min():
        reasons.append(f"bound {bound:.3e} above sampled minimum {values.min():.3e}")
    poly = np.array([objective.eval(x).real for x in sample])
    worst = np.max(np.abs(poly - values) / (1.0 + values))
    if not worst <= OBJECTIVE_RTOL:
        reasons.append(f"objective polynomial off by {worst:.3e} (relative)")
    return reasons


def certified_bound(relax, sol, scale: float) -> float:
    """Lower bound on p over the ball from public solver and relaxation fields.

    bound = scale * (c0 - <C, X> - K ||A(X) - b||), K = sqrt(sum_a R^(2|a|))
    over the nonzero moment exponents a: the PSD iterate certifies
    c0 - <C, X> up to the primal residual, whose worst effect over the ball
    is K times its norm.
    """
    ksq = sum(relax.radius ** (2 * sum(e)) for e in relax.moment_index if sum(e) > 0)
    return scale * (relax.constant_term - sol.primal_value
                    - math.sqrt(ksq) * sol.primal_residual)


def self_test(check, good: dict, tampered: dict) -> list:
    """Failures of the self-test: the good output must pass, each tampered fail."""
    problems = []
    reasons = check(**good)
    if reasons:
        problems.append(f"untampered output rejected: {reasons}")
    for label, kwargs in tampered.items():
        if not check(**kwargs):
            problems.append(f"{label} was accepted")
    return problems
