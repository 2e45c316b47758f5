"""Local refinement of a candidate minimizer by damped Newton descent.

Gradient and Hessian are exact: they come from symbolic differentiation of
the polynomial, evaluated at the iterate, never from finite differences.
"""

from __future__ import annotations

import numpy as np

from gatesynth.polymat import Polynomial

GRAD_TOL = 1e-12
MAX_STEPS = 50


class PolishDivergenceError(RuntimeError):
    """Newton iterate left the trust region around the ball."""


def gradient_polys(p: Polynomial) -> list[Polynomial]:
    return [p.diff(k) for k in range(p.ring.controls)]


def hessian_polys(grads: list[Polynomial]) -> list[list[Polynomial]]:
    m = len(grads)
    return [[grads[i].diff(j) for j in range(m)] for i in range(m)]


def newton_polish(
    p: Polynomial,
    x0: np.ndarray,
    radius: float,
    max_steps: int = MAX_STEPS,
) -> np.ndarray:
    """Drive the gradient of p below ``GRAD_TOL`` starting from x0.

    Newton steps use the exact Hessian with a Levenberg-style diagonal shift
    whenever it is not positive definite, and backtracking on the value.
    Raises PolishDivergenceError if the iterate escapes twice the ball radius.
    """
    m = p.ring.controls
    x = np.array(x0, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"start point must have shape ({m},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("start point must be finite")
    grads = gradient_polys(p)
    hess = hessian_polys(grads)

    def gval(pt):
        return np.array([g.eval(pt).real for g in grads])

    def hval(pt):
        return np.array(
            [[hess[i][j].eval(pt).real for j in range(m)] for i in range(m)]
        )

    # value comparisons saturate at the evaluation noise of p itself
    coeff_scale = max((abs(c) for c in p.terms.values()), default=1.0)
    noise = 64 * np.finfo(float).eps * coeff_scale * max(1.0, radius) ** max(
        1, p.degree()
    )
    fx = p.eval(x).real
    for _ in range(max_steps):
        g = gval(x)
        if np.linalg.norm(g) <= GRAD_TOL:
            return x
        h = hval(x)
        shift = 0.0
        while True:
            try:
                step = np.linalg.solve(h + shift * np.eye(m), -g)
                if g @ step < 0:
                    break
            except np.linalg.LinAlgError:
                pass
            shift = max(2 * shift, 1e-8 * (1 + abs(fx)))
            if shift > 1e12:
                step = -g
                break
        t = 1.0
        for _ in range(60):
            cand = x + t * step
            fc = p.eval(cand).real
            if fc <= fx + 1e-4 * t * (g @ step) + noise:
                x, fx = cand, fc
                break
            t *= 0.5
        else:
            return x
        if np.linalg.norm(x) > 2 * radius:
            raise PolishDivergenceError(
                f"iterate at |x|={np.linalg.norm(x):.3g} left the 2R region"
            )
    return x
