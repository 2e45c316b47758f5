"""Local refinement of a candidate minimizer inside the control ball.

Each step minimizes the exact quadratic model of p over the whole ball
|z| <= R, the trust-region subproblem solved from one ``eigh`` of the
Hessian (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983), and
backtracks on the segment towards that model minimizer.  The ball is convex,
so every iterate stays in it.  Value, gradient and Hessian come from one call
to :meth:`Polynomial.jet`, which reads them off the polynomial's monomial
table: the derivatives are exact, taken from the exponents, never from finite
differences.
"""

from __future__ import annotations

import numpy as np

from gatesynth.polymat import Polynomial

GRAD_TOL = 1e-12
MAX_STEPS = 50
_EPS = np.finfo(float).eps


def project_to_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """x scaled radially onto the sphere if it lies outside the ball."""
    r = np.linalg.norm(x)
    return x * (radius / r) if r > radius else x


def kkt_residual(g: np.ndarray, x: np.ndarray, radius: float) -> tuple[float, float]:
    """|g + mu x| and mu, with mu = max(0, -g.x)/R^2 on the sphere, 0 inside."""
    on_sphere = np.linalg.norm(x) >= radius * (1 - 1e-12)
    mu = max(0.0, -(g @ x)) / radius**2 if on_sphere else 0.0
    return float(np.linalg.norm(g + mu * x)), mu


def _ball_model_min(w, q, c, radius, tiny):
    """Minimizer of z.Hz/2 + c.z over |z| <= R, given H = q diag(w) q^T.

    z = -(H + lam I)^-1 c: lam = 0 at an interior Newton point, else
    |z| = R and lam solves the secular equation 1/|z(lam)| = 1/R, where
    Newton's method rises monotonically from the left.  In the hard case c
    has no weight on the lowest eigenvector and z fills up to the sphere
    along it.
    """
    ct = q.T @ c
    lam = max(0.0, tiny - w[0])
    zt = -ct / (w + lam)
    n = np.linalg.norm(zt)
    if n <= radius:
        if w[0] < -tiny:
            # the hard case: the sign that lowers the model, + on a tie
            rest = n**2 - zt[0] ** 2
            zt[0] = np.sqrt(max(0.0, radius**2 - rest)) * (1.0 if ct[0] <= 0 else -1.0)
        return q @ zt
    for _ in range(100):
        step = (n - radius) * n * n / (radius * np.sum(ct**2 / (w + lam) ** 3))
        if not lam + step > lam:
            break
        lam += step
        zt = -ct / (w + lam)
        n = np.linalg.norm(zt)
        if n <= radius * (1 + 1e-14):
            break
    return project_to_ball(q @ zt, radius)


def newton_polish(p: Polynomial, x0: np.ndarray, radius: float) -> np.ndarray:
    """Local minimizer of p over the ball |x| <= radius, from x0 projected into it.

    Each step heads for the model minimizer over the ball: the Newton point
    whenever H is positive definite and that point lies inside.  The step
    halves until p falls by 1e-4 of the model's decrease, up to the
    evaluation noise of p; the test is on the whole model, not its linear
    term, because the model minimizer can lie across negative curvature,
    where g.d > 0.  The polish stops at a KKT point of the ball problem
    (``kkt_residual`` at most ``GRAD_TOL`` and H + mu I positive
    semidefinite), when the line search fails, or after ``MAX_STEPS``.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
    m = p.controls
    x = np.array(x0, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"start point must have shape ({m},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("start point must be finite")
    x = project_to_ball(x, radius)

    # value comparisons saturate at the evaluation noise of p itself
    coeff_scale = max((abs(c) for c in p.terms.values()), default=1.0)
    noise = 64 * _EPS * coeff_scale * max(1.0, radius) ** max(1, p.degree())
    for _ in range(MAX_STEPS):
        fx, g, h = p.jet(x)
        w, q = np.linalg.eigh(h)
        tiny = _EPS * max(1.0, float(np.abs(w).max()))
        res, mu = kkt_residual(g, x, radius)
        if res <= GRAD_TOL and w[0] + mu >= -tiny:
            return x
        d = _ball_model_min(w, q, g - h @ x, radius, tiny) - x
        gd, dhd = g @ d, d @ h @ d
        t = 1.0
        for _ in range(60):
            pred = t * gd + 0.5 * t * t * dhd
            if not pred < 0:
                return x
            cand = x + t * d
            if p.eval(cand) <= fx + 1e-4 * pred + noise:
                x = cand
                break
            t *= 0.5
        else:
            return x
    return x
