"""Global minimization of the synthesis objective over a control ball.

Pipeline: one moment relaxation at the base order -> interior-point SDP ->
one in-ball polish from the first-order moments.  The SDP yields the
certified lower bound; the moment point and its polish are the candidates,
and the gap ``value - bound`` alone sets the status: it certifies the
lower-valued of them, or marks the result ``uncertified`` when it exceeds
``GAP_TOL``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from gatesynth.polymat import Polynomial
from gatesynth.pop.polish import newton_polish, project_to_ball
from gatesynth.pop.relax import moment_relax
from gatesynth.pop.sdp import BOUND_STATUSES, SDPSolution, sdp_solve

GAP_TOL = 1e-4


@dataclass
class SynthesisResult:
    x: np.ndarray | None
    value: float
    bound: float
    status: str
    order: int
    radius: float
    timings: dict = field(default_factory=dict)
    sdp: SDPSolution | None = None

    @property
    def gap(self) -> float:
        return self.value - self.bound


def relaxation_setup(
    p: Polynomial, radius: float | None = None, order: int | None = None
) -> tuple[Polynomial, float, float, int]:
    """Scaled objective, scale, ball radius and relaxation order for p.

    The SDP sees p divided by its largest coefficient magnitude (moments are
    scale-invariant).  The radius defaults to 1.05 sqrt(m) and the order to
    the base order ceil(deg/2).
    """
    if radius is None:
        radius = math.sqrt(p.controls) * 1.05
    deg = p.degree()
    if order is None:
        order = max(1, (deg + 1) // 2)
    scale = max((abs(c) for c in p.terms.values()), default=1.0) or 1.0
    return p * (1.0 / scale), scale, radius, order


def _certified_bound(relax, sol, scale: float) -> float:
    """Lower bound on p over the ball, valid for any PSD solver iterate.

    The PSD blocks of X define a polynomial that is nonnegative on the ball
    by construction; matching its coefficients against p leaves the primal
    residual, whose worst-case effect over the ball is ||rp|| times the peak
    norm of the monomial vector, K = sqrt(sum_a R^(2|a|)).
    """
    ksq = 0.0
    for e in relax.moment_index:
        if sum(e) > 0:
            ksq += relax.radius ** (2 * sum(e))
    return scale * (
        relax.constant_term
        - sol.primal_value
        - math.sqrt(ksq) * sol.primal_residual
    )


def minimize_global(
    p: Polynomial,
    radius: float | None = None,
    order: int | None = None,
) -> SynthesisResult:
    """Certified global minimum of a real polynomial over the radius ball.

    One SDP at ``order`` (default ceil(deg/2)) gives the bound, and its
    first-order moments, projected into the ball, start one polish that
    stays in the ball; the lower-valued of the moment point and its polish
    is the result.  The status is ``failed`` when the SDP status carries no
    bound, else ``polished`` (certified) when the gap is at most
    ``GAP_TOL``, else ``uncertified``.  The moment matrix M_d(y), for a
    flat-extension or rank check, is ``result.sdp.z_blocks[0]``.
    """
    p_scaled, scale, radius, d = relaxation_setup(p, radius, order)
    t0 = time.perf_counter()
    prob, relax = moment_relax(p_scaled, radius, d)
    t1 = time.perf_counter()
    sol = sdp_solve(prob)
    t2 = time.perf_counter()
    timings = {"relax": t1 - t0, "solve": t2 - t1, "polish": 0.0}

    bound = -math.inf
    x_best, value = None, math.inf
    status = "failed"
    if sol.status in BOUND_STATUSES:
        bound = _certified_bound(relax, sol, scale)
        x_start = project_to_ball(relax.first_moments(sol.y), radius)
        t3 = time.perf_counter()
        x_pol = newton_polish(p, x_start, radius)
        timings["polish"] = time.perf_counter() - t3
        # the lower value wins, the moment point on a tie
        x_best, value = min(
            ((x, p.eval(x)) for x in (x_start, x_pol)), key=lambda c: c[1]
        )
        status = "polished" if value - bound <= GAP_TOL else "uncertified"
    return SynthesisResult(
        x=x_best,
        value=value,
        bound=bound,
        status=status,
        order=d,
        radius=radius,
        timings=timings,
        sdp=sol,
    )


def ball_scan_minimum(
    p: Polynomial, radius: float, count: int = 1_000_000, seed: int = 7
) -> float:
    """Minimum of p over a deterministic uniform sample of the ball."""
    m = p.controls
    rng = np.random.default_rng(seed)
    best = math.inf
    chunk = 200_000
    done = 0
    while done < count:
        k = min(chunk, count - done)
        g = rng.standard_normal((k, m))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = radius * rng.random(k) ** (1.0 / m)
        pts = g * r[:, None]
        vals = p.eval_many(pts)
        best = min(best, float(vals.min()))
        done += k
    best = min(best, p.eval(np.zeros(m)))
    return best
