"""Global minimization of the synthesis objective over a control ball.

Pipeline: one moment relaxation at the base order -> interior-point SDP ->
Newton polish from the first-order moments.  The SDP yields the certified
lower bound; the moment point and its polish are the candidates, and the gap
``value - bound`` certifies the best of them.  Deterministic multi-start
polish runs only when that gap exceeds ``GAP_TOL``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from gatesynth.polymat import Polynomial
from gatesynth.pop.polish import PolishDivergenceError, newton_polish
from gatesynth.pop.relax import extract_minimizer, moment_relax
from gatesynth.pop.sdp import BOUND_STATUSES, SDPSolution, sdp_solve

MULTISTART_SEED = 0xC0FFEE
MULTISTART_COUNT = 32
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
        radius = math.sqrt(p.ring.controls) * 1.05
    deg = p.degree()
    if order is None:
        order = max(1, (deg + 1) // 2)
    if 2 * order < deg:
        raise ValueError(f"relaxation order {order} too small for degree {deg}")
    coeffs = p.real_coeff_dict().values()
    scale = max((abs(c) for c in coeffs), default=1.0) or 1.0
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


def _multistart_points(m: int, radius: float) -> np.ndarray:
    """32 scrambled low-discrepancy starts in the cube inscribed in the ball."""
    # imported here: scipy.stats takes about 0.7 s to import, two thirds of
    # `import gatesynth`, and only the multi-start needs it
    from scipy.stats import qmc

    sob = qmc.Sobol(d=m, scramble=True, seed=MULTISTART_SEED)
    u = sob.random(MULTISTART_COUNT)
    half = radius / math.sqrt(m)
    return (2.0 * u - 1.0) * half


def _merge_candidates(p: Polynomial, cands: list[np.ndarray]):
    """Lowest value wins; exact value ties break by lexicographic order."""
    best = None
    for x in cands:
        v = p.eval(x).real
        key = (v, tuple(x))
        if best is None or key < best[0]:
            best = (key, x, v)
    if best is None:
        return None, math.inf
    return best[1], best[2]


def minimize_global(
    p: Polynomial,
    radius: float | None = None,
    order: int | None = None,
) -> SynthesisResult:
    """Certified global minimum of a real polynomial over the radius ball.

    One SDP at ``order`` (default ceil(deg/2)) gives the bound, and its
    first-order moments start one Newton polish; the unpolished moment point
    stays a candidate next to the polished one.  The status is ``rank-1``
    when that moment matrix is numerically rank one, else ``polished``, and
    ``failed`` when the SDP fails.  The multi-start runs only when the best
    candidate's gap exceeds ``GAP_TOL``; its points compete on value.
    """
    p_scaled, scale, radius, d = relaxation_setup(p, radius, order)
    t0 = time.perf_counter()
    prob, relax = moment_relax(p_scaled, radius, d)
    t1 = time.perf_counter()
    sol = sdp_solve(prob)
    t2 = time.perf_counter()
    timings = {"relax": t1 - t0, "solve": t2 - t1, "extract": 0.0, "polish": 0.0}

    bound = -math.inf
    x_start = None
    status = "failed"
    if sol.status in BOUND_STATUSES:
        bound = _certified_bound(relax, sol, scale)
        rank1 = extract_minimizer(relax, sol.y) is not None
        status = "rank-1" if rank1 else "polished"
        x_start = relax.first_moments(sol.y)
        timings["extract"] = time.perf_counter() - t2

    t0 = time.perf_counter()
    cands = []
    if x_start is not None:
        cands.append(x_start)
        try:
            cands.append(newton_polish(p, x_start, radius))
        except PolishDivergenceError:
            pass
    moment_cands = list(cands)
    x_best, value = _merge_candidates(p, cands)
    if x_best is None or value - bound > GAP_TOL:
        # the moment candidates are not certified: deterministic multi-start
        for x0 in _multistart_points(p.ring.controls, radius):
            try:
                cands.append(newton_polish(p, x0, radius))
            except PolishDivergenceError:
                continue
        x_best, value = _merge_candidates(p, cands)
        if all(x_best is not c for c in moment_cands):
            status = "polished"
    timings["polish"] = time.perf_counter() - t0
    if bound == -math.inf:
        status = "failed"
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
    m = p.ring.controls
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
        vals = p.eval_many(pts).real
        best = min(best, float(vals.min()))
        done += k
    best = min(best, p.eval(np.zeros(m)).real)
    return best
