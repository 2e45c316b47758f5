"""Symbolic truncated Magnus series for a single-channel driven Hamiltonian.

The system is H(t) = H0 + E(t) Hc with a control envelope that is either a
polynomial in t with unknown coefficients (continuous case) or a sequence of
per-slice constants (piecewise case, handled by :mod:`gatesynth.bch`).  The
generator A(t) = -i H(t) enters nested ordered-time integrals; carrying one
ring time slot per integration variable lets :func:`simplex_integrate` close
each order into a polynomial in the control variables alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gatesynth.polymat import PolyMatrix, Ring, pm_commutator, simplex_integrate

HERMITICITY_TOL = 1e-12


def hermitian_pair(h0, hc) -> tuple[np.ndarray, np.ndarray]:
    """Read-only complex copies of a drift and a control operator.

    Both must be square, of equal shape, finite and Hermitian.
    """
    h0 = np.array(h0, dtype=complex)
    hc = np.array(hc, dtype=complex)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError("h0 must be square")
    if hc.shape != h0.shape:
        raise ValueError("h0 and hc must have equal shape")
    for name, h in (("h0", h0), ("hc", hc)):
        if not np.isfinite(h).all():
            raise ValueError(f"{name} has non-finite entries")
        defect = np.linalg.norm(h - h.conj().T)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"{name} is not Hermitian: defect {defect:.3e}")
        h.setflags(write=False)
    return h0, hc


@dataclass(frozen=True)
class PolyControl:
    """Envelope E(t) = sum_k x_k t^k with m monomial basis functions."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("polynomial control needs at least one basis function")


@dataclass(frozen=True)
class PiecewiseControl:
    """Envelope constant on m equal slices of the horizon."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("piecewise control needs at least one slice")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Driven two-operator system over a fixed horizon.

    ``h0`` and ``hc`` must be finite and Hermitian of equal dimension;
    ``horizon`` is the total evolution time, finite and positive.
    """

    h0: np.ndarray
    hc: np.ndarray
    horizon: float
    control: PolyControl | PiecewiseControl
    label: str = field(default="")

    def __post_init__(self):
        h0, hc = hermitian_pair(self.h0, self.hc)
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "hc", hc)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def m(self) -> int:
        return self.control.m

    def is_piecewise(self) -> bool:
        return isinstance(self.control, PiecewiseControl)


def _require_poly(spec: ProblemSpec):
    if not isinstance(spec.control, PolyControl):
        raise ValueError("operation requires a polynomial control envelope")


def build_generator(
    spec: ProblemSpec, time_slot: int = 1, time_slots: int | None = None
) -> PolyMatrix:
    """A(t) = -i(H0 + E(t) Hc) with t living in the designated ring time slot.

    The ring carries ``time_slots`` time variables (default: just enough for
    ``time_slot``) so generators at several ordered times can be multiplied.
    """
    _require_poly(spec)
    if time_slots is None:
        time_slots = time_slot
    if not 1 <= time_slot <= time_slots:
        raise ValueError(f"time slot {time_slot} outside 1..{time_slots}")
    m = spec.m
    ring = Ring(m, times=time_slots)
    coeffs: dict[tuple, np.ndarray] = {}
    zero = (0,) * ring.arity
    coeffs[zero] = -1j * spec.h0
    t_index = m + time_slot - 1
    for k in range(m):
        e = [0] * ring.arity
        e[k] = 1
        e[t_index] = k
        key = tuple(e)
        block = -1j * spec.hc
        coeffs[key] = coeffs[key] + block if key in coeffs else block
    return PolyMatrix(ring, spec.dim, coeffs)


def magnus_term(spec: ProblemSpec, k: int) -> PolyMatrix:
    """Order-k term of the Magnus series as a polynomial in the controls.

    The commutator integrand is assembled with k ordered time variables
    (t1 outermost) and integrated over 0 <= t_k <= ... <= t1 <= T.
    """
    _require_poly(spec)
    if k == 1:
        a = build_generator(spec, 1, time_slots=1)
        return simplex_integrate(a, spec.horizon)
    if k == 2:
        at = build_generator(spec, 1, time_slots=2)
        a_s = build_generator(spec, 2, time_slots=2)
        integrand = pm_commutator(at, a_s).scale(0.5)
        return simplex_integrate(integrand, spec.horizon)
    if k == 3:
        at = build_generator(spec, 1, time_slots=3)
        a_s = build_generator(spec, 2, time_slots=3)
        au = build_generator(spec, 3, time_slots=3)
        # nested commutators [A(a), [A(b), A(c)]] at (t,s,u) minus (u,t,s)
        c_tsu = pm_commutator(at, pm_commutator(a_s, au))
        c_uts = pm_commutator(au, pm_commutator(at, a_s))
        integrand = (c_tsu - c_uts).scale(1.0 / 6.0)
        return simplex_integrate(integrand, spec.horizon)
    raise ValueError(f"order {k} outside the implemented range 1..3")


def build_lambda(spec: ProblemSpec, n: int) -> PolyMatrix:
    """Truncated generator: sum of the first n Magnus terms, n in 1..3."""
    _require_poly(spec)
    if not 1 <= n <= 3:
        raise ValueError(f"truncation order {n} outside 1..3")
    total = magnus_term(spec, 1)
    for k in range(2, n + 1):
        total = total + magnus_term(spec, k)
    return total
