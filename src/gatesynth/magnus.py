"""Symbolic truncated Magnus series for a single-channel driven Hamiltonian.

The system is H(t) = H0 + E(t) Hc with a control envelope that is either a
polynomial in t with unknown coefficients (continuous case) or a sequence of
per-slice constants (piecewise case, handled by :mod:`gatesynth.bch`).  The
generator A(t) = -i H(t) = G0 + E(t) Gc enters nested ordered-time integrals.
Every Magnus term is a Lie polynomial in G0 = -i H0 and Gc = -i Hc whose
coefficients are iterated integrals of the envelope (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 2009), so each order is built in closed form: fixed
numeric commutators of G0 and Gc, each scaled by a scalar envelope integral.
For a polynomial envelope each such integral is a sum of monomial weights
T^p/q that :func:`magnus_term` computes directly, so no polynomial carries a
time variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from gatesynth.polymat import PolyMatrix

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


def _nested_commutator(ops, choice: tuple[int, ...], memo: dict) -> np.ndarray:
    """Right-nested commutator [A_c1, [A_c2, ... A_ck]] of ``ops`` for the
    operand choice (c1, ..., ck), each distinct one formed once in ``memo``."""
    if choice not in memo:
        if len(choice) == 1:
            memo[choice] = ops[choice[0]]
        else:
            p, q = ops[choice[0]], _nested_commutator(ops, choice[1:], memo)
            memo[choice] = p @ q - q @ p
    return memo[choice]


def _simplex_weight(time_exps: tuple[int, ...]) -> tuple[int, int]:
    """Iterated ordered integration of t1^a1 ... tk^ak over 0<=tk<=...<=t1<=T.

    Integrating innermost-first, each level contributes a factor 1/(e+1) and
    raises the next-outer exponent by e+1.  Returns (power, denominator) with
    the integral equal to T**power / denominator.
    """
    carry = 0
    denom = 1
    for a in reversed(time_exps):
        e = a + carry
        denom *= e + 1
        carry = e + 1
    return carry, denom


def magnus_term(spec: ProblemSpec, k: int) -> PolyMatrix:
    """Order-k term of the Magnus series as a polynomial in the controls.

    The integrand (A1 at order 1, [A1,A2]/2 at order 2, and
    ([A1,[A2,A3]] - [A3,[A1,A2]])/6 at order 3, with Aj = G0 + E(tj) Gc) is
    multilinear in the Aj.  Each choice of G0 or Gc per slot therefore gives
    one fixed nested commutator times the product of the envelopes E(tj) at
    the Gc slots, integrated over 0 <= tk <= ... <= t1 <= T.  With
    E(t) = sum_i x_i t^i, each tuple of envelope powers at the Gc slots
    contributes the monomial weight T**power / denom to the control monomial
    that counts those powers.  Each distinct nested commutator is formed once
    per term.
    """
    _require_poly(spec)
    if not 1 <= k <= 3:
        raise ValueError(f"order {k} outside the implemented range 1..3")
    m = spec.m
    ops = (-1j * spec.h0, -1j * spec.hc)
    memo: dict[tuple[int, ...], np.ndarray] = {}
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    for choice in itertools.product((0, 1), repeat=k):
        lie = _nested_commutator(ops, choice, memo)
        if k == 2:
            lie = 0.5 * lie
        elif k == 3:
            c1, c2, c3 = choice
            lie = (1.0 / 6.0) * (lie - _nested_commutator(ops, (c3, c1, c2), memo))
        if not lie.any():
            continue
        weights: dict[tuple[int, ...], complex] = {}
        for powers in itertools.product(range(m), repeat=sum(choice)):
            # time exponents: the next power at a Gc slot, 0 at a G0 slot
            it = iter(powers)
            power, denom = _simplex_weight(tuple(next(it) if c else 0 for c in choice))
            e = tuple(powers.count(i) for i in range(m))
            weights[e] = weights.get(e, 0j) + spec.horizon**power / denom
        for e, w in weights.items():
            coeffs[e] = coeffs[e] + w * lie if e in coeffs else w * lie
    return PolyMatrix._adopt(m, spec.dim, coeffs)


def build_lambda(spec: ProblemSpec, n: int) -> PolyMatrix:
    """Truncated generator: sum of the first n Magnus terms, n in 1..3."""
    _require_poly(spec)
    if not 1 <= n <= 3:
        raise ValueError(f"truncation order {n} outside 1..3")
    total = magnus_term(spec, 1)
    for k in range(2, n + 1):
        total = total + magnus_term(spec, k)
    return total
