"""Piecewise-constant generators via graded-truncated BCH composition.

A product of slice exponentials e^{A_m}...e^{A_1} is collapsed into a single
generator by folding the truncated Baker-Campbell-Hausdorff series.  Grading
is by commutator depth (each slice generator has grade 1); truncation at grade
n is consistent under composition because a word's grade is the sum of its
arguments' grades, so grade-<=n output never depends on discarded pieces.

The explicit three-term multi-factor expansion (``gbchd_eq12``) is kept as the
reference the fold is checked against.  Its third-order coefficient differs
from the fold's: on ibmq3 with 2 slices at T = 0.5 and grade 3, the fold's
median error against the exact logarithm is 20x smaller (acceptance
criterion 6 measures it).
"""

from __future__ import annotations

from gatesynth.magnus import PiecewiseControl, ProblemSpec
from gatesynth.polymat import PolyMatrix, pm_commutator

GradedOp = dict[int, PolyMatrix]


def slice_generator(spec: ProblemSpec, index: int) -> PolyMatrix:
    """Generator of slice ``index`` (1-based): (T/m) * -i(H0 + x_i Hc)."""
    if not isinstance(spec.control, PiecewiseControl):
        raise ValueError("operation requires a piecewise-constant control")
    m = spec.m
    if not 1 <= index <= m:
        raise ValueError(f"slice index {index} outside 1..{m}")
    dt = spec.horizon / m
    e1 = [0] * m
    e1[index - 1] = 1
    return PolyMatrix(
        m,
        spec.dim,
        {
            (0,) * m: -1j * dt * spec.h0,
            tuple(e1): -1j * dt * spec.hc,
        },
    )


def _graded_add(acc: GradedOp, grade: int, term: PolyMatrix):
    if not term.is_zero():
        acc[grade] = acc[grade] + term if grade in acc else term


def _graded_bch(x: PolyMatrix, y: GradedOp, n: int) -> GradedOp:
    """Grade-<=n truncation of log(e^X e^Y) for a grade-1 X and a graded Y
    with no grade above n.

    Words beyond four letters have grade >= 5 and never contribute at n <= 4.
    """
    out: GradedOp = {}
    _graded_add(out, 1, x)
    for b, yb in y.items():
        _graded_add(out, b, yb)
    for b, yb in y.items():
        if b + 1 <= n:
            _graded_add(out, b + 1, pm_commutator(x, yb).scale(0.5))
    for c, yc in y.items():
        if c + 2 <= n:
            _graded_add(out, c + 2, pm_commutator(x, pm_commutator(x, yc)).scale(1.0 / 12.0))
    for a, ya in y.items():
        for b, yb in y.items():
            if a + b + 1 <= n:
                term = pm_commutator(ya, pm_commutator(yb, x))
                _graded_add(out, a + b + 1, term.scale(1.0 / 12.0))
    for a, ya in y.items():
        for d, yd in y.items():
            if a + d + 2 <= n:
                term = pm_commutator(ya, pm_commutator(x, pm_commutator(x, yd)))
                _graded_add(out, a + d + 2, term.scale(-1.0 / 24.0))
    return out


def _graded_sum(acc: GradedOp, controls: int, dim: int) -> PolyMatrix:
    return sum((acc[g] for g in sorted(acc)), PolyMatrix.zero(controls, dim))


def bch_compose(x: PolyMatrix, y: PolyMatrix, n: int) -> PolyMatrix:
    """log(e^X e^Y) truncated at grade n (X, Y treated as grade-1 atoms)."""
    if not 1 <= n <= 4:
        raise ValueError(f"truncation grade {n} outside 1..4")
    if x.controls != y.controls or x.dim != y.dim:
        raise ValueError("operands must share their control count and dimension")
    return _graded_sum(_graded_bch(x, {1: y}, n), x.controls, x.dim)


def build_sigma(spec: ProblemSpec, n: int) -> PolyMatrix:
    """Single generator for the slice-exponential product, truncated at grade n.

    Folds from the innermost factor outward: the accumulator for slices 1..i
    is prepended with slice i+1 on the left, matching the product order where
    later slices are applied last.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"truncation grade {n} outside 1..4")
    acc: GradedOp = {1: slice_generator(spec, 1)}
    for i in range(2, spec.m + 1):
        acc = _graded_bch(slice_generator(spec, i), acc, n)
    return _graded_sum(acc, spec.m, spec.dim)


def gbchd_eq12(spec: ProblemSpec, n: int) -> PolyMatrix:
    """Explicit multi-factor expansion with printed coefficients 1, 1/2, 1/6.

    Kept as a literal transcription that the fold is checked against.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"order {n} outside the printed range 1..3")
    m = spec.m
    gens = [slice_generator(spec, i) for i in range(1, m + 1)]
    total = gens[0]
    for a in gens[1:]:
        total = total + a
    if n >= 2:
        for i in range(m):
            for j in range(i):
                total = total + pm_commutator(gens[i], gens[j]).scale(0.5)
    if n >= 3:
        for i in range(m):
            for j in range(i + 1):
                for k in range(j + 1):
                    inner = pm_commutator(gens[j], gens[k])
                    term = pm_commutator(gens[i], inner) + pm_commutator(
                        gens[k], pm_commutator(gens[j], gens[i])
                    )
                    total = total + term.scale(1.0 / 6.0)
    return total
