"""The paper's explicit multi-factor expansion of a slice-exponential product.

``gbchd_eq12`` is a literal transcription with the printed coefficients 1,
1/2, 1/6, kept as the reference that acceptance criterion 6 and
``test_bch.py`` check the Magnus-built piecewise generator against.
"""

from gatesynth.magnus import ProblemSpec
from gatesynth.polymat import PolyMatrix, pm_commutator


def slice_generator(spec: ProblemSpec, index: int) -> PolyMatrix:
    """Generator of slice ``index`` (1-based): (T/m) * -i(H0 + x_i Hc)."""
    m = spec.m
    dt = spec.horizon / m
    e1 = [0] * m
    e1[index - 1] = 1
    return PolyMatrix(m, spec.dim, {(0,) * m: -1j * dt * spec.h0, tuple(e1): -1j * dt * spec.hc})


def gbchd_eq12(spec: ProblemSpec, n: int) -> PolyMatrix:
    """Explicit multi-factor expansion with printed coefficients 1, 1/2, 1/6."""
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
