"""Model Hamiltonian pairs used by the benchmarks.

Two families: a fixed three-level transmon-style system with printed 4-decimal
entries, and a transverse-field Ising chain on N qubits with unit coupling and
open boundaries.  A pair is not validated here: every use builds a
``ProblemSpec``, which checks the operators.  A chain with another coupling is
a problem file.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class SystemPair(NamedTuple):
    """A drift operator and a control operator of equal dimension."""

    h0: np.ndarray
    hc: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def ibmq3() -> SystemPair:
    """Three-level system with fixed 4-decimal entries (drift and drive)."""
    h0 = np.diag([0.0, 0.5159, 1.0])
    hc = np.array(
        [
            [0.0, 0.7071, 0.0],
            [0.7071, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ]
    )
    return SystemPair(h0, hc, label="ibmq3")


def _lift(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at a site of an n-qubit register."""
    out = np.array([[1.0]])
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def build_ising(n: int) -> SystemPair:
    """Ising chain: drift -sum_i Z_i Z_{i+1} (open ends), drive sum_i X_i."""
    if not 2 <= n <= 7:
        raise ValueError(f"qubit count {n} outside supported range 2..7")
    dim = 2**n
    h0 = np.zeros((dim, dim))
    for i in range(n - 1):
        h0 -= _lift(PAULI_Z, i, n) @ _lift(PAULI_Z, i + 1, n)
    hc = np.zeros((dim, dim))
    for i in range(n):
        hc += _lift(PAULI_X, i, n)
    return SystemPair(h0, hc, label=f"ising{n}")
