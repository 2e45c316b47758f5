"""JSON problem-description ingestion.

A problem file describes one driven system:

    {
      "dim": 2,
      "H0": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
      "Hc": ...,
      "T": 0.5,
      "control": {"type": "poly", "m": 3}
    }

Matrix entries are [re, im] pairs.  H0 and Hc must be finite and Hermitian;
this is validated on load.
"""

import json

import numpy as np

from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec


class ProblemFileError(ValueError):
    """Raised when a problem file is malformed or inconsistent."""


def matrix_to_json(m: np.ndarray) -> list:
    """Encode a complex matrix as nested [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [
        [[float(v.real), float(v.imag)] for v in row]
        for row in m
    ]


def _matrix_from_json(entries, dim: int, name: str) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{name} is not a nested [re, im] array") from exc
    except OverflowError as exc:
        raise ProblemFileError(f"{name} has an entry that does not fit in a float") from exc
    if arr.shape != (dim, dim, 2):
        raise ProblemFileError(
            f"{name} must have shape ({dim}, {dim}, 2) of [re, im] pairs, "
            f"got {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _is_int(v) -> bool:
    """An integer that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_problem(data: dict, label: str = "") -> ProblemSpec:
    """Build a validated ProblemSpec from a decoded problem dictionary."""
    if not isinstance(data, dict):
        raise ProblemFileError("problem description must be a JSON object")
    missing = {"dim", "H0", "Hc", "T", "control"} - set(data)
    if missing:
        raise ProblemFileError(f"missing keys: {sorted(missing)}")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise ProblemFileError("dim must be a positive integer")
    h0 = _matrix_from_json(data["H0"], dim, "H0")
    hc = _matrix_from_json(data["Hc"], dim, "Hc")
    horizon = data["T"]
    if isinstance(horizon, bool) or not isinstance(horizon, (int, float)) or not horizon > 0:
        raise ProblemFileError("T must be a positive number")
    try:
        horizon = float(horizon)
    except OverflowError as exc:
        raise ProblemFileError("T does not fit in a float") from exc
    control = data["control"]
    if not isinstance(control, dict) or "type" not in control or "m" not in control:
        raise ProblemFileError('control must be {"type": ..., "m": ...}')
    ctype, m = control["type"], control["m"]
    if not _is_int(m) or m < 1:
        raise ProblemFileError("control.m must be a positive integer")
    if ctype == "poly":
        model = PolyControl(m)
    elif ctype == "piecewise":
        model = PiecewiseControl(m)
    else:
        raise ProblemFileError(f'control.type must be "poly" or "piecewise", got {ctype!r}')
    try:
        return ProblemSpec(h0, hc, horizon, model, label=label)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def load_problem(path: str) -> ProblemSpec:
    """Read and validate a JSON problem file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON in {path}: {exc}") from exc
    return parse_problem(data, label=path)
