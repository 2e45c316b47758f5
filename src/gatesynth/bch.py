"""The piecewise-constant generator's former entry point.

The product of slice exponentials is built by the one Magnus builder,
:func:`gatesynth.magnus.build_lambda`, from the slice-indicator envelope.
"""

from gatesynth import magnus


def build_sigma(spec, n):
    """``magnus.build_lambda(spec, n)``; forwards only for the benchmark under
    ``gsbench/``, which calls and traces this name."""
    return magnus.build_lambda(spec, n)
