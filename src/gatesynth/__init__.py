"""Gate synthesis by global polynomial optimization over truncated generators."""

from gatesynth.bch import (
    bch_compose,
    build_sigma,
    gbchd_eq12,
    slice_generator,
)
from gatesynth.hamlib import SystemPair, build_ising, ibmq3
from gatesynth.magnus import (
    PiecewiseControl,
    PolyControl,
    ProblemSpec,
    build_lambda,
    magnus_term,
)
from gatesynth.numerics import (
    PropagationError,
    QuadratureError,
    action_integral,
    cf4_propagate,
    expm_antihermitian,
    propagate_piecewise,
    propagate_reference,
    spectral_norm,
)
from gatesynth.objective import (
    BranchAmbiguityError,
    build_objective,
    infidelity,
    principal_log,
)
from gatesynth.polymat import (
    Polynomial,
    PolyMatrix,
    frobenius_sq,
    pm_commutator,
    pm_eval,
)
from gatesynth.pop import (
    MomentRelaxation,
    SDPProblem,
    SDPSolution,
    SynthesisResult,
    ball_scan_minimum,
    minimize_global,
    moment_relax,
    newton_polish,
    sdp_solve,
)

__all__ = [
    "BranchAmbiguityError",
    "MomentRelaxation",
    "PiecewiseControl",
    "PolyControl",
    "PolyMatrix",
    "Polynomial",
    "ProblemSpec",
    "PropagationError",
    "QuadratureError",
    "SDPProblem",
    "SDPSolution",
    "SynthesisResult",
    "SystemPair",
    "action_integral",
    "ball_scan_minimum",
    "bch_compose",
    "build_ising",
    "build_lambda",
    "build_objective",
    "build_sigma",
    "cf4_propagate",
    "expm_antihermitian",
    "frobenius_sq",
    "gbchd_eq12",
    "ibmq3",
    "infidelity",
    "magnus_term",
    "minimize_global",
    "moment_relax",
    "newton_polish",
    "pm_commutator",
    "pm_eval",
    "principal_log",
    "propagate_piecewise",
    "propagate_reference",
    "sdp_solve",
    "slice_generator",
    "spectral_norm",
]

__version__ = "0.1.0"
