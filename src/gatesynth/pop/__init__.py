"""Global polynomial minimization: moment relaxation, SDP solver, polish."""

from gatesynth.pop.minimize import (
    SynthesisResult,
    ball_scan_minimum,
    minimize_global,
    relaxation_setup,
)
from gatesynth.pop.polish import newton_polish
from gatesynth.pop.relax import MomentRelaxation, moment_relax
from gatesynth.pop.sdp import SDPProblem, SDPSolution, sdp_solve

__all__ = [
    "MomentRelaxation",
    "SDPProblem",
    "SDPSolution",
    "SynthesisResult",
    "ball_scan_minimum",
    "minimize_global",
    "moment_relax",
    "newton_polish",
    "relaxation_setup",
    "sdp_solve",
]
