"""Problem ingestion, target generation, benchmarks, and the CLI."""

from gatesynth.workbench.bench import (
    BenchConfig,
    TrialRecord,
    make_spec,
    records_csv,
    run_fidelity_bench,
    run_trial,
    summarize_fidelity,
)
from gatesynth.workbench.problemfile import (
    ProblemFileError,
    load_problem,
    matrix_to_json,
    parse_problem,
)
from gatesynth.workbench.targets import (
    PlantedTarget,
    TargetGenerationError,
    gen_target,
    trial_rng,
)

__all__ = [
    "BenchConfig",
    "PlantedTarget",
    "ProblemFileError",
    "TargetGenerationError",
    "TrialRecord",
    "gen_target",
    "load_problem",
    "make_spec",
    "matrix_to_json",
    "parse_problem",
    "records_csv",
    "run_fidelity_bench",
    "run_trial",
    "summarize_fidelity",
    "trial_rng",
]
