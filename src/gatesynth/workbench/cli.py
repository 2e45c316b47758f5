"""Command-line interface: one synthesis run, a planted-target recovery batch,
and planted targets as JSON.

Each subcommand declares only the flags it reads.  ``--problem`` replaces
the system flags, and ``--qubits`` sizes only the Ising chain (coupling
J = 1; another J is a problem file); a system flag the run would ignore is a
configuration error.

Exit codes: 0 on success, 2 on configuration errors (a target the oracle
cannot propagate or integrate included), 3 when at least one trial in a
batch failed (the batch artifact is still written).
"""

import argparse
import json
import sys

from gatesynth.magnus import ProblemSpec
from gatesynth.numerics import PropagationError, QuadratureError, action_integral
from gatesynth.workbench.bench import (
    BenchConfig,
    build_bench_generator,
    check_relax_order,
    json_ready,
    make_spec,
    records_csv,
    records_to_json,
    run_fidelity_bench,
    run_trial,
)
from gatesynth.workbench.problemfile import (
    ProblemFileError,
    load_problem,
    matrix_to_json,
)
from gatesynth.workbench.targets import TargetGenerationError, gen_target

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRIAL = 3


class _SystemFlag(argparse.Action):
    """Stores the value and notes the flag, so a run that ignores it can reject it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.system_flags = (*namespace.system_flags, self.option_strings[0])


FLAGS = {
    "--system": dict(choices=("ibmq3", "ising"), default="ibmq3", action=_SystemFlag),
    "--qubits": dict(type=int, default=2, action=_SystemFlag),
    "--horizon": dict(type=float, default=0.5, action=_SystemFlag),
    "--control-dim": dict(type=int, default=3, action=_SystemFlag),
    "--problem": dict(default=None, help="JSON problem file; replaces the system flags"),
    "--order": dict(type=int, default=None),
    "--seed": dict(type=int, default=0),
    "--relax-order": dict(type=int, default=None),
    "--ball": dict(type=float, default=None),
    "--trial": dict(type=int, default=0, help="target stream index"),
    "--trials": dict(type=int, default=None),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--quiet": dict(action="store_true"),
    "--control": dict(choices=("poly", "piecewise"), default="poly", action=_SystemFlag),
    "--out": dict(default=None),
}
SYSTEM = ("--system", "--qubits", "--horizon", "--control-dim", "--control")
SOLVE = ("--order", "--seed", "--relax-order", "--ball")
BATCH = ("--trials", "--format", "--quiet")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def show(rec):
        print(f"  {rec!r}"[:200], file=sys.stderr)

    return show


def _order(args, piecewise: bool) -> int:
    """``--order``, else grade 4 for piecewise and Magnus order 3 for poly."""
    if args.order is not None:
        return args.order
    return 4 if piecewise else 3


def _check_system_flags(args):
    """Reject a given system flag that the run would ignore."""
    given = tuple(dict.fromkeys(args.system_flags))
    if getattr(args, "problem", None) is not None and given:
        raise ValueError(f"--problem replaces the system flags; drop {', '.join(given)}")
    if getattr(args, "system", None) == "ibmq3" and "--qubits" in given:
        raise ValueError("--system ibmq3 does not read --qubits")


def _spec(args) -> ProblemSpec:
    """The run's problem: the ``--problem`` file, else the system flags."""
    if args.problem is not None:
        return load_problem(args.problem)
    return make_spec(args.system, args.qubits, args.control, args.control_dim, args.horizon)


def _handle_synth(args) -> int:
    if args.trial < 0:
        raise ValueError("--trial must be non-negative")
    spec = _spec(args)
    piecewise = spec.is_piecewise()
    order = _order(args, piecewise)
    # the run's own control model, order and horizon size the SDP budget check
    cfg = BenchConfig(control="piecewise" if piecewise else "poly", control_dim=spec.m,
                      order=order, horizon=spec.horizon, trials=1, base_seed=args.seed,
                      relax_order=args.relax_order, radius=args.ball)
    generator = build_bench_generator(spec, order)
    check_relax_order(generator, args.relax_order)
    record = run_trial(spec, generator, cfg, args.trial)
    payload = records_to_json([record])[0]
    payload["system"] = spec.label
    payload["horizon"] = spec.horizon
    payload["order"] = order
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.out)
    return EXIT_OK if record.ok else EXIT_TRIAL


def _handle_bench_fidelity(args) -> int:
    piecewise = args.control == "piecewise"
    cfg = BenchConfig(
        system=args.system,
        qubits=args.qubits,
        control=args.control,
        control_dim=args.control_dim,
        order=_order(args, piecewise),
        horizon=args.horizon,
        trials=args.trials if args.trials is not None else (20 if piecewise else 50),
        base_seed=args.seed,
        relax_order=args.relax_order,
        radius=args.ball,
    )
    records, summary = run_fidelity_bench(cfg, progress=_progress_printer(args.quiet))
    summary_json = json_ready(summary)
    if args.format == "json":
        body = json.dumps(
            {"records": records_to_json(records), "summary": summary_json},
            indent=2, sort_keys=True, allow_nan=False,
        )
    else:
        body = records_csv(records)
    _emit(body, args.out)
    stream = sys.stdout if args.out else sys.stderr
    print(json.dumps(summary_json, sort_keys=True, allow_nan=False), file=stream)
    return EXIT_TRIAL if summary["failed"] else EXIT_OK


def _handle_target_gen(args) -> int:
    spec = _spec(args)
    if args.trials < 1:
        raise ValueError("trial count must be at least 1")
    targets = []
    for trial in range(args.trials):
        t = gen_target(spec, args.seed, trial)
        targets.append({
            "trial": trial,
            "seed": args.seed,
            "x_star": [float(v) for v in t.x_star],
            "action": action_integral(spec, t.x_star),
            "unitary": matrix_to_json(t.unitary),
            "generator": matrix_to_json(t.generator),
        })
    _emit(json.dumps(targets, indent=2, sort_keys=True, allow_nan=False), args.out)
    return EXIT_OK


# name -> (help, flags, per-command defaults, handler)
COMMANDS = {
    "synth": ("solve one synthesis problem",
              (*SYSTEM, "--problem", *SOLVE, "--trial", "--out"), {}, _handle_synth),
    "bench-fidelity": ("planted-target recovery batch",
                       (*SYSTEM, *SOLVE, *BATCH, "--out"), {}, _handle_bench_fidelity),
    "target-gen": ("emit planted targets as JSON",
                   (*SYSTEM, "--problem", "--seed", "--trials", "--out"), {"trials": 1},
                   _handle_target_gen),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatesynth",
        description="Symbolic gate synthesis with certified global optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, defaults, handler) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(handler=handler, system_flags=(), **defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_system_flags(args)
        return args.handler(args)
    except (ProblemFileError, TargetGenerationError, PropagationError, QuadratureError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
