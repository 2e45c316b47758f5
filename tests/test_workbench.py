"""Tests for target generation, problem ingestion, benches, and the CLI."""

import argparse
import csv
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gatesynth import numerics
from gatesynth.hamlib import ibmq3
from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec
from gatesynth.numerics import action_integral
from gatesynth.workbench import bench, cli
from gatesynth.workbench.bench import (
    BenchConfig,
    TrialRecord,
    check_sdp_budget,
    make_spec,
    records_csv,
    records_to_json,
    run_fidelity_bench,
)
from gatesynth.workbench.cli import build_parser, main
from gatesynth.workbench.problemfile import (
    ProblemFileError,
    load_problem,
    matrix_to_json,
    parse_problem,
)
from gatesynth.workbench.targets import (
    ACTION_CEILING,
    TargetGenerationError,
    gen_target,
    trial_rng,
)


def poly_spec(horizon=0.5, m=3):
    pair = ibmq3()
    return ProblemSpec(pair.h0, pair.hc, horizon, PolyControl(m), label=pair.label)


def problem_dict(ctype="poly", m=2):
    z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    return {"dim": 2, "H0": z, "Hc": x, "T": 0.5,
            "control": {"type": ctype, "m": m}}


# ------------------------------------------------------------------ targets


def test_trial_rng_deterministic_and_independent():
    a = trial_rng(7, 3).uniform(-1, 1, 5)
    b = trial_rng(7, 3).uniform(-1, 1, 5)
    c = trial_rng(7, 4).uniform(-1, 1, 5)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_trial_rng_rejects_negative_keys():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(0, -1)


def test_gen_target_deterministic():
    spec = poly_spec()
    t1 = gen_target(spec, 11, 2)
    t2 = gen_target(spec, 11, 2)
    np.testing.assert_array_equal(t1.x_star, t2.x_star)
    np.testing.assert_array_equal(t1.unitary, t2.unitary)


def test_action_stays_below_ceiling_at_default_horizon():
    # corner-point bound: T * max ||H0 + e*Hc||_2 over e in {-1,1} stays
    # below pi, so no draw can be rejected at T = 0.5
    spec = poly_spec()
    corner = max(np.linalg.norm(spec.h0 + e * spec.hc, 2) for e in (-1.0, 1.0))
    assert spec.horizon * corner < np.pi
    for trial in range(200):
        x = trial_rng(0, trial).uniform(-1.0, 1.0, spec.m)
        assert action_integral(spec, x) < ACTION_CEILING


def test_target_generator_norm_below_pi():
    spec = poly_spec()
    for trial in range(3):
        t = gen_target(spec, 5, trial)
        assert np.linalg.norm(t.generator, 2) < np.pi


def test_gen_target_raises_when_horizon_too_long():
    pair = ibmq3()
    spec = ProblemSpec(pair.h0, pair.hc, 50.0, PiecewiseControl(3))
    with pytest.raises(TargetGenerationError):
        gen_target(spec, 0, 0)


# -------------------------------------------------------------- problemfile


def test_parse_problem_roundtrip(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem_dict()))
    spec = load_problem(str(path))
    assert spec.dim == 2
    assert spec.m == 2
    assert spec.horizon == 0.5
    assert not spec.is_piecewise()
    np.testing.assert_allclose(spec.h0, np.diag([1.0, -1.0]))


def test_parse_problem_piecewise_control():
    spec = parse_problem(problem_dict(ctype="piecewise", m=4))
    assert spec.is_piecewise()
    assert spec.m == 4


def test_parse_problem_rejects_non_hermitian():
    bad = problem_dict()
    bad["H0"][0][1] = [2.0, 0.0]
    bad["H0"][1][0] = [0.0, 0.0]
    with pytest.raises(ProblemFileError):
        parse_problem(bad)


def test_parse_problem_rejects_missing_keys():
    bad = problem_dict()
    del bad["Hc"]
    with pytest.raises(ProblemFileError):
        parse_problem(bad)


def test_parse_problem_rejects_bad_control():
    for bad in (problem_dict(ctype="fourier"), problem_dict(m=True)):
        with pytest.raises(ProblemFileError):
            parse_problem(bad)


def one_level_problem(**changes):
    """A valid 1x1 problem, so a boolean dim of 1 would match the matrices."""
    return {"dim": 1, "H0": [[[1.0, 0.0]]], "Hc": [[[0.5, 0.0]]], "T": 0.5,
            "control": {"type": "poly", "m": 1}, **changes}


def test_parse_problem_rejects_shape_mismatch():
    wrong_dim = problem_dict()
    wrong_dim["dim"] = 3
    assert parse_problem(one_level_problem()).dim == 1
    for bad in (wrong_dim, one_level_problem(dim=True)):
        with pytest.raises(ProblemFileError):
            parse_problem(bad)


def test_parse_problem_rejects_nonpositive_horizon():
    zero_horizon = problem_dict()
    zero_horizon["T"] = 0.0
    for bad in (zero_horizon, one_level_problem(T=True)):
        with pytest.raises(ProblemFileError):
            parse_problem(bad)


def test_matrix_json_roundtrip():
    m = np.array([[1.0 + 2.0j, 0.5], [-0.5j, 3.0]])
    enc = matrix_to_json(m)
    back = np.array(enc)[..., 0] + 1j * np.array(enc)[..., 1]
    np.testing.assert_array_equal(back, m)


# ------------------------------------------------------------------- bench


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(trials=0)
    with pytest.raises(ValueError):
        BenchConfig(system="heisenberg")
    with pytest.raises(ValueError):
        BenchConfig(control="fourier")
    with pytest.raises(ValueError):
        BenchConfig(horizon=-1.0)
    for radius in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BenchConfig(radius=radius)
    with pytest.raises(ValueError):
        BenchConfig(relax_order=0)


def test_make_spec_ising():
    spec = make_spec(system="ising", qubits=3, control="poly", control_dim=2, horizon=1.0)
    assert spec.dim == 8
    assert spec.m == 2


def test_fidelity_bench_records_and_summary():
    cfg = BenchConfig(trials=2, base_seed=0)
    records, summary = run_fidelity_bench(cfg)
    assert [r.trial for r in records] == [0, 1]
    assert summary["trials"] == 2
    assert summary["failed"] == 0
    for r in records:
        assert r.ok
        assert 0.0 <= r.infid_gen <= 1.0 and 0.0 <= r.infid_prop <= 1.0
        assert r.gap >= -1e-8
        # generator-exponential and reference-propagation scores agree to
        # within the expansion defect at this horizon and order
        assert abs(r.infid_gen - r.infid_prop) <= 1e-4
        assert r.total_ms >= r.solve_ms >= 0.0 and r.build_ms >= 0.0


def test_fidelity_bench_deterministic_modulo_timing():
    cfg = BenchConfig(trials=2, base_seed=3)
    rec_a, _ = run_fidelity_bench(cfg)
    rec_b, _ = run_fidelity_bench(cfg)
    timing_cols = {"build_ms", "solve_ms", "total_ms"}

    def strip(records):
        rows = []
        for d in records_to_json(records):
            rows.append({k: v for k, v in d.items() if k not in timing_cols})
        return rows

    assert strip(rec_a) == strip(rec_b)


def test_first_order_recovery_worse_than_third():
    seeds_match = dict(trials=3, base_seed=1)
    _, s1 = run_fidelity_bench(BenchConfig(order=1, **seeds_match))
    _, s3 = run_fidelity_bench(BenchConfig(order=3, **seeds_match))
    assert s1["median_infid_prop"] > s3["median_infid_prop"]


def test_fidelity_csv_shape():
    cfg = BenchConfig(trials=1, base_seed=2)
    records, _ = run_fidelity_bench(cfg)
    body = records_csv(records)
    lines = body.strip().split("\n")
    header = lines[0].split(",")
    assert header[:10] == ["trial", "seed", "status", "objective", "gap",
                           "infid_gen", "infid_prop", "build_ms", "solve_ms",
                           "total_ms"]
    assert header[10:] == ["x_star_0", "x_star_1", "x_star_2",
                           "x_hat_0", "x_hat_1", "x_hat_2"]
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(header)


def reference_fidelity_csv(records) -> str:
    """The per-type fidelity writer that ``records_csv`` replaced."""
    m = len(records[0].x_star)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "seed", "status", "objective", "gap", "infid_gen",
                     "infid_prop", "build_ms", "solve_ms", "total_ms"]
                    + [f"x_star_{k}" for k in range(m)]
                    + [f"x_hat_{k}" for k in range(m)])
    for r in records:
        row = [r.trial, r.seed, r.status, repr(r.objective), repr(r.gap),
               repr(r.infid_gen), repr(r.infid_prop),
               f"{r.build_ms:.3f}", f"{r.solve_ms:.3f}", f"{r.total_ms:.3f}"]
        row += [repr(float(v)) for v in r.x_star]
        row += [repr(float(v)) for v in r.x_hat]
        writer.writerow(row)
    return buf.getvalue()


def test_records_csv_matches_per_type_writers():
    x = np.array([1 / 3, -0.25, 1e-17])
    trials = [
        TrialRecord(0, 7, "polished", 2 / 3, 1.5e-9, 3.0e-13, 0.0, 1.2345, 0.0005,
                    12.3456789, x, x + 1e-12),
        bench._failed_record(1, 7, "error:PropagationError", 3, 0.25, 99.9999, x),
    ]
    assert records_csv(trials) == reference_fidelity_csv(trials)


# --------------------------------------------------------------------- cli


def test_cli_rejects_unknown_command(capsys):
    # retired commands are unknown, and a flag the subcommand does not read is
    # as unknown as the command; the Ising coupling is fixed at J = 1, so no
    # command reads --coupling
    for argv in (["optimize-everything"], ["gbchd-report"], ["synth-pw"],
                 ["target-gen", "--ball", "1"], ["synth", "--coupling", "2"],
                 ["bench-timing"], ["target-gen", "--order", "0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


SYSTEM = {"--system", "--qubits", "--horizon", "--control-dim", "--control"}
SOLVE = {"--order", "--seed", "--relax-order", "--ball"}
BATCH = {"--trials", "--format", "--quiet"}


def parser_flags() -> dict:
    """Each subcommand of the parser with the set of flags it accepts."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()}


def test_cli_flag_sets():
    flags = parser_flags()
    assert flags == {
        "synth": SYSTEM | SOLVE | {"--problem", "--trial", "--out"},
        "bench-fidelity": SYSTEM | SOLVE | BATCH | {"--out"},
        "target-gen": SYSTEM | {"--problem", "--seed", "--trials", "--out"},
    }
    assert sum(len(f) for f in flags.values()) == 34


def test_readme_flag_table_matches_parser():
    # each README table row names its commands, then their flags; "system
    # flags" stands for the five system flags
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
        names, flag_cell = line.strip("|").split("|")
        flags = set(" ".join(re.findall(r"`([^`]+)`", flag_cell)).split())
        if "system flags" in flag_cell:
            flags |= SYSTEM
        for name in re.findall(r"`([^`]+)`", names):
            table[name] = flags
    assert table == parser_flags()


def test_cli_target_gen_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["target-gen", "--seed", "4", "--out", str(out1)]) == 0
    assert main(["target-gen", "--seed", "4", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    data = json.loads(out1.read_text())
    assert len(data) == 1
    assert len(data[0]["x_star"]) == 3


def test_cli_target_gen_long_horizon(tmp_path):
    # at T = 2 an ibmq3 draw needs 512 oracle steps; the oracle refines to them
    out = tmp_path / "targets.json"
    assert main(["target-gen", "--horizon", "2", "--trials", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 3


def test_cli_target_gen_oracle_failure_exit_code(tmp_path, capsys, monkeypatch):
    # an oracle whose step doubling never converges fails the run, which
    # reports it on one line and exit code 2, with no traceback
    calls = []

    def drifting(spec, x, steps):
        calls.append(steps)
        return np.full((spec.dim, spec.dim), float(len(calls)), dtype=complex)

    monkeypatch.setattr(numerics, "cf4_propagate", drifting)
    out = tmp_path / "targets.json"
    assert main(["target-gen", "--trials", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step-doubling defect")
    assert not out.exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # JSON integers are unbounded; these two do not fit in a float
    huge_t = tmp_path / "huge_t.json"
    huge_t.write_text(json.dumps(one_level_problem(T=10**400)))
    huge_h0 = tmp_path / "huge_h0.json"
    huge_h0.write_text(json.dumps(one_level_problem(H0=[[[10**400, 0]]])))
    out = tmp_path / "out.json"
    for argv, message in (
        (["synth", "--problem", str(bad)], "error:"),
        (["target-gen", "--problem", str(huge_t), "--out", str(out)], "T does not fit"),
        (["target-gen", "--problem", str(huge_h0), "--out", str(out)], "H0 has an entry that does not fit"),
        (["synth", "--trial", "-1", "--out", str(out)], "--trial must be non-negative"),
        (["synth", "--control", "piecewise", "--trial", "-1", "--out", str(out)],
         "--trial must be non-negative"),
        (["target-gen", "--qubits", "5", "--out", str(out)], "does not read --qubits"),
        (["bench-fidelity", "--trials", "1", "--ball", "-1", "--out", str(out)], "radius"),
        # the order-3 generator has entry degree 2: its objective needs order 2
        (["synth", "--relax-order", "1", "--out", str(out)], "order 1 too small"),
        (["bench-fidelity", "--trials", "1", "--relax-order", "1", "--out", str(out)],
         "order 1 too small"),
        # T^7 of the order-3 generator's weights does not fit in a float
        (["synth", "--horizon", "1e50", "--out", str(out)], "horizon 1e+50 overflows"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sdp_budget_bounds_control_dim():
    # p = C(m + 2r, 2r) - 1 constraints at relaxation order r; 6 p^2 doubles
    # fit the 1 GiB budget up to p = 4729
    check_sdp_budget(15, 3, None)       # order-3 Magnus, r = 2: p = 3875
    check_sdp_budget(8, 4, None)        # grade-4 BCH, r = 3: p = 3002
    check_sdp_budget(9, 3, None)        # grade 3 at m = 9, r = 2: p = 714
    check_sdp_budget(16, 3, 1)          # an explicit order replaces the base one
    check_sdp_budget(95, 2, None)       # order-2 Magnus, r = 1: p = 4655
    for m, order, relax_order in ((16, 3, None), (9, 4, None), (7, 3, 4), (96, 2, None)):
        with pytest.raises(ValueError, match="budget"):
            check_sdp_budget(m, order, relax_order)
    with pytest.raises(ValueError, match="budget"):
        BenchConfig(control_dim=16)


def test_cli_rejects_control_dim_past_budget_before_build(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built past the memory budget")

    for module in (bench, cli):
        monkeypatch.setattr(module, "build_bench_generator", no_build)
    monkeypatch.setattr(bench, "build_lambda", no_build)
    monkeypatch.setattr(bench, "build_sigma", no_build)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(problem_dict(m=16)))
    out = tmp_path / "out.json"
    for argv in (
        ["synth", "--control-dim", "16"],
        ["synth", "--problem", str(prob)],
        ["synth", "--control", "piecewise", "--control-dim", "9"],
        ["synth", "--control-dim", "7", "--relax-order", "4"],
        ["bench-fidelity", "--control-dim", "16", "--trials", "1"],
    ):
        assert main([*argv, "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


def test_cli_synth_budget_follows_its_own_problem(tmp_path, monkeypatch):
    # one control at relaxation order 2 gives 4 SDP constraints; the budget
    # must not be checked on the defaults of 3 controls (34 constraints)
    monkeypatch.setattr(bench, "MEMORY_BUDGET", 10_000)
    out = tmp_path / "result.json"
    assert main(["synth", "--control-dim", "1", "--relax-order", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "polished"


def test_cli_problem_file_replaces_system_flags(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(problem_dict()))
    assert main(["synth", "--problem", str(prob), "--control-dim", "5"]) == 2
    assert "--control-dim" in capsys.readouterr().err


def reject_constant(name):
    """``parse_constant`` for ``json.loads``: NaN and infinities are not JSON."""
    raise ValueError(f"{name} is not valid JSON")


def test_cli_trial_failure_exit_code(tmp_path, capsys):
    # a horizon this long makes every control draw exceed the action ceiling
    out = tmp_path / "fail.json"
    rc = main(["synth", "--horizon", "50.0", "--out", str(out)])
    assert rc == 3
    payload = json.loads(out.read_text(), parse_constant=reject_constant)
    assert payload["status"].startswith("error:")
    # a failed trial's scores are null, not NaN, so any JSON parser reads them
    assert payload["gap"] is None
    assert payload["x_hat"] == [None, None, None]


def test_cli_synth_problem_file(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(problem_dict()))
    out = tmp_path / "result.json"
    rc = main(["synth", "--problem", str(prob), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "polished"
    assert payload["infid_prop"] <= 1e-5
    assert len(payload["x_hat"]) == 2


def test_cli_synth_small_ball_keeps_control_inside(tmp_path):
    # planted trial 0 lies outside a ball of radius 0.8: the control must stay
    # in the ball the bound covers, so the gap cannot go negative
    out = tmp_path / "result.json"
    rc = main(["synth", "--ball", "0.8", "--trial", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["gap"] >= -1e-8
    assert np.linalg.norm(payload["x_hat"]) <= 0.8 * (1 + 1e-12)


def test_cli_synth_piecewise_problem_file(tmp_path, capsys):
    # the file's control model picks the generator: grade 4 for piecewise
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(problem_dict(ctype="piecewise")))
    out = tmp_path / "result.json"
    assert main(["synth", "--problem", str(prob), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == 4
    # --control is a system flag, which the file replaces
    assert main(["synth", "--problem", str(prob), "--control", "piecewise"]) == 2
    assert "--control" in capsys.readouterr().err


def test_cli_bench_fidelity_json_format(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(["bench-fidelity", "--trials", "1", "--quiet",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["trials"] == 1
    assert len(payload["records"]) == 1


def test_cli_bench_fidelity_ising(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench-fidelity", "--system", "ising", "--qubits", "2",
               "--trials", "2", "--quiet", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["trials"] == 2
    assert summary["failed"] == 0


def test_records_to_json_expands_arrays():
    rec = TrialRecord(trial=0, seed=0, status="polished", objective=0.0, gap=0.0,
                      infid_gen=0.0, infid_prop=0.0, build_ms=1.0,
                      solve_ms=1.0, total_ms=2.0,
                      x_star=np.array([0.1, 0.2]), x_hat=np.array([0.3, 0.4]))
    d = records_to_json([rec])[0]
    assert d["x_star"] == [0.1, 0.2]
    assert d["x_hat"] == [0.3, 0.4]
    # a failed record's non-finite scores, and a summary with no finite gap,
    # become null
    failed = bench._failed_record(1, 0, "error:ValueError", 2, 0.0, 1.0)
    d = records_to_json([failed])[0]
    assert d["gap"] is None and d["x_star"] == [None, None]
    summary = bench.json_ready(bench.summarize_fidelity([failed]))
    assert summary["max_gap"] is None
    json.loads(json.dumps(summary, allow_nan=False), parse_constant=reject_constant)
