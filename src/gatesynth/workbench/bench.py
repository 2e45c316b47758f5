"""Planted-target recovery benchmark.

Per-trial failures are captured in the record's status column instead of
aborting the batch, so distribution summaries stay honest.  All randomness
flows through counter-based per-trial streams, which makes record bodies
reproducible; only the timing columns vary between runs.
"""

import csv
import io
import time
from dataclasses import dataclass, fields
from math import comb

import numpy as np

from gatesynth.bch import build_sigma
from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import PiecewiseControl, PolyControl, ProblemSpec, build_lambda
from gatesynth.numerics import (
    PropagationError,
    QuadratureError,
    expm_antihermitian,
    propagate_reference,
)
from gatesynth.objective import build_objective, infidelity
from gatesynth.polymat import PolyMatrix, pm_eval
from gatesynth.pop import minimize_global
from gatesynth.workbench.targets import gen_target

OK_STATUSES = ("polished", "uncertified")

# Memory a run may plan for, in bytes: the SDP solver's p x p matrices
# (check_sdp_budget).
MEMORY_BUDGET = 2**30

@dataclass(frozen=True)
class BenchConfig:
    system: str = "ibmq3"
    qubits: int = 2
    control: str = "poly"
    control_dim: int = 3
    order: int = 3
    horizon: float = 0.5
    trials: int = 50
    base_seed: int = 0
    relax_order: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.system not in ("ibmq3", "ising"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.control not in ("poly", "piecewise"):
            raise ValueError(f"unknown control model {self.control!r}")
        if self.control_dim < 1:
            raise ValueError("control dimension must be at least 1")
        if self.order < 1:
            raise ValueError("expansion order must be at least 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.base_seed < 0:
            raise ValueError("base seed must be non-negative")
        if self.relax_order is not None and self.relax_order < 1:
            raise ValueError("relaxation order must be at least 1")
        if self.radius is not None and not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be finite and positive")
        check_sdp_budget(self.control_dim, self.order, self.relax_order)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    status: str
    objective: float
    gap: float
    infid_gen: float
    infid_prop: float
    build_ms: float
    solve_ms: float
    total_ms: float
    x_star: np.ndarray
    x_hat: np.ndarray

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES


def make_spec(system: str, qubits: int, control: str, control_dim: int,
              horizon: float) -> ProblemSpec:
    """Problem on a built-in system; ``qubits`` sizes the Ising chain."""
    pair = ibmq3() if system == "ibmq3" else build_ising(qubits)
    model = PolyControl if control == "poly" else PiecewiseControl
    return ProblemSpec(pair.h0, pair.hc, horizon, model(control_dim), label=pair.label)


def build_bench_generator(spec: ProblemSpec, order: int) -> PolyMatrix:
    """Symbolic single-exponential generator for the configured control model."""
    if spec.is_piecewise():
        return build_sigma(spec, order)
    return build_lambda(spec, order)


def check_relax_order(generator: PolyMatrix, relax_order: int | None):
    """Reject a relaxation order below the base order of the generator's objective.

    The objective ||G(x) - omega||_F^2 has degree 2 * deg G, so the check runs
    once the generator is built and before any trial.
    """
    degree = 2 * generator.max_entry_degree()
    if relax_order is not None and 2 * relax_order < degree:
        raise ValueError(
            f"relaxation order {relax_order} too small for objective degree {degree}"
        )


def check_sdp_budget(m: int, order: int, relax_order: int | None):
    """Reject a run whose SDP would outgrow ``MEMORY_BUDGET``, before any build.

    A nested commutator of Hc with itself vanishes, so an order-n generator
    (Magnus order or BCH grade) has degree at most max(1, n - 1) in the m
    controls; that is also the base relaxation order of its objective.  At
    relaxation order r the SDP has p = C(m + 2r, 2r) - 1 constraints.
    sdp_solve keeps two p x p float64 matrices (the Schur matrix, and the
    Schur accumulator that its lifted copy and then its Cholesky factor are
    written over); the rest of its Schur workspace, the slab chunks, is O(p)
    plus a constant.  One solve at m = 10, order 2 (p = 1000) peaked at
    2.42 p^2 doubles under tracemalloc; 5 are planned, a margin of 2.07, so
    the budget admits p <= 5181.
    """
    r = relax_order if relax_order is not None else max(1, order - 1)
    p = comb(m + 2 * r, 2 * r) - 1
    need = 5 * 8 * p * p
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"{m} controls at relaxation order {r} give {p} SDP constraints, "
            f"about {need / 2**30:.1f} GiB of solver memory; the budget is "
            f"{MEMORY_BUDGET / 2**30:g} GiB"
        )


def _failed_record(trial, seed, status, m, build_ms, total_ms, x_star=None):
    nanv = float("nan")
    return TrialRecord(
        trial=trial,
        seed=seed,
        status=status,
        objective=nanv,
        gap=nanv,
        infid_gen=nanv,
        infid_prop=nanv,
        build_ms=build_ms,
        solve_ms=0.0,
        total_ms=total_ms,
        x_star=np.full(m, np.nan) if x_star is None else x_star,
        x_hat=np.full(m, np.nan),
    )


def run_trial(spec: ProblemSpec, generator: PolyMatrix, cfg: BenchConfig,
              trial: int) -> TrialRecord:
    """One planted-target synthesis trial; exceptions become a failed row.

    A target the oracle cannot draw (``PropagationError`` or
    ``QuadratureError`` from ``gen_target``) is a configuration error, and
    is raised instead.
    """
    m = spec.m
    t_start = time.perf_counter()
    build_ms = 0.0
    x_star = None
    try:
        target = gen_target(spec, cfg.base_seed, trial)
        x_star = target.x_star
        t0 = time.perf_counter()
        objective = build_objective(generator, target.generator)
        build_ms = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = minimize_global(objective, radius=cfg.radius, order=cfg.relax_order)
        solve_ms = 1e3 * (time.perf_counter() - t0)
        if result.status not in OK_STATUSES:
            total_ms = 1e3 * (time.perf_counter() - t_start)
            return _failed_record(trial, cfg.base_seed, result.status, m,
                                  build_ms, total_ms, x_star)
        u_gen = expm_antihermitian(pm_eval(generator, result.x))
        u_prop = propagate_reference(spec, result.x)
        total_ms = 1e3 * (time.perf_counter() - t_start)
        return TrialRecord(
            trial=trial,
            seed=cfg.base_seed,
            status=result.status,
            objective=float(result.value),
            gap=float(result.gap),
            infid_gen=infidelity(u_gen, target.unitary),
            infid_prop=infidelity(u_prop, target.unitary),
            build_ms=build_ms,
            solve_ms=solve_ms,
            total_ms=total_ms,
            x_star=x_star,
            x_hat=result.x.copy(),
        )
    except Exception as exc:  # per-trial isolation keeps the batch honest
        if x_star is None and isinstance(exc, (PropagationError, QuadratureError)):
            raise
        total_ms = 1e3 * (time.perf_counter() - t_start)
        return _failed_record(trial, cfg.base_seed, f"error:{type(exc).__name__}",
                              m, build_ms, total_ms, x_star)


def run_fidelity_bench(cfg: BenchConfig, progress=None):
    """Planted-target recovery over cfg.trials independent seeded trials.

    Returns (records, summary).  Summary quantiles treat failed trials as
    infidelity 1.0 so they cannot silently improve the distribution.
    """
    spec = make_spec(cfg.system, cfg.qubits, cfg.control, cfg.control_dim, cfg.horizon)
    t0 = time.perf_counter()
    generator = build_bench_generator(spec, cfg.order)
    generator_build_ms = 1e3 * (time.perf_counter() - t0)
    check_relax_order(generator, cfg.relax_order)
    records = []
    for trial in range(cfg.trials):
        rec = run_trial(spec, generator, cfg, trial)
        records.append(rec)
        if progress is not None:
            progress(rec)
    records.sort(key=lambda r: r.trial)
    summary = summarize_fidelity(records)
    summary["generator_build_ms"] = generator_build_ms
    summary["elapsed_s"] = time.perf_counter() - t0
    return records, summary


def summarize_fidelity(records) -> dict:
    pess_prop = [r.infid_prop if r.ok else 1.0 for r in records]
    pess_gen = [r.infid_gen if r.ok else 1.0 for r in records]
    statuses = {}
    for r in records:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    finite_gaps = [r.gap for r in records if np.isfinite(r.gap)]
    return {
        "trials": len(records),
        "failed": sum(not r.ok for r in records),
        "median_infid_prop": float(np.median(pess_prop)),
        "q25_infid_prop": float(np.quantile(pess_prop, 0.25)),
        "q75_infid_prop": float(np.quantile(pess_prop, 0.75)),
        "p90_infid_prop": float(np.quantile(pess_prop, 0.90)),
        "median_infid_gen": float(np.median(pess_gen)),
        "max_gap": float(max(finite_gaps)) if finite_gaps else float("nan"),
        "statuses": statuses,
    }


def _csv_cells(record) -> dict:
    """Column name -> cell for one record, in field order."""
    cells = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            cells.update((f"{f.name}_{k}", repr(float(v))) for k, v in enumerate(value))
        elif isinstance(value, float):
            cells[f.name] = f"{value:.3f}" if f.name.endswith("_ms") else repr(float(value))
        else:
            cells[f.name] = value
    return cells


def records_csv(records) -> str:
    """CSV body for records, one column per field, empty for no records.

    An array field becomes ``name_0, name_1, ...`` columns, ``*_ms`` floats
    are written with three decimals and other floats by ``repr``.  The
    header is the first record's.
    """
    if not records:
        return ""
    rows = [_csv_cells(r) for r in records]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


def json_ready(value):
    """``value`` for ``json.dumps(..., allow_nan=False)``: arrays as lists and
    non-finite floats as None, since JSON has no NaN or infinity."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_ready(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def records_to_json(records) -> list:
    """Records as ``json_ready`` dicts, one per record."""
    return [json_ready({f.name: getattr(r, f.name) for f in fields(r)}) for r in records]
