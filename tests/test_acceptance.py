"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The whole file takes about a minute on two cores.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from gatesynth.bch import bch_compose, build_sigma, gbchd_eq12
from gatesynth.hamlib import build_ising, ibmq3
from gatesynth.magnus import (
    PiecewiseControl,
    PolyControl,
    ProblemSpec,
    _simplex_weight,
    build_lambda,
)
from gatesynth.numerics import (
    action_integral,
    expm_antihermitian,
    propagate_piecewise,
    propagate_reference,
)
from gatesynth.objective import build_objective, principal_log
from gatesynth.polymat import PolyMatrix, pm_eval
from gatesynth.pop import (
    ball_scan_minimum,
    minimize_global,
    moment_relax,
    relaxation_setup,
    sdp_solve,
)
from gatesynth.pop.sdp import BOUND_STATUSES
from gatesynth.workbench.bench import BenchConfig, run_fidelity_bench
from gatesynth.workbench.targets import gen_target, trial_rng


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def poly_spec(horizon, m=3):
    pair = ibmq3()
    return ProblemSpec(pair.h0, pair.hc, horizon, PolyControl(m), label=pair.label)


def piecewise_spec(horizon=0.5, m=3):
    pair = ibmq3()
    return ProblemSpec(pair.h0, pair.hc, horizon, PiecewiseControl(m),
                       label=pair.label)


@pytest.fixture(scope="module")
def interp_runs():
    # exact-interpolation instances: the target generator is the expansion
    # itself evaluated at the planted control, so the objective minimum is 0
    spec = poly_spec(1.0)
    lam = build_lambda(spec, 3)
    runs = []
    for trial in range(50):
        x_star = trial_rng(101, trial).uniform(-1.0, 1.0, 3)
        obj = build_objective(lam, pm_eval(lam, x_star))
        res = minimize_global(obj)
        runs.append((obj, x_star, res))
    return runs


@pytest.fixture(scope="module")
def planted_log_runs():
    # targets from the propagation oracle, as in the fidelity bench
    spec = poly_spec(0.5)
    lam = build_lambda(spec, 3)
    runs = []
    for trial in range(5):
        target = gen_target(spec, 202, trial)
        obj = build_objective(lam, target.generator)
        res = minimize_global(obj)
        runs.append((obj, target.x_star, res))
    return runs


@pytest.fixture(scope="module")
def piecewise_interp_runs():
    spec = piecewise_spec()
    sigma = build_sigma(spec, 4)
    runs = []
    for trial in range(3):
        x_star = trial_rng(303, trial).uniform(-1.0, 1.0, 3)
        obj = build_objective(sigma, pm_eval(sigma, x_star))
        res = minimize_global(obj)
        runs.append((obj, x_star, res))
    return runs


def test_criterion_1_planted_target_recovery():
    t0 = time.perf_counter()
    cfg = BenchConfig(system="ibmq3", control="poly", control_dim=3, order=3,
                      horizon=0.5, trials=50, base_seed=0)
    records, summary = run_fidelity_bench(cfg)
    elapsed = time.perf_counter() - t0
    med = summary["median_infid_prop"]
    p90 = summary["p90_infid_prop"]
    ok = med <= 1e-6 and p90 <= 1e-5 and elapsed <= 600.0
    report(1, ok,
           f"median={med:.3e} (<=1e-6), p90={p90:.3e} (<=1e-5), "
           f"failed={summary['failed']}, elapsed={elapsed:.1f}s (<=600s)")


def test_criterion_2_piecewise_recovery():
    cfg = BenchConfig(system="ibmq3", control="piecewise", control_dim=3,
                      order=4, horizon=0.5, trials=20, base_seed=0)
    records, summary = run_fidelity_bench(cfg)
    med = summary["median_infid_prop"]
    ok = med <= 1e-5
    report(2, ok, f"median={med:.3e} (<=1e-5), failed={summary['failed']}")


def test_criterion_3_exact_interpolation(interp_runs):
    hits = 0
    worst_obj = 0.0
    worst_err = 0.0
    for obj, x_star, res in interp_runs:
        err = float(np.linalg.norm(res.x - x_star))
        value = float(res.value)
        if value <= 1e-10 and err <= 1e-5:
            hits += 1
        worst_obj = max(worst_obj, value)
        worst_err = max(worst_err, err)
    ok = hits >= 48
    report(3, ok,
           f"recovered {hits}/50 (>=48), worst objective={worst_obj:.2e}, "
           f"worst control error={worst_err:.2e}")


def test_criterion_4_expansion_defect_scaling():
    base, half = 0.25, 0.125
    specs = {T: poly_spec(T) for T in (base, half)}
    lams = {T: build_lambda(specs[T], 3) for T in (base, half)}
    compress = np.array([1.0, 2.0, 4.0])
    ratios = []
    trial = 0
    while len(ratios) < 20:
        x = trial_rng(77, trial).uniform(-1.0, 1.0, 3)
        trial += 1
        if action_integral(specs[base], x) > 0.5:
            continue
        x_half = x * compress
        d_base = np.linalg.norm(
            pm_eval(lams[base], x)
            - principal_log(propagate_reference(specs[base], x)))
        d_half = np.linalg.norm(
            pm_eval(lams[half], x_half)
            - principal_log(propagate_reference(specs[half], x_half)))
        ratios.append(d_base / d_half)
    ratios = np.array(ratios)
    ok = bool(ratios.min() >= 12.0 and ratios.max() <= 20.0)
    report(4, ok,
           f"defect ratio over 20 draws in [{ratios.min():.2f}, "
           f"{ratios.max():.2f}] (need [12, 20])")


def test_criterion_5_composition_error_scaling():
    rng = np.random.default_rng(55)
    origin = np.array([0.0])
    floor = 2.0 ** 4.5

    def grade4_error(a, b):
        s4 = bch_compose(PolyMatrix.constant(1, a), PolyMatrix.constant(1, b), 4)
        truth = principal_log(expm_antihermitian(a) @ expm_antihermitian(b))
        return np.linalg.norm(pm_eval(s4, origin) - truth, 2)

    ratios = []
    for _ in range(20):
        pair = []
        for _ in range(2):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = 0.5 * (m - m.conj().T)
            a *= 0.1 * rng.uniform(0.4, 1.0) / np.linalg.norm(a, 2)
            pair.append(a)
        a, b = pair
        ratios.append(grade4_error(a, b) / grade4_error(a / 2, b / 2))
    ratios = np.array(ratios)
    ok = bool(ratios.min() >= floor)
    report(5, ok,
           f"error shrink over 20 pairs in [{ratios.min():.1f}, "
           f"{ratios.max():.1f}] (need >= {floor:.1f})")


def test_criterion_6_product_log_adjudication():
    # the fold and the explicit expansion differ at grade 3; the exact
    # logarithm of the slice product decides which one is right
    spec = piecewise_spec(m=2)
    fold = build_sigma(spec, 3)
    explicit = gbchd_eq12(spec, 3)
    rng = np.random.default_rng(20260816)
    errors = []
    for _ in range(8):
        x = rng.uniform(-1.0, 1.0, size=spec.m)
        z_true = principal_log(propagate_piecewise(spec, x))
        errors.append([np.linalg.norm(pm_eval(g, x) - z_true) for g in (fold, explicit)])
    med_fold, med_explicit = np.median(errors, axis=0)
    ok = bool(med_explicit >= 10.0 * med_fold)
    report(6, ok,
           f"median |Sigma - log U|_F over 8 controls: fold {med_fold:.3e}, "
           f"explicit {med_explicit:.3e}, {med_explicit / med_fold:.1f}x (need >= 10x)")


def test_criterion_7_certificate_validity(interp_runs, planted_log_runs,
                                          piecewise_interp_runs):
    checked = 0
    violations = []
    worst_margin = -np.inf
    for obj, _, res in interp_runs + planted_log_runs + piecewise_interp_runs:
        if res.status == "failed":
            continue
        scan = ball_scan_minimum(obj, res.radius, count=1_000_000)
        checked += 1
        margin = res.bound - scan
        worst_margin = max(worst_margin, margin)
        if margin > 1e-7:
            violations.append(margin)
    ok = checked > 0 and not violations
    report(7, ok,
           f"bound <= scan minimum + 1e-7 on {checked} instances, "
           f"worst margin={worst_margin:.2e}, violations={len(violations)}")


def timing_scan(sizes, m=3, horizon=0.5, reps=5):
    """Minimum build and solve milliseconds per Ising chain size, and the SDP
    statuses seen.

    The build covers the order-3 Magnus generator and the objective; for a
    polynomial envelope only its commutators and Frobenius products grow with
    the dimension 2^N.  The solve covers the base-order moment relaxation and
    its interior-point solve, which depend only on the objective's
    coefficients, never on N.  Repetition r plants the same control at every
    size, and each repetition visits every size, so a slow spell of the host
    lands on all sizes alike.
    """
    specs = []
    for n in sizes:
        pair = build_ising(n)
        spec = ProblemSpec(pair.h0, pair.hc, horizon, PolyControl(m))
        # one warm-up per size (allocator pools, BLAS spin-up), so the first
        # timed repetition is not systematically slower
        warm = build_lambda(spec, 3)
        build_objective(warm, pm_eval(warm, np.zeros(m)))
        specs.append(spec)
    build = np.full((len(sizes), reps), np.inf)
    solve = np.full((len(sizes), reps), np.inf)
    statuses = set()
    for rep in range(reps):
        x_star = trial_rng(0, rep).uniform(-1.0, 1.0, m)
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            generator = build_lambda(spec, 3)
            objective = build_objective(generator, pm_eval(generator, x_star))
            build[i, rep] = 1e3 * (time.perf_counter() - t0)
            t0 = time.perf_counter()
            scaled, _, radius, order = relaxation_setup(objective)
            statuses.add(sdp_solve(moment_relax(scaled, radius, order)[0]).status)
            solve[i, rep] = 1e3 * (time.perf_counter() - t0)
    return build.min(axis=1), solve.min(axis=1), statuses


def test_criterion_8_timing_trends():
    # min over repetitions estimates the true phase cost: scheduler and
    # cache contention only ever add time, so the minimum is the statistic
    # that reflects the size trend rather than machine load
    builds, solves, statuses = timing_scan(range(2, 7))
    # the build's matrix work grows as 8^N, but up to N=4 a build is about
    # 1 ms of fixed overhead and sizes that close cannot be ordered by
    # timing; so the trend is read as N=6, where the matrix work dominates,
    # against every size at least two qubits smaller
    growth = builds[-1] / max(builds[:-2])
    spread = max(solves) / min(solves)
    ok = growth >= 2.0 and spread < 2.0 and statuses <= set(BOUND_STATUSES)
    report(8, ok,
           f"build minima {['%.1f' % b for b in builds]} ms, N=6 over N<=4 "
           f"{growth:.2f}x (>=2x), solve spread {spread:.2f}x (<2x), "
           f"solve minima {['%.1f' % s for s in solves]} ms, statuses {sorted(statuses)}")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(99)
    details = []

    # anti-Hermiticity of both expansion generators at 100 points
    spec_c = poly_spec(0.5)
    lam = build_lambda(spec_c, 3)
    spec_p = piecewise_spec()
    sigma = build_sigma(spec_p, 4)
    worst_ah = 0.0
    for gen in (lam, sigma):
        for _ in range(100):
            mat = pm_eval(gen, rng.uniform(-1, 1, 3))
            worst_ah = max(worst_ah, float(np.abs(mat + mat.conj().T).max()))
    ok_ah = worst_ah <= 1e-12
    details.append(f"antiherm={worst_ah:.1e}")

    # objective non-negativity at 1000 points
    target = gen_target(spec_c, 404, 0)
    obj = build_objective(lam, target.generator)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    vals = obj.eval_many(pts)
    ok_nn = bool(vals.min() >= -1e-9 * (1.0 + np.abs(vals).max()))
    details.append(f"nonneg_min={vals.min():.1e}")

    # unitarity of every propagator output
    worst_u = 0.0
    eye = np.eye(spec_c.dim)
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        outs = [
            propagate_reference(spec_c, x),
            propagate_piecewise(spec_p, x),
            expm_antihermitian(pm_eval(lam, x)),
        ]
        for u in outs:
            worst_u = max(worst_u,
                          float(np.linalg.norm(u.conj().T @ u - eye)))
    ok_u = worst_u <= 1e-11
    details.append(f"unitarity={worst_u:.1e}")

    # exact gradient vs central differences
    h = 1e-5
    worst_g = 0.0
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        _, grad, _ = obj.jet(x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (obj.eval(x + e) - obj.eval(x - e)) / (2 * h)
            rel = abs(grad[k] - fd) / max(1.0, abs(fd))
            worst_g = max(worst_g, rel)
    ok_g = worst_g <= 1e-6
    details.append(f"grad_rel={worst_g:.1e}")

    # ordered-simplex integration vs adaptive quadrature, monomial by monomial
    poly = {(0, 0): 0.7, (1, 0): 1.3, (0, 1): -0.4, (1, 1): 2.1, (0, 2): 0.9}
    horizon = 0.7
    got = 0.0
    for time_exps, c in poly.items():
        power, denom = _simplex_weight(time_exps)
        got += c * horizon**power / denom

    def f(s2, s1):
        return 0.7 + 1.3 * s1 - 0.4 * s2 + 2.1 * s1 * s2 + 0.9 * s2 * s2

    ref, _ = integrate.dblquad(f, 0, horizon, 0, lambda s1: s1)
    rel_s = abs(got - ref) / abs(ref)
    ok_s = rel_s <= 1e-10
    details.append(f"simplex_rel={rel_s:.1e}")

    ok = ok_ah and ok_nn and ok_u and ok_g and ok_s
    report(9, ok, ", ".join(details))
