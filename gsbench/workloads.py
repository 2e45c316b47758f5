"""The benchmark's workloads: instance pools, set-up, one instance, its checks.

Every workload is a closed loop over a fixed pool of instances.  The pool
does not depend on the run's seed, so two runs see the same instances and
their medians compare; the seed rotates the order the pool is walked in and
draws the checks' random samples and self-test perturbations.

The program is called only through module attributes (``magnus.build_lambda``
rather than a name imported into this file), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import math

import numpy as np

from gatesynth import bch, hamlib, magnus, objective, polymat
from gatesynth.pop import relax, sdp
from gatesynth.workbench import bench

import checks

HORIZON = 0.5
CONTROL_DIM = 3
TARGET_SEED = 0          # gen_target base seed of the planted pools
PLANTED_TRIALS = 5       # trials 0..4 of TARGET_SEED
ISING_QUBITS = (3, 5, 7)
ISING_CONTROLS = (3, 5, 7)
ISING_ORDER = 3
ISING_POOL_SEED = 0      # exact-interpolation controls, one stream per instance
PERTURBATION = 0.1       # self-test: size of the control perturbation


class Planted:
    """Planted-target recovery on ibmq3: one ``bench.run_trial`` per instance."""

    ok_statuses = checks.PLANTED_OK

    def __init__(self, name: str, piecewise: bool, order: int):
        self.name = name
        self.piecewise = piecewise
        self.order = order

    def _spec(self, m: int) -> magnus.ProblemSpec:
        pair = hamlib.ibmq3()
        model = magnus.PiecewiseControl(m) if self.piecewise else magnus.PolyControl(m)
        return magnus.ProblemSpec(pair.h0, pair.hc, HORIZON, model, label=pair.label)

    def _generator(self, spec):
        if self.piecewise:
            return bch.build_sigma(spec, self.order)
        return magnus.build_lambda(spec, self.order)

    def _config(self, m: int, trials: int) -> bench.BenchConfig:
        return bench.BenchConfig(
            control="piecewise" if self.piecewise else "poly", control_dim=m,
            order=self.order, horizon=HORIZON, trials=trials, base_seed=TARGET_SEED)

    def setup(self):
        """Spec, shared generator, and one warm-up trial on a single control."""
        self.spec = self._spec(CONTROL_DIM)
        self.generator = self._generator(self.spec)
        self.config = self._config(CONTROL_DIM, PLANTED_TRIALS)
        warm = self._spec(1)
        bench.run_trial(warm, self._generator(warm), self._config(1, 1), 0)

    def pool(self) -> list:
        return list(range(PLANTED_TRIALS))

    def run(self, trial: int):
        return bench.run_trial(self.spec, self.generator, self.config, trial)

    @staticmethod
    def status(rec) -> str:
        return rec.status

    @staticmethod
    def gap(rec) -> float:
        return float(rec.gap)

    def check_key(self, trial, rec):
        return (trial, rec.status, rec.x_hat.tobytes(), rec.objective, rec.gap,
                rec.infid_prop)

    def _propagate(self, x):
        h0, hc = np.asarray(self.spec.h0), np.asarray(self.spec.hc)
        if self.piecewise:
            return checks.propagate_slices(h0, hc, HORIZON, x)
        return checks.propagate_poly(h0, hc, HORIZON, x)

    def _check_args(self, rec) -> dict:
        return dict(
            status=rec.status, x_star=rec.x_star, x_hat=rec.x_hat,
            value=float(rec.objective), bound=float(rec.objective - rec.gap),
            infid_reported=float(rec.infid_prop), propagate=self._propagate,
            generator_at=lambda x: polymat.pm_eval(self.generator, x))

    def check(self, trial, rec, rng) -> tuple[list, dict]:
        reasons, infid = checks.check_planted(**self._check_args(rec))
        return reasons, {"infidelity": infid}

    def self_test(self, trial, rec, rng) -> list:
        good = self._check_args(rec)
        step = rng.standard_normal(len(rec.x_hat))
        tampered = {
            "perturbed control": {
                **good, "x_hat": rec.x_hat + PERTURBATION * step / np.linalg.norm(step)},
            "raised bound": {**good, "bound": good["value"] + 1e-6},
            "swapped target": {
                **good, "x_star": rng.uniform(-1.0, 1.0, len(rec.x_star))},
        }
        return checks.self_test(lambda **kw: checks.check_planted(**kw)[0],
                                good, tampered)


class CertifyIsing:
    """Single-shot certified bound on Ising chains with exact-interpolation targets."""

    name = "certify-ising"
    ok_statuses = checks.CERTIFY_OK

    def setup(self):
        """Specs of every chain and control size, and one warm-up certificate."""
        self.specs = {}
        for qubits in ISING_QUBITS:
            pair = hamlib.build_ising(qubits)
            for m in ISING_CONTROLS:
                self.specs[qubits, m] = magnus.ProblemSpec(
                    pair.h0, pair.hc, HORIZON, magnus.PolyControl(m), label=pair.label)
        pair = hamlib.build_ising(2)
        warm = magnus.ProblemSpec(pair.h0, pair.hc, HORIZON, magnus.PolyControl(1))
        self._certify(warm, np.array([0.5]))

    def pool(self) -> list:
        items = []
        for qubits in ISING_QUBITS:
            for m in ISING_CONTROLS:
                rng = np.random.default_rng([ISING_POOL_SEED, len(items)])
                items.append((qubits, m, rng.uniform(-1.0, 1.0, m)))
        return items

    @staticmethod
    def _certify(spec, x_star) -> dict:
        """build_lambda -> build_objective -> moment_relax -> sdp_solve -> bound."""
        lam = magnus.build_lambda(spec, ISING_ORDER)
        omega = polymat.pm_eval(lam, x_star)
        obj = objective.build_objective(lam, omega)
        coeffs = obj.real_coeff_dict()
        scale = max((abs(c) for c in coeffs.values()), default=0.0) or 1.0
        radius = math.sqrt(spec.m) * 1.05
        order = max(1, (obj.degree() + 1) // 2)
        prob, rel = relax.moment_relax(obj * (1.0 / scale), radius, order)
        sol = sdp.sdp_solve(prob)
        return {
            "status": sol.status,
            "bound": checks.certified_bound(rel, sol, scale),
            "value": float(obj.eval(x_star).real),
            "radius": radius, "lam": lam, "omega": omega, "objective": obj,
        }

    def run(self, item) -> dict:
        qubits, m, x_star = item
        try:
            return self._certify(self.specs[qubits, m], x_star)
        except Exception as exc:  # a raising instance counts as failed
            return {"status": f"error:{type(exc).__name__}", "bound": math.nan,
                    "value": math.nan}

    @staticmethod
    def status(out) -> str:
        return out["status"]

    @staticmethod
    def gap(out) -> float:
        return out["value"] - out["bound"]

    def check_key(self, item, out):
        return (item[0], item[1], out["status"], out["bound"], out["value"])

    def _check_args(self, item, out, rng) -> dict:
        qubits, m, x_star = item
        lam = out["lam"]
        return dict(
            status=out["status"], x_star=x_star, omega=out["omega"],
            bound=out["bound"], objective=out["objective"],
            generator_at=lambda x: polymat.pm_eval(lam, x),
            sample=checks.ball_sample(m, out["radius"], checks.BALL_SAMPLE, rng))

    def check(self, item, out, rng) -> tuple[list, dict]:
        if out["status"] not in self.ok_statuses:
            return [f"status {out['status']!r}"], {}
        return checks.check_certificate(**self._check_args(item, out, rng)), {}

    def self_test(self, item, out, rng) -> list:
        good = self._check_args(item, out, rng)
        x_star = good["x_star"]
        step = rng.standard_normal(len(x_star))
        other = rng.uniform(-1.0, 1.0, len(x_star))
        tampered = {
            "perturbed control": {
                **good, "x_star": x_star + PERTURBATION * step / np.linalg.norm(step)},
            "raised bound": {**good, "bound": out["value"] + 1e-6},
            "swapped target": {
                **good, "omega": polymat.pm_eval(out["lam"], other)},
        }
        return checks.self_test(checks.check_certificate, good, tampered)


WORKLOADS = {
    "planted-poly3": lambda: Planted("planted-poly3", piecewise=False, order=3),
    "planted-pw3": lambda: Planted("planted-pw3", piecewise=True, order=4),
    "certify-ising": CertifyIsing,
}
