"""The benchmark under ``gsbench/`` still runs against the package.

The benchmark reads package names the package does not otherwise promise to
keep (``Polynomial.real_coeff_dict``, ``pm_eval``, ``BenchConfig``'s fields,
``run_trial``, ``MomentRelaxation``'s fields).  This runs each workload's
set-up and every pool instance through its own checks, so a rename in
``src/``, or a failure on one instance, fails here rather than as a failed
benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

GSBENCH = Path(__file__).resolve().parent.parent / "gsbench"
# the benchmark's own modules, imported by name from GSBENCH
BENCH_MODULES = ("workloads", "checks")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(GSBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_workload_runs_and_passes_its_checks(workloads):
    for name, make in workloads.WORKLOADS.items():
        wl = make()
        wl.setup()
        for index, item in enumerate(wl.pool()):
            out = wl.run(item)
            assert wl.status(out) in wl.ok_statuses, (name, index)
            reasons, _ = wl.check(item, out, np.random.default_rng(0))
            assert reasons == [], (name, index)
            assert wl.self_test(item, out, np.random.default_rng(1)) == [], (name, index)
