"""Run one workload of the gatesynth benchmark and print its metrics as JSON.

    python3 gsbench/run.py --workload planted-poly3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  The metric
names and units are read from ``BENCHMARK.json`` at the same root.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  A summary
of the run and, when traced, its spans are written under ``gsbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: on 2 cores it runs these block sizes about as fast as two,
# and it keeps runs steady; pinned before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROCESSES = 3   # set-up is timed in this process and in two fresh ones
SELF_TEST_STREAM = 2**31 - 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, print the set-up time, and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("seed must be non-negative and seconds positive")
    return args


class Run:
    """Closed loop over whole rounds of a workload's pool, with inline checks."""

    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        pool = workload.pool()
        start = seed % len(pool)
        self.order = list(range(start, len(pool))) + list(range(start))
        self.pool = pool
        self.records = []
        self._checked = {}
        self.self_test = None

    def rounds(self, seconds: float, traced: bool) -> list:
        """Whole rounds until another round would pass ``seconds`` of instance time.

        Returns the records of these rounds.
        """
        first = len(self.records)
        timed = 0.0
        while True:
            round_s = sum(self._instance(index, traced) for index in self.order)
            timed += round_s
            if timed + round_s > seconds:
                return self.records[first:]

    def _instance(self, index: int, traced: bool) -> float:
        item = self.pool[index]
        first = len(self.tracer.spans) if traced else 0
        t0, c0 = time.perf_counter(), time.process_time()
        out = self.wl.run(item)
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        record = {"index": index, "seconds": elapsed, "cpu_s": cpu, "traced": traced,
                  "status": self.wl.status(out), "gap": self.wl.gap(out)}
        if traced:
            record["unattributed_s"] = elapsed - self.tracer.top_level_seconds(first)
        if self.tracer is not None:
            self.tracer.uninstall()  # checks are not traced
        record.update(self._check(index, item, out))
        if self.tracer is not None and traced:
            self.tracer.install()
        self.records.append(record)
        return elapsed

    def _check(self, index, item, out) -> dict:
        key = self.wl.check_key(item, out)
        if key not in self._checked:
            rng = np.random.default_rng([self.seed, index])
            reasons, ref = self.wl.check(item, out, rng)
            program_ok = self.wl.status(out) in self.wl.ok_statuses
            if program_ok and not reasons and self.self_test is None:
                rng = np.random.default_rng([self.seed, SELF_TEST_STREAM])
                self.self_test = self.wl.self_test(item, out, rng)
            self._checked[key] = {"program_ok": program_ok, "reasons": reasons, **ref}
        return self._checked[key]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r["program_ok"] or r["reasons"])

    @property
    def correct(self) -> bool:
        rejected = any(r["program_ok"] and r["reasons"] for r in self.records)
        return self.self_test == [] and not rejected


def instance_s(records: list) -> float:
    """Median over the pool of each instance's median wall time.

    Every pool member weighs the same however many rounds a run completes,
    so the figure does not shift with the round count.
    """
    per_index = {}
    for r in records:
        per_index.setdefault(r["index"], []).append(r["seconds"])
    return statistics.median(statistics.median(v) for v in per_index.values())


def end_to_end(records: list, setup_s: float, peak_mb: float) -> dict:
    ok = [r for r in records if r["program_ok"] and not r["reasons"]]
    return {
        "setup_s": setup_s,
        "instance_s": instance_s(records),
        "instances_per_s": len(ok) / sum(r["seconds"] for r in records),
        "peak_rss_mb": peak_mb,
        "gap_median": statistics.median(r["gap"] for r in ok) if ok else None,
    }


def reference(run: Run) -> dict:
    statuses = {}
    for r in run.records:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    infid = [r["infidelity"] for r in run.records if "infidelity" in r
             and r["program_ok"]]
    gaps = sorted(r["gap"] for r in run.records if r["program_ok"])
    ref = {
        "instances": len(run.records),
        "distinct_instances": len(run.pool),
        "statuses": statuses,
        "gap_min": gaps[0] if gaps else None,
        "gap_max": gaps[-1] if gaps else None,
        "self_test": run.self_test,
        "rejections": [
            {"index": r["index"], "reasons": r["reasons"]}
            for r in run.records if r["reasons"]
        ],
    }
    if infid:
        ref["median_infidelity"] = statistics.median(infid)
    return ref


def fresh_setup_s(args) -> float:
    """Set-up time, imports included, of a fresh process on the same workload."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gatesynth" / "__init__.py").is_file():
        print(f"no gatesynth sources under {src}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    setups = [time.perf_counter() - T_START]
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    run = Run(wl, args.seed, tracer)
    if tracer is None:
        setups += [fresh_setup_s(args) for _ in range(SETUP_PROCESSES - 1)]
        setup_s = statistics.median(setups)
        records = run.rounds(args.seconds, traced=False)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(records, setup_s, peak_mb)
        declared = spec["end_to_end"]
    else:
        plain = run.rounds(args.seconds / 2, traced=False)
        tracer.install()
        traced = run.rounds(args.seconds / 2, traced=True)
        tracer.uninstall()
        values = tracing.layer_metrics(tracer.spans)
        values["trace.overhead_s"] = instance_s(traced) - instance_s(plain)
        values["trace.unattributed_s"] = sum(
            r["unattributed_s"] for r in run.records if r["traced"])
        declared = spec["per_layer"]

    names = [m["name"] for m in declared]
    if set(names) != set(values):
        print(f"metric mismatch: missing {sorted(set(names) - set(values))}, "
              f"undeclared {sorted(set(values) - set(names))}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref = reference(run)
    summary = {"args": vars(args), "import_s": import_s, "setup_runs_s": setups,
               "reference": ref, "records": run.records, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1, default=str))
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))

    print(json.dumps({"reference": ref}, default=str))
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
