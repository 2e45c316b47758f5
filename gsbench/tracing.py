"""Span tracing around the public functions of each gatesynth layer.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
every module-level reference to a traced function inside ``gatesynth`` by a
wrapper that records one span per call: name, start,
end, the enclosing span, and a few facts read off the arguments and the
return value.  ``uninstall`` puts the originals back.  Spans stay in memory
and are turned into per-layer metrics by ``layer_metrics`` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

SDP_STATUSES = (
    "optimal", "stalled", "max_iterations", "numerical_failure",
    "suspected_infeasible",
)
SDP_ORDERS = (2, 3, 4, 5)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bound_args(sig, args, kwargs) -> dict:
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


class Tracer:
    """Records spans for the traced layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # block sizes of each relaxation built so far -> its order; the trace
        # re-solve keeps the block sizes, so its SDP is booked at that order
        self._orders: dict[tuple, int] = {}

    # -- hooks: facts read off one call ------------------------------------

    def _on_midpoint(self, span, call, out):
        spec, steps = call.get("spec"), call.get("steps")
        if spec is not None and steps is not None:
            span.info["steps"] = int(steps)
            span.info["bytes"] = 16 * int(steps) * spec.dim * spec.dim

    def _on_relax(self, span, call, out):
        prob = out[0]
        order = int(call["order"])
        span.info["order"] = order
        self._orders[tuple(prob.block_sizes)] = order

    def _on_extract(self, span, call, out):
        span.info["rank1"] = out is not None

    def _on_sdp(self, span, call, out):
        prob = call["prob"]
        sizes = tuple(prob.block_sizes)
        p = prob.n_constraints
        span.info.update(
            order=self._orders.get(sizes),
            status=out.status,
            iterations=int(out.iterations),
            flops_per_iteration=p * sum(s**3 for s in sizes)
            + p * p * sum(s * s for s in sizes),
            stack_bytes=8 * p * sum(s * s for s in sizes),
        )

    def _on_minimize(self, span, call, out):
        span.info["status"] = out.status

    TARGETS = (
        ("gatesynth.magnus", "build_lambda", "magnus.build_lambda", None),
        ("gatesynth.bch", "build_sigma", "bch.build_sigma", None),
        ("gatesynth.objective", "build_objective", "objective.build_objective", None),
        ("gatesynth.workbench.targets", "gen_target", "targets.gen_target", None),
        ("gatesynth.numerics", "propagate_reference", "numerics.propagate_reference", None),
        ("gatesynth.numerics", "action_integral", "numerics.action_integral", None),
        ("gatesynth.numerics", "midpoint_propagate", "numerics.midpoint_propagate", "_on_midpoint"),
        ("gatesynth.pop.relax", "moment_relax", "relax.moment_relax", "_on_relax"),
        ("gatesynth.pop.relax", "extract_minimizer", "relax.extract_minimizer", "_on_extract"),
        ("gatesynth.pop.sdp", "sdp_solve", "sdp.solve", "_on_sdp"),
        ("gatesynth.pop.polish", "newton_polish", "polish.newton_polish", None),
        ("gatesynth.pop.minimize", "minimize_global", "minimize.minimize_global", "_on_minimize"),
    )

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    hook(span, _bound_args(sig, args, kwargs), out)
                except (KeyError, AttributeError, TypeError, IndexError) as exc:
                    # a changed signature loses the facts, never the call
                    span.info["hook_error"] = type(exc).__name__
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every reference to a traced function; missing ones are skipped."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and key.split(".")[0] == "gatesynth"
        ]
        for mod_name, attr, name, hook in self.TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(original, name, getattr(self, hook) if hook else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def top_level_seconds(self, first: int) -> float:
        """Summed duration of the top-level spans recorded from index ``first``."""
        return sum(s.seconds for s in self.spans[first:] if s.parent == -1)

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **s.info}
            for s in self.spans
        ]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures summed over every span of the run."""
    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    out = {
        "magnus.build_lambda_s": total("magnus.build_lambda"),
        "bch.build_sigma_s": total("bch.build_sigma"),
        "objective.build_objective_s": total("objective.build_objective"),
        "targets.gen_target_s": total("targets.gen_target"),
        "targets.gen_target_calls": len(named("targets.gen_target")),
        "numerics.propagate_reference_s": total("numerics.propagate_reference"),
        "numerics.propagate_reference_calls": len(named("numerics.propagate_reference")),
        "numerics.action_integral_s": total("numerics.action_integral"),
        "numerics.action_integral_calls": len(named("numerics.action_integral")),
    }
    mid = named("numerics.midpoint_propagate")
    out["numerics.midpoint_steps"] = sum(s.info.get("steps", 0) for s in mid)
    out["numerics.oracle_bytes_max"] = max((s.info.get("bytes", 0) for s in mid), default=0)

    relax = named("relax.moment_relax")
    extract = named("relax.extract_minimizer")
    rank1 = sum(1 for s in extract if s.info.get("rank1"))
    out.update({
        "relax.moment_relax_s": total("relax.moment_relax"),
        "relax.moment_relax_calls": len(relax),
        "relax.max_order": max((s.info.get("order", 0) for s in relax), default=0),
        "relax.extract_calls": len(extract),
        "relax.extract_rank1": rank1,
        "relax.extract_hit_ratio": rank1 / len(extract) if extract else 0.0,
    })

    sdp = named("sdp.solve")
    sdp_s = total("sdp.solve")
    iters = sum(s.info.get("iterations", 0) for s in sdp)
    out.update({
        "sdp.solve_s": sdp_s,
        "sdp.solve_calls": len(sdp),
        "sdp.iterations": iters,
        "sdp.s_per_iteration": sdp_s / iters if iters else 0.0,
    })
    for order in SDP_ORDERS:
        out[f"sdp.solve_s.order{order}"] = sum(
            s.seconds for s in sdp if s.info.get("order") == order)
    out["sdp.schur_flops"] = sum(
        s.info.get("flops_per_iteration", 0) * s.info.get("iterations", 0) for s in sdp)
    out["sdp.stack_bytes_max"] = max((s.info.get("stack_bytes", 0) for s in sdp), default=0)
    for status in SDP_STATUSES:
        out[f"sdp.status.{status}"] = sum(1 for s in sdp if s.info.get("status") == status)

    polish = named("polish.newton_polish")
    out.update({
        "polish.newton_polish_s": total("polish.newton_polish"),
        "polish.newton_polish_calls": len(polish),
        "polish.diverged": sum(1 for s in polish if "raised" in s.info),
    })

    minimize = named("minimize.minimize_global")
    mins = {i for i, s in enumerate(spans) if s.name == "minimize.minimize_global"}
    child_s = sum(s.seconds for s in spans if s.parent in mins)
    out.update({
        "minimize.minimize_global_s": total("minimize.minimize_global"),
        "minimize.self_s": total("minimize.minimize_global") - child_s,
        "minimize.status.rank-1": sum(1 for s in minimize if s.info.get("status") == "rank-1"),
        "minimize.status.polished": sum(1 for s in minimize if s.info.get("status") == "polished"),
    })
    return out
