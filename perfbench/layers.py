"""The layers the traced run measures and how their metrics are derived.

Every wrapped call is named after this repository's modules.  Module
functions are replaced in every ``repro.*`` module that imported them
(where the caller looks the name up); methods are replaced on the class.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Mapping

from spans import Patcher, Tracer

#: Strategies of the sweep grid, in registry order.
STRATEGIES = ("default", "eri", "hw", "hybrid", "gradient")


def _after_solve(tracer: Tracer, result, args, kwargs, parent) -> None:
    # solve_power_map delegates to solve; count each right-hand side once.
    if parent == "thermal.solve":
        return
    lanes = len(result) if isinstance(result, list) else 1
    tracer.count("thermal.rhs", lanes)
    tracer.count("thermal.mg_iters", args[0].last_iterations * lanes)


def _transform_name(args, kwargs) -> str:
    return "core.transform." + args[0].config.strategy_impl.name


#: (span name, "module:attribute" or "module:Class.method", after hook).
WRAPPED = (
    ("bench.build", "repro.bench.synthetic:build_synthetic_circuit", None),
    ("netlist.copy", "repro.netlist.netlist:Netlist.copy", None),
    ("netlist.lower", "repro.netlist.netlist:Netlist.compiled", None),
    ("netlist.lower", "repro.netlist.compiled:CompiledNetlist._levelize", None),
    ("placement.global", "repro.placement.placer:place_design", None),
    ("placement.legalize", "repro.placement.legalize:tetris_legalize", None),
    ("placement.legalize", "repro.placement.legalize:pack_into_region", None),
    ("placement.detailed", "repro.placement.detailed:improve_placement", None),
    ("placement.filler", "repro.placement.filler:insert_fillers", None),
    ("placement.copy", "repro.placement.placement:Placement.copy", None),
    ("power.logicsim", "repro.power.logicsim:LogicSimulator.simulate", None),
    ("power.model", "repro.power.power_model:PowerModel.estimate", None),
    ("power.binning", "repro.power.power_map:build_power_map", None),
    ("thermal.build", "repro.thermal.solver:ThermalSolver.__init__", None),
    ("thermal.solve", "repro.thermal.solver:ThermalSolver.solve", _after_solve),
    ("thermal.solve", "repro.thermal.solver:ThermalSolver.solve_many", _after_solve),
    ("timing.sta", "repro.timing.sta:StaticTimingAnalyzer.analyze", None),
    ("core.transform", "repro.core.area_manager:AreaManager.optimize", None),
    ("flow.store_get", "repro.flow.store:ResultStore.get", None),
    ("flow.store_put", "repro.flow.store:ResultStore.put", None),
    ("service.request", "repro.service.client:SweepClient.sweep", None),
)

#: Spans every workload's call path reaches.
REQUIRED_COMMON = (
    "bench.build", "netlist.copy", "netlist.lower", "placement.global",
    "placement.legalize", "placement.detailed", "placement.filler",
    "placement.copy", "power.logicsim", "power.model", "power.binning",
    "thermal.build", "thermal.solve", "timing.sta", "flow.digest",
    "flow.store_get", "flow.store_put",
)


def required_spans(kind: str, strategies: Iterable[str]) -> List[str]:
    """Spans a traced run of ``kind`` ("sweep" or "serve") must record.

    ``strategies`` are the strategies the run asked for; each must reach
    its own transform span.
    """
    names = list(REQUIRED_COMMON)
    names += [f"core.transform.{name}" for name in sorted(set(strategies))]
    if kind == "serve":
        names.append("service.request")
    return names


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every call in :data:`WRAPPED` plus the artifact digests."""
    for span, target, after in WRAPPED:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        name = _transform_name if span == "core.transform" else span
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            patcher.set(owner, method, tracer.wrap(owner.__dict__[method], name, after))
        else:
            fn = getattr(module, attr)
            if not patcher.replace_function(fn, tracer.wrap(fn, name, after), "repro"):
                raise RuntimeError(f"no module references {target}")
    artifacts = importlib.import_module("repro.flow.artifacts")
    for attr, fn in sorted(vars(artifacts).items()):
        if attr.endswith("_digest") and callable(fn) and fn.__module__ == artifacts.__name__:
            patcher.replace_function(fn, tracer.wrap(fn, "flow.digest"), "repro")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "bench.build_s": "s",
    "netlist.copy_s": "s",
    "netlist.copy_calls": "count",
    "netlist.lower_s": "s",
    "placement.global_s": "s",
    "placement.legalize_s": "s",
    "placement.detailed_s": "s",
    "placement.filler_s": "s",
    "placement.copy_s": "s",
    "power.logicsim_s": "s",
    "power.model_s": "s",
    "power.binning_s": "s",
    "power.binning_calls": "count",
    "thermal.build_s": "s",
    "thermal.build_calls": "count",
    "thermal.solve_s": "s",
    "thermal.rhs_count": "count",
    "thermal.mg_iters_per_rhs": "iters/rhs",
    "thermal.fallback_points": "count",
    "timing.sta_s": "s",
    "timing.sta_calls": "count",
    "core.transform_s": "s",
    **{f"core.transform_s.{name}": "s" for name in STRATEGIES},
    "flow.digest_s": "s",
    "flow.stage_runs": "count",
    "flow.stage_hits": "count",
    "flow.artifact_hit_ratio": "ratio",
    "flow.solver_cache_hit_ratio": "ratio",
    "flow.solve_groups": "count",
    "flow.points_per_solve_group": "points/group",
    "flow.retries": "count",
    "flow.store_get_s": "s",
    "flow.store_put_s": "s",
    "flow.store_hit_ratio": "ratio",
    "flow.resume_s": "s",
    "service.request_calls": "count",
    "service.store_hit_ratio": "ratio",
    "service.inflight_joins": "count",
    "service.points_per_solve_group": "points/group",
    "service.points_per_batch": "points/batch",
    "service.rejected": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, facts: Mapping[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the trace plus counts the run collected.

    Args:
        tracer: The run's tracer.
        facts: Counts read from the program's own stats after the run:
            ``stage_runs``, ``stage_hits``, ``solver_cache_hits``,
            ``solver_cache_misses``, ``solve_groups``, ``points_evaluated``,
            ``retries``, ``store_hits``, ``store_misses``,
            ``fallback_points``, and for the served workload
            ``service_points_requested``, ``service_store_hits``,
            ``service_inflight_joins``, ``service_points_solved``,
            ``service_solve_groups``, ``service_batches``,
            ``service_rejected``; plus ``resume_s`` (the run's median
            resume pass), ``coverage`` and ``overhead``.
    """
    s, calls, count = tracer.self_s, tracer.calls, tracer.counters
    f = lambda key: float(facts.get(key, 0.0))  # noqa: E731
    metrics = {
        "bench.build_s": s["bench.build"],
        "netlist.copy_s": s["netlist.copy"],
        "netlist.copy_calls": calls["netlist.copy"],
        "netlist.lower_s": s["netlist.lower"],
        "placement.global_s": s["placement.global"],
        "placement.legalize_s": s["placement.legalize"],
        "placement.detailed_s": s["placement.detailed"],
        "placement.filler_s": s["placement.filler"],
        "placement.copy_s": s["placement.copy"],
        "power.logicsim_s": s["power.logicsim"],
        "power.model_s": s["power.model"],
        "power.binning_s": s["power.binning"],
        "power.binning_calls": calls["power.binning"],
        "thermal.build_s": s["thermal.build"],
        "thermal.build_calls": calls["thermal.build"],
        "thermal.solve_s": s["thermal.solve"],
        "thermal.rhs_count": count["thermal.rhs"],
        "thermal.mg_iters_per_rhs": _ratio(count["thermal.mg_iters"], count["thermal.rhs"]),
        "thermal.fallback_points": f("fallback_points"),
        "timing.sta_s": s["timing.sta"],
        "timing.sta_calls": calls["timing.sta"],
        "core.transform_s": sum(s[f"core.transform.{name}"] for name in STRATEGIES),
        **{f"core.transform_s.{name}": s[f"core.transform.{name}"] for name in STRATEGIES},
        "flow.digest_s": s["flow.digest"],
        "flow.stage_runs": f("stage_runs"),
        "flow.stage_hits": f("stage_hits"),
        "flow.artifact_hit_ratio": _ratio(f("stage_hits"), f("stage_hits") + f("stage_runs")),
        "flow.solver_cache_hit_ratio": _ratio(
            f("solver_cache_hits"), f("solver_cache_hits") + f("solver_cache_misses")
        ),
        "flow.solve_groups": f("solve_groups"),
        "flow.points_per_solve_group": _ratio(f("points_evaluated"), f("solve_groups")),
        "flow.retries": f("retries"),
        "flow.store_get_s": s["flow.store_get"],
        "flow.store_put_s": s["flow.store_put"],
        "flow.store_hit_ratio": _ratio(f("store_hits"), f("store_hits") + f("store_misses")),
        "flow.resume_s": f("resume_s"),
        "service.request_calls": calls["service.request"],
        "service.store_hit_ratio": _ratio(
            f("service_store_hits"), f("service_points_requested")
        ),
        "service.inflight_joins": f("service_inflight_joins"),
        "service.points_per_solve_group": _ratio(
            f("service_points_solved"), f("service_solve_groups")
        ),
        "service.points_per_batch": _ratio(f("service_points_solved"), f("service_batches")),
        "service.rejected": f("service_rejected"),
        "trace.coverage": f("coverage"),
        "trace.overhead": f("overhead"),
    }
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}


def layer_groups(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Self time summed per group, for the object-graph vs thermal split."""
    object_graph = ("core.transform_s", "netlist.copy_s", "netlist.lower_s",
                    "placement.global_s", "placement.legalize_s",
                    "placement.detailed_s", "placement.filler_s",
                    "placement.copy_s", "timing.sta_s")
    return {
        "object_graph_s": sum(metrics[name] for name in object_graph),
        "thermal_s": metrics["thermal.build_s"] + metrics["thermal.solve_s"],
    }
