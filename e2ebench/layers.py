"""Which public callables stand for which layer, and the metrics they give.

:class:`Layers` wraps, for one traced pass, the public entry points of
every layer the benchmark reports on.  :class:`Probes` are the few
wrappers every run needs, traced or not: they capture each simulation's
datacenter and result for the correctness gate, and time each of its
placement decisions (the simulation latency).  Both only wrap; neither
changes what the program decides.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Dict, List, Optional

from tracer import END, PARENT, START, Patcher, Tracer, percentile

__all__ = ["Probes", "Layers", "PER_LAYER_UNITS"]

# Every per-layer metric the traced run prints, with its unit.  Time
# metrics named ``*_s`` / ``busy_s`` are self times: the span's duration
# minus its child spans, so they add up, with ``unattributed_s``, to
# the wall time of the measured phase.
PER_LAYER_UNITS: Dict[str, str] = {
    "setup.score_table_s": "s",
    "setup.graph_build_s": "s",
    "setup.rank_kernel_s": "s",
    "setup.fleet_build_s": "s",
    "policy.select.calls": "count",
    "policy.select.busy_s": "s",
    "policy.select.p99_us": "us",
    "policy.warm_batch.busy_s": "s",
    "policy.candidate_hit_ratio": "ratio",
    "policy.candidate_lookups": "count",
    "score_table.snap_rows": "count",
    "score_table.snap_busy_s": "s",
    "datacenter.apply.calls": "count",
    "datacenter.apply.busy_s": "s",
    "datacenter.migrate.calls": "count",
    "datacenter.migrate.busy_s": "s",
    "monitor.fold.calls": "count",
    "monitor.fold.busy_s": "s",
    "metering.busy_s": "s",
    "migration.victim.calls": "count",
    "migration.victim.busy_s": "s",
    "sim.allocate_s": "s",
    "sim.tick.busy_s": "s",
    "sim.ticks": "count",
    "sim.overloads": "count",
    "sim.migrations": "count",
    "admission.wait_ms.p50": "ms",
    "admission.wait_ms.p99": "ms",
    "admission.batch_size.mean": "count",
    "admission.shed": "count",
    "service.serve_batch.busy_s": "s",
    "service.retries": "count",
    "service.degraded": "count",
    "http.self_ms.p50": "ms",
    "failed_share": "ratio",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}

# (module, function, span name, group).  Functions are rebound in every
# module that imported them by name.
_FUNCTIONS = (
    ("repro.core.score_table", "build_score_table", "setup.score_table",
     "setup.score_table"),
    ("repro.core.graph_cache", "load_or_build_profile_graph",
     "setup.graph_build", "setup.graph_build"),
    ("repro.core.graph", "build_profile_graph", "setup.graph_build",
     "setup.graph_build"),
    ("repro.core.kernel_sweep", "sweep_profile_pagerank",
     "setup.rank_kernel", "setup.rank_kernel"),
    ("repro.cluster.ec2", "build_ec2_soa_datacenter", "setup.fleet_build",
     "setup.fleet_build"),
    ("repro.cluster.ec2", "build_ec2_datacenter", "setup.fleet_build",
     "setup.fleet_build"),
)

# (module, class, method, span name, group).  Subclasses that define
# their own method are wrapped too; a call that re-enters its group is
# folded into the outer span.
_METHODS = (
    ("repro.core.policy", "ProfileScorePolicy", "warm_batch",
     "policy.warm_batch", "policy.warm_batch"),
    ("repro.cluster.datacenter", "Datacenter", "apply",
     "datacenter.apply", "datacenter"),
    ("repro.cluster.datacenter", "Datacenter", "migrate",
     "datacenter.migrate", "datacenter"),
    ("repro.core.soa.datacenter", "SoADatacenter", "apply",
     "datacenter.apply", "datacenter"),
    ("repro.core.soa.datacenter", "SoADatacenter", "migrate",
     "datacenter.migrate", "datacenter"),
    ("repro.cluster.monitor", "UtilizationMonitor", "snapshot_frame",
     "monitor.fold", "monitor.fold"),
    ("repro.core.soa.datacenter", "SoADatacenter", "monitor_arrays",
     "monitor.fold", "monitor.fold"),
    ("repro.cluster.energy", "EnergyMeter", "accumulate_many",
     "metering", "metering"),
    ("repro.cluster.slo", "SLOTracker", "record_many", "metering",
     "metering"),
    ("repro.core.migration", "PageRankMigrationSelector", "select_victim",
     "migration.victim", "migration.victim"),
    ("repro.baselines.migration_policies", "MinimumMigrationTimeSelector",
     "select_victim", "migration.victim", "migration.victim"),
    ("repro.cluster.simulation", "CloudSimulation", "allocate_initial",
     "sim.allocate", "sim.allocate"),
)

# Modules whose classes must be loaded before subclasses are collected.
_PRELOAD = (
    "repro.baselines",
    "repro.core.placement",
    "repro.core.soa",
    "repro.experiments.runner",
    "repro.experiments.sweep",
    "repro.serve.app",
    "repro.serve.fleet",
)


class Probes:
    """Always-on capture of simulations and of how long each of their
    placement decisions took."""

    def __init__(self) -> None:
        # One entry per simulation: its datacenter, its result and the
        # (start, end) clock readings of every placement decision it made.
        self.sims: List[Dict[str, Any]] = []
        self._by_sim: Dict[int, Dict[str, Any]] = {}
        self._entry: Optional[Dict[str, Any]] = None
        self._deciding = False

    def reset(self) -> None:
        self.sims.clear()
        self._by_sim.clear()

    def install(self, patcher: Patcher) -> None:
        probes = self
        clock = time.perf_counter

        def wrap_init(init):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                datacenter = args[0] if args else kwargs["datacenter"]
                entry = {"sim": self, "datacenter": datacenter,
                         "result": None, "decisions": []}
                probes._by_sim[id(self)] = entry
                probes.sims.append(entry)
            return __init__

        def wrap_run(run):
            def run_(self, *args, **kwargs):
                entry = probes._by_sim.get(id(self))
                if entry is None:
                    return run(self, *args, **kwargs)
                probes._entry = entry
                try:
                    entry["result"] = run(self, *args, **kwargs)
                finally:
                    probes._entry = None
                return entry["result"]
            return run_

        def wrap_select(select):
            def select_(self, *args, **kwargs):
                entry = probes._entry
                if probes._deciding or entry is None:
                    return select(self, *args, **kwargs)
                probes._deciding = True
                start = clock()
                try:
                    return select(self, *args, **kwargs)
                finally:
                    entry["decisions"].append((start, clock()))
                    probes._deciding = False
            return select_

        patcher.method("repro.cluster.simulation", "CloudSimulation",
                       "__init__", wrap_init)
        patcher.method("repro.cluster.simulation", "CloudSimulation", "run",
                       wrap_run)
        patcher.method("repro.core.policy", "PlacementPolicy", "select",
                       wrap_select)


class Layers:
    """The traced pass: installs span wrappers, then derives metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._policies: Dict[int, List[Any]] = {}

    def install(self, patcher: Patcher) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        tracer = self.tracer
        for module, attr, name, group in _FUNCTIONS:
            patcher.function(
                module, attr,
                lambda fn, n=name, g=group: tracer.sync(n, g, fn),
            )
        for module, cls, attr, name, group in _METHODS:
            patcher.method(
                module, cls, attr,
                lambda fn, n=name, g=group: tracer.sync(n, g, fn),
            )
        patcher.method(
            "repro.core.score_table", "ScoreTable", "score_or_snap_many",
            lambda fn: tracer.sync(
                "score_table.snap", "score_table.snap", fn,
                size_of=lambda self, usages: len(usages),
            ),
        )
        patcher.method(
            "repro.core.score_table", "ScoreTable", "score_or_snap",
            lambda fn: tracer.sync(
                "score_table.snap", "score_table.snap", fn,
                size_of=lambda self, usage: 1,
            ),
        )
        patcher.method(
            "repro.cluster.events", "EventLoop", "schedule_every",
            lambda fn: lambda loop, interval, action, *a, **k: fn(
                loop, interval, tracer.sync("sim.tick", "sim.tick", action),
                *a, **k,
            ),
        )
        patcher.method(
            "repro.serve.service", "PlacementService", "serve_batch",
            lambda fn: tracer.sync(
                "service.serve_batch", "service.serve_batch", fn,
                size_of=lambda self, requests: len(requests),
            ),
        )
        patcher.method(
            "repro.core.policy", "PlacementPolicy", "select", self._wrap_select
        )
        patcher.method(
            "repro.serve.service", "PlacementService", "serve_one",
            lambda fn: tracer.sync(
                "service.serve_one", "service.serve_one", fn,
                request_of=lambda self, request: request.request_id,
            ),
        )
        patcher.method(
            "repro.serve.admission", "AdmissionQueue", "submit",
            lambda fn: tracer.asynchronous(
                "admission.submit", fn,
                request_of=lambda self, request: request.request_id,
            ),
        )
        patcher.method(
            "repro.serve.app", "PlacementApp", "__call__",
            lambda fn: tracer.asynchronous("http.request", fn),
        )

    def _wrap_select(self, fn):
        traced = self.tracer.sync("policy.select", "policy.select", fn)
        policies = self._policies

        def select(policy, *args, **kwargs):
            if id(policy) not in policies:
                policies[id(policy)] = [policy, _cache_counts(policy)]
            return traced(policy, *args, **kwargs)

        return select

    def start_measured(self) -> None:
        """Zero the candidate-cache baselines of policies seen so far."""
        for entry in self._policies.values():
            entry[1] = _cache_counts(entry[0])

    def metrics(
        self,
        measured_wall_s: float,
        untraced_wall_s: float,
        counters: Dict[str, float],
    ) -> Dict[str, float]:
        tracer = self.tracer
        run = tracer.summarize(("measured",))
        with_setup = tracer.summarize(("setup", "measured"))

        def self_s(name: str, table=run) -> float:
            return table.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return run.get(name, {}).get("calls", 0)

        hits = lookups = 0
        for policy, (base_hits, base_lookups) in self._policies.values():
            now_hits, now_lookups = _cache_counts(policy)
            hits += now_hits - base_hits
            lookups += now_lookups - base_lookups

        waits_ms: List[float] = []
        http_self_ms: List[float] = []
        by_request = tracer.request_spans("measured")
        served = by_request.get("service.serve_one", {})
        for request, submit in by_request.get("admission.submit", {}).items():
            submit_s = submit[END] - submit[START]
            own = served.get(request)
            own_s = own[END] - own[START] if own is not None else 0.0
            waits_ms.append((submit_s - own_s) * 1e3)
            parent = submit[PARENT]
            if parent is not None:
                http = tracer.spans[parent]
                http_self_ms.append(
                    (http[END] - http[START] - submit_s) * 1e3
                )
        batches = run.get("service.serve_batch", {})
        select_us = [
            d * 1e6 for d in run.get("policy.select", {}).get("durations", [])
        ]
        roots = run.get("measured", {})
        return {
            "setup.score_table_s": self_s("setup.score_table", with_setup),
            "setup.graph_build_s": self_s("setup.graph_build", with_setup),
            "setup.rank_kernel_s": self_s("setup.rank_kernel", with_setup),
            "setup.fleet_build_s": self_s("setup.fleet_build", with_setup),
            "policy.select.calls": calls("policy.select"),
            "policy.select.busy_s": self_s("policy.select"),
            "policy.select.p99_us": percentile(select_us, 99),
            "policy.warm_batch.busy_s": self_s("policy.warm_batch"),
            "policy.candidate_hit_ratio": hits / lookups if lookups else 0.0,
            "policy.candidate_lookups": lookups,
            "score_table.snap_rows": run.get("score_table.snap", {}).get(
                "size", 0
            ),
            "score_table.snap_busy_s": self_s("score_table.snap"),
            "datacenter.apply.calls": calls("datacenter.apply"),
            "datacenter.apply.busy_s": self_s("datacenter.apply"),
            "datacenter.migrate.calls": calls("datacenter.migrate"),
            "datacenter.migrate.busy_s": self_s("datacenter.migrate"),
            "monitor.fold.calls": calls("monitor.fold"),
            "monitor.fold.busy_s": self_s("monitor.fold"),
            "metering.busy_s": self_s("metering"),
            "migration.victim.calls": calls("migration.victim"),
            "migration.victim.busy_s": self_s("migration.victim"),
            "sim.allocate_s": self_s("sim.allocate"),
            "sim.tick.busy_s": self_s("sim.tick"),
            "sim.ticks": calls("sim.tick"),
            "sim.overloads": counters.get("overloads", 0),
            "sim.migrations": counters.get("migrations", 0),
            "admission.wait_ms.p50": percentile(waits_ms, 50),
            "admission.wait_ms.p99": percentile(waits_ms, 99),
            "admission.batch_size.mean": (
                batches["size"] / batches["calls"] if batches else 0.0
            ),
            "admission.shed": counters.get("shed", 0),
            "service.serve_batch.busy_s": self_s("service.serve_batch"),
            "service.retries": counters.get("retries", 0),
            "service.degraded": counters.get("degraded", 0),
            "http.self_ms.p50": percentile(http_self_ms, 50),
            "failed_share": counters.get("failed_share", 0.0),
            "unattributed_s": roots.get("self_s", 0.0),
            "trace.wall_s": measured_wall_s,
            "trace.overhead_share": measured_wall_s / untraced_wall_s - 1.0,
        }


def _cache_counts(policy: Any):
    info = getattr(policy, "cache_info", None)
    if info is None:
        return (0, 0)
    current = info()
    return (current.hits, current.hits + current.misses)
