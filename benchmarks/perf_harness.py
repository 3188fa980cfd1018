"""Performance trajectory harness: measures the hot paths, writes BENCH_perf.json.

Run as a script to append one entry to the repo-root ``BENCH_perf.json``
trajectory::

    PYTHONPATH=src python benchmarks/perf_harness.py [--quick] [--out PATH]

Each entry records ops/sec for the kernels that dominate evaluation
wall-clock — the PageRank power iteration on an EC2-scale graph, snap
lookups against the EC2 score table, one Algorithm 2 placement decision
over a fleet — plus graph-construction wall-clock on the EC2-scale
workload (a cold build and a cache reload) and end-to-end
:func:`run_experiment` wall-clock at ``workers=1`` and
``workers=cpu_count`` (with a bit-identical-results check between the
two), and an online-serving phase — allocate plus a day-long simulate on
the EC2 M3 workload — timed against the seed serving path (linear scans
and the chunk-walking tick) with a decision-identity cross-check.  A
tagged ``"kernel"`` phase entry rides along: the exact DAG-sweep rank
kernel vs the warm power iteration, with its fixed-point residual.
Future PRs append entries, so the file
reads as a perf trajectory across the repo's history; ``repro perf
check`` gates each phase's latest entry against that history.

The seed (pre-optimization) implementations are kept here verbatim —
:func:`seed_profile_pagerank` for the PageRank kernel and
:func:`seed_build_profile_graph` for graph construction — so speedups
stay measurable against fixed references.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from repro.cluster.ec2 import (
    EC2_VM_TYPES,
    build_ec2_datacenter,
    build_ec2_soa_datacenter,
    ec2_pm_shape,
)
from repro.cluster.simulation import SimulationConfig
from repro.core.graph import ProfileGraph, SuccessorStrategy, build_profile_graph
from repro.core.pagerank import profile_pagerank
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup, Usage, VMType
from repro.core.score_table import ScoreTable, build_score_table
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.experiments.runner import run_experiment
from repro.util import benchfile

BENCH_FORMAT = benchfile.BENCH_FORMAT
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Metrics compared between the serial and parallel runs.
_METRICS = ("pms_used", "energy_kwh", "migrations", "slo_violations")


def seed_compute_bpru(graph: ProfileGraph) -> np.ndarray:
    """The seed repo's BPRU DP: per-call Python sort + per-node loop."""
    utils = np.asarray(
        [graph.shape.utilization(u) for u in graph.profiles], dtype=float
    )
    order = sorted(
        range(graph.n_nodes),
        key=lambda i: sum(sum(g) for g in graph.profiles[i]),
    )
    bpru = utils.copy()
    for node in reversed(order):
        succ = graph.successors[node]
        if succ:
            best = max(bpru[s] for s in succ)
            if best > bpru[node]:
                bpru[node] = best
    return bpru


def seed_profile_pagerank(
    graph: ProfileGraph,
    damping: float = 0.85,
    epsilon: float = 1e-10,
    max_iterations: int = 10_000,
    vote_direction: str = "forward",
):
    """The seed repo's full ``profile_pagerank``, kept verbatim as the
    fixed baseline the new kernel's speedup is measured against: the
    per-call edge-list flattening, the per-iteration ``np.add.at``
    scatter, and the Python-loop BPRU DP.  Returns ``(scores,
    iterations)``.
    """
    n = graph.n_nodes
    srcs: List[int] = []
    dsts: List[int] = []
    for node, succ in enumerate(graph.successors):
        for s in succ:
            if vote_direction == "forward":
                srcs.append(node)
                dsts.append(s)
            else:
                srcs.append(s)
                dsts.append(node)
    src_arr = np.asarray(srcs, dtype=np.int64)
    dst_arr = np.asarray(dsts, dtype=np.int64)
    counts = np.zeros(n, dtype=float)
    if src_arr.size:
        np.add.at(counts, src_arr, 1.0)
    out_deg = np.maximum(counts, 1.0)

    pr = np.full(n, 1.0 / n, dtype=float)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        aux = np.zeros(n, dtype=float)
        if src_arr.size:
            np.add.at(aux, dst_arr, pr[src_arr] / out_deg[src_arr])
        new_pr = (1.0 - damping) / n + damping * aux
        total = new_pr.sum()
        if total > 0:
            new_pr /= total
        delta = float(np.max(np.abs(new_pr - pr)))
        pr = new_pr
        if delta < epsilon:
            break
    return pr * seed_compute_bpru(graph), iterations


def _seed_canonical_group(
    group: ResourceGroup, usage: Sequence[int]
) -> Tuple[int, ...]:
    """Seed repo's per-call group canonicalization (no memoization)."""
    values = list(usage)
    start = 0
    caps = group.capacities
    while start < len(caps):
        end = start
        while end < len(caps) and caps[end] == caps[start]:
            end += 1
        values[start:end] = sorted(values[start:end])
        start = end
    return tuple(values)


def _seed_balanced_group_usage(
    group: ResourceGroup, usage: Sequence[int], chunks: Sequence[int]
):
    """Seed repo's ``balanced_group_placement``, reduced to the new usage
    (the BFS only consumes ``new_usage``; assignment tuples are dropped).
    """
    live = sorted((c for c in chunks if c > 0), reverse=True)
    if not live:
        return _seed_canonical_group(group, usage)
    if not group.anti_collocation:
        total = sum(live)
        if usage[0] + total > group.capacities[0]:
            return None
        return (usage[0] + total,)
    if len(live) > group.n_units:
        return None
    order = sorted(
        range(group.n_units),
        key=lambda i: (usage[i] - group.capacities[i], usage[i], i),
    )
    new_usage = list(usage)
    for chunk, idx in zip(live, order):
        if usage[idx] + chunk > group.capacities[idx]:
            return None
        new_usage[idx] = usage[idx] + chunk
    return _seed_canonical_group(group, new_usage)


def _seed_balanced_usage(shape: MachineShape, usage: Usage, vm: VMType):
    """Seed repo's ``balanced_placement``, reduced to the new usage."""
    if len(vm.demands) != shape.n_groups:
        return None
    usages: List[Tuple[int, ...]] = []
    for group, group_usage, chunk_set in zip(shape.groups, usage, vm.demands):
        placed = _seed_balanced_group_usage(group, group_usage, chunk_set)
        if placed is None:
            return None
        usages.append(placed)
    return tuple(usages)


def seed_build_profile_graph(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    node_limit: int = 1_000_000,
) -> ProfileGraph:
    """The seed repo's graph builder, kept verbatim as the fixed baseline
    the interned/memoized builder's speedup is measured against: tuple
    hashing for node lookup, per-call group canonicalization with no
    placement memoization, and a single-process deque BFS.  Restricted to
    the BALANCED strategy in reachable mode — the harness workload.
    """
    vm_types = tuple(vm_types)
    empty = shape.empty_usage()
    index = {empty: 0}
    profiles: List[Usage] = [empty]
    succ_map: Dict[int, Tuple[int, ...]] = {}
    frontier = deque([0])
    while frontier:
        node = frontier.popleft()
        seen: Dict[Usage, None] = {}
        for vm in vm_types:
            succ_usage = _seed_balanced_usage(shape, profiles[node], vm)
            if succ_usage is not None:
                seen.setdefault(succ_usage)
        succ_ids: List[int] = []
        for succ_usage in seen:
            succ_id = index.get(succ_usage)
            if succ_id is None:
                if len(profiles) >= node_limit:
                    raise RuntimeError(
                        f"seed BFS exceeded node_limit={node_limit}"
                    )
                succ_id = len(profiles)
                index[succ_usage] = succ_id
                profiles.append(succ_usage)
                frontier.append(succ_id)
            succ_ids.append(succ_id)
        succ_map[node] = tuple(sorted(set(succ_ids)))
    return ProfileGraph(
        shape=shape,
        vm_types=vm_types,
        strategy=SuccessorStrategy.BALANCED,
        profiles=profiles,
        successors=[succ_map[i] for i in range(len(profiles))],
    )


def ec2_scale_graph() -> ProfileGraph:
    """The EC2-scale kernel workload: M3, BALANCED strategy, reachable mode."""
    return build_profile_graph(
        ec2_pm_shape("M3"),
        EC2_VM_TYPES,
        strategy=SuccessorStrategy.BALANCED,
        mode="reachable",
    )


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def off_graph_usages(shape, count: int, seed: int = 0):
    """Deterministic pseudo-random usages, mostly off the reachable graph."""
    rng = np.random.default_rng(seed)
    usages = []
    for _ in range(count):
        usage = []
        for group in shape.groups:
            usage.append(
                tuple(
                    int(rng.integers(0, cap + 1)) for cap in group.capacities
                )
            )
        usages.append(shape.canonicalize(tuple(usage)))
    return usages


def measure_kernels(
    graph: ProfileGraph,
    table: ScoreTable,
    repeats: int = 3,
    with_seed_baseline: bool = True,
) -> Dict[str, float]:
    """Kernel metrics: pagerank iteration rate, snap lookups, decisions."""
    from repro.cluster.machine import PhysicalMachine
    from repro.cluster.vm import VirtualMachine
    from repro.core.permutations import balanced_placement

    metrics: Dict[str, float] = {}

    # PageRank kernel (warm: derived structures cached on the graph).
    profile_pagerank(graph)
    wall = _best_of(lambda: profile_pagerank(graph), repeats)
    result = profile_pagerank(graph)
    metrics["pagerank_wall_s"] = wall
    metrics["pagerank_iterations_per_s"] = result.iterations / wall
    if with_seed_baseline:
        seed_wall = _best_of(lambda: seed_profile_pagerank(graph), repeats)
        metrics["pagerank_seed_wall_s"] = seed_wall
        metrics["pagerank_speedup_vs_seed"] = seed_wall / wall

    # Snap lookups: misses against the full EC2 table, then batched.
    shape = table.shape
    misses = off_graph_usages(shape, 64)
    fresh = ScoreTable(
        shape,
        dict(table.items()),
        damping=table.damping,
        strategy=table.strategy,
        vote_direction=table.vote_direction,
    )
    fresh.score_or_snap(misses[0])  # build the snap matrix once
    start = time.perf_counter()
    for usage in misses:
        fresh.score_or_snap(usage)
    single_wall = time.perf_counter() - start
    metrics["snap_lookups_per_s"] = len(misses) / single_wall

    batched = ScoreTable(
        shape,
        dict(table.items()),
        damping=table.damping,
        strategy=table.strategy,
        vote_direction=table.vote_direction,
    )
    batched.score_or_snap(misses[0])
    start = time.perf_counter()
    batched.score_or_snap_many(misses)
    batch_wall = time.perf_counter() - start
    metrics["snap_batch_lookups_per_s"] = len(misses) / batch_wall

    # One Algorithm 2 decision over a warmed 50-PM fleet.
    policy = PageRankVMPolicy({shape: table})
    machines = [PhysicalMachine(i, shape) for i in range(50)]
    rng = np.random.default_rng(0)
    vm = EC2_VM_TYPES[0]
    for machine in machines:
        for _ in range(int(rng.integers(1, 5))):
            placement = balanced_placement(shape, machine.usage, vm)
            if placement is None:
                break
            machine.place(VirtualMachine(int(rng.integers(1 << 40)), vm), placement)
    policy.select(vm, machines)  # warm the candidate cache
    decisions = 200
    start = time.perf_counter()
    for _ in range(decisions):
        policy.select(vm, machines)
    decision_wall = time.perf_counter() - start
    metrics["placement_decisions_per_s"] = decisions / decision_wall
    return metrics


def measure_graph_build(
    repeats: int = 3,
    with_seed_baseline: bool = True,
) -> Dict[str, object]:
    """Graph-construction metrics on the EC2-scale workload.

    Times the interned/memoized builder from cold placement memos (the
    honest first-build cost) and a reload from the on-disk graph cache; when
    the seed baseline is enabled, also times the seed repo's builder and
    reports the speedup plus a node/edge identity check against it.
    """
    from repro.core import permutations
    from repro.core.graph_cache import load_or_build_profile_graph

    shape = ec2_pm_shape("M3")
    metrics: Dict[str, object] = {}

    def cold_serial() -> ProfileGraph:
        permutations.clear_group_memos()
        return build_profile_graph(
            shape, EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED, mode="reachable",
        )

    serial_wall = _best_of(cold_serial, repeats)
    serial = cold_serial()
    metrics["graph_build_wall_s"] = serial_wall
    metrics["graph_build_nodes_per_s"] = serial.n_nodes / serial_wall

    if with_seed_baseline:
        seed_start = time.perf_counter()
        seed_graph = seed_build_profile_graph(shape, EC2_VM_TYPES)
        seed_wall = time.perf_counter() - seed_start
        metrics["graph_build_seed_wall_s"] = seed_wall
        metrics["graph_build_speedup_vs_seed"] = seed_wall / serial_wall
        metrics["graph_build_matches_seed"] = (
            seed_graph.profiles == serial.profiles
            and seed_graph.successors == serial.successors
        )

    with tempfile.TemporaryDirectory() as cache_dir:
        load_or_build_profile_graph(  # populate the cache
            shape, EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED, mode="reachable",
            cache_dir=cache_dir,
        )
        start = time.perf_counter()
        cached = load_or_build_profile_graph(
            shape, EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED, mode="reachable",
            cache_dir=cache_dir,
        )
        metrics["graph_cache_load_wall_s"] = time.perf_counter() - start
        metrics["graph_cache_load_identical"] = (
            cached.profiles == serial.profiles
            and cached.successors == serial.successors
        )
    return metrics


def seed_actual_cpu_utilization(self, time_s: float, burst="core") -> float:
    """The seed repo's per-tick utilization, kept verbatim as the fixed
    baseline for the online-serving phase: walks every allocation's
    per-chunk assignments on every call instead of reusing the cached
    per-allocation ceiling terms.
    """
    from repro.util.validation import ValidationError

    capacities = self._shape.groups[self._cpu_group].capacities
    demand = 0.0
    numeric = isinstance(burst, (int, float)) and not isinstance(burst, bool)
    if not numeric and burst not in ("core", "request"):
        raise ValidationError(
            f"unknown burst model {burst!r}; use 'core', 'request' or a "
            "positive factor"
        )
    if numeric and burst <= 0:
        raise ValidationError(f"burst factor must be positive, got {burst}")
    for allocation in self._allocations.values():
        fraction = allocation.vm.cpu_utilization_at(time_s)
        if fraction <= 0.0:
            continue
        for idx, chunk in allocation.assignments[self._cpu_group]:
            if numeric:
                ceiling = min(chunk * burst, capacities[idx])
            elif burst == "core":
                ceiling = capacities[idx]
            else:
                ceiling = chunk
            demand += fraction * ceiling
    return demand / self._cpu_capacity


@contextmanager
def seed_serving_path():
    """Swap the seed per-tick utilization back in.

    Inside the context, ``PhysicalMachine.actual_cpu_utilization`` walks
    chunks per call — the pre-memoization tick.  Combined with the object
    datacenter (whose inventory queries are the seed's O(n) scans and
    whose simulation runs the verbatim sequential tick and list-based
    policy scan) this reproduces the seed's end-to-end behavior for
    honest baseline timing.
    """
    from repro.cluster.machine import PhysicalMachine

    saved = PhysicalMachine.actual_cpu_utilization
    PhysicalMachine.actual_cpu_utilization = seed_actual_cpu_utilization
    try:
        yield
    finally:
        PhysicalMachine.actual_cpu_utilization = saved


def online_serving_workload(n_vms: int, seed: int = 0):
    """Deterministic request batch: large M3 VM types, step-function traces.

    The big M3 instances (memory-bound: 4 and 2 per PM) spread the
    request over hundreds of used PMs — the wide-fleet regime where the
    seed's per-decision linear scan is the dominating serving cost.
    """
    from repro.cluster.ec2 import ec2_vm_type
    from repro.cluster.vm import VirtualMachine
    from repro.traces.base import ArrayTrace

    vm_types = (ec2_vm_type("m3.xlarge"), ec2_vm_type("m3.2xlarge"))
    rng = np.random.default_rng(seed)
    vms = []
    for i in range(n_vms):
        vm_type = vm_types[int(rng.integers(len(vm_types)))]
        samples = rng.uniform(0.05, 0.55, size=16)
        vms.append(VirtualMachine(i, vm_type, ArrayTrace(samples, 300.0)))
    return vms


def run_online_serving(
    table: ScoreTable,
    datacenter,
    n_vms: int,
    duration_s: float,
    workload_seed: int = 0,
    faults=None,
):
    """One allocate-plus-simulate run; returns the SimulationResult.

    The substrate picks the path: an ``SoADatacenter`` serves through
    its usage-class index and columnar tick, the object ``Datacenter``
    runs the seed scan.
    """
    from repro.baselines import MinimumMigrationTimeSelector
    from repro.cluster.simulation import CloudSimulation

    shape = table.shape
    simulation = CloudSimulation(
        datacenter,
        PageRankVMPolicy({shape: table}),
        MinimumMigrationTimeSelector(),
        SimulationConfig(duration_s=duration_s, monitor_interval_s=300.0),
        faults=faults,
    )
    return simulation.run(online_serving_workload(n_vms, seed=workload_seed))


#: SimulationResult counters compared exactly between the two paths.
_SERVING_EXACT = (
    "n_vms", "unplaced_vms", "pms_used_initial", "pms_used_peak",
    "pms_used_final", "migrations", "failed_migrations", "overload_events",
    "consolidations",
)


def measure_online_serving(
    repeats: int = 3, quick: bool = False, table: Optional[ScoreTable] = None
) -> Dict[str, object]:
    """Online-serving phase: allocate + simulate on the EC2 M3 workload.

    Times the serving path on the SoA substrate against the seed
    baseline — the object datacenter under :func:`seed_serving_path`,
    i.e. the verbatim pre-optimization code — and cross-checks that both report identical decision counters
    (identical placements, migrations and overload handling; energy/SLO
    agree up to float summation order).
    """
    if table is None:
        table = build_score_table(
            ec2_pm_shape("M3"), EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED,
        )
    n_pms = 400 if quick else 480
    n_vms = 900 if quick else 1200
    duration_s = 21_600.0 if quick else 86_400.0

    def fast_run():
        return run_online_serving(
            table, build_ec2_soa_datacenter({"M3": n_pms}), n_vms, duration_s
        )

    def seed_run():
        with seed_serving_path():
            return run_online_serving(
                table, build_ec2_datacenter({"M3": n_pms}), n_vms, duration_s
            )

    fast_result = fast_run()  # warm the policy-independent caches once
    fast_wall = _best_of(fast_run, repeats)
    seed_start = time.perf_counter()
    seed_result = seed_run()
    seed_wall = time.perf_counter() - seed_start

    identical = all(
        getattr(fast_result, field) == getattr(seed_result, field)
        for field in _SERVING_EXACT
    )
    tolerably_close = (
        abs(fast_result.energy_kwh - seed_result.energy_kwh)
        <= 1e-9 * max(1.0, abs(seed_result.energy_kwh))
        and abs(fast_result.slo_violation_rate - seed_result.slo_violation_rate)
        <= 1e-9
    )
    return {
        "online_serving_n_pms": n_pms,
        "online_serving_n_vms": n_vms,
        "online_serving_duration_s": duration_s,
        "online_serving_wall_s": fast_wall,
        "online_serving_seed_wall_s": seed_wall,
        "online_serving_speedup_vs_seed": seed_wall / fast_wall,
        "online_serving_results_identical": identical,
        "online_serving_float_metrics_close": tolerably_close,
        "online_serving_pms_used_final": fast_result.pms_used_final,
        "online_serving_migrations": fast_result.migrations,
        "online_serving_overload_events": fast_result.overload_events,
    }


def measure_end_to_end(
    workers_grid: Optional[List[int]] = None,
    table_cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """End-to-end run_experiment wall-clock, plus a determinism check.

    The grid scales with the machine: serial always, then 2 and
    ``cpu_count`` workers where the cores exist.  On a single core only
    the serial point runs — a forced 2-worker leg there measures
    scheduler overhead, not parallel speedup, and its identity check
    repeats what the multi-core CI legs already pin.
    """
    cpu = os.cpu_count() or 1
    if workers_grid is None:
        workers_grid = sorted({w for w in (1, 2, cpu) if w <= cpu})
    config = ExperimentConfig(
        n_vms=40,
        datacenter=(("M3", 30), ("C3", 8)),
        workload=WorkloadSpec(trace="planetlab"),
        policies=("PageRankVM", "FF", "FFDSum"),
        repetitions=4,
        sim=SimulationConfig(duration_s=1800.0, monitor_interval_s=300.0),
    )
    # Warm the in-process score-table cache so every grid point times the
    # simulation cells, not a first-run table build.
    from repro.experiments.runner import _score_tables

    _score_tables(config, table_cache_dir)
    walls: Dict[str, float] = {}
    reference = None
    identical = True
    for workers in workers_grid:
        start = time.perf_counter()
        results = run_experiment(
            config, workers=workers, table_cache_dir=table_cache_dir
        )
        walls[f"run_experiment_wall_s_workers_{workers}"] = (
            time.perf_counter() - start
        )
        values = {
            (policy, metric): results.metric_values(policy, metric)
            for policy in config.policies
            for metric in _METRICS
        }
        if reference is None:
            reference = values
        elif values != reference:
            identical = False
    metrics: Dict[str, object] = {
        "cpu_count": cpu,
        "workers_grid": workers_grid,
        "parallel_results_identical": identical,
        **walls,
    }
    parallel_walls = [
        walls[f"run_experiment_wall_s_workers_{w}"]
        for w in workers_grid
        if w > 1
    ]
    if parallel_walls and 1 in workers_grid:
        metrics["run_experiment_parallel_speedup"] = (
            walls["run_experiment_wall_s_workers_1"] / min(parallel_walls)
        )
    return metrics


def measure_kernel_phase(
    graph: Optional[ProfileGraph] = None, repeats: int = 3
) -> Dict[str, object]:
    """Exact-kernel phase: the closed-form DAG sweep vs the power iteration.

    Both kernels run warm (sweep schedule + theta coefficients for the
    sweep, transition kernel for the iteration, shared BPRU memo) on
    the EC2-scale M3 graph, and the sweep's fixed-point residual is
    recorded against the documented ulp bound.  Lands as a ``"kernel"``
    phase entry; ``repro perf check`` gates both the sweep wall and the
    sweep-vs-iterative speedup against their history.
    """
    from repro.core.kernel_sweep import (
        SWEEP_MAX_ULPS,
        sweep_profile_pagerank,
        sweep_residual_ulps,
    )

    if graph is None:
        graph = ec2_scale_graph()
    sweep_profile_pagerank(graph)
    profile_pagerank(graph)
    sweep_wall = _best_of(lambda: sweep_profile_pagerank(graph), repeats)
    iterative_wall = _best_of(lambda: profile_pagerank(graph), repeats)
    result = sweep_profile_pagerank(graph)
    residual = sweep_residual_ulps(result, damping=0.85)
    return {
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "sweep_wall_s": sweep_wall,
        "iterative_wall_s": iterative_wall,
        "sweep_speedup_vs_iterative": iterative_wall / sweep_wall,
        "sweep_residual_ulps": residual,
        "sweep_residual_bound": SWEEP_MAX_ULPS,
        "sweep_residual_within_bound": residual <= SWEEP_MAX_ULPS,
    }


def measure_scale_sweep(
    table: ScoreTable, quick: bool = False
) -> Dict[str, object]:
    """Scale-sweep phase: the columnar path at 480 → 100k PMs.

    Quick mode stops at 5k PMs with a 2h horizon; the full sweep runs
    the {480, 5k, 50k, 100k} ladder over a 24h day.  Either way the
    480-PM point is checked against the seed scan's anchor run (the CI
    identity gate).
    """
    from repro.experiments.sweep import run_sweep

    points = (480, 5_000) if quick else (480, 5_000, 50_000, 100_000)
    return run_sweep(points, table=table, quick=quick, check_identity=True)


def run_harness(
    quick: bool = False, table_cache_dir: Optional[str] = None
) -> Dict[str, object]:
    """Measure everything and return one trajectory entry."""
    graph = ec2_scale_graph()
    table = build_score_table(
        ec2_pm_shape("M3"), EC2_VM_TYPES,
        strategy=SuccessorStrategy.BALANCED, graph=graph,
    )
    entry: Dict[str, object] = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "quick": quick,
    }
    entry.update(
        measure_kernels(
            graph, table,
            repeats=1 if quick else 3,
            with_seed_baseline=not quick,
        )
    )
    entry.update(
        measure_graph_build(
            repeats=1 if quick else 3,
            with_seed_baseline=not quick,
        )
    )
    entry.update(
        measure_online_serving(
            repeats=1 if quick else 3, quick=quick, table=table
        )
    )
    entry.update(measure_end_to_end(table_cache_dir=table_cache_dir))
    entry.update(measure_scale_sweep(table, quick=quick))
    return entry


def append_entry(entry: Dict[str, object], out: Path = DEFAULT_OUT) -> None:
    """Append an entry to the trajectory file, creating it if missing.

    Delegates to :mod:`repro.util.benchfile`: the write happens under a
    file lock (concurrent CI jobs append, they don't clobber), the
    existing payload is schema-validated, and the rewrite is atomic.
    """
    benchfile.append_entry(entry, out)


def host_stamp() -> Dict[str, object]:
    """Where an entry was measured: cores, library versions, commit.

    ``git_sha`` is ``git describe --always --dirty`` of the checkout, so
    an entry recorded on uncommitted changes says so.
    """
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def phase_entries(
    phases: Sequence[str],
    quick: bool = False,
    table_cache_dir: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One trajectory entry per requested phase, in request order.

    The flat harness entry carries no ``phase`` key; the kernel entry
    is tagged so ``repro perf check`` gates it against its own
    history.  Every entry carries :func:`host_stamp`.
    """
    entries: List[Dict[str, object]] = []
    recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if "harness" in phases:
        entries.append(
            run_harness(quick=quick, table_cache_dir=table_cache_dir)
        )
    if "kernel" in phases:
        entries.append(
            {
                "recorded_at": recorded_at,
                "phase": "kernel",
                "quick": quick,
                **measure_kernel_phase(repeats=1 if quick else 5),
            }
        )
    stamp = host_stamp()
    return [{**entry, **stamp} for entry in entries]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single timing repeat, skip the seed-baseline comparison",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"trajectory file to append to (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--table-cache", default=None,
        help="score-table disk cache directory for the end-to-end runs",
    )
    parser.add_argument(
        "--phase", action="append", default=None,
        choices=("harness", "kernel"),
        help="measure only these phases (repeatable; default: both)",
    )
    args = parser.parse_args(argv)
    phases = (
        tuple(args.phase)
        if args.phase
        else ("harness", "kernel")
    )
    entries = phase_entries(
        phases, quick=args.quick, table_cache_dir=args.table_cache
    )
    for entry in entries:
        append_entry(entry, args.out)
    print(json.dumps(entries, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
