"""Performance trajectory harness: measures the hot paths, writes BENCH_perf.json.

Run as a script to append one entry per phase to the repo-root
``BENCH_perf.json`` trajectory::

    PYTHONPATH=src python benchmarks/perf_harness.py [--quick] [--out PATH]

The harness keeps only the micro phases that the end-to-end benchmark
(``e2ebench/``) cannot isolate.  The untagged ``"harness"`` entry
records snap lookups against the EC2 score table (one at a time and
batched) and graph construction on the EC2-scale workload: a cold
build, the seed builder with a node-for-node identity check, and a
cache reload.  The tagged ``"kernel"`` entry times the exact DAG-sweep
rank kernel cold (as a score-table build runs it) and warm against the
warm power iteration, with its fixed-point residual.  ``repro perf
check`` gates each phase's latest entry against that history.  No
production path runs the power iteration, so the harness no longer
records it on its own (older entries' ``pagerank_*`` keys stay in the
trajectory, ungated).

The seed (pre-optimization) implementations are kept here verbatim —
:func:`seed_profile_pagerank` for the PageRank kernel (the benchmark
suite's speedup floor) and :func:`seed_build_profile_graph` for graph
construction — so speedups stay measurable against fixed references.
:func:`run_online_serving` stays for the identity test that serves one
workload on both datacenter substrates (``benchmarks/test_perf_core.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from collections import deque
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
from repro.cluster.simulation import SimulationConfig
from repro.core.graph import ProfileGraph, SuccessorStrategy, build_profile_graph
from repro.core.pagerank import profile_pagerank
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup, Usage, VMType
from repro.core.score_table import ScoreTable, build_score_table
from repro.util import benchfile
from repro.util.benchfile import host_stamp

BENCH_FORMAT = benchfile.BENCH_FORMAT
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

def seed_compute_bpru(graph: ProfileGraph) -> np.ndarray:
    """The seed repo's BPRU DP: per-call Python sort + per-node loop
    over the successor lists (here, Python slices of the CSR)."""
    utils = np.asarray(
        [graph.shape.utilization(u) for u in graph.profiles], dtype=float
    )
    order = sorted(
        range(graph.n_nodes),
        key=lambda i: sum(sum(g) for g in graph.profiles[i]),
    )
    bpru = utils.copy()
    bounds, targets = graph.indptr.tolist(), graph.indices.tolist()
    for node in reversed(order):
        succ = targets[bounds[node]:bounds[node + 1]]
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
    bounds, targets = graph.indptr.tolist(), graph.indices.tolist()
    for node in range(n):
        for s in targets[bounds[node]:bounds[node + 1]]:
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
    successors = [succ_map[i] for i in range(len(profiles))]
    return ProfileGraph(
        shape, vm_types, SuccessorStrategy.BALANCED, profiles,
        np.array(
            [[u for group in usage for u in group] for usage in profiles],
            dtype=np.int64,
        ),
        np.concatenate(([0], np.cumsum([len(s) for s in successors]))),
        np.array([d for succ in successors for d in succ], dtype=np.int64),
    )


def same_graph(left: ProfileGraph, right: ProfileGraph) -> bool:
    """True when two graphs have the same profiles and CSR adjacency."""
    return (
        left.profiles == right.profiles
        and np.array_equal(left.indptr, right.indptr)
        and np.array_equal(left.indices, right.indices)
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


def measure_snaps(table: ScoreTable) -> Dict[str, float]:
    """Snap lookups against the EC2 score table, one at a time and batched."""
    metrics: Dict[str, float] = {}

    # Misses against the full EC2 table, one at a time, then batched.
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
    return metrics


def measure_graph_build(repeats: int = 3) -> Dict[str, object]:
    """Graph-construction metrics on the EC2-scale workload.

    Times the level-synchronous builder from cold placement memos (the
    honest first-build cost), the seed repo's builder once, with the
    speedup and a node/edge identity check against it, and a reload
    from the on-disk graph cache.
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

    seed_start = time.perf_counter()
    seed_graph = seed_build_profile_graph(shape, EC2_VM_TYPES)
    seed_wall = time.perf_counter() - seed_start
    metrics["graph_build_seed_wall_s"] = seed_wall
    metrics["graph_build_speedup_vs_seed"] = seed_wall / serial_wall
    metrics["graph_build_matches_seed"] = same_graph(seed_graph, serial)

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
        metrics["graph_cache_load_identical"] = same_graph(cached, serial)
    return metrics


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


def measure_kernel_phase(
    graph: Optional[ProfileGraph] = None, repeats: int = 3
) -> Dict[str, object]:
    """Exact-kernel phase: the closed-form DAG sweep vs the power iteration.

    ``sweep_cold_wall_s`` is the sweep a score-table build pays: each
    run starts from a fresh graph made of the M3 graph's arrays, with
    an empty memo, so the level order, BPRU and the theta constants
    are inside the timing (median of at least 3 runs).  The warm
    timings then run with those memoized (level order, theta
    coefficients and BPRU for the sweep, transition kernel for the
    iteration) on the same EC2-scale graph, and the sweep's
    fixed-point residual is recorded against the documented ulp bound.
    Lands as a ``"kernel"`` phase entry; ``repro perf check`` gates the
    cold and warm sweep walls and the sweep-vs-iterative speedup
    against their history.
    """
    from repro.core.kernel_sweep import (
        SWEEP_MAX_ULPS,
        sweep_profile_pagerank,
        sweep_residual_ulps,
    )

    if graph is None:
        graph = ec2_scale_graph()

    def cold_sweep() -> None:
        sweep_profile_pagerank(ProfileGraph(
            graph.shape, graph.vm_types, graph.strategy, graph.profiles,
            graph.flat, graph.indptr, graph.indices,
        ))

    cold_wall = _best_of(cold_sweep, max(3, repeats))
    sweep_profile_pagerank(graph)
    profile_pagerank(graph)
    sweep_wall = _best_of(lambda: sweep_profile_pagerank(graph), repeats)
    iterative_wall = _best_of(lambda: profile_pagerank(graph), repeats)
    result = sweep_profile_pagerank(graph)
    residual = sweep_residual_ulps(result, damping=0.85)
    return {
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "sweep_cold_wall_s": cold_wall,
        "sweep_wall_s": sweep_wall,
        "iterative_wall_s": iterative_wall,
        "sweep_speedup_vs_iterative": iterative_wall / sweep_wall,
        "sweep_residual_ulps": residual,
        "sweep_residual_bound": SWEEP_MAX_ULPS,
        "sweep_residual_within_bound": residual <= SWEEP_MAX_ULPS,
    }


def run_harness(quick: bool = False) -> Dict[str, object]:
    """Measure the harness phase and return one trajectory entry."""
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
    entry.update(measure_snaps(table))
    # The seed graph build runs in quick mode too: its node-for-node
    # identity check (graph_build_matches_seed) is a CI gate.
    entry.update(measure_graph_build(repeats=1 if quick else 3))
    return entry


def append_entry(entry: Dict[str, object], out: Path = DEFAULT_OUT) -> None:
    """Append an entry to the trajectory file, creating it if missing.

    Delegates to :mod:`repro.util.benchfile`: the write happens under a
    file lock (concurrent CI jobs append, they don't clobber), the
    existing payload is schema-validated, and the rewrite is atomic.
    """
    benchfile.append_entry(entry, out)


def phase_entries(
    phases: Sequence[str], quick: bool = False
) -> List[Dict[str, object]]:
    """One trajectory entry per requested phase, in request order.

    The flat harness entry carries no ``phase`` key; the kernel entry
    is tagged so ``repro perf check`` gates it against its own
    history.  Every entry carries :func:`host_stamp`.
    """
    entries: List[Dict[str, object]] = []
    recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if "harness" in phases:
        entries.append(run_harness(quick=quick))
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
        help="single timing repeat",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"trajectory file to append to (default {DEFAULT_OUT})",
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
    entries = phase_entries(phases, quick=args.quick)
    for entry in entries:
        append_entry(entry, args.out)
    print(json.dumps(entries, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
