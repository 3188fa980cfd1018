"""Micro-benchmarks of the hot paths.

Not a paper artifact — these keep an eye on the costs that dominate
simulation wall-clock: placement enumeration, score lookups, one
Algorithm 2 decision over a fleet, and the power-iteration step — at the
toy scale of the paper's worked examples and at EC2 scale (the M3
reachable graph with the BALANCED strategy, ~125k profiles), where the
sparse kernel's advantage over the seed implementation is asserted.
"""

import statistics
import time

import numpy as np
import pytest

from perf_harness import (
    DEFAULT_OUT,
    ec2_scale_graph,
    off_graph_usages,
    seed_build_profile_graph,
    seed_profile_pagerank,
)
from repro.analysis.perf import derived_speedup_floor
from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
from repro.cluster.machine import PhysicalMachine
from repro.core.graph import SuccessorStrategy, build_profile_graph
from repro.core.pagerank import profile_pagerank
from repro.core.permutations import balanced_placement, enumerate_placements
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import ScoreTable, build_score_table

SHAPE = MachineShape(groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),))
VM2 = VMType(name="vm2", demands=((1, 1),))
VM4 = VMType(name="vm4", demands=((1, 1, 1, 1),))


@pytest.fixture(scope="module")
def table():
    return build_score_table(SHAPE, (VM2, VM4), mode="full")


@pytest.fixture(scope="module")
def ec2_graph():
    """EC2-scale kernel workload (M3, BALANCED strategy, reachable mode)."""
    return ec2_scale_graph()


@pytest.fixture(scope="module")
def ec2_table(ec2_graph):
    return build_score_table(
        ec2_pm_shape("M3"), EC2_VM_TYPES,
        strategy=SuccessorStrategy.BALANCED, graph=ec2_graph,
    )


def test_perf_enumerate_placements(benchmark):
    usage = ((0, 1, 2, 3),)
    result = benchmark(lambda: list(enumerate_placements(SHAPE, usage, VM2)))
    assert len(result) == 6


def test_perf_balanced_placement(benchmark):
    usage = ((0, 1, 2, 3),)
    result = benchmark(lambda: balanced_placement(SHAPE, usage, VM2))
    assert result is not None


def test_perf_score_lookup(benchmark, table):
    usage = ((1, 1, 2, 2),)
    score = benchmark(lambda: table.score_or_snap(usage))
    assert score > 0


def test_perf_placement_decision(benchmark, table):
    policy = PageRankVMPolicy({SHAPE: table})
    machines = [PhysicalMachine(i, SHAPE) for i in range(50)]
    # Warm the fleet into distinct states.
    rng = np.random.default_rng(0)
    for machine in machines:
        for _ in range(int(rng.integers(5))):
            placement = balanced_placement(SHAPE, machine.usage, VM2)
            if placement is None:
                break
            from repro.cluster.vm import VirtualMachine

            machine.place(VirtualMachine(rng.integers(1 << 40), VM2), placement)

    decision = benchmark(lambda: policy.select(VM2, machines))
    assert decision is not None


def test_perf_pagerank_iteration(benchmark):
    graph = build_profile_graph(SHAPE, (VM2, VM4), mode="full")
    result = benchmark(lambda: profile_pagerank(graph))
    assert result.converged


# ----------------------------------------------------------------------
# EC2 scale (M3 reachable graph, ~125k profiles)
# ----------------------------------------------------------------------
def _median_wall(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_perf_ec2_pagerank_speedup_vs_seed(ec2_graph):
    # Acceptance bar for the sparse kernel over the seed's per-iteration
    # np.add.at scatter: derived from the recorded BENCH trajectory
    # (half the recent median speedup), 3x on a history-free clone.
    floor = derived_speedup_floor(
        DEFAULT_OUT, "pagerank_speedup_vs_seed", default=3.0
    )
    profile_pagerank(ec2_graph)  # build the cached kernel once
    new_wall = _median_wall(lambda: profile_pagerank(ec2_graph))
    seed_wall = _median_wall(lambda: seed_profile_pagerank(ec2_graph))
    speedup = seed_wall / new_wall
    print(f"\nEC2 pagerank: seed {seed_wall:.3f}s, "
          f"kernel {new_wall:.3f}s, speedup {speedup:.1f}x "
          f"(floor {floor:.1f}x)")
    assert speedup >= floor


def test_perf_ec2_graph_build_speedup_vs_seed():
    # Acceptance bar for the interned/memoized builder over the seed's
    # tuple-hashing, memo-free BFS: derived from the BENCH trajectory
    # (half the recent median), 3x on a history-free clone — the
    # headline serial speedup is ~10x, so either bar leaves headroom.
    from repro.core import permutations

    floor = derived_speedup_floor(
        DEFAULT_OUT, "graph_build_speedup_vs_seed", default=3.0
    )
    shape = ec2_pm_shape("M3")

    def cold_build():
        # Clear the placement memos so every repeat pays the honest
        # first-build cost, not a warm-cache replay.
        permutations.clear_group_memos()
        return build_profile_graph(
            shape, EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED, mode="reachable",
        )

    new_wall = _median_wall(cold_build)
    start = time.perf_counter()
    seed_graph = seed_build_profile_graph(shape, EC2_VM_TYPES)
    seed_wall = time.perf_counter() - start
    new_graph = cold_build()
    assert new_graph.profiles == seed_graph.profiles
    assert new_graph.successors == seed_graph.successors
    speedup = seed_wall / new_wall
    print(f"\nEC2 graph build: seed {seed_wall:.3f}s, "
          f"new {new_wall:.3f}s, speedup {speedup:.1f}x "
          f"(floor {floor:.1f}x)")
    assert speedup >= floor


def test_perf_ec2_pagerank_iteration(benchmark, ec2_graph):
    profile_pagerank(ec2_graph)
    result = benchmark(lambda: profile_pagerank(ec2_graph))
    assert result.converged
    assert result.graph.n_nodes > 100_000


def test_perf_ec2_snap_lookup(benchmark, ec2_table):
    # Steady-state mix: first pass snaps 64 off-graph profiles, later
    # rounds hit the LRU cache — the shape of a long dynamic simulation.
    usages = off_graph_usages(ec2_table.shape, 64)
    scores = benchmark(lambda: [ec2_table.score_or_snap(u) for u in usages])
    assert len(scores) == 64


def test_perf_ec2_batch_snap(benchmark, ec2_table):
    # Every round gets a fresh table so the whole batch is a true miss
    # batch resolved by one batched snap-tree query (tree build included).
    usages = off_graph_usages(ec2_table.shape, 64)

    def fresh_table():
        return (
            ScoreTable(
                ec2_table.shape,
                dict(ec2_table.items()),
                damping=ec2_table.damping,
                strategy=ec2_table.strategy,
                vote_direction=ec2_table.vote_direction,
            ),
        ), {}

    scores = benchmark.pedantic(
        lambda t: t.score_or_snap_many(usages),
        setup=fresh_table,
        rounds=3,
    )
    assert len(scores) == 64


def test_perf_ec2_placement_decision(benchmark, ec2_table):
    from repro.cluster.vm import VirtualMachine
    from repro.core.permutations import balanced_placement

    shape = ec2_table.shape
    vm = EC2_VM_TYPES[0]
    policy = PageRankVMPolicy({shape: ec2_table})
    machines = [PhysicalMachine(i, shape) for i in range(50)]
    rng = np.random.default_rng(0)
    for machine in machines:
        for _ in range(int(rng.integers(1, 5))):
            placement = balanced_placement(shape, machine.usage, vm)
            if placement is None:
                break
            machine.place(VirtualMachine(int(rng.integers(1 << 40)), vm), placement)

    decision = benchmark(lambda: policy.select(vm, machines))
    assert decision is not None


# ----------------------------------------------------------------------
# Online serving path (allocate + day-long simulate on the M3 workload)
# ----------------------------------------------------------------------
def test_perf_online_serving_speedup_vs_seed(ec2_table):
    # Acceptance bar for the SoA substrate (usage-class index + columnar
    # tick), end-to-end over the seed serving path (linear per-decision
    # scans, chunk-walking monitor tick) on the EC2 M3 simulate workload:
    # derived from the BENCH trajectory (half the recent median), 3x on
    # a history-free clone — the headline is ~10x at this scale.
    from perf_harness import measure_online_serving

    floor = derived_speedup_floor(
        DEFAULT_OUT, "online_serving_speedup_vs_seed", default=3.0
    )
    metrics = measure_online_serving(repeats=3, quick=True, table=ec2_table)
    speedup = metrics["online_serving_speedup_vs_seed"]
    print(f"\nonline serving: seed {metrics['online_serving_seed_wall_s']:.3f}s, "
          f"fast {metrics['online_serving_wall_s']:.3f}s, "
          f"speedup {speedup:.1f}x (floor {floor:.1f}x)")
    # The substrate must not change behavior, only wall-clock.
    assert metrics["online_serving_results_identical"]
    assert metrics["online_serving_float_metrics_close"]
    assert speedup >= floor


def test_perf_online_serving_identical_under_faults(ec2_table):
    # EC2-scale bit-identity of the SoA substrate vs the seed scan on
    # the object datacenter (both unpatched), including PMs crashing and
    # recovering mid-run.
    from perf_harness import run_online_serving
    from repro.cluster.ec2 import (
        build_ec2_datacenter,
        build_ec2_soa_datacenter,
    )
    from repro.faults import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
    from repro.util.rng import RngFactory

    def injector():
        schedule = FaultSchedule(
            spec=FaultSpec(pm_crashes=2),
            horizon_s=21_600.0,
            events=(
                FaultEvent("pm_crash", 3_000.0, target=0),
                FaultEvent("pm_recover", 9_000.0, target=0),
                FaultEvent("pm_crash", 6_000.0, target=7),
                FaultEvent("pm_recover", 15_000.0, target=7),
            ),
        )
        return FaultInjector(schedule, RngFactory(5).spawn("fault-draws", 0))

    fast = run_online_serving(
        ec2_table, build_ec2_soa_datacenter({"M3": 160}), 400, 21_600.0,
        faults=injector(),
    )
    scan = run_online_serving(
        ec2_table, build_ec2_datacenter({"M3": 160}), 400, 21_600.0,
        faults=injector(),
    )
    for field in (
        "n_vms", "unplaced_vms", "pms_used_initial", "pms_used_peak",
        "pms_used_final", "migrations", "failed_migrations",
        "overload_events",
    ):
        assert getattr(fast, field) == getattr(scan, field), field
    assert fast.resilience.pm_crashes == scan.resilience.pm_crashes == 2
    assert fast.resilience.vms_displaced == scan.resilience.vms_displaced
    assert fast.resilience.vms_restored == scan.resilience.vms_restored
    assert fast.energy_kwh == pytest.approx(scan.energy_kwh, rel=1e-12)
    assert fast.slo_violation_rate == pytest.approx(
        scan.slo_violation_rate, rel=1e-12
    )


# ----------------------------------------------------------------------
# Exact DAG-sweep kernel
# ----------------------------------------------------------------------
def test_perf_ec2_sweep_speedup_vs_iterative(ec2_graph):
    # Acceptance bar for the exact closed-form sweep over the iterative
    # power-iteration kernel on the M3 graph: derived from the recorded
    # kernel-phase trajectory (half the recent median), 2x on a
    # history-free clone — the headline is ~6x at this scale.
    from repro.core.kernel_sweep import (
        SWEEP_MAX_ULPS,
        sweep_profile_pagerank,
        sweep_residual_ulps,
    )

    floor = derived_speedup_floor(
        DEFAULT_OUT, "sweep_speedup_vs_iterative", default=2.0,
        phase="kernel",
    )
    profile_pagerank(ec2_graph)           # cache the sparse kernel
    sweep_profile_pagerank(ec2_graph)     # cache schedule + coefficients
    iterative_wall = _median_wall(lambda: profile_pagerank(ec2_graph))
    sweep_wall = _median_wall(lambda: sweep_profile_pagerank(ec2_graph))
    speedup = iterative_wall / sweep_wall
    result = sweep_profile_pagerank(ec2_graph)
    residual = sweep_residual_ulps(result, 0.85)
    print(f"\nsweep kernel: iterative {iterative_wall * 1e3:.1f}ms, "
          f"sweep {sweep_wall * 1e3:.1f}ms, speedup {speedup:.1f}x "
          f"(floor {floor:.1f}x), residual {residual} ulps")
    assert residual <= SWEEP_MAX_ULPS
    assert speedup >= floor
