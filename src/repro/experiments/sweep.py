"""Scale sweep: allocate + simulate the M3 fleet from 480 to 100k PMs.

The sweep measures the columnar (struct-of-arrays) serving path at
datacenter sizes the object path cannot reach, on the same workload
family as the perf harness's online-serving phase: a 50/50 mix of
m3.xlarge / m3.2xlarge VMs with 16-sample step traces.  Trace levels
are drawn from U(0.05, 0.48) — calmer than the 480-PM phase — so
overload churn (Python-bound in both substrates) does not dominate the
wall clock at 100k PMs while migrations still happen.

One baseline is recorded: the **seed scan** on the object datacenter
(per-machine monitor walk, linear candidate scans) — the pre-index
substrate the paper's headline numbers compare against.  It is
measured at two small anchor sizes (n and 2n) and extrapolated with the
exact quadratic through them, ``w(x) = a*x + b*x**2`` — the scan's
per-decision cost grows with fleet size, so its wall clock is
superlinear; a linear extrapolation would understate the baseline (and
so the speedup), while the quadratic models the measured growth.

With ``check_identity`` the anchor runs double as twins: wherever an
anchor size is also a sweep point, the scan and the columnar run serve
the same workload and their decision counters must match exactly — the
same identity contract the substrate tests enforce.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape, ec2_vm_type
from repro.cluster.simulation import (
    CloudSimulation,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.vm import VirtualMachine
from repro.core.graph import SuccessorStrategy
from repro.core.placement import PageRankVMPolicy
from repro.core.score_table import ScoreTable, build_score_table
from repro.traces.base import ArrayTrace
from repro.util.validation import require

__all__ = [
    "SWEEP_POINTS",
    "sweep_table",
    "sweep_workload",
    "measure_scan_anchor",
    "run_point",
    "run_sweep",
]

#: The default sweep sizes (n_pms): the paper's scale, then 10x and 100x+.
SWEEP_POINTS: Tuple[int, ...] = (480, 5_000, 50_000, 100_000)

#: VMs per PM: fills the M3 fleet to its memory-bound packing density.
VMS_PER_PM = 2.5

#: Decision counters compared exactly between the scan and SoA runs.
_EXACT_FIELDS = (
    "n_vms", "unplaced_vms", "pms_used_initial", "pms_used_peak",
    "pms_used_final", "migrations", "failed_migrations", "overload_events",
    "consolidations",
)


def sweep_table(table_cache_dir: Optional[str] = None) -> ScoreTable:
    """The M3 score table the sweep serves from (harness-identical)."""
    return build_score_table(
        ec2_pm_shape("M3"), EC2_VM_TYPES,
        strategy=SuccessorStrategy.BALANCED,
        graph_cache_dir=table_cache_dir,
    )


def sweep_workload(n_vms: int, seed: int = 0) -> List[VirtualMachine]:
    """The sweep request batch: m3.xlarge/m3.2xlarge with calm traces."""
    vm_types = (ec2_vm_type("m3.xlarge"), ec2_vm_type("m3.2xlarge"))
    rng = np.random.default_rng(seed)
    vms = []
    for i in range(n_vms):
        vm_type = vm_types[int(rng.integers(len(vm_types)))]
        samples = rng.uniform(0.05, 0.48, size=16)
        vms.append(VirtualMachine(i, vm_type, ArrayTrace(samples, 300.0)))
    return vms


def _simulate(datacenter, table: ScoreTable, vms, duration_s: float):
    """One allocate + simulate run on an already-built datacenter."""
    from repro.baselines import MinimumMigrationTimeSelector

    simulation = CloudSimulation(
        datacenter,
        PageRankVMPolicy({table.shape: table}),
        MinimumMigrationTimeSelector(),
        SimulationConfig(duration_s=duration_s, monitor_interval_s=300.0),
    )
    return simulation.run(vms)


def measure_scan_anchor(
    table: ScoreTable, n_pms: int, duration_s: float, workload_seed: int = 0
) -> Tuple[float, SimulationResult]:
    """Wall time and result of the seed scan on the object datacenter."""
    from repro.cluster.ec2 import build_ec2_datacenter

    vms = sweep_workload(int(n_pms * VMS_PER_PM), seed=workload_seed)
    start = time.perf_counter()
    datacenter = build_ec2_datacenter({"M3": n_pms})
    result = _simulate(datacenter, table, vms, duration_s)
    return time.perf_counter() - start, result


def _measure_point(
    table: ScoreTable,
    n_pms: int,
    duration_s: float,
    shard_size: int,
    workload_seed: int,
) -> Tuple[Dict[str, object], SimulationResult]:
    require(n_pms > 0, f"n_pms must be positive, got {n_pms}")
    from repro.cluster.ec2 import build_ec2_soa_datacenter

    n_vms = int(n_pms * VMS_PER_PM)
    vms = sweep_workload(n_vms, seed=workload_seed)

    start = time.perf_counter()
    datacenter = build_ec2_soa_datacenter({"M3": n_pms}, shard_size=shard_size)
    result = _simulate(datacenter, table, vms, duration_s)
    wall = time.perf_counter() - start

    point: Dict[str, object] = {
        "n_pms": n_pms,
        "n_vms": n_vms,
        "duration_s": duration_s,
        "shard_size": shard_size,
        "soa_wall_s": wall,
        "pms_used": result.pms_used_final,
        "unplaced_vms": result.unplaced_vms,
        "migrations": result.migrations,
        "overload_events": result.overload_events,
        "energy_kwh": result.energy_kwh,
    }
    return point, result


def run_point(
    table: ScoreTable,
    n_pms: int,
    duration_s: float = 86_400.0,
    shard_size: int = 4_096,
    workload_seed: int = 0,
) -> Dict[str, object]:
    """Measure one sweep point on the SoA substrate.

    Returns a dict with the SoA wall time and decision counters.
    """
    return _measure_point(
        table, n_pms, duration_s, shard_size, workload_seed
    )[0]


def _assert_identical(
    scan: SimulationResult, soa: SimulationResult, n_pms: int
) -> None:
    """Exact decision counters, energy/SLO to 1e-9 relative.

    Raises:
        AssertionError: on a divergence — a sweep whose substrates
            disagree measures nothing.
    """
    mismatches = [
        (field, getattr(scan, field), getattr(soa, field))
        for field in _EXACT_FIELDS
        if getattr(scan, field) != getattr(soa, field)
    ]
    close = (
        abs(scan.energy_kwh - soa.energy_kwh)
        <= 1e-9 * max(1.0, abs(scan.energy_kwh))
        and abs(scan.slo_violation_rate - soa.slo_violation_rate) <= 1e-9
    )
    if mismatches or not close:
        raise AssertionError(
            f"scan/SoA divergence at {n_pms} PMs: "
            f"counters {mismatches}, energy/slo close={close}"
        )


def run_sweep(
    points: Sequence[int] = SWEEP_POINTS,
    table: Optional[ScoreTable] = None,
    quick: bool = False,
    shard_size: int = 4_096,
    check_identity: bool = False,
    scan_anchor_pms: int = 480,
    table_cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the scale sweep and summarize it as one BENCH-ready mapping.

    Args:
        points: datacenter sizes (n_pms) to measure, ascending.
        table: prebuilt M3 score table; built once here when omitted.
        quick: 2h simulated horizon instead of the paper's 24h day.
        shard_size: rows per columnar shard.
        check_identity: every sweep point at a scan anchor size gains
            an ``identical`` verdict against that anchor's seed-scan run
            (asserted); at least one point must sit at an anchor size.
        scan_anchor_pms: the seed scan is measured at this size and
            twice it, and every point gains a ``scan_wall_extrapolated_s``
            from the exact quadratic through the two anchors (0 disables
            the scan baseline).
    """
    anchors: Tuple[int, ...] = ()
    if scan_anchor_pms > 0:
        anchors = (scan_anchor_pms, 2 * scan_anchor_pms)
    if check_identity:
        require(
            any(n_pms in anchors for n_pms in points),
            f"check_identity needs a sweep point at a scan anchor size "
            f"{anchors}; got points {tuple(points)}",
        )
    if table is None:
        table = sweep_table(table_cache_dir)
    duration_s = 7_200.0 if quick else 86_400.0
    sweep: List[Dict[str, object]] = []
    results: Dict[int, SimulationResult] = {}
    for n_pms in sorted(points):
        point, results[n_pms] = _measure_point(
            table, n_pms, duration_s, shard_size, workload_seed=0
        )
        sweep.append(point)
    summary: Dict[str, object] = {
        "scale_sweep_points": sweep,
        "scale_sweep_duration_s": duration_s,
        "scale_sweep_shard_size": shard_size,
    }
    if anchors:
        scans = [measure_scan_anchor(table, n, duration_s) for n in anchors]
        (w1, _), (w2, _) = scans
        # Exact quadratic through (1, w1) and (2, w2) in units of the
        # anchor size: w(x) = a*x + b*x**2 with w(0) = 0.  The guard
        # keeps the fit monotone if noise makes w2 < 2*w1.
        b = max(0.0, (w2 - 2.0 * w1) / 2.0)
        a = w1 - b
        summary["scale_sweep_scan_anchors"] = [
            {"n_pms": scan_anchor_pms, "scan_wall_s": w1},
            {"n_pms": 2 * scan_anchor_pms, "scan_wall_s": w2},
        ]
        summary["scale_sweep_scan_fit"] = {
            "base_pms": scan_anchor_pms, "a": a, "b": b,
        }
        for point in sweep:
            x = point["n_pms"] / scan_anchor_pms
            point["scan_wall_extrapolated_s"] = a * x + b * x * x
            point["speedup_vs_scan_extrapolated"] = (
                point["scan_wall_extrapolated_s"] / point["soa_wall_s"]
            )
            if check_identity and point["n_pms"] in anchors:
                n_pms = point["n_pms"]
                scan = scans[anchors.index(n_pms)][1]
                _assert_identical(scan, results[n_pms], n_pms)
                point["identical"] = True
    return summary
