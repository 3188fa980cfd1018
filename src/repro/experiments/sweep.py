"""Scale sweep: allocate + simulate the M3 fleet from 480 to 100k PMs.

The sweep measures the columnar (struct-of-arrays) serving path at
datacenter sizes the object path cannot reach: a 50/50 mix of
m3.xlarge / m3.2xlarge VMs with 16-sample step traces.  Trace levels
are drawn from U(0.05, 0.48), calm enough that overload churn
(Python-bound) does not dominate the wall clock at 100k PMs while
migrations still happen.

The sweep times the production path only.  That the columnar path
decides exactly as the seed scan on the object datacenter does is the
``soa`` sanitizer twin's contract (``repro sanitize run --twin soa``,
which serves this module's workload and table at 480 PMs and compares
every decision digest), not a measurement here.
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
    "run_point",
    "run_sweep",
]

#: The default sweep sizes (n_pms): the paper's scale, then 10x and 100x+.
SWEEP_POINTS: Tuple[int, ...] = (480, 5_000, 50_000, 100_000)

#: VMs per PM: fills the M3 fleet to its memory-bound packing density.
VMS_PER_PM = 2.5


def sweep_table() -> ScoreTable:
    """The M3 score table the sweep serves from (harness-identical)."""
    return build_score_table(
        ec2_pm_shape("M3"), EC2_VM_TYPES, strategy=SuccessorStrategy.BALANCED
    )


def sweep_workload(n_vms: int, seed: int = 0) -> List[VirtualMachine]:
    """The sweep request batch: m3.xlarge/m3.2xlarge with calm traces.

    Each VM draws its type, then its 16 samples, from one generator;
    the samples land in one matrix whose rows back the VMs' traces
    (:meth:`ArrayTrace.rows`), so the batch is validated once.
    """
    if n_vms == 0:
        return []
    vm_types = (ec2_vm_type("m3.xlarge"), ec2_vm_type("m3.2xlarge"))
    rng = np.random.default_rng(seed)
    types = []
    samples = np.empty((n_vms, 16))
    for i in range(n_vms):
        types.append(vm_types[int(rng.integers(len(vm_types)))])
        samples[i] = rng.uniform(0.05, 0.48, size=16)
    traces = ArrayTrace.rows(samples, 300.0)
    return [
        VirtualMachine(i, vm_type, trace)
        for i, (vm_type, trace) in enumerate(zip(types, traces))
    ]


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


def _measure_point(
    table: ScoreTable,
    n_pms: int,
    duration_s: float,
    workload_seed: int,
) -> Tuple[Dict[str, object], SimulationResult]:
    require(n_pms > 0, f"n_pms must be positive, got {n_pms}")
    from repro.cluster.ec2 import build_ec2_soa_datacenter

    n_vms = int(n_pms * VMS_PER_PM)
    start = time.perf_counter()
    vms = sweep_workload(n_vms, seed=workload_seed)
    workload_s = time.perf_counter() - start

    start = time.perf_counter()
    datacenter = build_ec2_soa_datacenter({"M3": n_pms})
    result = _simulate(datacenter, table, vms, duration_s)
    wall = time.perf_counter() - start

    point: Dict[str, object] = {
        "n_pms": n_pms,
        "n_vms": n_vms,
        "duration_s": duration_s,
        "workload_s": workload_s,
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
    workload_seed: int = 0,
) -> Dict[str, object]:
    """Measure one sweep point on the SoA substrate.

    Returns a dict with the SoA wall time (datacenter build, allocation
    and simulation), the time ``sweep_workload`` took to build the
    request batch before it (``workload_s``, reported beside it, not
    part of it), and decision counters.
    """
    return _measure_point(table, n_pms, duration_s, workload_seed)[0]


def run_sweep(
    points: Sequence[int] = SWEEP_POINTS,
    table: Optional[ScoreTable] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the scale sweep and summarize it as one BENCH-ready mapping.

    Args:
        points: datacenter sizes (n_pms) to measure; run in ascending
            order.
        table: prebuilt M3 score table; built once here when omitted.
        quick: 2h simulated horizon instead of the paper's 24h day.
    """
    if table is None:
        table = sweep_table()
    duration_s = 7_200.0 if quick else 86_400.0
    return {
        "scale_sweep_points": [
            run_point(table, n_pms, duration_s) for n_pms in sorted(points)
        ],
        "scale_sweep_duration_s": duration_s,
    }
