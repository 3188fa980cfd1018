"""Bit-identity of the online fast path with the pre-index code.

Two guarantees are asserted here, at toy scale (EC2 scale lives in
``benchmarks/test_perf_core.py``):

* **selection**: for every policy, selecting against the
  :class:`~repro.core.usage_index.IndexedMachines` view returns the same
  :class:`~repro.core.policy.PlacementDecision` as the legacy linear
  scan over a plain machine list — through placements, evictions,
  migrations and PM crash/repair cycles.
* **monitoring**: a simulation on the struct-of-arrays datacenter
  (vectorized columnar tick) reports the same decisions-and-counters as
  the verbatim sequential tick on the object datacenter, with float
  accumulators equal up to summation order.  ``test_soa_identity.py``
  repeats the check and compares the final per-PM state.
"""

import numpy as np
import pytest

from repro.baselines import (
    BestFitPolicy,
    CompVMPolicy,
    FFDSumPolicy,
    FirstFitPolicy,
    MinimumMigrationTimeSelector,
)
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.simulation import CloudSimulation, SimulationConfig
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.policy import PlacementDecision
from repro.core.soa import SoADatacenter
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
from repro.traces.base import ArrayTrace, ConstantTrace
from repro.util.rng import RngFactory


def toy_datacenter(toy_shape, count=8):
    return Datacenter([
        PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)
    ])


POLICIES = ["pagerank", "first_fit", "ffd_sum", "best_fit", "compvm"]


def make_policy(name, toy_shape, toy_table):
    if name == "pagerank":
        return PageRankVMPolicy({toy_shape: toy_table})
    return {
        "first_fit": FirstFitPolicy,
        "ffd_sum": FFDSumPolicy,
        "best_fit": BestFitPolicy,
        "compvm": CompVMPolicy,
    }[name]()


# A scripted mixed workload: place/evict/crash/repair/migrate in an
# order that exercises class splits, merges, and representative shifts.
SCRIPT = (
    ("place", "vm2"), ("place", "vm2"), ("place", "vm4"),
    ("place", "vm2"), ("place", "vm4"),
    ("evict",), ("place", "vm2"),
    ("crash",), ("place", "vm4"), ("place", "vm2"),
    ("repair",), ("place", "vm4"),
    ("migrate",), ("evict",), ("place", "vm2"),
    ("crash",), ("repair",), ("migrate",), ("place", "vm4"),
)


class _Twin:
    """One datacenter + policy pair driven by the shared script."""

    def __init__(self, policy, datacenter):
        self.policy = policy
        self.dc = datacenter
        self.placed = {}  # vm_id -> VMType

    def machines_for_select(self):
        raise NotImplementedError

    def apply(self, vm_id, vm_type, decision):
        vm = VirtualMachine(vm_id, vm_type, ConstantTrace(0.3))
        self.dc.apply(vm, decision)
        self.placed[vm_id] = vm_type


class _FastTwin(_Twin):
    def machines_for_select(self):
        return self.dc.indexed_machines()


class _ScanTwin(_Twin):
    def machines_for_select(self):
        return self.dc.healthy_machines()  # plain list -> legacy scan


def run_script(fast, scan, vm_types, script=SCRIPT):
    """Drive both twins; assert every decision is identical."""
    next_id = 0
    for op in script:
        kind = op[0]
        if kind == "place":
            vm_type = vm_types[op[1]]
            decisions = []
            for twin in (fast, scan):
                decisions.append(
                    twin.policy.select(vm_type, twin.machines_for_select())
                )
            d_fast, d_scan = decisions
            assert (d_fast is None) == (d_scan is None), op
            if d_fast is None:
                continue
            assert d_fast.pm_id == d_scan.pm_id, op
            assert d_fast.placement == d_scan.placement, op
            fast.apply(next_id, vm_type, d_fast)
            scan.apply(next_id, vm_type, d_scan)
            next_id += 1
        elif kind == "evict":
            if not fast.placed:
                continue
            vm_id = min(fast.placed)
            for twin in (fast, scan):
                twin.dc.evict(vm_id)
                del twin.placed[vm_id]
        elif kind == "crash":
            used = fast.dc.used_machines()
            pm_id = used[0].pm_id if used else 0
            if fast.dc.machine(pm_id).is_failed:
                continue
            for twin in (fast, scan):
                for allocation in twin.dc.crash_machine(pm_id):
                    del twin.placed[allocation.vm_id]
        elif kind == "repair":
            failed = [
                m.pm_id for m in fast.dc.machines if m.is_failed
            ]
            for pm_id in failed:
                for twin in (fast, scan):
                    twin.dc.repair_machine(pm_id)
        elif kind == "migrate":
            if not fast.placed:
                continue
            vm_id = min(fast.placed)
            vm_type = fast.placed[vm_id]
            source = fast.dc.locate(vm_id)
            decisions = []
            for twin in (fast, scan):
                decisions.append(twin.policy.select_excluding(
                    vm_type, twin.machines_for_select(), excluded_pm=source
                ))
            d_fast, d_scan = decisions
            assert (d_fast is None) == (d_scan is None), op
            if d_fast is None:
                continue
            assert d_fast.pm_id == d_scan.pm_id, op
            assert d_fast.placement == d_scan.placement, op
            assert d_fast.pm_id != source
            fast.dc.migrate(vm_id, d_fast)
            scan.dc.migrate(vm_id, d_scan)
        else:  # pragma: no cover - script typo guard
            raise AssertionError(f"unknown op {op!r}")
    return next_id


class TestSelectionIdentity:
    @pytest.mark.parametrize("name", POLICIES)
    def test_indexed_matches_scan_through_fault_script(
        self, name, toy_shape, toy_table, vm2, vm4, constraint_audit
    ):
        vm_types = {"vm2": vm2, "vm4": vm4}
        fast = _FastTwin(
            make_policy(name, toy_shape, toy_table), toy_datacenter(toy_shape)
        )
        scan = _ScanTwin(
            make_policy(name, toy_shape, toy_table), toy_datacenter(toy_shape)
        )
        placed = run_script(fast, scan, vm_types)
        assert placed > 0
        assert fast.dc.pms_used == scan.dc.pms_used
        for vm_id in fast.placed:
            assert fast.dc.locate(vm_id) == scan.dc.locate(vm_id)
        # The indexed datacenter audits clean, including the I1
        # index-vs-fresh-scan comparison.
        constraint_audit(fast.dc, expected_vm_ids=sorted(fast.placed))

    def test_pool_sampling_keeps_rng_stream(self, toy_shape, toy_table, vm2):
        # pool_size routes through the legacy sampled scan on both
        # sides; equal seeds must give equal draws and decisions.
        fast = _FastTwin(
            PageRankVMPolicy(
                {toy_shape: toy_table}, pool_size=2,
                rng=np.random.default_rng(7),
            ),
            toy_datacenter(toy_shape),
        )
        scan = _ScanTwin(
            PageRankVMPolicy(
                {toy_shape: toy_table}, pool_size=2,
                rng=np.random.default_rng(7),
            ),
            toy_datacenter(toy_shape),
        )
        for vm_id in range(12):
            d_fast = fast.policy.select(vm2, fast.machines_for_select())
            d_scan = scan.policy.select(vm2, scan.machines_for_select())
            assert d_fast.pm_id == d_scan.pm_id
            fast.apply(vm_id, vm2, d_fast)
            scan.apply(vm_id, vm2, d_scan)

    def test_view_is_accepted_by_base_select(self, toy_shape, vm2):
        # A policy that only overrides the legacy hooks still works when
        # handed the indexed view (base class bridges to used_list()).
        dc = toy_datacenter(toy_shape)
        decision = FirstFitPolicy().select(vm2, dc.indexed_machines())
        assert isinstance(decision, PlacementDecision)
        assert decision.pm_id == 0


def bursty_vms(n, vm_type, seed=3):
    rng = np.random.default_rng(seed)
    vms = []
    for i in range(n):
        samples = np.clip(rng.uniform(0.2, 1.0, size=12), 0.0, 1.0)
        vms.append(VirtualMachine(i, vm_type, ArrayTrace(samples, 300.0)))
    return vms


def run_once(toy_shape, toy_table, vms, vectorized, faults=None):
    """One hour on six PMs: SoA (columnar tick) or object (seed scan)."""
    if vectorized:
        dc = SoADatacenter([(i, toy_shape, "M3") for i in range(6)])
    else:
        dc = toy_datacenter(toy_shape, count=6)
    sim = CloudSimulation(
        dc,
        PageRankVMPolicy({toy_shape: toy_table}),
        MinimumMigrationTimeSelector(),
        SimulationConfig(duration_s=3600.0, monitor_interval_s=300.0),
        faults=faults,
    )
    return dc, sim.run(vms)


def crash_injector():
    schedule = FaultSchedule(
        spec=FaultSpec(pm_crashes=1),
        horizon_s=3600.0,
        events=(
            FaultEvent("pm_crash", 900.0, target=0),
            FaultEvent("pm_recover", 2100.0, target=0),
        ),
    )
    return FaultInjector(schedule, RngFactory(99).spawn("fault-draws", 0))


class TestTickEquivalence:
    def test_vectorized_tick_matches_sequential(
        self, toy_shape, toy_table, vm2, constraint_audit
    ):
        dc_fast, fast = run_once(
            toy_shape, toy_table, bursty_vms(14, vm2), vectorized=True
        )
        dc_scan, scan = run_once(
            toy_shape, toy_table, bursty_vms(14, vm2), vectorized=False
        )
        assert fast.overload_events > 0  # the workload must exercise ticks
        for field in (
            "n_vms", "unplaced_vms", "pms_used_initial", "pms_used_peak",
            "pms_used_final", "migrations", "failed_migrations",
            "overload_events", "consolidations",
        ):
            assert getattr(fast, field) == getattr(scan, field), field
        assert fast.energy_kwh == pytest.approx(scan.energy_kwh, rel=1e-12)
        assert fast.slo_violation_rate == pytest.approx(
            scan.slo_violation_rate, rel=1e-12
        )
        assert [m.pm_id for m in dc_fast.used_machines()] == [
            m.pm_id for m in dc_scan.used_machines()
        ]
        constraint_audit(dc_fast, fast)

    def test_vectorized_tick_matches_under_faults(
        self, toy_shape, toy_table, vm2, constraint_audit
    ):
        dc_fast, fast = run_once(
            toy_shape, toy_table, bursty_vms(10, vm2),
            vectorized=True, faults=crash_injector(),
        )
        dc_scan, scan = run_once(
            toy_shape, toy_table, bursty_vms(10, vm2),
            vectorized=False, faults=crash_injector(),
        )
        assert fast.resilience is not None
        assert fast.resilience.pm_crashes == scan.resilience.pm_crashes
        assert fast.resilience.vms_displaced == scan.resilience.vms_displaced
        assert fast.resilience.vms_restored == scan.resilience.vms_restored
        for field in (
            "unplaced_vms", "pms_used_final", "migrations",
            "failed_migrations", "overload_events",
        ):
            assert getattr(fast, field) == getattr(scan, field), field
        assert fast.energy_kwh == pytest.approx(scan.energy_kwh, rel=1e-12)
        constraint_audit(dc_fast, fast)
