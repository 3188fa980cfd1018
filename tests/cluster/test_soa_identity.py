"""Bit-identity of the columnar (struct-of-arrays) datacenter.

The SoA substrate must be a drop-in for the object path at every layer
this suite exercises:

* **selection**: driving the same scripted mix of place / evict / crash
  / repair / migrate against both datacenters yields identical
  :class:`~repro.core.policy.PlacementDecision` streams — the vectorized
  class ranking over the SoA class table agrees with the object path's
  per-class walk.
* **simulation**: a full run with the columnar tick
  (``monitor_arrays`` + bincount demand fold) reports the same counters
  and final per-PM state as the seed scan on the object datacenter,
  with float accumulators equal up to summation order — including
  under PM crash/recover faults.
* **auditing**: the final SoA state passes the MIP constraint replay
  plus the I1 (index) and I2 (column re-derivation) checks.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import FFDSumPolicy, MinimumMigrationTimeSelector
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.simulation import CloudSimulation, SimulationConfig
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, FaultSpec
from repro.traces.base import ArrayTrace, ConstantTrace
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError


def object_datacenter(toy_shape, count=8):
    return Datacenter([
        PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)
    ])


def soa_datacenter(toy_shape, count=8):
    return SoADatacenter([(i, toy_shape, "M3") for i in range(count)])


# The fast-path fault script: exercises class splits, merges, and
# representative shifts through crashes and repairs.
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
    def __init__(self, policy, datacenter):
        self.policy = policy
        self.dc = datacenter
        self.placed = {}  # vm_id -> VMType

    def apply(self, vm_id, vm_type, decision):
        vm = VirtualMachine(vm_id, vm_type, ConstantTrace(0.3))
        self.dc.apply(vm, decision)
        self.placed[vm_id] = vm_type


def run_script(obj, soa, vm_types, script=SCRIPT):
    """Drive both substrates; assert every decision is identical."""
    next_id = 0
    for op in script:
        kind = op[0]
        if kind == "place":
            vm_type = vm_types[op[1]]
            d_obj = obj.policy.select(vm_type, obj.dc.indexed_machines())
            d_soa = soa.policy.select(vm_type, soa.dc.indexed_machines())
            assert (d_obj is None) == (d_soa is None), op
            if d_obj is None:
                continue
            assert d_obj.pm_id == d_soa.pm_id, op
            assert d_obj.placement == d_soa.placement, op
            obj.apply(next_id, vm_type, d_obj)
            soa.apply(next_id, vm_type, d_soa)
            next_id += 1
        elif kind == "evict":
            if not obj.placed:
                continue
            vm_id = min(obj.placed)
            for twin in (obj, soa):
                twin.dc.evict(vm_id)
                del twin.placed[vm_id]
        elif kind == "crash":
            used = obj.dc.used_machines()
            pm_id = used[0].pm_id if used else 0
            if obj.dc.machine(pm_id).is_failed:
                continue
            for twin in (obj, soa):
                for allocation in twin.dc.crash_machine(pm_id):
                    del twin.placed[allocation.vm_id]
        elif kind == "repair":
            failed = [m.pm_id for m in obj.dc.machines if m.is_failed]
            for pm_id in failed:
                for twin in (obj, soa):
                    twin.dc.repair_machine(pm_id)
        elif kind == "migrate":
            if not obj.placed:
                continue
            vm_id = min(obj.placed)
            vm_type = obj.placed[vm_id]
            source = obj.dc.locate(vm_id)
            d_obj = obj.policy.select_excluding(
                vm_type, obj.dc.indexed_machines(), excluded_pm=source
            )
            d_soa = soa.policy.select_excluding(
                vm_type, soa.dc.indexed_machines(), excluded_pm=source
            )
            assert (d_obj is None) == (d_soa is None), op
            if d_obj is None:
                continue
            assert d_obj.pm_id == d_soa.pm_id, op
            assert d_obj.placement == d_soa.placement, op
            obj.dc.migrate(vm_id, d_obj)
            soa.dc.migrate(vm_id, d_soa)
        else:  # pragma: no cover - script typo guard
            raise AssertionError(f"unknown op {op!r}")
    return next_id


def assert_same_state(dc_obj, dc_soa):
    """Machine-by-machine equality of the two substrates."""
    assert dc_obj.n_machines == dc_soa.n_machines
    assert dc_obj.pms_used == dc_soa.pms_used
    for m_obj in dc_obj.machines:
        m_soa = dc_soa.machine(m_obj.pm_id)
        assert m_obj.usage == m_soa.usage, m_obj.pm_id
        assert m_obj.is_failed == m_soa.is_failed, m_obj.pm_id
        assert (
            sorted(a.vm_id for a in m_obj.allocations)
            == sorted(a.vm_id for a in m_soa.allocations)
        ), m_obj.pm_id


class TestSoASelectionIdentity:
    @pytest.mark.parametrize("policy_cls", ["pagerank", "ffd_sum"])
    def test_soa_matches_object_through_fault_script(
        self, policy_cls, toy_shape, toy_table, vm2, vm4, constraint_audit
    ):
        def make():
            if policy_cls == "pagerank":
                return PageRankVMPolicy({toy_shape: toy_table})
            return FFDSumPolicy()

        obj = _Twin(make(), object_datacenter(toy_shape))
        soa = _Twin(make(), soa_datacenter(toy_shape))
        placed = run_script(obj, soa, {"vm2": vm2, "vm4": vm4})
        assert placed > 0
        assert_same_state(obj.dc, soa.dc)
        for vm_id in obj.placed:
            assert obj.dc.locate(vm_id) == soa.dc.locate(vm_id)
        # The SoA datacenter audits clean, including I1 (index) and I2
        # (columns re-derived from the allocation records).
        constraint_audit(soa.dc, expected_vm_ids=sorted(soa.placed))

    def test_failed_migration_rolls_back_columns(
        self, toy_shape, toy_table, vm2
    ):
        soa = soa_datacenter(toy_shape, count=2)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        vm = VirtualMachine(0, vm2, ConstantTrace(0.3))
        soa.apply(vm, policy.select(vm2, soa.indexed_machines()))
        before = soa.machine(soa.locate(0)).usage
        # Target a crashed PM: apply() raises and the source must be
        # restored bit-for-bit (usage column, index class, cache).
        other = 1 - soa.locate(0)
        soa.crash_machine(other)
        decision = policy.select(vm2, soa.indexed_machines())
        with pytest.raises(ValidationError):
            soa.migrate(0, dataclasses.replace(decision, pm_id=other))
        assert soa.locate(0) == 1 - other
        assert soa.machine(soa.locate(0)).usage == before
        assert soa.check_columns() == []


def bursty_vms(n, vm_type, seed=3):
    rng = np.random.default_rng(seed)
    vms = []
    for i in range(n):
        samples = np.clip(rng.uniform(0.2, 1.0, size=12), 0.0, 1.0)
        vms.append(VirtualMachine(i, vm_type, ArrayTrace(samples, 300.0)))
    return vms


def run_once(dc, toy_table, vms, faults=None):
    toy_shape = next(iter({m.shape for m in dc.machines}))
    sim = CloudSimulation(
        dc,
        PageRankVMPolicy({toy_shape: toy_table}),
        MinimumMigrationTimeSelector(),
        SimulationConfig(duration_s=3600.0, monitor_interval_s=300.0),
        faults=faults,
    )
    return sim.run(vms)


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


class TestSoATickEquivalence:
    def test_columnar_tick_matches_object_fast_path(
        self, toy_shape, toy_table, vm2, constraint_audit
    ):
        # The object datacenter's one simulation path is the seed scan.
        dc_obj = object_datacenter(toy_shape, count=6)
        dc_soa = soa_datacenter(toy_shape, count=6)
        obj = run_once(dc_obj, toy_table, bursty_vms(14, vm2))
        soa = run_once(dc_soa, toy_table, bursty_vms(14, vm2))
        assert soa.overload_events > 0  # the workload must exercise ticks
        for field in (
            "n_vms", "unplaced_vms", "pms_used_initial", "pms_used_peak",
            "pms_used_final", "migrations", "failed_migrations",
            "overload_events", "consolidations",
        ):
            assert getattr(soa, field) == getattr(obj, field), field
        assert soa.energy_kwh == pytest.approx(obj.energy_kwh, rel=1e-12)
        assert soa.slo_violation_rate == pytest.approx(
            obj.slo_violation_rate, rel=1e-12
        )
        assert_same_state(dc_obj, dc_soa)
        constraint_audit(dc_soa, soa)

    def test_columnar_tick_matches_under_faults(
        self, toy_shape, toy_table, vm2, constraint_audit
    ):
        dc_obj = object_datacenter(toy_shape, count=6)
        dc_soa = soa_datacenter(toy_shape, count=6)
        obj = run_once(
            dc_obj, toy_table, bursty_vms(10, vm2), faults=crash_injector()
        )
        soa = run_once(
            dc_soa, toy_table, bursty_vms(10, vm2), faults=crash_injector()
        )
        assert soa.resilience is not None
        assert soa.resilience.pm_crashes == obj.resilience.pm_crashes
        assert soa.resilience.vms_displaced == obj.resilience.vms_displaced
        assert soa.resilience.vms_restored == obj.resilience.vms_restored
        for field in (
            "unplaced_vms", "pms_used_final", "migrations",
            "failed_migrations", "overload_events",
        ):
            assert getattr(soa, field) == getattr(obj, field), field
        assert soa.energy_kwh == pytest.approx(obj.energy_kwh, rel=1e-12)
        assert_same_state(dc_obj, dc_soa)
        constraint_audit(dc_soa, soa)
