"""Property-based tests: the indexed fast path never changes a decision.

For arbitrary interleavings of place / evict / migrate / crash / repair,
every placement policy must pick the same PM and the same concrete
placement whether it scans a plain machine list on the object
``Datacenter`` (the seed's linear scan) or serves from the usage-class
index an ``SoADatacenter`` maintains.  After every op the two substrates
agree on the inventory queries, and the indexed datacenter must audit
clean against the MIP constraints plus the I1 index-consistency check
afterwards.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import audit_datacenter
from repro.baselines import (
    BestFitPolicy,
    CompVMPolicy,
    FFDSumPolicy,
    FirstFitPolicy,
)
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.traces.base import ConstantTrace

N_PMS = 6

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


@st.composite
def op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ("place", "place", "place", "evict", "migrate", "crash", "repair")
        ))
        ops.append((kind, draw(st.integers(min_value=0, max_value=63))))
    return tuple(ops)


class _Pair:
    """Twin datacenters: one served by the index, one by the scan."""

    def __init__(self, name, toy_shape, toy_table):
        self.dc_scan = Datacenter([
            PhysicalMachine(i, toy_shape, type_name="M3")
            for i in range(N_PMS)
        ])
        self.dc_fast = SoADatacenter.from_machines(self.dc_scan.machines)
        self.policy_fast = make_policy(name, toy_shape, toy_table)
        self.policy_scan = make_policy(name, toy_shape, toy_table)
        self.placed = {}  # vm_id -> VMType
        self.next_id = 0

    def select_both(self, vm_type, excluded_pm=None):
        if excluded_pm is None:
            d_fast = self.policy_fast.select(
                vm_type, self.dc_fast.indexed_machines()
            )
            d_scan = self.policy_scan.select(
                vm_type, self.dc_scan.healthy_machines()
            )
        else:
            d_fast = self.policy_fast.select_excluding(
                vm_type, self.dc_fast.indexed_machines(),
                excluded_pm=excluded_pm,
            )
            d_scan = self.policy_scan.select_excluding(
                vm_type, self.dc_scan.healthy_machines(),
                excluded_pm=excluded_pm,
            )
        assert (d_fast is None) == (d_scan is None)
        if d_fast is not None:
            assert d_fast.pm_id == d_scan.pm_id
            assert d_fast.placement == d_scan.placement
        return d_fast

    def step(self, op, vm_types):
        kind, pick = op
        if kind == "place":
            vm_type = vm_types[pick % len(vm_types)]
            decision = self.select_both(vm_type)
            if decision is None:
                return
            vm_id = self.next_id
            self.next_id += 1
            for dc in (self.dc_fast, self.dc_scan):
                dc.apply(
                    VirtualMachine(vm_id, vm_type, ConstantTrace(0.4)),
                    decision,
                )
            self.placed[vm_id] = vm_type
        elif kind == "evict":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            for dc in (self.dc_fast, self.dc_scan):
                dc.evict(vm_id)
            del self.placed[vm_id]
        elif kind == "migrate":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            source = self.dc_fast.locate(vm_id)
            decision = self.select_both(
                self.placed[vm_id], excluded_pm=source
            )
            if decision is None:
                return
            for dc in (self.dc_fast, self.dc_scan):
                dc.migrate(vm_id, decision)
        elif kind == "crash":
            healthy = [
                m.pm_id for m in self.dc_fast.machines if not m.is_failed
            ]
            if not healthy:
                return
            pm_id = healthy[pick % len(healthy)]
            for allocation in self.dc_fast.crash_machine(pm_id):
                del self.placed[allocation.vm_id]
            self.dc_scan.crash_machine(pm_id)
        elif kind == "repair":
            failed = [
                m.pm_id for m in self.dc_fast.machines if m.is_failed
            ]
            if not failed:
                return
            pm_id = failed[pick % len(failed)]
            for dc in (self.dc_fast, self.dc_scan):
                dc.repair_machine(pm_id)

    def assert_inventories_agree(self):
        """The maintained index and the seed scans report one fleet."""
        fast, scan = self.dc_fast, self.dc_scan
        assert fast.pms_used == scan.pms_used
        assert [m.pm_id for m in fast.used_machines()] == [
            m.pm_id for m in scan.used_machines()
        ]
        assert [m.pm_id for m in fast.healthy_machines()] == [
            m.pm_id for m in scan.healthy_machines()
        ]


class TestIndexedDecisionsInvariant:
    @pytest.mark.parametrize("name", POLICIES)
    @given(ops=op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_any_op_sequence_keeps_decisions_identical(
        self, name, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        pair = _Pair(name, toy_shape, toy_table)
        vm_types = (vm1, vm2, vm4)
        for op in ops:
            pair.step(op, vm_types)
            pair.assert_inventories_agree()
        for vm_id in pair.placed:
            assert pair.dc_fast.locate(vm_id) == pair.dc_scan.locate(vm_id)
        audit_datacenter(
            pair.dc_fast, expected_vm_ids=sorted(pair.placed)
        ).raise_if_failed()
        assert pair.dc_fast.usage_index.check_consistency() == []
