"""Property-based tests: the SoA index survives arbitrary op interleavings.

For arbitrary interleavings of place / evict / migrate / crash / repair
the columnar datacenter's usage-class index must stay internally
consistent (``check_consistency``), its columns must re-derive exactly
from the allocation records (``check_columns``, the auditor's I2), and
at toy scale the full MIP constraint replay must pass.  A small number
of examples also runs at 5k PMs, past the toy world's row range, to
catch position addressing bugs the toy world cannot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import audit_datacenter
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.traces.base import ConstantTrace


@st.composite
def op_sequences(draw, max_ops=24):
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ("place", "place", "place", "evict", "migrate", "crash", "repair")
        ))
        ops.append((kind, draw(st.integers(min_value=0, max_value=63))))
    return tuple(ops)


class _Driver:
    """One SoA datacenter driven through the op vocabulary."""

    def __init__(self, toy_shape, toy_table, n_pms):
        self.dc = SoADatacenter([(i, toy_shape, "M3") for i in range(n_pms)])
        self.policy = PageRankVMPolicy({toy_shape: toy_table})
        self.placed = {}  # vm_id -> VMType
        self.next_id = 0

    def step(self, op, vm_types):
        kind, pick = op
        if kind == "place":
            vm_type = vm_types[pick % len(vm_types)]
            decision = self.policy.select(vm_type, self.dc.indexed_machines())
            if decision is None:
                return
            vm_id = self.next_id
            self.next_id += 1
            self.dc.apply(
                VirtualMachine(vm_id, vm_type, ConstantTrace(0.4)), decision
            )
            self.placed[vm_id] = vm_type
        elif kind == "evict":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            self.dc.evict(vm_id)
            del self.placed[vm_id]
        elif kind == "migrate":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            source = self.dc.locate(vm_id)
            decision = self.policy.select_excluding(
                self.placed[vm_id], self.dc.indexed_machines(),
                excluded_pm=source,
            )
            if decision is None:
                return
            self.dc.migrate(vm_id, decision)
        elif kind == "crash":
            healthy = [m.pm_id for m in self.dc.machines if not m.is_failed]
            if not healthy:
                return
            pm_id = healthy[pick % len(healthy)]
            for allocation in self.dc.crash_machine(pm_id):
                del self.placed[allocation.vm_id]
        elif kind == "repair":
            failed = [m.pm_id for m in self.dc.machines if m.is_failed]
            if not failed:
                return
            pm_id = failed[pick % len(failed)]
            self.dc.repair_machine(pm_id)

    def check(self):
        assert self.dc.usage_index.check_consistency() == []
        assert self.dc.check_columns() == []


class TestSoAConsistency:
    @given(ops=op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_any_op_sequence_keeps_columns_consistent(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        driver = _Driver(toy_shape, toy_table, n_pms=8)
        for op in ops:
            driver.step(op, (vm1, vm2, vm4))
        driver.check()
        audit_datacenter(
            driver.dc, expected_vm_ids=sorted(driver.placed)
        ).raise_if_failed()

    @given(ops=op_sequences(max_ops=40))
    @settings(max_examples=3, deadline=None)
    def test_op_sequences_at_5k_pms(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        # Crash/repair and migrations must address rows anywhere in a
        # 5k-row column set.
        driver = _Driver(toy_shape, toy_table, n_pms=5_000)
        for op in ops:
            driver.step(op, (vm1, vm2, vm4))
        driver.check()
