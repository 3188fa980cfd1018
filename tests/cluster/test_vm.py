"""Tests for VirtualMachine and Allocation records."""

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.vm import VirtualMachine
from repro.traces.base import ArrayTrace, ConstantTrace


class TestVirtualMachine:
    def test_defaults_to_worst_case_trace(self, vm2):
        vm = VirtualMachine(1, vm2)
        assert vm.cpu_utilization_at(0.0) == 1.0
        assert vm.cpu_utilization_at(1e6) == 1.0

    def test_trace_driven(self, vm2):
        vm = VirtualMachine(1, vm2, trace=ArrayTrace([0.2, 0.8], 300.0))
        assert vm.cpu_utilization_at(0.0) == pytest.approx(0.2)
        assert vm.cpu_utilization_at(300.0) == pytest.approx(0.8)

    def test_str(self, vm2):
        assert "vm2" in str(VirtualMachine(7, vm2))


class TestAllocation:
    def test_properties(self, vm2):
        vm = VirtualMachine(3, vm2, trace=ConstantTrace(0.5))
        allocation = Allocation(
            vm=vm, pm_id=1, assignments=(((0, 1), (1, 1)),), placed_at=10.0
        )
        assert allocation.vm_id == 3
        assert allocation.vm_type is vm2
        assert allocation.pm_id == 1
        assert allocation.placed_at == 10.0
        assert "PM#1" in str(allocation)

    def test_satisfies_selector_protocols(self, vm2):
        from repro.baselines.migration_policies import MigratableAllocation
        from repro.core.migration import AllocationView

        allocation = Allocation(
            vm=VirtualMachine(1, vm2), pm_id=0, assignments=(((0, 1),),)
        )
        assert isinstance(allocation, AllocationView)
        assert isinstance(allocation, MigratableAllocation)


class TestSlottedRecords:
    """VMs, their traces and allocations carry no instance dict, and
    still pickle (``run_experiment(workers=N)`` ships them to workers)."""

    def test_pickle_round_trip(self, vm2):
        import pickle

        import numpy as np

        matrix = np.array([[0.2, 0.8], [0.4, 0.6]])
        batch = ArrayTrace.rows(matrix, 300.0, cycle=False)
        records = [
            ArrayTrace([0.2, 0.8], 300.0),
            batch[1],
            ConstantTrace(0.5),
            VirtualMachine(3, vm2, batch[0]),
            Allocation(
                vm=VirtualMachine(4, vm2, ConstantTrace(0.25)),
                pm_id=1,
                assignments=(((0, 1), (1, 1)),),
                placed_at=10.0,
            ),
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record)
            for t in (0.0, 300.0, 900.0):
                if isinstance(record, Allocation):
                    assert (copy.vm_id, copy.pm_id, copy.placed_at) == (
                        record.vm_id, record.pm_id, record.placed_at
                    )
                    assert copy.assignments == record.assignments
                    assert copy.vm.cpu_utilization_at(t) == 0.25
                elif isinstance(record, VirtualMachine):
                    assert copy.vm_id == record.vm_id
                    assert copy.vm_type == record.vm_type
                    assert copy.cpu_utilization_at(t) == (
                        record.cpu_utilization_at(t)
                    )
                else:
                    assert copy.utilization_at(t) == record.utilization_at(t)
        unpickled = pickle.loads(pickle.dumps(batch[1]))
        assert unpickled.cycle is False
        assert not unpickled.samples.flags.writeable
        assert unpickled.samples.tolist() == [0.4, 0.6]

    def test_allocation_stays_frozen(self, vm2):
        import dataclasses

        allocation = Allocation(
            vm=VirtualMachine(1, vm2), pm_id=0, assignments=(((0, 1),),)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            allocation.pm_id = 2
