"""Tests for datacenter bookkeeping and migration mechanics."""

import pytest

from repro.cluster.datacenter import Datacenter, restore_placement
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import Placement, balanced_placement
from repro.core.profile import VMType
from repro.core.policy import PlacementDecision
from repro.util.validation import ValidationError


def decision_for(datacenter, pm_id, vm_type):
    machine = datacenter.machine(pm_id)
    placement = balanced_placement(machine.shape, machine.usage, vm_type)
    assert placement is not None
    return PlacementDecision(pm_id=pm_id, placement=placement)


@pytest.fixture
def datacenter(toy_shape):
    return Datacenter([PhysicalMachine(i, toy_shape) for i in range(3)])


class TestInventory:
    def test_requires_machines(self):
        with pytest.raises(ValidationError):
            Datacenter([])

    def test_duplicate_ids_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            Datacenter([PhysicalMachine(0, toy_shape), PhysicalMachine(0, toy_shape)])

    def test_machine_lookup(self, datacenter):
        assert datacenter.machine(1).pm_id == 1
        with pytest.raises(KeyError):
            datacenter.machine(42)

    def test_counts(self, datacenter, vm2):
        assert datacenter.n_machines == 3
        assert datacenter.pms_used == 0
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        assert datacenter.pms_used == 1
        assert datacenter.n_vms == 1
        assert datacenter.used_machines()[0].pm_id == 0


class TestApplyEvict:
    def test_apply_places_and_locates(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 2, vm2))
        assert datacenter.locate(1) == 2

    def test_double_apply_rejected(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        with pytest.raises(ValidationError):
            datacenter.apply(vm, decision_for(datacenter, 1, vm2))

    def test_evict_returns_allocation(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        allocation = datacenter.evict(1)
        assert allocation.vm is vm
        assert datacenter.locate(1) is None
        assert datacenter.pms_used == 0

    def test_evict_unknown_rejected(self, datacenter):
        with pytest.raises(KeyError):
            datacenter.evict(7)


class TestMigrate:
    def test_moves_vm(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        datacenter.migrate(1, decision_for(datacenter, 1, vm2))
        assert datacenter.locate(1) == 1
        assert not datacenter.machine(0).is_used
        assert datacenter.machine(1).is_used

    def test_failed_migration_restores_source(self, datacenter, toy_shape, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        source_usage = datacenter.machine(0).usage
        bad = PlacementDecision(
            pm_id=99,  # unknown PM
            placement=balanced_placement(toy_shape, toy_shape.empty_usage(), vm2),
        )
        with pytest.raises(KeyError):
            datacenter.migrate(1, bad)
        assert datacenter.locate(1) == 0
        assert datacenter.machine(0).usage == source_usage

    def test_migrate_to_same_pm_after_eviction_allowed(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        datacenter.migrate(1, decision_for(datacenter, 0, vm2))
        assert datacenter.locate(1) == 0


class TestRestorePlacement:
    def test_new_usage_is_canonical(self, toy_shape):
        machine = PhysicalMachine(0, toy_shape)
        loads = VMType(name="loads", demands=((3, 1),))
        machine.place(
            VirtualMachine(0, loads),
            Placement(new_usage=((0, 0, 1, 3),), assignments=(((0, 3), (3, 1)),)),
        )
        moved = VMType(name="moved", demands=((2,),))
        machine.place(
            VirtualMachine(1, moved),
            Placement(new_usage=((0, 1, 2, 3),), assignments=(((1, 2),),)),
        )
        allocation = machine.remove(1)
        assert machine.usage == ((3, 0, 0, 1),)
        restored = restore_placement(machine, allocation)
        # Real unit order after the restore is (3, 2, 0, 1): unsorted.
        assert restored.new_usage == toy_shape.canonicalize(((3, 2, 0, 1),))
        assert restored.new_usage == ((0, 1, 2, 3),)
        machine.place(VirtualMachine(1, moved), restored)
        assert machine.usage == ((3, 2, 0, 1),)
