"""Tests for the First Fit Decreasing Sum baseline."""

from repro.baselines import FFDSumPolicy
from repro.cluster.vm import VirtualMachine
from repro.core.profile import MachineShape, ResourceGroup
from repro.core.soa import SoADatacenter


class TestOrdering:
    def test_sorts_vm_types_by_decreasing_demand(self, vm1, vm2, vm4):
        ordered = FFDSumPolicy().order_vms([vm1, vm4, vm2])
        assert [v.name for v in ordered] == ["vm4", "vm2", "vm1"]

    def test_sorts_virtual_machines_too(self, vm2, vm4):
        vms = [VirtualMachine(0, vm2), VirtualMachine(1, vm4)]
        ordered = FFDSumPolicy().order_vms(vms)
        assert [v.vm_id for v in ordered] == [1, 0]


class TestSelection:
    def test_prefers_larger_pm(self, vm2, fake_machine):
        small = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        big = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
        )
        machines = [
            fake_machine(0, small, ((1, 0),)),
            fake_machine(1, big, ((1, 0, 0, 0),)),
        ]
        decision = FFDSumPolicy().select(vm2, machines)
        assert decision.pm_id == 1

    def test_prefers_larger_unused_pm(self, vm2, fake_machine):
        small = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        big = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
        )
        machines = [fake_machine(0, small), fake_machine(1, big)]
        assert FFDSumPolicy().select(vm2, machines).pm_id == 1

    def test_none_when_nothing_fits(self, toy_shape, vm4, fake_machine):
        machines = [fake_machine(0, toy_shape, ((4, 4, 4, 1),))]
        assert FFDSumPolicy().select(vm4, machines) is None

    def test_name(self):
        assert FFDSumPolicy().name == "FFDSum"


class TestClassTable:
    def test_excluded_representative_hands_over_within_the_tier(
        self, vm2, place_units
    ):
        # PMs 1 and 3 are one usage class of the larger shape, PM 1 its
        # representative.  Excluding PM 1 (a migration source) must make
        # PM 3 the first try, ahead of the smaller PM 0 that comes first
        # in inventory order.
        small = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        big = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
        )
        dc = SoADatacenter([
            (0, small, "M3"), (1, big, "M3"), (2, small, "M3"),
            (3, big, "M3"), (4, big, "M3"),
        ])
        place_units(dc, 0, 0, (1, 1))
        place_units(dc, 1, 1, (1, 1, 1, 1))
        place_units(dc, 3, 3, (1, 1, 1, 1))
        view = dc.indexed_machines()
        assert FFDSumPolicy().select(vm2, view).pm_id == 1
        ranked = FFDSumPolicy().select_excluding(vm2, view, 1)
        scan = FFDSumPolicy().select_excluding(vm2, list(view), 1)
        assert ranked.pm_id == scan.pm_id == 3
        assert ranked.placement == scan.placement
