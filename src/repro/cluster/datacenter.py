"""The datacenter: PM inventory plus placement/migration bookkeeping.

A :class:`Datacenter` owns the physical machines and applies placement
decisions produced by policies.  It answers the inventory questions the
experiment harness asks (PMs used, where a VM lives) and implements the
mechanics of migration (atomic remove + place).

This is the seed code, kept as the oracle the columnar
:class:`~repro.core.soa.SoADatacenter` is checked against: every
inventory query is a plain scan over the machines, and no usage-class
index is maintained.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.allocation import Allocation
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.policy import PlacementDecision
from repro.util.validation import ValidationError, require

__all__ = ["Datacenter", "restore_placement"]


class Datacenter:
    """PM inventory with placement application and lookups."""

    def __init__(self, machines: Sequence[PhysicalMachine]):
        machines = list(machines)
        require(len(machines) > 0, "a datacenter needs at least one PM")
        ids = [m.pm_id for m in machines]
        require(len(set(ids)) == len(ids), f"duplicate PM ids: {ids!r}")
        self._machines = machines
        self._by_id: Dict[int, PhysicalMachine] = {m.pm_id: m for m in machines}
        self._vm_location: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    @property
    def machines(self) -> List[PhysicalMachine]:
        """All PMs in inventory order."""
        return list(self._machines)

    def machine(self, pm_id: int) -> PhysicalMachine:
        """PM by id.

        Raises:
            KeyError: for unknown ids.
        """
        machine = self._by_id.get(pm_id)
        if machine is None:
            raise KeyError(f"no PM with id {pm_id}")
        return machine

    @property
    def n_machines(self) -> int:
        """Total PM count."""
        return len(self._machines)

    def used_machines(self) -> List[PhysicalMachine]:
        """PMs currently hosting at least one VM."""
        return [m for m in self._machines if m.is_used]

    def healthy_machines(self) -> List[PhysicalMachine]:
        """PMs not currently crashed — the candidate pool under faults."""
        return [m for m in self._machines if not m.is_failed]

    @property
    def pms_used(self) -> int:
        """Number of PMs currently hosting VMs."""
        return sum(1 for m in self._machines if m.is_used)

    @property
    def n_vms(self) -> int:
        """Number of VMs currently placed."""
        return len(self._vm_location)

    def locate(self, vm_id: int) -> Optional[int]:
        """PM id hosting a VM, or None when unplaced."""
        return self._vm_location.get(vm_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(
        self, vm: VirtualMachine, decision: PlacementDecision, time_s: float = 0.0
    ) -> Allocation:
        """Apply a policy's placement decision.

        Raises:
            ValidationError: when the VM is already placed somewhere.
            KeyError: when the decision names an unknown PM.
        """
        if vm.vm_id in self._vm_location:
            raise ValidationError(
                f"VM#{vm.vm_id} is already placed on "
                f"PM#{self._vm_location[vm.vm_id]}"
            )
        machine = self.machine(decision.pm_id)
        allocation = machine.place(vm, decision.placement, time_s)
        self._vm_location[vm.vm_id] = machine.pm_id
        return allocation

    def evict(self, vm_id: int) -> Allocation:
        """Remove a VM from its current PM and return its old allocation.

        Raises:
            KeyError: when the VM is not placed.
        """
        pm_id = self._vm_location.get(vm_id)
        if pm_id is None:
            raise KeyError(f"VM#{vm_id} is not placed")
        allocation = self._by_id[pm_id].remove(vm_id)
        del self._vm_location[vm_id]
        return allocation

    def crash_machine(self, pm_id: int) -> List[Allocation]:
        """Fail a PM, evicting every hosted VM.

        The PM is flagged failed first (so nothing can land on it while
        its tenants are being salvaged) and then emptied; the displaced
        allocations are returned in hosting order so the caller — the
        fault-aware simulation — can queue them for re-placement.

        Raises:
            KeyError: for unknown ids.
            ValidationError: when the PM is already crashed (a schedule
                should fold overlapping crash windows, not stack them).
        """
        machine = self.machine(pm_id)
        if machine.is_failed:
            raise ValidationError(f"PM#{pm_id} is already crashed")
        machine.mark_failed()
        return [self.evict(a.vm_id) for a in machine.allocations]

    def repair_machine(self, pm_id: int) -> None:
        """Bring a crashed PM back into the candidate pool (empty).

        Raises:
            KeyError: for unknown ids.
            ValidationError: when the PM is not crashed.
        """
        machine = self.machine(pm_id)
        if not machine.is_failed:
            raise ValidationError(f"PM#{pm_id} is not crashed")
        machine.mark_repaired()

    def migrate(
        self,
        vm_id: int,
        decision: PlacementDecision,
        time_s: float = 0.0,
    ) -> Allocation:
        """Move a placed VM to the PM named by ``decision``.

        The eviction happens first so the destination placement was
        computed against consistent state; on destination failure the VM
        is restored to its source PM before re-raising, keeping the
        datacenter consistent.
        """
        old = self.evict(vm_id)
        try:
            return self.apply(old.vm, decision, time_s)
        except (ValidationError, KeyError):
            source = self._by_id[old.pm_id]
            source.place(
                old.vm,
                restore_placement(source, old),
                old.placed_at,
            )
            self._vm_location[vm_id] = old.pm_id
            raise


def restore_placement(machine, allocation: Allocation):
    """Rebuild a Placement applying an allocation's recorded assignments.

    ``machine`` is anything exposing ``usage`` (a ``PhysicalMachine`` or
    a columnar view); used by both substrates' migration rollback.
    """
    from repro.core.permutations import Placement

    usage = [list(group) for group in machine.usage]
    for group_usage, group_assign in zip(usage, allocation.assignments):
        for idx, chunk in group_assign:
            group_usage[idx] += chunk
    return Placement(
        new_usage=tuple(tuple(group) for group in usage),
        assignments=allocation.assignments,
    )
