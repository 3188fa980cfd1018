"""First Fit Decreasing Sum (FFDSum) — vector bin-packing baseline.

Following Panigrahy et al. (ref [30]) as described in the paper: the
"size" of a machine is the sum of its d-dimensional capacity vector,
and VMs are placed greedily onto PMs in decreasing size order.  The FFD
aspect additionally sorts a batch of VM requests by decreasing demand
before placement, which is where most of FFD's packing benefit comes
from.

Both sizes are raw unit totals with unit weights: a PM's size is the
sum of every unit capacity over all its resource groups, a VM's the sum
of all its demand chunks.  Dimensions are not normalized, so a group
with large fixed-point capacities (memory) weighs more than one with
small ones.  PMs of equal size keep inventory order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.first_fit import FirstFitPolicy
from repro.core.profile import MachineShape, VMType

__all__ = ["FFDSumPolicy"]


def _vm_size(vm) -> float:
    """Total demanded units of a VM (the FFD sort key).

    Accepts a :class:`VMType` directly or anything carrying one on a
    ``vm_type`` attribute (e.g. a cluster ``VirtualMachine``), so the
    simulator can sort whole request batches.
    """
    vm_type = vm if isinstance(vm, VMType) else vm.vm_type
    return float(vm_type.total_units())


def _pm_size(shape: MachineShape) -> float:
    """Unit-weight sum of a PM's capacity vector."""
    return float(sum(group.total_capacity for group in shape.groups))


class FFDSumPolicy(FirstFitPolicy):
    """Greedy first-fit over PMs in decreasing capacity-sum order."""

    name = "FFDSum"

    def order_vms(self, vms: Sequence) -> List:
        """Sort a request batch by decreasing demand (the FFD step)."""
        return sorted(vms, key=_vm_size, reverse=True)

    def _tier(self, shape: MachineShape) -> float:
        return -_pm_size(shape)
