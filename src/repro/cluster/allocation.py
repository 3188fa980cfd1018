"""Allocation records: which VM sits where, on which concrete units.

An allocation captures the exact per-group (unit index, chunk) pairs a
placement decision applied, which is what lets eviction selectors and
the migration machinery compute residual profiles exactly (see
:mod:`repro.core.migration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cluster.vm import VirtualMachine
from repro.core.profile import VMType

__all__ = ["Allocation"]

Assignments = Tuple[Tuple[Tuple[int, int], ...], ...]


@dataclass(frozen=True, slots=True)
class Allocation:
    """One VM's concrete placement on one PM.

    Satisfies both :class:`repro.core.migration.AllocationView`
    (``assignments``) and
    :class:`repro.baselines.migration_policies.MigratableAllocation`
    (``vm_type``).
    """

    vm: VirtualMachine
    pm_id: int
    assignments: Assignments
    placed_at: float = 0.0

    @property
    def vm_id(self) -> int:
        """Id of the hosted VM."""
        return self.vm.vm_id

    @property
    def vm_type(self) -> VMType:
        """Type of the hosted VM."""
        return self.vm.vm_type

    def __str__(self) -> str:
        return f"Allocation({self.vm} on PM#{self.pm_id})"
