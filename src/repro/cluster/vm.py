"""Virtual machine instances.

A :class:`VirtualMachine` couples a VM *type* (the requested resources,
which drive placement) with a utilization *trace* (the resources the VM
actually consumes over time, which drive overload, energy and SLO
accounting) — exactly the split CloudSim uses for its PlanetLab mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profile import VMType
from repro.traces.base import ConstantTrace, UtilizationTrace

__all__ = ["VirtualMachine"]


@dataclass(slots=True)
class VirtualMachine:
    """One VM request plus its runtime CPU utilization driver.

    Attributes:
        vm_id: unique id within an experiment.
        vm_type: the requested resources (placement currency).
        trace: fraction of the *requested* CPU actually consumed over
            time; defaults to always-full (worst case) so the VM is
            conservative when no trace is supplied.
    """

    vm_id: int
    vm_type: VMType
    trace: UtilizationTrace = field(default_factory=lambda: ConstantTrace(1.0))

    def cpu_utilization_at(self, time_s: float) -> float:
        """Fraction of requested CPU consumed at ``time_s``."""
        return self.trace.utilization_at(time_s)

    def __str__(self) -> str:
        return f"VM#{self.vm_id}({self.vm_type.name})"
