"""Periodic utilization monitoring and overload detection.

Mirrors the paper's simulation driver: "the simulator calculates the
resource utilization status of all the PMs in the datacenter every 300
seconds, and records the number of VM migrations and the number of
overloaded PMs during that period".  A PM is overloaded when its
trace-driven CPU utilization exceeds the threshold (90 % in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.machine import PhysicalMachine
from repro.util.validation import require

__all__ = ["MachineSnapshot", "UtilizationMonitor"]


@dataclass(frozen=True)
class MachineSnapshot:
    """One PM's state at a monitoring tick."""

    machine: PhysicalMachine
    cpu_utilization: float
    active: bool


class UtilizationMonitor:
    """Samples trace-driven CPU utilization across the fleet.

    Args:
        overload_threshold: utilization above which a PM is flagged
            overloaded (the paper uses 0.9).
        burst_model: how far a vCPU can burst — see
            :meth:`repro.cluster.machine.PhysicalMachine.actual_cpu_utilization`.
    """

    def __init__(self, overload_threshold: float = 0.9, burst_model="core"):
        require(
            0.0 < overload_threshold <= 1.0,
            f"overload_threshold must be in (0,1], got {overload_threshold}",
        )
        numeric = isinstance(burst_model, (int, float)) and not isinstance(
            burst_model, bool
        )
        require(
            (numeric and burst_model > 0) or burst_model in ("core", "request"),
            f"unknown burst model {burst_model!r}",
        )
        self._threshold = overload_threshold
        self._burst = burst_model

    @property
    def overload_threshold(self) -> float:
        """The configured overload threshold."""
        return self._threshold

    def snapshot(
        self, machines: Sequence[PhysicalMachine], time_s: float
    ) -> List[MachineSnapshot]:
        """Per-PM utilization snapshots at ``time_s``."""
        return [
            MachineSnapshot(
                machine=m,
                cpu_utilization=m.actual_cpu_utilization(time_s, self._burst),
                active=m.is_used,
            )
            for m in machines
        ]

    def is_overloaded(self, snapshot: MachineSnapshot) -> bool:
        """True when an active PM exceeds the overload threshold."""
        return snapshot.active and snapshot.cpu_utilization > self._threshold

    def overloaded(
        self, snapshots: Sequence[MachineSnapshot]
    ) -> List[MachineSnapshot]:
        """The overloaded subset of a snapshot list."""
        return [s for s in snapshots if self.is_overloaded(s)]
