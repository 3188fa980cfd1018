"""The centralized controller that assigns jobs and handles overloads.

Mirrors the paper's GENI controller: it polls the utilization of every
instance on a fixed heartbeat; when an instance exceeds the overload
threshold it selects a job (via the configured eviction selector), kills
it, and restarts it on the instance chosen by the placement policy.
Unlike live migration, kill+restart interrupts service — the controller
tracks the accumulated interruption time as an extra testbed metric.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.machine import PhysicalMachine
from repro.cluster.monitor import UtilizationMonitor
from repro.cluster.slo import SLOTracker
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import can_place
from repro.core.policy import PlacementPolicy
from repro.core.profile import VMType
from repro.core.soa import SoADatacenter
from repro.faults.schedule import FaultInjector
from repro.util.validation import ValidationError, require

__all__ = ["CentralizedController", "JobTooLargeError"]


class JobTooLargeError(ValidationError):
    """A job's demand exceeds every instance's capacity, even empty.

    Kill+restart can never succeed for such a job — retrying each
    heartbeat would loop forever — so the controller raises this
    structured error instead.  The attributes identify the job and the
    fleet it cannot fit.
    """

    def __init__(self, job_id: int, vm_type: VMType, n_instances: int):
        super().__init__(
            f"job #{job_id} ({vm_type.name}) does not fit on any of the "
            f"{n_instances} instances even when empty; kill+restart "
            "cannot ever succeed"
        )
        self.job_id = job_id
        self.vm_type_name = vm_type.name
        self.n_instances = n_instances


class CentralizedController:
    """Assigns jobs to instances and relieves overloaded instances.

    Args:
        datacenter: the instance fleet; heartbeats read its columnar
            monitor arrays.
        policy: placement policy deciding destinations.
        victim_selector: which job to kill on an overloaded instance.
        overload_threshold: utilization above which an instance sheds
            jobs (paper: 0.9).
        restart_latency_s: service interruption per kill+restart.
        slo_threshold: utilization counting as an SLO violation.
        burst_factor: how far a vCPU slot bursts beyond its reservation
            (4.0 = a quarter-core slot can use the whole core).
        max_restarts_per_poll: hard budget of kill+restart attempts per
            heartbeat across the whole fleet, so one pathological poll
            cannot spin the relieve loop unboundedly; leftover overload
            is simply revisited on the next heartbeat.  Defaults to
            ``16 * n_instances`` — generous enough that healthy churn
            never hits it (each instance's shed loop is naturally
            bounded by its hosted jobs), tight enough to cap a
            runaway heartbeat.
        fault_injector: optional
            :class:`~repro.faults.schedule.FaultInjector` whose
            ``restart_fails`` draws decide whether a kill+restart loses
            its restart half (the job returns to its source instance;
            the interruption is still paid).
    """

    def __init__(
        self,
        datacenter: SoADatacenter,
        policy: PlacementPolicy,
        victim_selector,
        overload_threshold: float = 0.9,
        restart_latency_s: float = 10.0,
        slo_threshold: float = 1.0,
        burst_factor: float = 4.0,
        max_restarts_per_poll: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        require(restart_latency_s >= 0, "restart_latency_s must be non-negative")
        if max_restarts_per_poll is None:
            max_restarts_per_poll = 16 * datacenter.n_machines
        require(max_restarts_per_poll >= 1, "max_restarts_per_poll must be >= 1")
        self._dc = datacenter
        self._policy = policy
        self._selector = victim_selector
        self._burst = burst_factor
        self._monitor = UtilizationMonitor(overload_threshold, burst_model=burst_factor)
        self._slo = SLOTracker(slo_threshold)
        self._restart_latency = restart_latency_s
        self._max_restarts_per_poll = max_restarts_per_poll
        self._faults = fault_injector
        self.migrations = 0
        self.failed_migrations = 0
        self.failed_restarts = 0
        self.overload_events = 0
        self.interruption_seconds = 0.0
        self.unassigned_jobs = 0

    @property
    def datacenter(self) -> SoADatacenter:
        """The controlled instance fleet."""
        return self._dc

    @property
    def slo(self) -> SLOTracker:
        """SLO accounting across the fleet."""
        return self._slo

    # ------------------------------------------------------------------
    # Job assignment
    # ------------------------------------------------------------------
    def assign_all(self, jobs: Sequence[VirtualMachine]) -> int:
        """Assign a batch of jobs; returns how many were placed."""
        placed = 0
        for job in self._policy.order_vms(list(jobs)):
            decision = self._policy.select(
                job.vm_type, self._dc.indexed_machines()
            )
            if decision is None:
                self.unassigned_jobs += 1
                continue
            self._dc.apply(job, decision, time_s=0.0)
            placed += 1
        return placed

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def poll(self, time_s: float, dt_s: float) -> None:
        """One heartbeat: record SLO, detect and relieve overloads.

        Kill+restart attempts across the heartbeat are bounded by
        ``max_restarts_per_poll``; whatever overload remains is handled
        on later heartbeats.

        Raises:
            JobTooLargeError: when the selected victim does not fit on
                any instance even when empty — restarting it can never
                succeed, so looping on it would never terminate.
        """
        positions, utilization, active, _ = self._dc.monitor_arrays(
            time_s, self._burst
        )
        self._slo.record_many(utilization, dt_s, active)
        budget = self._max_restarts_per_poll
        threshold = self._monitor.overload_threshold
        for i in np.flatnonzero(active & (utilization > threshold)):
            self.overload_events += 1
            if budget > 0:
                instance = self._dc.machine_at(int(positions[i]))
                budget = self._relieve(instance, time_s, budget)

    def _fits_any_empty_instance(self, vm_type: VMType) -> bool:
        """Could the job run *somewhere* in the fleet, capacity permitting?"""
        for machine in self._dc.machines:
            empty = tuple(
                tuple(0 for _ in group.capacities)
                for group in machine.shape.groups
            )
            if can_place(machine.shape, empty, vm_type):
                return True
        return False

    def _relieve(
        self, instance: PhysicalMachine, time_s: float, budget: int
    ) -> int:
        """Shed jobs until the instance cools or the budget runs out.

        Returns the remaining kill+restart budget.  Every attempt —
        successful or failed — consumes budget; a failed restart (no
        destination, or an injected restart fault) still interrupts the
        job, so it counts into ``interruption_seconds`` and
        ``failed_restarts``.
        """
        threshold = self._monitor.overload_threshold
        while (
            budget > 0
            and instance.is_used
            and instance.actual_cpu_utilization(time_s, self._burst) > threshold
        ):
            victim = self._selector.select_victim(
                instance.shape, instance.usage, instance.allocations
            )
            if victim is None:
                break
            if not self._fits_any_empty_instance(victim.vm_type):
                raise JobTooLargeError(
                    victim.vm_id, victim.vm_type, self._dc.n_machines
                )
            budget -= 1
            candidates = self._candidates(instance, time_s)
            decision = self._policy.select(victim.vm_type, candidates)
            if decision is None:
                # The job was killed but had nowhere to restart; it is
                # restored on its source, having paid the interruption.
                self.failed_migrations += 1
                self.failed_restarts += 1
                self.interruption_seconds += self._restart_latency
                break
            if self._faults is not None and self._faults.restart_fails(
                time_s, victim.vm_id
            ):
                # Injected restart failure: the kill happened, the
                # restart did not come up; the job returns to its
                # source instance and the interruption is still paid.
                self.failed_migrations += 1
                self.failed_restarts += 1
                self.interruption_seconds += self._restart_latency
                break
            # Kill on the source, restart on the destination.
            self._dc.migrate(victim.vm_id, decision, time_s)
            self.migrations += 1
            self.interruption_seconds += self._restart_latency
        return budget

    def _candidates(
        self, source: PhysicalMachine, time_s: float
    ) -> Sequence[PhysicalMachine]:
        # As in the simulation, destinations are chosen purely by the
        # placement policy — no global hot-PM filter (see the paper's
        # migration description in Section VI.A).
        return self._dc.indexed_machines().excluding(source.pm_id)
