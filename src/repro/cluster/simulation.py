"""The CloudSim-equivalent simulation driver (paper Section VI.A).

One simulation run:

1. *Initial allocation* — a batch of VM requests is placed by the policy
   under test (Algorithm 2 for PageRankVM, the baselines' own rules
   otherwise).
2. *Monitoring loop* — every ``monitor_interval_s`` (300 s in the paper)
   the trace-driven CPU utilization of every PM is sampled; energy and
   SLO accounting integrate over the interval, and PMs above the
   overload threshold (90 %) shed VMs: an eviction selector picks the
   victim, the placement policy picks the destination, and the move is
   counted as a migration.
3. After ``duration_s`` (24 h) the run reports the paper's four metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.datacenter import Datacenter
from repro.cluster.energy import EnergyMeter, PowerModel, power_model_for
from repro.cluster.events import EventLoop
from repro.cluster.machine import PhysicalMachine
from repro.cluster.monitor import UtilizationMonitor
from repro.cluster.slo import SLOTracker
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import balanced_placement
from repro.core.policy import PlacementDecision, PlacementPolicy
from repro.core.usage_index import IndexedMachines
from repro.faults.metrics import ResilienceMetrics
from repro.faults.schedule import FaultEvent, FaultInjector
from repro.util.trace import TRACE, tracepoint
from repro.util.validation import require

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "CloudSimulation",
    "WorkloadEvent",
    "DynamicSimulation",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run (paper defaults).

    ``underload_threshold`` enables the classic energy-saving
    consolidation loop (off by default — the paper's evaluation does not
    use it): at each tick, an active PM whose trace-driven utilization
    falls below the threshold has *all* its VMs migrated to other used
    PMs (all-or-nothing) so it can power off.
    """

    duration_s: float = 86_400.0          # 24 hours
    monitor_interval_s: float = 300.0     # 5 minutes
    overload_threshold: float = 0.9       # overload flag (Section VI.D)
    slo_threshold: float = 1.0            # SLO violation at 100 % CPU
    burst_model: object = "core"          # vCPU slots burst to a full core
    underload_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.duration_s > 0, "duration_s must be positive")
        require(self.monitor_interval_s > 0, "monitor_interval_s must be positive")
        require(
            self.monitor_interval_s <= self.duration_s,
            "monitor interval exceeds the simulation duration",
        )
        if self.underload_threshold is not None:
            require(
                0.0 < self.underload_threshold < self.overload_threshold,
                "underload_threshold must sit in (0, overload_threshold)",
            )


@dataclass
class SimulationResult:
    """The metrics one run produces (the paper's comparison metrics).

    The trailing fields only move under the optional extensions:
    ``consolidations`` counts PMs drained by underload consolidation,
    ``rejected_arrivals``/``completed_vms`` are dynamic-workload
    counters (see :class:`DynamicSimulation`), ``resilience`` holds
    the fault-injection record (None unless a
    :class:`~repro.faults.schedule.FaultInjector` was attached), and
    ``degraded``/``degraded_reason`` surface a policy that finished the
    run in its FFDSum fallback (see
    :class:`~repro.core.placement.PageRankVMPolicy`) — a run whose
    numbers came from the fallback must never be mistaken for a
    table-driven one.
    """

    policy_name: str
    n_vms: int
    unplaced_vms: int
    pms_used_initial: int
    pms_used_peak: int
    pms_used_final: int
    energy_kwh: float
    migrations: int
    failed_migrations: int
    overload_events: int
    slo_violation_rate: float
    duration_s: float
    consolidations: int = 0
    rejected_arrivals: int = 0
    completed_vms: int = 0
    resilience: Optional[ResilienceMetrics] = None
    degraded: bool = False
    degraded_reason: Optional[str] = None

    def __str__(self) -> str:
        tail = " [DEGRADED]" if self.degraded else ""
        return (
            f"{self.policy_name}: pms={self.pms_used_initial} "
            f"(peak {self.pms_used_peak}), energy={self.energy_kwh:.1f} kWh, "
            f"migrations={self.migrations}, "
            f"slo={100 * self.slo_violation_rate:.2f}%{tail}"
        )


@dataclass
class _PendingVM:
    """A VM displaced by a fault, waiting to be placed again.

    ``not_before`` models boot/image-pull latency after a crash, or the
    intentional outage of a flap; downtime accrues from ``displaced_at``
    until the policy actually finds it a home.
    """

    vm: VirtualMachine
    displaced_at: float
    not_before: float


class CloudSimulation:
    """Drives one policy over one datacenter for one simulated day.

    Args:
        datacenter: the PM inventory (freshly built per run).
        policy: the placement policy under test.
        victim_selector: eviction selector used on overload; must expose
            ``select_victim(shape, usage, allocations)``.
        config: timing and thresholds.
        power_models: optional override mapping a PM ``type_name`` to a
            :class:`PowerModel`; defaults to the paper's Table III via
            :func:`repro.cluster.energy.power_model_for`.
        faults: optional fault injector.  When set, the schedule's PM
            crashes, VM flaps and monitoring dropouts fire as simulation
            events, displaced VMs are re-placed by the policy under test
            (anti-collocation still enforced by the machines), and the
            run's :class:`~repro.faults.metrics.ResilienceMetrics` are
            attached to the result.

    The substrate picks the serving path.  A columnar datacenter (one
    exposing ``monitor_arrays``, i.e.
    :class:`~repro.core.soa.SoADatacenter`) serves placement requests
    through its usage-class index and runs the columnar monitor tick.
    The object :class:`~repro.cluster.datacenter.Datacenter` keeps no
    index and runs the verbatim seed code instead — plain machine lists
    scanned per decision and the machine-by-machine tick.  No benchmark
    times it: it is the oracle of ``tests/cluster/test_soa_identity.py``,
    ``test_fast_path.py``, the ``soa`` sanitizer twin and
    ``test_perf_online_serving_identical_under_faults`` (benchmarks/).
    Placement decisions, migrations and overload counts are identical
    on both; energy/SLO totals agree up to float summation order.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        policy: PlacementPolicy,
        victim_selector,
        config: SimulationConfig = SimulationConfig(),
        power_models: Optional[dict] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self._dc = datacenter
        self._policy = policy
        self._selector = victim_selector
        self._config = config
        self._power_models = power_models
        self._monitor = UtilizationMonitor(
            config.overload_threshold, config.burst_model
        )
        self._slo = SLOTracker(config.slo_threshold)
        self._energy = EnergyMeter()
        self._migrations = 0
        self._failed_migrations = 0
        self._overload_events = 0
        self._unplaced = 0
        self._peak_pms = 0
        self._consolidations = 0
        self._faults = faults
        self._columnar = hasattr(datacenter, "monitor_arrays")
        self._resilience = ResilienceMetrics() if faults is not None else None
        self._pending: List[_PendingVM] = []
        self._monitor_down = False
        self._loop: Optional[EventLoop] = None

    # ------------------------------------------------------------------
    # Phase 1: initial allocation
    # ------------------------------------------------------------------
    def allocate_initial(self, vms: Sequence[VirtualMachine]) -> int:
        """Place the request batch; returns the number placed."""
        ordered = self._policy.order_vms(list(vms))
        placed = 0
        for vm in ordered:
            decision = self._policy.select(vm.vm_type, self._healthy())
            if TRACE.active:
                tracepoint(
                    "place", vm=vm.vm_id,
                    pm=-1 if decision is None else decision.pm_id,
                )
            if decision is None:
                self._unplaced += 1
                continue
            self._dc.apply(vm, decision, time_s=0.0)
            placed += 1
        self._peak_pms = self._dc.pms_used
        return placed

    # ------------------------------------------------------------------
    # Phase 2: monitored run
    # ------------------------------------------------------------------
    def run(self, vms: Sequence[VirtualMachine]) -> SimulationResult:
        """Allocate ``vms`` and simulate the full horizon."""
        self.allocate_initial(vms)
        pms_initial = self._dc.pms_used

        loop = EventLoop()
        interval = self._config.monitor_interval_s
        self._install_faults(loop)

        def tick() -> None:
            self._on_tick(loop.now, interval)

        loop.schedule_every(interval, tick)
        loop.run_until(self._config.duration_s)
        self._finalize_resilience()

        return SimulationResult(
            policy_name=self._policy.name,
            n_vms=len(vms),
            unplaced_vms=self._unplaced,
            pms_used_initial=pms_initial,
            pms_used_peak=self._peak_pms,
            pms_used_final=self._dc.pms_used,
            energy_kwh=self._energy.total_kwh,
            migrations=self._migrations,
            failed_migrations=self._failed_migrations,
            overload_events=self._overload_events,
            slo_violation_rate=self._slo.violation_rate,
            duration_s=self._config.duration_s,
            consolidations=self._consolidations,
            resilience=self._resilience,
            degraded=bool(getattr(self._policy, "degraded", False)),
            degraded_reason=getattr(self._policy, "degraded_reason", None),
        )

    def _power_model(self, machine: PhysicalMachine) -> PowerModel:
        return self._power_model_named(machine.type_name)

    def _power_model_named(self, type_name: str) -> PowerModel:
        if self._power_models is not None:
            return self._power_models[type_name]
        return power_model_for(type_name)

    def _on_tick(self, time_s: float, dt_s: float) -> None:
        if TRACE.active:
            # Window boundary: digest comparisons between twins align on
            # tick events, so a divergence is attributed to its window.
            tracepoint("tick", time=time_s)
        if self._pending:
            self._replace_pending(time_s)
        if self._monitor_down:
            # Inside a monitoring dropout nothing is observed: no energy
            # or SLO accounting, and overloads go unnoticed this tick.
            self._resilience.monitor_dropped_ticks += 1
            return
        if self._columnar:
            self._tick_columnar(time_s, dt_s)
        else:
            self._tick_scan(time_s, dt_s)
        if self._config.underload_threshold is not None:
            self._consolidate_underloaded(time_s)
        self._peak_pms = max(self._peak_pms, self._dc.pms_used)
        if TRACE.active:
            # Running totals once per tick: float-class events, compared
            # ULP-bounded (the tick forms re-associate the summation).
            tracepoint("energy", joules=self._energy.total_joules)
            tracepoint(
                "slo",
                active=self._slo.active_seconds,
                violation=self._slo.violation_seconds,
            )

    def _tick_columnar(self, time_s: float, dt_s: float) -> None:
        """One monitoring tick straight off the SoA datacenter's columns.

        ``monitor_arrays`` reduces per-PM demand with one fleet-wide
        bincount fold — the same left-to-right summation as the
        per-machine walk, so overload detection and every downstream
        migration decision stay bit-identical to the seed scan.  Energy
        integrates per PM type in first-active-occurrence order; only
        its summation order differs from the scan's per-machine adds.
        """
        burst = self._config.burst_model
        positions, utilization, active, type_ids = self._dc.monitor_arrays(
            time_s, burst
        )
        self._slo.record_many(utilization, dt_s, active)
        clamped = np.minimum(utilization, 1.0)
        active_rows = np.flatnonzero(active)
        if active_rows.size:
            type_of = type_ids[active_rows]
            uniq, first_seen = np.unique(type_of, return_index=True)
            names = self._dc.type_names
            for type_id in uniq[np.argsort(first_seen)]:
                rows = active_rows[type_of == type_id]
                self._energy.accumulate_many(
                    self._power_model_named(names[int(type_id)]),
                    clamped[rows],
                    dt_s,
                )
        threshold = self._monitor.overload_threshold
        for i in np.flatnonzero(active & (utilization > threshold)):
            self._overload_events += 1
            machine = self._dc.machine_at(int(positions[int(i)]))
            if TRACE.active:
                tracepoint(
                    "overload", pm=machine.pm_id,
                    util=float(utilization[int(i)]),
                )
            self._relieve(machine, time_s)

    def _tick_scan(self, time_s: float, dt_s: float) -> None:
        """The seed machine-by-machine monitoring loop, kept verbatim.

        Runs on the object datacenter: the oracle the columnar tick is
        asserted identical against.
        """
        snapshots = self._monitor.snapshot(self._healthy(), time_s)
        for snap in snapshots:
            self._slo.record(snap.cpu_utilization, dt_s, active=snap.active)
            if snap.active:
                self._energy.accumulate(
                    self._power_model(snap.machine),
                    min(snap.cpu_utilization, 1.0),
                    dt_s,
                )
        for snap in self._monitor.overloaded(snapshots):
            self._overload_events += 1
            if TRACE.active:
                tracepoint(
                    "overload", pm=snap.machine.pm_id,
                    util=float(snap.cpu_utilization),
                )
            self._relieve(snap.machine, time_s)

    def _relieve(self, machine: PhysicalMachine, time_s: float) -> None:
        """Migrate VMs off an overloaded PM until it drops below threshold."""
        threshold = self._config.overload_threshold
        burst = self._config.burst_model
        while (
            machine.is_used
            and machine.actual_cpu_utilization(time_s, burst) > threshold
        ):
            victim = self._selector.select_victim(
                machine.shape, machine.usage, machine.allocations
            )
            if TRACE.active:
                tracepoint(
                    "victim", pm=machine.pm_id,
                    vm=-1 if victim is None else victim.vm_id,
                )
            if victim is None:
                break
            candidates = self._destination_candidates(machine, time_s)
            decision = self._policy.select(victim.vm_type, candidates)
            if decision is None:
                self._failed_migrations += 1
                break
            if self._faults is not None and self._faults.migration_fails(
                time_s, victim.vm_id
            ):
                # The copy failed in flight; the VM stays on its source
                # PM, which remains overloaded until the next tick.
                self._failed_migrations += 1
                self._resilience.migration_faults += 1
                break
            self._dc.migrate(victim.vm_id, decision, time_s)
            self._migrations += 1
            if TRACE.active:
                tracepoint(
                    "migrate", vm=victim.vm_id,
                    src=machine.pm_id, dst=decision.pm_id,
                )

    def _consolidate_underloaded(self, time_s: float) -> None:
        """Drain PMs below the underload threshold (all-or-nothing).

        Beloglazov-style energy saving: least-utilized PMs first, every
        VM must find a home on another *used* PM (draining into fresh PMs
        would defeat the purpose); on any failure the moves already made
        for that PM are rolled back.
        """
        threshold = self._config.underload_threshold
        burst = self._config.burst_model
        candidates = sorted(
            (
                m
                for m in self._dc.used_machines()
                if m.actual_cpu_utilization(time_s, burst) < threshold
            ),
            key=lambda m: m.actual_cpu_utilization(time_s, burst),
        )
        drained = set()
        for machine in candidates:
            if machine.pm_id in drained or not machine.is_used:
                continue
            moves = []
            success = True
            for allocation in machine.allocations:
                targets = [
                    m
                    for m in self._healthy()
                    if m.pm_id != machine.pm_id
                    and m.is_used
                    and m.pm_id not in drained
                ]
                decision = self._policy.select(allocation.vm_type, targets)
                if decision is None:
                    success = False
                    break
                self._dc.migrate(allocation.vm_id, decision, time_s)
                if TRACE.active:
                    tracepoint(
                        "migrate", vm=allocation.vm_id,
                        src=machine.pm_id, dst=decision.pm_id,
                    )
                moves.append((allocation.vm_id, machine.pm_id))
            if success and moves:
                self._migrations += len(moves)
                self._consolidations += 1
                drained.add(machine.pm_id)
            elif moves:
                # Roll back: return every moved VM to the source PM.
                for vm_id, source_pm in moves:
                    source = self._dc.machine(source_pm)
                    vm_type = self._dc.machine(
                        self._dc.locate(vm_id)
                    ).allocation_of(vm_id).vm_type
                    placement = balanced_placement(
                        source.shape, source.usage, vm_type
                    )
                    self._dc.migrate(
                        vm_id,
                        PlacementDecision(pm_id=source_pm, placement=placement),
                        time_s,
                    )

    def _destination_candidates(
        self, source: PhysicalMachine, time_s: float
    ) -> Sequence[PhysicalMachine]:
        """Migration destinations: every PM but the source.

        Per the paper, "the destination PM ... is then selected based on
        their own VM allocation algorithms" — there is no global filter
        keeping policies away from already-hot PMs.  A policy that picks
        a destination about to overload pays for it with further
        migrations, which is exactly the churn the evaluation measures.
        Crashed PMs are never candidates.
        """
        pool = self._healthy()
        if isinstance(pool, IndexedMachines):
            return pool.excluding(source.pm_id)
        return [m for m in pool if m.pm_id != source.pm_id]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _healthy(self) -> Sequence[PhysicalMachine]:
        """The candidate pool policies see: every non-crashed PM.

        The columnar datacenter hands out its live class-structured
        view; the object datacenter, which has no index, returns the
        same machines as plain lists (the seed scan).
        """
        if self._columnar:
            return self._dc.indexed_machines()
        if self._faults is None:
            return self._dc.machines  # prv: disable=PRV010 -- seed scan, kept verbatim as the identity tests' oracle
        return self._dc.healthy_machines()

    def _install_faults(self, loop: EventLoop) -> None:
        """Schedule the fault schedule's events onto the run's loop."""
        self._loop = loop
        if self._faults is None:
            return
        handlers = {
            "pm_crash": self._on_pm_crash,
            "pm_recover": self._on_pm_recover,
            "vm_flap": self._on_vm_flap,
            "monitor_down": self._on_monitor_down,
            "monitor_up": self._on_monitor_up,
        }
        for event in self._faults.schedule.events:
            if event.time_s > self._config.duration_s:
                continue  # beyond the horizon (e.g. a late recovery)
            loop.schedule_at(
                event.time_s,
                lambda e=event, h=handlers[event.kind]: self._dispatch_fault(
                    e, h
                ),
            )

    def _dispatch_fault(self, event: FaultEvent, handler) -> None:
        """Run one scheduled fault through its handler (traced)."""
        if TRACE.active:
            tracepoint(
                "fault", kind=event.kind, target=event.target,
                time=event.time_s,
            )
        handler(event)

    def _on_pm_crash(self, event: FaultEvent) -> None:
        machine = self._dc.machine(event.target)
        if machine.is_failed:
            return  # overlapping crash windows fold into one outage
        now = self._loop.now
        displaced = self._dc.crash_machine(event.target)
        self._resilience.pm_crashes += 1
        self._resilience.vms_displaced += len(displaced)
        ready_at = now + self._faults.spec.replacement_latency_s
        for allocation in displaced:
            self._pending.append(
                _PendingVM(
                    vm=allocation.vm, displaced_at=now, not_before=ready_at
                )
            )
        if displaced:
            self._schedule_replacement(ready_at)

    def _on_pm_recover(self, event: FaultEvent) -> None:
        machine = self._dc.machine(event.target)
        if not machine.is_failed:
            return
        self._dc.repair_machine(event.target)
        self._resilience.pm_recoveries += 1
        if self._pending:
            # Fresh capacity: homeless VMs may fit now.
            self._replace_pending(self._loop.now)

    def _on_vm_flap(self, event: FaultEvent) -> None:
        if self._dc.locate(event.target) is None:
            return  # unplaced, already displaced, or departed
        now = self._loop.now
        allocation = self._dc.evict(event.target)
        self._resilience.vms_displaced += 1
        back_at = now + event.duration_s
        self._pending.append(
            _PendingVM(vm=allocation.vm, displaced_at=now, not_before=back_at)
        )
        self._schedule_replacement(back_at)

    def _on_monitor_down(self, event: FaultEvent) -> None:
        self._monitor_down = True

    def _on_monitor_up(self, event: FaultEvent) -> None:
        self._monitor_down = False

    def _schedule_replacement(self, at: float) -> None:
        if at <= self._config.duration_s:
            self._loop.schedule_at(
                at, lambda: self._replace_pending(self._loop.now)
            )

    def _replace_pending(self, time_s: float) -> None:
        """Ask the policy to re-place every displaced VM that is ready.

        VMs the policy cannot fit stay queued and are retried on every
        monitor tick and PM recovery; whatever is still homeless at the
        horizon becomes ``placements_lost``.  Each successful pass is
        audited against C1-C11 so constraint damage caused by recovery
        is surfaced in the metrics rather than hidden.
        """
        still_waiting: List[_PendingVM] = []
        restored = False
        for entry in self._pending:
            if entry.not_before > time_s:
                still_waiting.append(entry)
                continue
            decision = self._policy.select(entry.vm.vm_type, self._healthy())
            if TRACE.active:
                tracepoint(
                    "place", vm=entry.vm.vm_id,
                    pm=-1 if decision is None else decision.pm_id,
                )
            if decision is None:
                still_waiting.append(entry)
                continue
            self._dc.apply(entry.vm, decision, time_s)
            gap = time_s - entry.displaced_at
            self._resilience.vms_restored += 1
            self._resilience.vm_downtime_s += gap
            self._resilience.recovery_time_s.append(gap)
            restored = True
        self._pending = still_waiting
        if restored:
            self._peak_pms = max(self._peak_pms, self._dc.pms_used)
            self._audit_recovery()

    def _audit_recovery(self) -> None:
        """Count (never raise) constraint violations after a recovery pass."""
        # Imported lazily: analysis depends on cluster, not vice versa.
        from repro.analysis.invariants import audit_datacenter

        report = audit_datacenter(self._dc)
        if not report.ok:
            self._resilience.audit_violations += len(report.violations)

    def _drop_pending(self, vm_id: int, time_s: float) -> bool:
        """Forget a displaced VM (it departed); returns True if found."""
        for i, entry in enumerate(self._pending):
            if entry.vm.vm_id == vm_id:
                del self._pending[i]
                if self._resilience is not None:
                    self._resilience.vm_downtime_s += max(
                        0.0, time_s - entry.displaced_at
                    )
                return True
        return False

    def _finalize_resilience(self) -> None:
        """Charge VMs still homeless at the horizon as lost placements."""
        if self._resilience is None:
            return
        horizon = self._config.duration_s
        for entry in self._pending:
            self._resilience.placements_lost += 1
            self._resilience.vm_downtime_s += max(
                0.0, horizon - entry.displaced_at
            )


@dataclass(frozen=True)
class WorkloadEvent:
    """One VM's lifecycle in a dynamic workload.

    Attributes:
        arrival_s: when the request arrives.
        vm: the VM (type + trace).
        departure_s: when the VM terminates; None means it outlives the
            simulation horizon.
    """

    arrival_s: float
    vm: VirtualMachine
    departure_s: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.arrival_s >= 0, "arrival_s must be non-negative")
        if self.departure_s is not None:
            require(
                self.departure_s > self.arrival_s,
                "departure must come after arrival",
            )


class DynamicSimulation(CloudSimulation):
    """A :class:`CloudSimulation` driven by arrivals and departures.

    Extends the paper's initial-allocation-only evaluation with the
    general cloud setting: VM requests arrive over time (each placed on
    arrival by the policy under test, or rejected when nothing fits) and
    depart when their lifetime ends.  All monitoring, overload and
    consolidation machinery is inherited unchanged.
    """

    def run_events(self, events: Sequence[WorkloadEvent]) -> SimulationResult:
        """Simulate the full horizon under a dynamic workload."""
        events = list(events)
        loop = EventLoop()
        interval = self._config.monitor_interval_s
        rejected = [0]
        completed = [0]

        def arrive(event: WorkloadEvent) -> None:
            decision = self._policy.select(
                event.vm.vm_type, self._healthy()
            )
            if TRACE.active:
                tracepoint(
                    "place", vm=event.vm.vm_id,
                    pm=-1 if decision is None else decision.pm_id,
                )
            if decision is None:
                rejected[0] += 1
                return
            self._dc.apply(event.vm, decision, loop.now)
            self._peak_pms = max(self._peak_pms, self._dc.pms_used)
            if (
                event.departure_s is not None
                and event.departure_s <= self._config.duration_s
            ):
                loop.schedule_at(event.departure_s, lambda: depart(event))

        def depart(event: WorkloadEvent) -> None:
            if self._dc.locate(event.vm.vm_id) is None:
                # Displaced by a fault and still homeless: the VM's
                # lifetime ended while it waited, so it completes (from
                # the tenant's view) without ever being restored.
                if self._drop_pending(event.vm.vm_id, loop.now):
                    completed[0] += 1
                return
            self._dc.evict(event.vm.vm_id)
            completed[0] += 1

        for event in sorted(events, key=lambda e: e.arrival_s):
            if event.arrival_s > self._config.duration_s:
                continue
            loop.schedule_at(event.arrival_s, lambda e=event: arrive(e))

        def tick() -> None:
            self._on_tick(loop.now, interval)

        self._install_faults(loop)
        loop.schedule_every(interval, tick)
        pms_initial = self._dc.pms_used
        loop.run_until(self._config.duration_s)
        self._finalize_resilience()

        return SimulationResult(
            policy_name=self._policy.name,
            n_vms=len(events),
            unplaced_vms=rejected[0],
            pms_used_initial=pms_initial,
            pms_used_peak=self._peak_pms,
            pms_used_final=self._dc.pms_used,
            energy_kwh=self._energy.total_kwh,
            migrations=self._migrations,
            failed_migrations=self._failed_migrations,
            overload_events=self._overload_events,
            slo_violation_rate=self._slo.violation_rate,
            duration_s=self._config.duration_s,
            consolidations=self._consolidations,
            rejected_arrivals=rejected[0],
            completed_vms=completed[0],
            resilience=self._resilience,
            degraded=bool(getattr(self._policy, "degraded", False)),
            degraded_reason=getattr(self._policy, "degraded_reason", None),
        )
