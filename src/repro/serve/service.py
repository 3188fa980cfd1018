"""The placement service core: one datacenter, one policy, four verdicts.

:class:`PlacementService` is the synchronous heart of ``repro.serve``.
It owns a single datacenter (the struct-of-arrays substrate in
production) plus the placement policy, and turns every request into
exactly one of four terminal outcomes:

========== ==========================================================
outcome    meaning
========== ==========================================================
``placed``    the policy found a PM; the decision was applied
``degraded``  placed, but through the FFDSum fallback (score tables
              faulted or the circuit breaker is open); the response
              carries ``degraded_reason``
``shed``      load was refused: admission queue full (429), request
              deadline blown, or transient-fault retries exhausted
              (503) — always with a ``Retry-After`` hint
``rejected``  the request itself cannot be served: malformed body,
              unknown VM type, duplicate/unknown ``vm_id`` or no PM in
              the fleet fits (no capacity)
========== ==========================================================

There is no fifth state: the chaos drill asserts every request a live
service receives resolves to exactly one of these, with no hung futures
and no 5xx-by-bug.

The scoring path is guarded by a
:class:`~repro.serve.breaker.CircuitBreaker`: requests the policy had to
serve through its logged FFDSum degradation count as breaker failures;
once the breaker trips, requests bypass the tables entirely until the
probe deadline passes, and a healthy half-open probe
(:meth:`~repro.core.placement.PageRankVMPolicy.probe_tables`) restores
table-driven scoring.

Every decision feeds a sanitizer-style rolling SHA-256 digest
(``decision_digest``) so two services can be compared decision-for-
decision — the coalescing-determinism tests hash a concurrent batched
run against a sequential one.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence

from repro.cluster.vm import VirtualMachine
from repro.core.policy import PlacementPolicy
from repro.core.profile import VMType
from repro.experiments.runner import RetryPolicy
from repro.faults.metrics import ResilienceMetrics
from repro.faults.schedule import FaultEvent
from repro.serve.breaker import CircuitBreaker
from repro.serve.clock import Clock, SystemClock
from repro.traces.base import ConstantTrace
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError, require

__all__ = [
    "OUTCOMES",
    "TransientServeError",
    "ServeRequest",
    "ServeResponse",
    "ServiceCounters",
    "PlacementService",
]

logger = logging.getLogger(__name__)

#: The four terminal request outcomes (see module docstring).
OUTCOMES = ("placed", "degraded", "shed", "rejected")


class TransientServeError(RuntimeError):
    """A retryable dependency blip inside a request handler.

    Raised by injected fault hooks (chaos drills) or future transient
    dependencies; the service retries with seeded-jitter backoff up to
    ``RetryPolicy.max_attempts`` before shedding the request.
    """


@dataclass(frozen=True)
class ServeRequest:
    """One parsed request, ready for the admission queue.

    ``deadline`` is absolute service-clock time; None disables the
    per-request timeout.  ``vm_id`` is None for auto-assignment.
    """

    op: str                          # "place" | "migrate"
    request_id: int
    vm_type: Optional[str] = None    # place: VM type name
    vm_id: Optional[int] = None
    utilization: float = 1.0
    deadline: Optional[float] = None


@dataclass(frozen=True)
class ServeResponse:
    """The terminal verdict of one request.

    ``status`` is the HTTP status the ASGI layer sends; ``outcome`` is
    one of :data:`OUTCOMES`.  ``retry_after_s`` is set on shed
    responses and rendered as a ``Retry-After`` header.
    """

    request_id: int
    op: str
    outcome: str
    status: int
    vm_id: Optional[int] = None
    pm_id: Optional[int] = None
    degraded: bool = False
    degraded_reason: Optional[str] = None
    detail: Optional[str] = None
    retry_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.outcome in OUTCOMES, f"unknown outcome {self.outcome!r}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON body the ASGI layer serializes."""
        body: Dict[str, Any] = {
            "request_id": self.request_id,
            "op": self.op,
            "outcome": self.outcome,
            "vm_id": self.vm_id,
            "pm_id": self.pm_id,
            "degraded": self.degraded,
        }
        if self.degraded_reason is not None:
            body["degraded_reason"] = self.degraded_reason
        if self.detail is not None:
            body["detail"] = self.detail
        if self.retry_after_s is not None:
            body["retry_after_s"] = self.retry_after_s
        return body


@dataclass
class ServiceCounters:
    """Monotonic request accounting exposed at ``/cluster/state``."""

    admitted: int = 0
    batches: int = 0
    placed: int = 0
    degraded: int = 0
    migrated: int = 0
    rejected_invalid: int = 0
    rejected_capacity: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_retries_exhausted: int = 0
    retries: int = 0

    @property
    def shed(self) -> int:
        """Total shed requests across every shedding reason."""
        return (
            self.shed_queue_full
            + self.shed_deadline
            + self.shed_retries_exhausted
        )

    @property
    def rejected(self) -> int:
        """Total rejected requests (invalid + no capacity)."""
        return self.rejected_invalid + self.rejected_capacity

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (totals included)."""
        return {
            "admitted": self.admitted,
            "batches": self.batches,
            "placed": self.placed,
            "degraded": self.degraded,
            "migrated": self.migrated,
            "rejected": self.rejected,
            "rejected_invalid": self.rejected_invalid,
            "rejected_capacity": self.rejected_capacity,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_retries_exhausted": self.shed_retries_exhausted,
            "retries": self.retries,
        }


@dataclass
class _RollingDigest:
    """Sanitizer-style rolling SHA-256 over canonical decision payloads."""

    hexdigest: str = field(default="0" * 64)
    events: int = 0

    def update(self, payload: Mapping[str, Any]) -> None:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256()
        digest.update(self.hexdigest.encode("ascii"))
        digest.update(canonical.encode("utf-8"))
        self.hexdigest = digest.hexdigest()
        self.events += 1


class PlacementService:
    """Places and migrates VMs over one datacenter behind a breaker.

    Args:
        datacenter: the substrate.  It must maintain a usage-class
            index (``indexed_machines()``), i.e. be a ``SoADatacenter``;
            the object ``Datacenter`` is the seed scan and has none.
        policy: the placement policy.  PageRankVM's degradation surface
            (``degraded`` / ``degraded_reason`` / ``probe_tables``) is
            discovered by duck typing, so baselines serve too — they
            just never degrade.
        vm_types: VM type catalog requests may name.
        breaker: circuit breaker; a default 3-failure/30 s one is built
            on the service clock when omitted.
        retry: transient-fault retry/backoff policy (PR 3's
            :class:`~repro.experiments.runner.RetryPolicy`).
        clock: time source (deterministic under test).
        seed: master seed for the keyed backoff-jitter streams.
        request_timeout_s: default per-request deadline, admission to
            terminal outcome; None disables it.
        retry_after_s: the ``Retry-After`` hint on shed responses.
        fault_hook: optional injection point called once per handler
            attempt as ``fault_hook(op, request_id)``; it may return a
            stall duration in seconds (slept on the service clock) or
            raise :class:`TransientServeError` to exercise the retry
            path.  Chaos drills install this; production leaves it None.
        log_limit: ring-buffer size of the structured request log.
    """

    def __init__(
        self,
        datacenter: Any,
        policy: PlacementPolicy,
        vm_types: Sequence[VMType],
        breaker: Optional[CircuitBreaker] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
        request_timeout_s: Optional[float] = 30.0,
        retry_after_s: float = 1.0,
        fault_hook: Optional[Callable[[str, int], float]] = None,
        log_limit: int = 1024,
    ):
        require(len(vm_types) > 0, "vm_types catalog must not be empty")
        self._dc = datacenter
        self._policy = policy
        self._vm_types = {vm.name: vm for vm in vm_types}
        self._clock = clock if clock is not None else SystemClock()
        self._breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(clock=self._clock)
        )
        self._retry = retry if retry is not None else RetryPolicy()
        self._rngs = RngFactory(seed).spawn("serve")
        self.request_timeout_s = request_timeout_s
        self.retry_after_s = retry_after_s
        self.fault_hook = fault_hook
        self.counters = ServiceCounters()
        self._digest = _RollingDigest()
        self._next_request_id = 0
        self._next_vm_id = 0
        self._log: Deque[Dict[str, Any]] = deque(maxlen=log_limit)
        self._ledger = ResilienceMetrics()
        self._pending_displaced: List[VirtualMachine] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def datacenter(self) -> Any:
        """The substrate (read-mostly use intended)."""
        return self._dc

    @property
    def policy(self) -> PlacementPolicy:
        """The policy under service."""
        return self._policy

    @property
    def clock(self) -> Clock:
        """The service clock (manual under test)."""
        return self._clock

    @property
    def breaker(self) -> CircuitBreaker:
        """The score-table circuit breaker."""
        return self._breaker

    @property
    def decision_digest(self) -> str:
        """Rolling digest of the decision stream (64 hex chars)."""
        return self._digest.hexdigest

    @property
    def ledger(self) -> ResilienceMetrics:
        """The resilience ledger (displaced == restored + lost holds
        after :meth:`finalize_ledger`)."""
        return self._ledger

    @property
    def pending_displaced(self) -> int:
        """Fault-displaced VMs still waiting for a home."""
        return len(self._pending_displaced)

    @property
    def recent_requests(self) -> List[Dict[str, Any]]:
        """The newest entries of the structured request log."""
        return list(self._log)

    def close(self) -> None:
        """End the service's lifetime; idempotent.

        The service owns no process or OS resource, so this does
        nothing; it stays so callers can scope a service uniformly.
        """

    @property
    def vm_type_catalog(self) -> Sequence[VMType]:
        """The catalog in declaration order.

        Order matters downstream: graph builds (and therefore node ids,
        table bits and cache keys) depend on VM type declaration order,
        so a catalog swap that grows the catalog appends to this exact
        sequence.
        """
        return tuple(self._vm_types.values())

    def hot_swap(
        self,
        tables: Mapping[Any, Any],
        vm_types: Optional[Sequence[VMType]] = None,
    ) -> None:
        """Swap the policy's score tables with zero downtime.

        The policy's tables are replaced and its content-addressed
        caches dropped; an optional grown VM type catalog lands in the
        same swap.  Admission batches are served synchronously, so a
        call between :meth:`serve_batch` calls (the load generator's
        after-request hook, :func:`repro.serve.fleet.swap_catalog`) is
        atomic with respect to requests: no decision ever sees a mixed
        table generation, and a swap to equal-content tables leaves the
        rolling decision digest bit-identical.
        """
        replace = getattr(self._policy, "replace_tables", None)
        require(
            replace is not None,
            f"policy {self._policy.name!r} does not support table hot swap",
        )
        replace(dict(tables))
        if vm_types is not None:
            require(len(vm_types) > 0, "vm_types catalog must not be empty")
            self._vm_types = {vm.name: vm for vm in vm_types}

    @property
    def vm_type_names(self) -> List[str]:
        """The catalog's VM type names, sorted."""
        return sorted(self._vm_types)

    def next_request_id(self) -> int:
        """Allocate the next monotonically increasing request id."""
        rid = self._next_request_id
        self._next_request_id += 1
        return rid

    def deadline_for(self, admitted_at: float) -> Optional[float]:
        """Absolute deadline of a request admitted at ``admitted_at``."""
        if self.request_timeout_s is None:
            return None
        return admitted_at + self.request_timeout_s

    def cluster_state(self) -> Dict[str, Any]:
        """The ``/cluster/state`` payload."""
        degraded = bool(getattr(self._policy, "degraded", False))
        return {
            "policy": self._policy.name,
            "n_machines": self._dc.n_machines,
            "pms_used": self._dc.pms_used,
            "n_vms": self._dc.n_vms,
            "counters": self.counters.as_dict(),
            "breaker": self._breaker.as_dict(),
            "tripped": self._breaker.trips,
            "policy_degraded": degraded,
            "policy_degraded_reason": getattr(
                self._policy, "degraded_reason", None
            ),
            "decision_digest": self._digest.hexdigest,
            "decisions": self._digest.events,
            "pending_displaced": len(self._pending_displaced),
            "ledger": self._ledger.as_dict(),
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_batch(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Serve one coalesced admission batch, sequentially in order.

        Coalescing batches admission only: each request is served by
        :meth:`serve_one` in ticket order, and each decision scores the
        used classes it has not seen before.  The decision stream is
        therefore bit-identical to the same requests arriving one at a
        time.
        """
        self.counters.batches += 1
        return [self.serve_one(request) for request in requests]

    def serve_one(self, request: ServeRequest) -> ServeResponse:
        """Serve one request to its terminal outcome (never raises)."""
        started = self._clock.now()
        if request.deadline is not None and started > request.deadline:
            self.counters.shed_deadline += 1
            response = self._shed(request, "deadline exceeded in queue")
        else:
            response = self._serve_with_retry(request)
        self._record(request, response, started)
        return response

    def _serve_with_retry(self, request: ServeRequest) -> ServeResponse:
        """The per-request attempt loop: stalls, transients, backoff."""
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.fault_hook is not None:
                    stall = self.fault_hook(request.op, request.request_id)
                    if stall and stall > 0:
                        self._clock.sleep(float(stall))
                if (
                    request.deadline is not None
                    and self._clock.now() > request.deadline
                ):
                    self.counters.shed_deadline += 1
                    return self._shed(request, "deadline exceeded")
                if request.op == "place":
                    return self._place(request)
                if request.op == "migrate":
                    return self._migrate(request)
                self.counters.rejected_invalid += 1
                return self._reject(
                    request, 400, f"unknown op {request.op!r}"
                )
            except TransientServeError as error:
                if attempt >= self._retry.max_attempts:
                    self.counters.shed_retries_exhausted += 1
                    return self._shed(
                        request,
                        f"retries exhausted after {attempt} attempts: "
                        f"{error}",
                    )
                self.counters.retries += 1
                self._clock.sleep(
                    self._retry.backoff_s(
                        attempt, self._rngs, "request", request.request_id
                    )
                )

    # ------------------------------------------------------------------
    # Place
    # ------------------------------------------------------------------
    def _place(self, request: ServeRequest) -> ServeResponse:
        vm_type = self._vm_types.get(request.vm_type or "")
        if vm_type is None:
            self.counters.rejected_invalid += 1
            return self._reject(
                request,
                400,
                f"unknown vm_type {request.vm_type!r}; known: "
                f"{sorted(self._vm_types)}",
            )
        if not 0.0 <= request.utilization <= 1.0:
            self.counters.rejected_invalid += 1
            return self._reject(
                request,
                400,
                f"utilization must be in [0, 1], got {request.utilization}",
            )
        vm_id = request.vm_id
        if vm_id is None:
            vm_id = self._allocate_vm_id()
        elif self._dc.locate(vm_id) is not None:
            self.counters.rejected_invalid += 1
            return self._reject(
                request, 409, f"vm_id {vm_id} is already placed"
            )
        vm = VirtualMachine(
            vm_id, vm_type, ConstantTrace(request.utilization)
        )
        decision, degraded, reason = self._decide(vm_type)
        self._digest.update(
            {
                "op": "place",
                "vm": vm_id,
                "pm": -1 if decision is None else decision.pm_id,
                "assignments": (
                    None
                    if decision is None
                    else decision.placement.assignments
                ),
            }
        )
        if decision is None:
            self.counters.rejected_capacity += 1
            return self._reject(
                request,
                409,
                "no PM in the fleet can host this VM",
                vm_id=vm_id,
                degraded=degraded,
                reason=reason,
            )
        self._dc.apply(vm, decision, time_s=self._clock.now())
        if degraded:
            self.counters.degraded += 1
            return ServeResponse(
                request_id=request.request_id,
                op=request.op,
                outcome="degraded",
                status=200,
                vm_id=vm_id,
                pm_id=decision.pm_id,
                degraded=True,
                degraded_reason=reason,
            )
        self.counters.placed += 1
        return ServeResponse(
            request_id=request.request_id,
            op=request.op,
            outcome="placed",
            status=200,
            vm_id=vm_id,
            pm_id=decision.pm_id,
        )

    def _allocate_vm_id(self) -> int:
        while self._dc.locate(self._next_vm_id) is not None:
            self._next_vm_id += 1
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        return vm_id

    # ------------------------------------------------------------------
    # Migrate
    # ------------------------------------------------------------------
    def _migrate(self, request: ServeRequest) -> ServeResponse:
        if request.vm_id is None:
            self.counters.rejected_invalid += 1
            return self._reject(request, 400, "migrate needs a vm_id")
        source_pm = self._dc.locate(request.vm_id)
        if source_pm is None:
            self.counters.rejected_invalid += 1
            return self._reject(
                request, 404, f"vm_id {request.vm_id} is not placed"
            )
        vm_type = (
            self._dc.machine(source_pm).allocation_of(request.vm_id).vm_type
        )
        decision, degraded, reason = self._decide(
            vm_type, excluded_pm=source_pm
        )
        self._digest.update(
            {
                "op": "migrate",
                "vm": request.vm_id,
                "src": source_pm,
                "pm": -1 if decision is None else decision.pm_id,
                "assignments": (
                    None
                    if decision is None
                    else decision.placement.assignments
                ),
            }
        )
        if decision is None:
            self.counters.rejected_capacity += 1
            return self._reject(
                request,
                409,
                "no destination PM can host this VM",
                vm_id=request.vm_id,
                degraded=degraded,
                reason=reason,
            )
        self._dc.migrate(request.vm_id, decision, self._clock.now())
        self.counters.migrated += 1
        outcome = "degraded" if degraded else "placed"
        if degraded:
            self.counters.degraded += 1
        else:
            self.counters.placed += 1
        return ServeResponse(
            request_id=request.request_id,
            op=request.op,
            outcome=outcome,
            status=200,
            vm_id=request.vm_id,
            pm_id=decision.pm_id,
            degraded=degraded,
            degraded_reason=reason,
        )

    # ------------------------------------------------------------------
    # The breaker-guarded decision
    # ------------------------------------------------------------------
    def _decide(self, vm_type: VMType, excluded_pm: Optional[int] = None):
        """One policy decision through the circuit breaker.

        Returns ``(decision, degraded, reason)``.  The policy's own
        FFDSum degradation does the actual fallback serving (and its
        one-time warning log); the breaker decides whether the tables
        are probed at all.
        """
        policy = self._policy
        can_degrade = hasattr(policy, "degraded")
        use_primary = self._breaker.allows_primary()
        if use_primary and self._breaker.state == "half-open" and can_degrade:
            probe = getattr(policy, "probe_tables", None)
            healthy = bool(probe()) if probe is not None else True
            self._breaker.record_probe(healthy)
            use_primary = healthy
        machines = (
            self._dc.indexed_machines()
            if excluded_pm is None
            else self._dc.indexed_machines().excluding(excluded_pm)
        )
        decision = policy.select(vm_type, machines)
        if not can_degrade:
            return decision, False, None
        degraded = bool(policy.degraded)
        reason = policy.degraded_reason
        if degraded:
            if use_primary:
                # The tables faulted under this very request (or are
                # still faulting); feed the breaker.
                self._breaker.record_failure(reason or "degraded")
            else:
                reason = (
                    f"circuit open: {self._breaker.last_reason or reason}"
                )
        elif use_primary:
            self._breaker.record_success()
        return decision, degraded, reason

    # ------------------------------------------------------------------
    # Outcome constructors + structured log
    # ------------------------------------------------------------------
    def _shed(self, request: ServeRequest, detail: str) -> ServeResponse:
        return ServeResponse(
            request_id=request.request_id,
            op=request.op,
            outcome="shed",
            status=503,
            vm_id=request.vm_id,
            detail=detail,
            retry_after_s=self.retry_after_s,
        )

    def shed_queue_full(self, request: ServeRequest) -> ServeResponse:
        """The admission queue's 429 verdict (bounded depth hit)."""
        self.counters.shed_queue_full += 1
        response = ServeResponse(
            request_id=request.request_id,
            op=request.op,
            outcome="shed",
            status=429,
            vm_id=request.vm_id,
            detail="admission queue full",
            retry_after_s=self.retry_after_s,
        )
        self._record(request, response, self._clock.now())
        return response

    def _reject(
        self,
        request: ServeRequest,
        status: int,
        detail: str,
        vm_id: Optional[int] = None,
        degraded: bool = False,
        reason: Optional[str] = None,
    ) -> ServeResponse:
        return ServeResponse(
            request_id=request.request_id,
            op=request.op,
            outcome="rejected",
            status=status,
            vm_id=vm_id if vm_id is not None else request.vm_id,
            degraded=degraded,
            degraded_reason=reason,
            detail=detail,
        )

    def _record(
        self, request: ServeRequest, response: ServeResponse, started: float
    ) -> None:
        entry = {
            "request_id": request.request_id,
            "op": request.op,
            "vm_type": request.vm_type,
            "vm_id": response.vm_id,
            "pm_id": response.pm_id,
            "outcome": response.outcome,
            "status": response.status,
            "degraded": response.degraded,
            "degraded_reason": response.degraded_reason,
            "detail": response.detail,
            "latency_s": self._clock.now() - started,
            "breaker": self._breaker.state,
        }
        self._log.append(entry)
        logger.info(
            "request %d %s -> %s (%d)%s",
            request.request_id,
            request.op,
            response.outcome,
            response.status,
            f" [{response.degraded_reason}]" if response.degraded else "",
        )

    # ------------------------------------------------------------------
    # Fault events + resilience ledger (chaos drills)
    # ------------------------------------------------------------------
    def apply_fault_event(self, event: FaultEvent) -> None:
        """Apply one PR 3 fault-schedule event to the live fleet.

        Crash-displaced VMs enter the service's pending list and are
        re-placed through the normal decision path by
        :meth:`replace_displaced` — the serving analogue of the
        simulation's ``_replace_pending``.
        """
        if event.kind == "pm_crash":
            machine = self._dc.machine(event.target)
            if machine.is_failed:
                return
            displaced = self._dc.crash_machine(event.target)
            self._ledger.pm_crashes += 1
            self._ledger.vms_displaced += len(displaced)
            self._pending_displaced.extend(a.vm for a in displaced)
        elif event.kind == "pm_recover":
            machine = self._dc.machine(event.target)
            if not machine.is_failed:
                return
            self._dc.repair_machine(event.target)
            self._ledger.pm_recoveries += 1
        elif event.kind == "vm_flap":
            if self._dc.locate(event.target) is None:
                return
            allocation = self._dc.evict(event.target)
            self._ledger.vms_displaced += 1
            self._pending_displaced.append(allocation.vm)
        # monitor_down / monitor_up have no serving-side meaning: the
        # service has no monitor loop; they are accepted and ignored so
        # unmodified PR 3 schedules replay cleanly.

    def replace_displaced(self) -> int:
        """Re-place pending displaced VMs; returns how many came home.

        VMs the policy cannot fit stay pending (retried on the next
        call); :meth:`finalize_ledger` charges the rest as lost.
        """
        still_pending: List[VirtualMachine] = []
        restored = 0
        for vm in self._pending_displaced:
            decision, _, _ = self._decide(vm.vm_type)
            self._digest.update(
                {
                    "op": "restore",
                    "vm": vm.vm_id,
                    "pm": -1 if decision is None else decision.pm_id,
                }
            )
            if decision is None:
                still_pending.append(vm)
                continue
            self._dc.apply(vm, decision, time_s=self._clock.now())
            self._ledger.vms_restored += 1
            restored += 1
        self._pending_displaced = still_pending
        return restored

    def finalize_ledger(self) -> ResilienceMetrics:
        """Charge still-pending VMs as lost; the ledger then balances
        (``displaced == restored + lost``)."""
        self._ledger.placements_lost += len(self._pending_displaced)
        self._pending_displaced = []
        return self._ledger

    def audit(self):
        """Replay the fleet against constraints C1-C11 (never raises)."""
        from repro.analysis.invariants import audit_datacenter

        return audit_datacenter(self._dc)
