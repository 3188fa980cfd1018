"""Placement-as-a-service: the fault-tolerant ASGI serving layer.

One :class:`~repro.serve.service.PlacementService` (datacenter + policy
+ circuit breaker) behind a bounded coalescing admission queue, exposed
over a dependency-free ASGI app — testable fully in-process, runnable
under any ASGI server.  See ``DESIGN.md`` §3.13.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.app import PlacementApp, build_app
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.chaos import (
    ChaosReport,
    ChaosSpec,
    ServiceChaosDrill,
    run_chaos_drill,
)
from repro.serve.clock import Clock, ManualClock, SystemClock
from repro.serve.fleet import (
    build_ec2_service,
    build_toy_service,
    toy_shape,
    toy_vm_types,
)
from repro.serve.loadgen import (
    LoadgenReport,
    record_report,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.service import (
    OUTCOMES,
    PlacementService,
    ServeRequest,
    ServeResponse,
    ServiceCounters,
    TransientServeError,
)
from repro.serve.testclient import ASGITestClient, ClientResponse

__all__ = [
    # clock + breaker
    "Clock",
    "SystemClock",
    "ManualClock",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    # service
    "OUTCOMES",
    "TransientServeError",
    "ServeRequest",
    "ServeResponse",
    "ServiceCounters",
    "PlacementService",
    # admission + app
    "AdmissionQueue",
    "PlacementApp",
    "build_app",
    # clients + fleets
    "ASGITestClient",
    "ClientResponse",
    "toy_shape",
    "toy_vm_types",
    "build_toy_service",
    "build_ec2_service",
    # load + chaos
    "LoadgenReport",
    "run_closed_loop",
    "run_open_loop",
    "record_report",
    "ChaosSpec",
    "ChaosReport",
    "ServiceChaosDrill",
    "run_chaos_drill",
]
