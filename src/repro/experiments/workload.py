"""Workload construction: VM requests plus their utilization traces.

Two workload shapes:

* :func:`build_vms` — the paper's setting: one batch of requests placed
  at time zero.
* :func:`build_dynamic_workload` — the general cloud setting: Poisson
  arrivals with exponential lifetimes, consumed by
  :class:`repro.cluster.simulation.DynamicSimulation`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.ec2 import ec2_vm_type
from repro.cluster.simulation import WorkloadEvent
from repro.cluster.vm import VirtualMachine
from repro.core.profile import VMType
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.traces import (
    ConstantTrace,
    GoogleClusterSynthesizer,
    PlanetLabSynthesizer,
    TracePool,
    UtilizationTrace,
)
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = [
    "sample_vm_types",
    "make_trace_pool",
    "sharing_draws",
    "build_vms",
    "build_dynamic_workload",
]


def sample_vm_types(
    rng: np.random.Generator, count: int, spec: WorkloadSpec
) -> List[VMType]:
    """Draw ``count`` VM types from the spec's weighted mix."""
    names = [name for name, _ in spec.vm_mix]
    weights = np.asarray([w for _, w in spec.vm_mix], dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=count, p=weights)
    return [ec2_vm_type(names[i]) for i in picks]


class _ConstantSource:
    """Index-addressed source of always-full traces (worst case)."""

    def trace(self, index: int) -> ConstantTrace:
        return ConstantTrace(1.0)


def make_trace_pool(spec: WorkloadSpec, rngs: RngFactory) -> TracePool:
    """A trace pool for the spec's trace family, seeded from ``rngs``."""
    assignment_rng = rngs.generator("trace-assignment")
    if spec.trace == "planetlab":
        source = PlanetLabSynthesizer(rngs.spawn("planetlab"))
    elif spec.trace == "google":
        source = GoogleClusterSynthesizer(rngs.spawn("google"))
    else:
        source = _ConstantSource()
    return TracePool(source, assignment_rng, population=spec.trace_population)


def _draw(
    config: ExperimentConfig, repetition: int
) -> List[Tuple[VMType, UtilizationTrace]]:
    """Each request's (VM type, trace) for one repetition, in order."""
    rngs = RngFactory(config.seed).spawn("rep", repetition)
    types = sample_vm_types(rngs.generator("vm-types"), config.n_vms, config.workload)
    pool = make_trace_pool(config.workload, rngs)
    return [(vm_type, pool.sample()) for vm_type in types]


#: Most repetition draws a :func:`sharing_draws` scope holds at once
#: (about 2 MB each at the paper's 1000-trace population); further
#: repetitions are drawn again per cell instead.
_MAX_HELD_DRAWS = 8


class _HeldDraws:
    """The draws of one grid's repetitions, held while still needed."""

    def __init__(self, config: ExperimentConfig, repetitions: Sequence[int]):
        self.config = config
        self._uses = Counter(repetitions)
        self._held: Dict[int, List[Tuple[VMType, UtilizationTrace]]] = {}

    def take(self, repetition: int) -> List[Tuple[VMType, UtilizationTrace]]:
        draw = self._held.pop(repetition, None)
        if draw is None:
            draw = _draw(self.config, repetition)
        self._uses[repetition] -= 1
        if self._uses[repetition] > 0 and len(self._held) < _MAX_HELD_DRAWS:
            self._held[repetition] = draw
        return draw


_SHARED: ContextVar[Optional[_HeldDraws]] = ContextVar(
    "shared_workload_draws", default=None
)


@contextmanager
def sharing_draws(
    config: ExperimentConfig, repetitions: Sequence[int]
) -> Iterator[None]:
    """Within the block, :func:`build_vms` draws each repetition once.

    ``repetitions`` lists the repetition of every cell the block will
    build, one entry per cell: a draw is held only while a later cell
    still needs it, and at most :data:`_MAX_HELD_DRAWS` at once.  Draws
    are deterministic, so a repetition that was not held (or a retried
    cell) is drawn again with the same result.
    """
    token = _SHARED.set(_HeldDraws(config, repetitions))
    try:
        yield
    finally:
        _SHARED.reset(token)


def build_vms(config: ExperimentConfig, repetition: int) -> List[VirtualMachine]:
    """The VM request batch for one repetition of an experiment.

    Types and traces are sampled from streams derived from
    ``(config.seed, repetition)``, so every policy in a repetition sees
    the *same* workload (paired comparison) while repetitions differ.
    Every call returns new VMs, but trace objects are shared: by the
    VMs that draw one pool index, and inside :func:`sharing_draws` by
    the cells of one repetition.  Traces are read-only.
    """
    shared = _SHARED.get()
    if shared is not None and shared.config == config:
        draw = shared.take(repetition)
    else:
        draw = _draw(config, repetition)
    return [
        VirtualMachine(vm_id=i, vm_type=vm_type, trace=trace)
        for i, (vm_type, trace) in enumerate(draw)
    ]


def build_dynamic_workload(
    config: ExperimentConfig,
    repetition: int,
    horizon_s: float = 86_400.0,
    mean_interarrival_s: float = 120.0,
    mean_lifetime_s: float = 4 * 3600.0,
) -> List[WorkloadEvent]:
    """A Poisson-arrival, exponential-lifetime stream of ``n_vms`` events.

    Types and traces are drawn exactly as in :func:`build_vms` (so the
    static and dynamic settings are comparable); arrival times beyond
    ``horizon_s`` are clipped to it by construction of the process.

    Args:
        config: the experiment cell (``n_vms`` caps the event count).
        repetition: repetition index (seeds the streams).
        horizon_s: the simulation horizon arrivals must fall within.
        mean_interarrival_s: mean gap between consecutive arrivals.
        mean_lifetime_s: mean VM lifetime.
    """
    require(horizon_s > 0, "horizon_s must be positive")
    require(mean_interarrival_s > 0, "mean_interarrival_s must be positive")
    require(mean_lifetime_s > 0, "mean_lifetime_s must be positive")

    rngs = RngFactory(config.seed).spawn("dyn", repetition)
    types = sample_vm_types(rngs.generator("vm-types"), config.n_vms, config.workload)
    pool = make_trace_pool(config.workload, rngs)
    arrival_rng = rngs.generator("arrivals")
    lifetime_rng = rngs.generator("lifetimes")

    events: List[WorkloadEvent] = []
    clock = 0.0
    for i, vm_type in enumerate(types):
        clock += float(arrival_rng.exponential(mean_interarrival_s))
        if clock > horizon_s:
            break
        lifetime = float(lifetime_rng.exponential(mean_lifetime_s))
        departure = clock + lifetime
        events.append(
            WorkloadEvent(
                arrival_s=clock,
                vm=VirtualMachine(vm_id=i, vm_type=vm_type, trace=pool.sample()),
                departure_s=departure if departure <= horizon_s else None,
            )
        )
    return events
