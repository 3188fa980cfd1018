"""The 4-hour GENI testbed experiment (Figures 4 and 8)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.cluster.events import EventLoop
from repro.cluster.vm import VirtualMachine
from repro.core.policy import PlacementPolicy
from repro.core.soa import SoADatacenter
from repro.testbed.controller import CentralizedController
from repro.testbed.instance import make_instances
from repro.testbed.job import make_jobs
from repro.traces import GoogleClusterSynthesizer, TracePool
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = ["TestbedConfig", "TestbedResult", "TestbedExperiment"]


@dataclass(frozen=True)
class TestbedConfig:
    """The paper's testbed setup, parameterized."""

    __test__ = False  # not a pytest class, despite the name

    n_instances: int = 10
    n_cores: int = 4
    #: The paper states 4 vCPUs per core, but 100-300 jobs of 2-4 vCPUs
    #: cannot be admitted on 10 four-core instances at that density; we
    #: keep the paper's 4x burst ratio (``burst_factor``) and widen the
    #: slot count so the paper's job counts fit (see EXPERIMENTS.md).
    slots_per_core: int = 24
    duration_s: float = 4 * 3600.0     # 4 hours
    poll_interval_s: float = 10.0      # controller heartbeat
    overload_threshold: float = 0.9
    restart_latency_s: float = 10.0
    burst_factor: float = 4.0          # a vCPU slot can burst to 4 slots
    job_mix: Tuple[float, float] = (0.5, 0.5)
    seed: int = 2018

    def __post_init__(self) -> None:
        require(self.n_instances > 0, "n_instances must be positive")
        require(self.duration_s > 0, "duration_s must be positive")
        require(self.poll_interval_s > 0, "poll_interval_s must be positive")


@dataclass
class TestbedResult:
    """Metrics of one testbed run (Figures 4(a), 4(b), 8)."""

    __test__ = False  # not a pytest class, despite the name

    policy_name: str
    n_jobs: int
    unassigned_jobs: int
    instances_used: int
    instances_used_peak: int
    migrations: int
    failed_migrations: int
    overload_events: int
    slo_violation_rate: float
    interruption_seconds: float

    def __str__(self) -> str:
        return (
            f"{self.policy_name}: instances={self.instances_used} "
            f"(peak {self.instances_used_peak}), "
            f"migrations={self.migrations}, "
            f"slo={100 * self.slo_violation_rate:.2f}%"
        )


class TestbedExperiment:
    """Runs one policy over the emulated GENI fleet.

    Args:
        policy: placement policy under test.
        victim_selector: eviction selector on overload.
        config: testbed setup knobs.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        policy: PlacementPolicy,
        victim_selector,
        config: TestbedConfig = TestbedConfig(),
    ):
        self._policy = policy
        self._selector = victim_selector
        self._config = config

    def run(self, n_jobs: int, repetition: int = 0) -> TestbedResult:
        """Assign ``n_jobs`` jobs and run the 4-hour experiment."""
        cfg = self._config
        rngs = RngFactory(cfg.seed).spawn("testbed", repetition)
        pool = TracePool(
            GoogleClusterSynthesizer(rngs.spawn("google")),
            rngs.generator("trace-assignment"),
            population=max(n_jobs, 100),
        )
        jobs = make_jobs(n_jobs, rngs.generator("job-types"), pool, cfg.job_mix)

        datacenter = SoADatacenter.from_machines(
            make_instances(cfg.n_instances, cfg.n_cores, cfg.slots_per_core)
        )
        controller = CentralizedController(
            datacenter,
            self._policy,
            self._selector,
            overload_threshold=cfg.overload_threshold,
            restart_latency_s=cfg.restart_latency_s,
            burst_factor=cfg.burst_factor,
        )
        controller.assign_all(jobs)
        instances_initial = datacenter.pms_used
        peak = [instances_initial]

        loop = EventLoop()

        def heartbeat() -> None:
            controller.poll(loop.now, cfg.poll_interval_s)
            peak[0] = max(peak[0], datacenter.pms_used)

        loop.schedule_every(cfg.poll_interval_s, heartbeat)
        loop.run_until(cfg.duration_s)

        return TestbedResult(
            policy_name=self._policy.name,
            n_jobs=n_jobs,
            unassigned_jobs=controller.unassigned_jobs,
            instances_used=instances_initial,
            instances_used_peak=max(peak[0], datacenter.pms_used),
            migrations=controller.migrations,
            failed_migrations=controller.failed_migrations,
            overload_events=controller.overload_events,
            slo_violation_rate=controller.slo.violation_rate,
            interruption_seconds=controller.interruption_seconds,
        )
