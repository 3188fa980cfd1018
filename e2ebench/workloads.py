"""The workloads: what each sets up, warms, measures and checks.

Each workload is sized from ``--seconds`` by a fixed constant, never by
the clock, so one seed always gives the same inputs and the same
decisions.  A workload object is used for exactly one pass:
``setup`` (timed as ``setup_s``), ``warmup`` (untimed), ``measure``
(the timed phase) and ``check`` (the correctness gate, untimed).  Why
each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.invariants import audit_simulation
from repro.cluster.energy import power_model_for
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_policy_and_selector, run_experiment
from repro.experiments.sweep import VMS_PER_PM, run_point, sweep_table
from repro.serve.app import build_app
from repro.serve.fleet import build_ec2_service
from repro.serve.service import OUTCOMES
from repro.serve.testclient import ASGITestClient

__all__ = ["GateError", "Measured", "WORKLOADS", "LATENCY_LIMIT_MS"]

#: A served request counts toward ``within_limit_share`` only when it
#: ended placed or degraded within this many milliseconds.
LATENCY_LIMIT_MS = 25.0

#: Requests in flight at once: one per core of the 2-core machine the
#: benchmark was sized on.
CLIENTS = 2

#: The master seed of every measured ``paper_fig`` cell: the default of
#: ``ExperimentConfig``, which the paper-figure runs use.
PAPER_SEED = ExperimentConfig().seed

_CLOCK = time.perf_counter


class GateError(RuntimeError):
    """The correctness gate failed: the run reports no numbers."""


@dataclasses.dataclass
class Measured:
    """What the timed phase produced, before any metric is derived.

    ``wall_s`` is the wall time of the timed phase, host-speed samples
    left out; ``adjusted_s`` and ``latencies_ms`` are that time and the
    operations' times at the reference host speed (see hostspeed.py).
    """

    wall_s: float
    adjusted_s: float
    attempted: int
    failed: int
    placements: int
    latencies_ms: List[float]
    #: Consecutive windows the latency percentiles are taken over (at
    #: most; each holds 1000 samples or more).
    windows: int = 10
    #: The host's mean slowdown over the timed phase (1 when not sampled).
    slowdown: float = 1.0
    quality: Dict[str, float] = dataclasses.field(default_factory=dict)
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    fingerprint: Dict[str, Any] = dataclasses.field(default_factory=dict)
    # Everything the gate needs to look at after the clock stopped.
    final: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _audit(datacenter: Any, result: Any) -> None:
    report = audit_simulation(datacenter, result)
    _require(report.ok, f"C1-C11 audit failed: {report.summary()}")
    _require(not result.degraded,
             f"{result.policy_name} ran degraded: {result.degraded_reason}")


def _sim_fingerprint(result: Any) -> List[Any]:
    return [
        result.policy_name, result.n_vms, result.unplaced_vms,
        result.pms_used_initial, result.pms_used_peak, result.pms_used_final,
        result.migrations, result.failed_migrations, result.overload_events,
        result.consolidations,
    ]


def _finished(sims: Sequence[Dict[str, Any]], expected: int) -> List[Any]:
    """The results of the captured simulations, all of which must have
    run to the end."""
    _require(len(sims) == expected,
             f"expected {expected} simulations, captured {len(sims)}")
    _require(all(entry["result"] is not None for entry in sims),
             "a simulation did not finish")
    return [entry["result"] for entry in sims]


def _audit_all(measured: "Measured") -> None:
    for datacenter, result in zip(
        measured.final["datacenters"], measured.final["results"]
    ):
        _audit(datacenter, result)


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
class PaperFig:
    """``run_experiment``: the paper's grid cell on the object Datacenter."""

    name = "paper_fig"
    policies = ("PageRankVM", "FFDSum")
    #: The cells whose decisions and placement quality are reported; the
    #: baseline cell is part of the figure, and of the measured work.
    reported = "PageRankVM"

    def __init__(self, seed: int, seconds: int) -> None:
        # DEFAULT_DATACENTER (800 M3 + 200 C3), the uniform Table I mix,
        # PlanetLab traces and a 24 h day at 5-minute ticks.  At
        # --seconds 15: 1000 VMs, the paper's smallest point, and two
        # days (repetitions) per policy.  The measured cell always has
        # the experiments' own master seed, so every run does the same
        # work: the trace draw of another seed moved the measured time by
        # up to 25% (README.md).  ``seed`` picks the warm-up's draw.
        self.seed = seed
        self.config = ExperimentConfig(
            n_vms=max(50, 1000 * seconds // 15), policies=self.policies,
            repetitions=2, seed=PAPER_SEED,
        )

    def setup(self) -> None:
        # The score tables every PageRankVM cell of the config shares.
        make_policy_and_selector(self.reported, self.config)

    def warmup(self) -> None:
        run_experiment(
            dataclasses.replace(
                self.config, n_vms=self.config.n_vms // 10,
                seed=self.seed + 1_000_003,
            ),
            workers=1,
        )

    def measure(self, timed: Callable, probes: Any) -> Measured:
        with timed() as clock:
            results = run_experiment(self.config, workers=1)
        _require(not results.failed_cells,
                 f"cells failed: {results.failed_cells}")
        sims = _finished(probes.sims,
                         len(self.policies) * self.config.repetitions)
        for name in self.policies:
            _require(
                [_sim_fingerprint(r) for r in results.runs[name]]
                == [_sim_fingerprint(r) for r in sims
                    if r.policy_name == name],
                f"run_experiment reported other {name} results than ran",
            )
        reported = [entry for entry in probes.sims
                    if entry["result"].policy_name == self.reported]
        measured = _simulation_measured(clock, probes.sims, reported)
        # Most decisions are migrations spread over the whole run, so the
        # percentiles are taken over the run at once.
        measured.windows = 1
        return measured

    def check(self, measured: Measured) -> None:
        _audit_all(measured)
        for result in measured.final["results"]:
            _require(result.n_vms == self.config.n_vms
                     and result.unplaced_vms == 0,
                     f"{result.policy_name} placed "
                     f"{result.n_vms - result.unplaced_vms} of "
                     f"{self.config.n_vms} VMs")


class FleetDay:
    """``run_point``: 24 h days of the M3 fleet on the SoA substrate."""

    name = "fleet_day"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.n_pms = max(40, 1000 * min(seconds, 10))
        self.units = max(1, seconds // 5)
        self.table = None

    def setup(self) -> None:
        self.table = sweep_table()

    def warmup(self) -> None:
        run_point(self.table, max(20, self.n_pms // 10),
                  workload_seed=self._workload_seed(self.units))

    def _workload_seed(self, unit: int) -> int:
        return self.seed * 16 + unit

    def measure(self, timed: Callable, probes: Any) -> Measured:
        with timed() as clock:
            points = [
                run_point(self.table, self.n_pms,
                          workload_seed=self._workload_seed(unit))
                for unit in range(self.units)
            ]
        sims = _finished(probes.sims, self.units)
        for point, result in zip(points, sims):
            _require(point["pms_used"] == result.pms_used_final,
                     "run_point reported a different pms_used than its run")
        return _simulation_measured(clock, probes.sims, probes.sims)

    def check(self, measured: Measured) -> None:
        _audit_all(measured)
        expected = int(self.n_pms * VMS_PER_PM)
        for result in measured.final["results"]:
            _require(result.n_vms == expected,
                     f"run_point placed {result.n_vms} VMs, not {expected}")


def _simulation_measured(
    clock: Any,
    sims: Sequence[Dict[str, Any]],
    reported: Sequence[Dict[str, Any]],
) -> Measured:
    """Metrics of finished simulations; decision latency and placement
    quality come from the ``reported`` ones."""
    results = [entry["result"] for entry in sims]
    quality_of = [entry["result"] for entry in reported]
    attempted = sum(r.n_vms for r in results)
    unplaced = sum(r.unplaced_vms for r in results)
    # A simulated VM-second is served within its SLO unless its PM's
    # CPU demand exceeded capacity (the paper's SLO metric).
    slo = [r.slo_violation_rate for r in quality_of]
    return Measured(
        wall_s=clock.wall_s,
        adjusted_s=clock.adjusted_s,
        attempted=attempted,
        failed=unplaced,
        # The day's VM requests, not the migrations: a fixed amount of
        # work per seed, so the rate moves only with the measured time.
        placements=attempted - unplaced,
        latencies_ms=[
            clock.duration(start, end) * 1e3
            for entry in reported for start, end in entry["decisions"]
        ],
        quality={
            "pms_used": float(np.mean([r.pms_used_peak for r in quality_of])),
            "energy_kwh": float(np.mean([r.energy_kwh for r in quality_of])),
            "within_limit_share": 1.0 - float(np.mean(slo)),
        },
        counters={
            "overloads": sum(r.overload_events for r in results),
            "migrations": sum(r.migrations for r in results),
            "failed_share": unplaced / attempted if attempted else 0.0,
        },
        fingerprint={"cells": [_sim_fingerprint(r) for r in results]},
        final={
            "datacenters": [entry["datacenter"] for entry in sims],
            "results": results,
        },
    )


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def _fleet_kwh_per_hour(datacenter: Any) -> float:
    """Energy the final fleet draws over one hour at the requested
    utilizations, by the paper's power model (Table III)."""
    watts = 0.0
    for machine in datacenter.used_machines():
        utilization = min(machine.actual_cpu_utilization(0.0), 1.0)
        watts += power_model_for(machine.type_name).power(utilization)
    return watts / 1000.0


class ServePlace:
    """Closed loop of POST /place from an empty fleet until it fills."""

    name = "serve_place"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        # 3 VMs per PM by the end: past the fill level where throughput
        # has fallen to a fraction of an empty fleet's, short of full.
        self.n_pms = max(20, 250 * seconds)
        self.n_requests = 3 * self.n_pms
        self.n_warmup = self.n_requests // 20
        self.service = None
        self.client = None
        # Every response the service sent: (status, body).
        self.log: List[Tuple[int, Dict[str, Any]]] = []

    def setup(self) -> None:
        self.service = build_ec2_service({"M3": self.n_pms}, seed=self.seed)
        self.client = ASGITestClient(build_app(self.service))

    def _bodies(self, stream: int, count: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([self.seed, stream])
        names = self.service.vm_type_names
        return [
            {
                "vm_type": names[int(rng.integers(len(names)))],
                "utilization": float(rng.uniform(0.05, 0.48)),
            }
            for _ in range(count)
        ]

    def closed_loop(self, bodies: Sequence[Dict[str, Any]]):
        """``CLIENTS`` callers, each sending its next request only after
        the previous one returned.  Returns (start, end, status, body)."""
        out: List[Any] = [None] * len(bodies)
        pending = deque(enumerate(bodies))

        async def caller() -> None:
            while pending:
                index, body = pending.popleft()
                start = _CLOCK()
                response = await self.client.request("POST", "/place", body)
                payload = response.json()
                out[index] = (start, _CLOCK(), response.status, payload)
                self.log.append((response.status, payload))

        async def drive() -> None:
            await asyncio.gather(*(caller() for _ in range(CLIENTS)))

        asyncio.run(drive())
        return out

    def warmup(self) -> None:
        self.closed_loop(self._bodies(1, self.n_warmup))

    def measure(self, timed: Callable, probes: Any) -> Measured:
        bodies = self._bodies(2, self.n_requests)
        with timed() as clock:
            rows = self.closed_loop(bodies)
        latencies: List[float] = []
        placements = within = failed = 0
        for start, end, status, body in rows:
            latency = clock.duration(start, end) * 1e3
            latencies.append(latency)
            outcome = body.get("outcome")
            if outcome in ("placed", "degraded"):
                placements += 1
                within += latency <= LATENCY_LIMIT_MS
            elif outcome == "shed" or status >= 500:
                failed += 1
        counters = self.service.counters
        datacenter = self.service.datacenter
        return Measured(
            wall_s=clock.wall_s,
            adjusted_s=clock.adjusted_s,
            attempted=len(rows),
            failed=failed,
            placements=placements,
            latencies_ms=latencies,
            quality={
                "pms_used": float(datacenter.pms_used),
                "energy_kwh": _fleet_kwh_per_hour(datacenter),
                "within_limit_share": within / len(rows),
            },
            counters={
                "shed": counters.shed,
                "retries": counters.retries,
                "degraded": counters.degraded,
                "failed_share": failed / len(rows),
            },
        )

    def check(self, measured: Measured) -> None:
        service = self.service
        report = service.audit()
        _require(report.ok, f"C1-C11 audit failed: {report.summary()}")
        outcomes = {outcome: 0 for outcome in OUTCOMES}
        placed: List[int] = []
        server_errors = 0
        for status, body in self.log:
            outcome = body.get("outcome")
            _require(outcome in outcomes,
                     f"response outside the four outcomes: {status} {body}")
            outcomes[outcome] += 1
            server_errors += status >= 500 and outcome != "shed"
            if outcome in ("placed", "degraded"):
                placed.append(body["vm_id"])
        counters = service.counters
        _require(
            (counters.placed, counters.degraded, counters.shed,
             counters.rejected)
            == (outcomes["placed"], outcomes["degraded"], outcomes["shed"],
                outcomes["rejected"]),
            f"service counters {counters.as_dict()} disagree with the "
            f"responses {outcomes}",
        )
        _require(server_errors == 0, f"{server_errors} responses were 5xx")
        datacenter = service.datacenter
        _require(datacenter.n_vms == len(placed),
                 f"{datacenter.n_vms} VMs hosted, {len(placed)} placed")
        missing = [vm for vm in placed if datacenter.locate(vm) is None]
        _require(not missing,
                 f"placed VMs missing from the fleet: {missing[:5]}")
        measured.fingerprint.update(
            counters={
                key: value
                for key, value in counters.as_dict().items()
                if key != "batches"
            },
            pms_used=datacenter.pms_used,
            n_vms=datacenter.n_vms,
            decision_digest=service.decision_digest,
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


WORKLOADS = {
    cls.name: cls for cls in (PaperFig, FleetDay, ServePlace)
}
