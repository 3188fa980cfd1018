"""Closed- and open-loop load generation against the ASGI app.

Two canonical load shapes, both driven through the in-process ASGI
client (so the measured path is routing + admission + service, with no
socket noise):

* **closed loop** — ``concurrency`` workers each keep exactly one
  request in flight, back to back, until ``n_requests`` complete.
  Measures the service's sustainable throughput and the latency it
  delivers at full utilization.
* **open loop** — requests arrive on a fixed schedule (``rate_rps``),
  regardless of completions.  Measures behavior under offered load the
  service does not control — this is the shape that exercises 429
  shedding when arrivals outrun placement.

Latency percentiles are computed from per-request wall-clock
(``perf_counter``) samples; the report lands in BENCH_perf.json as a
``"serve"`` phase entry via :func:`repro.util.benchfile.append_entry`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serve.app import PlacementApp
from repro.serve.testclient import ASGITestClient
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = [
    "LoadgenReport",
    "run_closed_loop",
    "run_open_loop",
    "record_report",
]


@dataclass
class LoadgenReport:
    """What one load run produced.

    Outcome counts partition ``n_requests`` exactly (every request
    resolved to one of the four terminal outcomes).
    """

    mode: str
    n_requests: int
    concurrency: int
    rate_rps: Optional[float]
    wall_s: float
    placements_per_s: float
    p50_ms: float
    p99_ms: float
    outcomes: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready (benchfile entry fragment)."""
        return {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "concurrency": self.concurrency,
            "rate_rps": self.rate_rps,
            "wall_s": self.wall_s,
            "placements_per_s": self.placements_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "outcomes": dict(self.outcomes),
            "statuses": dict(self.statuses),
        }


def _vm_type_bodies(
    app: PlacementApp, n_requests: int, seed: int
) -> List[Dict[str, Any]]:
    """A deterministic request mix over the service's VM-type catalog."""
    names = app.service.vm_type_names
    rng = RngFactory(seed).generator("loadgen", "mix")
    return [
        {
            "vm_type": names[int(rng.integers(len(names)))],
            "utilization": float(rng.uniform(0.05, 0.48)),
        }
        for _ in range(n_requests)
    ]


def _summarize(
    mode: str,
    latencies_s: Sequence[float],
    responses: Sequence[Any],
    wall_s: float,
    concurrency: int,
    rate_rps: Optional[float],
) -> LoadgenReport:
    outcomes: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    placed = 0
    for response in responses:
        body = response.json()
        outcome = body.get("outcome", "rejected")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        key = str(response.status)
        statuses[key] = statuses.get(key, 0) + 1
        if outcome in ("placed", "degraded"):
            placed += 1
    samples = np.asarray(latencies_s, dtype=np.float64) * 1e3
    return LoadgenReport(
        mode=mode,
        n_requests=len(responses),
        concurrency=concurrency,
        rate_rps=rate_rps,
        wall_s=wall_s,
        placements_per_s=placed / wall_s if wall_s > 0 else 0.0,
        p50_ms=float(np.percentile(samples, 50)) if len(samples) else 0.0,
        p99_ms=float(np.percentile(samples, 99)) if len(samples) else 0.0,
        outcomes=outcomes,
        statuses=statuses,
    )


def run_closed_loop(
    app: PlacementApp,
    n_requests: int = 200,
    concurrency: int = 8,
    seed: int = 0,
    after_request: Optional[Callable[[int], None]] = None,
) -> LoadgenReport:
    """``concurrency`` workers, one request in flight each.

    ``after_request`` (when given) runs synchronously on the event-loop
    thread after each completion, with the number of requests completed
    so far.  Placement is synchronous on the same thread, so no
    admission batch is ever mid-placement while the hook executes —
    this is the mid-run hook the hot-swap drill uses to swap score
    tables between admission batches.
    """
    require(n_requests >= 1, "n_requests must be >= 1")
    require(concurrency >= 1, "concurrency must be >= 1")
    client = ASGITestClient(app)
    bodies = _vm_type_bodies(app, n_requests, seed)
    latencies: List[float] = []
    responses: List[Any] = []

    async def worker(queue: "asyncio.Queue") -> None:
        while True:
            body = await queue.get()
            if body is None:
                return
            start = time.perf_counter()
            response = await client.request("POST", "/place", body)
            latencies.append(time.perf_counter() - start)
            responses.append(response)
            if after_request is not None:
                after_request(len(responses))

    async def drive() -> float:
        queue: "asyncio.Queue" = asyncio.Queue()
        for body in bodies:
            queue.put_nowait(body)
        for _ in range(concurrency):
            queue.put_nowait(None)
        start = time.perf_counter()
        await asyncio.gather(*(worker(queue) for _ in range(concurrency)))
        return time.perf_counter() - start

    wall_s = asyncio.run(drive())
    return _summarize(
        "closed", latencies, responses, wall_s, concurrency, None
    )


def run_open_loop(
    app: PlacementApp,
    n_requests: int = 200,
    rate_rps: float = 500.0,
    seed: int = 0,
    after_request: Optional[Callable[[int], None]] = None,
) -> LoadgenReport:
    """Fixed-rate arrivals, completions be damned (shedding territory).

    ``after_request`` behaves as in :func:`run_closed_loop`.
    """
    require(n_requests >= 1, "n_requests must be >= 1")
    require(rate_rps > 0, "rate_rps must be positive")
    client = ASGITestClient(app)
    bodies = _vm_type_bodies(app, n_requests, seed)
    latencies: List[float] = []
    completed = [0]

    async def one(body: Dict[str, Any]) -> Any:
        start = time.perf_counter()
        response = await client.request("POST", "/place", body)
        latencies.append(time.perf_counter() - start)
        completed[0] += 1
        if after_request is not None:
            after_request(completed[0])
        return response

    async def drive() -> List[Any]:
        interval = 1.0 / rate_rps
        start = time.perf_counter()
        tasks = []
        for i, body in enumerate(bodies):
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(body)))
        return list(await asyncio.gather(*tasks))

    start = time.perf_counter()
    responses = asyncio.run(drive())
    wall_s = time.perf_counter() - start
    return _summarize("open", latencies, responses, wall_s, 1, rate_rps)


def record_report(
    report: LoadgenReport,
    out: Path,
    fleet: str,
    recorded_at: str,
    pms: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append a host-stamped ``"serve"`` phase entry to the trajectory."""
    from repro.util import benchfile

    entry: Dict[str, Any] = {
        "recorded_at": recorded_at,
        "phase": "serve",
        "fleet": fleet,
        "pms": pms,
        **benchfile.host_stamp(),
    }
    entry.update(report.as_dict())
    if extra:
        entry.update(extra)
    benchfile.append_entry(entry, out)
    return entry
