"""Lockstep shadow executor: run twins, compare digests, bisect.

The executor runs each leg of a twin pair sequentially under a trace
capture and the float guard, then compares the two event streams:

* the **decision stream** (placements, ranking winners, overload
  verdicts, victims, migrations, RNG draws, fault verdicts) must match
  bit-for-bit.  Rolling per-event SHA-256 prefix digests make the first
  diverging event findable by binary search — equal prefixes stay
  equal, diverged prefixes stay diverged — so a million-event stream
  needs ~20 digest probes, not a linear payload walk;
* the **float stream** (energy/SLO running totals, one sample per
  monitor window) is compared value-by-value in ULPs against the twin
  pair's documented summation-order tolerance.

On divergence the report carries both payloads, the window it fell in,
and the operation prefix (places, migrations, faults, RNG draws) up to
the event — the minimal recipe that reproduces the split.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.util.floatguard import float_guard, ulp_diff
from repro.util.trace import TraceEvent, TraceRecorder, capture

__all__ = [
    "OP_KINDS",
    "TWIN_NAMES",
    "DEFAULT_MAX_ULPS",
    "TwinLeg",
    "LegTrace",
    "Divergence",
    "SanitizeReport",
    "SanitizeScenario",
    "find_divergence",
    "run_leg",
    "run_lockstep",
    "run_twin",
]

#: Event kinds that constitute the reproducing operation prefix.
OP_KINDS = frozenset({"tick", "place", "victim", "migrate", "fault", "rng"})

#: The built-in twin pairs ``run_twin`` knows how to drive.
TWIN_NAMES: Tuple[str, ...] = ("soa", "kernel")

#: Documented ULP tolerance per twin pair for the float stream (energy /
#: SLO running totals).  The SoA substrate's columnar tick re-associates
#: the seed scan's per-tick power summation (per-machine adds vs one
#: grouped ``sum()`` per PM type), which drifts the running total by
#: well under 1e-12 relative — 1024 ULPs bounds a full 24 h day with
#: margin while still catching any real reordering.  The kernel twin
#: compares *decisions* made over two independently solved score tables
#: (exact DAG sweep vs near-machine-precision iteration); the scores
#: differ by a handful of ulps but every ranking winner — and therefore
#: every downstream float — must match exactly.
DEFAULT_MAX_ULPS: Mapping[str, int] = {"soa": 1024, "kernel": 0}


@dataclass(frozen=True)
class TwinLeg:
    """One runnable member of a twin pair.

    ``runner`` builds its whole world (datacenter, policy, workload)
    and runs the simulation; the executor wraps the call in a trace
    capture and the float guard.
    """

    name: str
    runner: Callable[[], object]


@dataclass
class LegTrace:
    """One executed leg: its recorder, simulation result and wall time."""

    name: str
    recorder: TraceRecorder
    result: object
    wall_s: float


@dataclass
class Divergence:
    """The first point where the twin streams disagree.

    ``stream`` is ``"decision"`` (digest mismatch) or ``"float"``
    (ULP-tolerance breach); ``index`` is the position within that
    stream; ``event_a``/``event_b`` are the diverging events (None on
    the side whose stream ended early); ``window`` is the monitor
    window the event fell in; ``probes`` counts the digest comparisons
    the bisection needed; ``op_prefix`` is the reproducing operation
    sequence up to the event (rendered, leg A's view).
    """

    stream: str
    index: int
    event_a: Optional[TraceEvent]
    event_b: Optional[TraceEvent]
    window: int
    probes: int
    detail: str = ""
    op_prefix: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"first divergence: {self.stream} stream, index {self.index} "
            f"(window {self.window}, {self.probes} digest probes)",
            f"  A: {self.event_a.render() if self.event_a else '<stream ended>'}",
            f"  B: {self.event_b.render() if self.event_b else '<stream ended>'}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.op_prefix:
            shown = self.op_prefix[-10:]
            if len(self.op_prefix) > len(shown):
                lines.append(
                    f"  op prefix ({len(self.op_prefix)} ops, last "
                    f"{len(shown)} shown):"
                )
            else:
                lines.append(f"  op prefix ({len(self.op_prefix)} ops):")
            lines.extend(f"    {op}" for op in shown)
        return "\n".join(lines)


@dataclass
class SanitizeReport:
    """Outcome of one lockstep comparison."""

    twin: str
    leg_a: str
    leg_b: str
    n_events: Tuple[int, int]
    n_windows: Tuple[int, int]
    max_ulps: int
    max_ulp_seen: int
    digest_probes: int
    wall_a_s: float
    wall_b_s: float
    component_digests: Dict[str, Tuple[str, str]]
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        """True when the twins never diverged."""
        return self.divergence is None

    def render(self) -> str:
        header = (
            f"sanitize {self.twin}: {self.leg_a} vs {self.leg_b} — "
            f"{'OK' if self.ok else 'DIVERGED'}"
        )
        lines = [
            header,
            f"  events: {self.n_events[0]} vs {self.n_events[1]}, "
            f"windows: {self.n_windows[0]} vs {self.n_windows[1]}",
            f"  float stream: max {self.max_ulp_seen} ulps "
            f"(tolerance {self.max_ulps})",
            f"  wall: {self.wall_a_s:.2f}s vs {self.wall_b_s:.2f}s",
        ]
        for component, (digest_a, digest_b) in self.component_digests.items():
            mark = "==" if digest_a == digest_b else "!="
            lines.append(
                f"  {component}: {digest_a[:12]} {mark} {digest_b[:12]}"
            )
        if self.divergence is not None:
            lines.append(self.divergence.render())
        return "\n".join(lines)

    def to_json(self) -> str:
        payload: Dict[str, object] = {
            "twin": self.twin,
            "legs": [self.leg_a, self.leg_b],
            "ok": self.ok,
            "n_events": list(self.n_events),
            "n_windows": list(self.n_windows),
            "max_ulps": self.max_ulps,
            "max_ulp_seen": self.max_ulp_seen,
            "digest_probes": self.digest_probes,
            "wall_s": [self.wall_a_s, self.wall_b_s],
            "component_digests": {
                component: list(pair)
                for component, pair in self.component_digests.items()
            },
        }
        if self.divergence is not None:
            div = self.divergence
            payload["divergence"] = {
                "stream": div.stream,
                "index": div.index,
                "window": div.window,
                "probes": div.probes,
                "detail": div.detail,
                "event_a": div.event_a.render() if div.event_a else None,
                "event_b": div.event_b.render() if div.event_b else None,
                "op_prefix": div.op_prefix,
            }
        return json.dumps(payload, indent=2)


@dataclass(frozen=True)
class SanitizeScenario:
    """The default EC2 M3 scenario the built-in twins run on.

    Mirrors the scale sweep's workload family (50/50 m3.xlarge /
    m3.2xlarge, calm 16-sample traces) so zero-divergence here covers
    the exact paths the benchmarks exercise.
    """

    n_pms: int = 480
    duration_s: float = 86_400.0
    seed: int = 0


def _window_of(recorder: TraceRecorder, digest_index: int) -> int:
    """The monitor window a digested-stream index falls in (0-based)."""
    marks = [n_digested for n_digested, _ in recorder.windows]
    return bisect_right(marks, digest_index)


def _op_prefix(recorder: TraceRecorder, up_to_seq: int) -> List[str]:
    """The reproducing operation sequence before (and at) a global seq."""
    return [
        event.render()
        for event in recorder.events[: up_to_seq + 1]
        if event.kind in OP_KINDS
    ]


def _first_decision_divergence(
    a: TraceRecorder, b: TraceRecorder, stats: Dict[str, int]
) -> Optional[Divergence]:
    """Bisect the digested streams to the first mismatching event."""
    prefix_a, prefix_b = a.prefix_digests, b.prefix_digests
    n = min(len(prefix_a), len(prefix_b))
    stats["digest_probes"] += 1 if n else 0
    if n == 0 or prefix_a[n - 1] == prefix_b[n - 1]:
        if len(prefix_a) == len(prefix_b):
            return None
        first = n  # one stream carries extra events past the common end
    else:
        # Rolling digests: equal at i implies equal for all j <= i, so
        # the predicate is monotone and binary search lands exactly on
        # the first diverging digested event.
        lo, hi = -1, n - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            stats["digest_probes"] += 1
            if prefix_a[mid] == prefix_b[mid]:
                lo = mid
            else:
                hi = mid
        first = hi
    seq_a = a.digest_seqs[first] if first < len(a.digest_seqs) else None
    seq_b = b.digest_seqs[first] if first < len(b.digest_seqs) else None
    event_a = a.event_at(seq_a) if seq_a is not None else None
    event_b = b.event_at(seq_b) if seq_b is not None else None
    anchor = a if seq_a is not None else b
    anchor_seq = seq_a if seq_a is not None else seq_b
    return Divergence(
        stream="decision",
        index=first,
        event_a=event_a,
        event_b=event_b,
        window=_window_of(anchor, first),
        probes=stats["digest_probes"],
        op_prefix=_op_prefix(anchor, anchor_seq or 0),
    )


def _float_values(event: TraceEvent) -> List[Tuple[str, float]]:
    values = []
    for key, value in event.payload:
        if isinstance(value, str):
            try:
                values.append((key, float.fromhex(value)))
            except ValueError:
                continue
    return values


def _first_float_divergence(
    a: TraceRecorder, b: TraceRecorder, max_ulps: int, stats: Dict[str, int]
) -> Optional[Divergence]:
    """Scan the paired float events for the first tolerance breach."""
    for index, (seq_a, seq_b) in enumerate(zip(a.float_seqs, b.float_seqs)):
        event_a, event_b = a.events[seq_a], b.events[seq_b]
        breach = ""
        if event_a.kind != event_b.kind:
            breach = f"kind mismatch: {event_a.kind} vs {event_b.kind}"
        else:
            for (key, value_a), (_, value_b) in zip(
                _float_values(event_a), _float_values(event_b)
            ):
                ulps = ulp_diff(value_a, value_b)
                stats["max_ulp"] = max(stats["max_ulp"], min(ulps, 2**63))
                if ulps > max_ulps:
                    breach = (
                        f"{key}: {value_a!r} vs {value_b!r} "
                        f"({ulps} ulps > {max_ulps})"
                    )
                    break
        if breach:
            return Divergence(
                stream="float",
                index=index,
                event_a=event_a,
                event_b=event_b,
                window=bisect_right(
                    [n_float for _, n_float in a.windows], index
                ),
                probes=stats["digest_probes"],
                detail=breach,
                op_prefix=_op_prefix(a, seq_a),
            )
    if len(a.float_seqs) != len(b.float_seqs):
        index = min(len(a.float_seqs), len(b.float_seqs))
        longer = a if len(a.float_seqs) > len(b.float_seqs) else b
        seq = longer.float_seqs[index]
        return Divergence(
            stream="float",
            index=index,
            event_a=a.events[a.float_seqs[index]]
            if index < len(a.float_seqs)
            else None,
            event_b=b.events[b.float_seqs[index]]
            if index < len(b.float_seqs)
            else None,
            window=bisect_right([n_float for _, n_float in longer.windows], index),
            probes=stats["digest_probes"],
            detail="float streams differ in length",
            op_prefix=_op_prefix(longer, seq),
        )
    return None


def find_divergence(
    a: TraceRecorder, b: TraceRecorder, max_ulps: int = 0
) -> Tuple[Optional[Divergence], Dict[str, int]]:
    """First divergence between two trace streams, earliest-event first.

    Returns ``(divergence_or_None, stats)`` where stats carries
    ``digest_probes`` (bisection cost) and ``max_ulp`` (worst float
    distance observed, breach or not).
    """
    stats = {"digest_probes": 0, "max_ulp": 0}
    decision = _first_decision_divergence(a, b, stats)
    floaty = _first_float_divergence(a, b, max_ulps, stats)
    if decision is None:
        return floaty, stats
    if floaty is None:
        return decision, stats

    def first_seq(div: Divergence) -> int:
        seqs = [e.seq for e in (div.event_a, div.event_b) if e is not None]
        return min(seqs) if seqs else 2**62

    return (floaty if first_seq(floaty) < first_seq(decision) else decision), stats


def run_leg(leg: TwinLeg) -> LegTrace:
    """Execute one leg under tracing and the float guard."""
    start = time.perf_counter()
    with capture() as recorder, float_guard():
        result = leg.runner()
    wall = time.perf_counter() - start
    return LegTrace(name=leg.name, recorder=recorder, result=result, wall_s=wall)


def run_lockstep(
    twin: str, leg_a: TwinLeg, leg_b: TwinLeg, max_ulps: int = 0
) -> SanitizeReport:
    """Run two legs from one seed and compare their event streams."""
    trace_a = run_leg(leg_a)
    trace_b = run_leg(leg_b)
    divergence, stats = find_divergence(
        trace_a.recorder, trace_b.recorder, max_ulps=max_ulps
    )
    digests_a = trace_a.recorder.component_digests()
    digests_b = trace_b.recorder.component_digests()
    components = sorted(set(digests_a) | set(digests_b))
    return SanitizeReport(
        twin=twin,
        leg_a=trace_a.name,
        leg_b=trace_b.name,
        n_events=(len(trace_a.recorder.events), len(trace_b.recorder.events)),
        n_windows=(len(trace_a.recorder.windows), len(trace_b.recorder.windows)),
        max_ulps=max_ulps,
        max_ulp_seen=stats["max_ulp"],
        digest_probes=stats["digest_probes"],
        wall_a_s=trace_a.wall_s,
        wall_b_s=trace_b.wall_s,
        component_digests={
            component: (digests_a.get(component, ""), digests_b.get(component, ""))
            for component in components
        },
        divergence=divergence,
    )


def _scenario_leg(
    name: str,
    scenario: SanitizeScenario,
    table: object,
    backend: str,
) -> TwinLeg:
    """A leg running the default M3 scenario on one backend.

    The ``object`` backend runs the seed scan; ``soa`` runs the indexed
    selection and the columnar tick.
    """

    def runner() -> object:
        # Imported here: the sanitizer is analysis-layer code driving
        # cluster/experiment machinery, not a dependency of it.
        from repro.baselines import MinimumMigrationTimeSelector
        from repro.cluster.ec2 import (
            build_ec2_datacenter,
            build_ec2_soa_datacenter,
        )
        from repro.cluster.simulation import CloudSimulation, SimulationConfig
        from repro.core.placement import PageRankVMPolicy
        from repro.experiments.sweep import VMS_PER_PM, sweep_workload

        vms = sweep_workload(
            int(scenario.n_pms * VMS_PER_PM), seed=scenario.seed
        )
        if backend == "soa":
            datacenter = build_ec2_soa_datacenter({"M3": scenario.n_pms})
        else:
            datacenter = build_ec2_datacenter({"M3": scenario.n_pms})
        policy = PageRankVMPolicy({table.shape: table})
        simulation = CloudSimulation(
            datacenter,
            policy,
            MinimumMigrationTimeSelector(),
            SimulationConfig(
                duration_s=scenario.duration_s, monitor_interval_s=300.0
            ),
        )
        return simulation.run(vms)

    return TwinLeg(name=name, runner=runner)


def run_twin(
    twin: str,
    scenario: SanitizeScenario = SanitizeScenario(),
    max_ulps: Optional[int] = None,
    table: Optional[object] = None,
    table_cache_dir: Optional[str] = None,
) -> SanitizeReport:
    """Run one built-in twin pair on the default EC2 M3 scenario.

    Twins:
        ``soa``  — seed scan on the object datacenter (plain machine
        lists, machine-by-machine tick) vs the struct-of-arrays
        substrate (indexed selection, columnar tick).
        ``kernel`` — score table solved by the exact DAG-sweep kernel
        vs by the iterative kernel at ``epsilon=1e-14`` (both legs on
        the SoA substrate, so any divergence is attributable to the
        rank kernel alone).

    Args:
        twin: one of :data:`TWIN_NAMES`.
        scenario: fleet size / horizon / seed.
        max_ulps: float-stream tolerance override; defaults to the
            twin's documented bound (:data:`DEFAULT_MAX_ULPS`).
        table: prebuilt M3 score table (built once here when omitted).
        table_cache_dir: optional on-disk graph cache for the build.
    """
    if twin not in TWIN_NAMES:
        raise ValueError(f"unknown twin {twin!r}; choose from {TWIN_NAMES}")
    if table is None:
        from repro.experiments.sweep import sweep_table

        table = sweep_table(table_cache_dir)
    if max_ulps is None:
        max_ulps = DEFAULT_MAX_ULPS[twin]
    if twin == "kernel":
        from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
        from repro.core.graph import SuccessorStrategy
        from repro.core.graph_cache import load_or_build_profile_graph
        from repro.core.pagerank import profile_pagerank
        from repro.core.score_table import ScoreTable

        # The provided/default table is sweep-built; the twin leg
        # re-solves the same graph iteratively to near machine
        # precision so the remaining difference is the kernel's
        # closed-form residual.
        strategy = SuccessorStrategy.BALANCED
        graph = load_or_build_profile_graph(
            ec2_pm_shape("M3"),
            EC2_VM_TYPES,
            strategy=strategy,
            cache_dir=table_cache_dir,
        )
        result = profile_pagerank(graph, epsilon=1e-14)
        iterative = ScoreTable(
            shape=graph.shape,
            scores=dict(zip(graph.profiles, result.scores.tolist())),
            strategy=strategy,
        )
        leg_a = _scenario_leg("sweep-kernel", scenario, table, "soa")
        leg_b = _scenario_leg("iterative-kernel", scenario, iterative, "soa")
    else:
        leg_a = _scenario_leg("scan", scenario, table, "object")
        leg_b = _scenario_leg("soa", scenario, table, "soa")
    return run_lockstep(twin, leg_a, leg_b, max_ulps=max_ulps)
