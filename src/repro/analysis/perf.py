"""Perf-trajectory regression gate over the BENCH_perf.json history.

``BENCH_perf.json`` is an append-only trajectory: every harness run,
scale sweep and serve loadgen run adds one entry.  This
module turns that history into a regression gate (``repro perf check``):

* entries are grouped into **phases** — explicit ``"phase"`` keys for
  the sweep/serve entries, ``"harness"`` for the flat harness
  entries — and only compared against history from the same phase with
  the same ``quick`` flag (quick runs use different workloads, so their
  walls are not comparable to full runs) and the same ``cpu_count``
  (another host's timings are no baseline; entries without one form
  their own group); a ``serve`` entry also needs the same fleet, PM
  count, load mode, request count and concurrency;
* each phase has a small registry of metrics with a declared direction
  (throughput up, wall-clock down);
* the **baseline** for a metric is the median of the last ``window``
  historical values (the latest entry excluded — it is the one under
  test), and the latest value fails when it is worse than the baseline
  by more than ``max(tolerance * |baseline|, sigma * 1.4826 * MAD)`` —
  a relative floor so tiny jitter never trips, plus a robust spread
  term so a noisy metric earns a wider band;
* only the metrics the newest entry of a phase carries are judged: a
  metric it lacks reports ``not-recorded`` instead of re-judging an
  older entry's value.

:func:`derived_speedup_floor` is the second consumer of the history: the
benchmark suite's speedup assertions (``benchmarks/test_perf_core.py``)
derive their floors from the recorded trajectory — half the recent
median speedup, never below 1x — instead of hand-written constants, so
the bar ratchets with the measured performance and falls back to the
documented default on a fresh clone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util import benchfile
from repro.util.validation import ValidationError

__all__ = [
    "MetricSpec",
    "MetricCheck",
    "PerfReport",
    "PHASE_METRICS",
    "entry_phase",
    "metric_history",
    "check_trajectory",
    "derived_speedup_floor",
]

#: Consistency scale factor turning a MAD into a robust sigma estimate.
MAD_SIGMA = 1.4826

Entry = Mapping[str, object]
Extractor = Callable[[Entry], Optional[float]]


def _key(name: str) -> Extractor:
    """Extract a top-level numeric key (None when absent or non-numeric)."""

    def extract(entry: Entry) -> Optional[float]:
        value = entry.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    return extract


def _sweep_soa_wall(entry: Entry) -> Optional[float]:
    """Total columnar wall across a sweep entry's points."""
    points = entry.get("scale_sweep_points")
    if not isinstance(points, list) or not points:
        return None
    walls = [
        point.get("soa_wall_s")
        for point in points
        if isinstance(point, dict)
    ]
    if not walls or any(not isinstance(w, (int, float)) for w in walls):
        return None
    return float(sum(float(w) for w in walls))


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: its name, direction, and how to read it."""

    name: str
    higher_is_better: bool
    extract: Extractor


#: The gated metrics, per phase.  Extractors returning None (the metric
#: is absent from an entry) simply drop that entry from the history —
#: entries grow keys over time, so absence is normal, not an error.
PHASE_METRICS: Dict[str, Tuple[MetricSpec, ...]] = {
    "harness": (
        MetricSpec("snap_lookups_per_s", True, _key("snap_lookups_per_s")),
        MetricSpec(
            "snap_batch_lookups_per_s", True,
            _key("snap_batch_lookups_per_s"),
        ),
        MetricSpec("graph_build_wall_s", False, _key("graph_build_wall_s")),
        MetricSpec(
            "graph_build_speedup_vs_seed", True,
            _key("graph_build_speedup_vs_seed"),
        ),
        MetricSpec(
            "graph_cache_load_wall_s", False, _key("graph_cache_load_wall_s")
        ),
    ),
    "scale_sweep": (
        MetricSpec("soa_wall_total_s", False, _sweep_soa_wall),
    ),
    "serve": (
        MetricSpec("placements_per_s", True, _key("placements_per_s")),
        MetricSpec("p99_ms", False, _key("p99_ms")),
    ),
    "kernel": (
        MetricSpec("sweep_cold_wall_s", False, _key("sweep_cold_wall_s")),
        MetricSpec("sweep_wall_s", False, _key("sweep_wall_s")),
        MetricSpec(
            "sweep_speedup_vs_iterative", True,
            _key("sweep_speedup_vs_iterative"),
        ),
    ),
}


#: Keys an entry must share with the latest one to count as its history:
#: the host's cores and, for ``serve`` entries, the load's shape.
LIKE_FOR_LIKE = ("cpu_count", "fleet", "pms", "mode", "n_requests",
                 "concurrency")


@dataclass(frozen=True)
class MetricCheck:
    """The verdict for one metric of the latest entry in one phase.

    ``status`` is one of ``"ok"``, ``"degraded"``, ``"no-history"``
    (fewer than ``min_history`` comparable prior values) or
    ``"not-recorded"`` (the phase's newest entry lacks the metric;
    ``latest`` is None).  The last two are informational, never a
    failure: a fresh trajectory has nothing to regress against, and a
    value the newest entry did not measure is not under test.
    """

    phase: str
    metric: str
    higher_is_better: bool
    latest: Optional[float]
    baseline: Optional[float]
    allowed: Optional[float]
    n_history: int
    status: str

    def describe(self) -> str:
        """One human-readable gate line."""
        direction = "↑" if self.higher_is_better else "↓"
        if self.latest is None:
            return (
                f"[{self.status:>10s}] {self.phase}/{self.metric} {direction} "
                f"absent from the newest {self.phase} entry "
                f"(history n={self.n_history})"
            )
        if self.baseline is None:
            return (
                f"[{self.status:>10s}] {self.phase}/{self.metric} {direction} "
                f"latest {self.latest:.4g} (history n={self.n_history})"
            )
        return (
            f"[{self.status:>10s}] {self.phase}/{self.metric} {direction} "
            f"latest {self.latest:.4g} vs baseline {self.baseline:.4g} "
            f"± {self.allowed:.4g} (n={self.n_history})"
        )


@dataclass(frozen=True)
class PerfReport:
    """Every metric verdict for a trajectory's latest entries."""

    path: str
    checks: Tuple[MetricCheck, ...]

    @property
    def degraded(self) -> Tuple[MetricCheck, ...]:
        return tuple(c for c in self.checks if c.status == "degraded")

    @property
    def ok(self) -> bool:
        return not self.degraded

    def describe(self) -> str:
        lines = [f"perf check: {self.path}"]
        lines.extend(check.describe() for check in self.checks)
        verdict = (
            "OK: no significant degradation"
            if self.ok
            else f"FAIL: {len(self.degraded)} metric(s) degraded"
        )
        lines.append(verdict)
        return "\n".join(lines)


def entry_phase(entry: Entry) -> str:
    """An entry's phase; flat harness entries carry no ``phase`` key."""
    phase = entry.get("phase")
    return phase if isinstance(phase, str) else "harness"


def _entries(path: Path) -> List[Entry]:
    payload = benchfile.load_trajectory(path)
    entries = payload["entries"]
    assert isinstance(entries, list)  # validated by load_trajectory
    return list(entries)


def metric_history(
    entries: Sequence[Entry], phase: str, spec: MetricSpec
) -> List[Tuple[int, float, bool]]:
    """``(index, value, quick)`` for every entry carrying the metric."""
    out: List[Tuple[int, float, bool]] = []
    for index, entry in enumerate(entries):
        if entry_phase(entry) != phase:
            continue
        value = spec.extract(entry)
        if value is None:
            continue
        out.append((index, value, bool(entry.get("quick", False))))
    return out


def _check_metric(
    phase: str,
    spec: MetricSpec,
    history: Sequence[Tuple[int, float, bool]],
    entries: Sequence[Entry],
    newest: int,
    window: int,
    tolerance: float,
    sigma: float,
    min_history: int,
) -> Optional[MetricCheck]:
    """Gate one metric of the phase's newest entry (index ``newest``)."""
    if not history:
        return None
    latest_index, latest, latest_quick = history[-1]
    if latest_index != newest:
        return MetricCheck(
            phase=phase,
            metric=spec.name,
            higher_is_better=spec.higher_is_better,
            latest=None,
            baseline=None,
            allowed=None,
            n_history=len(history),
            status="not-recorded",
        )
    # Only comparable history: same phase (by construction), the same
    # quick flag — quick runs measure different workload sizes — and the
    # same LIKE_FOR_LIKE keys (None for entries without one).
    like = [entries[latest_index].get(key) for key in LIKE_FOR_LIKE]
    prior = [
        v
        for index, v, quick in history[:-1]
        if quick == latest_quick
        and [entries[index].get(key) for key in LIKE_FOR_LIKE] == like
    ]
    baseline_window = prior[-window:]
    if len(baseline_window) < min_history:
        return MetricCheck(
            phase=phase,
            metric=spec.name,
            higher_is_better=spec.higher_is_better,
            latest=latest,
            baseline=None,
            allowed=None,
            n_history=len(baseline_window),
            status="no-history",
        )
    values = np.asarray(baseline_window, dtype=np.float64)
    baseline = float(np.median(values))
    mad = float(np.median(np.abs(values - baseline)))
    allowed = max(tolerance * abs(baseline), sigma * MAD_SIGMA * mad)
    delta = (baseline - latest) if spec.higher_is_better else (
        latest - baseline
    )
    status = "degraded" if delta > allowed else "ok"
    return MetricCheck(
        phase=phase,
        metric=spec.name,
        higher_is_better=spec.higher_is_better,
        latest=latest,
        baseline=baseline,
        allowed=allowed,
        n_history=len(baseline_window),
        status=status,
    )


def check_trajectory(
    path: Path,
    window: int = 8,
    tolerance: float = 0.30,
    sigma: float = 3.0,
    min_history: int = 3,
    phases: Optional[Sequence[str]] = None,
) -> PerfReport:
    """Gate the latest entry of each phase against its own history.

    Args:
        path: the BENCH_perf.json trajectory file.
        window: baseline = median of up to this many prior values.
        tolerance: relative degradation always allowed (CI timing noise
            floor) — 0.30 tolerates a 30% swing even on a dead-quiet
            history.
        sigma: additional allowance in robust standard deviations
            (``MAD * 1.4826``) of the baseline window.
        min_history: prior comparable values needed before the gate
            arms; with fewer, the metric reports ``no-history``.
        phases: restrict the gate to these phases (default: all known).

    Raises:
        ValidationError: when the file is missing or fails the
            trajectory schema — a perf gate with no trajectory is a
            misconfiguration, not a pass.
    """
    if not path.exists():
        raise ValidationError(f"{path}: no trajectory to check")
    entries = _entries(path)
    wanted = tuple(phases) if phases is not None else tuple(PHASE_METRICS)
    checks: List[MetricCheck] = []
    for phase in wanted:
        newest = max(
            (i for i, e in enumerate(entries) if entry_phase(e) == phase),
            default=-1,
        )
        for spec in PHASE_METRICS.get(phase, ()):
            check = _check_metric(
                phase,
                spec,
                metric_history(entries, phase, spec),
                entries,
                newest,
                window,
                tolerance,
                sigma,
                min_history,
            )
            if check is not None:
                checks.append(check)
    return PerfReport(path=str(path), checks=tuple(checks))


def derived_speedup_floor(
    path: Optional[Path],
    metric: str,
    default: float = 3.0,
    window: int = 8,
    fraction: float = 0.5,
    phase: str = "harness",
) -> float:
    """A speedup floor derived from the recorded trajectory.

    Half (``fraction``) the median of the last ``window`` recorded
    speedups, clamped to ``>= 1.0`` (the optimized path must still beat
    the seed outright): the assertion bar ratchets up when history shows
    a 10x kernel and relaxes toward — never below — parity on weaker
    hardware.  With no usable history (fresh clone, missing file, quick
    entries only), the hand-tuned ``default`` applies unchanged.
    """
    if path is None or not path.exists():
        return default
    spec = MetricSpec(metric, True, _key(metric))
    try:
        history = metric_history(_entries(path), phase, spec)
    except ValidationError:
        return default
    values = [v for _, v, quick in history if not quick][-window:]
    if not values:
        return default
    derived = fraction * float(np.median(np.asarray(values)))
    return max(1.0, derived)
