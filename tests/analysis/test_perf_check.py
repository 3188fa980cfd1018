"""The perf-trajectory regression gate (``repro perf check``).

The gate replaces hand-written performance floors with statistics over
the recorded BENCH trajectory, so what this suite pins is the
*statistics*, not any particular machine's numbers:

* baselines come only from comparable history — same phase, same
  ``quick`` flag, same ``cpu_count`` (and for ``serve`` the same fleet,
  PM count, mode, request count and concurrency), latest entry
  excluded;
* the allowed band is the larger of the relative tolerance and the
  robust (MAD-based) spread, so flat histories still tolerate CI noise
  and noisy histories earn wider bands, in the worse direction only;
* thin history reports ``no-history`` and never fails;
* :func:`derived_speedup_floor` ratchets with the recorded speedups and
  falls back to the documented default on a fresh clone.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.perf import (
    MAD_SIGMA,
    PHASE_METRICS,
    check_trajectory,
    derived_speedup_floor,
    entry_phase,
    metric_history,
)
from repro.util import benchfile
from repro.util.validation import ValidationError

BENCH_PERF = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def write_trajectory(path, entries):
    payload = {"format": benchfile.BENCH_FORMAT, "entries": entries}
    path.write_text(json.dumps(payload))
    return path


def harness_entries(
    values, metric="snap_lookups_per_s", quick=False, cpu_count=None
):
    entries = [{metric: value, "quick": quick} for value in values]
    if cpu_count is not None:
        for entry in entries:
            entry["cpu_count"] = cpu_count
    return entries


class TestEntryPhase:
    def test_flat_harness_entries_have_no_phase_key(self):
        assert entry_phase({"pagerank_wall_s": 1.0}) == "harness"
        assert entry_phase({"phase": "serve"}) == "serve"
        assert entry_phase({"phase": 7}) == "harness"  # junk → harness

    def test_registry_covers_the_emitting_phases(self):
        assert set(PHASE_METRICS) == {
            "harness", "scale_sweep", "serve", "kernel",
        }

    def test_every_gated_metric_is_recorded(self):
        # A spec that no committed entry of its phase carries gates
        # nothing: the trajectory must hold at least one value for each.
        entries = benchfile.load_trajectory(BENCH_PERF)["entries"]
        unrecorded = [
            (phase, spec.name)
            for phase, specs in PHASE_METRICS.items()
            for spec in specs
            if not metric_history(entries, phase, spec)
        ]
        assert unrecorded == []


class TestMetricHistory:
    def test_absent_metric_drops_entry_not_errors(self, tmp_path):
        spec = PHASE_METRICS["serve"][0]  # placements_per_s ↑
        entries = [
            {"phase": "serve", "placements_per_s": 100.0},
            {"phase": "serve"},  # older entry, key not yet emitted
            {"phase": "scale_sweep", "placements_per_s": 5.0},  # other phase
            {"phase": "serve", "placements_per_s": 120.0, "quick": True},
        ]
        history = metric_history(entries, "serve", spec)
        assert history == [(0, 100.0, False), (3, 120.0, True)]

    def test_non_numeric_values_are_dropped(self):
        spec = PHASE_METRICS["serve"][0]
        entries = [
            {"phase": "serve", "placements_per_s": "fast"},
            {"phase": "serve", "placements_per_s": True},
            {"phase": "serve", "placements_per_s": 50},
        ]
        assert metric_history(entries, "serve", spec) == [(2, 50.0, False)]


class TestCheckTrajectory:
    def test_missing_file_is_a_misconfiguration(self, tmp_path):
        with pytest.raises(ValidationError, match="no trajectory"):
            check_trajectory(tmp_path / "absent.json")

    def test_fresh_history_reports_no_history_and_passes(self, tmp_path):
        path = write_trajectory(
            tmp_path / "b.json", harness_entries([1000.0, 1010.0])
        )
        report = check_trajectory(path)
        assert report.ok
        assert {c.status for c in report.checks} == {"no-history"}
        assert "OK: no significant degradation" in report.describe()

    def test_steady_history_is_ok(self, tmp_path):
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([1000.0, 990.0, 1010.0, 1005.0, 995.0]),
        )
        report = check_trajectory(path)
        assert report.ok
        check = report.checks[0]
        assert check.status == "ok"
        assert check.baseline == pytest.approx(1002.5)

    def test_collapse_beyond_tolerance_fails(self, tmp_path):
        # Throughput halves against a dead-flat baseline: well past the
        # 30% relative floor, and MAD≈7 adds nothing.
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([1000.0, 990.0, 1010.0, 1005.0, 995.0, 500.0]),
        )
        report = check_trajectory(path)
        assert not report.ok
        (degraded,) = report.degraded
        assert degraded.metric == "snap_lookups_per_s"
        assert degraded.latest == 500.0
        assert "FAIL: 1 metric(s) degraded" in report.describe()

    def test_improvement_never_fails(self, tmp_path):
        # Same magnitude of change, in the *better* direction.
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([1000.0, 990.0, 1010.0, 1005.0, 995.0, 2000.0]),
        )
        assert check_trajectory(path).ok

    def test_wall_clock_direction_is_inverted(self, tmp_path):
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries(
                [1.0, 1.0, 1.1, 0.9, 2.5], metric="pagerank_wall_s"
            ),
        )
        report = check_trajectory(path)
        (degraded,) = report.degraded
        assert degraded.metric == "pagerank_wall_s"

    def test_noisy_history_earns_a_wider_band(self, tmp_path):
        # ±40% swings around 1000: a 650 reading breaches the 30%
        # relative floor but sits inside sigma * 1.4826 * MAD.
        values = [600.0, 1400.0, 700.0, 1300.0, 800.0, 1200.0, 650.0]
        path = write_trajectory(tmp_path / "b.json", harness_entries(values))
        report = check_trajectory(path)
        check = report.checks[0]
        assert check.allowed > 0.30 * check.baseline
        assert check.allowed == pytest.approx(3.0 * MAD_SIGMA * 300.0)
        assert check.status == "ok"

    def test_quick_and_full_histories_never_mix(self, tmp_path):
        # Plenty of full-run history, but the latest entry is a quick
        # run with only quick peers: baselines must come from the two
        # quick entries alone → below min_history → no-history.
        entries = (
            harness_entries([1000.0] * 6)
            + harness_entries([80.0, 82.0, 81.0], quick=True)
        )
        path = write_trajectory(tmp_path / "b.json", entries)
        report = check_trajectory(path)
        check = report.checks[0]
        assert check.status == "no-history"
        assert check.n_history == 2

    def test_metric_missing_from_the_newest_entry_is_not_judged(
        self, tmp_path
    ):
        # Full entries carry the speedup; the newest (quick) entry does
        # not.  The full history's last value — degraded as it is — must
        # not be judged again: it reports not-recorded and the gate
        # passes, while the metric the newest entry carries is judged.
        entries = [
            {"snap_lookups_per_s": 1000.0, "pagerank_speedup_vs_seed": v}
            for v in (10.0, 10.5, 9.5, 10.0, 2.0)
        ] + [{"snap_lookups_per_s": 990.0, "quick": True}]
        path = write_trajectory(tmp_path / "b.json", entries)
        report = check_trajectory(path)
        assert report.ok
        by_metric = {c.metric: c for c in report.checks}
        skipped = by_metric["pagerank_speedup_vs_seed"]
        assert skipped.status == "not-recorded"
        assert skipped.latest is None and skipped.n_history == 5
        assert "absent from the newest harness entry" in report.describe()
        assert by_metric["snap_lookups_per_s"].status == "no-history"

        # Once the newest entry carries it again, it is judged (and the
        # degraded full value now sits in its history, as it should).
        entries.append(
            {"snap_lookups_per_s": 1000.0, "pagerank_speedup_vs_seed": 1.0}
        )
        path = write_trajectory(tmp_path / "b.json", entries)
        (degraded,) = check_trajectory(path).degraded
        assert degraded.metric == "pagerank_speedup_vs_seed"
        assert degraded.latest == 1.0

    def test_hosts_with_other_cpu_counts_never_mix(self, tmp_path):
        # A 2-CPU entry with only 1-CPU history has no baseline, however
        # far it sits from the 1-CPU values.
        entries = harness_entries([1000.0] * 6, cpu_count=1) + (
            harness_entries([500.0], cpu_count=2)
        )
        path = write_trajectory(tmp_path / "b.json", entries)
        check = check_trajectory(path).checks[0]
        assert check.status == "no-history"
        assert check.n_history == 0

        # With 2-CPU history of its own, a degraded 2-CPU entry is
        # still flagged, against the 2-CPU baseline alone.
        entries = (
            harness_entries([1000.0] * 6, cpu_count=1)
            + harness_entries([800.0, 790.0, 810.0, 500.0], cpu_count=2)
        )
        path = write_trajectory(tmp_path / "b.json", entries)
        (degraded,) = check_trajectory(path).degraded
        assert degraded.baseline == pytest.approx(800.0)
        assert degraded.n_history == 3

    def test_window_limits_the_baseline(self, tmp_path):
        # Ancient slow history outside the window must not drag the
        # baseline down and mask a fresh regression.
        values = [100.0] * 10 + [1000.0] * 8 + [400.0]
        path = write_trajectory(tmp_path / "b.json", harness_entries(values))
        report = check_trajectory(path, window=8)
        (degraded,) = report.degraded
        assert degraded.baseline == pytest.approx(1000.0)

    def test_phase_filter_restricts_the_gate(self, tmp_path):
        entries = harness_entries([1000.0] * 5 + [10.0]) + [
            {"phase": "serve", "placements_per_s": v}
            for v in (500.0, 505.0, 495.0, 500.0)
        ]
        path = write_trajectory(tmp_path / "b.json", entries)
        assert not check_trajectory(path).ok
        serve_only = check_trajectory(path, phases=["serve"])
        assert serve_only.ok
        assert {c.phase for c in serve_only.checks} == {"serve"}

    def test_serve_entries_are_gated_like_for_like(self, tmp_path):
        # CI's 8-PM toy loadgen run on a host with a 3.75k-PM ec2 history
        # has no baseline, and neither has an ec2 run at another
        # concurrency; a slow ec2 run with the same workload is flagged.
        def serve(value, fleet="ec2", pms=3750, concurrency=2):
            return {
                "phase": "serve", "placements_per_s": value,
                "cpu_count": 2, "fleet": fleet, "pms": pms,
                "mode": "closed", "n_requests": 11250,
                "concurrency": concurrency,
            }

        history = [serve(v) for v in (4000.0, 4100.0, 3900.0)]
        for latest in (
            serve(900.0, fleet="toy", pms=8),
            serve(900.0, pms=480),
            serve(900.0, concurrency=8),
        ):
            path = write_trajectory(tmp_path / "b.json", history + [latest])
            (check,) = check_trajectory(path, phases=["serve"]).checks
            assert check.status == "no-history", latest
        path = write_trajectory(
            tmp_path / "b.json", history + [serve(900.0)]
        )
        (degraded,) = check_trajectory(path, phases=["serve"]).degraded
        assert degraded.baseline == pytest.approx(4000.0)

    def test_retired_shared_phase_is_not_gated(self, tmp_path):
        # Committed trajectories keep "shared" entries from the deleted
        # process pools; the gate skips that phase instead of failing on
        # a stale regression.
        entries = harness_entries([1000.0] * 5) + [
            {"phase": "shared", "placements_per_s": v}
            for v in (500.0, 505.0, 495.0, 500.0, 5.0)
        ]
        path = write_trajectory(tmp_path / "b.json", entries)
        report = check_trajectory(path)
        assert report.ok
        assert "shared" not in {c.phase for c in report.checks}


class TestDerivedSpeedupFloor:
    METRIC = "pagerank_speedup_vs_seed"

    def test_missing_file_falls_back_to_default(self, tmp_path):
        floor = derived_speedup_floor(
            tmp_path / "absent.json", self.METRIC, default=3.0
        )
        assert floor == 3.0
        assert derived_speedup_floor(None, self.METRIC, default=2.5) == 2.5

    def test_half_the_recent_median(self, tmp_path):
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([8.0, 10.0, 12.0], metric=self.METRIC),
        )
        assert derived_speedup_floor(path, self.METRIC) == pytest.approx(5.0)

    def test_ratchets_above_the_default(self, tmp_path):
        # A 20x kernel raises the bar past the hand-tuned constant.
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([20.0] * 4, metric=self.METRIC),
        )
        floor = derived_speedup_floor(path, self.METRIC, default=3.0)
        assert floor == pytest.approx(10.0)

    def test_never_below_parity(self, tmp_path):
        # Weak-hardware history relaxes the bar, but the optimized path
        # must still beat the seed outright.
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([1.2, 1.1, 1.3], metric=self.METRIC),
        )
        assert derived_speedup_floor(path, self.METRIC) == 1.0

    def test_quick_entries_do_not_count(self, tmp_path):
        path = write_trajectory(
            tmp_path / "b.json",
            harness_entries([50.0] * 3, metric=self.METRIC, quick=True),
        )
        assert derived_speedup_floor(path, self.METRIC, default=3.0) == 3.0

    def test_corrupt_file_falls_back_to_default(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"format": "wrong", "entries": []}')
        assert derived_speedup_floor(path, self.METRIC, default=3.0) == 3.0
