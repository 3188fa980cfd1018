"""Load-generator tests: tiny closed/open runs and BENCH recording."""

import json
from pathlib import Path

import pytest

from repro.serve import (
    ManualClock,
    build_app,
    build_toy_service,
    record_report,
    run_closed_loop,
    run_open_loop,
)
from repro.util import benchfile
from repro.util.validation import ValidationError


def make_app(n_pms=16):
    return build_app(build_toy_service(n_pms=n_pms, clock=ManualClock()))


class TestClosedLoop:
    def test_small_run_all_placed(self):
        report = run_closed_loop(make_app(), n_requests=20, concurrency=4)
        assert report.mode == "closed"
        assert report.n_requests == 20
        assert sum(report.outcomes.values()) == 20
        assert report.outcomes == {"placed": 20}
        assert report.statuses == {"200": 20}
        assert report.placements_per_s > 0
        assert 0 < report.p50_ms <= report.p99_ms

    def test_deterministic_request_mix(self):
        first = run_closed_loop(make_app(), n_requests=15, concurrency=3)
        second = run_closed_loop(make_app(), n_requests=15, concurrency=3)
        assert first.outcomes == second.outcomes

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_closed_loop(make_app(), n_requests=0)
        with pytest.raises(ValidationError):
            run_closed_loop(make_app(), n_requests=1, concurrency=0)


class TestOpenLoop:
    def test_small_run_partitions_outcomes(self):
        report = run_open_loop(make_app(), n_requests=10, rate_rps=10_000.0)
        assert report.mode == "open"
        assert report.rate_rps == 10_000.0
        assert sum(report.outcomes.values()) == 10
        assert set(report.outcomes) <= {"placed", "degraded", "shed", "rejected"}


class TestAfterRequestHook:
    def test_closed_loop_hook_sees_every_completion(self):
        seen = []
        report = run_closed_loop(
            make_app(), n_requests=12, concurrency=3,
            after_request=seen.append,
        )
        assert seen == list(range(1, 13))
        assert report.n_requests == 12

    def test_open_loop_hook_sees_every_completion(self):
        seen = []
        run_open_loop(
            make_app(), n_requests=8, rate_rps=10_000.0,
            after_request=seen.append,
        )
        assert seen == list(range(1, 9))

    def test_hot_swap_mid_run_keeps_the_digest(self):
        from repro.serve.fleet import swap_catalog

        swapped_service = build_toy_service(n_pms=16, clock=ManualClock())
        control_service = build_toy_service(n_pms=16, clock=ManualClock())
        try:
            swaps = []

            def maybe_swap(completed):
                if completed == 10:
                    swap_catalog(
                        swapped_service, swapped_service.vm_type_catalog
                    )
                    swaps.append(completed)

            run_closed_loop(
                build_app(swapped_service), n_requests=20, concurrency=4,
                after_request=maybe_swap,
            )
            run_closed_loop(
                build_app(control_service), n_requests=20, concurrency=4
            )
            assert swaps == [10]
            assert (
                swapped_service.decision_digest
                == control_service.decision_digest
            )
        finally:
            swapped_service.close()
            control_service.close()


class TestRecordReport:
    def test_serve_phase_entry_round_trips(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        report = run_closed_loop(make_app(), n_requests=10, concurrency=2)
        entry = record_report(
            report, out, fleet="toy", recorded_at="2026-08-08T00:00:00+00:00",
            extra={"seed": 0},
        )
        assert entry["phase"] == "serve"
        payload = json.loads(out.read_text())
        assert payload["format"] == benchfile.BENCH_FORMAT
        latest = benchfile.latest_entry(out, phase="serve")
        assert latest is not None
        assert latest["mode"] == "closed"
        assert latest["fleet"] == "toy"
        assert latest["seed"] == 0

    def test_latest_entry_filters_by_phase(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        assert benchfile.latest_entry(out) is None
        benchfile.append_entry({"phase": "soa", "recorded_at": "t0"}, out)
        benchfile.append_entry({"phase": "serve", "recorded_at": "t1"}, out)
        benchfile.append_entry({"phase": "serve", "recorded_at": "t2"}, out)
        assert benchfile.latest_entry(out)["recorded_at"] == "t2"
        assert benchfile.latest_entry(out, phase="soa")["recorded_at"] == "t0"
        assert benchfile.latest_entry(out, phase="serve")["recorded_at"] == "t2"
        assert benchfile.latest_entry(out, phase="nope") is None
