"""Tests for the scale sweep's summary."""

from repro.experiments.sweep import run_sweep, sweep_table


def test_sweep_reports_one_soa_point_per_size():
    summary = run_sweep((40, 16), table=sweep_table(), quick=True)
    points = summary["scale_sweep_points"]
    assert [p["n_pms"] for p in points] == [16, 40]
    for point in points:
        assert point["soa_wall_s"] > 0
        for counter in (
            "n_vms", "pms_used", "unplaced_vms", "migrations",
            "overload_events",
        ):
            assert isinstance(point[counter], int), counter
        assert not [
            key for key in point if "scan" in key or key == "identical"
        ]
    assert summary["scale_sweep_duration_s"] == 7_200.0
