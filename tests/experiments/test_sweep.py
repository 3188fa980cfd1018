"""Tests for the scale sweep's seed-scan baseline and identity check."""

import pytest

from repro.experiments.sweep import run_sweep, sweep_table
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def m3_table():
    return sweep_table(None)


def test_anchor_point_is_checked_against_the_seed_scan(m3_table):
    summary = run_sweep(
        (16, 40), table=m3_table, quick=True, check_identity=True,
        scan_anchor_pms=16,
    )
    by_size = {p["n_pms"]: p for p in summary["scale_sweep_points"]}
    assert by_size[16]["identical"] is True
    assert "identical" not in by_size[40]
    assert [a["n_pms"] for a in summary["scale_sweep_scan_anchors"]] == [16, 32]


def test_identity_check_needs_a_point_at_an_anchor(m3_table):
    with pytest.raises(ValidationError, match="anchor"):
        run_sweep((40,), table=m3_table, quick=True, check_identity=True,
                  scan_anchor_pms=16)
