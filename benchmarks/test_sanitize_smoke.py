"""Lockstep sanitize smoke: every twin pair, tiny scale, zero drift.

Not a paper artifact — this is the CI face of ``repro sanitize run``.
Each twin pair (seed scan on the object datacenter vs struct-of-arrays,
DAG-sweep vs iterative rank kernel) runs a small fleet over a
30-minute horizon from one seed; decision streams must match
bit-for-bit and the float streams must stay inside the documented ULP
bounds (DESIGN.md section 3.12).  The paper-scale run (480 PMs, 24h)
lives in the sanitize-smoke CI job, not here.
"""

import pytest

from repro.analysis.sanitize import (
    DEFAULT_MAX_ULPS,
    TWIN_NAMES,
    SanitizeScenario,
    run_twin,
)
from repro.analysis.sanitize.executor import _scenario_leg, run_leg

SCENARIO = SanitizeScenario(n_pms=24, duration_s=1_800.0, seed=0)


@pytest.fixture(scope="module")
def m3_table():
    from repro.experiments.sweep import sweep_table

    return sweep_table(None)


@pytest.mark.parametrize("twin", TWIN_NAMES)
def test_twin_is_lockstep(twin, m3_table):
    report = run_twin(twin, SCENARIO, table=m3_table)
    assert report.ok, report.render()
    assert report.n_events[0] == report.n_events[1] > 0
    assert report.max_ulp_seen <= DEFAULT_MAX_ULPS[twin]
    # Per-component digests agree, not just the global stream.
    for component, (digest_a, digest_b) in report.component_digests.items():
        assert digest_a == digest_b, component


def test_seeds_produce_distinct_streams(m3_table):
    """The comparison has teeth: different seeds are NOT lockstep-equal,
    so a passing twin run means sameness, not emptiness."""
    reseeded = SanitizeScenario(n_pms=24, duration_s=1_800.0, seed=1)
    a = run_leg(_scenario_leg("soa", SCENARIO, m3_table, "soa"))
    b = run_leg(_scenario_leg("soa", reseeded, m3_table, "soa"))
    assert a.recorder.stream_digest != b.recorder.stream_digest
