"""Pinned outcomes of the paper runner and the GENI testbed.

The values below were recorded when both still ran on the object
``Datacenter``; the substrate they run on must not change a decision.
The integer counters are exact, energy holds to 1e-9 relative.
"""

import pytest

from repro.cluster.simulation import SimulationConfig
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.experiments.figures import make_testbed_policy
from repro.experiments.runner import run_experiment
from repro.testbed.experiment import TestbedConfig, TestbedExperiment, TestbedResult

#: policy -> ((PMs initial, peak, final, migrations, failed migrations,
#: overloads), energy kWh) for 100 PlanetLab VMs over 6 h.
RUNNER_PINS = {
    "PageRankVM": ((16, 17, 17, 63, 0, 29), 37.77488303334292),
    "FFDSum": ((17, 18, 18, 60, 0, 30), 39.58649373716689),
}


def test_run_experiment_outcomes_are_pinned():
    config = ExperimentConfig(
        n_vms=100,
        datacenter=(("M3", 80), ("C3", 20)),
        workload=WorkloadSpec(trace="planetlab"),
        policies=tuple(RUNNER_PINS),
        repetitions=1,
        sim=SimulationConfig(duration_s=21_600.0, monitor_interval_s=300.0),
    )
    results = run_experiment(config, workers=1)
    for name, (counters, energy_kwh) in RUNNER_PINS.items():
        (result,) = results.runs[name]
        assert (
            result.pms_used_initial, result.pms_used_peak,
            result.pms_used_final, result.migrations,
            result.failed_migrations, result.overload_events,
        ) == counters, name
        assert result.energy_kwh == pytest.approx(energy_kwh, rel=1e-9), name


def test_testbed_cell_is_pinned():
    config = TestbedConfig(duration_s=3600.0)
    policy, selector = make_testbed_policy("FFDSum", config)
    result = TestbedExperiment(policy, selector, config).run(200)
    assert result == TestbedResult(
        policy_name="FFDSum", n_jobs=200, unassigned_jobs=0,
        instances_used=7, instances_used_peak=7, migrations=431,
        failed_migrations=0, overload_events=155,
        slo_violation_rate=0.012301587301587301,
        interruption_seconds=4310.0,
    )
