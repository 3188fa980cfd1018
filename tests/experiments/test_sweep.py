"""Tests for the scale sweep's summary and its request batch."""

import numpy as np
import pytest

from repro.cluster.ec2 import ec2_vm_type
from repro.cluster.vm import VirtualMachine
from repro.experiments.sweep import run_sweep, sweep_table, sweep_workload
from repro.traces.base import ArrayTrace


def test_sweep_reports_one_soa_point_per_size():
    summary = run_sweep((40, 16), table=sweep_table(), quick=True)
    points = summary["scale_sweep_points"]
    assert [p["n_pms"] for p in points] == [16, 40]
    for point in points:
        assert point["soa_wall_s"] > 0
        assert point["workload_s"] > 0
        for counter in (
            "n_vms", "pms_used", "unplaced_vms", "migrations",
            "overload_events",
        ):
            assert isinstance(point[counter], int), counter
        assert not [
            key for key in point if "scan" in key or key == "identical"
        ]
    assert summary["scale_sweep_duration_s"] == 7_200.0


def _per_vm_workload(n_vms, seed):
    """The batch as it was built one VM at a time: the oracle."""
    vm_types = (ec2_vm_type("m3.xlarge"), ec2_vm_type("m3.2xlarge"))
    rng = np.random.default_rng(seed)
    vms = []
    for i in range(n_vms):
        vm_type = vm_types[int(rng.integers(len(vm_types)))]
        samples = rng.uniform(0.05, 0.48, size=16)
        vms.append(VirtualMachine(i, vm_type, ArrayTrace(samples, 300.0)))
    return vms


@pytest.mark.parametrize("n_vms", [1, 2, 25_001])
@pytest.mark.parametrize("seed", [0, 16, 17, 18, 7919 * 16])
def test_batch_matches_the_per_vm_draws(seed, n_vms):
    batch = sweep_workload(n_vms, seed=seed)
    oracle = _per_vm_workload(n_vms, seed)
    assert [vm.vm_id for vm in batch] == list(range(n_vms))
    assert [vm.vm_type for vm in batch] == [vm.vm_type for vm in oracle]
    for vm, expected in zip(batch, oracle):
        samples = vm.trace.samples
        assert samples.tobytes() == expected.trace.samples.tobytes()
        assert not samples.flags.writeable
        assert vm.trace.sample_interval_s == 300.0
        assert vm.trace.cycle


def test_empty_batch():
    assert sweep_workload(0) == []
