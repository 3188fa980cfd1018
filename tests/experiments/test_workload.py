"""Tests for workload construction."""

import hashlib

import numpy as np
import pytest

from repro.experiments import runner as runner_module
from repro.experiments import workload as workload_module
from repro.experiments.config import ExperimentConfig, SimulationConfig, WorkloadSpec
from repro.experiments.runner import run_experiment
from repro.experiments.workload import (
    build_vms,
    make_trace_pool,
    sample_vm_types,
    sharing_draws,
)
from repro.util.rng import RngFactory


class TestSampleVMTypes:
    def test_respects_weights(self):
        spec = WorkloadSpec(vm_mix=(("m3.medium", 1.0), ("c3.large", 0.0)))
        types = sample_vm_types(np.random.default_rng(0), 50, spec)
        assert all(t.name == "m3.medium" for t in types)

    def test_mix_produces_variety(self):
        spec = WorkloadSpec()
        types = sample_vm_types(np.random.default_rng(0), 300, spec)
        assert len({t.name for t in types}) >= 4

    def test_deterministic(self):
        spec = WorkloadSpec()
        a = sample_vm_types(np.random.default_rng(3), 20, spec)
        b = sample_vm_types(np.random.default_rng(3), 20, spec)
        assert [t.name for t in a] == [t.name for t in b]


class TestTracePool:
    @pytest.mark.parametrize("trace", ["planetlab", "google", "constant"])
    def test_all_families_construct(self, trace):
        spec = WorkloadSpec(trace=trace, trace_population=10)
        pool = make_trace_pool(spec, RngFactory(0))
        sample = pool.sample()
        assert 0.0 <= sample.utilization_at(0.0) <= 1.0

    def test_constant_family_is_worst_case(self):
        spec = WorkloadSpec(trace="constant")
        pool = make_trace_pool(spec, RngFactory(0))
        assert pool.sample().utilization_at(123.0) == 1.0


class TestBuildVMs:
    def test_count_and_ids(self):
        config = ExperimentConfig(n_vms=25, repetitions=1)
        vms = build_vms(config, repetition=0)
        assert len(vms) == 25
        assert [vm.vm_id for vm in vms] == list(range(25))

    def test_repetitions_differ(self):
        config = ExperimentConfig(n_vms=50, repetitions=2)
        a = build_vms(config, 0)
        b = build_vms(config, 1)
        assert [vm.vm_type.name for vm in a] != [vm.vm_type.name for vm in b]

    def test_same_repetition_identical_across_calls(self):
        # Paired comparison guarantee: every policy sees the same batch.
        config = ExperimentConfig(n_vms=50)
        a = build_vms(config, 0)
        b = build_vms(config, 0)
        assert [vm.vm_type.name for vm in a] == [vm.vm_type.name for vm in b]
        assert [vm.trace.utilization_at(0.0) for vm in a] == [
            vm.trace.utilization_at(0.0) for vm in b
        ]

    def test_seed_changes_workload(self):
        a = build_vms(ExperimentConfig(n_vms=50, seed=1), 0)
        b = build_vms(ExperimentConfig(n_vms=50, seed=2), 0)
        assert [vm.vm_type.name for vm in a] != [vm.vm_type.name for vm in b]


def _digest(vms):
    digest = hashlib.sha256()
    for vm in vms:
        digest.update(vm.vm_type.name.encode() + b"\0")
        digest.update(vm.trace.samples.tobytes())
    return digest.hexdigest()


class TestPinnedDraws:
    """The paper cell's request batches, byte for byte.

    Recorded before repetitions shared their draw and pools memoized
    their traces: both must leave every VM type and sample unchanged.
    """

    @pytest.mark.parametrize(
        "seed, repetition, expected",
        [
            (None, 0, "7e3967f45c16ef804db5bb7235740f2d"
                      "900fdf8272b2f119c63cb4c95bca023c"),
            (None, 1, "864919aae7f05231ea3b743e8041c894"
                      "4be8fa901c4d6853901b6d5b6d7dc4fe"),
            (7919, 0, "0f8f15fd2ec546ee4c6fe80e4b697209"
                      "cec7046c5663809cc889b292babcecdd"),
            (7919, 1, "85d83ae7857630df56d581b838f09916"
                      "f7fb33e7d39bbe1a75bf03b91e7af0b7"),
        ],
    )
    def test_build_vms_digest(self, seed, repetition, expected):
        config = (
            ExperimentConfig(n_vms=1000)
            if seed is None
            else ExperimentConfig(n_vms=1000, seed=seed)
        )
        assert _digest(build_vms(config, repetition)) == expected

    def test_shared_draws_match_fresh_draws(self, monkeypatch):
        config = ExperimentConfig(n_vms=60)
        fresh = [_digest(build_vms(config, rep)) for rep in (0, 1, 2)]
        monkeypatch.setattr(workload_module, "_MAX_HELD_DRAWS", 1)
        cells = [0, 1, 2, 0, 1, 2]
        with sharing_draws(config, cells):
            shared = [_digest(build_vms(config, rep)) for rep in cells]
        assert shared == fresh + fresh


class TestSharedDraws:
    def test_policies_get_distinct_vms_over_shared_traces(self, monkeypatch):
        built = []

        def recording_build_vms(config, repetition):
            vms = build_vms(config, repetition)
            built.append(vms)
            return vms

        monkeypatch.setattr(runner_module, "build_vms", recording_build_vms)
        config = ExperimentConfig(
            n_vms=30,
            datacenter=(("M3", 20),),
            policies=("FF", "FFDSum"),
            repetitions=1,
            sim=SimulationConfig(duration_s=600.0, monitor_interval_s=300.0),
        )
        run_experiment(config)
        first, second = built
        assert not {id(vm) for vm in first} & {id(vm) for vm in second}
        assert all(a.trace is b.trace for a, b in zip(first, second))
        assert [vm.vm_type for vm in first] == [vm.vm_type for vm in second]

    def test_pool_hands_one_object_per_index(self):
        vms = build_vms(ExperimentConfig(n_vms=200), 0)
        traces = {id(vm.trace): vm.trace for vm in vms}
        assert len(traces) < len(vms)  # with replacement from 1000
        by_samples = {t.samples.tobytes() for t in traces.values()}
        assert len(by_samples) == len(traces)

    def test_held_draws_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(workload_module, "_MAX_HELD_DRAWS", 2)
        config = ExperimentConfig(n_vms=10)
        cells = [0, 1, 2, 3, 0, 1, 2, 3]
        with sharing_draws(config, cells):
            held = workload_module._SHARED.get()
            for rep in cells:
                build_vms(config, rep)
                assert len(held._held) <= 2
            assert held._held == {}
        assert workload_module._SHARED.get() is None
