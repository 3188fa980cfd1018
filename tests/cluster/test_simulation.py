"""Tests for the CloudSim-equivalent simulation driver."""

import pytest

from repro.baselines import FirstFitPolicy, MinimumMigrationTimeSelector
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.simulation import CloudSimulation, SimulationConfig
from repro.cluster.vm import VirtualMachine
from repro.traces.base import ArrayTrace, ConstantTrace
from repro.util.validation import ValidationError


def toy_datacenter(toy_shape, count=4):
    machines = [
        PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)
    ]
    return Datacenter(machines)


def simulation(toy_shape, config=None, count=4):
    return CloudSimulation(
        toy_datacenter(toy_shape, count),
        FirstFitPolicy(),
        MinimumMigrationTimeSelector(),
        config or SimulationConfig(duration_s=3600.0, monitor_interval_s=300.0),
    )


class TestConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.duration_s == 86_400.0
        assert config.monitor_interval_s == 300.0
        assert config.overload_threshold == 0.9

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValidationError):
            SimulationConfig(duration_s=0)
        with pytest.raises(ValidationError):
            SimulationConfig(duration_s=100.0, monitor_interval_s=200.0)


class TestInitialAllocation:
    def test_places_all_when_capacity_allows(self, toy_shape, vm2):
        sim = simulation(toy_shape)
        vms = [VirtualMachine(i, vm2, ConstantTrace(0.1)) for i in range(8)]
        assert sim.allocate_initial(vms) == 8

    def test_counts_unplaced(self, toy_shape, vm4):
        # One PM holds four vm4; 4 PMs hold 16; the 17th has nowhere.
        sim = simulation(toy_shape)
        vms = [VirtualMachine(i, vm4, ConstantTrace(0.1)) for i in range(17)]
        result = sim.run(vms)
        assert result.unplaced_vms == 1
        assert result.n_vms == 17


class TestRun:
    def test_quiet_traces_cause_no_migrations(self, toy_shape, vm2):
        sim = simulation(toy_shape)
        vms = [VirtualMachine(i, vm2, ConstantTrace(0.05)) for i in range(6)]
        result = sim.run(vms)
        assert result.migrations == 0
        assert result.overload_events == 0
        assert result.slo_violation_rate == 0.0

    def test_hot_traces_trigger_overload_and_migration(self, toy_shape, vm2):
        # Two hot VMs on PM 0 burst to 2*2*4/16 = 100% > 90%; a spare PM
        # exists, so a migration must occur.
        sim = simulation(toy_shape, count=3)
        vms = [VirtualMachine(i, vm2, ConstantTrace(1.0)) for i in range(2)]
        result = sim.run(vms)
        assert result.overload_events > 0
        assert result.migrations >= 1

    def test_slo_violation_accounting(self, toy_shape, vm2):
        # A single PM fully hot with no escape: every active tick is a
        # violation for that host.
        sim = simulation(toy_shape, count=1)
        vms = [VirtualMachine(i, vm2, ConstantTrace(1.0)) for i in range(2)]
        result = sim.run(vms)
        assert result.slo_violation_rate == pytest.approx(1.0)
        assert result.failed_migrations > 0

    def test_energy_accumulates_only_for_active_pms(self, toy_shape, vm2):
        config = SimulationConfig(duration_s=3600.0, monitor_interval_s=300.0)
        sim = simulation(toy_shape, config)
        vms = [VirtualMachine(0, vm2, ConstantTrace(0.0))]
        result = sim.run(vms)
        # One idle-but-active M3 PM for 1 hour at 337.3 W.
        assert result.energy_kwh == pytest.approx(0.3373, rel=1e-6)

    def test_peak_tracks_growth(self, toy_shape, vm2):
        # Hot VMs force spreading over time; the peak must be >= initial.
        sim = simulation(toy_shape, count=4)
        trace = ArrayTrace([0.1, 1.0, 1.0, 1.0], sample_interval_s=300.0)
        vms = [VirtualMachine(i, vm2, trace) for i in range(4)]
        result = sim.run(vms)
        assert result.pms_used_peak >= result.pms_used_initial

    def test_result_string(self, toy_shape, vm2):
        sim = simulation(toy_shape)
        result = sim.run([VirtualMachine(0, vm2, ConstantTrace(0.1))])
        assert "FF" in str(result)

    def test_duration_respected(self, toy_shape, vm2):
        config = SimulationConfig(duration_s=1800.0, monitor_interval_s=300.0)
        sim = simulation(toy_shape, config)
        result = sim.run([VirtualMachine(0, vm2, ConstantTrace(0.5))])
        assert result.duration_s == 1800.0
        # 6 ticks of 300 s for one active PM.
        assert result.energy_kwh > 0


class TestDegradedSurfacing:
    """SimulationResult carries the policy's degradation state."""

    def pagerank_simulation(self, toy_shape, poisoned=False):
        import numpy as np

        from repro.core.placement import PageRankVMPolicy
        from repro.core.profile import VMType
        from repro.core.score_table import build_score_table

        vm_types = (VMType(name="vm2", demands=((1, 1),)),)
        table = build_score_table(toy_shape, vm_types)
        if poisoned:
            class NaNTable:
                shape = table.shape
                strategy = table.strategy

                def score_or_snap(self, usage):
                    return float("nan")

                def score_or_snap_many(self, usages):
                    return np.full(len(list(usages)), np.nan)

            table = NaNTable()
        policy = PageRankVMPolicy({toy_shape: table})
        return CloudSimulation(
            toy_datacenter(toy_shape),
            policy,
            MinimumMigrationTimeSelector(),
            SimulationConfig(duration_s=600.0, monitor_interval_s=300.0),
        )

    def test_healthy_run_not_degraded(self, toy_shape, vm2):
        sim = self.pagerank_simulation(toy_shape)
        result = sim.run([VirtualMachine(0, vm2, ConstantTrace(0.1))])
        assert result.degraded is False
        assert result.degraded_reason is None
        assert "[DEGRADED]" not in str(result)

    def test_poisoned_tables_surface_in_result(self, toy_shape, vm2):
        sim = self.pagerank_simulation(toy_shape, poisoned=True)
        result = sim.run([VirtualMachine(0, vm2, ConstantTrace(0.1))])
        assert result.degraded is True
        assert result.degraded_reason
        assert "[DEGRADED]" in str(result)

    def test_degraded_fields_round_trip_checkpoint(self, toy_shape, vm2):
        from repro.experiments.checkpoint import (
            result_from_dict,
            result_to_dict,
        )

        sim = self.pagerank_simulation(toy_shape, poisoned=True)
        result = sim.run([VirtualMachine(0, vm2, ConstantTrace(0.1))])
        restored = result_from_dict(result_to_dict(result))
        assert restored.degraded is True
        assert restored.degraded_reason == result.degraded_reason

    def test_old_checkpoints_default_healthy(self):
        from repro.experiments.checkpoint import (
            result_from_dict,
            result_to_dict,
        )

        sim_result = simulation_result_fixture()
        payload = result_to_dict(sim_result)
        payload.pop("degraded", None)
        payload.pop("degraded_reason", None)
        restored = result_from_dict(payload)
        assert restored.degraded is False
        assert restored.degraded_reason is None


def simulation_result_fixture():
    from repro.cluster.simulation import SimulationResult

    return SimulationResult(
        policy_name="FF",
        n_vms=1,
        unplaced_vms=0,
        pms_used_initial=1,
        pms_used_peak=1,
        pms_used_final=1,
        energy_kwh=0.0,
        migrations=0,
        failed_migrations=0,
        overload_events=0,
        slo_violation_rate=0.0,
        duration_s=600.0,
    )


class TestRelief:
    """Relief checks a PM after each migration, never on entry: the
    tick only relieves PMs its snapshot found overloaded."""

    @pytest.mark.parametrize("substrate", ["object", "soa"])
    def test_one_utilization_read_per_migration(
        self, toy_shape, vm2, vm4, monkeypatch, substrate
    ):
        from repro.core.soa import SoADatacenter

        if substrate == "soa":
            datacenter = SoADatacenter(
                [(i, toy_shape, "M3") for i in range(6)]
            )
        else:
            datacenter = toy_datacenter(toy_shape, 6)
        sim = CloudSimulation(
            datacenter,
            FirstFitPolicy(),
            MinimumMigrationTimeSelector(),
            SimulationConfig(duration_s=3600.0, monitor_interval_s=300.0),
        )
        machine_cls = type(datacenter.machines[0])
        reads = {"n": 0, "relieving": False}
        utilization = machine_cls.actual_cpu_utilization

        def counted(machine, *args, **kwargs):
            if reads["relieving"]:
                reads["n"] += 1
            return utilization(machine, *args, **kwargs)

        relieve = CloudSimulation._relieve
        # (utilization reads, migrations, PM still used) per relief.
        reliefs = []

        def traced(self, machine, time_s):
            reads["n"], reads["relieving"] = 0, True
            before = self._migrations
            try:
                relieve(self, machine, time_s)
            finally:
                reads["relieving"] = False
            reliefs.append(
                (reads["n"], self._migrations - before, machine.is_used)
            )

        monkeypatch.setattr(machine_cls, "actual_cpu_utilization", counted)
        monkeypatch.setattr(CloudSimulation, "_relieve", traced)
        vms = [
            VirtualMachine(i, vm4 if i % 3 == 0 else vm2, trace)
            for i, trace in enumerate(
                [ConstantTrace(1.0), ArrayTrace([0.9, 0.2, 1.0], 300.0)] * 6
            )
        ]
        result = sim.run(vms)
        assert result.migrations > 0 and reliefs
        for n_reads, migrations, used in reliefs:
            # The parent loop read once more: on entry.
            assert n_reads == migrations - (0 if used else 1)
