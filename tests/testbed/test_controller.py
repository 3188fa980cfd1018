"""Tests for the centralized testbed controller."""

import pytest

from repro.baselines import FirstFitPolicy, MinimumMigrationTimeSelector
from repro.cluster.vm import VirtualMachine
from repro.core.profile import VMType
from repro.core.soa import SoADatacenter
from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.testbed.controller import CentralizedController, JobTooLargeError
from repro.testbed.instance import make_instances
from repro.testbed.job import JOB_2VCPU, JOB_4VCPU
from repro.traces.base import ConstantTrace
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError


def controller_with(n_instances=3, **kwargs):
    datacenter = SoADatacenter.from_machines(make_instances(n_instances))
    return CentralizedController(
        datacenter,
        FirstFitPolicy(),
        MinimumMigrationTimeSelector(),
        **kwargs,
    )


class TestAssignment:
    def test_assigns_all_when_capacity_allows(self):
        controller = controller_with()
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(0.1)) for i in range(8)]
        assert controller.assign_all(jobs) == 8
        assert controller.unassigned_jobs == 0

    def test_counts_unassigned(self):
        controller = controller_with(n_instances=1)
        # One instance holds 4 JOB_4VCPU (16 slots); the 5th fails.
        jobs = [VirtualMachine(i, JOB_4VCPU, ConstantTrace(0.1)) for i in range(5)]
        assert controller.assign_all(jobs) == 4
        assert controller.unassigned_jobs == 1


class TestOverloadHandling:
    def test_quiet_jobs_never_migrate(self):
        controller = controller_with()
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(0.1)) for i in range(4)]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)
        assert controller.migrations == 0
        assert controller.overload_events == 0

    def test_hot_instance_sheds_jobs(self):
        controller = controller_with(n_instances=2)
        # FF stacks both jobs on instance 0; at full burst the instance
        # hits 2*2*4/16 = 100% > 90% and must shed one.
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0)) for i in range(2)]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)
        assert controller.overload_events >= 1
        assert controller.migrations >= 1
        assert controller.interruption_seconds >= controller.migrations * 10.0

    def test_failed_migration_counted_when_no_destination(self):
        controller = controller_with(n_instances=1)
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0)) for i in range(2)]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)
        assert controller.migrations == 0
        assert controller.failed_migrations >= 1

    def test_slo_recorded_per_poll(self):
        controller = controller_with(n_instances=1)
        jobs = [VirtualMachine(0, JOB_4VCPU, ConstantTrace(1.0))]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)
        assert controller.slo.active_seconds == pytest.approx(10.0)
        assert controller.slo.violation_rate == pytest.approx(1.0)

    def test_restart_latency_validated(self):
        with pytest.raises(Exception):
            controller_with(restart_latency_s=-1.0)

    def test_no_destination_counts_as_failed_restart(self):
        controller = controller_with(n_instances=1)
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0)) for i in range(2)]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)
        assert controller.failed_restarts >= 1
        assert controller.interruption_seconds >= 10.0


class TestRestartBudget:
    def test_default_budget_scales_with_fleet(self):
        controller = controller_with(n_instances=3)
        assert controller._max_restarts_per_poll == 16 * 3

    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            controller_with(max_restarts_per_poll=0)

    def test_budget_bounds_restarts_per_heartbeat(self):
        controller = controller_with(
            n_instances=2, max_restarts_per_poll=1
        )
        # FF stacks all four hot jobs on instance 0; each heartbeat may
        # spend at most one kill+restart, so relief is spread over polls.
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0))
                for i in range(4)]
        controller.assign_all(jobs)

        controller.poll(10.0, 10.0)
        first = controller.migrations + controller.failed_migrations
        assert first == 1
        controller.poll(20.0, 10.0)
        second = controller.migrations + controller.failed_migrations
        assert second == 2  # leftover overload revisited next heartbeat


class TestJobTooLarge:
    HUGE = VMType(name="job.huge", demands=((8, 8),))

    def test_fits_any_empty_instance_probe(self):
        controller = controller_with(n_instances=2)
        assert controller._fits_any_empty_instance(JOB_4VCPU)
        # 8 slots on one core exceeds the 4-slot capacity everywhere.
        assert not controller._fits_any_empty_instance(self.HUGE)

    def test_unplaceable_victim_raises_structured_error(self, monkeypatch):
        controller = controller_with(n_instances=2)
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0))
                for i in range(2)]
        controller.assign_all(jobs)
        monkeypatch.setattr(
            controller, "_fits_any_empty_instance", lambda vm_type: False
        )
        with pytest.raises(JobTooLargeError) as excinfo:
            controller.poll(10.0, 10.0)
        error = excinfo.value
        assert error.job_id in (0, 1)
        assert error.vm_type_name == JOB_2VCPU.name
        assert error.n_instances == 2
        assert "cannot ever succeed" in str(error)

    def test_is_a_validation_error(self):
        assert issubclass(JobTooLargeError, ValidationError)


class TestInjectedRestartFailures:
    def make_injector(self, rate):
        schedule = FaultSchedule(
            spec=FaultSpec(restart_failure_rate=rate),
            horizon_s=3600.0,
            events=(),
        )
        return FaultInjector(schedule, RngFactory(5).spawn("fault-draws", 0))

    def test_injected_failure_keeps_job_on_source(self):
        controller = controller_with(
            n_instances=2, fault_injector=self.make_injector(1.0)
        )
        jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0))
                for i in range(2)]
        controller.assign_all(jobs)
        controller.poll(10.0, 10.0)

        assert controller.migrations == 0
        assert controller.failed_restarts >= 1
        assert controller.failed_migrations == controller.failed_restarts
        # The interruption was still paid even though the restart died.
        assert controller.interruption_seconds >= 10.0
        assert controller.datacenter.machine(0).n_vms == 2

    def test_zero_rate_injector_changes_nothing(self):
        faulted = controller_with(
            n_instances=2, fault_injector=self.make_injector(0.0)
        )
        plain = controller_with(n_instances=2)
        for controller in (faulted, plain):
            jobs = [VirtualMachine(i, JOB_2VCPU, ConstantTrace(1.0))
                    for i in range(2)]
            controller.assign_all(jobs)
            controller.poll(10.0, 10.0)
        assert faulted.migrations == plain.migrations
        assert faulted.failed_restarts == plain.failed_restarts == 0
