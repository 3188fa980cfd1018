"""Tests for the runtime constraint auditor (constraints (1)-(11))."""

import dataclasses

import pytest

from repro.analysis.invariants import (
    CONSTRAINTS,
    AuditError,
    AuditReport,
    Violation,
    audit_datacenter,
    audit_score_table,
    audit_simulation,
    audit_solution,
    load_placements,
    save_placements,
)
from repro.baselines import FirstFitPolicy, MinimumMigrationTimeSelector
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.simulation import CloudSimulation, SimulationConfig
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import Placement, balanced_placement
from repro.core.policy import PlacementDecision
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import ScoreTable
from repro.core.soa import SoADatacenter
from repro.model.analytic import PlacementInstance, PlacementSolution
from repro.traces.base import ConstantTrace
from repro.util.validation import ValidationError


@pytest.fixture
def instance(toy_shape, vm2, vm4):
    return PlacementInstance(vms=(vm2, vm4), pms=(toy_shape, toy_shape))


def placement_for(shape, usage, vm):
    placed = balanced_placement(shape, usage, vm)
    assert placed is not None
    return placed


def feasible_solution(toy_shape, vm2, vm4):
    empty = toy_shape.empty_usage()
    return PlacementSolution(assignments=(
        (0, placement_for(toy_shape, empty, vm2)),
        (1, placement_for(toy_shape, empty, vm4)),
    ))


class TestViolationAndReport:
    def test_violation_str_carries_location(self):
        violation = Violation(
            constraint="C4", message="boom", vm_id=3, pm_id=7, group="cpu"
        )
        assert str(violation) == "[C4] VM 3, PM 7, group 'cpu': boom"

    def test_report_accessors(self):
        report = AuditReport(violations=[
            Violation(constraint="C5", message="a"),
            Violation(constraint="C1", message="b"),
            Violation(constraint="C5", message="c"),
        ])
        assert not report.ok
        assert report.constraint_ids() == ("C1", "C5")
        assert len(report.by_constraint("C5")) == 2
        assert "C1, C5" in report.summary()

    def test_ok_summary_mentions_coverage(self):
        report = AuditReport(checked_vms=3, checked_pms=2)
        assert report.ok
        assert "3 VMs, 2 PMs checked" in report.summary()

    def test_raise_if_failed(self):
        clean = AuditReport()
        assert clean.raise_if_failed() is clean
        failing = AuditReport(violations=[Violation("C1", "missing")])
        with pytest.raises(AuditError) as excinfo:
            failing.raise_if_failed()
        assert excinfo.value.report is failing
        assert isinstance(excinfo.value, ValidationError)
        assert "[C1]" in str(excinfo.value)

    def test_constraints_catalog_documents_all_ids(self):
        expected = {
            "C1", "C2", "C3", "C4", "C5", "C6", "C8", "C9", "C10", "C11",
            "T1", "T2", "T3", "T4", "I1", "I2",
        }
        assert set(CONSTRAINTS) == expected


class TestAuditSolution:
    def test_feasible_solution_passes(self, instance, toy_shape, vm2, vm4):
        report = audit_solution(
            instance, feasible_solution(toy_shape, vm2, vm4)
        )
        assert report.ok
        assert report.checked_vms == 2
        assert report.checked_pms == 2

    def test_missing_assignment_is_c1(self, instance, toy_shape, vm2):
        solution = PlacementSolution(assignments=(
            (0, placement_for(toy_shape, toy_shape.empty_usage(), vm2)),
        ))
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C1",)

    def test_pm_index_out_of_range_is_c1(self, instance, toy_shape, vm2, vm4):
        good = feasible_solution(toy_shape, vm2, vm4)
        solution = PlacementSolution(
            assignments=((9, good.assignments[0][1]), good.assignments[1])
        )
        report = audit_solution(instance, solution)
        assert "C1" in report.constraint_ids()

    def test_missing_chunk_is_c3(self, instance, toy_shape, vm2, vm4):
        solution = PlacementSolution(assignments=(
            (0, Placement(new_usage=((1, 0, 0, 0),),
                          assignments=(((0, 1),),))),  # vm2 needs two chunks
            feasible_solution(toy_shape, vm2, vm4).assignments[1],
        ))
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C3",)
        assert "placed chunks" in str(report.by_constraint("C3")[0])

    def test_collocated_chunks_are_c4(self, instance, toy_shape, vm2, vm4):
        # Both of vm2's unit chunks on core 0: capacity is fine (2 <= 4)
        # but anti-collocation (4) is violated.
        solution = PlacementSolution(assignments=(
            (0, Placement(new_usage=((2, 0, 0, 0),),
                          assignments=(((0, 1), (0, 1)),))),
            feasible_solution(toy_shape, vm2, vm4).assignments[1],
        ))
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C4",)
        violation = report.by_constraint("C4")[0]
        assert violation.vm_id == 0
        assert violation.group == "cpu"

    def test_overfull_unit_is_c5(self):
        # Two single-chunk VMs on the same core of a capacity-1 PM: each
        # placement is individually fine, the combined load is not.
        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(1, 1)),)
        )
        vm = VMType(name="vm1", demands=((1,),))
        on_core0 = Placement(new_usage=((1, 0),), assignments=(((0, 1),),))
        instance = PlacementInstance(vms=(vm, vm), pms=(shape,))
        solution = PlacementSolution(
            assignments=((0, on_core0), (0, on_core0))
        )
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C5",)
        assert report.by_constraint("C5")[0].pm_id == 0

    def test_scalar_group_uses_c6_not_c4(self):
        # A scalar (memory-style) group allows collocation but not
        # overflow: two 3-unit demands on a 4-unit bank violate (6).
        shape = MachineShape(groups=(
            ResourceGroup(name="mem", capacities=(4,), anti_collocation=False),
        ))
        vm = VMType(name="m3", demands=((3,),))
        on_bank = Placement(new_usage=((3,),), assignments=(((0, 3),),))
        instance = PlacementInstance(vms=(vm, vm), pms=(shape,))
        solution = PlacementSolution(assignments=((0, on_bank), (0, on_bank)))
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C6",)

    def test_later_ac_group_uses_c8_c9_c10(self):
        # cpu is the first AC group ((3)-(5)); disk is a later one and
        # must report via (8)-(10).
        shape = MachineShape(groups=(
            ResourceGroup(name="cpu", capacities=(2,)),
            ResourceGroup(name="disk", capacities=(2, 2)),
        ))
        vm = VMType(name="d2", demands=((1,), (1, 1)))
        collocated = Placement(
            new_usage=((1,), (2, 0)),
            assignments=(((0, 1),), ((0, 1), (0, 1))),
        )
        instance = PlacementInstance(vms=(vm,), pms=(shape,))
        report = audit_solution(
            instance, PlacementSolution(assignments=((0, collocated),))
        )
        assert report.constraint_ids() == ("C9",)

        incomplete = Placement(
            new_usage=((1,), (1, 0)),
            assignments=(((0, 1),), ((0, 1),)),
        )
        report = audit_solution(
            instance, PlacementSolution(assignments=((0, incomplete),))
        )
        assert report.constraint_ids() == ("C8",)

        vm_fat = VMType(name="dfat", demands=((1,), (2,)))
        fat = Placement(
            new_usage=((1,), (2, 0)),
            assignments=(((0, 1),), ((0, 2),)),
        )
        instance2 = PlacementInstance(vms=(vm_fat, vm_fat), pms=(shape,))
        report = audit_solution(
            instance2, PlacementSolution(assignments=((0, fat), (0, fat)))
        )
        assert report.constraint_ids() == ("C10",)

    def test_unit_out_of_range_is_c2(self, instance, toy_shape, vm2, vm4):
        solution = PlacementSolution(assignments=(
            (0, Placement(new_usage=((0, 0, 0, 0),),
                          assignments=(((4, 1), (5, 1)),))),
            feasible_solution(toy_shape, vm2, vm4).assignments[1],
        ))
        report = audit_solution(instance, solution)
        assert "C2" in report.constraint_ids()
        assert "out of range" in str(report.by_constraint("C2")[0])

    def test_group_count_mismatch_is_c2(self, instance, toy_shape, vm2, vm4):
        solution = PlacementSolution(assignments=(
            (0, Placement(new_usage=(), assignments=())),
            feasible_solution(toy_shape, vm2, vm4).assignments[1],
        ))
        report = audit_solution(instance, solution)
        assert report.constraint_ids() == ("C2",)

    def test_reported_cost_checked_as_c11(self, instance, toy_shape, vm2, vm4):
        solution = feasible_solution(toy_shape, vm2, vm4)
        ok = audit_solution(instance, solution, reported_cost=2.0)
        assert ok.ok
        bad = audit_solution(instance, solution, reported_cost=1.0)
        assert bad.constraint_ids() == ("C11",)


def toy_datacenter(toy_shape, count=3):
    return Datacenter([
        PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)
    ])


def place(datacenter, vm_id, vm_type, pm_id=0):
    machine = datacenter.machine(pm_id)
    placement = placement_for(machine.shape, machine.usage, vm_type)
    vm = VirtualMachine(vm_id, vm_type, ConstantTrace(0.5))
    datacenter.apply(vm, PlacementDecision(pm_id=pm_id, placement=placement))
    return vm


class TestAuditDatacenter:
    def test_clean_datacenter_passes(self, toy_shape, vm2, vm4):
        datacenter = toy_datacenter(toy_shape)
        place(datacenter, 0, vm2, pm_id=0)
        place(datacenter, 1, vm4, pm_id=1)
        report = audit_datacenter(datacenter, expected_vm_ids=[0, 1])
        assert report.ok, report.summary()
        assert report.checked_vms == 2
        assert report.checked_pms == 3

    def test_usage_corruption_is_c2(self, toy_shape, vm2):
        datacenter = SoADatacenter.from_machines(
            toy_datacenter(toy_shape).machines
        )
        place(datacenter, 0, vm2)
        # Bit-flip the committed usage PM 0 reports, mirrored into its
        # canonical column so the columns (I2) stay self-consistent.
        usage = datacenter.machine(0).usage
        corrupted = ((usage[0][0] + 1,) + usage[0][1:],) + usage[1:]
        datacenter._usage_cache[0] = corrupted
        canonical = toy_shape.canonicalize(corrupted)
        flat = [u for group in canonical for u in group]
        datacenter.columns.canon[0, : len(flat)] = flat
        report = audit_datacenter(datacenter)
        # The corrupted usage breaks conservation (C2) and makes the
        # usage-class index stale relative to a fresh scan (I1).
        assert report.constraint_ids() == ("C2", "I1")
        assert "conservation" in str(report.by_constraint("C2")[0])
        assert "index stale" in str(report.by_constraint("I1")[0])

    def test_duplicate_hosting_is_c1(self, toy_shape, vm2):
        datacenter = toy_datacenter(toy_shape)
        vm = place(datacenter, 0, vm2, pm_id=0)
        machine = datacenter.machine(1)
        machine.place(vm, placement_for(toy_shape, machine.usage, vm2))
        report = audit_datacenter(datacenter)
        assert "C1" in report.constraint_ids()

    def test_expected_set_mismatch_is_c1(self, toy_shape, vm2):
        datacenter = toy_datacenter(toy_shape)
        place(datacenter, 0, vm2)
        missing = audit_datacenter(datacenter, expected_vm_ids=[0, 1])
        assert missing.constraint_ids() == ("C1",)
        assert "not hosted" in str(missing.by_constraint("C1")[0])
        extra = audit_datacenter(datacenter, expected_vm_ids=[])
        assert extra.constraint_ids() == ("C1",)

    def test_stale_location_index_is_c2(self, toy_shape, vm2):
        datacenter = toy_datacenter(toy_shape)
        place(datacenter, 0, vm2, pm_id=0)
        datacenter._vm_location[0] = 2  # index says an idle PM hosts it
        report = audit_datacenter(datacenter)
        assert report.constraint_ids() == ("C2",)
        assert "location index" in str(report.by_constraint("C2")[0])


def run_toy_simulation(toy_shape, vm_type, n_vms=6):
    datacenter = toy_datacenter(toy_shape, count=4)
    simulation = CloudSimulation(
        datacenter,
        FirstFitPolicy(),
        MinimumMigrationTimeSelector(),
        SimulationConfig(duration_s=1800.0, monitor_interval_s=300.0),
    )
    vms = [
        VirtualMachine(i, vm_type, ConstantTrace(0.2)) for i in range(n_vms)
    ]
    return datacenter, simulation.run(vms)


class TestAuditSimulation:
    def test_clean_run_passes(self, toy_shape, vm2):
        datacenter, result = run_toy_simulation(toy_shape, vm2)
        report = audit_simulation(datacenter, result)
        assert report.ok, report.summary()
        assert report.subject == "simulation[FF]"

    def test_wrong_final_pm_count_is_c11(self, toy_shape, vm2):
        datacenter, result = run_toy_simulation(toy_shape, vm2)
        doctored = dataclasses.replace(
            result, pms_used_final=result.pms_used_final + 1
        )
        report = audit_simulation(datacenter, doctored)
        assert "C11" in report.constraint_ids()

    def test_peak_below_final_is_c11(self, toy_shape, vm2):
        datacenter, result = run_toy_simulation(toy_shape, vm2)
        doctored = dataclasses.replace(result, pms_used_peak=0)
        report = audit_simulation(datacenter, doctored)
        assert "C11" in report.constraint_ids()

    def test_lost_vm_is_c1(self, toy_shape, vm2):
        datacenter, result = run_toy_simulation(toy_shape, vm2)
        datacenter.evict(0)
        report = audit_simulation(datacenter, result)
        assert "C1" in report.constraint_ids()
        assert audit_simulation(
            datacenter, result, expect_all_hosted=False
        ).ok

    def test_constraint_audit_fixture(self, toy_shape, vm2, constraint_audit):
        datacenter, result = run_toy_simulation(toy_shape, vm2)
        assert constraint_audit(datacenter, result).ok
        datacenter.machine(0)._usage[0][0] += 1
        with pytest.raises(AuditError):
            constraint_audit(datacenter, result)


def tampered_copy(table, mutate):
    scores = dict(table._scores)
    mutate(scores)
    return ScoreTable(
        table.shape,
        scores,
        damping=table.damping,
        strategy=table.strategy,
        vote_direction=table.vote_direction,
    )


class TestAuditScoreTable:
    def test_clean_table_passes(self, toy_table):
        report = audit_score_table(toy_table)
        assert report.ok
        assert report.checked_pms == len(toy_table)
        assert "profiles checked" in report.summary()

    def test_clean_table_matches_its_graph(self, toy_table, toy_graph):
        assert audit_score_table(toy_table, graph=toy_graph).ok

    def test_non_canonical_profile_is_t1(self, toy_table):
        bad = tampered_copy(
            toy_table, lambda s: s.update({((1, 0, 0, 0),): 0.5})
        )
        assert "T1" in audit_score_table(bad).constraint_ids()

    def test_invalid_profile_is_t2(self, toy_table):
        bad = tampered_copy(
            toy_table, lambda s: s.update({((0, 0, 0, 9),): 0.5})
        )
        assert "T2" in audit_score_table(bad).constraint_ids()

    def test_negative_score_is_t3(self, toy_table):
        usage = next(iter(toy_table._scores))
        bad = tampered_copy(toy_table, lambda s: s.update({usage: -1.0}))
        assert "T3" in audit_score_table(bad).constraint_ids()

    def test_score_drift_is_t4(self, toy_table, toy_graph):
        usage = next(iter(toy_table._scores))
        drifted = tampered_copy(
            toy_table, lambda s: s.update({usage: s[usage] + 0.25})
        )
        assert audit_score_table(drifted).ok  # structurally fine
        report = audit_score_table(drifted, graph=toy_graph)
        assert report.constraint_ids() == ("T4",)

    def test_extra_profile_is_t4_against_graph(self, toy_table, toy_graph):
        # ((2, 2, 3, 3),) is canonical and valid but, with a score count
        # mismatch, the rebuild comparison must flag it.
        bad = tampered_copy(
            toy_table, lambda s: s.update({((2, 2, 3, 3),): 0.5})
        )
        report = audit_score_table(bad, graph=toy_graph)
        assert "T4" in report.constraint_ids()


class TestPlacementsPersistence:
    def test_roundtrip_preserves_audit_verdict(
        self, tmp_path, instance, toy_shape, vm2, vm4
    ):
        solution = feasible_solution(toy_shape, vm2, vm4)
        path = tmp_path / "placements.json"
        save_placements(instance, solution, path)
        loaded_instance, loaded_solution = load_placements(path)
        assert audit_solution(loaded_instance, loaded_solution).ok
        assert [vm.name for vm in loaded_instance.vms] == ["vm2", "vm4"]
        assert loaded_instance.pms == instance.pms
        assert loaded_solution.open_pms() == solution.open_pms()

    def test_roundtrip_preserves_violations(
        self, tmp_path, instance, toy_shape, vm2, vm4
    ):
        collocated = PlacementSolution(assignments=(
            (0, Placement(new_usage=((2, 0, 0, 0),),
                          assignments=(((0, 1), (0, 1)),))),
            feasible_solution(toy_shape, vm2, vm4).assignments[1],
        ))
        path = tmp_path / "bad.json"
        save_placements(instance, collocated, path)
        report = audit_solution(*load_placements(path))
        assert report.constraint_ids() == ("C4",)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text('{"format": "something.else"}')
        with pytest.raises(ValidationError):
            load_placements(path)
