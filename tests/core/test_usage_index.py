"""Tests for the incremental usage-class index and its policy view."""

import pytest

from repro.cluster.ec2 import ec2_pm_shape, ec2_vm_type
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core import policy as policy_module
from repro.core.permutations import balanced_placement
from repro.core.policy import (
    DEFAULT_CANDIDATE_CACHE_SIZE,
    PlacementDecision,
    ProfileScorePolicy,
)
from repro.core.soa import SoADatacenter
from repro.core.usage_index import IndexedMachines
from repro.traces.base import ConstantTrace
from repro.util.validation import ValidationError


def toy_datacenter(toy_shape, count=4):
    return SoADatacenter.from_machines([
        PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)
    ])


def place(datacenter, vm_id, vm_type, pm_id):
    machine = datacenter.machine(pm_id)
    placement = balanced_placement(machine.shape, machine.usage, vm_type)
    assert placement is not None
    vm = VirtualMachine(vm_id, vm_type, ConstantTrace(0.5))
    datacenter.apply(vm, PlacementDecision(pm_id=pm_id, placement=placement))
    return vm


class TestIndexMaintenance:
    def test_fresh_datacenter_all_unused(self, toy_shape):
        dc = toy_datacenter(toy_shape)
        index = dc.usage_index
        assert index.n_used == 0
        assert index.n_classes == 0
        assert [m.pm_id for m in index.healthy_machines()] == [0, 1, 2, 3]
        assert index.used_machines() == []

    def test_place_moves_machine_into_a_used_class(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=1)
        index = dc.usage_index
        assert index.n_used == 1
        assert [m.pm_id for m in index.used_machines()] == [1]
        assert index.canonical_usage(1) == toy_shape.canonicalize(
            dc.machine(1).usage
        )

    def test_equal_usages_share_one_class(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        for vm_id, pm_id in enumerate((0, 2, 3)):
            place(dc, vm_id, vm2, pm_id=pm_id)
        index = dc.usage_index
        assert index.n_used == 3
        assert index.n_classes == 1
        (class_id,) = {int(index.class_ids[pos]) for pos in (0, 2, 3)}
        assert index.class_ids[1] == -1
        table = dc.indexed_machines().class_table
        assert table.n_classes == 1
        assert table.rep[class_id] == 0
        assert table.size[class_id] == 3

    def test_distinct_usages_split_classes(self, toy_shape, vm2, vm4):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        place(dc, 1, vm4, pm_id=1)
        index = dc.usage_index
        assert index.n_classes == 2
        assert index.class_ids[0] != index.class_ids[1]
        assert index.table.size == [1, 1]

    def test_evict_returns_machine_to_unused(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        dc.evict(0)
        index = dc.usage_index
        assert index.n_used == 0
        assert index.n_classes == 0
        assert [m.pm_id for m in index.healthy_machines()] == [0, 1, 2, 3]
        # The emptied class keeps its id with size 0; PM 0 has none.
        assert index.class_ids[0] == -1
        assert index.table.size == [0]

    def test_crash_hides_machine_repair_restores_it(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=2)
        dc.crash_machine(2)
        index = dc.usage_index
        assert index.n_used == 0
        assert [m.pm_id for m in index.healthy_machines()] == [0, 1, 3]
        assert index.canonical_usage(2) is None
        dc.repair_machine(2)
        assert [m.pm_id for m in index.healthy_machines()] == [0, 1, 2, 3]
        assert index.n_used == 0  # repaired PMs come back empty

    def test_migrate_refreshes_both_ends(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        target = dc.machine(3)
        placement = balanced_placement(target.shape, target.usage, vm2)
        dc.migrate(0, PlacementDecision(pm_id=3, placement=placement))
        assert [m.pm_id for m in dc.usage_index.used_machines()] == [3]

    def test_unknown_pm_rejected(self, toy_shape):
        dc = toy_datacenter(toy_shape)
        with pytest.raises(KeyError):
            dc.crash_machine(99)

    def test_duplicate_pm_ids_rejected(self, toy_shape):
        machines = [
            PhysicalMachine(7, toy_shape, type_name="M3") for _ in range(2)
        ]
        with pytest.raises(ValidationError):
            SoADatacenter.from_machines(machines)


class TestConsistencyCheck:
    def test_maintained_index_matches_fresh_scan(self, toy_shape, vm2, vm4):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        place(dc, 1, vm4, pm_id=1)
        dc.evict(0)
        dc.crash_machine(2)
        dc.repair_machine(2)
        assert dc.usage_index.check_consistency() == []

    def test_out_of_band_mutation_detected(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        usage = dc.machine(0).usage
        # Corrupt the usage PM 0 serves behind the index's back.
        dc._usage_cache[0] = ((usage[0][0] + 1,) + usage[0][1:],) + usage[1:]
        problems = dc.usage_index.check_consistency()
        assert problems
        assert any("canonical usage" in p for p in problems)

    def test_dropped_representative_detected(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        for vm_id, pm_id in enumerate((0, 2, 3)):
            place(dc, vm_id, vm2, pm_id=pm_id)
        index = dc.usage_index
        class_id = int(index.class_ids[0])
        # Drop the representative from the member list behind the
        # table's back, leaving its rep/size columns as they were.
        del index.table.members[class_id][0]
        problems = index.check_consistency()
        assert any("used classes" in p for p in problems)
        assert any(f"class table row {class_id}" in p for p in problems)

    def test_canonical_usage_shares_the_interned_key(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=0)
        place(dc, 1, vm2, pm_id=2)
        index = dc.usage_index
        class_id = int(index.class_ids[0])
        key_usage = index.table.keys[class_id][1]
        assert index.canonical_usage(0) is key_usage
        assert index.canonical_usage(2) is key_usage


def interleaved_fleet(count=12):
    """M3 at even positions, C3 at odd ones."""
    names = ("M3", "C3")
    return SoADatacenter([
        (i, ec2_pm_shape(names[i % 2]), names[i % 2]) for i in range(count)
    ])


class TestColumnBuild:
    def test_interleaved_fleet_rebuild_matches_upkeep(self):
        dc = interleaved_fleet()
        small, large = ec2_vm_type("m3.medium"), ec2_vm_type("m3.large")
        # Out of inventory order, so the upkeep interns class ids in
        # another order than a build does.
        for vm_id, (vm_type, pm_id) in enumerate([
            (large, 10), (large, 9), (small, 6), (small, 2), (large, 1),
            (small, 5), (small, 3),
        ]):
            place(dc, vm_id, vm_type, pm_id)
        dc.evict(1)           # PM 9 (C3) empty again
        dc.crash_machine(3)   # a used C3
        dc.crash_machine(4)   # an empty M3
        index = dc.usage_index
        table = index.table

        def keys_by_position():
            return [
                table.keys[c] if c >= 0 else None
                for c in index.class_ids.tolist()
            ]

        upkeep_keys = keys_by_position()
        upkeep_classes = table.live_classes()
        assert list(dict.fromkeys(
            c for c in index.class_ids.tolist() if c >= 0
        )) != list(range(table.n_live))
        dc.rebuild()
        table = index.table
        assert index.check_consistency() == []
        assert keys_by_position() == upkeep_keys
        assert table.live_classes() == upkeep_classes
        # Rebuilt used class ids come out in inventory order.
        assert list(dict.fromkeys(
            c for c in index.class_ids.tolist() if c >= 0
        )) == list(range(table.n_classes))
        classes = dc.indexed_machines().unused_classes()
        assert [
            (c.shape, c.representative.pm_id, c.size) for c in classes
        ] == [(ec2_pm_shape("M3"), 0, 2), (ec2_pm_shape("C3"), 7, 3)]

    def test_fresh_fleet_reads_no_usage(self):
        dc = interleaved_fleet()
        dc.usage_index.rebuild()
        assert dc._usage_cache == [None] * dc.n_machines
        index = dc.usage_index
        for first in (0, 1):
            zeros = {
                id(index.canonical_usage(pm_id))
                for pm_id in range(first, dc.n_machines, 2)
            }
            assert len(zeros) == 1
        assert index.canonical_usage(0) == ec2_pm_shape("M3").empty_usage()
        assert index.canonical_usage(1) == ec2_pm_shape("C3").empty_usage()


class TestIndexedView:
    def test_sequence_protocol_over_healthy(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm2, pm_id=1)
        dc.crash_machine(3)
        view = dc.indexed_machines()
        assert isinstance(view, IndexedMachines)
        assert len(view) == 3
        assert [m.pm_id for m in view] == [0, 1, 2]
        assert view[1].pm_id == 1
        assert [m.pm_id for m in view[0:2]] == [0, 1]

    def test_excluding_hides_one_pm(self, toy_shape, vm2):
        dc = toy_datacenter(toy_shape)
        for vm_id, pm_id in enumerate((0, 1)):
            place(dc, vm_id, vm2, pm_id=pm_id)
        view = dc.indexed_machines().excluding(0)
        assert [m.pm_id for m in view] == [1, 2, 3]
        assert [m.pm_id for m in view.used_list()] == [1]
        # The table row is view-independent; the ranking skips PM 0 and
        # lands on the class's next member.
        (class_id,) = set(view.index.class_ids[:2].tolist())
        assert view.class_table.rep[class_id] == 0
        assert view.class_table.size[class_id] == 2
        assert UtilizationPolicy().select(vm2, dc.indexed_machines()).pm_id == 0
        assert UtilizationPolicy().select(vm2, view).pm_id == 1

    def test_excluding_again_replaces_previous(self, toy_shape):
        dc = toy_datacenter(toy_shape)
        view = dc.indexed_machines().excluding(0).excluding(2)
        assert view.excluded_pm == 2
        assert [m.pm_id for m in view] == [0, 1, 3]

    def test_class_fully_excluded_disappears(self, toy_shape, vm2, vm4):
        dc = toy_datacenter(toy_shape)
        place(dc, 0, vm4, pm_id=2)
        view = dc.indexed_machines().excluding(2)
        assert view.used_list() == []
        assert UtilizationPolicy().select(vm2, dc.indexed_machines()).pm_id == 2
        assert UtilizationPolicy().select(vm2, view).pm_id == 0

    def test_unused_classes_group_by_shape(self, toy_shape, mixed_shape):
        machines = [
            PhysicalMachine(0, toy_shape, type_name="M3"),
            PhysicalMachine(1, mixed_shape, type_name="C3"),
            PhysicalMachine(2, toy_shape, type_name="M3"),
        ]
        dc = SoADatacenter.from_machines(machines)
        classes = dc.indexed_machines().unused_classes()
        assert [(c.representative.pm_id, c.size) for c in classes] == [
            (0, 2), (1, 1),
        ]
        assert all(
            all(u == 0 for group in c.usage for u in group) for c in classes
        )


class UtilizationPolicy(ProfileScorePolicy):
    name = "util"

    def profile_score(self, shape, usage):
        return shape.utilization(usage)


class TestCandidateCacheLRU:
    def test_default_bound_matches_module_constant(self):
        info = UtilizationPolicy().cache_info()
        assert info.maxsize == DEFAULT_CANDIDATE_CACHE_SIZE
        assert info == (0, 0, DEFAULT_CANDIDATE_CACHE_SIZE, 0)

    def test_hits_and_misses_counted(self, toy_shape, vm2):
        policy = UtilizationPolicy()
        empty = toy_shape.empty_usage()
        policy.best_candidate(toy_shape, empty, vm2)
        policy.best_candidate(toy_shape, empty, vm2)
        info = policy.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_bound_enforced_with_lru_eviction(
        self, toy_shape, vm2, monkeypatch
    ):
        monkeypatch.setattr(policy_module, "DEFAULT_CANDIDATE_CACHE_SIZE", 2)
        policy = UtilizationPolicy()
        usages = [
            ((0, 0, 0, 0),),
            ((1, 0, 0, 0),),
            ((1, 1, 0, 0),),
        ]
        for usage in usages:
            policy.best_candidate(toy_shape, usage, vm2)
        assert policy.cache_info().currsize == 2
        # usages[0] was the least recently used entry, so it was evicted;
        # re-querying it must miss while usages[2] still hits.
        before = policy.cache_info()
        policy.best_candidate(toy_shape, usages[2], vm2)
        assert policy.cache_info().hits == before.hits + 1
        policy.best_candidate(toy_shape, usages[0], vm2)
        assert policy.cache_info().misses == before.misses + 1

    def test_hit_refreshes_recency(self, toy_shape, vm2, monkeypatch):
        monkeypatch.setattr(policy_module, "DEFAULT_CANDIDATE_CACHE_SIZE", 2)
        policy = UtilizationPolicy()
        a = ((0, 0, 0, 0),)
        b = ((1, 0, 0, 0),)
        c = ((1, 1, 0, 0),)
        policy.best_candidate(toy_shape, a, vm2)
        policy.best_candidate(toy_shape, b, vm2)
        policy.best_candidate(toy_shape, a, vm2)  # refresh a; b is now LRU
        policy.best_candidate(toy_shape, c, vm2)  # evicts b
        before = policy.cache_info()
        policy.best_candidate(toy_shape, a, vm2)
        assert policy.cache_info().hits == before.hits + 1

    def test_invalidate_resets_everything(self, toy_shape, vm2):
        policy = UtilizationPolicy()
        policy.best_candidate(toy_shape, toy_shape.empty_usage(), vm2)
        policy.invalidate_cache()
        assert policy.cache_info() == (
            0, 0, DEFAULT_CANDIDATE_CACHE_SIZE, 0,
        )
