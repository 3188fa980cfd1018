"""Unit tests of the struct-of-arrays core: columns, class table, epochs.

The end-to-end identity of the SoA substrate is covered in
``tests/cluster/test_soa_identity.py``; here the individual mechanisms
are pinned down — class-id interning, the per-row usage-tuple cache,
rebuild/epoch invalidation of the policy memo (the LRU-vs-bulk-rebuild
contract), and the I2 column audit.
"""

import pytest

from repro.analysis.invariants import audit_datacenter
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.core.usage_index import SoAClassTable
from repro.traces.base import ConstantTrace


def soa_datacenter(toy_shape, count=8):
    return SoADatacenter([(i, toy_shape, "M3") for i in range(count)])


def place(dc, policy, vm_id, vm_type):
    decision = policy.select(vm_type, dc.indexed_machines())
    assert decision is not None
    dc.apply(VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), decision)
    return decision


class TestSoAClassTable:
    def test_ids_are_dense_and_monotone(self):
        table = SoAClassTable()
        a = table.update(("shape", "a"), [3, 5])
        b = table.update(("shape", "b"), [1])
        assert (a, b) == (0, 1)
        assert table.n_classes == 2
        assert table.lookup(("shape", "a")) == 0
        assert table.lookup(("shape", "missing")) == -1
        assert list(table.rep) == [3, 1]
        assert list(table.size) == [2, 1]

    def test_emptied_class_keeps_its_id(self):
        table = SoAClassTable()
        a = table.update(("shape", "a"), [2])
        table.update(("shape", "a"), None)
        assert table.lookup(("shape", "a")) == a
        assert int(table.size[a]) == 0
        # Refilling reuses the id: memoized per-id scores stay valid.
        assert table.update(("shape", "a"), [7]) == a
        assert int(table.rep[a]) == 7

    def test_columns_grow_past_the_initial_capacity(self):
        table = SoAClassTable()
        for i in range(200):
            table.update(("shape", i), [i])
        assert table.n_classes == 200
        assert int(table.rep[150]) == 150
        assert int(table.size[150]) == 1


class TestUsageTupleCache:
    def test_repeat_reads_hit_the_cache(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        first = machine.usage
        assert machine.usage is first  # cached tuple, not re-materialized

    def test_mutations_invalidate_the_cached_tuple(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        before = machine.usage
        place(dc, policy, 1, vm2)  # policy packs onto the same PM
        assert dc.locate(1) == machine.pm_id
        after = machine.usage
        assert after is not before
        assert sum(u for g in after for u in g) == 2 * sum(
            u for g in before for u in g
        )
        dc.evict(1)
        assert machine.usage == before

    def test_rebuild_drops_every_cached_tuple(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        before = machine.usage
        dc.rebuild()
        assert machine.usage == before  # value identical, freshly derived


class TestRebuildEpoch:
    def test_rebuild_bumps_epoch_and_reinterns_ids(
        self, toy_shape, toy_table, vm2, vm4
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        place(dc, policy, 1, vm4)
        index = dc.usage_index
        epoch = index.epoch
        dc.rebuild()
        assert index.epoch > epoch
        assert index.check_consistency() == []
        assert dc.check_columns() == []

    def test_policy_memo_invalidates_on_rebuild(
        self, toy_shape, toy_table, vm2, vm4
    ):
        # The satellite contract: the best-candidate LRU keys on class
        # content and survives incremental churn, but a bulk rebuild
        # re-interns class ids, so the policy must drop every memo
        # written under the old epoch — and still decide identically.
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        place(dc, policy, 1, vm4)
        policy.select(vm2, dc.indexed_machines())
        occupancy = policy.cache_info().currsize
        assert occupancy >= 2
        dc.rebuild()
        decision = policy.select(vm2, dc.indexed_machines())
        fresh = PageRankVMPolicy({toy_shape: toy_table}).select(
            vm2, dc.indexed_machines()
        )
        assert decision.pm_id == fresh.pm_id
        assert decision.placement == fresh.placement
        # The memo was cleared at the epoch bump: only the entries the
        # post-rebuild select warmed are present.
        assert policy.cache_info().currsize < occupancy

    def test_fresh_index_keeps_content_addressed_memo(
        self, toy_shape, toy_table, vm2
    ):
        # A *different* index (new run, same class content) must not
        # throw away the content-addressed candidate memo.
        dc1 = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc1, policy, 0, vm2)
        policy.select(vm2, dc1.indexed_machines())
        occupancy = policy.cache_info().currsize
        dc2 = soa_datacenter(toy_shape)
        policy.select(vm2, dc2.indexed_machines())
        assert policy.cache_info().currsize >= occupancy


class TestColumnAudit:
    def test_tampered_usage_column_fails_i2(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        report = audit_datacenter(dc, expected_vm_ids=[0])
        assert report.ok
        dc.columns.usage[0, 0] += 1  # simulate column corruption
        problems = dc.check_columns()
        assert problems and "usage column" in problems[0]
        report = audit_datacenter(dc, expected_vm_ids=[0])
        assert not report.ok
        assert any(v.constraint == "I2" for v in report.violations)
