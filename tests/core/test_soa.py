"""Unit tests of the struct-of-arrays core: columns, class table, epochs.

The end-to-end identity of the SoA substrate is covered in
``tests/cluster/test_soa_identity.py``; here the individual mechanisms
are pinned down — class-id interning, the per-row usage-tuple cache,
rebuild/epoch invalidation of the policy memo (the LRU-vs-bulk-rebuild
contract), and the I2 column audit.
"""

import pytest

from repro.analysis.invariants import audit_datacenter
from repro.baselines import BestFitPolicy, FFDSumPolicy, FirstFitPolicy
from repro.cluster.ec2 import ec2_pm_shape, ec2_vm_type
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.core.usage_index import (
    _NO_REP,
    IndexedMachines,
    SoAClassTable,
    UsageClassIndex,
)
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
        a = table.intern(("shape", "a"))
        b = table.intern(("shape", "b"))
        assert (a, b) == (0, 1)
        assert table.intern(("shape", "a")) == a
        table.add(a, 5)
        table.add(a, 3)
        table.add(b, 1)
        assert table.n_classes == 2
        assert table.lookup(("shape", "a")) == 0
        assert table.lookup(("shape", "missing")) == -1
        assert table.members == [[3, 5], [1]]
        assert table.rep == [3, 1]
        assert table.size == [2, 1]
        assert table.n_live == 2

    def test_emptied_class_keeps_its_id(self):
        table = SoAClassTable()
        a = table.intern(("shape", "a"))
        table.add(a, 2)
        table.remove(a, 2)
        assert table.lookup(("shape", "a")) == a
        assert table.members[a] == []
        assert table.size[a] == 0
        assert table.rep[a] == _NO_REP
        assert table.n_live == 0
        assert table.live_classes() == {}
        # Refilling reuses the id: memoized per-id scores stay valid.
        assert table.intern(("shape", "a")) == a
        table.add(a, 7)
        assert table.rep[a] == 7
        assert table.live_classes() == {("shape", "a"): [7]}

    def test_removing_the_representative_hands_it_on(self):
        table = SoAClassTable()
        a = table.intern(("shape", "a"))
        for pos in (4, 9, 6):
            table.add(a, pos)
        table.remove(a, 4)
        assert (table.rep[a], table.size[a]) == (6, 2)
        with pytest.raises(ValueError):
            table.remove(a, 4)

    def test_columns_grow_past_the_initial_capacity(self):
        table = SoAClassTable()
        for i in range(200):
            table.add(table.intern(("shape", i)), i)
        assert table.n_classes == 200
        assert table.rep[150] == 150
        assert table.size[150] == 1


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


class TestPolicyOutlivesIndex:
    @pytest.mark.parametrize(
        "make_policy", [BestFitPolicy, FFDSumPolicy], ids=["BestFit", "FFDSum"]
    )
    def test_reused_policy_matches_fresh_across_short_lived_indexes(
        self, make_policy
    ):
        # One policy serves 400 short-lived indexes, alternately over a
        # fleet whose PM 0 holds two m3.2xlarge and one whose PM 0 holds
        # two m3.medium.  Class id 0 is PM 0's class in both, but only
        # the second fits a third m3.2xlarge.  A freed index's address
        # is often handed to the next one, so a memo guard keyed on
        # ``id(index)`` serves the other fleet's rows for id 0.
        shape = ec2_pm_shape("M3")
        q = ec2_vm_type("m3.2xlarge")
        fleets = []
        for filler in (q, ec2_vm_type("m3.medium")):
            dc = SoADatacenter([(i, shape, "M3") for i in range(8)])
            place(dc, FirstFitPolicy(), 0, filler)
            place(dc, FirstFitPolicy(), 1, filler)
            fleets.append(dc)
        reused = make_policy()
        for k in range(400):
            index = UsageClassIndex(fleets[k % 2])
            view = IndexedMachines(index)
            got = reused.select(q, view)
            want = make_policy().select(q, view)
            assert (got.pm_id, got.placement) == (want.pm_id, want.placement)
            del index, view


class TestMachineViews:
    def test_flags_are_python_bools(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape, count=2)
        place(dc, PageRankVMPolicy({toy_shape: toy_table}), 0, vm2)
        used, empty = dc.machine(dc.locate(0)), dc.machine(
            1 - dc.locate(0)
        )
        assert (used.is_used, empty.is_used) == (True, False)
        for view in (used, empty):
            assert type(view.is_used) is bool
            assert type(view.is_failed) is bool

    def test_equal_shapes_share_an_id_in_first_seen_order(self):
        m3, c3 = ec2_pm_shape("M3"), ec2_pm_shape("C3")
        m3_again = type(m3)(groups=m3.groups)
        assert m3_again == m3 and m3_again is not m3
        dc = SoADatacenter([
            (0, c3, "C3"), (1, m3, "M3"), (2, m3_again, "M3"), (3, c3, "C3"),
        ])
        assert dc.columns.shape_id.tolist() == [0, 1, 1, 0]
        assert [dc.machine(i).shape for i in range(4)] == [c3, m3, m3, c3]


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

    def test_writes_fill_the_usage_cache(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        pos = dc.locate(0)
        cached = dc._usage_cache[pos]
        assert cached is not None
        info = dc._info_of_pos(pos)
        assert cached == info.usage_tuple(dc.columns.usage[pos])
        dc.evict(0)
        assert dc._usage_cache[pos] == info.usage_tuple(
            dc.columns.usage[pos]
        )

    def test_tampered_usage_cache_fails_i2(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        pos = dc.locate(0)
        usage = dc._usage_cache[pos]
        # Only the cache is corrupted; the columns and records agree.
        dc._usage_cache[pos] = ((usage[0][0] + 1,) + usage[0][1:],) + usage[1:]
        problems = dc.check_columns()
        assert len(problems) == 1
        assert "usage cache" in problems[0]
        report = audit_datacenter(dc, expected_vm_ids=[0])
        assert "I2" in report.constraint_ids()


class TestTransitionMemo:
    def test_equal_writes_share_one_entry_and_usage(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        first = place(dc, policy, 0, vm2)
        second = policy.select(vm2, dc.indexed_machines().excluding(0))
        assert second.placement is first.placement
        dc.apply(VirtualMachine(1, vm2, ConstantTrace(0.3)), second)
        assert len(dc._transitions) == 1
        a, b = (dc._usage_cache[dc.locate(v)] for v in (0, 1))
        assert a is b
        dc.evict(0)
        dc.evict(1)
        assert len(dc._transitions) == 2  # one removal entry for both
        assert dc.check_columns() == []

    def test_failed_write_leaves_memo_and_row(self, toy_shape, vm2):
        from repro.core.permutations import Placement
        from repro.core.policy import PlacementDecision
        from repro.util.validation import ValidationError

        dc = soa_datacenter(toy_shape)
        over = PlacementDecision(pm_id=0, placement=Placement(
            new_usage=toy_shape.empty_usage(), assignments=(((0, 5),),),
        ))
        for _ in range(2):
            with pytest.raises(ValidationError, match="capacity exceeded"):
                dc.apply(VirtualMachine(0, vm2, ConstantTrace(0.3)), over)
            assert dc._transitions == {}
            assert dc.columns.usage[0].tolist() == [0, 0, 0, 0]

    def test_writes_after_rebuild_match_a_fresh_datacenter(
        self, toy_shape, toy_table, vm2, vm4
    ):
        """The memo survives ``rebuild`` (it is keyed by value): writes
        after it hit entries made before it, leave I1 and I2 clean and
        decide as a datacenter that never rebuilt."""
        import hashlib

        from repro.core.policy import PlacementDecision

        def run(rebuild):
            dc = soa_datacenter(toy_shape)
            policy = PageRankVMPolicy({toy_shape: toy_table})
            digest = hashlib.sha256()
            first = None
            for step in range(24):
                if step == 12:
                    if rebuild:
                        dc.rebuild()
                    # The first placement (a vm4) again, on an empty PM: the
                    # transition made before the rebuild is a hit.
                    size = len(dc._transitions)
                    empty = dc.indexed_machines().unused_list()[0].pm_id
                    dc.apply(
                        VirtualMachine(99, vm4, ConstantTrace(0.3)),
                        PlacementDecision(empty, first.placement),
                    )
                    assert len(dc._transitions) == size
                if step % 5 == 4:
                    dc.evict(step - 3)
                    continue
                vm_type = (vm2, vm4)[step % 3 == 0]
                decision = place(dc, policy, step, vm_type)
                first = first or decision
                digest.update(repr(
                    (decision.pm_id, decision.placement.assignments)
                ).encode())
                assert dc.usage_index.check_consistency() == []
                assert dc.check_columns() == []
            return digest.hexdigest(), dc.columns.usage.tolist()

        assert run(rebuild=True) == run(rebuild=False)


def test_transition_memo_stays_bounded_over_a_fleet_day(monkeypatch):
    """A 10k-PM day (e2ebench ``fleet_day``'s point) never holds more
    than ``TRANSITION_MEMO_SIZE`` transitions, and most writes hit."""
    from repro.core.soa import datacenter as soa_module
    from repro.experiments.sweep import run_point, sweep_table

    seen = {"writes": 0, "misses": 0}
    transition = SoADatacenter._transition

    def observed(self, pos, assignments, placing, vm_id):
        size = len(self._transitions)
        entry = transition(self, pos, assignments, placing, vm_id)
        assert len(self._transitions) <= soa_module.TRANSITION_MEMO_SIZE
        seen["writes"] += 1
        seen["misses"] += len(self._transitions) != size
        return entry

    monkeypatch.setattr(SoADatacenter, "_transition", observed)
    run_point(sweep_table(), 10_000)
    assert seen["writes"] > 100 * seen["misses"] > 0, seen
