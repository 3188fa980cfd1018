"""Tests for the PageRankVM allocation policy (Algorithm 2)."""

import logging

import numpy as np
import pytest

from repro.baselines.ffd_sum import FFDSumPolicy
from repro.core.graph import SuccessorStrategy
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup
from repro.core.score_table import build_score_table
from repro.util.validation import ValidationError


@pytest.fixture
def policy(toy_shape, toy_table):
    return PageRankVMPolicy({toy_shape: toy_table})


class TestConstruction:
    def test_requires_tables(self):
        with pytest.raises(ValidationError):
            PageRankVMPolicy({})

    def test_for_shapes_builds_tables(self, toy_shape, toy_vm_types):
        policy = PageRankVMPolicy.for_shapes(
            [toy_shape, toy_shape], toy_vm_types, mode="full"
        )
        assert len(policy.tables) == 1

    def test_table_for_unknown_shape_raises(self, policy, mixed_shape):
        with pytest.raises(KeyError):
            policy.table_for(mixed_shape)

    def test_name(self, policy):
        assert policy.name == "PageRankVM"

    def test_for_shapes_with_graph_cache(
        self, tmp_path, toy_shape, toy_vm_types
    ):
        cached = PageRankVMPolicy.for_shapes(
            [toy_shape], toy_vm_types, graph_cache_dir=tmp_path
        )
        plain = PageRankVMPolicy.for_shapes([toy_shape], toy_vm_types)
        assert dict(cached.tables[toy_shape].items()) == dict(
            plain.tables[toy_shape].items()
        )


class TestShapeKey:
    def test_known_shape_maps_to_dense_index(self, policy, toy_shape):
        assert policy._shape_key(toy_shape) == 0

    def test_unknown_shape_is_pure_lookup(self, policy, mixed_shape):
        # The old setdefault-based key mutated the policy on the read
        # path: unbounded growth, and divergent ids across pool workers.
        before = dict(policy._shape_ids)
        key = policy._shape_key(mixed_shape)
        assert key == mixed_shape
        assert policy._shape_ids == before

    def test_unknown_shape_key_is_deterministic(self, policy, mixed_shape):
        keys = {policy._shape_key(mixed_shape) for _ in range(5)}
        assert len(keys) == 1


class TestScoring:
    def test_profile_score_matches_table(self, policy, toy_shape, toy_table):
        usage = ((1, 1, 2, 2),)
        assert policy.profile_score(toy_shape, usage) == toy_table.score_or_snap(
            usage
        )

    def test_candidate_mode_follows_table_strategy(
        self, toy_shape, toy_vm_types
    ):
        from repro.core.graph import SuccessorStrategy

        balanced = build_score_table(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
        )
        policy = PageRankVMPolicy({toy_shape: balanced})
        assert policy.candidate_mode(toy_shape) == "balanced"

    def test_all_mode_by_default(self, policy, toy_shape):
        assert policy.candidate_mode(toy_shape) == "all"


class TestPlacementDecisions:
    def test_picks_pm_with_best_resulting_profile(
        self, policy, toy_shape, toy_table, vm2, fake_machine
    ):
        # Candidate machines at different usages; the policy must pick the
        # machine (and accommodation) whose resulting profile scores best.
        machines = [
            fake_machine(0, toy_shape, ((2, 2, 0, 0),)),
            fake_machine(1, toy_shape, ((2, 2, 2, 2),)),
            fake_machine(2, toy_shape, ((1, 0, 0, 0),)),
        ]
        decision = policy.select(vm2, machines)
        assert decision is not None
        # Recompute the expected winner by brute force.
        from repro.core.permutations import enumerate_placements

        best = None
        for machine in machines:
            for placed in enumerate_placements(toy_shape, machine.usage, vm2):
                score = toy_table.score_or_snap(placed.new_usage)
                if best is None or score > best[0]:
                    best = (score, machine.pm_id)
        assert decision.pm_id == best[1]
        assert decision.score == pytest.approx(best[0])

    def test_unused_pm_opened_when_nothing_fits(
        self, policy, toy_shape, vm4, fake_machine
    ):
        used = fake_machine(0, toy_shape, ((4, 4, 4, 3),))
        fresh = fake_machine(1, toy_shape)
        decision = policy.select(vm4, [used, fresh])
        assert decision.pm_id == 1

    def test_no_solution_returns_none(self, policy, toy_shape, vm4, fake_machine):
        blocked = fake_machine(0, toy_shape, ((4, 4, 4, 4),))
        assert policy.select(vm4, [blocked]) is None

    def test_realized_assignment_achieves_reported_score(
        self, policy, toy_shape, toy_table, vm2, fake_machine
    ):
        from repro.core.permutations import apply_assignments

        machine = fake_machine(0, toy_shape, ((0, 1, 2, 3),))
        decision = policy.select(vm2, [machine])
        realized = toy_shape.canonicalize(
            apply_assignments(machine.usage, decision.placement.assignments)
        )
        assert toy_table.score_or_snap(realized) == pytest.approx(decision.score)

    def test_deterministic(self, policy, toy_shape, vm2, fake_machine):
        machines = [
            fake_machine(i, toy_shape, ((i % 3, 0, 0, 0),)) for i in range(6)
        ]
        first = policy.select(vm2, machines)
        second = policy.select(vm2, machines)
        assert first.pm_id == second.pm_id
        assert first.placement.new_usage == second.placement.new_usage


class TestPaperScenario:
    def test_prefers_completable_over_dead_end(
        self, toy_shape, toy_vm_types, vm2, fake_machine
    ):
        # Two PMs would land on [4,4,3,3] (completable; BPRU 1) versus
        # [4,4,4,1] (whose completions strand a dimension).  The BPRU
        # discount must steer the policy toward the completable profile.
        table = build_score_table(toy_shape, toy_vm_types, mode="full")
        policy = PageRankVMPolicy({toy_shape: table})
        toward_dead_end = fake_machine(0, toy_shape, ((4, 4, 3, 1),))
        # vm2 on it -> (4,4,4,2) at best; all options strand capacity.
        completable = fake_machine(1, toy_shape, ((4, 4, 2, 2),))
        # vm2 -> (4,4,3,3), BPRU 1.
        decision = policy.select(vm2, [toward_dead_end, completable])
        assert decision.pm_id == 1


class _PoisonedTable:
    """A score table whose lookups return NaN — the corruption signature."""

    strategy = SuccessorStrategy.ALL_PLACEMENTS

    def score_or_snap(self, usage):
        return float("nan")

    def score_or_snap_many(self, usages):
        return np.full(len(list(usages)), np.nan)


class TestGracefulDegradation:
    @pytest.fixture
    def odd_shape(self):
        # Same structure as the toy shape but different capacities, so
        # machines of this shape have no entry in the policy's tables.
        return MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(5, 5, 5, 5)),)
        )

    def test_healthy_policy_reports_no_degradation(self, policy):
        assert not policy.degraded
        assert policy.degraded_reason is None

    def test_missing_table_degrades_to_ffdsum(
        self, policy, odd_shape, vm2, fake_machine, caplog
    ):
        machine = fake_machine(0, odd_shape, ((1, 0, 0, 0),))
        with caplog.at_level(logging.WARNING, logger="repro.core.placement"):
            decision = policy.select(vm2, [machine])

        assert decision is not None
        assert policy.degraded
        assert "KeyError" in policy.degraded_reason
        assert any("degrading to FFDSum" in r.message for r in caplog.records)
        expected = FFDSumPolicy().select(
            vm2, [fake_machine(0, odd_shape, ((1, 0, 0, 0),))]
        )
        assert decision.pm_id == expected.pm_id
        assert decision.placement.new_usage == expected.placement.new_usage

    def test_poisoned_table_degrades(self, toy_shape, vm2, fake_machine):
        policy = PageRankVMPolicy({toy_shape: _PoisonedTable()})
        decision = policy.select(
            vm2, [fake_machine(0, toy_shape, ((1, 0, 0, 0),))]
        )
        assert decision is not None
        assert policy.degraded
        assert "ValidationError" in policy.degraded_reason
        assert "non-finite" in policy.degraded_reason

    def test_profile_score_guards_against_non_finite(self, toy_shape):
        policy = PageRankVMPolicy({toy_shape: _PoisonedTable()})
        with pytest.raises(ValidationError, match="non-finite"):
            policy.profile_score(toy_shape, ((0, 0, 0, 0),))
        with pytest.raises(ValidationError, match="non-finite"):
            policy.profile_scores(toy_shape, [((0, 0, 0, 0),)])

    def test_degradation_is_sticky(
        self, policy, odd_shape, toy_shape, vm2, fake_machine
    ):
        policy.select(vm2, [fake_machine(0, odd_shape, ((1, 0, 0, 0),))])
        assert policy.degraded
        # Later decisions on perfectly healthy shapes stay on FFDSum for
        # the rest of the run — no half-degraded mixtures.
        decision = policy.select(
            vm2, [fake_machine(1, toy_shape, ((2, 1, 0, 0),))]
        )
        expected = FFDSumPolicy().select(
            vm2, [fake_machine(1, toy_shape, ((2, 1, 0, 0),))]
        )
        assert decision.pm_id == expected.pm_id
        assert decision.placement.new_usage == expected.placement.new_usage

    def test_degraded_policy_orders_vms_like_ffdsum(
        self, policy, odd_shape, vm2, vm4, fake_machine
    ):
        policy.select(vm2, [fake_machine(0, odd_shape, ((1, 0, 0, 0),))])
        assert policy.order_vms([vm2, vm4]) == FFDSumPolicy().order_vms(
            [vm2, vm4]
        )
