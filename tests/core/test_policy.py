"""Tests for the policy skeleton (Algorithm 2 structure) and caching."""

import numpy as np
import pytest

from repro.core import policy as policy_module
from repro.core.permutations import Placement, remap_placement
from repro.core.policy import PlacementPolicy, ProfileScorePolicy
from repro.core.profile import MachineShape, ResourceGroup


class UtilizationPolicy(ProfileScorePolicy):
    """Concrete scored policy for testing: prefer fuller profiles."""

    name = "util"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.score_calls = 0

    def profile_score(self, shape, usage):
        self.score_calls += 1
        return shape.utilization(usage)


class TestAlgorithmTwoStructure:
    def test_used_pms_scanned_before_unused(self, toy_shape, vm2, fake_machine):
        used = fake_machine(0, toy_shape, ((1, 1, 0, 0),))
        unused = fake_machine(1, toy_shape)
        policy = UtilizationPolicy()
        decision = policy.select(vm2, [unused, used])
        assert decision.pm_id == 0

    def test_falls_back_to_first_unused(self, toy_shape, vm2, fake_machine):
        full = fake_machine(0, toy_shape, ((4, 4, 4, 4),))
        empty_a = fake_machine(1, toy_shape)
        empty_b = fake_machine(2, toy_shape)
        policy = UtilizationPolicy()
        decision = policy.select(vm2, [full, empty_a, empty_b])
        assert decision.pm_id == 1

    def test_returns_none_when_nothing_fits(self, toy_shape, vm4, fake_machine):
        nearly_full = fake_machine(0, toy_shape, ((4, 4, 4, 3),))
        policy = UtilizationPolicy()
        assert policy.select(vm4, [nearly_full]) is None

    def test_select_excluding_skips_pm(self, toy_shape, vm2, fake_machine):
        a = fake_machine(0, toy_shape, ((1, 1, 0, 0),))
        b = fake_machine(1, toy_shape, ((1, 1, 0, 0),))
        policy = UtilizationPolicy()
        decision = policy.select_excluding(vm2, [a, b], excluded_pm=0)
        assert decision.pm_id == 1

    def test_order_vms_default_keeps_order(self, vm2, vm4):
        class Dummy(PlacementPolicy):
            def _select_among_used(self, vm, used):
                return None

        assert Dummy().order_vms([vm4, vm2]) == [vm4, vm2]

    def test_decision_has_concrete_assignment(self, toy_shape, vm2, fake_machine):
        machine = fake_machine(0, toy_shape, ((1, 0, 0, 0),))
        decision = UtilizationPolicy().select(vm2, [machine])
        chunks = sorted(c for _, c in decision.placement.assignments[0])
        assert chunks == [1, 1]


class TestCaching:
    def test_equal_profiles_share_one_evaluation(self, toy_shape, vm2, fake_machine):
        machines = [fake_machine(i, toy_shape, ((1, 1, 0, 0),)) for i in range(5)]
        policy = UtilizationPolicy()
        policy.select(vm2, machines)
        first_calls = policy.score_calls
        policy.select(vm2, machines)
        # Second pass is fully cached.
        assert policy.score_calls == first_calls

    def test_cache_keyed_on_vm_type(self, toy_shape, vm2, vm4, fake_machine):
        machine = fake_machine(0, toy_shape, ((1, 1, 0, 0),))
        policy = UtilizationPolicy()
        policy.select(vm2, [machine])
        calls_after_vm2 = policy.score_calls
        policy.select(vm4, [machine])
        assert policy.score_calls > calls_after_vm2

    def test_invalidate_cache(self, toy_shape, vm2, fake_machine):
        machine = fake_machine(0, toy_shape, ((1, 1, 0, 0),))
        policy = UtilizationPolicy()
        policy.select(vm2, [machine])
        calls = policy.score_calls
        policy.invalidate_cache()
        policy.select(vm2, [machine])
        assert policy.score_calls > calls


class TestPoolSampling:
    def test_pool_size_limits_scans(self, toy_shape, vm2, fake_machine):
        # 20 used machines with distinct usages; pool_size=2 must not
        # evaluate all of them.
        machines = [
            fake_machine(i, toy_shape, ((min(i % 4, 3), 0, 0, 0),))
            for i in range(20)
        ]
        policy = UtilizationPolicy(pool_size=2, rng=np.random.default_rng(0))
        decision = policy.select(vm2, machines)
        assert decision is not None
        assert policy.score_calls <= 3 * 4  # 2 machines x few candidates each

    def test_pool_size_validation(self):
        with pytest.raises(Exception):
            UtilizationPolicy(pool_size=0)

    def test_pool_deterministic_given_rng(self, toy_shape, vm2, fake_machine):
        def run(seed):
            machines = [
                fake_machine(i, toy_shape, ((i % 4, 0, 0, 0),)) for i in range(10)
            ]
            policy = UtilizationPolicy(
                pool_size=2, rng=np.random.default_rng(seed)
            )
            return policy.select(vm2, machines).pm_id

        assert run(7) == run(7)


class TestRealization:
    def test_no_reenumeration_on_realize(
        self, toy_shape, vm2, fake_machine, monkeypatch
    ):
        # After best_candidate caches the winning placement, realizing a
        # decision must not call enumerate_placements a second time.
        from repro.core import permutations as perms

        machine = fake_machine(0, toy_shape, ((1, 1, 0, 0),))
        policy = UtilizationPolicy()
        calls = []
        original = perms.enumerate_placements

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(perms, "enumerate_placements", counting)
        decision = policy.select(vm2, [machine])
        assert decision is not None
        assert len(calls) == 1

        calls.clear()
        decision = policy.select(vm2, [machine])  # fully cached now
        assert decision is not None
        assert calls == []

    def test_remapped_placement_valid_on_noncanonical_machine(
        self, toy_shape, vm2, fake_machine
    ):
        # Usage in descending (non-canonical) unit order: the cached
        # canonical placement must be remapped onto the machine's real
        # units without violating capacity or anti-collocation.
        machine = fake_machine(0, toy_shape, ((3, 2, 1, 0),))
        decision = UtilizationPolicy().select(vm2, [machine])
        assert decision is not None
        units = [unit for unit, _ in decision.placement.assignments[0]]
        assert len(set(units)) == len(units)  # anti-collocation
        for unit, chunk in decision.placement.assignments[0]:
            assert machine.usage[0][unit] + chunk <= 4
        # The realized usage matches the cached winner canonically.
        realized = list(machine.usage[0])
        for unit, chunk in decision.placement.assignments[0]:
            realized[unit] += chunk
        canonical = toy_shape.canonicalize((tuple(realized),))
        target = toy_shape.canonicalize(decision.placement.new_usage)
        assert canonical == target

    def test_equal_usage_machines_get_machine_specific_placements(
        self, toy_shape, vm2, fake_machine
    ):
        # Two machines whose usages are the same multiset but ordered
        # differently share one cached candidate; each realized decision
        # must still fit its own machine.
        a = fake_machine(0, toy_shape, ((0, 1, 2, 3),))
        b = fake_machine(1, toy_shape, ((3, 2, 1, 0),))
        policy = UtilizationPolicy()
        for machine in (a, b):
            decision = policy.select(vm2, [machine])
            for unit, chunk in decision.placement.assignments[0]:
                assert machine.usage[0][unit] + chunk <= 4


class TestRealizationMemo:
    def test_forged_entry_for_another_winner_misses(
        self, toy_shape, vm2, fake_machine
    ):
        # A key matching (usage, id) whose entry holds a different winner
        # object must be recomputed, not trusted.
        machine = fake_machine(0, toy_shape, ((3, 2, 1, 0),))
        policy = UtilizationPolicy()
        score, _, winner = policy.best_candidate(
            toy_shape, machine.usage, vm2
        )
        stale = Placement(new_usage=winner.new_usage,
                          assignments=(((0, 1), (1, 1)),))
        policy._realized[(machine.usage, id(winner))] = (stale, stale)
        decision = policy._realize(machine, score, winner)
        assert decision.placement == remap_placement(
            toy_shape, machine.usage, winner
        )
        assert decision.placement != stale

    def test_hit_shares_the_realized_placement(
        self, toy_shape, vm2, fake_machine
    ):
        a = fake_machine(0, toy_shape, ((3, 2, 1, 0),))
        b = fake_machine(1, toy_shape, ((3, 2, 1, 0),))
        policy = UtilizationPolicy()
        first = policy.select(vm2, [a])
        second = policy.select(vm2, [b])
        assert (first.pm_id, second.pm_id) == (0, 1)
        assert second.placement is first.placement
        assert len(policy._realized) == 1

    def test_memo_never_exceeds_the_bound(
        self, toy_shape, vm2, vm4, fake_machine, monkeypatch
    ):
        usages = [((a, b, c, 0),) for a in range(3) for b in range(3)
                  for c in range(3)]

        def decisions(policy, bound=None):
            made = []
            for i, usage in enumerate(usages):
                machine = fake_machine(i, toy_shape, usage)
                for vm in (vm2, vm4, vm2):
                    decision = policy.select(vm, [machine])
                    made.append(None if decision is None else
                                (decision.pm_id, decision.placement,
                                 decision.score))
                    if bound is not None:
                        assert len(policy._realized) <= bound
            return made

        unbounded_policy = UtilizationPolicy()
        unbounded = decisions(unbounded_policy)
        assert len(unbounded_policy._realized) > 4
        monkeypatch.setattr(policy_module, "DEFAULT_CANDIDATE_CACHE_SIZE", 4)
        assert decisions(UtilizationPolicy(), bound=4) == unbounded

    def test_invalidate_cache_empties_the_memo(
        self, toy_shape, vm2, fake_machine
    ):
        machine = fake_machine(0, toy_shape, ((1, 0, 0, 0),))
        policy = UtilizationPolicy()
        first = policy.select(vm2, [machine])
        assert policy._realized
        policy.invalidate_cache()
        assert policy._realized == {}
        again = policy.select(vm2, [machine])
        assert again.placement == first.placement
        assert again.placement is not first.placement


class TestCandidateModes:
    def test_balanced_mode_single_candidate(self, toy_shape, vm2, fake_machine):
        class BalancedUtil(UtilizationPolicy):
            def candidate_mode(self, shape):
                return "balanced"

        machine = fake_machine(0, toy_shape, ((0, 1, 2, 3),))
        policy = BalancedUtil()
        decision = policy.select(vm2, [machine])
        # Balanced mode evaluates exactly one accommodation.
        assert policy.score_calls == 1
        assert decision is not None
