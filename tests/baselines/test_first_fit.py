"""Tests for the First Fit baseline."""

from repro.baselines import FirstFitPolicy
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.soa import SoADatacenter


class TestFirstFit:
    def test_picks_first_used_that_fits(self, toy_shape, vm2, fake_machine):
        machines = [
            fake_machine(0, toy_shape, ((4, 4, 4, 4),)),
            fake_machine(1, toy_shape, ((1, 0, 0, 0),)),
            fake_machine(2, toy_shape, ((1, 1, 0, 0),)),
        ]
        decision = FirstFitPolicy().select(vm2, machines)
        assert decision.pm_id == 1

    def test_ignores_better_later_options(self, toy_shape, vm2, fake_machine):
        # FF is oblivious to quality: the first fitting PM wins even when
        # a later PM would produce a better profile.
        machines = [
            fake_machine(0, toy_shape, ((2, 0, 0, 0),)),
            fake_machine(1, toy_shape, ((2, 2, 2, 2),)),
        ]
        assert FirstFitPolicy().select(vm2, machines).pm_id == 0

    def test_opens_unused_when_no_used_fits(self, toy_shape, vm4, fake_machine):
        machines = [
            fake_machine(0, toy_shape, ((4, 4, 4, 0),)),
            fake_machine(1, toy_shape),
        ]
        assert FirstFitPolicy().select(vm4, machines).pm_id == 1

    def test_none_when_nothing_fits(self, toy_shape, vm4, fake_machine):
        machines = [fake_machine(0, toy_shape, ((4, 4, 4, 1),))]
        assert FirstFitPolicy().select(vm4, machines) is None

    def test_uses_naive_intra_pm_assignment(self, toy_shape, vm2, fake_machine):
        machine = fake_machine(0, toy_shape, ((1, 0, 0, 0),))
        decision = FirstFitPolicy().select(vm2, [machine])
        # Naive first-fit lands on the lowest-index units with room.
        assert {idx for idx, _ in decision.placement.assignments[0]} == {0, 1}

    def test_name(self):
        assert FirstFitPolicy().name == "FF"


class TestClassTable:
    def test_first_fit_failure_on_the_representative_falls_through(
        self, place_units
    ):
        # PMs 0 and 2 share a usage class: usages (2, 3) and (3, 2) are
        # one canonical usage, and the Hall condition holds for chunks
        # (1, 2) on both.  First-fit puts the 1 on unit 0 and then finds
        # no room for the 2 on PM 0 (free units (2, 1)), but fits on
        # PM 2 (free units (1, 2)).  PM 1 sits in an infeasible class.
        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        dc = SoADatacenter([(i, shape, "M3") for i in range(4)])
        place_units(dc, 0, 0, (2, 3))
        place_units(dc, 1, 1, (3, 3))
        place_units(dc, 2, 2, (3, 2))
        view = dc.indexed_machines()
        assert view.class_table.n_classes == 2
        vm = VMType(name="vm12", demands=((1, 2),))
        ranked = FirstFitPolicy().select(vm, view)
        scan = FirstFitPolicy().select(vm, list(view))
        assert ranked.pm_id == scan.pm_id == 2
        assert ranked.placement == scan.placement


class TestPlacementMemo:
    """Equal (shape, real usage, VM type) states share one placement."""

    def test_equal_states_share_one_placement(
        self, toy_shape, vm2, vm4, fake_machine
    ):
        from repro.core.permutations import first_fit_placement

        policy = FirstFitPolicy()
        usages = [
            ((1, 0, 0, 0),), ((1, 0, 0, 0),), ((0, 2, 1, 0),), ((4,) * 4,),
        ]
        first = {}
        for pm_id, usage in enumerate(usages):
            machine = fake_machine(pm_id, toy_shape, usage)
            for vm in (vm2, vm4):
                decision = policy.select(vm, [machine])
                expected = first_fit_placement(toy_shape, usage, vm)
                if expected is None:
                    assert decision is None
                    continue
                assert decision.placement == expected
                shared = first.setdefault((usage, vm.name), decision.placement)
                assert decision.placement is shared

    def test_memo_is_bounded_and_invalidated(
        self, toy_shape, vm2, fake_machine, monkeypatch
    ):
        from repro.baselines import first_fit

        monkeypatch.setattr(first_fit, "DEFAULT_CANDIDATE_CACHE_SIZE", 2)
        policy = FirstFitPolicy()
        for pm_id, used in enumerate(range(3)):
            machine = fake_machine(pm_id, toy_shape, ((used, 0, 0, 0),))
            assert policy.select(vm2, [machine]) is not None
            assert len(policy._placements) <= 2
        policy.invalidate_cache()
        assert not policy._placements
