"""Property-based tests for placement enumeration invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
from repro.core.permutations import (
    Placement,
    apply_assignments,
    balanced_placement,
    can_place,
    enumerate_placements,
    first_fit_placement,
    remap_placement,
)
from repro.core.profile import MachineShape, ResourceGroup, VMType


@st.composite
def placement_cases(draw):
    n_units = draw(st.integers(min_value=1, max_value=5))
    cap = draw(st.integers(min_value=1, max_value=6))
    shape = MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(cap,) * n_units),)
    )
    usage = (
        tuple(draw(st.integers(min_value=0, max_value=cap)) for _ in range(n_units)),
    )
    n_chunks = draw(st.integers(min_value=1, max_value=n_units))
    chunks = tuple(
        draw(st.integers(min_value=1, max_value=cap)) for _ in range(n_chunks)
    )
    vm = VMType(name="vm", demands=(chunks,))
    return shape, usage, vm


class TestEnumerationInvariants:
    @given(placement_cases())
    @settings(max_examples=200)
    def test_results_distinct_and_canonical(self, case):
        shape, usage, vm = case
        seen = set()
        for placement in enumerate_placements(shape, usage, vm):
            assert placement.new_usage not in seen
            seen.add(placement.new_usage)
            assert placement.new_usage == shape.canonicalize(placement.new_usage)

    @given(placement_cases())
    @settings(max_examples=200)
    def test_assignments_realize_canonical_usage(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            realized = apply_assignments(usage, placement.assignments)
            assert shape.canonicalize(realized) == placement.new_usage

    @given(placement_cases())
    @settings(max_examples=200)
    def test_anti_collocation_respected(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            units = [idx for idx, _ in placement.assignments[0]]
            assert len(set(units)) == len(units)

    @given(placement_cases())
    @settings(max_examples=200)
    def test_capacity_respected(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            assert shape.fits_usage(
                apply_assignments(usage, placement.assignments)
            )

    @given(placement_cases())
    @settings(max_examples=200)
    def test_can_place_iff_enumeration_nonempty(self, case):
        shape, usage, vm = case
        enumerated = list(enumerate_placements(shape, usage, vm))
        assert can_place(shape, usage, vm) == bool(enumerated)


class TestStrategyConsistency:
    @given(placement_cases())
    @settings(max_examples=200)
    def test_balanced_result_among_enumerated(self, case):
        shape, usage, vm = case
        placed = balanced_placement(shape, usage, vm)
        enumerated = {p.new_usage for p in enumerate_placements(shape, usage, vm)}
        if placed is None:
            assert not enumerated
        else:
            assert placed.new_usage in enumerated

    @given(placement_cases())
    @settings(max_examples=200)
    def test_first_fit_result_among_enumerated_when_it_succeeds(self, case):
        shape, usage, vm = case
        placed = first_fit_placement(shape, usage, vm)
        if placed is not None:
            enumerated = {
                p.new_usage for p in enumerate_placements(shape, usage, vm)
            }
            assert placed.new_usage in enumerated

    @given(placement_cases())
    @settings(max_examples=200)
    def test_total_units_conserved(self, case):
        shape, usage, vm = case
        before = sum(sum(g) for g in usage)
        demanded = vm.total_units()
        for placement in enumerate_placements(shape, usage, vm):
            after = sum(sum(g) for g in placement.new_usage)
            assert after == before + demanded


def remap_by_usage_then_index(shape, usage, placement):
    """Frozen copy of ``remap_placement`` sorting on a ``(usage, index)`` key."""
    assignments = []
    for group, group_usage, group_assign in zip(
        shape.groups, usage, placement.assignments
    ):
        if not group_assign or not group.anti_collocation:
            assignments.append(group_assign)
            continue
        caps = group.capacities
        mapping = list(range(len(caps)))
        start = 0
        while start < len(caps):
            end = start
            while end < len(caps) and caps[end] == caps[start]:
                end += 1
            order = sorted(range(start, end), key=lambda i: (group_usage[i], i))
            mapping[start:end] = order
            start = end
        assignments.append(
            tuple((mapping[idx], chunk) for idx, chunk in group_assign)
        )
    return Placement(
        new_usage=placement.new_usage, assignments=tuple(assignments)
    )


#: The paper's PM shapes plus one with several equal-capacity runs per
#: group, so the per-run mapping is exercised beyond uniform groups.
REMAP_SHAPES = (
    ec2_pm_shape("M3"),
    ec2_pm_shape("C3"),
    MachineShape(groups=(
        ResourceGroup(name="cpu", capacities=(12, 12, 26, 26, 26, 28)),
        ResourceGroup(name="mem", capacities=(256,), anti_collocation=False),
        ResourceGroup(name="disk", capacities=(100, 100, 250, 250)),
    )),
)


@st.composite
def tie_heavy_cases(draw):
    """Real-unit-order usages drawn from three loads per group (many ties)."""
    shape = draw(st.sampled_from(REMAP_SHAPES))
    usage = tuple(
        tuple(
            draw(st.sampled_from((0, min(group.capacities) // 4,
                                  min(group.capacities) // 2)))
            for _ in group.capacities
        )
        for group in shape.groups
    )
    vm = draw(st.sampled_from(EC2_VM_TYPES))
    return shape, usage, vm


class TestRemapPlacement:
    @given(tie_heavy_cases())
    @settings(max_examples=300)
    def test_matches_the_usage_then_index_key(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(
            shape, shape.canonicalize(usage), vm
        ):
            remapped = remap_placement(shape, usage, placement)
            assert remapped == remap_by_usage_then_index(
                shape, usage, placement
            )
            assert shape.canonicalize(
                apply_assignments(usage, remapped.assignments)
            ) == placement.new_usage
