"""Property-based tests for the exact DAG-sweep rank kernel.

Random toy worlds drive the documented sweep-vs-iterative contract
(fixed-point residual within :data:`SWEEP_MAX_ULPS`, both vote
directions, degenerate dampings included).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import build_profile_graph
from repro.core.kernel_sweep import sweep_profile_pagerank
from repro.core.pagerank import profile_pagerank
from repro.core.profile import MachineShape, ResourceGroup, VMType


@st.composite
def small_worlds(draw):
    n_units = draw(st.integers(min_value=2, max_value=4))
    cap = draw(st.integers(min_value=2, max_value=4))
    shape = MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(cap,) * n_units),)
    )
    n_types = draw(st.integers(min_value=1, max_value=3))
    vm_types = []
    for t in range(n_types):
        n_chunks = draw(st.integers(min_value=1, max_value=n_units))
        chunk = draw(st.integers(min_value=1, max_value=cap))
        vm_types.append(VMType(name=f"t{t}", demands=((chunk,) * n_chunks,)))
    return shape, tuple(vm_types)


class TestSweepContract:
    @given(
        small_worlds(),
        st.sampled_from(["forward", "reverse"]),
        st.sampled_from([0.0, 0.3, 0.85, 0.99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_residual_within_documented_bound(self, world, direction, damping):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        # verify=True asserts the residual contract inside the kernel.
        result = sweep_profile_pagerank(
            graph, damping=damping, vote_direction=direction, verify=True
        )
        assert result.converged
        assert np.all(result.raw >= 0)
        if damping < 1.0:
            assert abs(float(result.raw.sum()) - 1.0) < 1e-9

    @given(small_worlds(), st.sampled_from(["forward", "reverse"]))
    @settings(max_examples=25, deadline=None)
    def test_damping_one_matches_iterative_exactly(self, world, direction):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        swept = sweep_profile_pagerank(
            graph, damping=1.0, vote_direction=direction
        )
        iterated = profile_pagerank(
            graph, damping=1.0, vote_direction=direction
        )
        np.testing.assert_array_equal(swept.raw, iterated.raw)
