"""Property-based tests for PageRank / BPRU / EFU invariants."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import build_profile_graph
from repro.core.pagerank import (
    compute_bpru,
    expected_final_utilization,
    profile_pagerank,
)
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


class TestPageRankInvariants:
    @given(small_worlds(), st.sampled_from(["forward", "reverse"]))
    @settings(max_examples=40, deadline=None)
    def test_raw_is_probability_vector(self, world, direction):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        result = profile_pagerank(graph, vote_direction=direction)
        assert np.all(result.raw >= 0)
        assert float(result.raw.sum()) == np.float64(1.0) or abs(
            float(result.raw.sum()) - 1.0
        ) < 1e-9

    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_scores_bounded_by_raw(self, world):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        result = profile_pagerank(graph)
        # BPRU is in [0,1], so scores never exceed raw PageRank.
        assert np.all(result.scores <= result.raw + 1e-12)

    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, world):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        a = profile_pagerank(graph).scores
        b = profile_pagerank(graph).scores
        assert np.array_equal(a, b)


class TestBPRUInvariants:
    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_bpru_at_least_own_utilization(self, world):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        bpru = compute_bpru(graph)
        utils = graph.utilization_array()
        assert np.all(bpru >= utils - 1e-12)

    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_bpru_in_unit_interval(self, world):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        bpru = compute_bpru(graph)
        assert np.all(bpru >= 0) and np.all(bpru <= 1 + 1e-12)

    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_bpru_is_the_recursive_max_over_successors(self, world):
        # The level-ordered pass against the definition, node by node:
        # a max does not depend on the order it is taken in, so the two
        # agree exactly.
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        utils = graph.utilization_array().tolist()
        indptr, indices = graph.indptr.tolist(), graph.indices.tolist()

        @lru_cache(maxsize=None)
        def best(node: int) -> float:
            successors = indices[indptr[node]:indptr[node + 1]]
            if not successors:
                return utils[node]
            return max(best(successor) for successor in successors)

        expected = [best(node) for node in range(graph.n_nodes)]
        assert compute_bpru(graph).tolist() == expected

    @given(small_worlds())
    @settings(max_examples=40, deadline=None)
    def test_efu_between_utilization_and_bpru(self, world):
        shape, vm_types = world
        graph = build_profile_graph(shape, vm_types, mode="full")
        efu = expected_final_utilization(graph)
        bpru = compute_bpru(graph)
        utils = graph.utilization_array()
        assert np.all(efu <= bpru + 1e-12)
        assert np.all(efu >= utils.min() - 1e-12)
