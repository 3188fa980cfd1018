"""Tests for profile-graph generation."""

import numpy as np
import pytest

from repro.core.graph import (
    GraphLimitExceeded,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.util.validation import ValidationError


class TestFullMode:
    def test_toy_node_count(self, toy_graph):
        assert toy_graph.n_nodes == 70

    def test_contains_empty_and_full(self, toy_graph, toy_shape):
        assert toy_graph.contains(toy_shape.empty_usage())
        assert toy_graph.contains(toy_shape.full_usage())

    def test_edges_are_placements(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import enumerate_placements

        for node in range(toy_graph.n_nodes):
            usage = toy_graph.profiles[node]
            expected = set()
            for vm in toy_vm_types:
                for placed in enumerate_placements(toy_shape, usage, vm):
                    expected.add(placed.new_usage)
            got = {toy_graph.profiles[s] for s in toy_graph.successors[node]}
            assert got == expected

    def test_graph_is_dag(self, toy_graph):
        # Total usage strictly increases along every edge.
        for node, successors in enumerate(toy_graph.successors):
            node_units = sum(sum(g) for g in toy_graph.profiles[node])
            for succ in successors:
                succ_units = sum(sum(g) for g in toy_graph.profiles[succ])
                assert succ_units > node_units

    def test_best_profile_is_sink(self, toy_graph, toy_shape):
        full_id = toy_graph.node_id(toy_shape.full_usage())
        assert toy_graph.successors[full_id] == ()

    def test_topological_order_respects_edges(self, toy_graph):
        position = {n: i for i, n in enumerate(toy_graph.topological_order())}
        for node, successors in enumerate(toy_graph.successors):
            for succ in successors:
                assert position[node] < position[succ]


class TestReachableMode:
    def test_subset_of_full(self, toy_shape, toy_vm_types, toy_graph):
        reachable = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert reachable.n_nodes < toy_graph.n_nodes
        for usage in reachable.profiles:
            assert toy_graph.contains(usage)

    def test_reachable_profiles_have_even_totals(self, toy_shape, toy_vm_types):
        # Both toy VMs add an even number of units, so every reachable
        # profile has even total usage.
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        for usage in graph.profiles:
            assert sum(sum(g) for g in usage) % 2 == 0

    def test_root_is_empty_profile(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert graph.profiles[0] == toy_shape.empty_usage()


class TestBalancedStrategy:
    def test_at_most_one_edge_per_vm_type(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(
            toy_shape,
            toy_vm_types,
            strategy=SuccessorStrategy.BALANCED,
            mode="reachable",
        )
        for successors in graph.successors:
            assert len(successors) <= len(toy_vm_types)

    def test_balanced_subgraph_of_all_placements(self, toy_shape, toy_vm_types):
        balanced = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
        )
        full = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.ALL_PLACEMENTS
        )
        assert balanced.n_nodes <= full.n_nodes
        for usage in balanced.profiles:
            assert full.contains(usage)


class TestNodeLimit:
    @pytest.mark.parametrize(
        "mode, node_limit", [("full", 10), ("reachable", 3)],
        ids=["full", "reachable"],
    )
    def test_limit_enforced(self, toy_shape, toy_vm_types, mode, node_limit):
        with pytest.raises(GraphLimitExceeded):
            build_profile_graph(
                toy_shape, toy_vm_types, mode=mode, node_limit=node_limit
            )


class TestValidation:
    def test_empty_vm_set_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [], mode="full")

    def test_zero_demand_vm_rejected(self, toy_shape):
        ghost = VMType(name="ghost", demands=((0, 0, 0, 0),))
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [ghost])

    def test_group_mismatch_rejected(self, toy_shape, mixed_vm):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [mixed_vm])

    def test_unknown_mode_rejected(self, toy_shape, toy_vm_types):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, toy_vm_types, mode="bogus")


class TestGraphQueries:
    def test_n_edges(self, toy_graph):
        assert toy_graph.n_edges == sum(len(s) for s in toy_graph.successors)

    def test_node_id_roundtrip(self, toy_graph):
        for node in range(0, toy_graph.n_nodes, 7):
            assert toy_graph.node_id(toy_graph.profiles[node]) == node

    def test_node_id_missing_returns_none(self, toy_graph):
        assert toy_graph.node_id(((9, 9, 9, 9),)) is None

    def test_sinks_cannot_host_any_vm(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import can_place

        for sink in toy_graph.sinks():
            usage = toy_graph.profiles[sink]
            assert not any(
                can_place(toy_shape, usage, vm) for vm in toy_vm_types
            )

    def test_utilizations_in_unit_interval(self, toy_graph):
        utils = toy_graph.utilizations()
        assert all(0.0 <= u <= 1.0 for u in utils)

    def test_profile_accessor(self, toy_graph):
        profile = toy_graph.profile(0)
        assert profile.usage == toy_graph.profiles[0]

    def test_packed_profiles_match_flat(self, toy_graph):
        packed = toy_graph.packed_profiles()
        assert packed.dtype.kind == "u"
        np.testing.assert_array_equal(
            packed.astype(np.int64), toy_graph.flat_profiles()
        )

    def test_successor_csr_matches_successors(self, toy_graph):
        indptr, indices = toy_graph.successor_csr()
        assert indptr.shape == (toy_graph.n_nodes + 1,)
        assert int(indptr[-1]) == toy_graph.n_edges
        for node, succ in enumerate(toy_graph.successors):
            got = tuple(int(s) for s in indices[indptr[node]:indptr[node + 1]])
            assert got == succ
