"""Tests for Algorithm 1: PageRank scores, BPRU and EFU."""

import numpy as np
import pytest

from repro.core.graph import build_profile_graph
from repro.core.pagerank import (
    compute_bpru,
    expected_final_utilization,
    profile_pagerank,
)
from repro.util.validation import ValidationError


def score_of(graph, result, usage):
    return float(result.scores[graph.node_id(usage)])


class TestAlgorithmOne:
    def test_converges(self, toy_graph):
        result = profile_pagerank(toy_graph)
        assert result.converged
        assert result.iterations < 1000

    def test_raw_scores_normalized(self, toy_graph):
        result = profile_pagerank(toy_graph)
        assert float(result.raw.sum()) == pytest.approx(1.0)

    def test_scores_positive(self, toy_graph):
        result = profile_pagerank(toy_graph)
        assert np.all(result.scores > 0)

    def test_max_iterations_records_non_convergence(self, toy_graph):
        result = profile_pagerank(toy_graph, max_iterations=1, epsilon=1e-300)
        assert not result.converged
        assert result.iterations == 1

    def test_damping_validated(self, toy_graph):
        with pytest.raises(ValidationError):
            profile_pagerank(toy_graph, damping=1.5)

    def test_epsilon_validated(self, toy_graph):
        with pytest.raises(ValidationError):
            profile_pagerank(toy_graph, epsilon=0)

    def test_unknown_direction_rejected(self, toy_graph):
        with pytest.raises(ValidationError):
            profile_pagerank(toy_graph, vote_direction="sideways")

    def test_damping_zero_gives_uniform_raw(self, toy_graph):
        result = profile_pagerank(toy_graph, damping=0.0)
        assert np.allclose(result.raw, 1.0 / toy_graph.n_nodes)

    def test_ranking_sorted_by_score(self, toy_graph):
        result = profile_pagerank(toy_graph)
        ranked = result.ranking()
        scores = [result.scores[i] for i in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_score_of_accessor(self, toy_graph):
        result = profile_pagerank(toy_graph)
        assert result.score_of(0) == float(result.scores[0])


class TestVoteDirections:
    def test_forward_favors_fuller_profiles(self, toy_graph):
        result = profile_pagerank(toy_graph, vote_direction="forward")
        near_full = score_of(toy_graph, result, ((3, 3, 4, 4),))
        empty = score_of(toy_graph, result, ((0, 0, 0, 0),))
        assert near_full > empty

    def test_reverse_reproduces_worked_example_1(self, toy_graph):
        # Section V.A: [3,3,3,3] has higher quality than [4,4,2,2].
        result = profile_pagerank(toy_graph, vote_direction="reverse")
        assert score_of(toy_graph, result, ((3, 3, 3, 3),)) > score_of(
            toy_graph, result, ((2, 2, 4, 4),)
        )

    def test_reverse_reproduces_worked_example_2(self, toy_graph):
        # Section III.B: [3,3,2,2] is a better host option than [4,3,3,3].
        result = profile_pagerank(toy_graph, vote_direction="reverse")
        assert score_of(toy_graph, result, ((2, 2, 3, 3),)) > score_of(
            toy_graph, result, ((3, 3, 3, 4),)
        )

    def test_forward_contradicts_worked_example(self, toy_graph):
        # Documented contradiction (DESIGN.md 3.3b): the literal
        # pseudocode ranks the dead-end fuller profile higher.
        result = profile_pagerank(toy_graph, vote_direction="forward")
        assert score_of(toy_graph, result, ((3, 3, 3, 4),)) > score_of(
            toy_graph, result, ((2, 2, 3, 3),)
        )

    def test_changed_vm_set_equalizes_qualities(self, toy_shape, vm1, vm2):
        # Section V.A: under {[1],[1,1]} profiles [4,4,2,2] and
        # [3,3,3,3] have (approximately) the same quality.
        graph = build_profile_graph(toy_shape, (vm1, vm2), mode="full")
        result = profile_pagerank(graph, vote_direction="reverse")
        a = score_of(graph, result, ((2, 2, 4, 4),))
        b = score_of(graph, result, ((3, 3, 3, 3),))
        assert a == pytest.approx(b, rel=0.15)


class TestBPRU:
    def test_best_profile_has_bpru_one(self, toy_graph, toy_shape):
        bpru = compute_bpru(toy_graph)
        assert bpru[toy_graph.node_id(toy_shape.full_usage())] == pytest.approx(1.0)

    def test_profiles_reaching_best_have_bpru_one(self, toy_graph):
        bpru = compute_bpru(toy_graph)
        assert bpru[toy_graph.node_id(((0, 0, 0, 0),))] == pytest.approx(1.0)
        assert bpru[toy_graph.node_id(((2, 2, 3, 3),))] == pytest.approx(1.0)

    def test_dead_end_discounted(self, toy_graph):
        # [4,3,3,3] can only reach [4,4,4,3]: BPRU = 15/16.
        bpru = compute_bpru(toy_graph)
        assert bpru[toy_graph.node_id(((3, 3, 3, 4),))] == pytest.approx(15 / 16)

    def test_sink_bpru_is_own_utilization(self, toy_graph):
        bpru = compute_bpru(toy_graph)
        utils = toy_graph.utilization_array()
        for sink in np.flatnonzero(np.diff(toy_graph.indptr) == 0):
            assert bpru[sink] == pytest.approx(utils[sink])

    def test_monotone_along_edges(self, toy_graph):
        # BPRU can only shrink or stay equal when moving to a successor...
        # actually bpru(node) = max over successors, so bpru(node) >= bpru(succ)
        # never holds universally; the correct invariant is
        # bpru(node) = max(bpru(successors)) when successors exist.
        bpru = compute_bpru(toy_graph)
        indptr, indices = toy_graph.indptr, toy_graph.indices
        for node in range(toy_graph.n_nodes):
            successors = indices[indptr[node]:indptr[node + 1]]
            if successors.size:
                assert bpru[node] == pytest.approx(bpru[successors].max())

    def test_final_scores_are_raw_times_bpru(self, toy_graph):
        result = profile_pagerank(toy_graph)
        assert np.allclose(result.scores, result.raw * result.bpru)


class TestExpectedFinalUtilization:
    def test_sinks_keep_own_utilization(self, toy_graph):
        efu = expected_final_utilization(toy_graph)
        utils = toy_graph.utilization_array()
        for sink in np.flatnonzero(np.diff(toy_graph.indptr) == 0):
            assert efu[sink] == pytest.approx(utils[sink])

    def test_interior_is_mean_of_successors(self, toy_graph):
        efu = expected_final_utilization(toy_graph)
        indptr, indices = toy_graph.indptr, toy_graph.indices
        for node in range(toy_graph.n_nodes):
            successors = indices[indptr[node]:indptr[node + 1]]
            if successors.size:
                assert efu[node] == pytest.approx(efu[successors].mean())

    def test_bounded_by_bpru(self, toy_graph):
        # The mean over endpoints can never exceed the max over endpoints.
        efu = expected_final_utilization(toy_graph)
        bpru = compute_bpru(toy_graph)
        assert np.all(efu <= bpru + 1e-12)

    def test_penalizes_saturated_dimension(self, toy_graph):
        # [4,4,4,3] is a dead-end sink; [2,2,3,3] can still reach full.
        efu = expected_final_utilization(toy_graph)
        dead_end = efu[toy_graph.node_id(((3, 4, 4, 4),))]
        promising = efu[toy_graph.node_id(((2, 2, 3, 3),))]
        assert promising > dead_end - 1e-12 or dead_end <= 15 / 16


class TestTransitionKernel:
    def test_kernel_memoized_per_direction(self, toy_graph):
        from repro.core.pagerank import transition_kernel

        forward = transition_kernel(toy_graph, "forward")
        assert transition_kernel(toy_graph, "forward") is forward
        assert transition_kernel(toy_graph, "reverse") is not forward

    def test_bad_direction_rejected(self, toy_graph):
        from repro.core.pagerank import transition_kernel

        with pytest.raises(ValidationError):
            transition_kernel(toy_graph, "sideways")

    def test_edgeless_graph_kernel(self):
        # When no VM fits, the graph is a single empty node with no
        # edges; the kernel must still run (rank mass comes solely from
        # the damping term).
        from repro.core.profile import MachineShape, ResourceGroup, VMType

        tiny = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(1, 1)),)
        )
        huge = VMType(name="huge", demands=((2, 2),))
        graph = build_profile_graph(tiny, (huge,), mode="reachable")
        assert graph.n_edges == 0
        result = profile_pagerank(graph)
        assert result.converged
        assert np.isclose(result.raw.sum(), 1.0)
