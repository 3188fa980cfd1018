"""Integration tests anchored to the paper's worked examples.

These tests encode the claims of Sections III and V.A verbatim, each
under the configuration that reproduces it (see DESIGN.md 3.3b for the
forward/reverse discussion).
"""

import numpy as np
import pytest

from repro.core.graph import build_profile_graph
from repro.core.pagerank import compute_bpru, profile_pagerank
from repro.core.score_table import build_score_table


class TestSectionIIIMotivation:
    """Section III.B: utilization/variance mislead; completability matters."""

    def test_variance_and_utilization_prefer_the_wrong_profile(self, toy_shape):
        # [4,3,3,3] wins on both classic criteria...
        high = ((3, 3, 3, 4),)
        low = ((2, 2, 3, 3),)
        assert toy_shape.utilization(high) > toy_shape.utilization(low)
        assert toy_shape.variance(high) < toy_shape.variance(low)

    def test_but_cannot_reach_the_best_profile(self, toy_graph):
        # ...yet it is impossible for [4,3,3,3] to develop to [4,4,4,4],
        # while [3,3,2,2] has multiple ways (the paper lists two).
        bpru = compute_bpru(toy_graph)
        assert bpru[toy_graph.node_id(((3, 3, 3, 4),))] < 1.0
        assert bpru[toy_graph.node_id(((2, 2, 3, 3),))] == pytest.approx(1.0)

    def test_reverse_ranking_agrees_with_the_prose(self, toy_graph):
        result = profile_pagerank(toy_graph, vote_direction="reverse")
        better = result.scores[toy_graph.node_id(((2, 2, 3, 3),))]
        worse = result.scores[toy_graph.node_id(((3, 3, 3, 4),))]
        assert better > worse


class TestSectionVAQuality:
    """Section V.A: quality of [3,3,3,3] vs [4,4,2,2] under two VM sets."""

    def test_default_set_prefers_balanced_profile(self, toy_graph):
        result = profile_pagerank(toy_graph, vote_direction="reverse")
        balanced = result.scores[toy_graph.node_id(((3, 3, 3, 3),))]
        skewed = result.scores[toy_graph.node_id(((2, 2, 4, 4),))]
        assert balanced > skewed

    def test_both_can_reach_best_profile(self, toy_graph):
        bpru = compute_bpru(toy_graph)
        assert bpru[toy_graph.node_id(((3, 3, 3, 3),))] == pytest.approx(1.0)
        assert bpru[toy_graph.node_id(((2, 2, 4, 4),))] == pytest.approx(1.0)

    def test_vm_set_change_equalizes(self, toy_shape, vm1, vm2):
        # "If the set of VM types is changed to {[1],[1,1]}, profiles
        # [4,4,2,2] and [3,3,3,3] have the same quality."
        graph = build_profile_graph(toy_shape, (vm1, vm2), mode="full")
        result = profile_pagerank(graph, vote_direction="reverse")
        a = result.scores[graph.node_id(((2, 2, 4, 4),))]
        b = result.scores[graph.node_id(((3, 3, 3, 3),))]
        assert a == pytest.approx(b, rel=0.15)

    def test_ways_to_develop_counted(self, toy_shape, toy_graph):
        # The paper counts the one-step options: [3,3,3,3] has 2 distinct
        # successors ([3,3,4,4] via [1,1] and [4,4,4,4] via [1,1,1,1]);
        # [4,4,2,2] has only 1 ([4,4,3,3]).
        balanced_id = toy_graph.node_id(((3, 3, 3, 3),))
        skewed_id = toy_graph.node_id(((2, 2, 4, 4),))
        out_degree = np.diff(toy_graph.indptr)
        assert out_degree[balanced_id] == 2
        assert out_degree[skewed_id] == 1


class TestFigureOneRanks:
    """Figure 1/2: the rank table over the toy world is well formed."""

    def test_best_profile_ranks_top_decile_forward(self, toy_table, toy_shape):
        scores = sorted((s for _, s in toy_table.items()), reverse=True)
        best = toy_table.score(toy_shape.full_usage())
        assert best >= scores[len(scores) // 10]

    def test_dead_ends_rank_below_completable_peers(self, toy_table):
        # Same total usage (14 units): completable [4,4,3,3] must beat
        # the stranded [4,4,4,2].
        assert toy_table.score(((3, 3, 4, 4),)) > toy_table.score(((2, 4, 4, 4),))
