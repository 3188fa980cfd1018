"""Tests for PageRank-based eviction selection."""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.migration import PageRankMigrationSelector, usage_after_removal
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import ScoreTable


@dataclass(frozen=True)
class StubAllocation:
    vm_type: VMType
    assignments: Tuple


def alloc(name, group_assign):
    return StubAllocation(
        vm_type=VMType(name=name, demands=((1,),)),
        assignments=(tuple(group_assign),),
    )


class TestUsageAfterRemoval:
    def test_subtracts_at_indices(self):
        usage = ((3, 2, 1, 0),)
        result = usage_after_removal(usage, (((0, 1), (2, 1)),))
        assert result == ((2, 2, 0, 0),)

    def test_noop_for_empty_assignment(self):
        usage = ((3, 2, 1, 0),)
        assert usage_after_removal(usage, ((),)) == usage

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            usage_after_removal(((1, 0),), (((0, 2),),))


class TestVictimSelection:
    def test_requires_tables(self):
        with pytest.raises(Exception):
            PageRankMigrationSelector({})

    def test_empty_pm_returns_none(self, toy_shape, toy_table):
        selector = PageRankMigrationSelector({toy_shape: toy_table})
        assert selector.select_victim(toy_shape, ((0, 0, 0, 0),), []) is None

    def test_unknown_shape_raises(self, toy_table, toy_shape, mixed_shape):
        selector = PageRankMigrationSelector({toy_shape: toy_table})
        with pytest.raises(KeyError):
            selector.select_victim(mixed_shape, mixed_shape.empty_usage(), [])

    def test_picks_residual_with_best_score(self, toy_shape, toy_table):
        selector = PageRankMigrationSelector({toy_shape: toy_table})
        usage = ((2, 2, 1, 1),)
        candidates = [
            alloc("a", [(0, 1)]),          # residual (1,2,1,1)
            alloc("b", [(2, 1), (3, 1)]),  # residual (2,2,0,0)
            alloc("c", [(0, 2)]),          # residual (0,2,1,1)
        ]
        victim = selector.select_victim(toy_shape, usage, candidates)
        expected = max(
            candidates,
            key=lambda a: toy_table.score_or_snap(
                toy_shape.canonicalize(usage_after_removal(usage, a.assignments))
            ),
        )
        assert victim is expected

    def test_rank_victims_sorted_best_first(self, toy_shape, toy_table):
        selector = PageRankMigrationSelector({toy_shape: toy_table})
        usage = ((2, 2, 1, 1),)
        candidates = [alloc("a", [(0, 1)]), alloc("b", [(1, 2)])]
        ranked = selector.rank_victims(toy_shape, usage, candidates)
        scores = [score for score, _ in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_snapped_miss_tying_the_best_exact_score_wins_when_first(self):
        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        # (0,1) is off the table, equidistant from (0,0) and (0,2): it
        # snaps to the lower score, 0.5, which ties the exact (0,0).
        table = ScoreTable(
            shape, {((0, 0),): 0.5, ((0, 2),): 0.7, ((4, 4),): 0.2}
        )
        selector = PageRankMigrationSelector({shape: table})
        usage = ((1, 1),)
        leaves_miss = alloc("a", [(0, 1)])
        leaves_exact = alloc("b", [(0, 1), (1, 1)])
        for candidates in (
            [leaves_miss, leaves_exact], [leaves_exact, leaves_miss]
        ):
            assert (
                selector.select_victim(shape, usage, candidates)
                is candidates[0]
                is selector.rank_victims(shape, usage, candidates)[0][1]
            )
