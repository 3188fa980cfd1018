"""Property tests: the lazy victim argmax equals the full ranking.

:meth:`PageRankMigrationSelector.select_victim` snaps only the
off-graph residuals that can still win; :meth:`rank_victims` scores
every residual exactly.  On random tables, hosted allocations and table
warm-ups (cached snaps, remembered bounds), the victim must be the
first allocation of the full ranking, and the first best position of
the brute-force scan oracle.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.migration import PageRankMigrationSelector, usage_after_removal
from repro.core.profile import MachineShape, ResourceGroup
from repro.core.score_table import ScoreTable


@dataclass(frozen=True)
class StubAllocation:
    assignments: Tuple


def oracle_snap(matrix, scores, flat):
    """Lowest score among the rows L1-nearest to ``flat`` (full scan)."""
    distances = np.abs(matrix - np.asarray(flat, dtype=float)).sum(axis=1)
    return float(scores[distances == distances.min()].min())


def _flat(usage):
    return [u for group in usage for u in group]


@st.composite
def hosts(draw):
    """A table, a PM usage, its allocations and which residuals to warm."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    shape = MachineShape(
        groups=tuple(
            ResourceGroup(name=f"g{i}", capacities=(4,) * width)
            for i, width in enumerate(widths)
        )
    )

    def usages(high):
        return st.tuples(
            *(
                st.lists(st.integers(0, high), min_size=w, max_size=w)
                for w in widths
            )
        ).map(lambda groups: shape.canonicalize(groups))

    rows = draw(st.lists(usages(4), min_size=1, max_size=30, unique=True))
    # Few distinct score values, so residuals often tie across hits,
    # snaps and bounds.
    scores = draw(
        st.lists(
            st.sampled_from([0.1, 0.25, 0.5, 0.75]),
            min_size=len(rows), max_size=len(rows),
        )
    )
    usage = draw(usages(4))
    allocations = []
    for _ in range(draw(st.integers(1, 8))):
        assignments = []
        for group in usage:
            chunks = [draw(st.integers(0, value)) for value in group]
            assignments.append(
                tuple((i, c) for i, c in enumerate(chunks) if c)
            )
        allocations.append(StubAllocation(tuple(assignments)))
    warm = draw(st.lists(st.booleans(), min_size=len(allocations),
                         max_size=len(allocations)))
    return shape, dict(zip(rows, scores)), usage, allocations, warm


class TestVictimMatchesRanking:
    @given(hosts(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_select_equals_first_of_ranking(self, case, rounds):
        shape, scores, usage, allocations, warm = case
        lazy = ScoreTable(shape, scores)
        full = ScoreTable(shape, scores)
        residuals = [
            shape.canonicalize(usage_after_removal(usage, a.assignments))
            for a in allocations
        ]
        for residual, cached in zip(residuals, warm):
            if cached:
                lazy.score_or_snap(residual)
        matrix = np.asarray([_flat(u) for u in scores], dtype=float)
        vector = np.asarray(list(scores.values()), dtype=float)
        expected = [oracle_snap(matrix, vector, _flat(r)) for r in residuals]
        first_best = expected.index(max(expected))
        selector = PageRankMigrationSelector({shape: lazy})
        ranking = PageRankMigrationSelector({shape: full})
        # Later rounds resolve from the snap cache and the bound LRU.
        for _ in range(rounds):
            victim = selector.select_victim(shape, usage, allocations)
            ranked = ranking.rank_victims(shape, usage, allocations)
            assert victim is ranked[0][1]
            assert victim is allocations[first_best]
