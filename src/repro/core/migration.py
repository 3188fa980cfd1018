"""PageRank-based eviction: which VM to migrate off an overloaded PM.

Section VI.A: "When a PM is overloaded in PageRankVM, for each VM on the
PM, we check the PageRank value of the resulting profile of this PM after
removing the VM.  Then we select the VM that can result in the highest
PageRank value to remove."

The selector works on *allocation records* — anything exposing the
per-group concrete ``assignments`` that were applied when the VM was
placed — so it can compute the residual profile exactly.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.profile import MachineShape, Usage
from repro.core.score_table import ScoreTable
from repro.util.validation import require

__all__ = [
    "AllocationView",
    "usage_after_removal",
    "PageRankMigrationSelector",
]


@runtime_checkable
class AllocationView(Protocol):
    """Read-only view of one VM's allocation on a PM."""

    @property
    def assignments(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per-group concrete (unit_index, chunk) pairs."""


def usage_after_removal(
    usage: Usage, assignments: Sequence[Sequence[Tuple[int, int]]]
) -> Usage:
    """The PM usage after subtracting an allocation's assignments.

    Raises:
        ValueError: when the allocation does not fit the usage (negative
            residual), which indicates corrupted bookkeeping.
    """
    groups: List[Tuple[int, ...]] = []
    for group_usage, group_assign in zip(usage, assignments):
        values = list(group_usage)
        for idx, chunk in group_assign:
            values[idx] -= chunk
            if values[idx] < 0:
                raise ValueError(
                    f"removal drives unit {idx} negative "
                    f"({group_usage[idx]} - {chunk}); allocation records "
                    "are inconsistent with machine usage"
                )
        groups.append(tuple(values))
    return tuple(groups)


class PageRankMigrationSelector:
    """Pick the eviction victim that leaves the best-ranked residual profile.

    Args:
        tables: per-shape Profile-PageRank score tables (normally shared
            with the :class:`~repro.core.placement.PageRankVMPolicy`).
    """

    name = "pagerank"

    def __init__(self, tables: Mapping[MachineShape, ScoreTable]):
        require(len(tables) > 0, "selector needs at least one score table")
        self._tables = dict(tables)

    def rank_victims(
        self,
        shape: MachineShape,
        usage: Usage,
        allocations: Sequence[AllocationView],
    ) -> List[Tuple[float, AllocationView]]:
        """Score every allocation by the residual profile it would leave.

        Returns (score, allocation) pairs sorted best first.
        """
        table = self._table(shape)
        # One batched lookup: residual-profile misses share a single
        # snap distance pass instead of paying one lookup per hosted VM.
        scores = table.score_or_snap_many(
            _residuals(shape, usage, allocations)
        )
        scored: List[Tuple[float, AllocationView]] = [
            (float(score), allocation)
            for score, allocation in zip(scores, allocations)
        ]
        scored.sort(key=lambda pair: -pair[0])
        return scored

    def select_victim(
        self,
        shape: MachineShape,
        usage: Usage,
        allocations: Sequence[AllocationView],
    ) -> Optional[AllocationView]:
        """The allocation whose removal yields the highest-ranked profile.

        The same allocation as ``rank_victims(...)[0][1]`` (the first of
        the best, in ``allocations`` order), found by
        :meth:`ScoreTable.argmax_score_or_snap`: only the off-graph
        residuals that can still win are snapped exactly.

        Returns None when the PM hosts no VMs.

        Raises:
            KeyError: when no table covers ``shape``.
        """
        table = self._table(shape)
        if not allocations:
            return None
        return allocations[
            table.argmax_score_or_snap(_residuals(shape, usage, allocations))
        ]

    def _table(self, shape: MachineShape) -> ScoreTable:
        table = self._tables.get(shape)
        if table is None:
            raise KeyError(f"no score table for shape {shape!r}")
        return table


def _residuals(
    shape: MachineShape, usage: Usage, allocations: Sequence[AllocationView]
) -> List[Usage]:
    """The canonical usage each allocation's removal would leave."""
    return [
        shape.canonicalize(usage_after_removal(usage, a.assignments))
        for a in allocations
    ]
