"""First Fit (FF) — the paper's simplest baseline (ref [27]).

Places a VM on the first PM (in inventory order) that has sufficient
resources, checking used PMs before opening an unused one.  The intra-PM
unit assignment is equally naive — chunks go to the lowest-index unit
with room (:func:`repro.core.permutations.first_fit_placement`) — which
is what makes FF dimension-unaware: it fragments per-core/per-disk
capacity exactly the way the paper criticizes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.permutations import Placement, can_place, first_fit_placement
from repro.core.policy import (
    DEFAULT_CANDIDATE_CACHE_SIZE,
    MachineView,
    PlacementDecision,
    PlacementPolicy,
)
from repro.core.profile import MachineShape, Usage, VMType
from repro.core.usage_index import IndexedMachines, RankKey

__all__ = ["FirstFitPolicy"]


class FirstFitPolicy(PlacementPolicy):
    """First PM with sufficient resources wins.

    PMs are tried in ``(tier, inventory position)`` order, where the
    tier is a per-shape sort key (:meth:`_tier`): constant for FF, the
    negated PM size for FFDSum.

    The indexed fast path ranks the class table.  The Hall condition
    (:func:`can_place`) depends only on the canonical usage, so it is
    evaluated once per class id and VM type, and an infeasible class
    never enters the ranking.  The first member to try is the
    representative of the feasible class with the smallest
    ``(tier, representative)``.  The first-fit unit
    assignment itself is **not** class-invariant (chunks land on the
    lowest-index unit with room, which depends on the real unit order),
    so when that member fails the remaining members of the feasible
    classes are walked in order — bit-identical to the linear scan.

    The first-fit placement is a function of (shape, real usage, VM
    type), so it is memoized on that key (:meth:`_first_fit`): equal
    machine states get the very same :class:`Placement` object, which
    is what lets the SoA datacenter's row-transition memo, keyed on the
    assignments' identity, serve the write.
    """

    name = "FF"

    def __init__(self) -> None:
        self._placements: Dict[
            Tuple[MachineShape, Usage, str], Optional[Placement]
        ] = {}

    def invalidate_cache(self) -> None:
        """Drop memoized placements and per-class state."""
        self._placements.clear()
        super().invalidate_cache()

    def _first_fit(
        self, shape: MachineShape, usage: Usage, vm: VMType
    ) -> Optional[Placement]:
        """:func:`first_fit_placement`, memoized; the memo is emptied
        when it reaches :data:`DEFAULT_CANDIDATE_CACHE_SIZE`, like
        :class:`ProfileScorePolicy`'s realization memo."""
        key = (shape, usage, vm.name)
        try:
            return self._placements[key]
        except KeyError:
            pass
        if len(self._placements) >= DEFAULT_CANDIDATE_CACHE_SIZE:
            self._placements.clear()
        placement = self._placements[key] = first_fit_placement(
            shape, usage, vm
        )
        return placement

    def _tier(self, shape: MachineShape) -> float:
        """Sort key of a PM shape, ahead of inventory order (lower first)."""
        return 0.0

    def _select_among_used(
        self, vm: VMType, used: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        # The one first-fit walk: a stable sort on the tier keeps the
        # given (inventory) order within a tier.
        for machine in sorted(used, key=lambda m: self._tier(m.shape)):
            placement = self._first_fit(machine.shape, machine.usage, vm)
            if placement is not None:
                return PlacementDecision(pm_id=machine.pm_id, placement=placement)
        return None

    _select_among_unused = _select_among_used

    def _class_keys(
        self, vm: VMType, table: Any, class_ids: List[int]
    ) -> List[Tuple[RankKey, None]]:
        """``(tier,)`` of each Hall-feasible class, None for the rest."""
        keyed: List[Tuple[RankKey, None]] = []
        for class_id in class_ids:
            shape, usage = table.keys[class_id]
            feasible = can_place(shape, usage, vm)
            keyed.append(((self._tier(shape),) if feasible else None, None))
        return keyed

    def _select_among_used_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        ranking = self._class_ranking(vm, view, self._class_keys)
        top = ranking.top(view.class_table, view.excluded_position())
        if top is None:
            return None
        first_pos = top[-2]
        decision = self._select_among_used(vm, [view.machine_at(first_pos)])
        if decision is not None:
            return decision
        # First-fit failed on the first member of its class: walk the
        # other members of every feasible class in inventory order (the
        # walk's stable sort restores the tier order).
        rest = sorted(
            pos
            for cid, key in ranking.keys.items()
            if key is not None
            for pos in view.class_members(cid)
            if pos != first_pos
        )
        return self._select_among_used(vm, [view.machine_at(p) for p in rest])

    def _select_among_unused_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        # Zero usage makes first-fit fully shape-determined, so the
        # representative decides for its whole class; classes arrive in
        # representative order.
        return self._select_among_unused(
            vm, [cls.representative for cls in view.unused_classes()]
        )
