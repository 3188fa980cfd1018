"""First Fit (FF) — the paper's simplest baseline (ref [27]).

Places a VM on the first PM (in inventory order) that has sufficient
resources, checking used PMs before opening an unused one.  The intra-PM
unit assignment is equally naive — chunks go to the lowest-index unit
with room (:func:`repro.core.permutations.first_fit_placement`) — which
is what makes FF dimension-unaware: it fragments per-core/per-disk
capacity exactly the way the paper criticizes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.permutations import can_place, first_fit_placement
from repro.core.policy import MachineView, PlacementDecision, PlacementPolicy
from repro.core.profile import MachineShape, VMType
from repro.core.usage_index import IndexedMachines

__all__ = ["FirstFitPolicy"]


class FirstFitPolicy(PlacementPolicy):
    """First PM with sufficient resources wins.

    PMs are tried in ``(tier, inventory position)`` order, where the
    tier is a per-shape sort key (:meth:`_tier`): constant for FF, the
    negated PM size for FFDSum.

    The indexed fast path ranks the class table.  The Hall condition
    (:func:`can_place`) depends only on the canonical usage, so it is
    memoized per class id and VM type and skips every member of an
    infeasible class.  The first member to try is the feasible class
    with the smallest ``(tier, representative)``.  The first-fit unit
    assignment itself is **not** class-invariant (chunks land on the
    lowest-index unit with room, which depends on the real unit order),
    so when that member fails the remaining members of the feasible
    classes are walked in order — bit-identical to the linear scan.
    """

    name = "FF"

    def _tier(self, shape: MachineShape) -> float:
        """Sort key of a PM shape, ahead of inventory order (lower first)."""
        return 0.0

    def _select_among_used(
        self, vm: VMType, used: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        # The one first-fit walk: a stable sort on the tier keeps the
        # given (inventory) order within a tier.
        for machine in sorted(used, key=lambda m: self._tier(m.shape)):
            placement = first_fit_placement(machine.shape, machine.usage, vm)
            if placement is not None:
                return PlacementDecision(pm_id=machine.pm_id, placement=placement)
        return None

    _select_among_unused = _select_among_used

    def _select_among_used_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        self._observe_index(view)
        table = view.class_table
        n = table.n_classes
        rep, size = view.class_columns()
        active = size > 0
        # Both memos are id-addressed.  The tier (memo key None) is
        # filled once per id, NaN until then; feasibility once per id and
        # VM type, -1 until then, else the Hall condition as 0/1.
        tier = self._memo_column(None, n, np.nan)[:n]
        for cid in np.flatnonzero(np.isnan(tier)).tolist():
            tier[cid] = self._tier(table.keys[cid][0])
        feasible = self._memo_column(vm.name, n, -1, np.int8)[:n]
        for cid in np.flatnonzero(active & (feasible < 0)).tolist():
            feasible[cid] = can_place(*table.keys[cid], vm)
        candidates = np.flatnonzero(active & (feasible == 1))
        if not candidates.size:
            return None
        first = candidates[np.lexsort((rep[candidates], tier[candidates]))[0]]
        first_pos = int(rep[first])
        decision = self._select_among_used(vm, [view.machine_at(first_pos)])
        if decision is not None:
            return decision
        # First-fit failed on the first member of its class: walk the
        # other members of every feasible class in inventory order (the
        # walk's stable sort restores the tier order).
        rest = sorted(
            pos
            for cid in candidates.tolist()
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
