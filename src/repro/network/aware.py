"""Network-aware PageRankVM — the future-work extension.

``NetworkAwarePageRankVM`` keeps Algorithm 2's structure but blends the
Profile-PageRank score of each candidate (PM, accommodation) with a
*traffic-locality* term: how close the candidate PM sits to the PMs
already hosting the VM's traffic peers.  With ``locality_weight=0``
behaviour degenerates to plain PageRankVM; with weight 1 it is a pure
traffic-locality packer.

Because locality depends on which VM is being placed and where its peers
currently live, the policy carries placement context: use
:meth:`place` (which maintains VM locations automatically), or set
:attr:`current_vm_id` before calling the inherited ``select``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.placement import PageRankVMPolicy
from repro.core.policy import MachineView, PlacementDecision
from repro.core.profile import MachineShape, VMType
from repro.core.score_table import ScoreTable
from repro.network.topology import TreeTopology
from repro.network.traffic import TrafficMatrix
from repro.util.validation import require

__all__ = ["NetworkAwarePageRankVM"]

_MAX_HOPS = 6.0


class NetworkAwarePageRankVM(PageRankVMPolicy):
    """Algorithm 2 with a traffic-locality term (paper Section VII).

    Args:
        tables: per-shape Profile-PageRank score tables.
        topology: the datacenter network tree.
        traffic: pairwise VM traffic matrix.
        locality_weight: blend factor in [0, 1]; 0 = plain PageRankVM.
        open_penalty: score penalty for opening an unused PM (keeps
            consolidation pressure; see :meth:`select`).
    """

    name = "NetPageRankVM"

    def __init__(
        self,
        tables: Mapping[MachineShape, ScoreTable],
        topology: TreeTopology,
        traffic: TrafficMatrix,
        locality_weight: float = 0.5,
        open_penalty: float = 0.4,
        **kwargs,
    ):
        super().__init__(tables, **kwargs)
        require(
            0.0 <= locality_weight <= 1.0,
            f"locality_weight must be in [0,1], got {locality_weight}",
        )
        require(open_penalty >= 0.0, "open_penalty must be non-negative")
        self._topology = topology
        self._traffic = traffic
        self._weight = locality_weight
        self._open_penalty = open_penalty
        self._locations: Dict[int, int] = {}
        self.current_vm_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    @property
    def locations(self) -> Dict[int, int]:
        """Known VM id -> PM id placements (maintained by :meth:`place`)."""
        return dict(self._locations)

    def record_location(self, vm_id: int, pm_id: Optional[int]) -> None:
        """Update the location context (None removes the VM)."""
        if pm_id is None:
            self._locations.pop(vm_id, None)
        else:
            self._locations[vm_id] = pm_id

    def place(self, vm, datacenter) -> Optional[PlacementDecision]:
        """Place one VM on a datacenter, maintaining location context.

        Args:
            vm: a ``VirtualMachine`` (needs ``vm_id`` and ``vm_type``).
            datacenter: anything exposing ``machines`` and
                ``apply(vm, decision)`` (a :class:`repro.cluster.Datacenter`).

        Returns:
            The applied decision, or None when nothing fits.
        """
        self.current_vm_id = vm.vm_id
        try:
            decision = self.select(vm.vm_type, datacenter.machines)
        finally:
            self.current_vm_id = None
        if decision is None:
            return None
        datacenter.apply(vm, decision)
        self._locations[vm.vm_id] = decision.pm_id
        return decision

    # ------------------------------------------------------------------
    # Locality scoring
    # ------------------------------------------------------------------
    def _locality(self, pm_id: int, vm_id: int) -> float:
        """Traffic-weighted closeness of ``pm_id`` to the VM's peers.

        1.0 = all placed peer traffic would be PM-local; 0.0 = all of it
        would cross the core (or the VM has no placed peers — neutral
        candidates then fall back to the PageRank score alone).
        """
        peers = self._traffic.peers_of(vm_id)
        weighted = 0.0
        total = 0.0
        for peer_id, rate in peers.items():
            peer_pm = self._locations.get(peer_id)
            if peer_pm is None:
                continue
            closeness = 1.0 - self._topology.hops(pm_id, peer_pm) / _MAX_HOPS
            weighted += rate * closeness
            total += rate
        if total <= 0.0:
            return 0.0
        return weighted / total

    def select(
        self, vm: VMType, machines: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        """Joint scan over used *and* unused PMs.

        Algorithm 2's hard used-first rule leaves at most a handful of
        partial PMs to choose among, which starves the locality term; the
        network-aware variant instead scores every feasible PM with

            ``(1-w) * normalized_pagerank + w * locality - open_penalty``

        where the ``open_penalty`` applies to unused PMs only, preserving
        consolidation pressure at low weights.  With ``w = 0`` (or no
        placement context) behaviour reverts exactly to Algorithm 2.
        """
        if self.current_vm_id is None or self._weight <= 0.0:
            return super().select(vm, machines)

        pool = list(machines)
        used_pool = [m for m in pool if m.is_used]
        if self._pool_size is not None and len(used_pool) > self._pool_size:
            picks = self._rng.choice(
                len(used_pool), size=self._pool_size, replace=False
            )
            sampled = {used_pool[i].pm_id for i in picks}
            pool = [m for m in pool if not m.is_used or m.pm_id in sampled]

        candidates = []
        seen_empty_shapes = set()
        for machine in pool:
            if not machine.is_used:
                # Empty PMs of one shape are interchangeable except for
                # their network position; cap the number examined per
                # shape to the fleet's rack diversity.
                key = machine.shape
                if key in seen_empty_shapes:
                    if self._locality(machine.pm_id, self.current_vm_id) <= 0.0:
                        continue
                seen_empty_shapes.add(key)
            candidate = self.best_candidate(machine.shape, machine.usage, vm)
            if candidate is None:
                continue
            score, _, placement = candidate
            candidates.append((machine, score, placement))
        if not candidates:
            return None

        scores = np.asarray(
            [score for _, score, _ in candidates], dtype=float
        )
        span = float(scores.max() - scores.min())
        if span > 0:
            normalized = (scores - scores.min()) / span
        else:
            normalized = np.ones_like(scores)

        best = None
        best_value = -np.inf
        for (machine, score, placement), base in zip(
            candidates, normalized
        ):
            locality = self._locality(machine.pm_id, self.current_vm_id)
            value = (1.0 - self._weight) * float(base) + self._weight * locality
            if not machine.is_used:
                value -= self._open_penalty
            if value > best_value:
                best_value = value
                best = (machine, score, placement)
        machine, score, placement = best
        return self._realize(machine, score, placement)
