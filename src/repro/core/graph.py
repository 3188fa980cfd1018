"""The profile graph G (Algorithm 1, line 1).

Nodes are canonical PM usage profiles; an edge ``P_a -> P_b`` means that a
PM at profile ``P_a`` reaches ``P_b`` by accommodating one VM from the VM
type set.  The paper treats such an edge as a "vote of support" from
``P_a`` for ``P_b``.

Two generation modes:

* ``reachable`` (default) — BFS from the empty profile, covering exactly
  the states the allocator can produce.  Scales to EC2-size machines.
* ``full`` — every canonical lattice point, as in the paper's toy
  [4,4,4,4] examples (Figures 1-2).  Only sensible for small capacities.

Two successor strategies:

* :attr:`SuccessorStrategy.ALL_PLACEMENTS` — one edge per canonically
  distinct placement (exact; the default).
* :attr:`SuccessorStrategy.BALANCED` — one edge per VM type via the
  deterministic least-loaded packing (scalable approximation, see
  DESIGN.md section 3.2).

Construction is built on two layers (DESIGN.md section 3.9):

* per-group usages are interned into small integer ids, so a machine
  usage is a tuple of a few ints (a *combo*) and BFS dedup is combo
  hashing instead of nested-tuple hashing;
* group-level placement results come from the bounded memo tables in
  :mod:`repro.core.permutations` and compose into full successors via
  cheap id products.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core import permutations
from repro.core.interning import packed_dtype_for
from repro.core.profile import (
    MachineShape,
    Profile,
    Usage,
    VMType,
    iter_all_profiles,
)
from repro.util.validation import ValidationError, require

__all__ = [
    "SuccessorStrategy",
    "GraphLimitExceeded",
    "ProfileGraph",
    "build_profile_graph",
]


class SuccessorStrategy(enum.Enum):
    """How edges out of a profile are generated (see module docstring)."""

    ALL_PLACEMENTS = "all_placements"
    BALANCED = "balanced"


class GraphLimitExceeded(RuntimeError):
    """Raised when graph generation would exceed ``node_limit`` nodes."""


@dataclass
class ProfileGraph:
    """An immutable profile graph plus index structures.

    Attributes:
        shape: the PM shape the graph is built for.
        vm_types: the VM type set ``S_v`` driving the edges.
        strategy: the successor strategy used.
        profiles: node id -> canonical usage.
        successors: node id -> sorted tuple of distinct successor node ids.
    """

    shape: MachineShape
    vm_types: Tuple[VMType, ...]
    strategy: SuccessorStrategy
    profiles: List[Usage]
    successors: List[Tuple[int, ...]]
    _index: Dict[Usage, int] = field(init=False, repr=False)
    _derived: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._index = {usage: i for i, usage in enumerate(self.profiles)}

    @property
    def n_nodes(self) -> int:
        """Number of profiles in the graph."""
        return len(self.profiles)

    @property
    def n_edges(self) -> int:
        """Number of distinct (profile, successor-profile) edges."""
        return sum(len(s) for s in self.successors)

    def node_id(self, usage: Usage) -> Optional[int]:
        """Node id of a canonical usage, or None if absent."""
        return self._index.get(usage)

    def contains(self, usage: Usage) -> bool:
        """True when the canonical usage is a node of the graph."""
        return usage in self._index

    def profile(self, node: int) -> Profile:
        """The :class:`Profile` of a node id."""
        return Profile(self.profiles[node])

    def out_degree(self, node: int) -> int:
        """Out-degree |S(P_i)| of a node."""
        return len(self.successors[node])

    def sinks(self) -> List[int]:
        """Node ids that cannot accommodate any further VM."""
        return [i for i, succ in enumerate(self.successors) if not succ]

    def memo(self, key: str, builder: Callable[[], Any]) -> Any:
        """Cache an immutable derived structure on the graph.

        The graph never changes after construction, so flat matrices,
        edge arrays and DP schedules are built once and shared by every
        consumer (PageRank kernel, BPRU/EFU DPs, benchmarks).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = builder()
            self._derived[key] = value
            return value

    def flat_profiles(self) -> np.ndarray:
        """All profiles flattened to an (n_nodes, n_dimensions) int matrix."""
        def build() -> np.ndarray:
            m = self.shape.n_dimensions
            flat = np.fromiter(
                (
                    u
                    for usage in self.profiles
                    for group in usage
                    for u in group
                ),
                dtype=np.int64,
                count=self.n_nodes * m,
            )
            return flat.reshape(self.n_nodes, m)

        return self.memo("flat_profiles", build)

    def packed_profiles(self) -> np.ndarray:
        """All profiles as a packed unsigned (n_nodes, n_dimensions) matrix.

        The dtype is the smallest unsigned type covering the shape's unit
        capacities (see :func:`repro.core.interning.packed_dtype_for`), so
        this is the compact wire/disk format used by the graph cache.
        Row order is node-id order.
        """
        return self.memo(
            "packed_profiles",
            lambda: self.flat_profiles().astype(packed_dtype_for(self.shape)),
        )

    def successor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency in CSR form: ``(indptr, indices)`` int64 arrays.

        ``indices[indptr[i]:indptr[i + 1]]`` are node ``i``'s successor
        ids, sorted ascending (the order of :attr:`successors`).
        """

        def build() -> Tuple[np.ndarray, np.ndarray]:
            out_deg = np.fromiter(
                (len(s) for s in self.successors), dtype=np.int64,
                count=self.n_nodes,
            )
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(out_deg, out=indptr[1:])
            indices = np.fromiter(
                (d for succ in self.successors for d in succ),
                dtype=np.int64,
                count=int(out_deg.sum()),
            )
            return indptr, indices

        return self.memo("successor_csr", build)

    def total_units_array(self) -> np.ndarray:
        """Total used units per node (the topological level of each node)."""
        return self.memo(
            "total_units", lambda: self.flat_profiles().sum(axis=1)
        )

    def topological_order(self) -> List[int]:
        """Node ids sorted by total used units (a topological order).

        Every edge adds a VM with positive total demand, so total usage
        strictly increases along edges and sorting by it is topological.
        """
        return self.memo(
            "topological_order",
            lambda: [
                int(i)
                for i in np.argsort(self.total_units_array(), kind="stable")
            ],
        )

    def utilizations(self) -> List[float]:
        """Mean per-dimension utilization of every node."""
        return self.memo(
            "utilizations", lambda: [float(u) for u in self.utilization_array()]
        )

    def utilization_array(self) -> np.ndarray:
        """Mean per-dimension utilization of every node, as a float vector."""

        def build() -> np.ndarray:
            caps = np.asarray(
                [c for group in self.shape.groups for c in group.capacities],
                dtype=float,
            )
            return (self.flat_profiles() / caps).mean(axis=1)

        return self.memo("utilization_array", build)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All edges as parallel (src, dst) int arrays, grouped by src.

        This is the CSR adjacency flattened: ``dst`` is the concatenation
        of every node's successor tuple and ``src`` repeats each node id
        ``out_degree`` times.
        """

        def build() -> Tuple[np.ndarray, np.ndarray]:
            out_deg = np.fromiter(
                (len(s) for s in self.successors), dtype=np.int64,
                count=self.n_nodes,
            )
            src = np.repeat(np.arange(self.n_nodes, dtype=np.int64), out_deg)
            dst = np.fromiter(
                (s for succ in self.successors for s in succ),
                dtype=np.int64,
                count=int(out_deg.sum()),
            )
            return src, dst

        return self.memo("edge_arrays", build)

    def reverse_level_schedule(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized schedule for reverse-topological dynamic programs.

        Nodes are grouped by total used units (their topological level) in
        *descending* order; every successor of a node has strictly more
        total units and therefore lives in an earlier-processed level, so
        a DP may sweep the levels in schedule order and reduce over all
        successors of a level at once.  Each entry is ``(nodes, flat_successors, starts)`` where
        ``nodes`` are the level's node ids that have successors,
        ``flat_successors`` is the concatenation of their successor ids and
        ``starts`` are the segment offsets into it (one per node, suitable
        for ``np.ufunc.reduceat``).  Sink-only levels are omitted.
        """

        def build() -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
            totals = self.total_units_array()
            src, dst = self.edge_arrays()
            out_deg = np.bincount(src, minlength=self.n_nodes).astype(np.int64)
            order = np.argsort(-totals, kind="stable")
            rank = np.empty(self.n_nodes, dtype=np.int64)
            rank[order] = np.arange(self.n_nodes, dtype=np.int64)
            # Edges re-sorted into node processing order; each node's
            # successor slice stays contiguous because edge_arrays groups
            # edges by src and the sort is stable.
            flat_all = dst[np.argsort(rank[src], kind="stable")]
            edge_start = np.concatenate(
                ([0], np.cumsum(out_deg[order])[:-1])
            )
            ordered_totals = totals[order]
            boundaries = np.nonzero(np.diff(ordered_totals))[0] + 1
            segments = np.split(np.arange(self.n_nodes), boundaries)
            schedule: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for positions in segments:
                nodes_seg = order[positions]
                keep = out_deg[nodes_seg] > 0
                if not np.any(keep):
                    continue
                nodes = nodes_seg[keep]
                starts_abs = edge_start[positions][keep]
                level_start = int(starts_abs[0])
                level_end = level_start + int(out_deg[nodes].sum())
                schedule.append(
                    (
                        nodes,
                        flat_all[level_start:level_end],
                        starts_abs - level_start,
                    )
                )
            return schedule

        return self.memo("reverse_level_schedule", build)


# A machine usage interned as one small-int id per group.
_Combo = Tuple[int, ...]


class _SuccessorEngine:
    """Successor generation over per-group interned usage ids.

    One engine serves one ``(shape, vm_types, strategy)`` build.  Every
    distinct per-group usage tuple gets a dense *gid*; a machine usage is
    then a combo of gids, and successor enumeration composes per-group
    results by id product:

    * group-level placements come from the shared bounded memos in
      :mod:`repro.core.permutations` (hit on the first distinct state);
    * on top of that, a per-``(vm, group)`` dict maps a parent gid
      straight to its successor gids, so steady-state successor
      generation touches only int-keyed dicts — no usage tuples, no
      re-hashing of group states.

    Successor order exactly reproduces the legacy builder: VM types in
    declaration order, placements in enumeration order (last group
    varies fastest), deduplicated on first occurrence — which is what
    keeps node ids, and every float reduction downstream, bit-identical
    across builder generations.
    """

    __slots__ = (
        "shape", "vm_types", "strategy", "_groups", "_n_groups", "_memos",
        "_lives", "_gids", "_gusages", "_balanced", "_options",
    )

    def __init__(
        self,
        shape: MachineShape,
        vm_types: Sequence[VMType],
        strategy: SuccessorStrategy,
    ):
        self.shape = shape
        self.vm_types = tuple(vm_types)
        self.strategy = strategy
        self._groups = tuple(shape.groups)
        self._n_groups = len(self._groups)
        self._memos = tuple(permutations.group_memo(g) for g in self._groups)
        self._lives = tuple(
            tuple(permutations.live_chunks(chunks) for chunks in vm.demands)
            for vm in self.vm_types
        )
        self._gids: List[Dict[Tuple[int, ...], int]] = [
            {} for _ in self._groups
        ]
        self._gusages: List[List[Tuple[int, ...]]] = [[] for _ in self._groups]
        # Per (vm, group): parent gid -> successor gid(s).  Plain
        # int-keyed dicts; the VM's demand multiset is fixed per slot.
        self._balanced: List[List[Dict[int, Optional[int]]]] = [
            [{} for _ in self._groups] for _ in self.vm_types
        ]
        self._options: List[List[Dict[int, Tuple[int, ...]]]] = [
            [{} for _ in self._groups] for _ in self.vm_types
        ]

    def _gid(self, g: int, usage: Tuple[int, ...]) -> int:
        ids = self._gids[g]
        gid = ids.get(usage)
        if gid is None:
            usages = self._gusages[g]
            gid = len(usages)
            ids[usage] = gid
            usages.append(usage)
        return gid

    def combo_of(self, usage: Usage) -> _Combo:
        """Intern a machine usage into its per-group id combo."""
        return tuple(self._gid(g, u) for g, u in enumerate(usage))

    def usage_of(self, combo: _Combo) -> Usage:
        """Reconstruct the canonical usage of a combo."""
        gusages = self._gusages
        return tuple(gusages[g][gid] for g, gid in enumerate(combo))

    def successor_combos(self, combo: _Combo) -> List[_Combo]:
        """Distinct successor combos of ``combo``, in discovery order."""
        seen: Dict[_Combo, None] = {}
        groups = self._groups
        gusages = self._gusages
        memos = self._memos
        if self.strategy is SuccessorStrategy.BALANCED:
            for vi in range(len(self.vm_types)):
                caches = self._balanced[vi]
                lives = self._lives[vi]
                succ: List[int] = []
                feasible = True
                for g, gid in enumerate(combo):
                    cache = caches[g]
                    if gid in cache:
                        sgid = cache[gid]
                    else:
                        placed = memos[g].balanced(
                            groups[g], gusages[g][gid], lives[g]
                        )
                        sgid = (
                            None
                            if placed is None
                            else self._gid(g, placed.new_usage)
                        )
                        cache[gid] = sgid
                    if sgid is None:
                        feasible = False
                        break
                    succ.append(sgid)
                if feasible:
                    seen.setdefault(tuple(succ))
            return list(seen)

        for vi in range(len(self.vm_types)):
            caches = self._options[vi]
            lives = self._lives[vi]
            per_group: List[Tuple[int, ...]] = []
            feasible = True
            for g, gid in enumerate(combo):
                cache = caches[g]
                opts = cache.get(gid)
                if opts is None:
                    placements = memos[g].enumerated(
                        groups[g], gusages[g][gid], lives[g]
                    )
                    opts = tuple(
                        self._gid(g, p.new_usage) for p in placements
                    )
                    cache[gid] = opts
                if not opts:
                    feasible = False
                    break
                per_group.append(opts)
            if feasible:
                for succ_combo in itertools.product(*per_group):
                    seen.setdefault(succ_combo)
        return list(seen)


def _reachable_limit_error(node_limit: int) -> GraphLimitExceeded:
    return GraphLimitExceeded(
        f"reachable profile graph exceeded node_limit="
        f"{node_limit}; coarsen the quantizers or use "
        f"SuccessorStrategy.BALANCED"
    )


def _build_reachable_serial(
    shape: MachineShape,
    vm_types: Tuple[VMType, ...],
    strategy: SuccessorStrategy,
    node_limit: int,
) -> ProfileGraph:
    """FIFO BFS from the empty profile over interned combos."""
    engine = _SuccessorEngine(shape, vm_types, strategy)
    root = engine.combo_of(shape.empty_usage())
    combo_ids: Dict[_Combo, int] = {root: 0}
    combos: List[_Combo] = [root]
    successors: List[Tuple[int, ...]] = []
    node = 0
    while node < len(combos):
        succ_ids: List[int] = []
        for succ_combo in engine.successor_combos(combos[node]):
            succ_id = combo_ids.get(succ_combo)
            if succ_id is None:
                if len(combos) >= node_limit:
                    raise _reachable_limit_error(node_limit)
                succ_id = len(combos)
                combo_ids[succ_combo] = succ_id
                combos.append(succ_combo)
            succ_ids.append(succ_id)
        successors.append(tuple(sorted(succ_ids)))
        node += 1
    return ProfileGraph(
        shape=shape,
        vm_types=vm_types,
        strategy=strategy,
        profiles=[engine.usage_of(c) for c in combos],
        successors=successors,
    )


def _full_profiles(
    shape: MachineShape, node_limit: int
) -> List[Usage]:
    profiles = [p.usage for p in iter_all_profiles(shape)]
    if len(profiles) > node_limit:
        raise GraphLimitExceeded(
            f"full lattice has {len(profiles)} profiles "
            f"(> node_limit={node_limit}); use mode='reachable'"
        )
    return profiles


def _build_full_serial(
    shape: MachineShape,
    vm_types: Tuple[VMType, ...],
    strategy: SuccessorStrategy,
    node_limit: int,
) -> ProfileGraph:
    profiles = _full_profiles(shape, node_limit)
    engine = _SuccessorEngine(shape, vm_types, strategy)
    combo_ids: Dict[_Combo, int] = {}
    combos: List[_Combo] = []
    for i, usage in enumerate(profiles):
        combo = engine.combo_of(usage)
        combo_ids[combo] = i
        combos.append(combo)
    successors = [
        tuple(sorted(combo_ids[s] for s in engine.successor_combos(combo)))
        for combo in combos
    ]
    return ProfileGraph(
        shape=shape,
        vm_types=vm_types,
        strategy=strategy,
        profiles=profiles,
        successors=successors,
    )


def build_profile_graph(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
    mode: str = "reachable",
    node_limit: int = 1_000_000,
) -> ProfileGraph:
    """Generate the profile graph G for a PM shape and VM type set.

    Args:
        shape: PM capacity across groups.
        vm_types: the VM type set ``S_v``; every type must be compatible
            with ``shape`` (incompatible types simply contribute no edges,
            but a type with zero total demand is rejected because it would
            create self-loops and break the DAG property).
        strategy: edge-generation strategy.
        mode: ``"reachable"`` (BFS from the empty profile) or ``"full"``
            (entire canonical lattice).
        node_limit: safety bound on the number of nodes.

    Raises:
        GraphLimitExceeded: when more than ``node_limit`` nodes arise.
        ValidationError: on an empty or degenerate VM type set.
    """
    vm_types = tuple(vm_types)
    require(len(vm_types) > 0, "vm_types must not be empty")
    for vm in vm_types:
        require(
            vm.total_units() > 0,
            f"VM type {vm.name!r} has zero total demand (would self-loop)",
        )
        require(
            len(vm.demands) == shape.n_groups,
            f"VM type {vm.name!r} has {len(vm.demands)} demand groups, "
            f"shape has {shape.n_groups}",
        )
    if mode not in ("reachable", "full"):
        raise ValidationError(f"unknown graph mode {mode!r}")

    if mode == "full":
        return _build_full_serial(shape, vm_types, strategy, node_limit)
    return _build_reachable_serial(shape, vm_types, strategy, node_limit)
