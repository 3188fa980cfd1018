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

Construction is a level-synchronous BFS (DESIGN.md section 3.9):

* per-group usages are interned into small integer ids (*gids*), so a
  machine usage is a row of a few ints and a BFS level is one
  ``(n, n_groups)`` int array;
* group-level placement results land in per-(group, demand) successor
  tables — the balanced packings of a table's unfilled rows in one array
  pass, the exhaustive enumerations from the bounded memo tables in
  :mod:`repro.core.permutations` — and expand a whole level per VM type
  with ``np.repeat`` and mixed-radix indexing;
* nodes are found with one sorted-key ``searchsorted`` per level and
  numbered in first-occurrence order, which is the FIFO BFS order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np
from scipy import sparse

from repro.core import permutations
from repro.core.interning import packed_dtype_for
from repro.core.profile import (
    MachineShape,
    Usage,
    VMType,
    count_all_profiles,
    iter_all_profiles,
)
from repro.util.validation import ValidationError, require

__all__ = [
    "SuccessorStrategy",
    "GraphLimitExceeded",
    "ProfileGraph",
    "LevelOrder",
    "EdgeSegments",
    "build_profile_graph",
]


class SuccessorStrategy(enum.Enum):
    """How edges out of a profile are generated (see module docstring)."""

    ALL_PLACEMENTS = "all_placements"
    BALANCED = "balanced"


class GraphLimitExceeded(RuntimeError):
    """Raised when graph generation would exceed ``node_limit`` nodes."""


@dataclass(eq=False)
class ProfileGraph:
    """An immutable profile graph: node profiles and their arrays.

    Attributes:
        shape: the PM shape the graph is built for.
        vm_types: the VM type set ``S_v`` driving the edges.
        strategy: the successor strategy used.
        profiles: node id -> canonical usage.
        flat: the profiles as an ``(n_nodes, n_dimensions)`` matrix.
        indptr, indices: the adjacency in CSR form;
            ``indices[indptr[i]:indptr[i + 1]]`` are node ``i``'s distinct
            successor ids, sorted ascending.

    The three arrays are int64 and read-only; a consumer that needs to
    write copies first.
    """

    shape: MachineShape
    vm_types: Tuple[VMType, ...]
    strategy: SuccessorStrategy
    profiles: List[Usage]
    flat: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    _derived: Dict[str, Any] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        for name in ("flat", "indptr", "indices"):
            array = np.asarray(getattr(self, name), dtype=np.int64)
            array.flags.writeable = False
            setattr(self, name, array)

    @property
    def n_nodes(self) -> int:
        """Number of profiles in the graph."""
        return len(self.profiles)

    @property
    def n_edges(self) -> int:
        """Number of distinct (profile, successor-profile) edges."""
        return int(self.indptr[-1])

    def node_id(self, usage: Usage) -> Optional[int]:
        """Node id of a canonical usage, or None if absent."""
        return self._node_index().get(usage)

    def contains(self, usage: Usage) -> bool:
        """True when the canonical usage is a node of the graph."""
        return usage in self._node_index()

    def _node_index(self) -> Dict[Usage, int]:
        """Usage -> node id, built on the first lookup (the hot paths
        read the arrays and never look a usage up)."""
        return self.memo(
            "node_index", lambda: {u: i for i, u in enumerate(self.profiles)}
        )

    def memo(self, key: str, builder: Callable[[], Any]) -> Any:
        """Cache an immutable derived structure on the graph.

        The graph never changes after construction, so the level order
        and the kernels' derived arrays are built once and shared by
        every consumer (PageRank kernels, BPRU/EFU passes, benchmarks).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = builder()
            self._derived[key] = value
            return value

    def packed_profiles(self) -> np.ndarray:
        """All profiles as a packed unsigned (n_nodes, n_dimensions) matrix.

        The dtype is the smallest unsigned type covering the shape's unit
        capacities (see :func:`repro.core.interning.packed_dtype_for`), so
        this is the compact wire/disk format used by the graph cache.
        Row order is node-id order.
        """
        return self.memo(
            "packed_profiles",
            lambda: self.flat.astype(packed_dtype_for(self.shape)),
        )

    def utilization_array(self) -> np.ndarray:
        """Mean per-dimension utilization of every node, as a float vector."""

        def build() -> np.ndarray:
            caps = np.asarray(
                [c for group in self.shape.groups for c in group.capacities],
                dtype=float,
            )
            # 4096-row blocks bound the float temporary (a whole M3
            # graph's is 13 MB); each row's mean is the same expression.
            out = np.empty(self.n_nodes)
            for lo in range(0, self.n_nodes, 4096):
                out[lo:lo + 4096] = (self.flat[lo:lo + 4096] / caps).mean(1)
            return out

        return self.memo("utilization_array", build)

    def level_order(self) -> "LevelOrder":
        """The graph's :class:`LevelOrder`, built once with array
        operations only."""

        def build() -> LevelOrder:
            n = self.n_nodes
            totals = self.flat.sum(axis=1)
            nodes = np.argsort(totals, kind="stable")
            cuts = np.concatenate(
                ([0], np.flatnonzero(np.diff(totals[nodes])) + 1, [n])
            )
            # scipy's CSR-to-CSC conversion is a stable counting sort of
            # the edges by target, so each target's sources ascend.
            csc = sparse.csr_matrix(
                (np.ones(self.n_edges, dtype=bool), self.indices, self.indptr),
                shape=(n, n),
            ).tocsc()
            # int64 like the graph's arrays: a gather through int32
            # indices converts them first, on every sweep.
            in_indptr, in_indices = (
                array.astype(np.int64) for array in (csc.indptr, csc.indices)
            )
            return LevelOrder(
                nodes, cuts,
                EdgeSegments.of(nodes, cuts, self.indptr, self.indices, True),
                EdgeSegments.of(nodes, cuts, in_indptr, in_indices, False),
                in_indptr, in_indices,
            )

        return self.memo("level_order", build)


class EdgeSegments(NamedTuple):
    """One direction of a graph's edges, grouped by owner in level order.

    ``others`` holds the other ends of ``owners``' edges, one segment
    per owner; nodes without edges this way own none.  ``spans`` lists
    ``[lo, hi, first, last]`` for each level with edges, lowest first:
    its ``owners[lo:hi]`` and ``others[first:last]``.  ``offsets`` count
    each segment's start from its level's first edge, for ``reduceat``.
    """

    owners: np.ndarray
    offsets: np.ndarray
    others: np.ndarray
    spans: List[List[int]]
    descending: bool

    @classmethod
    def of(
        cls, nodes: np.ndarray, cuts: np.ndarray, indptr: np.ndarray,
        ends: np.ndarray, descending: bool,
    ) -> "EdgeSegments":
        """Regroup the CSR-like ``(indptr, ends)`` into the node order
        ``nodes``, whose levels start at ``cuts``."""
        degree = np.diff(indptr)[nodes]
        has_edges = degree > 0
        owners, counts = nodes[has_edges], degree[has_edges]
        starts = np.concatenate(([0], np.cumsum(counts)))
        others = ends[
            np.repeat(indptr[owners] - starts[:-1], counts)
            + np.arange(starts[-1])
        ]
        owner_cuts = np.concatenate(([0], np.cumsum(has_edges)))[cuts]
        edge_cuts = starts[owner_cuts]
        offsets = starts[:-1] - np.repeat(edge_cuts[:-1], np.diff(owner_cuts))
        spans = np.stack(
            (owner_cuts[:-1], owner_cuts[1:], edge_cuts[:-1], edge_cuts[1:]),
            axis=1,
        )[np.diff(owner_cuts) > 0]
        return cls(owners, offsets, others, spans.tolist(), descending)

    def levels(self) -> Iterator[Tuple[np.ndarray, slice, np.ndarray]]:
        """Each level's ``(owners, edges, offsets)``, ``edges`` a slice
        of ``others``, in pass order: the top level first when
        ``descending`` (out-edges, whose successors must finish first),
        else the bottom level first (in-edges)."""
        spans = reversed(self.spans) if self.descending else self.spans
        for lo, hi, first, last in spans:
            yield self.owners[lo:hi], slice(first, last), self.offsets[lo:hi]


class LevelOrder(NamedTuple):
    """A profile graph's one topological order, read by every pass.

    Every edge adds a VM with positive total demand, so total used
    units strictly grow along edges: the nodes of one total form a
    level and every edge climbs.  ``nodes`` are the node ids stably
    sorted by total, so ids ascend within a level, and level ``l`` is
    ``nodes[level_cuts[l]:level_cuts[l + 1]]``.  ``out`` groups the
    edges by source in CSR order, ``into`` by target in the order of
    the CSC arrays ``in_indptr``/``in_indices``; either way a segment's
    other ends ascend by id.  ``np.add.reduceat`` sums a segment in
    stored order, so this order fixes the kernels' bits.  BPRU, EFU and
    the reverse-direction sweep walk ``out``; the forward sweep walks
    ``into``.
    """

    nodes: np.ndarray
    level_cuts: np.ndarray
    out: EdgeSegments
    into: EdgeSegments
    in_indptr: np.ndarray
    in_indices: np.ndarray


class _Table:
    """One group's successor rows for one demand multiset.

    Row ``gid`` lists a parent gid's successor gids in enumeration order,
    ``pool[start[gid]:start[gid] + count[gid]]``; ``count`` is 0 where
    the demand does not fit and -1 until the row is filled.
    """

    __slots__ = ("live", "start", "count", "pool")

    def __init__(self, live: Tuple[int, ...]):
        self.live = live
        self.start, self.count, self.pool = (
            np.zeros(0, dtype=np.int64) for _ in range(3)
        )


class _SuccessorEngine:
    """Level-at-a-time successor generation over per-group interned ids.

    Every distinct per-group usage tuple gets a dense *gid*, so a machine
    usage is a row of gids and a BFS frontier an ``(n, n_groups)`` array.
    Group-level placements land in one :class:`_Table` per (group, demand
    multiset): the balanced packings of all rows to fill from one
    :func:`repro.core.permutations.balanced_group_packings` call (the
    placement memo is left to the on-line path), the exhaustive
    enumerations from the shared bounded memos.  A row is filled only for
    a gid that occurs in a frontier row whose earlier groups fit the VM,
    so the build never walks a group's whole placement closure.

    :meth:`expand` emits candidates in (parent, VM type, option) order,
    last group varying fastest: the order the per-node builder found
    them in.  First-occurrence ids over it keep node ids, and every float
    reduction downstream, bit-identical across builder generations.
    """

    __slots__ = ("strategy", "_groups", "_memos", "_gids", "_gusages", "_tables")

    def __init__(
        self,
        shape: MachineShape,
        vm_types: Sequence[VMType],
        strategy: SuccessorStrategy,
    ):
        self.strategy = strategy
        self._groups = tuple(shape.groups)
        self._memos = tuple(permutations.group_memo(g) for g in self._groups)
        self._gids: List[Dict[Tuple[int, ...], int]] = [{} for _ in self._groups]
        self._gusages: List[List[Tuple[int, ...]]] = [[] for _ in self._groups]
        shared: List[Dict[Tuple[int, ...], _Table]] = [{} for _ in self._groups]
        self._tables = tuple(
            tuple(
                shared[g].setdefault(live, _Table(live))
                for g, live in enumerate(map(permutations.live_chunks, vm.demands))
            )
            for vm in vm_types
        )

    def _gid(self, g: int, usage: Tuple[int, ...]) -> int:
        ids = self._gids[g]
        gid = ids.get(usage)
        if gid is None:
            usages = self._gusages[g]
            gid = ids[usage] = len(usages)
            usages.append(usage)
        return gid

    def rows_of(self, usages: Sequence[Usage]) -> np.ndarray:
        """Intern machine usages into an ``(n, n_groups)`` gid array."""
        return np.array(
            [[self._gid(g, u) for g, u in enumerate(usage)] for usage in usages],
            dtype=np.int64,
        )

    def profiles_of(self, rows: np.ndarray) -> List[Usage]:
        """The canonical usages of gid rows."""
        return list(zip(*(
            map(usages.__getitem__, rows[:, g].tolist())
            for g, usages in enumerate(self._gusages)
        )))

    def flat_of(self, rows: np.ndarray) -> np.ndarray:
        """The usages of gid rows as an ``(n, n_dimensions)`` int matrix."""
        return np.hstack([
            np.array(usages, dtype=np.int64)[rows[:, g]]
            for g, usages in enumerate(self._gusages)
        ])

    def _fill(self, g: int, table: _Table, gids: np.ndarray) -> None:
        """Fill the rows of the distinct ``gids`` that are still empty."""
        grow = len(self._gusages[g]) - len(table.count)
        if grow:
            table.start = np.concatenate((table.start, np.zeros(grow, np.int64)))
            table.count = np.concatenate((table.count, np.full(grow, -1)))
        gids = gids[table.count[gids] < 0]
        if not len(gids):
            return
        group, usages = self._groups[g], self._gusages[g]
        if self.strategy is SuccessorStrategy.BALANCED:
            new_usages, _, fits = permutations.balanced_group_packings(
                group, np.array([usages[gid] for gid in gids.tolist()]),
                table.live,
            )
            # Most successors are distinct, so interning every row costs
            # less than deduplicating the rows first.
            filled = fits.astype(np.int64)
            pool = np.array(
                [self._gid(g, tuple(u)) for u in new_usages[fits].tolist()],
                dtype=np.int64,
            )
        else:
            memo = self._memos[g]
            counts: List[int] = []
            successors: List[int] = []
            for gid in gids.tolist():
                placements = memo.enumerated(group, usages[gid], table.live)
                counts.append(len(placements))
                successors.extend(self._gid(g, p.new_usage) for p in placements)
            filled = np.array(counts, dtype=np.int64)
            pool = np.array(successors, dtype=np.int64)
        table.start[gids] = len(table.pool) + np.cumsum(filled) - filled
        table.count[gids] = filled
        table.pool = np.concatenate((table.pool, pool))

    def expand(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(parents, rows)``: frontier row indices and successor gid rows.

        A parent may repeat a successor (two VM types can land on the
        same profile); the caller deduplicates.
        """
        n, n_groups = frontier.shape
        columns = [np.unique(frontier[:, g], return_inverse=True)
                   for g in range(n_groups)]
        parents = [np.zeros(0, dtype=np.int64)]
        blocks = [np.zeros((0, n_groups), dtype=np.int64)]
        for tables in self._tables:
            fits = np.ones(n, dtype=bool)
            for g, (table, (gids, inverse)) in enumerate(zip(tables, columns)):
                needed = np.zeros(len(gids), dtype=bool)
                needed[inverse[fits]] = True
                self._fill(g, table, gids[needed])
                fits &= table.count[frontier[:, g]] > 0
            rows = np.flatnonzero(fits)
            starts = [t.start[frontier[rows, g]] for g, t in enumerate(tables)]
            counts = [t.count[frontier[rows, g]] for g, t in enumerate(tables)]
            per_row = np.prod(counts, axis=0)
            # Mixed-radix option index per candidate, last group fastest.
            option = np.arange(int(per_row.sum()), dtype=np.int64)
            option -= np.repeat(np.cumsum(per_row) - per_row, per_row)
            block = np.empty((len(option), n_groups), dtype=np.int64)
            for g in reversed(range(n_groups)):
                radix = np.repeat(counts[g], per_row)
                block[:, g] = tables[g].pool[
                    np.repeat(starts[g], per_row) + option % radix
                ]
                option //= radix
            parents.append(np.repeat(rows, per_row))
            blocks.append(block)
        parent = np.concatenate(parents)
        order = np.argsort(parent, kind="stable")
        return parent[order], np.concatenate(blocks)[order]


def _row_keys(shape: MachineShape) -> Callable[[np.ndarray], np.ndarray]:
    """An exact key for gid rows: equal keys iff equal rows.

    A gid stays below its group's canonical lattice size, so rows pack
    into one int64 by mixed radix whenever the whole lattice fits; wider
    shapes compare whole rows through a structured view instead.
    """
    sizes = [count_all_profiles(MachineShape(groups=(g,))) for g in shape.groups]
    if math.prod(sizes) <= np.iinfo(np.int64).max:
        weights = np.array(
            [math.prod(sizes[g + 1:]) for g in range(len(sizes))], np.int64
        )
        return lambda rows: rows @ weights
    fields = np.dtype([(f"g{g}", np.int64) for g in range(len(sizes))])
    return lambda rows: np.ascontiguousarray(rows).view(fields).ravel()


def _build(
    shape: MachineShape,
    vm_types: Tuple[VMType, ...],
    strategy: SuccessorStrategy,
    mode: str,
    node_limit: int,
) -> ProfileGraph:
    """Level-synchronous BFS over gid rows.

    ``reachable`` starts from the empty profile and numbers the nodes
    first found while expanding level d after all of level d, in
    (parent, VM type, option) order: the ids a FIFO BFS assigns.
    ``full`` numbers the lattice up front and expands it as one level.
    """
    engine = _SuccessorEngine(shape, vm_types, strategy)
    key_of = _row_keys(shape)
    roots = [shape.empty_usage()]
    if mode == "full":
        roots = [p.usage for p in iter_all_profiles(shape)]
        if len(roots) > node_limit:
            raise GraphLimitExceeded(
                f"full lattice has {len(roots)} profiles "
                f"(> node_limit={node_limit}); use mode='reachable'"
            )
    blocks = [engine.rows_of(roots)]
    keys = key_of(blocks[0])
    known_ids = np.argsort(keys)
    known_keys = keys[known_ids]
    degrees: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    lo, n_nodes = 0, len(roots)
    while lo < n_nodes:
        parent, rows = engine.expand(blocks[-1])
        keys = key_of(rows)
        pos = np.minimum(np.searchsorted(known_keys, keys), len(known_keys) - 1)
        ids, new = known_ids[pos], known_keys[pos] != keys
        level_size, lo = n_nodes - lo, n_nodes
        if np.any(new):
            new_keys, first, inverse = np.unique(
                keys[new], return_index=True, return_inverse=True
            )
            if n_nodes + len(first) > node_limit:
                raise GraphLimitExceeded(
                    f"reachable profile graph exceeded node_limit="
                    f"{node_limit}; coarsen the quantizers or use "
                    f"SuccessorStrategy.BALANCED"
                )
            new_ids = np.empty(len(first), dtype=np.int64)
            new_ids[np.argsort(first)] = np.arange(n_nodes, n_nodes + len(first))
            ids[new] = new_ids[inverse]
            blocks.append(rows[new][np.sort(first)])
            at = np.searchsorted(known_keys, new_keys)
            known_keys = np.insert(known_keys, at, new_keys)
            known_ids = np.insert(known_ids, at, new_ids)
            n_nodes += len(first)
        edges = np.unique(parent * n_nodes + ids)
        degrees.append(np.bincount(edges // n_nodes, minlength=level_size))
        targets.append(edges % n_nodes)

    rows = np.concatenate(blocks)
    return ProfileGraph(
        shape, vm_types, strategy, engine.profiles_of(rows),
        engine.flat_of(rows),
        np.concatenate(([0], np.cumsum(np.concatenate(degrees)))),
        np.concatenate(targets),
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
    return _build(shape, vm_types, strategy, mode, node_limit)
