"""The usage-class index of the columnar fleet.

The paper's key observation (Section V.B) is that PMs at the same
*canonical* usage are interchangeable: Algorithm 2 scores profiles, not
machines.  This module maintains that equivalence structure online so the
serving path can evaluate each distinct ``(shape, canonical usage)``
class once per request instead of rediscovering it machine by machine.

The index partitions an :class:`~repro.core.soa.SoADatacenter`'s fleet
into three states, read from its columns:

* **used** — hosts at least one VM and is not crashed; grouped into
  classes keyed by ``(shape, canonical usage)``.
* **unused** — empty and healthy; usage is identically zero, so the
  class is the shape alone (grouped by shape id).
* **failed** — crashed; invisible to every listing until repaired.

Each class carries a deterministic *representative*: the member with the
lowest inventory position (for the standard ascending-pm_id construction
that is the lowest ``pm_id``).  Because a linear scan with a strict
``score > best`` comparison keeps the *first* machine achieving the
maximum, choosing among class representatives in position order
reproduces the scan's winner exactly — the determinism argument in
DESIGN.md section 3.10.

The used classes live in two structures addressed by class id:

* a :class:`SoAClassTable` interns every ``(shape, canonical usage)``
  key ever seen to a dense integer id and holds, per id, the sorted
  member positions plus representative and size columns, and logs the
  id of every membership change;
* a ``class_ids`` column maps every inventory position to the class id
  of its current used class (-1 while unused or failed), indexed like
  the fleet columns.  A refresh reads the old class from it, so only
  the new key is ever hashed, and a used PM's canonical usage is its
  class key's own tuple.

Class ids are *content-addressed* (the key is the class content, not its
membership), so a score memoized against an id stays valid while the
class empties and refills; only :meth:`UsageClassIndex.rebuild` (which
re-interns ids from scratch) invalidates them, and that bumps the epoch.

:class:`IndexedMachines` is the read-only view policies receive: it is a
``Sequence`` of the healthy machines (so list-based code keeps working
unchanged) that additionally exposes the class table, the unused shape
classes and a cheap single-PM exclusion used for migration-destination
selection.  A :class:`ClassRanking` keeps one policy's best used class
for one VM type current by reading the table's change log.

The datacenter builds its index and calls
:meth:`UsageClassIndex.refresh` with the PM's position after every
mutation; :meth:`UsageClassIndex.check_consistency` compares it with a
fresh build (the constraint auditor's check "I1").  The module sits in
``repro.core``, not ``repro.core.soa``, because :mod:`repro.core.policy`
imports it and ``repro.core.soa.datacenter`` imports the policy module.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
    overload,
)

import numpy as np

from repro.core.profile import MachineShape, Usage

if TYPE_CHECKING:
    from repro.core.soa.datacenter import SoADatacenter, SoAMachineView

__all__ = [
    "UsageClass", "SoAClassTable", "UsageClassIndex", "IndexedMachines",
    "ClassRanking",
]

ClassKey = Tuple[MachineShape, Usage]

#: Representative sentinel for ids whose class is currently empty; any
#: real inventory position compares smaller.
_NO_REP = np.iinfo(np.int64).max

#: Bounds that keep the change log and the ranking heaps proportional to
#: the classes: the log is trimmed past ``max(_LOG_MIN_ENTRIES,
#: _LOG_PER_CLASS * n_classes)`` entries, a heap compacted past
#: ``2 * n_live + _HEAP_SLACK``.
_LOG_MIN_ENTRIES, _LOG_PER_CLASS, _HEAP_SLACK = 4096, 4, 64


@dataclass(frozen=True)
class UsageClass:
    """One equivalence class of interchangeable machines.

    ``usage`` is the canonical usage shared by every member (identically
    zero for unused classes); ``representative`` is the member with the
    lowest inventory position and ``size`` the member count (after any
    view-level exclusion).
    """

    shape: MachineShape
    usage: Usage
    representative: Any
    size: int


def _discard_sorted(values: List[int], pos: int) -> None:
    """Remove ``pos`` from a sorted position list (it must be present)."""
    i = bisect_left(values, pos)
    if i >= len(values) or values[i] != pos:
        raise ValueError(f"position {pos} missing from index list")
    del values[i]


class SoAClassTable:
    """Dense id interning of used-class keys with members and rep/size columns.

    Ids are handed out monotonically and never reused within an epoch;
    an id whose class emptied keeps its key (size 0, sentinel rep) so
    memoized per-id state stays addressable.  ``members[id]`` is the
    class's sorted member positions; ``rep``/``size`` mirror it as plain
    lists, and ``n_live`` counts the non-empty classes.  ``log``
    records the id of every ``add``/``remove``;
    ``log[i]`` is change number ``log_base + i``, and the oldest half is
    dropped (``log_base`` advances) once the log outgrows
    ``max(_LOG_MIN_ENTRIES, _LOG_PER_CLASS * n_classes)`` entries.
    """

    __slots__ = (
        "_id_of", "keys", "members", "rep", "size", "n_classes", "n_live",
        "log", "log_base", "_log_limit",
    )

    def __init__(self) -> None:
        self._id_of: Dict[ClassKey, int] = {}
        self.keys: List[ClassKey] = []
        self.members: List[List[int]] = []
        self.rep: List[int] = []
        self.size: List[int] = []
        self.n_classes = 0
        self.n_live = 0
        self.log: List[int] = []
        self.log_base = 0
        self._log_limit = _LOG_MIN_ENTRIES

    def lookup(self, key: ClassKey) -> int:
        """Id of a key, or -1 when never interned."""
        return self._id_of.get(key, -1)

    def intern(self, key: ClassKey) -> int:
        """Id of a key, handing out the next id (empty class) on first sight."""
        class_id = self._id_of.get(key)
        if class_id is not None:
            return class_id
        class_id = self.n_classes
        self._id_of[key] = class_id
        self.keys.append(key)
        self.members.append([])
        self.rep.append(_NO_REP)
        self.size.append(0)
        self.n_classes += 1
        self._log_limit = max(
            _LOG_MIN_ENTRIES, _LOG_PER_CLASS * self.n_classes
        )
        return class_id

    def add(self, class_id: int, pos: int) -> None:
        """Insert member position ``pos`` into class ``class_id``."""
        members = self.members[class_id]
        insort(members, pos)
        self.rep[class_id] = members[0]
        self.size[class_id] = len(members)
        if len(members) == 1:
            self.n_live += 1
        self.log.append(class_id)
        if len(self.log) > self._log_limit:
            self._trim_log()

    def remove(self, class_id: int, pos: int) -> None:
        """Remove member position ``pos`` (it must be present)."""
        members = self.members[class_id]
        _discard_sorted(members, pos)
        self.rep[class_id] = members[0] if members else _NO_REP
        self.size[class_id] = len(members)
        if not members:
            self.n_live -= 1
        self.log.append(class_id)
        if len(self.log) > self._log_limit:
            self._trim_log()

    def _trim_log(self) -> None:
        drop = len(self.log) // 2
        del self.log[:drop]
        self.log_base += drop

    def live_classes(self) -> Dict[ClassKey, List[int]]:
        """``{key: members}`` of every currently non-empty class."""
        return {
            key: members
            for key, members in zip(self.keys, self.members)
            if members
        }


class UsageClassIndex:
    """Usage-class partition of one :class:`SoADatacenter`'s fleet.

    Reads the datacenter's ``failed``, ``alloc_count`` and ``shape_id``
    columns, views and PM-id map, and copies none of them; it adds the
    healthy/used/unused position lists, the unused positions by shape
    id, the class table and ``class_ids``.  A PM's canonical usage is
    derived: its class key's tuple, its shape's zero usage while empty,
    None while crashed.
    """

    def __init__(self, dc: SoADatacenter) -> None:
        self._dc = dc
        #: Bulk-rebuild generation counter.  Incremental refreshes leave
        #: it untouched; :meth:`rebuild` bumps it so consumers that memoize
        #: against index-internal identifiers (class ids, per-class score
        #: vectors, the candidate memo) know their entries predate the
        #: rebuild and must be dropped.
        self.epoch = 0
        self._build()

    def _build(self) -> None:
        """Derive every maintained structure from the datacenter's columns.

        The position lists come straight from the ``failed`` and
        ``alloc_count`` columns, and the empty PMs are grouped by their
        ``shape_id``: no empty or crashed PM's usage is read.  Only the
        used PMs are classified, one at a time in inventory order, so
        the class table interns ids in inventory order.
        """
        cols = self._dc._cols
        healthy = ~cols.failed
        used = healthy & (cols.alloc_count > 0)
        unused = np.flatnonzero(healthy & ~used)
        self._healthy: List[int] = np.flatnonzero(healthy).tolist()
        self._used: List[int] = np.flatnonzero(used).tolist()
        self._unused: List[int] = unused.tolist()
        unused_shapes = cols.shape_id[unused]
        self._unused_by_shape: Dict[int, List[int]] = {
            int(shape_id): unused[unused_shapes == shape_id].tolist()
            for shape_id in np.unique(unused_shapes)
        }
        self.table = table = SoAClassTable()
        self.class_ids = np.full(cols.n, -1, dtype=np.int64)
        infos, views = self._dc._infos, self._dc._views
        for pos in self._used:
            shape = infos[cols.shape_id[pos]].shape
            canonical = shape.canonicalize(views[pos].usage)
            class_id = table.intern((shape, canonical))
            table.add(class_id, pos)  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
            self.class_ids[pos] = class_id

    def rebuild(self) -> None:
        """Re-derive the whole index in place and bump the epoch.

        The bulk-reload seam: after out-of-band machine mutation (a
        checkpoint restore, a columnar array rebuild) the incremental
        structures are untrusted, so everything is rebuilt from the
        columns and every class id re-interned.  The object identity of
        the index is preserved — only the epoch moves — which is what
        lets consumers distinguish "same index, state rebuilt underneath
        me" from "a different index".
        """
        self._build()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(
        self, pos: int, key: Optional[ClassKey], class_id: int
    ) -> int:
        """Move the PM at ``pos`` to the state its columns now show;
        returns its used-class id (-1 while unused or failed).

        Called once per change the index tracks: a place or remove on a
        healthy PM, a crash, a repair.  A crashed PM's evictions are not
        refreshed, so a PM found crashed was healthy before, and an
        empty healthy PM without a class was crashed.  A write passes
        the ``(shape, canonical usage)`` it left and the id this method
        returned for that key before (its memoized transition holds
        both): the lookup is skipped while ``class_id`` still names the
        table's own copy of ``key``.  A crash or repair passes None.  A
        used→used write leaves the position lists untouched: at 100k
        PMs they are ~800 KB each, and re-inserting would memmove them.
        """
        cols = self._dc._cols
        table = self.table
        old_id = int(self.class_ids[pos])
        new_id = -1
        if cols.failed[pos]:
            if old_id < 0:
                self._drop_unused(pos)
            else:
                _discard_sorted(self._used, pos)
            _discard_sorted(self._healthy, pos)
        elif cols.alloc_count[pos] == 0:
            if old_id < 0:
                insort(self._healthy, pos)
            else:
                _discard_sorted(self._used, pos)
            insort(self._unused, pos)
            insort(
                self._unused_by_shape.setdefault(int(cols.shape_id[pos]), []),
                pos,
            )
        else:
            if not (
                0 <= class_id < table.n_classes
                and table.keys[class_id] is key
            ):
                class_id = table.intern(cast(ClassKey, key))
            new_id = class_id
            if old_id < 0:
                self._drop_unused(pos)
                insort(self._used, pos)
        if new_id != old_id:
            if old_id >= 0:
                table.remove(old_id, pos)  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
            if new_id >= 0:
                table.add(new_id, pos)  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
            self.class_ids[pos] = new_id
        return new_id

    def _drop_unused(self, pos: int) -> None:
        """Remove an empty PM from the unused lists."""
        _discard_sorted(self._unused, pos)
        shape_id = int(self._dc._cols.shape_id[pos])
        same_shape = self._unused_by_shape[shape_id]
        _discard_sorted(same_shape, pos)
        if not same_shape:
            del self._unused_by_shape[shape_id]

    # ------------------------------------------------------------------
    # Maintained lookups
    # ------------------------------------------------------------------
    @property
    def n_used(self) -> int:
        """Number of healthy PMs currently hosting VMs (O(1))."""
        return len(self._used)

    @property
    def n_classes(self) -> int:
        """Number of distinct used classes (observability)."""
        return self.table.n_live

    def used_machines(self) -> List[SoAMachineView]:
        """Used healthy machines in inventory order (O(used))."""
        views = self._dc._views
        return [views[p] for p in self._used]

    def healthy_machines(self) -> List[SoAMachineView]:
        """Non-crashed machines in inventory order (O(healthy))."""
        views = self._dc._views
        return [views[p] for p in self._healthy]

    def canonical_usage(self, pm_id: int) -> Optional[Usage]:
        """The canonical usage of a healthy PM (None if failed)."""
        return self._canonical_at(self._dc._pos_of[pm_id])

    def _canonical_at(self, pos: int) -> Optional[Usage]:
        if self._dc._cols.failed[pos]:
            return None
        class_id = int(self.class_ids[pos])
        if class_id >= 0:
            return self.table.keys[class_id][1]
        return self._dc._info_of_pos(pos).empty_usage

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> List[str]:
        """Compare the maintained state against a fresh build.

        Returns a list of human-readable discrepancies (empty when the
        index matches reality): the partition against an index freshly
        built from the columns, then the class table and the class-id
        column against the maintained classes.  The constraint auditor
        runs this as check "I1" so drift caused by out-of-band machine
        mutation is caught rather than silently served.
        """
        fresh = UsageClassIndex(self._dc)
        table = self.table
        positions = range(len(self.class_ids))
        problems: List[str] = []
        for label, mine, theirs in (
            ("canonical usage", [self._canonical_at(p) for p in positions],
             [fresh._canonical_at(p) for p in positions]),
            ("healthy set", self._healthy, fresh._healthy),
            ("used set", self._used, fresh._used),
            ("unused set", self._unused, fresh._unused),
            ("used classes", table.live_classes(),
             fresh.table.live_classes()),
            ("live class count", table.n_live, fresh.table.n_live),
            ("unused shape classes", self._unused_by_shape,
             fresh._unused_by_shape),
        ):
            if mine != theirs:
                problems.append(
                    f"index {label} diverged from a fresh scan: "
                    f"maintained {mine!r} != scanned {theirs!r}"
                )
        expected_ids = np.full(len(self.class_ids), -1, dtype=np.int64)
        for class_id, (key, members) in enumerate(
            zip(table.keys, table.members)
        ):
            expected_ids[members] = class_id
            if table.lookup(key) != class_id:
                problems.append(
                    f"class table key of row {class_id} is interned as "
                    f"{table.lookup(key)}"
                )
            rep_size = (table.rep[class_id], table.size[class_id])
            expected = (members[0] if members else _NO_REP, len(members))
            if rep_size != expected:
                problems.append(
                    f"class table row {class_id} diverged: rep/size "
                    f"{rep_size} != {expected}"
                )
        for pos in np.flatnonzero(expected_ids != self.class_ids).tolist():
            problems.append(
                f"class-id column stale at position {pos}: "
                f"{int(self.class_ids[pos])} != {int(expected_ids[pos])}"
            )
        return problems


class IndexedMachines(Sequence[Any]):
    """Class-structured live view of the healthy machines.

    Behaves as a ``Sequence`` of healthy machines in inventory order, so
    policies unaware of the index fall back to the plain linear scan;
    index-aware policies rank the class table instead.  ``excluding``
    produces a view that hides one PM (the migration source) — the only
    filtering the serving path ever needs.
    """

    __slots__ = ("_index", "_excluded", "_excluded_pos")

    def __init__(
        self, index: UsageClassIndex, excluded_pm: Optional[int] = None
    ) -> None:
        self._index = index
        self._excluded = excluded_pm
        self._excluded_pos = (
            -1 if excluded_pm is None
            else index._dc._pos_of.get(excluded_pm, -1)
        )

    @property
    def index(self) -> UsageClassIndex:
        """The backing index (shared, live)."""
        return self._index

    @property
    def class_table(self) -> SoAClassTable:
        """The live class-id table of the backing index."""
        return self._index.table

    @property
    def excluded_pm(self) -> Optional[int]:
        """The PM this view hides, or None."""
        return self._excluded

    def excluding(self, pm_id: int) -> "IndexedMachines":
        """A view over the same index hiding ``pm_id``.

        Views carry at most one exclusion (all the serving path needs:
        the migration source); excluding again replaces the previous PM.
        """
        return IndexedMachines(self._index, pm_id)

    def excluded_position(self) -> int:
        """Inventory position of the hidden PM, or -1."""
        return self._excluded_pos

    def class_members(self, class_id: int) -> List[int]:
        """Member positions of a used class id, ascending, exclusion applied."""
        ex = self._excluded_pos
        return [p for p in self._index.table.members[class_id] if p != ex]

    def machine_at(self, pos: int) -> SoAMachineView:
        """The machine at inventory position ``pos``."""
        return self._index._dc._views[pos]

    # ------------------------------------------------------------------
    # Sequence protocol (healthy machines, inventory order)
    # ------------------------------------------------------------------
    def _positions(self) -> List[int]:
        ex = self._excluded_pos
        if ex < 0:
            return self._index._healthy
        return [p for p in self._index._healthy if p != ex]

    def __len__(self) -> int:
        return len(self._positions())

    @overload
    def __getitem__(self, item: int) -> Any: ...

    @overload
    def __getitem__(self, item: slice) -> List[Any]: ...

    def __getitem__(self, item: Union[int, slice]) -> Any:
        positions = self._positions()
        views = self._index._dc._views
        if isinstance(item, slice):
            return [views[p] for p in positions[item]]
        return views[positions[item]]

    def __iter__(self) -> Iterator[Any]:
        views = self._index._dc._views
        ex = self._excluded_pos
        for p in self._index._healthy:
            if p != ex:
                yield views[p]

    # ------------------------------------------------------------------
    # Class listings
    # ------------------------------------------------------------------
    def used_list(self) -> List[Any]:
        """Used machines in inventory order (the legacy scan's input)."""
        views = self._index._dc._views
        ex = self._excluded_pos
        return [views[p] for p in self._index._used if p != ex]

    def unused_list(self) -> List[Any]:
        """Unused healthy machines in inventory order."""
        views = self._index._dc._views
        ex = self._excluded_pos
        return [views[p] for p in self._index._unused if p != ex]

    def unused_classes(self) -> List[UsageClass]:
        """Distinct unused shape classes ordered by representative position.

        Empty healthy machines carry identically zero usage, so the
        shape alone determines feasibility and the resulting placement.
        """
        dc = self._index._dc
        ex = self._excluded_pos
        rows: List[Tuple[int, int, int]] = []
        for shape_id, members in self._index._unused_by_shape.items():
            size = len(members)
            rep = members[0]
            if ex >= 0:
                i = bisect_left(members, ex)
                if i < size and members[i] == ex:
                    size -= 1
                    if size == 0:
                        continue
                    if rep == ex:
                        rep = members[1]
            rows.append((rep, shape_id, size))
        rows.sort(key=lambda row: row[0])
        return [
            UsageClass(
                dc._infos[shape_id].shape, dc._infos[shape_id].empty_usage,
                dc._views[rep], size,
            )
            for rep, shape_id, size in rows
        ]


#: A class's rank key (compared lexicographically, smaller ranks first),
#: or None when the class can never win (the VM does not fit).
RankKey = Optional[Tuple[Any, ...]]


class ClassRanking:
    """The best live class of a class table under a fixed per-class key.

    One instance serves one (policy, VM type) pair.  ``keys`` holds each
    class id's key and ``values`` what its owner derived it from, both
    computed once (they depend on the class content only).  ``heap``
    holds entries ``key + (rep, class_id)``, and the smallest valid one
    wins: smallest key, ties to the lowest representative, i.e. the
    linear scan's first best machine.  An entry is valid while its
    class's representative is still ``rep``, so the heap is invalidated
    lazily: :meth:`sync` pushes the current entry of each class the
    change log names since ``cursor`` (``pushed`` holds the rep of each
    class's newest entry) and :meth:`top` pops stale entries as they
    surface.  The heap is rebuilt from the live classes on first use,
    when it would pass ``2 * n_live + _HEAP_SLACK`` entries, and when
    the log was trimmed past ``cursor``; the counters record how often
    each path ran.
    """

    __slots__ = (
        "keys", "values", "heap", "pushed", "cursor",
        "stale_pops", "compactions", "rebuilds", "excluded_tops",
    )

    def __init__(self) -> None:
        self.keys: Dict[int, RankKey] = {}
        self.values: Dict[int, Any] = {}
        self.heap: List[Tuple[Any, ...]] = []
        self.pushed: Dict[int, int] = {}
        self.cursor = -1
        self.stale_pops = self.compactions = 0
        self.rebuilds = self.excluded_tops = 0

    def sync(
        self,
        table: SoAClassTable,
        key_of: Callable[[List[int]], List[Tuple[RankKey, Any]]],
    ) -> None:
        """Bring the heap up to date with the table; ``key_of`` gives the
        ``(key, value)`` of each live class id that has no key yet."""
        log, base, cursor = table.log, table.log_base, self.cursor
        if cursor == base + len(log):
            return
        self.cursor = base + len(log)
        rep, keys, pushed = table.rep, self.keys, self.pushed
        scan = cursor < base
        changed: Iterable[int]
        if scan:
            self.rebuilds += cursor >= 0
            changed = range(table.n_classes)
        else:
            changed = log[cursor - base:]
        fresh = [
            cid for cid in changed
            if (pos := rep[cid]) != _NO_REP and pushed.get(cid) != pos
        ]
        unknown = [cid for cid in fresh if cid not in keys]
        if unknown:
            unknown = list(dict.fromkeys(unknown))
            for cid, (key, value) in zip(unknown, key_of(unknown)):
                keys[cid] = key
                self.values[cid] = value
        heap = self.heap
        if scan or len(heap) + len(fresh) > 2 * table.n_live + _HEAP_SLACK:
            self.compactions += not scan
            self.heap = heap = [
                key + (rep[cid], cid)
                for cid, key in keys.items()
                if key is not None and rep[cid] != _NO_REP
            ]
            heapify(heap)
            self.pushed = {entry[-1]: entry[-2] for entry in heap}
            return
        for cid in fresh:
            key, pos = keys[cid], rep[cid]
            if key is not None and pushed.get(cid) != pos:
                heappush(heap, key + (pos, cid))
                pushed[cid] = pos

    def top(
        self, table: SoAClassTable, ex: int = -1
    ) -> Optional[Tuple[Any, ...]]:
        """The winning entry ``key + (rep, class_id)``, position ``ex``
        hidden: a class whose representative is ``ex`` competes with its
        next member ``members[1]``.  Call :meth:`sync` first."""
        rep, heap, pushed = table.rep, self.heap, self.pushed
        held: List[Tuple[Any, ...]] = []
        while heap:
            entry = heap[0]
            pos, cid = entry[-2], entry[-1]
            if rep[cid] != pos:
                heappop(heap)
                self.stale_pops += 1
                if pushed.get(cid) == pos:
                    del pushed[cid]
            elif pos == ex:
                held.append(heappop(heap))
            else:
                break
        best = heap[0] if heap else None
        if held:
            self.excluded_tops += 1
            entry = held[0]
            members = table.members[entry[-1]]
            if len(members) > 1:
                runner = entry[:-2] + (members[1], entry[-1])
                if best is None or runner < best:
                    best = runner
            for entry in held:
                heappush(heap, entry)
        return best
