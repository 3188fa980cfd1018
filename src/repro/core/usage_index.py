"""Incremental usage-class index over a fixed machine inventory.

The paper's key observation (Section V.B) is that PMs at the same
*canonical* usage are interchangeable: Algorithm 2 scores profiles, not
machines.  This module maintains that equivalence structure online so the
serving path can evaluate each distinct ``(shape, canonical usage)``
class once per request instead of rediscovering it machine by machine.

The index partitions the inventory into three states:

* **used** — hosts at least one VM and is not crashed; grouped into
  classes keyed by ``(shape, canonical usage)``.
* **unused** — empty and healthy; usage is identically zero, so the
  class is the shape alone.
* **failed** — crashed; invisible to every listing until repaired.

Each class carries a deterministic *representative*: the member with the
lowest inventory position (for the standard ascending-pm_id construction
that is the lowest ``pm_id``).  Because a linear scan with a strict
``score > best`` comparison keeps the *first* machine achieving the
maximum, choosing among class representatives in position order
reproduces the scan's winner exactly — the determinism argument in
DESIGN.md section 3.10.

The used classes are mirrored into columns for the vectorized placement
path:

* a :class:`SoAClassTable` interns every ``(shape, canonical usage)``
  key ever seen to a dense integer id, with per-id representative and
  size columns (numpy arrays) that policies rank with one masked
  ``argmax`` instead of a Python loop over classes;
* a ``class_ids`` column maps every inventory position to the class id
  of its current used class (-1 while unused or failed), indexed like
  the fleet columns.

Class ids are *content-addressed* (the key is the class content, not its
membership), so a score memoized against an id stays valid while the
class empties and refills; only :meth:`UsageClassIndex.rebuild` (which
re-interns ids from scratch) invalidates them, and that bumps the epoch.

:class:`IndexedMachines` is the read-only view policies receive: it is a
``Sequence`` of the healthy machines (so list-based code keeps working
unchanged) that additionally exposes the class table, the unused shape
classes and a cheap single-PM exclusion used for migration-destination
selection.

The index is owned and driven by :class:`repro.core.soa.SoADatacenter`,
which calls :meth:`UsageClassIndex.refresh` after every mutation;
:meth:`UsageClassIndex.check_consistency` rebuilds from a fresh scan and
reports any divergence (surfaced by the constraint auditor as check
"I1").  The module sits in ``repro.core`` rather than ``repro.core.soa``
because :mod:`repro.core.policy` imports it, and the ``repro.core.soa``
package imports the policy module through the object datacenter.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
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
from repro.util.validation import require

__all__ = ["UsageClass", "SoAClassTable", "UsageClassIndex", "IndexedMachines"]

ClassKey = Tuple[MachineShape, Usage]

# Machine states tracked per inventory position.
_NEW = "new"          # pre-initialization sentinel
_USED = "used"
_UNUSED = "unused"
_FAILED = "failed"

#: Representative sentinel for ids whose class is currently empty; any
#: real inventory position compares smaller.
_NO_REP = np.iinfo(np.int64).max


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


def _add_member(groups: Dict[Any, List[int]], key: Hashable, pos: int) -> None:
    """Insert ``pos`` into the sorted member list of ``groups[key]``."""
    members = groups.get(key)
    if members is None:
        groups[key] = [pos]
    else:
        insort(members, pos)


def _remove_member(
    groups: Dict[Any, List[int]], key: Hashable, pos: int
) -> None:
    """Remove ``pos`` from ``groups[key]``, dropping the key once empty."""
    members = groups[key]
    _discard_sorted(members, pos)
    if not members:
        del groups[key]


class SoAClassTable:
    """Dense id interning of used-class keys with rep/size columns.

    Ids are handed out monotonically and never reused within an epoch;
    an id whose class emptied keeps its key (size 0, sentinel rep) so
    memoized per-id scores stay addressable.
    """

    __slots__ = ("_id_of", "keys", "_rep", "_size", "n_classes")

    def __init__(self) -> None:
        self._id_of: Dict[ClassKey, int] = {}
        self.keys: List[ClassKey] = []
        self._rep = np.full(64, _NO_REP, dtype=np.int64)
        self._size = np.zeros(64, dtype=np.int64)
        self.n_classes = 0

    def lookup(self, key: ClassKey) -> int:
        """Id of a key, or -1 when never interned."""
        return self._id_of.get(key, -1)

    def _intern(self, key: ClassKey) -> int:
        class_id = self._id_of.get(key)
        if class_id is not None:
            return class_id
        class_id = self.n_classes
        if class_id >= self._rep.size:
            for name, fill in (("_rep", _NO_REP), ("_size", 0)):
                old = getattr(self, name)
                grown = np.full(old.size * 2, fill, dtype=np.int64)
                grown[:old.size] = old
                setattr(self, name, grown)
        self._id_of[key] = class_id
        self.keys.append(key)
        self.n_classes += 1
        return class_id

    def update(self, key: ClassKey, members: Optional[Sequence[int]]) -> int:
        """Sync one key's rep/size from its (sorted) member positions."""
        class_id = self._intern(key)
        if members:
            self._rep[class_id] = members[0]
            self._size[class_id] = len(members)
        else:
            self._rep[class_id] = _NO_REP
            self._size[class_id] = 0
        return class_id

    @property
    def rep(self) -> np.ndarray:
        """Representative position per id (sentinel when empty)."""
        return self._rep[: self.n_classes]

    @property
    def size(self) -> np.ndarray:
        """Member count per id (0 when currently empty)."""
        return self._size[: self.n_classes]


class UsageClassIndex:
    """Maintained partition of a machine inventory into usage classes.

    Args:
        machines: the full, fixed inventory.  Anything exposing
            ``pm_id``, ``shape``, ``usage``, ``is_used`` and
            ``is_failed`` qualifies.
    """

    def __init__(self, machines: Sequence[Any]) -> None:
        self._machines = list(machines)
        self._pos: Dict[int, int] = {
            m.pm_id: i for i, m in enumerate(self._machines)
        }
        require(
            len(self._pos) == len(self._machines),
            "usage index needs unique pm_ids",
        )
        #: Bulk-rebuild generation counter.  Incremental refreshes leave
        #: it untouched; :meth:`rebuild` bumps it so consumers that memoize
        #: against index-internal identifiers (class ids, per-class score
        #: vectors, the candidate memo) know their entries predate the
        #: rebuild and must be dropped.
        self.epoch = 0
        self._reset()

    def _reset(self) -> None:
        """(Re-)derive every maintained structure from a fresh scan.

        The class table is created anew, so every class id is
        re-interned in inventory order.
        """
        n = len(self._machines)
        self._state: List[str] = [_NEW] * n
        # Canonical usage per position; None while new or failed.
        self._canon: List[Optional[Usage]] = [None] * n
        self._healthy: List[int] = []
        self._used: List[int] = []
        self._unused: List[int] = []
        self._classes: Dict[ClassKey, List[int]] = {}
        self._unused_by_shape: Dict[MachineShape, List[int]] = {}
        self.table = SoAClassTable()
        self.class_ids = np.full(n, -1, dtype=np.int64)
        for machine in self._machines:
            self.refresh(machine.pm_id)

    def rebuild(self) -> None:
        """Re-derive the whole index in place and bump the epoch.

        The bulk-reload seam: after out-of-band machine mutation (a
        checkpoint restore, a columnar array rebuild) the incremental
        structures are untrusted, so everything is rescanned and every
        class id re-interned.  The object identity of the index is
        preserved — only the epoch moves — which is what lets consumers
        distinguish "same index, state rebuilt underneath me" from "a
        different index".
        """
        self._reset()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, pm_id: int) -> None:
        """Re-derive one machine's class membership from its live state.

        Called by the datacenter after every mutation touching the PM
        (place, evict, crash, repair).  Cost is O(log n) bisects plus
        one canonicalization.  A mutation that keeps the machine's broad
        state (used→used, unused→unused) leaves the healthy/used
        position lists untouched: at 100k PMs those lists are ~800 KB
        each, and re-inserting into them would memmove both on every
        placement.

        Raises:
            KeyError: for ids outside the indexed inventory.
        """
        pos = self._pos.get(pm_id)
        if pos is None:
            raise KeyError(f"no PM with id {pm_id} in the usage index")
        machine = self._machines[pos]
        shape = machine.shape
        old_state = self._state[pos]
        old_key: Optional[ClassKey] = None
        if old_state == _USED:
            old_canon = self._canon[pos]
            assert old_canon is not None  # used machines always carry one
            old_key = (shape, old_canon)

        if machine.is_failed:
            new_state = _FAILED
        elif machine.is_used:
            new_state = _USED
        else:
            new_state = _UNUSED
        if new_state != old_state:
            self._move(pos, machine, old_state, new_state)

        new_key: Optional[ClassKey] = None
        if new_state == _USED:
            new_key = (shape, shape.canonicalize(machine.usage))
        # Class membership and table sync: old key first, then new key.
        if new_key != old_key:
            if old_key is not None:
                _remove_member(self._classes, old_key, pos)
                self.table.update(old_key, self._classes.get(old_key))  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
            if new_key is not None:
                self._canon[pos] = new_key[1]
                _add_member(self._classes, new_key, pos)
        if new_key is None:
            self.class_ids[pos] = -1
        else:
            self.class_ids[pos] = self.table.update(  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
                new_key, self._classes[new_key]
            )

    def _move(
        self, pos: int, machine: Any, old_state: str, new_state: str
    ) -> None:
        """Move a position between the used/unused/failed partitions.

        Used-class membership is left to :meth:`refresh`; this maintains
        the position lists, the unused shape classes and the canonical
        usage of unused and failed machines.
        """
        shape = machine.shape
        if old_state == _USED:
            _discard_sorted(self._used, pos)
        elif old_state == _UNUSED:
            _discard_sorted(self._unused, pos)
            _remove_member(self._unused_by_shape, shape, pos)
        was_healthy = old_state in (_USED, _UNUSED)
        if new_state == _FAILED:
            self._canon[pos] = None
            if was_healthy:
                _discard_sorted(self._healthy, pos)
        elif not was_healthy:
            insort(self._healthy, pos)
        if new_state == _USED:
            insort(self._used, pos)
        elif new_state == _UNUSED:
            self._canon[pos] = shape.canonicalize(machine.usage)
            insort(self._unused, pos)
            _add_member(self._unused_by_shape, shape, pos)
        self._state[pos] = new_state

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
        return len(self._classes)

    def used_machines(self) -> List[Any]:
        """Used healthy machines in inventory order (O(used))."""
        return [self._machines[p] for p in self._used]

    def healthy_machines(self) -> List[Any]:
        """Non-crashed machines in inventory order (O(healthy))."""
        return [self._machines[p] for p in self._healthy]

    def canonical_usage(self, pm_id: int) -> Optional[Usage]:
        """The maintained canonical usage of a healthy PM (None if failed)."""
        return self._canon[self._pos[pm_id]]

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> List[str]:
        """Compare the maintained state against a fresh scan.

        Returns a list of human-readable discrepancies (empty when the
        index matches reality): the partition against a freshly built
        index, then the class table and the class-id column against the
        maintained classes.  The constraint auditor runs this as check
        "I1" so drift caused by out-of-band machine mutation is caught
        rather than silently served.
        """
        fresh = UsageClassIndex(self._machines)
        problems: List[str] = []
        for label, mine, theirs in (
            ("state", self._state, fresh._state),
            ("canonical usage", self._canon, fresh._canon),
            ("healthy set", self._healthy, fresh._healthy),
            ("used set", self._used, fresh._used),
            ("unused set", self._unused, fresh._unused),
            ("used classes", self._classes, fresh._classes),
            ("unused shape classes", self._unused_by_shape,
             fresh._unused_by_shape),
        ):
            if mine != theirs:
                problems.append(
                    f"index {label} diverged from a fresh scan: "
                    f"maintained {mine!r} != scanned {theirs!r}"
                )
        active_ids = set()
        for key, members in self._classes.items():
            class_id = self.table.lookup(key)
            if class_id < 0:
                problems.append(
                    f"class table missing an id for live class {key!r}"
                )
                continue
            active_ids.add(class_id)
            if int(self.table.rep[class_id]) != members[0] or int(
                self.table.size[class_id]
            ) != len(members):
                problems.append(
                    f"class table row {class_id} diverged: rep/size "
                    f"({int(self.table.rep[class_id])}, "
                    f"{int(self.table.size[class_id])}) != "
                    f"({members[0]}, {len(members)})"
                )
        for class_id in range(self.table.n_classes):
            if class_id not in active_ids and self.table.size[class_id] != 0:
                problems.append(
                    f"class table row {class_id} claims "
                    f"{int(self.table.size[class_id])} members but the key "
                    f"is not a live class"
                )
        for pos in range(len(self._machines)):
            if self._state[pos] == _USED:
                expected = self.table.lookup(
                    (self._machines[pos].shape, cast(Usage, self._canon[pos]))
                )
            else:
                expected = -1
            if int(self.class_ids[pos]) != expected:
                problems.append(
                    f"class-id column stale at position {pos}: "
                    f"{int(self.class_ids[pos])} != {expected}"
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

    __slots__ = ("_index", "_excluded")

    def __init__(
        self, index: UsageClassIndex, excluded_pm: Optional[int] = None
    ) -> None:
        self._index = index
        self._excluded = excluded_pm

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

    @property
    def epoch(self) -> int:
        """The backing index's bulk-rebuild generation counter."""
        return self._index.epoch

    def excluding(self, pm_id: int) -> "IndexedMachines":
        """A view over the same index hiding ``pm_id``.

        Views carry at most one exclusion (all the serving path needs:
        the migration source); excluding again replaces the previous PM.
        """
        return IndexedMachines(self._index, pm_id)

    def _excluded_pos(self) -> int:
        if self._excluded is None:
            return -1
        return self._index._pos.get(self._excluded, -1)

    # ------------------------------------------------------------------
    # Sequence protocol (healthy machines, inventory order)
    # ------------------------------------------------------------------
    def _positions(self) -> List[int]:
        ex = self._excluded_pos()
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
        if isinstance(item, slice):
            return [self._index._machines[p] for p in positions[item]]
        return self._index._machines[positions[item]]

    def __iter__(self) -> Iterator[Any]:
        machines = self._index._machines
        ex = self._excluded_pos()
        for p in self._index._healthy:
            if p != ex:
                yield machines[p]

    # ------------------------------------------------------------------
    # Class listings
    # ------------------------------------------------------------------
    def used_list(self) -> List[Any]:
        """Used machines in inventory order (the legacy scan's input)."""
        machines = self._index._machines
        ex = self._excluded_pos()
        return [machines[p] for p in self._index._used if p != ex]

    def unused_list(self) -> List[Any]:
        """Unused healthy machines in inventory order."""
        machines = self._index._machines
        ex = self._excluded_pos()
        return [machines[p] for p in self._index._unused if p != ex]

    def used_items(self) -> Iterator[Tuple[Any, Usage]]:
        """Used ``(machine, canonical usage)`` pairs in inventory order.

        The maintained canonical form saves the per-machine
        canonicalization the legacy scan pays on every decision.
        """
        index = self._index
        machines = index._machines
        # Used positions always carry a canonical usage.
        canon = cast(List[Usage], index._canon)
        ex = self._excluded_pos()
        for p in index._used:
            if p != ex:
                yield machines[p], canon[p]

    def unused_classes(self) -> List[UsageClass]:
        """Distinct unused shape classes ordered by representative position.

        Empty healthy machines carry identically zero usage, so the
        shape alone determines feasibility and the resulting placement.
        """
        index = self._index
        ex = self._excluded_pos()
        rows: List[Tuple[int, MachineShape, int]] = []
        for shape, members in index._unused_by_shape.items():
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
            rows.append((rep, shape, size))
        rows.sort(key=lambda row: row[0])
        # Unused positions always carry a canonical (zero) usage.
        canon = cast(List[Usage], index._canon)
        return [
            UsageClass(shape, canon[rep], index._machines[rep], size)
            for rep, shape, size in rows
        ]
