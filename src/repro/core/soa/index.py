"""Usage-class index over columnar machine views, with a class-id table.

:class:`SoAUsageClassIndex` extends the maintained partition of
:class:`~repro.core.usage_index.UsageClassIndex` with:

* a :class:`SoAClassTable` interning every ``(shape, canonical usage)``
  class key ever seen to a dense integer id, with per-id representative
  and size columns (numpy arrays) — the structure the vectorized
  placement path ranks with one masked ``argmax`` instead of a Python
  loop over classes;
* a ``class_ids`` column mapping every inventory position to the class
  id of its current used class (-1 while unused or failed), indexed
  like the fleet columns;
* an ``epoch``-aware :meth:`rebuild` (inherited seam) so bulk array
  rebuilds invalidate memoized consumers (see
  ``ProfileScorePolicy._observe_index``);
* a hot-path :meth:`refresh` override that skips the healthy/used list
  churn when a mutation does not change the machine's broad state — the
  dominant index cost at 100k PMs.

Class ids are *content-addressed* (the key is the class content, not its
membership), so a score memoized against an id stays valid while the
class empties and refills; only a :meth:`rebuild` (which re-interns ids
from scratch) invalidates them, and that bumps the epoch.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import MachineShape, Usage
from repro.core.usage_index import (
    _FAILED,
    _UNUSED,
    _USED,
    IndexedMachines,
    UsageClassIndex,
    _discard_sorted,
)

__all__ = ["SoAClassTable", "SoAUsageClassIndex", "SoAIndexedMachines"]

ClassKey = Tuple[MachineShape, Usage]

#: Representative sentinel for ids whose class is currently empty; any
#: real inventory position compares smaller.
_NO_REP = np.iinfo(np.int64).max


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


class SoAUsageClassIndex(UsageClassIndex):
    """Usage-class index whose class structure is mirrored into columns."""

    def __init__(self, machines: Sequence[Any]) -> None:
        # The refresh override runs during the base constructor, so the
        # table and id column must exist first.
        self.table = SoAClassTable()
        self.class_ids = np.full(len(machines), -1, dtype=np.int64)
        super().__init__(machines)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, pm_id: int) -> None:
        """Base :meth:`refresh` semantics plus table/column sync.

        The state-preserving fast paths (used→used, unused→unused) leave
        the healthy/used position lists untouched: at 100k PMs those
        lists are ~800 KB each and the base path's unconditional
        leave-and-reinsert memmoves both on every placement.
        """
        pos = self._pos.get(pm_id)
        if pos is None:
            raise KeyError(f"no PM with id {pm_id} in the usage index")
        machine = self._machines[pos]
        old_state = self._state[pos]
        old_key: Optional[ClassKey] = None
        if old_state == _USED:
            old_key = (machine.shape, self._canon[pos])

        if machine.is_failed:
            new_state = _FAILED
        elif machine.is_used:
            new_state = _USED
        else:
            new_state = _UNUSED

        if old_state == new_state == _USED:
            canonical = machine.shape.canonicalize(machine.usage)
            new_key: Optional[ClassKey] = (machine.shape, canonical)
            if new_key != old_key:
                members = self._classes[old_key]
                _discard_sorted(members, pos)
                if not members:
                    del self._classes[old_key]
                self._canon[pos] = canonical
                new_members = self._classes.get(new_key)
                if new_members is None:
                    self._classes[new_key] = [pos]
                else:
                    insort(new_members, pos)
        elif old_state == new_state == _UNUSED:
            new_key = None
        else:
            super().refresh(pm_id)
            new_key = None
            if self._state[pos] == _USED:
                new_key = (machine.shape, self._canon[pos])

        if old_key is not None and old_key != new_key:
            self.table.update(old_key, self._classes.get(old_key))  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
        if new_key is not None:
            self.class_ids[pos] = self.table.update(  # prv: disable=PRV005 -- SoAClassTable is this index's own maintained state, not a memoized score table
                new_key, self._classes[new_key]
            )
        else:
            self.class_ids[pos] = -1

    def rebuild(self) -> None:
        """Re-derive everything from scratch; re-interns every class id.

        Ids from before the rebuild are meaningless afterwards — the
        inherited epoch bump tells memoized consumers to drop them.
        """
        self.table = SoAClassTable()
        self.class_ids = np.full(len(self._machines), -1, dtype=np.int64)
        super().rebuild()

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> List[str]:
        """Base check plus table-vs-membership and id-column checks."""
        problems = super().check_consistency()
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
                    (self._machines[pos].shape, self._canon[pos])
                )
            else:
                expected = -1
            if int(self.class_ids[pos]) != expected:
                problems.append(
                    f"class-id column stale at position {pos}: "
                    f"{int(self.class_ids[pos])} != {expected}"
                )
        return problems


class SoAIndexedMachines(IndexedMachines):
    """Indexed view that additionally exposes the class-id table.

    Policies detect the ``class_table`` attribute to switch to the
    vectorized ranking path; everything else (Sequence protocol, class
    listings, single-PM exclusion) is inherited unchanged, so policies
    without a vectorized path behave exactly as on the object substrate.
    """

    __slots__ = ()

    @property
    def class_table(self) -> SoAClassTable:
        """The live class-id table of the backing index."""
        return self._index.table

    def excluding(self, pm_id: int) -> "SoAIndexedMachines":
        """Same-index view hiding one PM (keeps the SoA view type)."""
        return SoAIndexedMachines(self._index, pm_id)
