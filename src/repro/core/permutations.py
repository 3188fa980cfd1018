"""Enumeration of the distinct ways a VM's demands can be placed on a PM.

The paper represents a VM's anti-collocation demands as permutable across
dimensions: a request ``{a, b, 0, 0}`` can be satisfied on any two distinct
cores.  Naively enumerating permutations is factorial; this module exploits
two symmetries to enumerate only *canonically distinct* placements:

* units of a group with the same (capacity, current usage) are
  interchangeable — they form a *unit class*;
* demand chunks with the same value are interchangeable — they form a
  *demand class*.

A placement is then a distribution of demand-class counts over unit
classes (each unit receives at most one chunk, per the anti-collocation
constraints Equ. (4)/(9)), which is a tiny search space even for 8-core
machines.

Every enumeration also yields a *concrete assignment* — actual unit
indices — so callers that must update real machines (the datacenter
substrate) get indices for free, while callers that only score profiles
(the placement policy) use the canonical usage.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import MachineShape, ResourceGroup, Usage, VMType

__all__ = [
    "GroupPlacement",
    "Placement",
    "GroupPlacementMemo",
    "can_place_group",
    "can_place",
    "enumerate_group_placements",
    "enumerate_placements",
    "balanced_group_placement",
    "balanced_group_packings",
    "balanced_placement",
    "first_fit_group_placement",
    "first_fit_placement",
    "apply_assignments",
    "remap_placement",
    "live_chunks",
    "group_memo",
    "clear_group_memos",
]

# A group placement assigns chunk values to concrete unit indices.
Assignment = Tuple[Tuple[int, int], ...]  # ((unit_index, chunk), ...)


@dataclass(frozen=True)
class GroupPlacement:
    """One way to place a VM's chunks within a single resource group."""

    new_usage: Tuple[int, ...]  # canonical usage of the group afterwards
    assignment: Assignment      # concrete (unit_index, chunk) pairs


@dataclass(frozen=True)
class Placement:
    """One way to place a whole VM on a PM: per-group placements."""

    new_usage: Usage                       # canonical machine usage afterwards
    assignments: Tuple[Assignment, ...]    # per-group concrete assignments


@dataclass
class _UnitClass:
    usage: int
    capacity: int
    indices: List[int]  # concrete unit indices in this class

    @property
    def count(self) -> int:
        return len(self.indices)


def _unit_classes(
    usages: Sequence[int], capacities: Sequence[int]
) -> List[_UnitClass]:
    classes: Dict[Tuple[int, int], _UnitClass] = {}
    for idx, (used, cap) in enumerate(zip(usages, capacities)):
        key = (used, cap)
        if key not in classes:
            classes[key] = _UnitClass(usage=used, capacity=cap, indices=[])
        classes[key].indices.append(idx)
    return list(classes.values())


def _demand_classes(chunks: Sequence[int]) -> List[Tuple[int, int]]:
    """Group chunk values into (value, count) pairs, zeros dropped."""
    counts: Dict[int, int] = {}
    for chunk in chunks:
        if chunk > 0:
            counts[chunk] = counts.get(chunk, 0) + 1
    return sorted(counts.items(), reverse=True)


def live_chunks(chunks: Sequence[int]) -> Tuple[int, ...]:
    """The demand multiset of ``chunks``: zeros dropped, sorted ascending.

    Group-placement results depend only on this multiset (demand chunks
    of equal value are interchangeable), so it is the canonical cache key
    component for the memoized enumerations below.
    """
    return tuple(sorted(c for c in chunks if c > 0))


#: Default bound on entries per memo table (one table per group per kind).
DEFAULT_GROUP_MEMO_ENTRIES = 131_072

#: Bound on distinct groups tracked by the memo registry.
_MAX_MEMOIZED_GROUPS = 1024


class GroupPlacementMemo:
    """Bounded LRU memo of group-level placement results for one group.

    Both the exhaustive enumeration and the balanced packing are pure
    functions of the (canonical group usage, demand multiset) pair, so
    their results — immutable tuples of frozen :class:`GroupPlacement`
    — are computed once and shared.  The enumeration table serves
    Algorithm 2's candidate enumeration and the ``ALL_PLACEMENTS``
    profile-graph build; the balanced table serves only the on-line
    placements (the ``BALANCED`` graph build packs a whole frontier at
    once with :func:`balanced_group_packings` and never reads it).

    Keys are ``(usage tuple, live-chunk multiset)``; the group signature
    is implicit because each memo belongs to exactly one group in the
    registry (see :func:`group_memo`).
    """

    __slots__ = ("max_entries", "hits", "misses", "_enumerated", "_balanced")

    def __init__(self, max_entries: int = DEFAULT_GROUP_MEMO_ENTRIES):
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._enumerated: "OrderedDict[tuple, Tuple[GroupPlacement, ...]]" = (
            OrderedDict()
        )
        self._balanced: "OrderedDict[tuple, Optional[GroupPlacement]]" = (
            OrderedDict()
        )

    def enumerated(
        self, group: ResourceGroup, usage: Tuple[int, ...], live: Tuple[int, ...]
    ) -> Tuple[GroupPlacement, ...]:
        """All canonically-distinct placements of ``live`` at ``usage``.

        ``live`` must already be normalized via :func:`live_chunks`.
        """
        key = (usage, live)
        cache = self._enumerated
        result = cache.get(key)
        if result is not None:
            self.hits += 1
            cache.move_to_end(key)
            return result
        self.misses += 1
        result = tuple(_enumerate_group_placements_uncached(group, usage, live))
        cache[key] = result
        if len(cache) > self.max_entries:
            cache.popitem(last=False)
        return result

    def balanced(
        self, group: ResourceGroup, usage: Tuple[int, ...], live: Tuple[int, ...]
    ) -> Optional[GroupPlacement]:
        """The deterministic least-loaded placement, or None (memoized)."""
        key = (usage, live)
        cache = self._balanced
        if key in cache:
            self.hits += 1
            cache.move_to_end(key)
            return cache[key]
        self.misses += 1
        result = _balanced_group_placement_uncached(group, usage, live)
        cache[key] = result
        if len(cache) > self.max_entries:
            cache.popitem(last=False)
        return result


_GROUP_MEMOS: "OrderedDict[ResourceGroup, GroupPlacementMemo]" = OrderedDict()


def group_memo(group: ResourceGroup) -> GroupPlacementMemo:
    """The shared memo for ``group`` (equal groups share one memo).

    The registry itself is bounded: the least-recently-used group's memo
    is dropped past :data:`_MAX_MEMOIZED_GROUPS` distinct groups, which
    keeps property tests that generate thousands of throwaway groups
    from accumulating caches.
    """
    memo = _GROUP_MEMOS.get(group)
    if memo is None:
        memo = _GROUP_MEMOS[group] = GroupPlacementMemo()
        if len(_GROUP_MEMOS) > _MAX_MEMOIZED_GROUPS:
            _GROUP_MEMOS.popitem(last=False)
    else:
        _GROUP_MEMOS.move_to_end(group)
    return memo


def clear_group_memos() -> None:
    """Drop every memoized group-placement result (benchmarks use this)."""
    _GROUP_MEMOS.clear()


def apply_assignments(
    usage: Usage, assignments: Sequence[Sequence[Tuple[int, int]]]
) -> Usage:
    """Add an assignment's chunks to a usage, in real unit order.

    The inverse of :func:`repro.core.migration.usage_after_removal`.
    Unlike ``Placement.new_usage`` (which is canonicalized), the result
    preserves physical unit identity, which matters when several
    placements are applied in sequence.
    """
    groups: List[Tuple[int, ...]] = []
    for group_usage, group_assign in zip(usage, assignments):
        values = list(group_usage)
        for idx, chunk in group_assign:
            values[idx] += chunk
        groups.append(tuple(values))
    return tuple(groups)


def remap_placement(
    shape: MachineShape, usage: Usage, placement: Placement
) -> Placement:
    """Translate a placement computed on canonical usage to real unit order.

    Placement policies score and cache accommodations against the
    *canonical* form of a machine's usage; applying the cached winner to a
    concrete machine only requires renaming units, because within every
    run of equal-capacity units the canonical form is the usage sorted
    non-decreasingly.  The k-th canonical position of a run therefore maps
    to the run's k-th least-used real unit (ties broken by index, because
    the sort is stable, matching the stable canonical sort), a bijection
    that preserves per-unit usage values — and with them feasibility and
    anti-collocation.

    This replaces re-running :func:`enumerate_placements` on the selected
    machine, which made every realized decision pay the enumeration cost
    twice.
    """
    assignments: List[Assignment] = []
    for group, group_usage, group_assign in zip(
        shape.groups, usage, placement.assignments
    ):
        if not group_assign or not group.anti_collocation:
            assignments.append(group_assign)
            continue
        # Capacities are sorted, so one stable sort on (capacity, usage)
        # orders every equal-capacity run by usage, ties by index.
        caps = group.capacities
        if group.uniform():
            mapping = sorted(range(len(caps)), key=group_usage.__getitem__)
        else:
            mapping = sorted(
                range(len(caps)), key=lambda i: (caps[i], group_usage[i])
            )
        assignments.append(
            tuple((mapping[idx], chunk) for idx, chunk in group_assign)
        )
    return Placement(new_usage=placement.new_usage, assignments=tuple(assignments))


def can_place_group(
    group: ResourceGroup, usage: Sequence[int], chunks: Sequence[int]
) -> bool:
    """Feasibility of placing ``chunks`` on distinct units of ``group``.

    For anti-collocation groups this is the Hall condition: sort chunks
    and free capacities descending and match pairwise.  For scalar groups
    it is a plain capacity check.
    """
    live = [c for c in chunks if c > 0]
    if not live:
        return True
    if not group.anti_collocation:
        return usage[0] + sum(live) <= group.capacities[0]
    if len(live) > group.n_units:
        return False
    free = sorted(
        (cap - used for used, cap in zip(usage, group.capacities)), reverse=True
    )
    for chunk, slack in zip(sorted(live, reverse=True), free):
        if chunk > slack:
            return False
    return True


def can_place(shape: MachineShape, usage: Usage, vm: VMType) -> bool:
    """True when ``vm`` fits on a machine of ``shape`` at ``usage``."""
    if len(vm.demands) != shape.n_groups:
        return False
    return all(
        can_place_group(group, group_usage, chunk_set)
        for group, group_usage, chunk_set in zip(shape.groups, usage, vm.demands)
    )


def enumerate_group_placements(
    group: ResourceGroup, usage: Sequence[int], chunks: Sequence[int]
) -> Iterator[GroupPlacement]:
    """Yield every canonically-distinct placement within one group.

    Each distinct resulting (canonical) group usage is yielded exactly
    once, with one concrete assignment realizing it.  Results are
    memoized per (group, usage, demand multiset) in a bounded LRU —
    the graph BFS and Algorithm 2's candidate enumeration replay the
    same group states constantly (see :class:`GroupPlacementMemo`).
    """
    yield from group_memo(group).enumerated(
        group, tuple(usage), live_chunks(chunks)
    )


def _enumerate_group_placements_uncached(
    group: ResourceGroup, usage: Tuple[int, ...], live: Tuple[int, ...]
) -> Iterator[GroupPlacement]:
    """The enumeration itself; ``live`` is a normalized demand multiset."""
    if not live:
        yield GroupPlacement(new_usage=tuple(usage), assignment=())
        return

    if not group.anti_collocation:
        total = sum(live)
        if usage[0] + total <= group.capacities[0]:
            yield GroupPlacement(
                new_usage=(usage[0] + total,),
                assignment=tuple((0, c) for c in live),
            )
        return

    classes = _unit_classes(usage, group.capacities)
    demand = _demand_classes(live)
    seen: set = set()

    # received[j] accumulates the chunks assigned to class j.
    received: List[List[int]] = [[] for _ in classes]

    def distribute_clean(di: int) -> Iterator[GroupPlacement]:
        if di == len(demand):
            result = _materialize(group, classes, received)
            if result.new_usage not in seen:
                seen.add(result.new_usage)
                yield result
            return
        value, count = demand[di]

        def over_classes(ci: int, remaining: int) -> Iterator[GroupPlacement]:
            if remaining == 0:
                yield from distribute_clean(di + 1)
                return
            if ci == len(classes):
                return
            cls = classes[ci]
            room = cls.count - len(received[ci])
            fits = cls.usage + value <= cls.capacity
            max_take = min(remaining, room) if fits else 0
            for take in range(max_take, -1, -1):
                for _ in range(take):
                    received[ci].append(value)
                yield from over_classes(ci + 1, remaining - take)
                for _ in range(take):
                    received[ci].pop()

        yield from over_classes(0, count)

    yield from distribute_clean(0)


def _materialize(
    group: ResourceGroup,
    classes: Sequence[_UnitClass],
    received: Sequence[Sequence[int]],
) -> GroupPlacement:
    """Build the canonical new usage + a concrete assignment."""
    new_usage = [0] * group.n_units
    assignment: List[Tuple[int, int]] = []
    for cls, chunks in zip(classes, received):
        for offset, idx in enumerate(cls.indices):
            if offset < len(chunks):
                new_usage[idx] = cls.usage + chunks[offset]
                assignment.append((idx, chunks[offset]))
            else:
                new_usage[idx] = cls.usage
    canonical = _canonical_group(group, new_usage)
    return GroupPlacement(new_usage=canonical, assignment=tuple(assignment))


def _canonical_group(group: ResourceGroup, usage: Sequence[int]) -> Tuple[int, ...]:
    values = list(usage)
    start = 0
    caps = group.capacities
    while start < len(caps):
        end = start
        while end < len(caps) and caps[end] == caps[start]:
            end += 1
        values[start:end] = sorted(values[start:end])
        start = end
    return tuple(values)


def enumerate_placements(
    shape: MachineShape, usage: Usage, vm: VMType
) -> Iterator[Placement]:
    """Yield every canonically-distinct placement of ``vm`` at ``usage``.

    The result is the cartesian product of per-group placements, deduped
    on the full canonical usage.  Yields nothing when the VM does not fit.
    """
    if len(vm.demands) != shape.n_groups:
        return

    per_group: List[List[GroupPlacement]] = []
    for group, group_usage, chunk_set in zip(shape.groups, usage, vm.demands):
        options = list(enumerate_group_placements(group, group_usage, chunk_set))
        if not options:
            return
        per_group.append(options)

    seen: set = set()

    def rec(gi: int, usage_prefix: tuple, assign_prefix: tuple) -> Iterator[Placement]:
        if gi == len(per_group):
            if usage_prefix not in seen:
                seen.add(usage_prefix)
                yield Placement(new_usage=usage_prefix, assignments=assign_prefix)
            return
        for option in per_group[gi]:
            yield from rec(
                gi + 1,
                usage_prefix + (option.new_usage,),
                assign_prefix + (option.assignment,),
            )

    yield from rec(0, (), ())


def first_fit_group_placement(
    group: ResourceGroup, usage: Sequence[int], chunks: Sequence[int]
) -> Optional[GroupPlacement]:
    """Naive first-fit placement within one group.

    Chunks are assigned, in request order, to the lowest-index distinct
    unit with room — no balancing, no backtracking.  This deliberately
    models dimension-unaware systems (FF, FFDSum): it can fragment unit
    capacity and can fail even when a smarter assignment exists, which is
    exactly the behaviour the paper attributes to those baselines.
    Returns None when the naive scan fails.
    """
    live = [c for c in chunks if c > 0]
    if not live:
        return GroupPlacement(new_usage=_canonical_group(group, usage), assignment=())

    if not group.anti_collocation:
        total = sum(live)
        if usage[0] + total > group.capacities[0]:
            return None
        return GroupPlacement(
            new_usage=(usage[0] + total,),
            assignment=tuple((0, c) for c in live),
        )

    if len(live) > group.n_units:
        return None
    new_usage = list(usage)
    taken = set()
    assignment: List[Tuple[int, int]] = []
    for chunk in live:
        placed = False
        for idx in range(group.n_units):
            if idx in taken:
                continue
            if new_usage[idx] + chunk <= group.capacities[idx]:
                new_usage[idx] += chunk
                taken.add(idx)
                assignment.append((idx, chunk))
                placed = True
                break
        if not placed:
            return None
    return GroupPlacement(
        new_usage=_canonical_group(group, new_usage), assignment=tuple(assignment)
    )


def first_fit_placement(
    shape: MachineShape, usage: Usage, vm: VMType
) -> Optional[Placement]:
    """Naive first-fit placement of a whole VM, or None (see group variant)."""
    if len(vm.demands) != shape.n_groups:
        return None
    usages: List[Tuple[int, ...]] = []
    assignments: List[Assignment] = []
    for group, group_usage, chunk_set in zip(shape.groups, usage, vm.demands):
        placed = first_fit_group_placement(group, group_usage, chunk_set)
        if placed is None:
            return None
        usages.append(placed.new_usage)
        assignments.append(placed.assignment)
    return Placement(new_usage=tuple(usages), assignments=tuple(assignments))


def balanced_group_placement(
    group: ResourceGroup, usage: Sequence[int], chunks: Sequence[int]
) -> Optional[GroupPlacement]:
    """Deterministic least-loaded placement within one group.

    Chunks (sorted descending) are matched to distinct units sorted by
    free capacity descending, which succeeds whenever any placement is
    feasible (Hall condition).  Returns None when infeasible.  Results
    are memoized per (group, usage, demand multiset) like
    :func:`enumerate_group_placements`.
    """
    return group_memo(group).balanced(group, tuple(usage), live_chunks(chunks))


def _balanced_group_placement_uncached(
    group: ResourceGroup, usage: Tuple[int, ...], live_asc: Tuple[int, ...]
) -> Optional[GroupPlacement]:
    """The packing itself; ``live_asc`` is a normalized demand multiset."""
    live = list(reversed(live_asc))
    if not live:
        return GroupPlacement(new_usage=_canonical_group(group, usage), assignment=())

    if not group.anti_collocation:
        total = sum(live)
        if usage[0] + total > group.capacities[0]:
            return None
        return GroupPlacement(
            new_usage=(usage[0] + total,),
            assignment=tuple((0, c) for c in live),
        )

    if len(live) > group.n_units:
        return None
    order = sorted(
        range(group.n_units),
        key=lambda i: (usage[i] - group.capacities[i], usage[i], i),
    )
    new_usage = list(usage)
    assignment: List[Tuple[int, int]] = []
    for chunk, idx in zip(live, order):
        if usage[idx] + chunk > group.capacities[idx]:
            return None
        new_usage[idx] = usage[idx] + chunk
        assignment.append((idx, chunk))
    return GroupPlacement(
        new_usage=_canonical_group(group, new_usage), assignment=tuple(assignment)
    )


def balanced_group_packings(
    group: ResourceGroup, usages: np.ndarray, live_asc: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_balanced_group_placement_uncached` for many usages at once.

    ``usages`` is a ``(k, n_units)`` int array of group usages and
    ``live_asc`` a normalized demand multiset.  Returns ``(new_usages,
    units, fits)``: row ``i`` of ``new_usages`` is the canonical usage
    after the packing, ``units[i, j]`` the unit receiving the ``j``-th
    largest chunk (the assignment order), and ``fits[i]`` is False where
    the packing fails, which leaves that row of the other two arrays
    meaningless.
    """
    usages = np.asarray(usages, dtype=np.int64)
    k, n_units = usages.shape
    chunks = np.array(live_asc[::-1], dtype=np.int64)
    caps = np.array(group.capacities, dtype=np.int64)
    units = np.zeros((k, len(chunks)), dtype=np.int64)
    if not group.anti_collocation:
        new_usages = usages + chunks.sum()
        return new_usages, units, (new_usages[:, 0] <= caps[0]) | (not live_asc)
    if len(chunks) > n_units:
        return usages.copy(), units, np.zeros(k, dtype=bool)
    # Most free capacity first, then least used, then lowest index (the
    # sort is stable): the one-row packing's unit order, row by row.
    units = np.lexsort((usages, usages - caps), axis=-1)[:, :len(chunks)]
    packed = np.take_along_axis(usages, units, axis=1) + chunks
    fits = (packed <= caps[units]).all(axis=1)
    new_usages = usages.copy()
    np.put_along_axis(new_usages, units, packed, axis=1)
    # Canonical form: each equal-capacity run sorted; capacities are
    # sorted, so one row sort keyed on (capacity, usage) does every run.
    if group.uniform():
        new_usages.sort(axis=1)
    else:
        run_key = np.broadcast_to(caps, usages.shape)
        by_run = np.lexsort((new_usages, run_key), axis=-1)
        new_usages = np.take_along_axis(new_usages, by_run, axis=1)
    return new_usages, units, fits


def balanced_placement(
    shape: MachineShape, usage: Usage, vm: VMType
) -> Optional[Placement]:
    """Deterministic least-loaded placement of a whole VM, or None."""
    if len(vm.demands) != shape.n_groups:
        return None
    usages: List[Tuple[int, ...]] = []
    assignments: List[Assignment] = []
    for group, group_usage, chunk_set in zip(shape.groups, usage, vm.demands):
        placed = balanced_group_placement(group, group_usage, chunk_set)
        if placed is None:
            return None
        usages.append(placed.new_usage)
        assignments.append(placed.assignment)
    return Placement(new_usage=tuple(usages), assignments=tuple(assignments))
