"""Abstract placement-policy interfaces shared by PageRankVM and baselines.

A policy never mutates machines: it receives read-only *machine views*
(anything exposing ``pm_id``, ``shape``, ``usage`` and ``is_used``) and
returns a :class:`PlacementDecision` naming the chosen PM and a concrete
per-group unit assignment.  The datacenter substrate applies the decision.

Policies follow the two-phase structure of Algorithm 2: scan the used PMs
with a policy-specific preference, then fall back to opening an unused PM.

:class:`ProfileScorePolicy` factors the machinery common to every
"score the resulting profile" policy (PageRankVM, CompVM, BestFit):
candidate enumeration over canonically-distinct accommodations, caching
per (canonical profile, VM type), optional pool sampling (the paper's
2-choice variant), and realization of a concrete assignment on the
winning machine.
"""

from __future__ import annotations

import abc
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core import permutations
from repro.core.permutations import (
    Placement,
    balanced_placement,
    remap_placement,
)
from repro.core.profile import MachineShape, Usage, VMType
from repro.core.usage_index import IndexedMachines
from repro.util.trace import TRACE, tracepoint
from repro.util.validation import require

__all__ = [
    "MachineView",
    "PlacementDecision",
    "PlacementPolicy",
    "ProfileScorePolicy",
    "CandidateCacheInfo",
    "DEFAULT_CANDIDATE_CACHE_SIZE",
]


@runtime_checkable
class MachineView(Protocol):
    """Read-only view of a PM as seen by placement policies."""

    @property
    def pm_id(self) -> int:
        """Stable identifier of the PM."""

    @property
    def shape(self) -> MachineShape:
        """The PM's capacity shape."""

    @property
    def usage(self) -> Usage:
        """Current committed usage in real (non-canonical) unit order."""

    @property
    def is_used(self) -> bool:
        """True when at least one VM is currently placed on the PM."""


@dataclass(frozen=True)
class PlacementDecision:
    """The PM and concrete assignment chosen for a VM.

    ``score`` is whatever comparable object the policy used to rank the
    decision (a float for PageRankVM, a tuple for CompVM); it is carried
    for observability only.
    """

    pm_id: int
    placement: Placement
    score: Any = 0.0

    def __str__(self) -> str:
        return f"PlacementDecision(pm={self.pm_id}, score={self.score!r})"


class PlacementPolicy(abc.ABC):
    """Base class for VM placement policies (Algorithm 2 skeleton).

    Subclasses implement :meth:`_select_among_used`, the policy-specific
    choice among used PMs.  The shared :meth:`select` then falls back to
    the first unused PM with sufficient resources, exactly as Algorithm 2
    lines 17-24 prescribe.
    """

    #: Human-readable policy name used in reports and figures.
    name: str = "policy"

    def order_vms(self, vms: Sequence[VMType]) -> List[VMType]:
        """Order a batch of VM requests before placement.

        The default keeps arrival order; FFDSum overrides this to sort by
        decreasing demand.
        """
        return list(vms)

    @abc.abstractmethod
    def _select_among_used(
        self, vm: VMType, used: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        """Choose a PM among the used ones, or None when none fits."""

    def _select_among_unused(
        self, vm: VMType, unused: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        """Open the first unused PM with sufficient resources.

        Uses the deterministic balanced assignment; subclasses with a
        smarter opinion (scored policies pick their best accommodation)
        may override.
        """
        for machine in unused:
            placement = balanced_placement(machine.shape, machine.usage, vm)
            if placement is not None:
                return PlacementDecision(pm_id=machine.pm_id, placement=placement)
        return None

    def select(
        self, vm: VMType, machines: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        """Place ``vm`` following Algorithm 2's used-then-unused scan.

        When ``machines`` is an :class:`~repro.core.usage_index.
        IndexedMachines` view the class-based fast path serves the
        request (same decision, one evaluation per distinct class);
        plain sequences take the original linear scan.

        Returns None when no PM in the system can host the VM.
        """
        if isinstance(machines, IndexedMachines):
            decision = self._select_among_used_classes(vm, machines)
            if decision is None:
                decision = self._select_among_unused_classes(vm, machines)
        else:
            used = [m for m in machines if m.is_used]
            unused = [m for m in machines if not m.is_used]
            decision = self._select_among_used(vm, used)
            if decision is None:
                decision = self._select_among_unused(vm, unused)
        if TRACE.active:
            # The ranking winner is the (PM, concrete assignment) pair;
            # `score` is observability-only and representation-dependent
            # across the twin paths, so it stays out of the digest.
            if decision is None:
                tracepoint("rank", policy=self.name, vm=vm.name, pm=-1)
            else:
                tracepoint(
                    "rank",
                    policy=self.name,
                    vm=vm.name,
                    pm=decision.pm_id,
                    assignments=decision.placement.assignments,
                )
        return decision

    # ------------------------------------------------------------------
    # Class-based fast path (usage-class index)
    # ------------------------------------------------------------------
    def _select_among_used_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        """Used-PM choice over an indexed view.

        The base implementation materializes the used list and defers to
        :meth:`_select_among_used`, so subclasses that only know the
        linear scan stay correct; index-aware policies override with a
        per-class evaluation.
        """
        return self._select_among_used(vm, view.used_list())

    def _select_among_unused_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        """Unused-PM fallback over an indexed view (see above)."""
        return self._select_among_unused(vm, view.unused_list())

    def select_excluding(
        self, vm: VMType, machines: Sequence[MachineView], excluded_pm: int
    ) -> Optional[PlacementDecision]:
        """Variant of :meth:`select` that skips one PM (migration source)."""
        if isinstance(machines, IndexedMachines):
            return self.select(vm, machines.excluding(excluded_pm))
        return self.select(vm, [m for m in machines if m.pm_id != excluded_pm])

    # ------------------------------------------------------------------
    # Id-addressed memos (rows indexed by the serving index's class ids)
    # ------------------------------------------------------------------
    #: Weak reference to the index the memos were built against, and its
    #: epoch.  A weak reference, not ``id()``: a freed index's address
    #: can be reused by a new one whose ids mean different classes.
    _index_ref: Optional["weakref.ReferenceType[Any]"] = None
    _index_epoch = -1
    _class_memo: Dict[Any, np.ndarray]

    def invalidate_cache(self) -> None:
        """Drop memoized per-class state (call if definitions change)."""
        self._class_memo = {}

    def _observe_index(self, view: IndexedMachines) -> None:
        """Keep the id-addressed memos only if built for the view's index.

        Class ids are content-addressed within one index epoch, so a
        memo row stays valid through any incremental churn.  A bulk
        rebuild (``UsageClassIndex.rebuild``) re-interns the ids and
        bumps the epoch: the same index at a new epoch drops every memo
        (:meth:`invalidate_cache`), which is equivalent to keying each
        entry on the epoch.  A *different* index (a fresh run) only
        resets the id-addressed memos; content-addressed ones stay valid.
        """
        index = view.index
        if self._index_ref is not None and self._index_ref() is index:
            if self._index_epoch == index.epoch:
                return
            self.invalidate_cache()
        self._index_ref = weakref.ref(index)
        self._index_epoch = index.epoch
        self._class_memo = {}

    def _memo_column(
        self, key: Any, n: int, fill: Any, dtype: Any = np.float64,
        width: Tuple[int, ...] = (),
    ) -> np.ndarray:
        """The id-addressed memo ``key``, grown to cover ``n`` class ids.

        New rows hold ``fill`` (the "not yet evaluated" sentinel); a
        memo keeps the row width it was created or last widened with.
        """
        memo = self._class_memo.get(key)
        if memo is None or len(memo) < n:
            if memo is not None:
                width = memo.shape[1:]
            grown = np.full((max(64, 2 * n),) + width, fill, dtype=dtype)
            if memo is not None:
                grown[: len(memo)] = memo
            memo = self._class_memo[key] = grown
        return memo

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# Cached candidate: (score, target canonical usage, winning placement) or
# None when infeasible.  The placement's assignments index the *canonical*
# unit order; realization remaps them to the selected machine's real units.
_Candidate = Optional[Tuple[Any, Usage, Placement]]

#: Sentinel distinguishing "not cached" from a cached infeasible (None).
_CACHE_MISS = object()

#: Class-table size below which the class ranking runs as a plain loop
#: (identical winner): with few distinct classes the per-call numpy
#: overhead exceeds the whole scan.
_VECTOR_MIN_CLASSES = 64

#: Bound of the best-candidate memo.  Long dynamic runs visit an
#: unbounded stream of profiles, so the memo follows the same LRU
#: discipline (and size) as the ScoreTable snap cache instead of growing
#: without limit.
DEFAULT_CANDIDATE_CACHE_SIZE = 65_536


class CandidateCacheInfo(NamedTuple):
    """Best-candidate memo statistics (functools.lru_cache convention)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class ProfileScorePolicy(PlacementPolicy):
    """Greedy policy template: maximize a score of the resulting profile.

    Subclasses implement :meth:`profile_score`, mapping a canonical usage
    to any comparable score (larger is better).  Everything else —
    accommodation enumeration, per-profile caching, pool sampling,
    concrete-assignment realization — is shared.

    Args:
        pool_size: when set, only this many randomly sampled used PMs are
            scored per decision (``pool_size=2`` is the paper's 2-choice
            method); None scans every used PM.
        rng: generator for pool sampling; defaults to a fixed-seed
            generator so runs are reproducible unless a seeded stream is
            injected.

    The best-candidate memo is LRU-bounded by
    :data:`DEFAULT_CANDIDATE_CACHE_SIZE`.
    """

    def __init__(
        self,
        pool_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if pool_size is not None:
            require(pool_size >= 1, f"pool_size must be >= 1, got {pool_size}")
        self._pool_size = pool_size
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._cache: "OrderedDict[Tuple[Any, Usage, str], _Candidate]" = (
            OrderedDict()
        )
        self._cache_hits = 0
        self._cache_misses = 0

    @abc.abstractmethod
    def profile_score(self, shape: MachineShape, usage: Usage) -> Any:
        """Score of a canonical usage; larger compares better."""

    def profile_scores(
        self, shape: MachineShape, usages: Sequence[Usage]
    ) -> List[Any]:
        """Scores of many canonical usages at once.

        The default loops over :meth:`profile_score`; policies with a
        vectorized scoring backend (PageRankVM's batched table snap)
        override this so one candidate enumeration pays one lookup.
        """
        return [self.profile_score(shape, usage) for usage in usages]

    def candidate_mode(self, shape: MachineShape) -> str:
        """``"all"`` to enumerate every accommodation, ``"balanced"`` for
        the deterministic least-loaded one (scalable approximation)."""
        return "all"

    def _shape_key(self, shape: MachineShape) -> Any:
        return shape

    def invalidate_cache(self) -> None:
        """Drop cached candidates (call if score definitions change)."""
        self._cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0
        super().invalidate_cache()

    def cache_info(self) -> CandidateCacheInfo:
        """Hit/miss/occupancy statistics of the best-candidate memo."""
        return CandidateCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            maxsize=DEFAULT_CANDIDATE_CACHE_SIZE,
            currsize=len(self._cache),
        )

    def _cache_store(self, key: Tuple[Any, Usage, str], value: _Candidate) -> None:
        """Insert, evicting least-recently-used entries past the bound."""
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > DEFAULT_CANDIDATE_CACHE_SIZE:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Candidate scoring
    # ------------------------------------------------------------------
    def _candidates(
        self, shape: MachineShape, usage: Usage, vm: VMType
    ) -> List[Tuple[Any, Usage, Placement]]:
        results: List[Tuple[Any, Usage, Placement]] = []
        if self.candidate_mode(shape) == "balanced":
            placed = permutations.balanced_placement(shape, usage, vm)
            if placed is not None:
                results.append(
                    (
                        self.profile_score(shape, placed.new_usage),
                        placed.new_usage,
                        placed,
                    )
                )
        else:
            placements = list(permutations.enumerate_placements(shape, usage, vm))
            if placements:
                scores = self.profile_scores(
                    shape, [placed.new_usage for placed in placements]
                )
                results.extend(
                    (score, placed.new_usage, placed)
                    for score, placed in zip(scores, placements)
                )
        return results

    def best_candidate(
        self, shape: MachineShape, usage: Usage, vm: VMType
    ) -> _Candidate:
        """Best (score, target usage, placement) for placing ``vm`` at ``usage``.

        Cached on the canonical usage, so machines at equal resource
        states share one evaluation.  Returns None when the VM does not
        fit.
        """
        return self._best_for_canonical(shape, shape.canonicalize(usage), vm)

    def _best_for_canonical(
        self, shape: MachineShape, canonical: Usage, vm: VMType
    ) -> _Candidate:
        """:meth:`best_candidate` for an already-canonical usage.

        The indexed fast path maintains canonical forms, so it skips the
        per-machine canonicalization the legacy scan pays.
        """
        key = (self._shape_key(shape), canonical, vm.name)
        cached = self._cache.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            self._cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self._cache_misses += 1
        candidates = self._candidates(shape, canonical, vm)
        best: _Candidate = None
        if candidates:
            best = max(candidates, key=lambda c: c[0])
        self._cache_store(key, best)
        return best

    def _realize(
        self, machine: MachineView, score: Any, placement: Placement
    ) -> PlacementDecision:
        """The decision placing the cached winning ``placement`` on
        ``machine``: its canonical unit indices remapped to the
        machine's real unit order, with no re-enumeration."""
        return PlacementDecision(
            pm_id=machine.pm_id,
            placement=remap_placement(machine.shape, machine.usage, placement),
            score=score,
        )

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def _select_among_used(
        self, vm: VMType, used: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        pool = list(used)
        if self._pool_size is not None and len(pool) > self._pool_size:
            picks = self._rng.choice(len(pool), size=self._pool_size, replace=False)
            pool = [pool[i] for i in picks]

        best: Optional[Tuple[MachineView, Any, Placement]] = None
        for machine in pool:
            candidate = self.best_candidate(machine.shape, machine.usage, vm)
            if candidate is None:
                continue
            score, _, placement = candidate
            if best is None or score > best[1]:
                best = (machine, score, placement)
        if best is None:
            return None
        return self._realize(*best)

    def _select_among_unused(
        self, vm: VMType, unused: Sequence[MachineView]
    ) -> Optional[PlacementDecision]:
        # Algorithm 2 opens the first unused PM with sufficient resources;
        # among its accommodations the policy still picks its best-scored.
        for machine in unused:
            candidate = self.best_candidate(machine.shape, machine.usage, vm)
            if candidate is None:
                continue
            score, _, placement = candidate
            return self._realize(machine, score, placement)
        return None

    # ------------------------------------------------------------------
    # Class-based fast path
    # ------------------------------------------------------------------
    def _select_among_used_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        """Rank the used classes of the view's class table.

        Machines in a class share their canonical usage and therefore
        their best candidate, so one memoized score row per class id
        decides the request.  The winner is the class with the highest
        score (compared lexicographically), ties going to the lowest
        representative: the linear scan's first maximum (lowest pm_id
        on ties).  Up to :data:`_VECTOR_MIN_CLASSES` classes a plain
        loop ranks them; above that one masked argmax does.
        """
        self._observe_index(view)
        if self._pool_size is not None:
            # Pool sampling draws machine indices from the RNG stream;
            # the class path would consume it differently, so 2-choice
            # runs keep the legacy scan bit-for-bit.
            return super()._select_among_used_classes(vm, view)
        table = view.class_table
        n = table.n_classes
        # One row per class id, one float64 column per score component
        # (1 for a float score, 2 for CompVM's tuple).  NaN marks an id
        # never evaluated for this VM type, -inf a cached infeasibility.
        scores = self._memo_column(vm.name, n, np.nan, width=(1,))[:n]
        if n <= _VECTOR_MIN_CLASSES:
            return self._select_among_used_small(vm, view, table, scores)
        return self._select_among_used_vector(vm, view, table, scores)

    def _score_class(
        self, vm: VMType, table: Any, class_id: int
    ) -> List[float]:
        """Evaluate one class id into the memo and return its score row.

        A score is a float or a tuple of floats; its row is the list of
        its components (``[-inf]`` when the VM does not fit).
        """
        shape, usage = table.keys[class_id]
        candidate = self._best_for_canonical(shape, usage, vm)
        memo = self._class_memo[vm.name]
        if candidate is None:
            memo[class_id] = -np.inf
            return [-np.inf]
        score = candidate[0]
        row = list(score) if isinstance(score, tuple) else [score]
        if len(row) > memo.shape[1]:
            # The width is learned from the first feasible score.  Rows
            # written before it are NaN/-inf sentinels, which stay
            # sentinels when repeated across the new columns.
            memo = np.repeat(memo[:, :1], len(row), axis=1)
            self._class_memo[vm.name] = memo
        memo[class_id] = score
        return row

    def _select_among_used_vector(
        self, vm: VMType, view: IndexedMachines, table: Any, scores: Any
    ) -> Optional[PlacementDecision]:
        """Rank every used class with one masked argmax over the table.

        Equivalence with the linear scan: it keeps the first strict
        maximum in pm_id order, i.e. the minimum-representative class
        among those achieving the maximal score.  The argmax narrows
        the ties one score column at a time (the lexicographic order of
        tuple scores), then takes ``argmin(rep)``.
        """
        n = table.n_classes
        rep, size = view.class_columns()
        active = size > 0
        unknown = np.flatnonzero(active & np.isnan(scores[:, 0]))
        if unknown.size:
            unknown = unknown.tolist()
            self._warm_class_candidates(vm, [table.keys[c] for c in unknown])
            for c in unknown:
                self._score_class(vm, table, c)
            scores = self._class_memo[vm.name][:n]
        masked = np.where(active, scores[:, 0], -np.inf)
        best = masked.max()
        if best == -np.inf:
            return None
        tied = np.flatnonzero(masked == best)
        for column in range(1, scores.shape[1]):
            values = scores[tied, column]
            tied = tied[values == values.max()]
        winner = int(tied[np.argmin(rep[tied])])
        shape, usage = table.keys[winner]
        candidate = self._best_for_canonical(shape, usage, vm)
        if candidate is None:  # pragma: no cover - winner came from a feasible score
            return None
        score, _, placement = candidate
        return self._realize(
            view.machine_at(int(rep[winner])), score, placement
        )

    def _select_among_used_small(
        self, vm: VMType, view: IndexedMachines, table: Any, scores: Any
    ) -> Optional[PlacementDecision]:
        """The vector ranking's low-class-count twin (identical winner).

        Same score memo, same max-score / min-representative choice —
        written as a plain loop because at a handful of classes
        per-call numpy overhead dominates the serving latency.  Score
        rows compare as lists, i.e. lexicographically.
        """
        rep, size = view.class_columns()
        columns = zip(scores.tolist(), size.tolist(), rep.tolist())
        infeasible = -float("inf")
        best_row = None
        best_rep = -1
        for cid, (row, class_size, class_rep) in enumerate(columns):
            if class_size <= 0:
                continue
            if row[0] != row[0]:  # NaN: never evaluated
                row = self._score_class(vm, table, cid)
            if row[0] == infeasible:
                continue
            if (
                best_row is None
                or row > best_row
                or (row == best_row and class_rep < best_rep)
            ):
                best_row, best_rep = row, class_rep
        if best_row is None:
            return None
        machine = view.machine_at(best_rep)
        candidate = self._best_for_canonical(
            machine.shape, view.index._canon[best_rep], vm
        )
        if candidate is None:  # pragma: no cover - winner came from a feasible score
            return None
        score, _, placement = candidate
        return self._realize(machine, score, placement)

    def _select_among_unused_classes(
        self, vm: VMType, view: IndexedMachines
    ) -> Optional[PlacementDecision]:
        # Unused machines carry zero usage: feasibility and the chosen
        # accommodation depend on the shape alone, so the first feasible
        # shape class (by representative position) is the scan's winner.
        for cls in view.unused_classes():
            candidate = self._best_for_canonical(cls.shape, cls.usage, vm)
            if candidate is None:
                continue
            score, _, placement = candidate
            return self._realize(cls.representative, score, placement)
        return None

    def _warm_class_candidates(
        self, vm: VMType, keys: Sequence[Tuple[MachineShape, Usage]]
    ) -> None:
        """Resolve uncached class keys with one batched scoring pass per shape.

        Only the "all" candidate mode benefits: its per-class cost is an
        enumeration plus many score lookups, which
        :meth:`profile_scores` can resolve for every uncached class of a
        shape in a single call.  Balanced mode scores one usage per
        class and stays on the per-class path.
        """
        by_shape: "OrderedDict[MachineShape, List[Usage]]" = OrderedDict()
        for shape, usage in keys:
            if (self._shape_key(shape), usage, vm.name) in self._cache:
                continue
            by_shape.setdefault(shape, []).append(usage)
        for shape, usages in by_shape.items():
            if self.candidate_mode(shape) != "all":
                continue
            spans: List[Tuple[Usage, List[Placement]]] = []
            batched: List[Usage] = []
            for usage in usages:
                placements = list(
                    permutations.enumerate_placements(shape, usage, vm)
                )
                spans.append((usage, placements))
                batched.extend(placed.new_usage for placed in placements)
            scores = self.profile_scores(shape, batched) if batched else []
            offset = 0
            for usage, placements in spans:
                n = len(placements)
                best: _Candidate = None
                if n:
                    # max() keeps the first maximum, matching the
                    # unbatched _candidates + max tie-break exactly.
                    best_i = max(
                        range(n), key=lambda i: scores[offset + i]
                    )
                    placed = placements[best_i]
                    best = (scores[offset + best_i], placed.new_usage, placed)
                offset += n
                self._cache_misses += 1
                self._cache_store(
                    (self._shape_key(shape), usage, vm.name), best
                )
