"""The Profile-PageRank score table (paper Section V.B, last paragraph).

Algorithm 2 does not run PageRank online: it looks placements up in a
precomputed table mapping every profile of the graph to its final
(BPRU-discounted) score.  The table is stable for a given (PM shape,
VM type set) pair — the paper notes it only needs rebuilding when the
provider introduces many new VM types — so it supports JSON persistence.

Profiles that fall outside the graph (possible after migrations remove a
VM from a packing the successor strategy would not have produced) are
scored by *snapping* to the nearest known profile in L1 distance,
found through an exact KD-tree over the table's usage rows.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from repro.core.graph import ProfileGraph, SuccessorStrategy
from repro.core.graph_cache import load_or_build_profile_graph
from repro.core.kernel_sweep import sweep_profile_pagerank
from repro.core.pagerank import expected_final_utilization
from repro.core.profile import MachineShape, Profile, ResourceGroup, Usage, VMType
from repro.util.floatguard import GUARD, check_finite
from repro.util.validation import ValidationError, require

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = ["ScoreTable", "build_score_table"]


class ScoreTable:
    """Mapping from canonical PM usage profiles to PageRank scores.

    Args:
        shape: the PM shape the scores belong to.
        scores: canonical usage -> final score.
        damping: damping factor used to build the table (metadata).
        strategy: successor strategy used to build the table (metadata).
    """

    #: Bound on the snapped-score LRU cache; long dynamic simulations
    #: with migrations produce a stream of off-graph profiles, so the
    #: cache evicts least-recently-used entries once full instead of
    #: growing without limit.
    DEFAULT_SNAP_CACHE_SIZE = 65_536

    __slots__ = (
        "shape", "damping", "strategy", "vote_direction", "_scores",
        "_flat_matrix", "_flat_scores", "_snap_tree", "_snap_cache",
        "_bound_cache",
    )

    def __init__(
        self,
        shape: MachineShape,
        scores: Dict[Usage, float],
        damping: float = 0.85,
        strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
        vote_direction: str = "forward",
    ):
        require(len(scores) > 0, "a score table needs at least one profile")
        self.shape = shape
        self.damping = damping
        self.strategy = strategy
        self.vote_direction = vote_direction
        self._scores: Dict[Usage, float] = dict(scores)
        self._flat_matrix: Optional[np.ndarray] = None
        self._flat_scores: Optional[np.ndarray] = None
        self._snap_tree: Optional["cKDTree"] = None
        self._snap_cache: "OrderedDict[Usage, float]" = OrderedDict()
        #: Off-graph usage -> (nearest L1 distance, that row's score),
        #: for :meth:`argmax_score_or_snap`; bounded like the snap cache.
        self._bound_cache: "OrderedDict[Usage, Tuple[float, float]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, usage: Usage) -> bool:
        return usage in self._scores

    def score(self, usage: Union[Usage, Profile]) -> Optional[float]:
        """Exact score of a canonical usage, or None when unknown."""
        if isinstance(usage, Profile):
            usage = usage.usage
        return self._scores.get(usage)

    def score_or_snap(self, usage: Union[Usage, Profile]) -> float:
        """Score of a canonical usage, snapping to the L1-nearest profile.

        Ties in distance are broken toward the *lower*-scored neighbour so
        snapping never optimistically inflates an off-graph profile.
        """
        if isinstance(usage, Profile):
            usage = usage.usage
        exact = self._scores.get(usage)
        if exact is not None:
            return exact
        cached = self._snap_cache.get(usage)
        if cached is not None:
            self._snap_cache.move_to_end(usage)
            return cached
        (score,) = self._snap([usage])
        if GUARD.active:
            check_finite(score, "snapped profile score")
        self._snap_remember(usage, score)
        return score

    def score_or_snap_many(
        self, usages: Sequence[Union[Usage, Profile]]
    ) -> List[float]:
        """Scores of many usages, batching the nearest-profile search.

        Exact hits and previously snapped usages resolve from the
        dictionaries; the remaining distinct misses go through one
        batched KD-tree query (:meth:`_snap`).
        """
        keys = [u.usage if isinstance(u, Profile) else u for u in usages]
        results: List[Optional[float]] = [None] * len(keys)
        misses: "OrderedDict[Usage, List[int]]" = OrderedDict()
        scores_map = self._scores
        for i, key in enumerate(keys):
            exact = scores_map.get(key)
            if exact is not None:
                results[i] = exact
                continue
            cached = self._snap_cache.get(key)
            if cached is not None:
                self._snap_cache.move_to_end(key)
                results[i] = cached
                continue
            misses.setdefault(key, []).append(i)
        if misses:
            for (key, positions), score in zip(
                misses.items(), self._snap(list(misses))
            ):
                self._snap_remember(key, score)
                for i in positions:
                    results[i] = score
        # Every position is filled: exact hit, cache hit, or batch snap.
        if GUARD.active:
            check_finite(results, "snapped profile scores")
        return cast(List[float], results)

    def argmax_score_or_snap(
        self, usages: Sequence[Union[Usage, Profile]]
    ) -> int:
        """Index of the first maximal :meth:`score_or_snap` value.

        Equal to the first best position of :meth:`score_or_snap_many`,
        but a miss pays the exact tie pass only when it can win.  Exact
        hits and cached snaps resolve first.  The distinct misses then
        get one batched ``query(k=1)``: the row it returns sits at the
        snap distance, and the snapped score is the lowest score among
        the rows at that distance, so that row's score is an upper bound
        on the snapped score.  A miss whose bound is below the best
        score known can neither win nor tie, and skips the tie pass; the
        others are snapped (and cached) as in :meth:`_snap`.  Bounds are
        kept in an LRU the size of the snap cache, since migration
        re-ranks the same residuals tick after tick.

        Raises:
            ValidationError: for an empty ``usages``.
        """
        require(len(usages) > 0, "argmax of no usages")
        scores_map = self._scores
        snap_cache = self._snap_cache
        best = -np.inf
        best_at = -1
        misses: Dict[Usage, int] = {}
        for i, usage in enumerate(usages):
            key = usage.usage if isinstance(usage, Profile) else usage
            score = scores_map.get(key)
            if score is None:
                score = snap_cache.get(key)
                if score is None:
                    misses.setdefault(key, i)
                    continue
                snap_cache.move_to_end(key)
            if score > best:
                best, best_at = score, i
        if not misses:
            return best_at
        contenders = [
            (key, distance)
            for key, (distance, bound) in zip(
                misses, self._snap_bounds(list(misses))
            )
            if bound >= best
        ]
        if contenders:
            keys = [key for key, _ in contenders]
            snapped = self._snap(keys, [distance for _, distance in contenders])
            if GUARD.active:
                check_finite(snapped, "snapped profile scores")
            for key, score in zip(keys, snapped):
                # The exact score supersedes the bound.
                self._bound_cache.pop(key, None)
                self._snap_remember(key, score)
                at = misses[key]
                if score > best or (score >= best and at < best_at):
                    best, best_at = score, at
        return best_at

    def _snap_bounds(self, usages: List[Usage]) -> List[Tuple[float, float]]:
        """(nearest L1 distance, nearest row's score) per usage, memoized
        in the bound LRU."""
        cache = self._bound_cache
        found: Dict[Usage, Tuple[float, float]] = {}
        unknown = []
        for key in usages:
            pair = cache.get(key)
            if pair is None:
                unknown.append(key)
            else:
                cache.move_to_end(key)
                found[key] = pair
        if unknown:
            nearest, rows = self._tree().query(
                self._flat_rows(unknown), k=1, p=1
            )
            flat_scores = self._snap_structures()[1]
            for key, distance, bound in zip(
                unknown, nearest.tolist(), flat_scores[rows].tolist()
            ):
                found[key] = cache[key] = (distance, bound)
            while len(cache) > self.DEFAULT_SNAP_CACHE_SIZE:
                cache.popitem(last=False)
        return [found[key] for key in usages]

    def _snap(
        self,
        usages: Sequence[Usage],
        nearest: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Scores of the L1-nearest table rows, lowest score on ties.

        ``query`` finds each usage's nearest distance ``d`` (unless the
        caller already has it in ``nearest``); ``query_ball_point`` at
        radius ``d`` then returns every row at exactly that distance.
        Usages are small integers, so every L1 distance is exact in
        float64 and the result is bit-identical to a brute-force scan of
        the whole matrix.
        """
        tree = self._tree()
        flats = self._flat_rows(usages)
        if nearest is None:
            nearest, _ = tree.query(flats, k=1, p=1)
        ties = tree.query_ball_point(flats, r=nearest, p=1)
        flat_scores = self._snap_structures()[1]
        return [float(flat_scores[rows].min()) for rows in ties]

    @staticmethod
    def _flat_rows(usages: Sequence[Usage]) -> np.ndarray:
        """Usages as float rows in the snap matrix's column order."""
        return np.asarray(
            [[u for group in usage for u in group] for usage in usages],
            dtype=float,
        )

    def _tree(self) -> "cKDTree":
        """The snap tree, built on first use over the matrix in place.

        Sliding-midpoint splits (``balanced_tree=False``) answer queries
        far from every row about twice as fast as median splits on the
        EC2 M3 table.  scipy is imported here, at the first snap.
        """
        if self._snap_tree is None:
            from scipy.spatial import cKDTree
            self._snap_tree = cKDTree(
                self._snap_structures()[0], copy_data=False,
                balanced_tree=False,
            )
        return self._snap_tree

    def _snap_remember(self, usage: Usage, score: float) -> None:
        self._snap_cache[usage] = score
        if len(self._snap_cache) > self.DEFAULT_SNAP_CACHE_SIZE:
            self._snap_cache.popitem(last=False)

    def _snap_structures(self) -> Tuple[np.ndarray, np.ndarray]:
        """The snap matrix (one float row per profile) and score vector,
        built on first use in the dict's insertion order."""
        if self._flat_matrix is None:
            usages = list(self._scores)
            m = sum(len(group) for group in usages[0])
            self._flat_matrix = np.ascontiguousarray(
                np.fromiter(
                    (u for usage in usages for group in usage for u in group),
                    dtype=float,
                    count=len(usages) * m,
                ).reshape(len(usages), m)
            )
            self._flat_scores = np.fromiter(
                self._scores.values(), dtype=float, count=len(usages)
            )
        assert self._flat_scores is not None
        return self._flat_matrix, self._flat_scores

    def best_profile(self) -> Usage:
        """The usage with the highest score in the table."""
        scores = self._scores
        return max(scores, key=lambda usage: scores[usage])

    def top(self, count: int) -> List[Tuple[Usage, float]]:
        """The ``count`` best (usage, score) pairs, best first."""
        ranked = sorted(self._scores.items(), key=lambda kv: -kv[1])
        return ranked[:count]

    def items(self) -> Iterable[Tuple[Usage, float]]:
        """Iterate (canonical usage, score) pairs."""
        return self._scores.items()

    def __repr__(self) -> str:
        return (
            f"ScoreTable(profiles={len(self)}, "
            f"damping={self.damping}, strategy={self.strategy.value!r}, "
            f"vote_direction={self.vote_direction!r})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the table to a JSON file, atomically.

        The payload is written to a temporary file in the destination
        directory and moved into place with :func:`os.replace`, so a
        concurrent reader (``repro audit``) never observes a half-written
        table.
        """
        payload = {
            "format": "repro.score_table.v1",
            "damping": self.damping,
            "strategy": self.strategy.value,
            "vote_direction": self.vote_direction,
            "shape": [
                {
                    "name": g.name,
                    "capacities": list(g.capacities),
                    "anti_collocation": g.anti_collocation,
                }
                for g in self.shape.groups
            ],
            "scores": [
                {"usage": [list(g) for g in usage], "score": score}
                for usage, score in self._scores.items()
            ],
        }
        destination = Path(path)
        handle, temp_name = tempfile.mkstemp(
            dir=str(destination.parent) or ".",
            prefix=destination.name + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(payload, stream)
            # mkstemp creates 0600 files; give the table the permissions a
            # plain open() would, so shared cache directories stay readable.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp_name, 0o666 & ~umask)
            os.replace(temp_name, destination)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    @staticmethod
    def load(path: Union[str, Path]) -> "ScoreTable":
        """Read a table previously written by :meth:`save`.

        Raises:
            ValidationError: for an unrecognized format.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "repro.score_table.v1":
            raise ValidationError(
                f"unrecognized score table format in {path!s}: "
                f"{payload.get('format')!r}"
            )
        shape = MachineShape(
            groups=tuple(
                ResourceGroup(
                    name=g["name"],
                    capacities=tuple(g["capacities"]),
                    anti_collocation=g["anti_collocation"],
                )
                for g in payload["shape"]
            )
        )
        scores = {
            tuple(tuple(g) for g in entry["usage"]): float(entry["score"])
            for entry in payload["scores"]
        }
        return ScoreTable(
            shape=shape,
            scores=scores,
            damping=float(payload["damping"]),
            strategy=SuccessorStrategy(payload["strategy"]),
            vote_direction=payload.get("vote_direction", "forward"),
        )


def build_score_table(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
    mode: str = "reachable",
    damping: float = 0.85,
    node_limit: int = 1_000_000,
    vote_direction: str = "forward",
    scoring: str = "pagerank",
    graph: Optional[ProfileGraph] = None,
) -> ScoreTable:
    """Build the graph, run the chosen scoring and return the score table.

    This is the one-stop constructor most callers want; see
    :func:`repro.core.graph.build_profile_graph` and
    :func:`repro.core.kernel_sweep.sweep_profile_pagerank` (the exact
    DAG-sweep solution of Algorithm 1) for the pieces.

    Args:
        scoring: ``"pagerank"`` (Algorithm 1: PageRank x BPRU, the
            default), ``"pagerank-efu"`` (PageRank with the expected
            final utilization as a *soft* BPRU), or
            ``"expected-utilization"`` (the exact expected-terminal-
            utilization DP on its own — the paper's stated semantic,
            kept for ablations).  All other args are Algorithm 1 knobs.
        graph: optionally a prebuilt :class:`ProfileGraph` for ``shape``
            and ``vm_types``; sweeps over damping/scoring reuse one
            graph this way instead of rebuilding it per variant.
            Without it the graph is loaded from, or built into, the
            on-disk graph cache under ``$REPRO_TABLE_CACHE`` (see
            :mod:`repro.core.graph_cache`).

    Raises:
        ValidationError: for an unknown ``scoring``, or a graph built
            for a different shape or VM type set.
    """
    if scoring not in ("pagerank", "pagerank-efu", "expected-utilization"):
        raise ValidationError(
            f"unknown scoring {scoring!r}; use 'pagerank', 'pagerank-efu' "
            "or 'expected-utilization'"
        )
    if graph is None:
        graph = load_or_build_profile_graph(
            shape,
            vm_types,
            strategy=strategy,
            mode=mode,
            node_limit=node_limit,
        )
    else:
        require(
            graph.shape == shape,
            "the supplied graph was built for a different shape",
        )
        require(
            graph.vm_types == tuple(vm_types),
            "the supplied graph was built for a different VM type set",
        )
        strategy = graph.strategy
    if scoring == "expected-utilization":
        values = expected_final_utilization(graph)
    else:
        result = sweep_profile_pagerank(
            graph, damping=damping, vote_direction=vote_direction
        )
        if scoring == "pagerank-efu":
            values = result.raw * expected_final_utilization(graph)
        else:
            values = result.scores
    scores = dict(zip(graph.profiles, np.asarray(values, dtype=float).tolist()))
    return ScoreTable(
        shape=shape,
        scores=scores,
        damping=damping,
        strategy=strategy,
        vote_direction=vote_direction,
    )
