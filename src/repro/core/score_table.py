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
from scipy.spatial import cKDTree

from repro.core.graph import ProfileGraph, SuccessorStrategy
from repro.core.graph_cache import load_or_build_profile_graph
from repro.core.kernel_sweep import sweep_profile_pagerank
from repro.core.pagerank import expected_final_utilization
from repro.core.profile import MachineShape, Profile, ResourceGroup, Usage, VMType
from repro.util.floatguard import GUARD, check_finite
from repro.util.validation import ValidationError, require

__all__ = ["ScoreTable", "build_score_table"]


class ScoreTable:
    """Mapping from canonical PM usage profiles to PageRank scores.

    Args:
        shape: the PM shape the scores belong to.
        scores: canonical usage -> final score.
        damping: damping factor used to build the table (metadata).
        strategy: successor strategy used to build the table (metadata).
        snap_cache_size: bound on the snap-result cache; long dynamic
            simulations with migrations produce a stream of off-graph
            profiles, so the cache evicts least-recently-used entries
            once full instead of growing without limit.
    """

    #: Default bound on the snapped-score LRU cache.
    DEFAULT_SNAP_CACHE_SIZE = 65_536

    __slots__ = (
        "shape", "damping", "strategy", "vote_direction", "_scores",
        "_flat_matrix", "_flat_usages", "_flat_scores", "_snap_tree",
        "_snap_cache", "_snap_cache_size",
    )

    def __init__(
        self,
        shape: MachineShape,
        scores: Dict[Usage, float],
        damping: float = 0.85,
        strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
        vote_direction: str = "forward",
        snap_cache_size: int = DEFAULT_SNAP_CACHE_SIZE,
    ):
        require(len(scores) > 0, "a score table needs at least one profile")
        require(
            snap_cache_size >= 1,
            f"snap_cache_size must be >= 1, got {snap_cache_size}",
        )
        self.shape = shape
        self.damping = damping
        self.strategy = strategy
        self.vote_direction = vote_direction
        self._scores: Optional[Dict[Usage, float]] = dict(scores)
        self._flat_matrix: Optional[np.ndarray] = None
        self._flat_usages: Optional[List[Usage]] = None
        self._flat_scores: Optional[np.ndarray] = None
        self._snap_tree: Optional[cKDTree] = None
        self._snap_cache: "OrderedDict[Usage, float]" = OrderedDict()
        self._snap_cache_size = int(snap_cache_size)

    @classmethod
    def from_flat_arrays(
        cls,
        shape: MachineShape,
        matrix: np.ndarray,
        flat_scores: np.ndarray,
        damping: float = 0.85,
        strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
        vote_direction: str = "forward",
        snap_cache_size: int = DEFAULT_SNAP_CACHE_SIZE,
    ) -> "ScoreTable":
        """Construct a table directly over its snap matrix and score vector.

        :meth:`view` and the fleet delta plane build tables this way over
        another table's arrays.  The exact-lookup dict is *not* built
        here — construction stays O(1) in table size — but materialized
        lazily from the matrix rows on first exact lookup
        (:meth:`_scores_map`), in row order, which reproduces the
        builder's insertion order exactly.
        """
        require(matrix.ndim == 2, "snap matrix must be 2-D")
        require(
            matrix.shape[0] == flat_scores.shape[0],
            "snap matrix and score vector row counts differ",
        )
        require(matrix.shape[0] > 0, "a score table needs at least one profile")
        require(
            matrix.shape[1] == sum(len(g.capacities) for g in shape.groups),
            "snap matrix width does not match the shape's flat dimension",
        )
        table = cls.__new__(cls)
        table.shape = shape
        table.damping = damping
        table.strategy = strategy
        table.vote_direction = vote_direction
        table._scores = None
        table._flat_matrix = matrix
        table._flat_usages = None
        table._flat_scores = flat_scores
        table._snap_tree = None
        table._snap_cache = OrderedDict()
        table._snap_cache_size = int(snap_cache_size)
        return table

    #: Row-chunk size for lazy dict materialization; bounds the only
    #: transient allocation to (chunk x dims) int64 regardless of table
    #: size.
    _MATERIALIZE_CHUNK = 8_192

    def _scores_map(self) -> Dict[Usage, float]:
        """The exact-lookup dict, materialized from the flat arrays.

        Tables built by :meth:`from_flat_arrays` start dict-less; the
        first exact lookup rebuilds the usage tuples from the snap
        matrix rows — the matrix stores exact small integers as float64,
        so the round trip is lossless and the dict is identical to the
        builder's.

        The snap matrix is never copied wholesale: rows convert through
        bounded chunks (:data:`_MATERIALIZE_CHUNK`), the array object
        itself stays in place, and a read-only matrix's
        ``writeable=False`` protection is untouched.
        """
        if self._scores is None:
            assert self._flat_scores is not None
            if self._flat_usages is None:
                matrix = self._flat_matrix
                assert matrix is not None
                self._flat_usages = self._row_usages(matrix)
                # Materialization is in place.
                assert self._flat_matrix is matrix
            self._scores = dict(
                zip(self._flat_usages, self._flat_scores.tolist())
            )
        return self._scores

    def _row_usages(self, rows: np.ndarray) -> List[Usage]:
        """The usage tuples of flat matrix rows, in row order."""
        boundaries = [0]
        for group in self.shape.groups:
            boundaries.append(boundaries[-1] + len(group.capacities))
        spans = list(zip(boundaries[:-1], boundaries[1:]))
        usages: List[Usage] = []
        for start in range(0, rows.shape[0], self._MATERIALIZE_CHUNK):
            chunk = rows[start:start + self._MATERIALIZE_CHUNK]
            usages.extend(
                tuple(tuple(row[lo:hi]) for lo, hi in spans)
                for row in chunk.astype(np.int64).tolist()
            )
        return usages

    def apply_delta(
        self, new_rows: np.ndarray, scores: np.ndarray
    ) -> None:
        """Grow the table in place after a graph delta.

        ``new_rows`` are the appended profiles' flat usage rows (node-id
        order, matching :func:`repro.core.graph.extend_profile_graph`'s
        appended ids) and ``scores`` is the *complete* new score vector
        — rank redistributes over every profile when the graph grows,
        so all scores are replaced while the existing matrix rows are
        only appended to.  Lazy structures (exact-lookup dict, snap
        tree, snap cache) reset and rebuild on demand; the usage tuples
        of the kept rows survive, so the dict rebuild converts only the
        appended rows.

        A table over read-only arrays refuses the mutation; grow a
        private master table and swap a fresh view in instead (see
        ``repro.serve.fleet.FleetDeltaPlane``).

        Raises:
            ValidationError: on read-only arrays or mismatched shapes.
        """
        matrix, _, _ = self._snap_structures()
        if not matrix.flags.writeable:
            raise ValidationError(
                "cannot apply a delta to a score table over read-only "
                "arrays; grow a private master table and republish it"
            )
        appended = np.ascontiguousarray(np.asarray(new_rows, dtype=float))
        require(
            appended.ndim == 2 and appended.shape[1] == matrix.shape[1],
            "delta rows do not match the snap matrix width",
        )
        new_scores = np.asarray(scores, dtype=float)
        require(
            new_scores.shape == (matrix.shape[0] + appended.shape[0],),
            "delta score vector does not cover the grown table",
        )
        self._flat_matrix = np.ascontiguousarray(
            np.concatenate([matrix, appended])
        ) if appended.shape[0] else matrix
        self._flat_scores = new_scores.copy()
        self._scores = None
        if self._flat_usages is not None:
            self._flat_usages = self._flat_usages + self._row_usages(appended)
        self._snap_tree = None
        self._snap_cache.clear()

    def __len__(self) -> int:
        if self._scores is None and self._flat_scores is not None:
            return int(self._flat_scores.shape[0])
        return len(self._scores_map())

    def __contains__(self, usage: Usage) -> bool:
        return usage in self._scores_map()

    def score(self, usage: Union[Usage, Profile]) -> Optional[float]:
        """Exact score of a canonical usage, or None when unknown."""
        if isinstance(usage, Profile):
            usage = usage.usage
        return self._scores_map().get(usage)

    def score_or_snap(self, usage: Union[Usage, Profile]) -> float:
        """Score of a canonical usage, snapping to the L1-nearest profile.

        Ties in distance are broken toward the *lower*-scored neighbour so
        snapping never optimistically inflates an off-graph profile.
        """
        if isinstance(usage, Profile):
            usage = usage.usage
        exact = self._scores_map().get(usage)
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
        scores_map = self._scores_map()
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

    def _snap(self, usages: Sequence[Usage]) -> List[float]:
        """Scores of the L1-nearest table rows, lowest score on ties.

        ``query`` finds each usage's nearest distance ``d``;
        ``query_ball_point`` at radius ``d`` then returns every row at
        exactly that distance.  Usages are small integers, so every L1
        distance is exact in float64 and the result is bit-identical to
        a brute-force scan of the whole matrix.
        """
        tree = self._tree()
        flats = np.asarray(
            [[u for group in usage for u in group] for usage in usages],
            dtype=float,
        )
        nearest, _ = tree.query(flats, k=1, p=1)
        ties = tree.query_ball_point(flats, r=nearest, p=1)
        flat_scores = self._snap_structures()[2]
        return [float(flat_scores[rows].min()) for rows in ties]

    def _tree(self) -> cKDTree:
        """The snap tree, built on first use over the matrix in place.

        :meth:`apply_delta` drops it with the matrix.  Sliding-midpoint
        splits (``balanced_tree=False``) answer queries far from every
        row about twice as fast as median splits on the EC2 M3 table.
        """
        if self._snap_tree is None:
            self._snap_tree = cKDTree(
                self._snap_structures()[0], copy_data=False,
                balanced_tree=False,
            )
        return self._snap_tree

    def view(self) -> "ScoreTable":
        """A table sharing this one's arrays, exact-lookup dict and snap
        tree, all built now.

        A view handed to a live policy never builds an index on a
        request.  It keeps its own snap cache, and a later
        :meth:`apply_delta` replaces this table's arrays and dict, never
        mutating them, so the view's stay intact.
        """
        matrix, _, flat_scores = self._snap_structures()
        view = ScoreTable.from_flat_arrays(
            self.shape, matrix, flat_scores, damping=self.damping,
            strategy=self.strategy, vote_direction=self.vote_direction,
            snap_cache_size=self._snap_cache_size,
        )
        view._scores = self._scores_map()
        view._snap_tree = self._tree()
        return view

    def _snap_remember(self, usage: Usage, score: float) -> None:
        self._snap_cache[usage] = score
        if len(self._snap_cache) > self._snap_cache_size:
            self._snap_cache.popitem(last=False)

    def _snap_structures(self) -> Tuple[np.ndarray, Optional[List[Usage]], np.ndarray]:
        if self._flat_matrix is None:
            assert self._scores is not None
            self._flat_usages = list(self._scores)
            m = sum(len(group) for group in self._flat_usages[0])
            self._flat_matrix = np.ascontiguousarray(
                np.fromiter(
                    (
                        u
                        for usage in self._flat_usages
                        for group in usage
                        for u in group
                    ),
                    dtype=float,
                    count=len(self._flat_usages) * m,
                ).reshape(len(self._flat_usages), m)
            )
            self._flat_scores = np.fromiter(
                (self._scores[u] for u in self._flat_usages),
                dtype=float,
                count=len(self._flat_usages),
            )
        assert self._flat_scores is not None
        # _flat_usages is None for from_flat_arrays tables until the
        # exact-lookup dict materializes; snap callers only use the
        # matrix and score vector.
        return self._flat_matrix, self._flat_usages, self._flat_scores

    def best_profile(self) -> Usage:
        """The usage with the highest score in the table."""
        scores = self._scores_map()
        return max(scores, key=lambda usage: scores[usage])

    def top(self, count: int) -> List[Tuple[Usage, float]]:
        """The ``count`` best (usage, score) pairs, best first."""
        ranked = sorted(self._scores_map().items(), key=lambda kv: -kv[1])
        return ranked[:count]

    def items(self) -> Iterable[Tuple[Usage, float]]:
        """Iterate (canonical usage, score) pairs."""
        return self._scores_map().items()

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
                for usage, score in self._scores_map().items()
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
    graph_cache_dir: Optional[Union[str, Path]] = None,
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
        graph_cache_dir: optional on-disk graph cache consulted before
            building (see :mod:`repro.core.graph_cache`); ignored when
            ``graph`` is supplied.

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
            cache_dir=graph_cache_dir,
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
