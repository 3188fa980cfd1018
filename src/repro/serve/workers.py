"""Multi-process admission scoring over shared score tables.

The serving path's hot loop is ``select`` → ``_warm_class_candidates``
(one batch per shape for the classes a decision has not seen; below 64
interned classes, one ``_candidates`` call per unseen class) →
``profile_scores`` → :meth:`ScoreTable.score_or_snap_many`:
per-row-independent lookups and L1 snaps against the table's flat
matrix.  :class:`ScoringWorkerPool` publishes each table once into
shared memory (:mod:`repro.core.shm`), forks N persistent workers that
attach zero-copy (no N-fold unpickling, one physical copy of the
matrix), and splits every large-enough scoring batch into contiguous
chunks — one per worker — reassembled in order.

Determinism: each row's score depends only on that row and the (frozen,
read-only) table, so chunked evaluation returns the very same float64
values as the serial call, and every *decision* — which applies strictly
in ticket order in :meth:`PlacementService.serve_batch` — is unchanged.
The rolling decision digest of a ``--workers N`` service is therefore
bit-identical to the sequential one (asserted in the serve tests and the
CI identity gate).

Failure model: a worker death (chaos ``REPRO_CHAOS_KILL`` included) or
error flips the pool to ``failed`` and every subsequent batch scores
locally — same values, one process.  Segment cleanup is the shm layer's
refcount + resource-tracker story; a killed worker leaks nothing.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Sequence

from repro.core import shm
from repro.core.score_table import ScoreTable
from repro.util.validation import require

__all__ = ["ScoringWorkerPool", "PooledScoreTable"]


def _scoring_worker(
    conn: Connection, worker_id: int, table_keys: Sequence[str]
) -> None:
    """Worker loop: attach every shared table, score chunks on demand.

    Attaching is O(1) per table (the exact-lookup dict materializes
    lazily, and only if an exact hit is ever needed); the matrix and
    score vector are read-only views into the owner's segment.
    """
    attached = [shm.attach_score_table(key) for key in table_keys]
    tables = [table for table, _ in attached]
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "swap":
                # ("swap", new_table_keys): attach the replacement
                # generation before dropping the old one, so a failed
                # attach leaves the worker still serving the old tables
                # (the parent sees the error and degrades the pool).
                _, new_keys = message
                fresh = [shm.attach_score_table(key) for key in new_keys]
                for _, bundle in attached:
                    bundle.close()
                attached = fresh
                tables = [table for table, _ in attached]
                conn.send(("ok", worker_id, len(tables)))
                continue
            # ("score", table_index, usage_keys)
            _, index, keys = message
            conn.send(("ok", worker_id, tables[index].score_or_snap_many(keys)))
    except (EOFError, OSError):  # parent went away
        pass
    except Exception as error:  # surface worker bugs to the parent
        try:
            conn.send(("error", worker_id, repr(error)))
        except (OSError, BrokenPipeError):
            pass
    finally:
        for _, bundle in attached:
            bundle.close()


class ScoringWorkerPool:
    """Persistent fork pool scoring admission batches over shared tables.

    Use :meth:`create` (returns None for ``workers <= 1`` or without
    ``fork``) and :meth:`close` when the service shuts down.  Tables are
    indexed by their position in ``tables``; :class:`PooledScoreTable`
    carries its own index.
    """

    def __init__(
        self,
        tables: Sequence[ScoreTable],
        workers: int,
        min_batch: int = 64,
    ) -> None:
        require(workers >= 2, f"a scoring pool needs >= 2 workers, got {workers}")
        require(len(tables) > 0, "a scoring pool needs at least one table")
        require(min_batch >= 1, "min_batch must be >= 1")
        context = multiprocessing.get_context("fork")
        self.min_batch = min_batch
        self._n_workers = workers
        self._failed = False
        self._closed = False
        self.batches = 0
        self.rows = 0
        self.swaps = 0
        # Publish once; every worker maps the same physical pages.
        self._bundles = [shm.share_score_table(table) for table in tables]
        keys = [bundle.key for bundle in self._bundles]
        self._conns: List[Connection] = []
        self._procs: List[Any] = []
        for worker_id in range(workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_scoring_worker,
                args=(child_conn, worker_id, keys),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    @classmethod
    def create(
        cls,
        tables: Sequence[ScoreTable],
        workers: int,
        min_batch: int = 64,
    ) -> Optional["ScoringWorkerPool"]:
        """A pool when parallel scoring is possible, else None (serial)."""
        if workers <= 1:
            return None
        try:
            multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            return None
        return cls(tables, workers, min_batch=min_batch)

    @property
    def alive(self) -> bool:
        """True while the pool can still score (no failure, not closed)."""
        return not self._failed and not self._closed

    @property
    def workers(self) -> int:
        return self._n_workers

    def score_many(
        self, table_index: int, keys: Sequence[Any]
    ) -> Optional[List[float]]:
        """Score ``keys`` across the workers; None means "score locally".

        Contiguous chunks, one per worker, reassembled in chunk order —
        value-identical to the serial call because every row is
        independent of its neighbours.
        """
        if not self.alive:
            return None
        n = len(keys)
        chunk = -(-n // self._n_workers)  # ceil division
        sends: List[int] = []
        try:
            for worker_id in range(self._n_workers):
                lo = worker_id * chunk
                if lo >= n:
                    break
                self._conns[worker_id].send(
                    ("score", table_index, list(keys[lo:lo + chunk]))
                )
                sends.append(worker_id)
            values: List[float] = []
            for worker_id in sends:
                reply = self._conns[worker_id].recv()
                if reply[0] != "ok":
                    raise RuntimeError(f"scoring worker failed: {reply!r}")
                values.extend(reply[2])
        except (EOFError, OSError, BrokenPipeError, RuntimeError):
            # A dead or broken worker: degrade to local scoring for the
            # rest of this service's life — identical values, one core.
            self._failed = True
            self.close()
            return None
        self.batches += 1
        self.rows += n
        return values

    def swap_tables(self, tables: Sequence[ScoreTable]) -> bool:
        """Hot-swap every worker onto a freshly published table generation.

        Publishes the new tables (content-keyed, so identical content
        reuses the live segments), messages each worker to attach the
        new generation and drop the old one, then releases the old
        bundles — at no point is a worker without a complete attached
        generation, and chunk scoring never interleaves with a swap
        because both travel the same ordered pipe.  Returns True on
        success; any failure flips the pool to ``failed`` (subsequent
        batches score locally over the caller's swapped tables, so
        decisions stay correct either way) and returns False.
        """
        if not self.alive:
            return False
        require(len(tables) > 0, "a table swap needs at least one table")
        new_bundles = [shm.share_score_table(table) for table in tables]
        keys = [bundle.key for bundle in new_bundles]
        try:
            for conn in self._conns:
                conn.send(("swap", keys))
            for conn in self._conns:
                reply = conn.recv()
                if reply[0] != "ok":
                    raise RuntimeError(f"table swap failed: {reply!r}")
        except (EOFError, OSError, BrokenPipeError, RuntimeError):
            self._failed = True
            for bundle in new_bundles:
                bundle.close()
            self.close()
            return False
        old_bundles = self._bundles
        self._bundles = new_bundles
        for bundle in old_bundles:
            bundle.close()
        self.swaps += 1
        return True

    def rss_per_worker_mb(self) -> List[Optional[float]]:
        """Resident set size of each live worker, in MiB."""
        return [
            shm.rss_mb(process.pid) if process.is_alive() else None
            for process in self._procs
        ]

    def stats(self) -> Dict[str, Any]:
        """Pool counters for ``/cluster/state`` and the shared bench phase."""
        return {
            "workers": self._n_workers,
            "min_batch": self.min_batch,
            "batches": self.batches,
            "rows": self.rows,
            "swaps": self.swaps,
            "failed": self._failed,
            "closed": self._closed,
            "worker_pids": [process.pid for process in self._procs],
            "rss_per_worker_mb": self.rss_per_worker_mb(),
            "shm": shm.stats().as_dict(),
        }

    def close(self) -> None:
        """Stop the workers and release the shared tables (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for bundle in self._bundles:
            bundle.close()

    def __enter__(self) -> "ScoringWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class PooledScoreTable(ScoreTable):
    """A score table whose batched lookups fan out to a worker pool.

    Everything else — exact lookups, single snaps, metadata — is the
    wrapped table verbatim (the wrap shares the underlying arrays and
    caches, it does not copy).  Batches below the pool's ``min_batch``,
    a failed pool, or a closed one all score locally.
    """

    __slots__ = ("_pool", "_pool_index")

    @classmethod
    def wrap(
        cls, table: ScoreTable, pool: ScoringWorkerPool, index: int
    ) -> "PooledScoreTable":
        """Wrap ``table`` so its batch scoring offloads to ``pool``."""
        wrapped = cls.__new__(cls)
        for name in ScoreTable.__slots__:
            setattr(wrapped, name, getattr(table, name))
        wrapped._pool = pool
        wrapped._pool_index = index
        return wrapped

    def score_or_snap_many(self, usages: Sequence[Any]) -> List[float]:
        pool = self._pool
        if pool is not None and pool.alive and len(usages) >= pool.min_batch:
            values = pool.score_many(self._pool_index, usages)
            if values is not None:
                return values
        return super().score_or_snap_many(usages)
