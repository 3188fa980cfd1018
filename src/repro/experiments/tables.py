"""Score-table construction with caching.

The Profile-PageRank table for an EC2-scale PM shape takes tens of
seconds to build but depends only on (shape, VM type set, strategy,
damping, vote direction) — the paper notes it is stable until the
provider changes its VM catalog.  Tables are therefore cached in memory
per process and optionally on disk (``REPRO_TABLE_CACHE`` or an explicit
``cache_dir``) across processes.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.graph import SuccessorStrategy
from repro.core.profile import MachineShape, VMType
from repro.core.score_table import ScoreTable, build_score_table

__all__ = [
    "score_tables_for",
    "clear_memory_cache",
    "table_cache_key",
    "build_counts",
]

_MEMORY_CACHE: Dict[str, ScoreTable] = {}

#: Cache key -> number of from-scratch builds in this process.  Disk-cache
#: loads do not count; tests use this to assert each distinct table is
#: built exactly once per process.
_BUILD_COUNTS: Dict[str, int] = {}


def build_counts() -> Dict[str, int]:
    """Per-cache-key count of from-scratch table builds in this process."""
    return dict(_BUILD_COUNTS)


def table_cache_key(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy,
    damping: float,
    vote_direction: str,
    scoring: str = "pagerank",
) -> str:
    """Stable content hash identifying one score table.

    The rank-kernel generation
    (:data:`repro.core.kernel_sweep.KERNEL_CODE_VERSION`, read at call
    time) is baked in so a kernel change misses every cached table
    instead of serving scores computed by older code.
    """
    from repro.core import kernel_sweep

    digest = hashlib.sha256()
    digest.update(f"kernel:{kernel_sweep.KERNEL_CODE_VERSION};".encode())
    for group in shape.groups:
        digest.update(
            f"{group.name}:{group.capacities}:{group.anti_collocation};".encode()
        )
    for vm in sorted(vm_types, key=lambda v: v.name):
        digest.update(f"{vm.name}:{vm.demands};".encode())
    digest.update(f"{strategy.value}:{damping}:{vote_direction}:{scoring}".encode())
    return digest.hexdigest()[:24]


def clear_memory_cache() -> None:
    """Drop all in-memory cached tables and counters (tests use this)."""
    _MEMORY_CACHE.clear()
    _BUILD_COUNTS.clear()


def _disk_cache_dir(cache_dir: Optional[str]) -> Optional[Path]:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("REPRO_TABLE_CACHE")
    return Path(env) if env else None


def score_tables_for(
    shapes: Sequence[MachineShape],
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.BALANCED,
    damping: float = 0.85,
    vote_direction: str = "forward",
    scoring: str = "pagerank",
    cache_dir: Optional[str] = None,
    node_limit: int = 1_000_000,
    graph_cache_dir: Optional[str] = None,
) -> Dict[MachineShape, ScoreTable]:
    """Tables for every distinct shape, built at most once each.

    Resolution order: in-memory cache, then the disk cache (when a
    directory is configured), then a fresh build (which populates both).
    A fresh build consults the on-disk *graph* cache first: ``graph_cache_dir`` when
    given, else a ``graphs/`` subdirectory of the table cache — a table
    miss that shares a graph with an earlier variant (other damping,
    other scoring) then skips construction entirely.
    """
    tables: Dict[MachineShape, ScoreTable] = {}
    disk = _disk_cache_dir(cache_dir)
    graph_cache: Optional[Path] = (
        Path(graph_cache_dir)
        if graph_cache_dir is not None
        else (disk / "graphs" if disk is not None else None)
    )
    for shape in dict.fromkeys(shapes):
        key = table_cache_key(
            shape, vm_types, strategy, damping, vote_direction, scoring
        )
        table = _MEMORY_CACHE.get(key)
        if table is None and disk is not None:
            path = disk / f"score_table_{key}.json"
            if path.exists():
                table = ScoreTable.load(path)
        if table is None:
            table = build_score_table(
                shape,
                vm_types,
                strategy=strategy,
                damping=damping,
                vote_direction=vote_direction,
                scoring=scoring,
                node_limit=node_limit,
                graph_cache_dir=graph_cache,
            )
            _BUILD_COUNTS[key] = _BUILD_COUNTS.get(key, 0) + 1
            if disk is not None:
                disk.mkdir(parents=True, exist_ok=True)
                table.save(disk / f"score_table_{key}.json")
        _MEMORY_CACHE[key] = table
        tables[shape] = table
    return tables
