"""Score-table construction with caching.

The Profile-PageRank table for a PM shape depends only on (shape, VM
types in declaration order, strategy, damping, vote direction, scoring)
— the paper notes it is stable until the provider changes its VM
catalog.  Tables are therefore cached in memory per process.  Across
processes the expensive part, the profile graph, is cached on disk
(``REPRO_TABLE_CACHE`` or an explicit ``cache_dir``) by
:mod:`repro.core.graph_cache`, and a table is re-solved from its cached
graph, which is faster than reloading a serialized table (DESIGN.md
section 3.6).
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional, Sequence

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

#: Cache key -> number of table builds (graph load or build, then the
#: rank solve) in this process; tests use this to assert each distinct
#: table is built exactly once per process.
_BUILD_COUNTS: Dict[str, int] = {}


def build_counts() -> Dict[str, int]:
    """Per-cache-key count of table builds in this process."""
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

    VM types are hashed in declaration order, as in
    :func:`repro.core.graph_cache.graph_cache_key`: the order fixes node
    ids and therefore the sweep's summation order, so two orders of one
    catalog can differ in the last bits of their scores.  The rank-kernel
    generation
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
    for vm in vm_types:
        digest.update(f"{vm.name}:{vm.demands};".encode())
    digest.update(f"{strategy.value}:{damping}:{vote_direction}:{scoring}".encode())
    return digest.hexdigest()[:24]


def clear_memory_cache() -> None:
    """Drop all in-memory cached tables and counters (tests use this)."""
    _MEMORY_CACHE.clear()
    _BUILD_COUNTS.clear()


def score_tables_for(
    shapes: Sequence[MachineShape],
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.BALANCED,
    damping: float = 0.85,
    vote_direction: str = "forward",
    scoring: str = "pagerank",
    cache_dir: Optional[str] = None,
    node_limit: int = 1_000_000,
) -> Dict[MachineShape, ScoreTable]:
    """Tables for every distinct shape, built at most once each.

    A table missing from the in-memory cache is built by
    :func:`~repro.core.score_table.build_score_table`, which loads the
    shape's profile graph from the on-disk graph cache in ``cache_dir``
    (default: ``$REPRO_TABLE_CACHE``; none when neither is set) or builds
    and stores it there.  Only ``profile_graph_*.npz`` archives are
    written, directly under that directory.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_TABLE_CACHE") or None
    tables: Dict[MachineShape, ScoreTable] = {}
    for shape in dict.fromkeys(shapes):
        key = table_cache_key(
            shape, vm_types, strategy, damping, vote_direction, scoring
        )
        table = _MEMORY_CACHE.get(key)
        if table is None:
            table = build_score_table(
                shape,
                vm_types,
                strategy=strategy,
                damping=damping,
                vote_direction=vote_direction,
                scoring=scoring,
                node_limit=node_limit,
                graph_cache_dir=cache_dir,
            )
            _BUILD_COUNTS[key] = _BUILD_COUNTS.get(key, 0) + 1
            _MEMORY_CACHE[key] = table
        tables[shape] = table
    return tables
