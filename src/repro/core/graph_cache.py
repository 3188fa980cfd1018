"""Content-keyed on-disk cache for profile graphs.

An EC2-scale profile graph is expensive to construct but depends only on
``(shape, VM type set, strategy, mode)`` plus the builder generation —
the same stability argument the paper makes for score tables.  This
module persists built graphs as compressed ``.npz`` archives (packed
profile matrix + CSR adjacency, the formats
:meth:`~repro.core.graph.ProfileGraph.packed_profiles` and
:meth:`~repro.core.graph.ProfileGraph.successor_csr` already define) so
sweeps, policies and the CLI can reload one instead of rebuilding it.

The cache directory is a deployment setting, the ``REPRO_TABLE_CACHE``
environment variable, read here and nowhere else, so every road to a
score table (experiments, the testbed, sweeps, serving, the sanitizer,
``repro graph build``) honours it in the same way.  Tests and
benchmarks pass an explicit ``cache_dir`` instead.

Cache-key notes:

* VM types are hashed **in declaration order**: order fixes BFS
  discovery order and therefore node ids.
* ``node_limit`` is *not* part of the key: the cached graph is complete
  regardless of the caller's bound, so a load under a tighter bound
  raises :class:`~repro.core.graph.GraphLimitExceeded` exactly like a
  fresh build would.
* ``BUILDER_CODE_VERSION`` is baked in; bump it whenever builder output
  could change, and stale entries miss instead of poisoning results.

Writes are atomic (tempfile + ``os.replace``), and any unreadable or
inconsistent entry is treated as a miss — corruption can cost a rebuild,
never a wrong graph.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.graph import (
    GraphLimitExceeded,
    ProfileGraph,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.profile import MachineShape, Usage, VMType

__all__ = [
    "GRAPH_CACHE_FORMAT",
    "BUILDER_CODE_VERSION",
    "graph_cache_key",
    "graph_cache_path",
    "save_graph",
    "load_graph",
    "load_or_build_profile_graph",
    "cache_events",
    "clear_cache_events",
]

GRAPH_CACHE_FORMAT = "repro.graph_cache.v1"

#: Generation stamp of the graph builder; part of every cache key.
BUILDER_CODE_VERSION = 2

#: Process-wide cache outcome counters (tests and benchmarks read these).
_CACHE_EVENTS: Dict[str, int] = {"hits": 0, "misses": 0, "corrupt": 0}


def cache_events() -> Dict[str, int]:
    """A snapshot of the hit/miss/corrupt counters for this process."""
    return dict(_CACHE_EVENTS)


def clear_cache_events() -> None:
    """Reset the cache outcome counters (tests use this)."""
    for key in _CACHE_EVENTS:
        _CACHE_EVENTS[key] = 0


def graph_cache_key(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy,
    mode: str = "reachable",
) -> str:
    """Stable content hash identifying one built profile graph.

    Besides the builder generation, the rank-kernel generation
    (:data:`repro.core.kernel_sweep.KERNEL_CODE_VERSION`) is baked in:
    the sweep kernel derives its level schedule from cached CSR arrays,
    so a kernel change must never be fed a graph cached under older
    assumptions.  Both versions are read at call time so a bump
    invalidates every existing entry.
    """
    from repro.core import kernel_sweep

    digest = hashlib.sha256()
    digest.update(
        f"{GRAPH_CACHE_FORMAT}:{BUILDER_CODE_VERSION}"
        f":k{kernel_sweep.KERNEL_CODE_VERSION};".encode()
    )
    for group in shape.groups:
        digest.update(
            f"{group.name}:{group.capacities}:{group.anti_collocation};".encode()
        )
    # Declaration order is significant: it drives successor enumeration
    # order and therefore node-id assignment.
    for vm in vm_types:
        digest.update(f"{vm.name}:{vm.demands};".encode())
    digest.update(f"{strategy.value}:{mode}".encode())
    return digest.hexdigest()[:24]


def graph_cache_path(cache_dir: Union[str, Path], key: str) -> Path:
    """The cache file path for a key inside a cache directory."""
    return Path(cache_dir) / f"profile_graph_{key}.npz"


def save_graph(graph: ProfileGraph, path: Union[str, Path], mode: str) -> Path:
    """Atomically persist a built graph to ``path``.

    The archive holds the packed profile matrix, the CSR adjacency and a
    JSON metadata record (format, builder version, key, counts).  A
    temporary file in the target directory is fsync-free but atomic via
    ``os.replace``, so readers never observe a partial archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    key = graph_cache_key(graph.shape, graph.vm_types, graph.strategy, mode)
    indptr, indices = graph.successor_csr()
    meta = json.dumps(
        {
            "format": GRAPH_CACHE_FORMAT,
            "code_version": BUILDER_CODE_VERSION,
            "key": key,
            "strategy": graph.strategy.value,
            "mode": mode,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
        }
    )
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(
                handle,
                meta=np.array(meta),
                profiles=graph.packed_profiles(),
                indptr=indptr,
                indices=indices,
            )
        os.chmod(tmp_name, 0o666 & ~_current_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _unpack_profiles(shape: MachineShape, matrix: np.ndarray) -> List[Usage]:
    """The nested usage tuples of a packed profile matrix, row for row.

    Each group's columns repeat few distinct rows, so they are decoded
    per group: a mixed-radix key (radix = unit capacity + 1) finds the
    distinct rows, which become Python tuples once, and the per-group
    columns are zipped back into usages.  A group too large for an int64
    key is decoded row by row.
    """
    columns = []
    start = 0
    for group in shape.groups:
        block = matrix[:, start:start + group.n_units].astype(np.int64)
        start += group.n_units
        if math.prod(c + 1 for c in group.capacities) > np.iinfo(np.int64).max:
            columns.append([tuple(row) for row in block.tolist()])
            continue
        keys = np.zeros(len(block), dtype=np.int64)
        for unit, capacity in enumerate(group.capacities):
            keys = keys * (capacity + 1) + block[:, unit]
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        distinct = [tuple(row) for row in block[first].tolist()]
        columns.append([distinct[i] for i in inverse.tolist()])
    return list(zip(*columns))


def load_graph(
    path: Union[str, Path],
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy,
    mode: str = "reachable",
    node_limit: int = 1_000_000,
) -> Optional[ProfileGraph]:
    """Load a cached graph, or None on a miss.

    Misses cover: no file, unreadable archive, metadata that does not
    match the expected content key, or internally inconsistent arrays —
    all counted in :func:`cache_events` (the unreadable/inconsistent
    cases also as ``corrupt``).  A *valid* cached graph larger than
    ``node_limit`` raises :class:`GraphLimitExceeded`, mirroring what the
    equivalent fresh build would do.
    """
    path = Path(path)
    vm_types = tuple(vm_types)
    if not path.exists():
        _CACHE_EVENTS["misses"] += 1
        return None
    expected_key = graph_cache_key(shape, vm_types, strategy, mode)
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"][()]))
            profiles_matrix = archive["profiles"]
            indptr = archive["indptr"]
            indices = archive["indices"]
        if meta.get("format") != GRAPH_CACHE_FORMAT:
            raise ValueError(f"unknown graph cache format {meta.get('format')!r}")
        if meta.get("key") != expected_key:
            # Not corruption — a key mismatch just means this file holds a
            # different (shape, vms, strategy, mode, version) build.
            _CACHE_EVENTS["misses"] += 1
            return None
        n_nodes = int(meta["n_nodes"])
        n_edges = int(meta["n_edges"])
        if profiles_matrix.shape != (n_nodes, shape.n_dimensions):
            raise ValueError("profile matrix shape mismatch")
        if indptr.shape != (n_nodes + 1,) or int(indptr[0]) != 0:
            raise ValueError("CSR indptr shape mismatch")
        if int(indptr[-1]) != n_edges or indices.shape != (n_edges,):
            raise ValueError("CSR indices length mismatch")
        if n_edges and (
            int(indices.min()) < 0 or int(indices.max()) >= n_nodes
        ):
            raise ValueError("CSR indices out of range")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("CSR indptr not monotone")
    except GraphLimitExceeded:
        raise
    except Exception:
        _CACHE_EVENTS["misses"] += 1
        _CACHE_EVENTS["corrupt"] += 1
        return None
    if n_nodes > node_limit:
        raise GraphLimitExceeded(
            f"cached profile graph has {n_nodes} nodes "
            f"(> node_limit={node_limit})"
        )
    graph = ProfileGraph(
        shape, vm_types, strategy, _unpack_profiles(shape, profiles_matrix),
        profiles_matrix.astype(np.int64), indptr, indices,
    )
    _CACHE_EVENTS["hits"] += 1
    return graph


def load_or_build_profile_graph(
    shape: MachineShape,
    vm_types: Sequence[VMType],
    strategy: SuccessorStrategy = SuccessorStrategy.ALL_PLACEMENTS,
    mode: str = "reachable",
    node_limit: int = 1_000_000,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ProfileGraph:
    """The cached graph when available, otherwise build (and cache) it.

    ``cache_dir`` defaults to ``$REPRO_TABLE_CACHE``; with neither set
    this is exactly :func:`build_profile_graph`.  Otherwise the
    content-keyed entry under the directory is tried first; a miss
    builds the graph and persists the result atomically for the next
    caller.
    """
    vm_types = tuple(vm_types)
    cache_dir = cache_dir or os.environ.get("REPRO_TABLE_CACHE")
    if not cache_dir:
        return build_profile_graph(
            shape, vm_types, strategy, mode=mode,
            node_limit=node_limit,
        )
    key = graph_cache_key(shape, vm_types, strategy, mode)
    path = graph_cache_path(cache_dir, key)
    graph = load_graph(
        path, shape, vm_types, strategy, mode=mode, node_limit=node_limit,
    )
    if graph is not None:
        return graph
    graph = build_profile_graph(
        shape, vm_types, strategy, mode=mode,
        node_limit=node_limit,
    )
    save_graph(graph, path, mode)
    return graph
