"""Struct-of-arrays datacenter core (sharded columnar state).

See DESIGN.md section 3.11.  Public surface:

* :class:`SoADatacenter` / :class:`SoAMachineView` — the columnar
  substrate behind the object-path ``Datacenter``/``PhysicalMachine``
  API;
* :class:`SoAUsageClassIndex` / :class:`SoAIndexedMachines` /
  :class:`SoAClassTable` — the class-id-table-backed usage index;
* :class:`ShardColumns` / :class:`TraceColumns` — the raw column
  storage (benchmarks and the auditor read these directly).
"""

from repro.core.soa.columns import (
    DEFAULT_SHARD_SIZE,
    ShapeInfo,
    ShardColumns,
    TraceColumns,
)
from repro.core.soa.datacenter import SoADatacenter, SoAMachineView
from repro.core.soa.index import (
    SoAClassTable,
    SoAIndexedMachines,
    SoAUsageClassIndex,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ShapeInfo",
    "ShardColumns",
    "TraceColumns",
    "SoADatacenter",
    "SoAMachineView",
    "SoAClassTable",
    "SoAIndexedMachines",
    "SoAUsageClassIndex",
]
