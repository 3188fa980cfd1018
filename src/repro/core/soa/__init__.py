"""Struct-of-arrays datacenter core (one set of fleet columns).

See DESIGN.md section 3.11.  Public surface:

* :class:`SoADatacenter` / :class:`SoAMachineView` — the columnar
  substrate behind the object-path ``Datacenter``/``PhysicalMachine``
  API;
* :class:`SoAUsageClassIndex` / :class:`SoAIndexedMachines` /
  :class:`SoAClassTable` — the class-id-table-backed usage index;
* :class:`FleetColumns` / :class:`TraceColumns` — the raw column
  storage, built only by :class:`SoADatacenter`.
"""

from repro.core.soa.columns import FleetColumns, ShapeInfo, TraceColumns
from repro.core.soa.datacenter import SoADatacenter, SoAMachineView
from repro.core.soa.index import (
    SoAClassTable,
    SoAIndexedMachines,
    SoAUsageClassIndex,
)

__all__ = [
    "FleetColumns",
    "ShapeInfo",
    "TraceColumns",
    "SoADatacenter",
    "SoAMachineView",
    "SoAClassTable",
    "SoAIndexedMachines",
    "SoAUsageClassIndex",
]
