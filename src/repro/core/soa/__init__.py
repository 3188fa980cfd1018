"""Struct-of-arrays datacenter core (one set of fleet columns).

See DESIGN.md section 3.11.  Public surface:

* :class:`SoADatacenter` / :class:`SoAMachineView` — the columnar
  substrate behind the object-path ``Datacenter``/``PhysicalMachine``
  API, and the only datacenter that maintains a usage-class index
  (:mod:`repro.core.usage_index`, which lives outside this package to
  avoid an import cycle through :mod:`repro.core.policy`); the object
  ``Datacenter`` is the seed scan;
* :class:`FleetColumns` / :class:`TraceColumns` — the raw column
  storage, built only by :class:`SoADatacenter`.
"""

from repro.core.soa.columns import FleetColumns, ShapeInfo, TraceColumns
from repro.core.soa.datacenter import SoADatacenter, SoAMachineView

__all__ = [
    "FleetColumns",
    "ShapeInfo",
    "TraceColumns",
    "SoADatacenter",
    "SoAMachineView",
]
