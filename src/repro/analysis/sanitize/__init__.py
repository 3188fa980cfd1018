"""Divergence sanitizer: lockstep twin execution with auto-bisection.

The repo carries pairs of twin implementations that must be *the same
algorithm* (the seed scan on the object datacenter vs the
struct-of-arrays substrate, loop vs vectorized class ranking, DAG-sweep
vs iterative rank kernel).  This
package drives both members of a pair from one seed under the trace
layer (:mod:`repro.util.trace`), compares their canonical decision
streams per monitor window, and on mismatch bisects — O(log n) digest
probes — to the exact first diverging event, dumping both payloads and
the operation prefix that reproduces it.

Run it before touching a hot path::

    repro sanitize run --twin soa --pms 480

See DESIGN.md §3.12 for the event taxonomy and the documented
float-summation tolerances.
"""

from repro.analysis.sanitize.executor import (
    DEFAULT_MAX_ULPS,
    Divergence,
    LegTrace,
    SanitizeReport,
    SanitizeScenario,
    TWIN_NAMES,
    TwinLeg,
    find_divergence,
    run_leg,
    run_lockstep,
    run_twin,
)
from repro.util.floatguard import (
    FloatSanitizerError,
    float_guard,
    ulp_close,
    ulp_diff,
)
from repro.util.trace import TraceEvent, TraceRecorder, capture, tracepoint

__all__ = [
    "DEFAULT_MAX_ULPS",
    "Divergence",
    "FloatSanitizerError",
    "LegTrace",
    "SanitizeReport",
    "SanitizeScenario",
    "TWIN_NAMES",
    "TraceEvent",
    "TraceRecorder",
    "TwinLeg",
    "capture",
    "find_divergence",
    "float_guard",
    "run_leg",
    "run_lockstep",
    "run_twin",
    "tracepoint",
    "ulp_close",
    "ulp_diff",
]
