"""Trace-point layer: canonical decision-event streams with digests.

The twin implementations in this repository (the seed scan on the
object ``Datacenter`` vs the struct-of-arrays core with its columnar
tick, the per-class scoring loop vs ``vector_class_scores``) are
required to be *the same algorithm*.  The trace layer makes that
machine-checkable: the ~10 decision sites that define semantic
equivalence (placement chosen, ranking winner, overload verdict,
migration victim, RNG draw, fault verdict, energy/SLO accumulation)
call :func:`tracepoint`, and an active :class:`TraceRecorder` turns the
calls into a canonical event stream with per-event rolling SHA-256
digests.

Tracing is compiled out by default: every call site is guarded by
``if TRACE.active`` — one slotted attribute load and a branch — so the
hot paths pay nothing unless a :func:`capture` context is open.  The
rolling prefix digests are what make divergence *bisection* cheap: two
streams that diverge at event *k* have equal digests before *k* and
unequal digests from *k* on, so the first diverging event is found by
binary search over O(log n) digest comparisons (see
:mod:`repro.analysis.sanitize`).

Event kinds split into two comparison classes:

* **decision events** (everything but ``FLOAT_KINDS``) enter the rolling
  digest and must match bit-for-bit between twins;
* **float events** (``energy``, ``slo`` — running totals sampled once
  per monitor tick) are kept out of the digest and compared with a
  ULP-bounded tolerance, because the vectorized paths re-associate
  float summation within a documented bound.

This module must stay dependency-free within the package (``util`` is
imported by ``core``/``cluster``/``faults``), so it knows nothing about
datacenters — payloads are plain scalars supplied by the call sites.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "TraceError",
    "TraceEvent",
    "TraceRecorder",
    "TRACE",
    "FLOAT_KINDS",
    "COMPONENT_OF",
    "tracepoint",
    "capture",
    "canonical_value",
]

#: Canonicalized payload values: digest-stable scalar forms only.
CanonValue = Union[None, bool, int, str, Tuple["CanonValue", ...]]

#: Event kinds whose payloads carry float running totals: excluded from
#: the rolling digest, compared ULP-bounded by the sanitizer instead.
FLOAT_KINDS = frozenset({"energy", "slo"})

#: Event kind -> component, for the per-component digest summary.
COMPONENT_OF: Mapping[str, str] = {
    "tick": "clock",
    "place": "placement",
    "rank": "policy",
    "overload": "monitor",
    "victim": "migration",
    "migrate": "migration",
    "rng": "rng",
    "fault": "faults",
    "energy": "metering",
    "slo": "metering",
}


class TraceError(RuntimeError):
    """Misuse of the trace layer (e.g. nested captures)."""


def canonical_value(value: object) -> CanonValue:
    """Digest-stable canonical form of a payload value.

    Floats (including numpy scalars) canonicalize via ``float.hex`` so
    equality is bit-equality regardless of the producing dtype or repr
    rounding; ints and bools pass through; sequences become tuples.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(canonical_value(v) for v in value)
    # Numpy scalars (np.float64 / np.int64 / np.bool_) and anything else
    # scalar-like: coerce through the matching Python type.
    for caster in (int, float):
        try:
            cast = caster(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
        if cast == value:
            return canonical_value(cast)
    return repr(value)


@dataclass(frozen=True)
class TraceEvent:
    """One decision-site event: global sequence number, kind, payload.

    The payload is stored canonicalized and key-sorted, so two events
    are semantically equal iff they are ``==``.
    """

    seq: int
    kind: str
    payload: Tuple[Tuple[str, CanonValue], ...]

    def value(self, key: str) -> CanonValue:
        """The canonical payload value under ``key`` (KeyError if absent)."""
        for name, value in self.payload:
            if name == key:
                return value
        raise KeyError(key)

    def render(self) -> str:
        """One-line human form, e.g. ``#12 rank vm=m3.xlarge pm=7``."""
        fields = " ".join(f"{k}={v}" for k, v in self.payload)
        return f"#{self.seq} {self.kind} {fields}"


class TraceRecorder:
    """Accumulates one run's event stream and its rolling digests.

    Attributes (all read-only by convention once the capture closes):
        events: every event in emission order.
        digest_seqs: seqs of the digested (decision) events, in order.
        prefix_digests: rolling SHA-256 after each digested event —
            ``prefix_digests[i]`` covers digested events ``0..i``.
        float_seqs: seqs of the float-class events, in order.
        windows: ``(n_digested, n_float)`` high-water marks at each
            ``tick`` event — the per-window comparison points.
    """

    __slots__ = (
        "float_kinds",
        "events",
        "digest_seqs",
        "prefix_digests",
        "float_seqs",
        "windows",
        "_hash",
        "_component_hashes",
    )

    def __init__(self, float_kinds: frozenset = FLOAT_KINDS) -> None:
        self.float_kinds = float_kinds
        self.events: List[TraceEvent] = []
        self.digest_seqs: List[int] = []
        self.prefix_digests: List[bytes] = []
        self.float_seqs: List[int] = []
        self.windows: List[Tuple[int, int]] = []
        self._hash = hashlib.sha256()
        self._component_hashes: Dict[str, "hashlib._Hash"] = {}

    def record(self, kind: str, payload: Mapping[str, object]) -> None:
        """Append one event; digest it unless its kind is float-class."""
        canon = tuple(
            sorted((key, canonical_value(value)) for key, value in payload.items())
        )
        seq = len(self.events)
        self.events.append(TraceEvent(seq, kind, canon))
        if kind in self.float_kinds:
            self.float_seqs.append(seq)
        else:
            encoded = repr((kind, canon)).encode("utf-8")
            self._hash.update(encoded)
            self.prefix_digests.append(self._hash.digest())
            self.digest_seqs.append(seq)
            component = COMPONENT_OF.get(kind, kind)
            comp_hash = self._component_hashes.get(component)
            if comp_hash is None:
                comp_hash = self._component_hashes[component] = hashlib.sha256()
            comp_hash.update(encoded)
        if kind == "tick":
            self.windows.append((len(self.digest_seqs), len(self.float_seqs)))

    @property
    def stream_digest(self) -> str:
        """Hex digest of the full decision stream so far."""
        return self._hash.hexdigest()

    def component_digests(self) -> Dict[str, str]:
        """Final hex digest per component (stable key order)."""
        return {
            component: comp_hash.hexdigest()
            for component, comp_hash in sorted(self._component_hashes.items())
        }

    def event_at(self, seq: int) -> Optional[TraceEvent]:
        """The event with global sequence number ``seq`` (None if absent)."""
        if 0 <= seq < len(self.events):
            return self.events[seq]
        return None


class _TraceState:
    """Process-wide trace switch; slotted so the guard is one load."""

    __slots__ = ("active", "recorder")

    def __init__(self) -> None:
        self.active = False
        self.recorder: Optional[TraceRecorder] = None


#: The global switch instrumented call sites guard on
#: (``if TRACE.active: tracepoint(...)``).
TRACE = _TraceState()


def tracepoint(kind: str, **payload: object) -> None:
    """Emit one event into the active recorder (no-op when inactive)."""
    recorder = TRACE.recorder
    if recorder is not None:
        recorder.record(kind, payload)


@contextmanager
def capture(float_kinds: frozenset = FLOAT_KINDS) -> Iterator[TraceRecorder]:
    """Activate tracing for the duration of the block.

    Captures do not nest — the lockstep executor runs twin legs
    sequentially, each under its own capture.

    Raises:
        TraceError: when a capture is already active.
    """
    if TRACE.active:
        raise TraceError("a trace capture is already active")
    recorder = TraceRecorder(float_kinds=float_kinds)
    TRACE.recorder = recorder
    TRACE.active = True
    try:
        yield recorder
    finally:
        TRACE.active = False
        TRACE.recorder = None
