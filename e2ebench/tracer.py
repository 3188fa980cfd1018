"""Spans recorded from outside the program, by wrapping its public callables.

The benchmark never edits ``src/``.  For a traced run it replaces, for
the duration of one pass, a set of public functions and methods with
thin wrappers that record a span per call: name, start, end, parent span
and request id.  Spans are kept in memory and written out when the run
ends; the per-layer metrics are derived from them afterwards.

Two kinds of span exist:

* synchronous spans wrap plain calls.  They nest on one stack (the
  program runs its placement work on a single thread, and none of the
  wrapped calls awaits), so a span's parent is the span below it.
* asynchronous spans wrap coroutines (the HTTP request, the admission
  submit).  Many overlap on the event loop, so they take their parent
  from a context variable instead of the stack, and they never parent a
  synchronous span.

A layer's self time is its synchronous spans' durations minus the part
covered by their child spans.  Calls that re-enter the same layer (a
subclass ``select`` calling ``super().select``, ``migrate`` calling
``apply``) are folded into the outer call, so counts are per entry into
the layer.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "Patcher", "percentile", "START", "END", "PARENT"]

# Span record layout (lists, for cheap in-place close).
NAME, START, END, PARENT, REQUEST, SIZE, PHASE = range(7)

_ASYNC_PARENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "e2ebench_async_parent", default=None
)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Tracer:
    """In-memory span store with one synchronous stack."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.phase = "setup"
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self.clock = time.perf_counter

    # -- recording -----------------------------------------------------
    def _open(self, name: str, parent: Optional[int], request: Any,
              size: Any) -> int:
        self.spans.append(
            [name, self.clock(), 0.0, parent, request, size, self.phase]
        )
        return len(self.spans) - 1

    def sync(self, name: str, group: str, fn: Callable,
             request_of: Optional[Callable] = None,
             size_of: Optional[Callable] = None) -> Callable:
        """Wrap a plain callable so each outermost call records a span."""
        tracer = self
        depth = self._depth
        depth.setdefault(group, 0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] += 1
            index = tracer._open(
                name,
                stack[-1] if stack else None,
                request_of(*args, **kwargs) if request_of else None,
                size_of(*args, **kwargs) if size_of else None,
            )
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][END] = tracer.clock()
                depth[group] -= 1

        return wrapper

    def asynchronous(self, name: str, fn: Callable,
                     request_of: Optional[Callable] = None) -> Callable:
        """Wrap a coroutine function; its parent comes from the context."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index = tracer._open(
                name,
                _ASYNC_PARENT.get(),
                request_of(*args, **kwargs) if request_of else None,
                None,
            )
            token = _ASYNC_PARENT.set(index)
            try:
                return await fn(*args, **kwargs)
            finally:
                _ASYNC_PARENT.reset(token)
                tracer.spans[index][END] = tracer.clock()

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A synchronous span around a whole phase (its self time is the
        time no layer span covers)."""
        index = self._open(
            name, self._stack[-1] if self._stack else None, None, None
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][END] = self.clock()

    # -- analysis ------------------------------------------------------
    def summarize(self, phases: Tuple[str, ...]) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, self seconds, durations, sizes."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                child_time[parent] += span[END] - span[START]
        out: Dict[str, Dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            if span[PHASE] not in phases:
                continue
            entry = out.setdefault(
                span[NAME],
                {"calls": 0, "self_s": 0.0, "durations": [], "size": 0},
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["durations"].append(duration)
            if span[SIZE] is not None:
                entry["size"] += span[SIZE]
        return out

    def request_spans(self, phase: str) -> Dict[str, Dict[Any, List[Any]]]:
        """Spans of one phase that carry a request id, by name then id."""
        out: Dict[str, Dict[Any, List[Any]]] = {}
        for span in self.spans:
            if span[PHASE] == phase and span[REQUEST] is not None:
                out.setdefault(span[NAME], {})[span[REQUEST]] = span
        return out


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str,
                 wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in every loaded ``repro`` module
        that bound it by name (``from x import f`` makes a copy)."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = wrap(original)
        for name, loaded in list(sys.modules.items()):
            if (
                loaded is not None
                and (name == "repro" or name.startswith("repro."))
                and loaded.__dict__.get(attr) is original
            ):
                self._set(loaded, attr, wrapped)

    def method(self, module: str, cls_name: str, attr: str,
               wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` on a class and on every loaded subclass that
        defines its own."""
        base = getattr(importlib.import_module(module), cls_name)
        for cls in _subclasses(base):
            original = cls.__dict__.get(attr)
            if original is None or not (
                inspect.isfunction(original)
            ):
                continue
            self._set(cls, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
