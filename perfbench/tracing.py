"""Span tracer for the benchmark's traced run.

The program under test carries no instrumentation.  This module wraps
public functions and methods of each layer *from the outside*
(monkey-patching the attribute the caller resolves at call time), records
one span per call, and puts every original back on :meth:`Tracer.uninstall`.

A span is ``(span_id, parent_id, trace_id, name, start_ns, end_ns, tag)``:

* ``parent_id`` is the innermost open span on the same thread when the
  call started (0 for a root);
* ``trace_id`` is the root span's id, so every span caused by one
  ``submit`` or one ``close_window`` shares an identifier;
* ``tag`` is an optional integer a wrapper extracts from the call (shares
  dealt, frame bytes, record kind), or -1.

Spans stay in memory until the run ends; :meth:`Tracer.dump` writes them
out as CSV.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

NO_TAG = -1


@dataclass(frozen=True, slots=True)
class Span:
    span_id: int
    parent_id: int
    trace_id: int
    name: str
    start_ns: int
    end_ns: int
    tag: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def layer(self) -> str:
        """``a.b.call`` -> ``a.b``: span names are ``<layer>.<call>``."""
        return self.name.rsplit(".", 1)[0]


class Tracer:
    """Wraps callables, records spans, restores the originals."""

    def __init__(self) -> None:
        self._raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, tag: Callable | None) -> Callable:
        raw, ids, local = self._raw, self._ids, self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent_id, trace_id = stack[-1]
            else:
                parent_id, trace_id = 0, span_id
            stack.append((span_id, trace_id))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = NO_TAG if tag is None else tag(args, kwargs, result)
                raw.append((span_id, parent_id, trace_id, name, start, end, value))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap(self, owner: Any, attr: str, name: str, tag: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a traced version recording ``name``.

        ``owner`` is a module (patch the name its callers look up) or a
        class (patch the method for every instance).  Class- and static
        methods keep their descriptor kind.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self._wrapper(original.__func__, name, tag))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrapper(original.__func__, name, tag))
        else:
            replacement = self._wrapper(original, name, tag)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def take(self) -> list[Span]:
        """All recorded spans (start order), clearing the buffer."""
        raw, self._raw = self._raw, []
        raw.sort(key=lambda row: row[4])
        spans = []
        while raw:
            # Convert from the back so the tuples are freed as spans are made.
            spans.append(Span(*raw.pop()))
        spans.reverse()
        return spans

    @staticmethod
    def dump(spans: Iterable[Span], path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id,parent_id,trace_id,name,start_ns,end_ns,tag\n")
            for s in spans:
                handle.write(
                    f"{s.span_id},{s.parent_id},{s.trace_id},{s.name},"
                    f"{s.start_ns},{s.end_ns},{s.tag}\n"
                )


class SpanIndex:
    """Queries over one phase's spans: self time, layer busy time, traces."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.span_id: s for s in spans}
        child_ns: dict[int, int] = {}
        for s in spans:
            if s.parent_id:
                child_ns[s.parent_id] = child_ns.get(s.parent_id, 0) + s.duration_ns
        self._child_ns = child_ns
        self.by_trace: dict[int, list[Span]] = {}
        for s in spans:
            self.by_trace.setdefault(s.trace_id, []).append(s)

    def self_ns(self, span: Span) -> int:
        return span.duration_ns - self._child_ns.get(span.span_id, 0)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.parent_id == 0]

    def in_trace(self, root: Span) -> list[Span]:
        return self.by_trace.get(root.trace_id, [])

    def busy_ns(self, spans: Iterable[Span], layer: str) -> int:
        """Wall time inside ``layer`` (children included, nesting counted once)."""
        total = 0
        for s in spans:
            if in_layer(s, layer):
                parent = self.by_id.get(s.parent_id)
                if parent is None or not in_layer(parent, layer):
                    total += s.duration_ns
        return total

    def self_time_ns(self, spans: Iterable[Span], layer: str) -> int:
        """Time inside ``layer`` spans not spent in any wrapped child call."""
        return sum(self.self_ns(s) for s in spans if in_layer(s, layer))


def in_layer(span: Span, layer: str) -> bool:
    """``sss`` holds ``sss.scheme`` and ``sss.deal``; never ``sssx``."""
    return span.layer == layer or span.layer.startswith(layer + ".")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by :func:`statistics.quantiles`."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
