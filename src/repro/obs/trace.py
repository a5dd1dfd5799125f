"""Stage tracing: nested spans with wall time, counts, and attributes.

Instrumented code opens spans around pipeline stages::

    from repro.obs import span

    with span("prepare") as sp:
        prepared = prepare_element(element)
        sp.set("n_blocks", len(prepared.blocks))

``span()`` delegates to the *ambient* tracer.  Every span is timed,
and as it ends :func:`~repro.obs.metrics.observe_span` feeds its
duration to the latency histogram its name maps to.  The default
:class:`TimingTracer` keeps no tree, so instrumentation stays on
permanently in library code.  The CLI (or a test) installs a
recording :class:`Tracer` with :func:`set_tracer`/:func:`use_tracer`,
runs the workload, and reads back the span tree and per-stage totals.

Tracers are deliberately process-local: :mod:`repro.core.parallel`
workers run in child processes and report timing through the parent's
``parallel_map`` span instead of shipping spans across the boundary.
Within a process, though, a recording :class:`Tracer` is thread-safe:
each thread nests spans on its own stack (``threading.local``), and
a span whose thread-level stack empties becomes a root of the shared
forest.  Spans also record an absolute wall-clock start
(:attr:`Span.start_ts`) and the opening thread id (:attr:`Span.tid`),
which is what lets :mod:`repro.obs.traceexport` emit Chrome
trace-event JSON with real ``ts``/``tid`` values.

Request correlation: every recorded span gets a unique
:attr:`Span.span_id`, and when it opens inside an ambient
:class:`~repro.obs.reqctx.RequestContext` the request id lands in its
attributes — so a span forest can be filtered down to one request.
The daemon installs a *scoped* tracer per request
(:func:`use_scoped_tracer`, a :class:`contextvars.ContextVar`
override of the process-global ambient tracer) so concurrent requests
record into isolated forests without touching each other, which is
what makes per-request slow-capture possible.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import observe_span
from repro.obs.reqctx import current_request_id

__all__ = [
    "Span",
    "TimingTracer",
    "Tracer",
    "current_span_id",
    "get_tracer",
    "set_tracer",
    "span",
    "use_scoped_tracer",
    "use_tracer",
]

#: process-wide monotonic span-id source; rendered hex with a short
#: per-process random prefix so ids from different processes (or
#: daemon restarts) don't collide in merged logs.
_span_counter = itertools.count(1)
_SPAN_ID_PREFIX = f"{threading.get_ident() ^ int(time.time() * 1e6):012x}"[-6:]


def _next_span_id() -> str:
    return f"{_SPAN_ID_PREFIX}{next(_span_counter):010x}"


class Span:
    """One timed stage: a name, wall-clock bounds, attributes, children."""

    __slots__ = ("name", "span_id", "start_s", "end_s", "start_ts", "tid",
                 "attrs", "children")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        #: unique id assigned when a recording tracer opens the span
        #: (empty otherwise); correlates spans with log lines/events.
        self.span_id: str = ""
        self.start_s: float = 0.0
        self.end_s: Optional[float] = None
        #: absolute wall-clock start (``time.time()`` epoch seconds) —
        #: ``start_s`` is a perf_counter reading, good for durations
        #: but meaningless as a timestamp.
        self.start_ts: float = 0.0
        #: identity of the thread that opened the span.
        self.tid: int = 0
        self.attrs: Dict[str, Any] = dict(attrs)
        self.children: List["Span"] = []

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return max(end - self.start_s, 0.0)

    def set(self, key: str, value: Any) -> "Span":
        """Attach an arbitrary key/value attribute (dataset sizes,
        cache results, model scores, ...)."""
        self.attrs[key] = value
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_s": round(self.duration_s, 6),
        }
        if self.span_id:
            out["span_id"] = self.span_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s:.6f}s)"


class _SpanContext:
    """Context manager binding one :class:`Span` to its tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer | TimingTracer", span_: Span) -> None:
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        observe_span(self._span)
        return False


class Tracer:
    """Records a forest of nested spans plus per-stage call counts.

    Span nesting is tracked **per thread**: concurrent callers each
    stack their own spans (no cross-thread corruption), and finished
    top-level spans from every thread land in the shared ``roots``
    forest, ordered by completion.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._roots_lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _SpanContext(self, Span(name, **attrs))

    def _push(self, span_: Span) -> None:
        span_.span_id = _next_span_id()
        request_id = current_request_id()
        if request_id is not None and "request_id" not in span_.attrs:
            span_.attrs["request_id"] = request_id
        span_.start_s = time.perf_counter()
        span_.start_ts = time.time()
        span_.tid = threading.get_ident()
        self._stack.append(span_)

    def _pop(self, span_: Span) -> None:
        span_.end_s = time.perf_counter()
        stack = self._stack
        popped = stack.pop()
        assert popped is span_, "span stack corrupted"
        if stack:
            stack[-1].children.append(span_)
        else:
            with self._roots_lock:
                self.roots.append(span_)

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, depth-first in start order."""
        stack = list(reversed(self.roots))
        while stack:
            span_ = stack.pop()
            yield span_
            stack.extend(reversed(span_.children))

    def stage_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregated ``{stage: {"calls": n, "total_s": seconds}}``
        across the whole forest (same-named spans accumulate)."""
        totals: Dict[str, Dict[str, float]] = {}
        for span_ in self.iter_spans():
            entry = totals.setdefault(
                span_.name, {"calls": 0, "total_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span_.duration_s
        for entry in totals.values():
            entry["total_s"] = round(entry["total_s"], 6)
        return totals

    def clear(self) -> None:
        with self._roots_lock:
            self.roots = []
        self._local.stack = []


class TimingTracer:
    """The default tracer: times every span and keeps none of them.

    Its spans get their ``perf_counter`` bounds but no id, wall-clock
    start, thread id or place in a tree.  It has no state, so however
    long the process runs it holds no spans.
    """

    __slots__ = ()
    enabled = False
    roots: Tuple[Span, ...] = ()

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _SpanContext(self, Span(name, **attrs))

    def _push(self, span_: Span) -> None:
        span_.start_s = time.perf_counter()

    def _pop(self, span_: Span) -> None:
        span_.end_s = time.perf_counter()

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def stage_totals(self) -> Dict[str, Dict[str, float]]:
        return {}

    def clear(self) -> None:
        pass


_current: "Tracer | TimingTracer" = TimingTracer()

#: context-local override of the ambient tracer (``None`` = use the
#: process-global one).  Per-thread/per-context by construction, so a
#: request handler can record its own isolated span forest while other
#: threads keep reporting to the global tracer.
_scoped: contextvars.ContextVar["Tracer | TimingTracer | None"] = \
    contextvars.ContextVar("repro_scoped_tracer", default=None)


def get_tracer() -> "Tracer | TimingTracer":
    """The ambient tracer instrumented code reports to (the scoped
    override when one is installed, else the process-global one)."""
    scoped = _scoped.get()
    return _current if scoped is None else scoped


def set_tracer(tracer: "Tracer | TimingTracer") -> "Tracer | TimingTracer":
    """Install ``tracer`` as ambient; returns the previous one so
    callers can restore it."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | TimingTracer") -> Iterator["Tracer | TimingTracer"]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def use_scoped_tracer(
    tracer: "Tracer | TimingTracer",
) -> Iterator["Tracer | TimingTracer"]:
    """Install ``tracer`` as a *context-local* ambient tracer.

    Unlike :func:`use_tracer` this touches only the calling
    thread/context — the daemon wraps each request in one so every
    request records an isolated span forest regardless of what the
    other worker threads are doing.
    """
    token = _scoped.set(tracer)
    try:
        yield tracer
    finally:
        _scoped.reset(token)


def current_span_id() -> str:
    """The innermost open span's id on the calling thread's ambient
    tracer, or ``""`` outside any recorded span (what the JSON log
    formatter stamps onto records)."""
    tracer = get_tracer()
    stack = getattr(getattr(tracer, "_local", None), "stack", None)
    if stack:
        return stack[-1].span_id
    return ""


def span(name: str, **attrs: Any) -> _SpanContext:
    """Open a timed span on the ambient tracer."""
    scoped = _scoped.get()
    return (_current if scoped is None else scoped).span(name, **attrs)
