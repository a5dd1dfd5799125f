"""The event journal: a bounded ring buffer of typed serving events.

Metrics aggregate; spans profile one invocation; *events* narrate.
The journal records discrete, schema-versioned facts as they happen —
a request started, a prediction-cache lookup hit, a lazy per-target
train ran, a request blew its latency budget — each stamped with a
monotonic sequence number, a wall-clock timestamp, and the ambient
request id (see :mod:`repro.obs.reqctx`).  The daemon exposes the
journal over ``GET /v1/events`` and the CLI reads it with
``clara events``.

The buffer is bounded (:class:`collections.deque` with ``maxlen``), so
emitting is O(1), memory is capped, and old events fall off the end —
``n_dropped`` counts them so readers know the window slid.  Emission
is thread-safe and cheap enough to leave on permanently; like metrics
there is no disabled variant.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.reqctx import current_request_id

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "Event",
    "EventJournal",
    "emit",
    "get_journal",
    "set_journal",
]

#: version of the event dict layout (bump on incompatible changes).
EVENT_SCHEMA = 1

#: the typed event vocabulary.
EVENT_KINDS = (
    "request_start",     # endpoint, request id
    "request_finish",    # + status, duration_s
    "cache_hit",         # prediction-cache lookup satisfied n keys
    "cache_miss",        # prediction-cache lookup missed n keys
    "target_train",      # lazy per-target Clara train (serve)
    "colocation_train",  # lazy colocation-ranker train (serve)
    "slow_request",      # request over the latency threshold (+ spans)
)


class Event:
    """One journal entry (immutable once emitted)."""

    __slots__ = ("seq", "ts", "kind", "request_id", "data")

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        request_id: Optional[str],
        data: Dict[str, Any],
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.request_id = request_id
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": EVENT_SCHEMA,
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "kind": self.kind,
            "request_id": self.request_id,
            "data": self.data,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.seq} {self.kind} rid={self.request_id})"


class EventJournal:
    """Bounded, thread-safe, in-memory event stream.

    ``capacity`` bounds retained events; ``emit`` assigns sequence
    numbers from a monotonic counter that never resets, so a reader
    polling ``since_seq`` can detect gaps (events dropped between
    polls) by comparing sequence numbers.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=self.capacity)
        self._next_seq = 0
        #: totals since construction.
        self.n_emitted = 0

    @property
    def n_dropped(self) -> int:
        """Events that fell off the ring (emitted minus retained)."""
        with self._lock:
            return self.n_emitted - len(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def emit(
        self,
        kind: str,
        request_id: Optional[str] = None,
        **data: Any,
    ) -> Event:
        """Append one event.  ``request_id=None`` adopts the ambient
        request context's id (or stays ``None`` outside a request);
        ``data`` must be JSON-serializable."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r} (known: {', '.join(EVENT_KINDS)})"
            )
        if request_id is None:
            request_id = current_request_id()
        with self._lock:
            event = Event(self._next_seq, time.time(), kind,
                          request_id, data)
            self._next_seq += 1
            self.n_emitted += 1
            self._events.append(event)
        return event

    def snapshot(
        self,
        kind: Optional[str] = None,
        request_id: Optional[str] = None,
        since_seq: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Retained events oldest-first, optionally filtered by
        ``kind``, ``request_id``, or ``since_seq`` (exclusive), with
        ``limit`` keeping the *newest* matches."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        if request_id is not None:
            events = [e for e in events if e.request_id == request_id]
        if since_seq is not None:
            events = [e for e in events if e.seq > since_seq]
        if limit is not None and limit >= 0:
            # events[-0:] would be the whole list, not none of it.
            events = events[-limit:] if limit > 0 else []
        return events

    def to_dicts(self, **filters: Any) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.snapshot(**filters)]

    def write_jsonl(self, path: str, **filters: Any) -> int:
        """Export the (filtered) journal as JSON lines; returns the
        number of events written."""
        events = self.to_dicts(**filters)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def clear(self) -> None:
        """Drop retained events (sequence numbers keep counting)."""
        with self._lock:
            self._events.clear()


_journal = EventJournal()


def get_journal() -> EventJournal:
    """The process-default journal instrumented code emits to."""
    return _journal


def set_journal(journal: EventJournal) -> EventJournal:
    """Swap the default journal (tests, embedding); returns the
    previous one."""
    global _journal
    previous = _journal
    _journal = journal
    return previous


def emit(kind: str, request_id: Optional[str] = None, **data: Any) -> Event:
    """Emit on the process-default journal (the common call site)."""
    return _journal.emit(kind, request_id=request_id, **data)
