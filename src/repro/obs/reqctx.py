"""Request-scoped correlation context.

One :class:`RequestContext` follows a single request through the
serving machinery: the HTTP handler opens it (accepting a client-sent
``X-Clara-Request-Id`` or minting one), and everything that runs under
it — pipeline spans, prediction-cache lookups, journal events, log
records — can read the ambient request id without any parameter
threading.  The CLI opens one per invocation when ``--request-id`` is
given, so CLI runs correlate the same way daemon requests do.

The context lives in a :class:`contextvars.ContextVar`, which is
*per-thread* (each thread starts from a copy of the creating context
only when using ``contextvars`` propagation explicitly; a plain
``threading.Thread`` starts empty).  That isolation is exactly right
for the daemon — every request, its one-time LSTM call included, is
handled on its own thread — but it also means a background thread
does not see a request's context unless it opens one itself.
"""

from __future__ import annotations

import contextvars
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "RequestContext",
    "current_request",
    "current_request_id",
    "new_request_id",
    "use_request",
]

#: maximum accepted length of a client-supplied request id; longer
#: values are truncated rather than rejected (ids are correlation
#: hints, not protocol fields).
MAX_REQUEST_ID_LEN = 128


def new_request_id() -> str:
    """A fresh request id (UUID4 hex, 32 chars)."""
    return uuid.uuid4().hex


def sanitize_request_id(value: Optional[str]) -> str:
    """A usable request id from a client-supplied header value:
    strips whitespace, truncates to :data:`MAX_REQUEST_ID_LEN`, drops
    control characters, and mints a fresh id when nothing usable
    remains."""
    if value is None:
        return new_request_id()
    cleaned = "".join(
        ch for ch in str(value).strip() if ch.isprintable()
    )[:MAX_REQUEST_ID_LEN]
    return cleaned or new_request_id()


@dataclass
class RequestContext:
    """Correlation facts for one in-flight request."""

    request_id: str = field(default_factory=new_request_id)
    #: the endpoint (or CLI command) serving the request, for display.
    endpoint: str = ""

    def __post_init__(self) -> None:
        self.request_id = sanitize_request_id(self.request_id)


_current: contextvars.ContextVar[Optional[RequestContext]] = \
    contextvars.ContextVar("repro_request_context", default=None)


def current_request() -> Optional[RequestContext]:
    """The ambient :class:`RequestContext`, or ``None`` outside one."""
    return _current.get()


def current_request_id() -> Optional[str]:
    """The ambient request id, or ``None`` outside a request."""
    ctx = _current.get()
    return None if ctx is None else ctx.request_id


@contextmanager
def use_request(ctx: RequestContext) -> Iterator[RequestContext]:
    """Install ``ctx`` as the ambient request context for the scope::

        with use_request(RequestContext(request_id=rid, endpoint=path)):
            handle()

    Nesting restores the outer context on exit; each thread sees only
    the contexts it installed.
    """
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
