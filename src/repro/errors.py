"""The typed Clara exception hierarchy.

Every error the library raises on *user-facing* misuse — unknown
element names, invalid workload specs, analysis before training,
unreadable artifacts — derives from :class:`ClaraError`, so callers
can catch one base class, and the CLI can map each subclass to a
distinct non-zero exit code (the ``exit_code`` attribute) with a clean
one-line message instead of a traceback.

Each subclass also inherits the builtin exception it historically was
(``KeyError``, ``ValueError``, ``RuntimeError``), so pre-hierarchy
callers that caught builtins keep working unchanged.

This module lives at the top of the package and imports nothing from
it, so :mod:`repro.workload` and :mod:`repro.click` can raise typed
errors without importing :mod:`repro.core`.
"""

from __future__ import annotations

__all__ = [
    "ArtifactCacheMiss",
    "ArtifactError",
    "BENCH_EXIT_ERROR",
    "BENCH_EXIT_WARNING",
    "ClaraError",
    "EXIT_CODES",
    "HTTP_STATUSES",
    "InvalidWorkloadError",
    "LINT_EXIT_ERROR",
    "LINT_EXIT_WARNING",
    "NotTrainedError",
    "RequestTimeoutError",
    "RequestTooLargeError",
    "UnknownElementError",
    "UnknownTargetError",
    "http_status_for",
]


class ClaraError(Exception):
    """Base class of every typed Clara error.

    ``exit_code`` is the process exit status the CLI uses for the
    class; ``http_status`` is the response status ``clara serve`` maps
    the class to.  Subclasses override both with distinct values (see
    :data:`EXIT_CODES` and :data:`HTTP_STATUSES`).
    """

    exit_code = 2
    http_status = 400

    def __str__(self) -> str:  # KeyError subclasses repr() their arg
        return str(self.args[0]) if self.args else self.__class__.__name__


class UnknownElementError(ClaraError, KeyError):
    """An element name is not in the element library."""

    exit_code = 3
    http_status = 404


class UnknownTargetError(ClaraError, KeyError):
    """A NIC target name is not in the target registry."""

    exit_code = 12
    http_status = 404


class InvalidWorkloadError(ClaraError, ValueError):
    """A workload specification fails validation."""

    exit_code = 4
    http_status = 400


class NotTrainedError(ClaraError, RuntimeError):
    """An advisor (or Clara itself) was used before its learning phase."""

    exit_code = 5
    http_status = 503


class ArtifactError(ClaraError, RuntimeError):
    """A saved artifact is unreadable, corrupt, or from another version."""

    exit_code = 6
    http_status = 500


class ArtifactCacheMiss(ArtifactError):
    """``cache="require"`` found no stored artifact for the key."""

    exit_code = 7
    http_status = 503


class RequestTooLargeError(ClaraError):
    """A request to ``clara serve`` declares a body over the daemon's
    size limit."""

    exit_code = 13
    http_status = 413


class RequestTimeoutError(ClaraError):
    """A ``clara serve`` client stopped sending a declared request body
    for longer than the daemon's socket timeout."""

    exit_code = 14
    http_status = 408


#: ``clara lint`` exit statuses (not exceptions — lint findings are a
#: result, not a failure): 0 means clean or notes only,
#: :data:`LINT_EXIT_WARNING` means warnings but no errors, and
#: :data:`LINT_EXIT_ERROR` means at least one error-severity
#: diagnostic.  Distinct from the exception codes below so scripts can
#: tell "the NF has portability problems" from "the tool failed".
LINT_EXIT_WARNING = 8
LINT_EXIT_ERROR = 9

#: ``clara bench --compare`` exit statuses (like lint: a detected
#: regression is a *finding*, not a tool failure).  0 means no
#: regression beyond threshold, :data:`BENCH_EXIT_WARNING` means
#: warn-grade slowdowns only (CI tolerates these — machines differ),
#: and :data:`BENCH_EXIT_ERROR` means at least one error-grade
#: slowdown (more than twice the regression threshold), which gates
#: merges.
BENCH_EXIT_WARNING = 10
BENCH_EXIT_ERROR = 11

#: exception class name -> CLI exit status (documented in docs/API.md).
EXIT_CODES = {
    cls.__name__: cls.exit_code
    for cls in (
        ClaraError,
        UnknownElementError,
        UnknownTargetError,
        InvalidWorkloadError,
        NotTrainedError,
        ArtifactError,
        ArtifactCacheMiss,
        RequestTooLargeError,
        RequestTimeoutError,
    )
}

#: exception class name -> ``clara serve`` HTTP response status
#: (documented in docs/API.md).  Client mistakes are 4xx (bad request
#: payloads, unknown elements); server-side conditions are 5xx (a
#: not-yet-warm or mis-deployed daemon).
HTTP_STATUSES = {
    cls.__name__: cls.http_status
    for cls in (
        ClaraError,
        UnknownElementError,
        UnknownTargetError,
        InvalidWorkloadError,
        NotTrainedError,
        ArtifactError,
        ArtifactCacheMiss,
        RequestTooLargeError,
        RequestTimeoutError,
    )
}


def http_status_for(exc: BaseException) -> int:
    """The HTTP status the serving layer uses for ``exc``:
    the class's ``http_status`` for :class:`ClaraError` subclasses,
    500 for anything else."""
    return getattr(exc, "http_status", 500) if isinstance(
        exc, ClaraError
    ) else 500
