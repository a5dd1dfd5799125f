"""The request broker: batch predictor inference across threads.

``clara serve`` handles each HTTP request on its own thread, and the
first analyze request for an NF ends in one ``predict_sequences`` call
over the NF's block token sequences (later requests for it answer from
``Clara``'s memo of the static analysis and never reach the
predictor).  Run naively, N concurrent first requests pay N model
invocations; the LSTM, however, is a batched matmul whose cost grows
far slower than linearly in rows.  :class:`PredictBroker` exploits
that: calls are parked on a queue, a single batcher thread waits a
small window for stragglers, concatenates everything into **one**
:meth:`~repro.core.predictor.InstructionPredictor.predict_direct`
call, and scatters the rows back to the waiting callers.  Throughput
then scales with concurrency instead of degrading.

Batch composition cannot change results: sequences are encoded row-wise
to a fixed ``max_len`` and the model reads rows independently, so the
broker's output is element-wise identical to unbatched inference (the
serve test suite asserts this).

The broker installs itself as the predictor's inference hook
(:meth:`InstructionPredictor.set_infer_hook`), so the whole pipeline —
``Clara.analyze`` included — batches transparently; the hook is
deployment wiring, never pickled into artifacts.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from repro.errors import ClaraError
from repro.obs import get_logger, get_metrics, span
from repro.obs.events import emit
from repro.obs.reqctx import (
    RequestContext,
    current_request_id,
    use_request,
)

__all__ = ["PredictBroker"]

log = get_logger(__name__)

#: bucket bounds for the jobs-per-batch histogram (counts, not seconds).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _Job:
    """One parked ``predict_sequences`` call.

    ``request_id`` is captured on the *submitting* thread — the
    batcher runs on its own thread where the submitter's contextvars
    are invisible, so the id must ride along with the job for the
    batch to record which requests it merged.  ``enqueued_s`` feeds
    the batch-wait measurement (first-enqueue to flush).
    """

    __slots__ = ("sequences", "done", "result", "error", "request_id",
                 "enqueued_s")

    def __init__(self, sequences: Sequence[Sequence[str]]) -> None:
        self.sequences: List[Sequence[str]] = list(sequences)
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.request_id = current_request_id()
        self.enqueued_s = time.perf_counter()


class PredictBroker:
    """Batches concurrent inference calls into single model invocations.

    ``predict_fn`` is the *unhooked* batch primitive (normally
    ``predictor.predict_direct``); ``window_s`` is how long the batcher
    waits after the first arrival for more work; ``max_batch`` caps the
    jobs merged into one call, bounding tail latency under load.
    """

    def __init__(
        self,
        predict_fn: Callable[[Sequence[Sequence[str]]], np.ndarray],
        window_s: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ClaraError("max_batch must be >= 1")
        if window_s < 0:
            raise ClaraError("window_s must be >= 0")
        self._predict = predict_fn
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._cond = threading.Condition()
        self._pending: Deque[_Job] = deque()
        self._closed = False
        #: totals since construction (also exported as metrics).
        self.n_batches = 0
        self.n_jobs = 0
        self._hooked_predictors: List[object] = []
        self._thread = threading.Thread(
            target=self._loop, name="clara-predict-broker", daemon=True
        )
        self._thread.start()

    # -- wiring ---------------------------------------------------------
    @classmethod
    def for_predictor(
        cls,
        predictor,
        window_s: float = 0.002,
        max_batch: int = 64,
    ) -> "PredictBroker":
        """A broker over ``predictor.predict_direct`` with the hook
        already installed, so every ``predict_sequences`` call — from
        any thread — batches through it."""
        broker = cls(
            predictor.predict_direct, window_s=window_s, max_batch=max_batch
        )
        broker.install(predictor)
        return broker

    def install(self, predictor) -> "PredictBroker":
        """Route ``predictor.predict_sequences`` through this broker
        (undone by :meth:`close`)."""
        predictor.set_infer_hook(self.submit)
        self._hooked_predictors.append(predictor)
        return self

    # -- the client side ------------------------------------------------
    def submit(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """Predict ``sequences``; blocks until a batch containing them
        has run.  Raises whatever the model raised for the batch."""
        job = _Job(sequences)
        with self._cond:
            if self._closed:
                raise ClaraError("predict broker is closed")
            self._pending.append(job)
            self._cond.notify_all()
        job.done.wait()
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    # -- the batcher thread ---------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
            # Window: let concurrent callers pile onto the queue before
            # draining (skipped when configured away).
            if self.window_s > 0:
                time.sleep(self.window_s)
            with self._cond:
                jobs: List[_Job] = []
                while self._pending and len(jobs) < self.max_batch:
                    jobs.append(self._pending.popleft())
            if jobs:
                self._run_batch(jobs)

    def _run_batch(self, jobs: List[_Job]) -> None:
        flat: List[Sequence[str]] = []
        for job in jobs:
            flat.extend(job.sequences)
        # Correlation: the ids of the requests this batch merges.  The
        # batcher thread has no ambient request context of its own; if
        # the batch serves exactly one request, re-establish that
        # request's context around the model call so downstream
        # instrumentation (prediction-cache events, spans) stays
        # stamped.  A genuinely merged batch belongs to several
        # requests at once — its children carry no single id and the
        # ``broker_batch`` event records the full list instead.
        request_ids = sorted({
            job.request_id for job in jobs if job.request_id is not None
        })
        wait_s = (
            time.perf_counter() - min(job.enqueued_s for job in jobs)
            if jobs else 0.0
        )
        ctx = (
            use_request(RequestContext(request_id=request_ids[0]))
            if len(request_ids) == 1 and len(jobs) == 1
            else nullcontext()
        )
        try:
            with ctx, span(
                "broker_batch", n_jobs=len(jobs), n_sequences=len(flat),
                request_ids=request_ids,
            ):
                preds = (
                    self._predict(flat) if flat
                    else np.zeros(0, dtype=float)
                )
                preds = np.asarray(preds, dtype=float)
                if preds.shape[0] != len(flat):
                    raise ClaraError(
                        f"predict_fn returned {preds.shape[0]} rows for"
                        f" {len(flat)} sequences"
                    )
        except BaseException as exc:  # noqa: BLE001 - scattered to callers
            for job in jobs:
                job.error = exc
                job.done.set()
            return
        offset = 0
        for job in jobs:
            n = len(job.sequences)
            job.result = preds[offset:offset + n]
            offset += n
            job.done.set()
        with self._cond:
            self.n_batches += 1
            self.n_jobs += len(jobs)
        metrics = get_metrics()
        metrics.counter("serve_batches_total").inc()
        metrics.counter("serve_batched_requests_total").inc(len(jobs))
        metrics.histogram(
            "serve_batch_jobs", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(jobs))
        metrics.histogram("serve_batch_wait_seconds").observe(wait_s)
        emit(
            "broker_batch",
            request_id=request_ids[0] if len(request_ids) == 1 else None,
            n_jobs=len(jobs),
            n_sequences=len(flat),
            wait_s=round(wait_s, 6),
            request_ids=request_ids,
        )
        if len(jobs) > 1:
            log.debug("broker: merged %d calls (%d sequences) into one"
                      " batch", len(jobs), len(flat))

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Uninstall the hook(s), drain pending work, and stop the
        batcher thread.  Idempotent."""
        for predictor in self._hooked_predictors:
            predictor.set_infer_hook(None)
        self._hooked_predictors.clear()
        with self._cond:
            if self._closed:
                closed_already = True
            else:
                closed_already = False
                self._closed = True
            self._cond.notify_all()
        if not closed_already:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "PredictBroker":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
