"""The serving API that the benchmark calls.

``perfbench/inprocess.py`` builds a ``ClaraService`` from
``ServeConfig`` defaults and answers requests through it, and
``perfbench/run.py`` starts ``clara serve`` through
``perfbench/daemon.py``, parses its listening line and reads the
prediction-cache counters of ``/healthz``.  Only a benchmark run
exercises that code, so these tests pin the parts of the API it relies
on.
"""

import json

import pytest

from perfbench import daemon as dm
from perfbench import inprocess, run, workloads
from repro.core import Clara
from repro.errors import ClaraError
from repro.serve import ClaraService


@pytest.fixture(scope="module")
def clara(clara_artifacts):
    return Clara.load(clara_artifacts["artifact"])


def test_serving_service_answers_the_setup_request(clara):
    service = inprocess.serving_service(clara)
    try:
        elapsed_ms = inprocess.service_call_ms(
            service, workloads.SETUP_REQUEST
        )
        status, health = service.health()
    finally:
        service.close()
    assert elapsed_ms > 0.0
    assert status == 200
    cache = health["result"]["predictor"]["cache"]
    assert isinstance(cache["hits"], int) and cache["misses"] > 0


@pytest.mark.parametrize("mode", ["distilled", "auto"])
def test_lstm_is_the_only_predictor_mode(clara, mode):
    with pytest.raises(ClaraError, match="predictor_mode"):
        ClaraService(clara, predictor_mode=mode)


@pytest.mark.parametrize("argument, value", [
    ("batch_window_s", 0.002),
    ("max_batch", 64),
    ("predict_cache", False),
])
def test_serving_knobs_accept_only_their_default(clara, argument, value):
    with pytest.raises(ClaraError, match=argument):
        ClaraService(clara, **{argument: value})


def test_daemon_answers_with_default_flags(clara_artifacts, tmp_path):
    daemon = dm.Daemon(str(run.ROOT), str(clara_artifacts["artifact"]),
                       run.program_env(tmp_path / "cache"))
    try:
        port = daemon.wait_listening()

        def cache():
            health = json.loads(daemon.get("/healthz"))
            return health["result"]["predictor"]["cache"]

        before = cache()
        assert isinstance(before["hits"], int)
        assert isinstance(before["misses"], int)
        checker = dm.Checker()
        sample = dm.send(port, workloads.SETUP_REQUEST, "setup-1", checker)
        assert sample.ok, checker.errors
        after = cache()
        assert after["hits"] + after["misses"] > \
            before["hits"] + before["misses"]
    finally:
        daemon.stop()
    assert daemon.proc.returncode is not None
