"""The serving API that the benchmark's in-process side calls.

``perfbench/inprocess.py`` builds a ``ClaraService`` from
``ServeConfig`` defaults and answers requests through it, and
``perfbench/run.py`` reads the prediction-cache counters of
``/healthz``.  Only a traced benchmark run exercises that code, so
these tests pin the parts of the API it relies on.
"""

import pytest

from perfbench import inprocess, workloads
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
    assert cache["enabled"] is True
    assert isinstance(cache["hits"], int) and cache["misses"] > 0


@pytest.mark.parametrize("mode", ["distilled", "auto"])
def test_lstm_is_the_only_predictor_mode(clara, mode):
    with pytest.raises(ClaraError, match="predictor_mode"):
        ClaraService(clara, predictor_mode=mode)
