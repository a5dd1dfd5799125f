"""The per-Clara memo of each NF's static analysis.

``Clara.analyze`` computes ``prepare``, ``predict``, ``identify`` and
``lint`` once per distinct element and keeps the record in a bounded
LRU.  These tests pin what that may not change: every envelope equals a
fresh Clara's byte for byte, the key is the element's content, training
or loading state drops the memo, the bound holds, concurrent requests
leave the shared records untouched, and the stage spans and lint
counters still cover every analysis.
"""

import copy
import dataclasses
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.click.elements import ELEMENT_BUILDERS, build_element
from repro.core import Clara, TrainConfig, pipeline
from repro.core.compare import evaluate_on_target
from repro.nfir.printer import print_module
from repro.serve.schemas import (
    AnalyzeRequest,
    analysis_result_payload,
    dump_envelope,
    envelope,
    workload_to_dict,
)
from repro.workload.spec import LARGE_FLOWS, SMALL_FLOWS

#: payload-scanning NFs cost tens of ms per interpreted packet.
SLOW_NFS = ("dpi", "wepdecap")
STATIC_STAGES = ("prepare", "predict", "identify", "lint")


def spec_for(name, shape=LARGE_FLOWS, n_packets=20):
    return dataclasses.replace(
        shape, n_packets=2 if name in SLOW_NFS else n_packets
    )


def body(clara, element, spec, trace_seed=1):
    analysis = clara.analyze(element, spec, trace_seed=trace_seed)
    return dump_envelope(envelope(
        "analysis_result",
        analysis_result_payload(analysis, clara.port_config(analysis)),
    ))


@pytest.fixture()
def fresh(clara_artifacts):
    """A new Clara from the saved quick artifact, with an empty memo."""
    return lambda: Clara.load(clara_artifacts["artifact"])


def memo_keys(clara):
    return list(clara._static_memo)


@pytest.mark.parametrize("name", sorted(ELEMENT_BUILDERS))
def test_memo_hit_envelope_equals_a_fresh_clara(fresh, name):
    clara = fresh()
    large, small = spec_for(name, LARGE_FLOWS), spec_for(name, SMALL_FLOWS)
    first = body(clara, name, large)
    assert len(memo_keys(clara)) == 1
    assert body(clara, name, large) == first
    assert body(clara, name, small) == body(fresh(), name, small)
    assert len(memo_keys(clara)) == 1


class TestKey:
    def test_equal_elements_share_one_entry(self, fresh):
        clara = fresh()
        a = clara.analyze(build_element("aggcounter"), spec_for("aggcounter"))
        b = clara.analyze(build_element("aggcounter"), spec_for("aggcounter"))
        assert len(memo_keys(clara)) == 1
        assert a.prepared.module is b.prepared.module

    def test_changed_constant_gets_its_own_entry(self, fresh):
        clara = fresh()
        original = build_element("aggcounter")
        modified = copy.deepcopy(original)
        counters = modified.state[0]
        assert (counters.name, counters.entries) == ("pkt_count", 256)
        counters.entries = 1 << 20  # too large for the fast regions
        spec = spec_for("aggcounter")
        before = body(clara, original, spec)
        after = body(clara, modified, spec)
        assert len(memo_keys(clara)) == 2
        assert after != before
        assert after == body(fresh(), modified, spec)

    def test_initial_state_is_the_requesting_elements(self, fresh):
        clara = fresh()
        spec = spec_for("dpi")
        armed = build_element("dpi")
        disarmed = build_element("dpi")
        disarmed.initial_state = {"n_sigs": 0}
        a = clara.analyze(armed, spec)
        b = clara.analyze(disarmed, spec)
        assert len(memo_keys(clara)) == 1
        assert a.profile.block_counts != b.profile.block_counts
        assert b.profile.block_counts == \
            fresh().analyze(disarmed, spec).profile.block_counts


class TestInvalidation:
    def test_load_state_dict_drops_the_memo(self, fresh):
        clara = fresh()
        spec = spec_for("udpcount")
        before = body(clara, "udpcount", spec)
        state = copy.deepcopy(clara.state_dict())
        params = state["advisors"]["predictor"]["model"].params
        name = sorted(params)[0]
        params[name] = np.asarray(params[name]) * 1.5
        clara.load_state_dict(state)
        assert memo_keys(clara) == []
        after = body(clara, "udpcount", spec)
        assert after != before
        reference = Clara(target=clara.nic.target).load_state_dict(state)
        assert after == body(reference, "udpcount", spec)

    def test_train_drops_the_memo(self, fresh):
        clara = fresh()
        spec = spec_for("udpcount")
        before = body(clara, "udpcount", spec)
        config = TrainConfig(n_predictor_programs=4, n_scaleout_programs=3,
                             predictor_epochs=2, n_negatives=4,
                             scaleout_trace_packets=40)
        clara.train(config, cache="off")
        assert memo_keys(clara) == []
        after = body(clara, "udpcount", spec)
        assert after != before
        reference = Clara(target=clara.nic.target).load_state_dict(
            clara.state_dict()
        )
        assert after == body(reference, "udpcount", spec)


def test_a_request_cannot_change_the_memo(fresh):
    clara = fresh()
    spec = spec_for("dnsproxy")
    first = body(clara, "dnsproxy", spec)
    report = clara.analyze("dnsproxy", spec).report
    for insight in report.insights:
        if isinstance(insight.value, dict):
            insight.value.clear()
        else:
            insight.value = -1
    for diag in report.diagnostics:
        diag.data.clear()
        diag.message = ""
    report.add("scaleout", "cores", 99)
    report.diagnostics.clear()
    assert body(clara, "dnsproxy", spec) == first


def test_lru_bound_evicts_the_least_recently_used(fresh, monkeypatch):
    monkeypatch.setattr(pipeline, "STATIC_MEMO_SIZE", 2)
    clara = fresh()
    key = {name: pipeline.element_key(build_element(name))
           for name in ("aggcounter", "udpcount", "mininat")}
    for name in ("aggcounter", "udpcount", "aggcounter", "mininat"):
        clara.analyze(name, spec_for(name))
        assert len(memo_keys(clara)) <= 2
    assert memo_keys(clara) == [key["aggcounter"], key["mininat"]]


def prepared_digest(prepared):
    digest = hashlib.sha256()
    digest.update(print_module(prepared.module).encode("utf-8"))
    digest.update(repr(sorted(prepared.tokens.items())).encode("utf-8"))
    digest.update(repr(prepared.annotation).encode("utf-8"))
    return digest.hexdigest()


@pytest.fixture()
def fast_switching():
    """Switch threads far more often than the default 5 ms, so races
    between request threads have many chances to show."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_concurrent_first_analyses_share_one_record(fresh, fast_switching):
    clara = fresh()
    spec = spec_for("mininat")
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=60)

    def first(_):
        barrier.wait()
        return clara.analyze("mininat", spec)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        results = list(pool.map(first, range(n_threads), timeout=120))
    (record,) = clara._static_memo.values()
    assert all(r.prepared.module is record.prepared.module for r in results)
    assert len({r.report.to_json() for r in results}) == 1


def test_concurrent_requests_leave_memoized_records_unchanged(
    fresh, fast_switching,
):
    from repro.serve import ClaraService

    names = ("aggcounter", "firewall", "iplookup", "mazunat", "tcpgen",
             "udpcount")
    shapes = (LARGE_FLOWS, SMALL_FLOWS)
    clara = fresh()
    service = ClaraService(clara)
    try:
        for name in names:
            clara.analyze(name, spec_for(name))
        digests = {key: prepared_digest(record.prepared)
                   for key, record in clara._static_memo.items()}
        assert len(digests) == len(names)

        def request(i):
            name, shape = names[i % len(names)], shapes[i // len(names) % 2]
            if i % 10 == 0:
                return evaluate_on_target(clara, name, spec_for(name, shape))
            return service.analyze(AnalyzeRequest.from_dict({
                "element": name,
                "workload": workload_to_dict(spec_for(name, shape)),
            }))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(request, range(100), timeout=300))
    finally:
        service.close()
    assert len(results) == 100
    assert {key: prepared_digest(record.prepared)
            for key, record in clara._static_memo.items()} == digests


def test_hit_spans_and_lint_counters(fresh):
    from repro.obs import MetricsRegistry, Tracer, set_metrics, use_tracer

    def lint_total(registry):
        return sum(value for name, value in registry.to_dict().items()
                   if name.startswith("lint_diagnostics{"))

    clara = fresh()
    spec = spec_for("firewall")
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        calls = []
        for _ in range(2):
            tracer = Tracer()
            counted = lint_total(registry)
            with use_tracer(tracer):
                clara.analyze("firewall", spec)
            calls.append((tracer, lint_total(registry) - counted))
    finally:
        set_metrics(previous)
    (miss, miss_lint), (hit, hit_lint) = calls
    miss_spans = {sp.name: sp for sp in miss.iter_spans()}
    hit_spans = {sp.name: sp for sp in hit.iter_spans()}
    for stage in STATIC_STAGES:
        assert miss_spans[stage].attrs.pop("memo") == "miss", stage
        assert hit_spans[stage].attrs.pop("memo") == "hit", stage
        assert hit_spans[stage].attrs == miss_spans[stage].attrs, stage
    assert "profile_on_host" in hit_spans
    # Only a miss consults the model.
    assert "predict_model" in miss_spans
    assert "predict_model" not in hit_spans
    assert miss_lint == hit_lint > 0


def test_only_a_first_analysis_compiles_host_code(fresh, monkeypatch):
    # prepare compiles the handler once; every later profile of the
    # memoized element binds that code.
    from repro.click import interp

    generated = []
    real = interp._generate

    def counting(function):
        generated.append(function.name)
        return real(function)

    monkeypatch.setattr(interp, "_generate", counting)
    clara = fresh()
    spec = spec_for("mazunat")
    body(clara, "mazunat", spec)
    assert generated == ["pkt_handler"]
    body(clara, "mazunat", spec)
    body(clara, "mazunat", dataclasses.replace(spec, n_packets=7), trace_seed=3)
    assert generated == ["pkt_handler"]
