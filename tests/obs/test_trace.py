"""Tracer: span nesting, timing, attributes, and the default tracer."""

import threading
import time

import pytest

from repro import obs


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("outer"):
                with obs.span("inner_a"):
                    pass
                with obs.span("inner_b"):
                    with obs.span("leaf"):
                        pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sibling_roots(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_iter_spans_depth_first(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c"]


class TestSpanTiming:
    def test_duration_positive_and_nested_bound(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.01)
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.duration_s >= 0.01
        assert outer.duration_s >= inner.duration_s

    def test_stage_totals_aggregate_calls(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            for _ in range(3):
                with obs.span("stage"):
                    pass
        totals = tracer.stage_totals()
        assert totals["stage"]["calls"] == 3
        assert totals["stage"]["total_s"] >= 0.0


class TestSpanTimestamps:
    def test_start_ts_is_wall_clock(self):
        tracer = obs.Tracer()
        before = time.time()
        with obs.use_tracer(tracer):
            with obs.span("s"):
                pass
        after = time.time()
        span = tracer.roots[0]
        assert before <= span.start_ts <= after
        assert span.tid == threading.get_ident()

    def test_unrecorded_span_has_zero_timestamp(self):
        # Only recorded spans are exported, so the default tracer stamps
        # neither a wall-clock start nor a thread id.
        with obs.span("s") as sp:
            pass
        assert sp.start_ts == 0.0
        assert sp.tid == 0


class TestThreadSafety:
    def test_concurrent_threads_keep_separate_stacks(self):
        tracer = obs.Tracer()
        barrier = threading.Barrier(3)
        errors = []

        def work(name):
            try:
                with tracer.span(name):
                    barrier.wait(timeout=5)
                    # Both threads have a span open here; nesting must
                    # stay per-thread.
                    with tracer.span(f"{name}.child"):
                        time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(s.name for s in tracer.roots) == ["t0", "t1", "t2"]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [f"{root.name}.child"]
            assert root.tid == root.children[0].tid

    def test_roots_from_worker_threads_join_main_forest(self):
        tracer = obs.Tracer()
        with tracer.span("main_side"):
            pass
        def worker():
            with tracer.span("worker_side"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        names = {s.name for s in tracer.roots}
        assert names == {"main_side", "worker_side"}
        tids = {s.name: s.tid for s in tracer.roots}
        assert tids["main_side"] != tids["worker_side"]


class TestSpanAttributes:
    def test_set_and_kwargs(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("s", mode="auto") as sp:
                sp.set("n_samples", 42)
        span = tracer.roots[0]
        assert span.attrs == {"mode": "auto", "n_samples": 42}

    def test_exception_records_error_and_propagates(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("nope")
        assert tracer.roots[0].attrs["error"] == "ValueError"

    def test_to_dict_tree(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("outer", k="v"):
                with obs.span("inner"):
                    pass
        tree = tracer.roots[0].to_dict()
        assert tree["name"] == "outer"
        assert tree["attrs"] == {"k": "v"}
        assert tree["children"][0]["name"] == "inner"
        assert tree["duration_s"] >= 0.0


class TestDisabledTracer:
    """The default tracer: recording disabled, timing kept."""

    def test_default_tracer_times_spans(self):
        assert isinstance(obs.get_tracer(), obs.TimingTracer)
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                time.sleep(0.01)
        assert inner.duration_s >= 0.01
        assert outer.duration_s >= inner.duration_s
        ended = outer.duration_s
        time.sleep(0.001)
        assert outer.duration_s == ended

    def test_default_tracer_keeps_no_tree(self):
        with obs.span("outer", k=1) as outer:
            with obs.span("inner") as inner:
                inner.set("n", 2)
        assert outer.children == []
        assert outer.span_id == inner.span_id == ""
        assert outer.attrs == {"k": 1} and inner.attrs == {"n": 2}
        tracer = obs.get_tracer()
        assert tracer.roots == ()
        assert list(tracer.iter_spans()) == []
        assert tracer.stage_totals() == {}
        # No instance state at all: there is nowhere to keep a span.
        assert not hasattr(tracer, "__dict__")

    def test_use_tracer_restores_previous(self):
        before = obs.get_tracer()
        with obs.use_tracer(obs.Tracer()) as tracer:
            assert obs.get_tracer() is tracer
        assert obs.get_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            assert obs.get_tracer() is tracer
        finally:
            obs.set_tracer(previous)

    def test_clear(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("s"):
                pass
        tracer.clear()
        assert tracer.roots == []


class TestSpanIds:
    def test_recorded_spans_get_unique_ids(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        ids = [s.span_id for s in tracer.iter_spans()]
        assert all(ids)
        assert len(set(ids)) == 3

    def test_span_id_in_to_dict_only_when_recorded(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("a"):
                pass
        recorded = tracer.roots[0].to_dict()
        assert recorded["span_id"] == tracer.roots[0].span_id
        # An unrecorded Span (never pushed) has no id and omits the key.
        from repro.obs.trace import Span

        assert "span_id" not in Span("loose").to_dict()

    def test_request_id_stamped_from_ambient_context(self):
        from repro.obs import RequestContext, use_request

        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with use_request(RequestContext(request_id="rid-span")):
                with obs.span("inside"):
                    pass
            with obs.span("outside"):
                pass
        inside, outside = tracer.roots
        assert inside.attrs["request_id"] == "rid-span"
        assert "request_id" not in outside.attrs

    def test_explicit_request_id_attr_not_clobbered(self):
        from repro.obs import RequestContext, use_request

        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with use_request(RequestContext(request_id="ambient")):
                with obs.span("s", request_id="explicit"):
                    pass
        assert tracer.roots[0].attrs["request_id"] == "explicit"

    def test_current_span_id_tracks_innermost(self):
        from repro.obs import current_span_id

        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            assert current_span_id() == ""
            with obs.span("outer") as outer:
                assert current_span_id() == outer.span_id
                with obs.span("inner") as inner:
                    assert current_span_id() == inner.span_id
                assert current_span_id() == outer.span_id
        assert current_span_id() == ""


class TestScopedTracer:
    def test_overrides_ambient_for_the_scope(self):
        from repro.obs import use_scoped_tracer

        scoped = obs.Tracer()
        before = obs.get_tracer()
        with use_scoped_tracer(scoped):
            assert obs.get_tracer() is scoped
            with obs.span("captured"):
                pass
        assert obs.get_tracer() is before
        assert [s.name for s in scoped.roots] == ["captured"]

    def test_layers_over_a_recording_global(self):
        from repro.obs import use_scoped_tracer

        global_tracer = obs.Tracer()
        scoped = obs.Tracer()
        with obs.use_tracer(global_tracer):
            with obs.span("global-1"):
                pass
            with use_scoped_tracer(scoped):
                with obs.span("scoped-1"):
                    pass
            with obs.span("global-2"):
                pass
        assert [s.name for s in global_tracer.roots] == [
            "global-1", "global-2",
        ]
        assert [s.name for s in scoped.roots] == ["scoped-1"]

    def test_threads_record_into_their_own_scopes(self):
        # The daemon's per-request isolation: two handler threads with
        # their own scoped tracers never see each other's spans.
        from repro.obs import use_scoped_tracer

        tracers = {"a": obs.Tracer(), "b": obs.Tracer()}
        barrier = threading.Barrier(2)

        def worker(key):
            with use_scoped_tracer(tracers[key]):
                barrier.wait()
                with obs.span(f"work-{key}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(key,)) for key in tracers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [s.name for s in tracers["a"].roots] == ["work-a"]
        assert [s.name for s in tracers["b"].roots] == ["work-b"]
