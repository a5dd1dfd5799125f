"""Chrome trace-event export: valid JSON, monotonic timestamps,
balanced B/E nesting, attrs preserved."""

import json
import threading
import time

from repro.obs import Tracer, to_chrome_trace, use_tracer, write_chrome_trace
from repro.obs.trace import span


def record_nested_tracer():
    """A tracer with a small span forest: two roots, one nested."""
    tracer = Tracer()
    with use_tracer(tracer):
        with span("outer", nf="aggcounter"):
            with span("inner", k=3):
                time.sleep(0.001)
            with span("inner2"):
                pass
        with span("second_root"):
            pass
    return tracer


class TestChromeTraceExport:
    def test_roundtrips_as_valid_json(self, tmp_path):
        tracer = record_nested_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["format"] == "chrome-trace-event"

    def test_events_are_monotonic_and_balanced(self):
        events = to_chrome_trace(record_nested_tracer())["traceEvents"]
        # 4 spans -> 4 B + 4 E events.
        assert len(events) == 8
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)
        # Replay the stream per tid: every E must close the most
        # recently opened B of the same name (strict nesting), and the
        # stream must end with an empty stack.
        stacks = {}
        for event in events:
            assert event["ph"] in ("B", "E")
            stack = stacks.setdefault(event["tid"], [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack and stack[-1] == event["name"]
                stack.pop()
        assert all(not stack for stack in stacks.values())

    def test_span_names_and_attrs_preserved(self):
        events = to_chrome_trace(record_nested_tracer())["traceEvents"]
        begins = {e["name"]: e for e in events if e["ph"] == "B"}
        assert set(begins) == {"outer", "inner", "inner2", "second_root"}
        assert begins["outer"]["args"] == {"nf": "aggcounter"}
        assert begins["inner"]["args"] == {"k": 3}
        assert "args" not in begins["inner2"]
        assert all(e["cat"] == "clara" for e in events)

    def test_children_clamped_inside_parent(self):
        events = to_chrome_trace(record_nested_tracer())["traceEvents"]
        outer_b = next(e for e in events
                       if e["ph"] == "B" and e["name"] == "outer")
        outer_e = next(e for e in events
                       if e["ph"] == "E" and e["name"] == "outer")
        for name in ("inner", "inner2"):
            child_b = next(e for e in events
                           if e["ph"] == "B" and e["name"] == name)
            child_e = next(e for e in events
                           if e["ph"] == "E" and e["name"] == name)
            assert outer_b["ts"] <= child_b["ts"] <= child_e["ts"]
            assert child_e["ts"] <= outer_e["ts"]

    def test_timestamps_are_absolute_epoch_microseconds(self):
        before_us = time.time() * 1e6
        events = to_chrome_trace(record_nested_tracer())["traceEvents"]
        after_us = time.time() * 1e6
        for event in events:
            assert before_us - 1e6 <= event["ts"] <= after_us + 1e6

    def test_nonserializable_attrs_become_strings(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("s", obj=object(), seq=(1, 2)):
                pass
        (begin, _end) = to_chrome_trace(tracer)["traceEvents"]
        assert isinstance(begin["args"]["obj"], str)
        assert begin["args"]["seq"] == [1, 2]

    def test_empty_tracer_exports_empty_list(self):
        payload = to_chrome_trace(Tracer())
        assert payload["traceEvents"] == []


class TestMultiThreadedExport:
    def test_threads_get_distinct_tids(self):
        tracer = Tracer()
        # Both workers are alive inside their spans at once, so the
        # interpreter cannot hand the second the first one's ident.
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait(timeout=5)

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        with tracer.span("main_span"):
            pass
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        events = to_chrome_trace(tracer)["traceEvents"]
        names = {e["name"] for e in events}
        assert names == {"main_span", "t0", "t1"}
        tids = {e["name"]: e["tid"] for e in events if e["ph"] == "B"}
        # Worker spans carry their own thread ids, distinct from main.
        assert tids["t0"] != tids["main_span"]
        assert tids["t1"] != tids["main_span"]
        assert tids["t0"] != tids["t1"]
