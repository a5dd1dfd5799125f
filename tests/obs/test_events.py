"""EventJournal: the bounded ring buffer of typed serving events."""

import json
import threading

import pytest

from repro.obs import RequestContext, use_request
from repro.obs.events import (
    EVENT_SCHEMA,
    EventJournal,
    emit,
    get_journal,
    set_journal,
)


class TestEmit:
    def test_sequence_numbers_are_monotonic(self):
        journal = EventJournal()
        events = [journal.emit("request_start") for _ in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_unknown_kind_rejected_with_known_list(self):
        journal = EventJournal()
        with pytest.raises(ValueError, match="request_start"):
            journal.emit("made_up_kind")

    def test_data_kwargs_ride_along(self):
        journal = EventJournal()
        event = journal.emit("target_train", target="dpu-offpath",
                             duration_s=0.01)
        assert event.data == {"target": "dpu-offpath", "duration_s": 0.01}

    def test_ambient_request_id_adopted(self):
        journal = EventJournal()
        with use_request(RequestContext(request_id="rid-1")):
            inside = journal.emit("cache_hit", n_keys=2)
        outside = journal.emit("cache_miss", n_keys=1)
        assert inside.request_id == "rid-1"
        assert outside.request_id is None

    def test_explicit_request_id_wins_over_ambient(self):
        journal = EventJournal()
        with use_request(RequestContext(request_id="ambient")):
            event = journal.emit("request_finish", request_id="explicit")
        assert event.request_id == "explicit"

    def test_to_dict_shape(self):
        journal = EventJournal()
        event = journal.emit("target_train", target="nfp-4000")
        d = event.to_dict()
        assert d["schema"] == EVENT_SCHEMA
        assert d["kind"] == "target_train"
        assert d["seq"] == 0
        assert d["request_id"] is None
        assert d["data"] == {"target": "nfp-4000"}
        assert isinstance(d["ts"], float)


class TestRingBuffer:
    def test_capacity_bounds_retention(self):
        journal = EventJournal(capacity=3)
        for _ in range(10):
            journal.emit("request_start")
        assert len(journal) == 3
        assert journal.n_emitted == 10
        assert journal.n_dropped == 7
        # The survivors are the newest three.
        assert [e.seq for e in journal.snapshot()] == [7, 8, 9]

    def test_sequence_survives_clear(self):
        journal = EventJournal()
        journal.emit("request_start")
        journal.clear()
        assert len(journal) == 0
        assert journal.emit("request_start").seq == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)


class TestSnapshot:
    def _journal(self):
        journal = EventJournal()
        journal.emit("request_start", request_id="a")
        journal.emit("cache_hit", request_id="a", n_keys=1)
        journal.emit("request_start", request_id="b")
        journal.emit("request_finish", request_id="a", status=200)
        return journal

    def test_filter_by_kind(self):
        starts = self._journal().snapshot(kind="request_start")
        assert [e.request_id for e in starts] == ["a", "b"]

    def test_filter_by_request_id(self):
        mine = self._journal().snapshot(request_id="a")
        assert [e.kind for e in mine] == [
            "request_start", "cache_hit", "request_finish",
        ]

    def test_since_seq_is_exclusive(self):
        events = self._journal().snapshot(since_seq=1)
        assert [e.seq for e in events] == [2, 3]

    def test_limit_keeps_newest(self):
        events = self._journal().snapshot(limit=2)
        assert [e.seq for e in events] == [2, 3]

    def test_limit_zero_returns_nothing(self):
        # events[-0:] is the whole list; limit=0 must mean "none".
        assert self._journal().snapshot(limit=0) == []

    def test_filters_compose(self):
        events = self._journal().snapshot(request_id="a", limit=1)
        assert [e.kind for e in events] == ["request_finish"]


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        journal = EventJournal()
        journal.emit("request_start", request_id="x", endpoint="/healthz")
        journal.emit("request_finish", request_id="x", status=200)
        path = tmp_path / "events.jsonl"
        assert journal.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == journal.to_dicts()

    def test_filters_apply_to_export(self, tmp_path):
        journal = EventJournal()
        journal.emit("request_start")
        journal.emit("cache_hit", n_keys=1)
        path = tmp_path / "hits.jsonl"
        assert journal.write_jsonl(str(path), kind="cache_hit") == 1
        assert json.loads(path.read_text())["kind"] == "cache_hit"


class TestDefaultJournal:
    def test_get_set_roundtrip(self):
        fresh = EventJournal()
        previous = set_journal(fresh)
        try:
            assert get_journal() is fresh
            emit("request_start")
            assert fresh.n_emitted == 1
        finally:
            set_journal(previous)
        assert get_journal() is previous


class TestThreadSafety:
    def test_concurrent_emitters_never_lose_or_misnumber(self):
        journal = EventJournal(capacity=10_000)
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                journal.emit("request_start")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = journal.snapshot()
        assert journal.n_emitted == n_threads * per_thread
        assert [e.seq for e in events] == list(range(len(events)))
