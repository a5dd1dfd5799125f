"""MetricsRegistry: counters, gauges, histograms, exports."""

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    set_metrics,
    span,
    use_tracer,
    validate_exposition,
)
from repro.obs.metrics import DEFAULT_BUCKETS


class TestCounters:
    def test_inc_and_to_dict(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc()
        reg.counter("requests").inc(2)
        assert reg.to_dict()["requests"] == 3

    def test_labels_are_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("cache", result="hit").inc()
        reg.counter("cache", result="miss").inc(4)
        exported = reg.to_dict()
        assert exported['cache{result="hit"}'] == 1
        assert exported['cache{result="miss"}'] == 4

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)


class TestGauges:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert reg.to_dict()["depth"] == 12


class TestHistograms:
    def test_observe_buckets_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        exported = reg.to_dict()["latency"]
        assert exported["count"] == 4
        assert exported["sum"] == pytest.approx(6.05)
        assert exported["buckets"]["le_0.1"] == 1
        assert exported["buckets"]["le_1"] == 3
        assert exported["buckets"]["le_inf"] == 4


class TestPrometheusExport:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.counter("train_runs").inc(2)
        reg.gauge("workers").set(4)
        reg.histogram("dur", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE train_runs counter" in text
        assert "train_runs 2" in text
        assert "# TYPE workers gauge" in text
        assert "workers 4" in text
        assert 'dur_bucket{le="1"} 1' in text
        assert 'dur_bucket{le="+Inf"} 1' in text
        assert "dur_sum 0.5" in text
        assert "dur_count 1" in text
        assert text.endswith("\n")

    def test_labelled_counter_line(self):
        reg = MetricsRegistry()
        reg.counter("cache", result="hit").inc()
        assert 'cache{result="hit"} 1' in reg.to_prometheus()

    def test_empty_registry(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_values_print_shortest_round_trip(self):
        # ``:g`` would print 1.23457e+06, 12345.7 and 0.3 here.
        reg = MetricsRegistry()
        reg.counter("big_total").inc(1234567)
        reg.histogram("dur_seconds", buckets=(1.0,)).observe(12345.69)
        tiny = reg.histogram("tiny_seconds", buckets=(1.0,))
        tiny.observe(0.1)
        tiny.observe(0.2)
        text = reg.to_prometheus()
        assert "big_total 1234567\n" in text
        assert "dur_seconds_sum 12345.69\n" in text
        assert f"tiny_seconds_sum {tiny.sum!r}\n" in text
        assert validate_exposition(text) == []

    def test_non_finite_values_spelled_per_spec(self):
        reg = MetricsRegistry()
        reg.gauge("up").set(float("inf"))
        reg.gauge("down").set(float("-inf"))
        reg.gauge("unknown").set(float("nan"))
        text = reg.to_prometheus()
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text
        assert "unknown NaN\n" in text
        assert validate_exposition(text) == []


class TestDefaultRegistry:
    def test_get_set_roundtrip(self):
        fresh = MetricsRegistry()
        previous = set_metrics(fresh)
        try:
            assert get_metrics() is fresh
        finally:
            set_metrics(previous)
        assert get_metrics() is previous

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.to_dict() == {}


class TestLabelEscaping:
    """Regression tests for exposition escaping: backslashes, quotes,
    and newlines in label values must be escaped per the Prometheus
    text format, or scrapers reject the whole payload."""

    def test_quote_in_label_value(self):
        reg = MetricsRegistry()
        reg.counter("errs", msg='he said "hi"').inc()
        assert 'errs{msg="he said \\"hi\\""} 1' in reg.to_prometheus()

    def test_backslash_in_label_value(self):
        reg = MetricsRegistry()
        reg.counter("errs", path="C:\\tmp").inc()
        assert 'errs{path="C:\\\\tmp"} 1' in reg.to_prometheus()

    def test_newline_in_label_value(self):
        reg = MetricsRegistry()
        reg.counter("errs", msg="line1\nline2").inc()
        text = reg.to_prometheus()
        assert 'errs{msg="line1\\nline2"} 1' in text
        # The raw newline must not split the sample across lines.
        assert all(
            line.startswith(("#", "errs")) for line in text.splitlines()
        )

    def test_backslash_escaped_before_quote(self):
        # A value ending in a backslash must not swallow the closing
        # quote: \ -> \\ first, then " -> \".
        reg = MetricsRegistry()
        reg.counter("errs", v='trailing\\').inc()
        assert 'errs{v="trailing\\\\"} 1' in reg.to_prometheus()

    def test_hostile_values_validate_cleanly(self):
        reg = MetricsRegistry()
        reg.counter("errs", msg='a"b\\c\nd', result="hit").inc(3)
        assert validate_exposition(reg.to_prometheus()) == []


class TestValidateExposition:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", endpoint="/v1/analyze").inc(7)
        reg.counter("requests_total", endpoint="/healthz").inc()
        reg.gauge("inflight").set(2)
        reg.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.5)
        reg.counter("weird", msg='q"uote\\slash\nnewline').inc()
        return reg

    def test_populated_registry_is_valid(self):
        assert validate_exposition(self._populated().to_prometheus()) == []

    def test_histogram_suffixes_accepted(self):
        text = self._populated().to_prometheus()
        assert "latency_seconds_bucket" in text
        assert "latency_seconds_sum" in text
        assert "latency_seconds_count" in text
        assert validate_exposition(text) == []

    def test_missing_type_header_rejected(self):
        errors = validate_exposition("orphan_metric 1\n")
        assert len(errors) == 1 and "no TYPE header" in errors[0]

    def test_unescaped_quote_rejected(self):
        bad = ('# TYPE errs counter\n'
               'errs{msg="he said "hi""} 1\n')
        assert validate_exposition(bad) != []

    def test_raw_newline_in_value_rejected(self):
        bad = ('# TYPE errs counter\n'
               'errs{msg="line1\nline2"} 1\n')
        assert validate_exposition(bad) != []

    def test_bad_sample_value_rejected(self):
        bad = "# TYPE c counter\nc not-a-number\n"
        errors = validate_exposition(bad)
        assert len(errors) == 1 and "unparseable sample value" in errors[0]

    def test_malformed_type_header_rejected(self):
        assert validate_exposition("# TYPE c flavor\nc 1\n") != []

    def test_duplicate_type_header_rejected(self):
        bad = "# TYPE c counter\n# TYPE c counter\nc 1\n"
        errors = validate_exposition(bad)
        assert any("duplicate TYPE" in e for e in errors)

    def test_inf_and_scientific_values_accepted(self):
        good = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1.5e-3\n"
                "h_count 3\n")
        assert validate_exposition(good) == []

    def test_help_comments_and_blank_lines_skipped(self):
        good = "# HELP c something\n\n# TYPE c counter\nc 1\n"
        assert validate_exposition(good) == []


class TestSpanHistograms:
    """Latency histograms are fed by span ends alone, under the names,
    labels and buckets they have always had."""

    #: span name -> (histogram sample key, buckets).
    EXPECTED = {
        "http_request": ('http_request_seconds{endpoint="/healthz"}',
                         DEFAULT_BUCKETS),
        "analyze": ("analyze_latency_seconds", DEFAULT_BUCKETS),
        "parallel_map": ('parallel_dispatch_latency_seconds{fn="job"}',
                         DEFAULT_BUCKETS),
        "predict_model": ("predict_latency_seconds", LATENCY_BUCKETS),
        "placement_solve": (
            'placement_solve_latency_seconds{method="ilp"}',
            LATENCY_BUCKETS,
        ),
        "kmeans_fit": ("kmeans_fit_latency_seconds", LATENCY_BUCKETS),
    }
    ATTRS = {"endpoint": "/healthz", "fn": "job", "method": "ilp"}

    @pytest.fixture
    def reg(self):
        fresh = MetricsRegistry()
        previous = set_metrics(fresh)
        yield fresh
        set_metrics(previous)

    @pytest.mark.parametrize("recording", [False, True],
                             ids=["default", "recording"])
    def test_each_span_observes_its_duration(self, reg, recording):
        for name, (key, buckets) in self.EXPECTED.items():
            with use_tracer(Tracer() if recording else get_tracer()):
                with span(name, **self.ATTRS) as sp:
                    pass
            sample = reg.to_dict()[key]
            assert sample["count"] == 1
            assert sample["sum"] == sp.duration_s
            assert list(sample["buckets"]) == (
                [f"le_{bound:g}" for bound in buckets] + ["le_inf"]
            )

    def test_failed_span_is_still_a_sample(self, reg):
        with pytest.raises(ValueError):
            with span("kmeans_fit") as sp:
                raise ValueError("no fit")
        assert reg.to_dict()["kmeans_fit_latency_seconds"]["sum"] == \
            sp.duration_s

    def test_other_spans_touch_no_metric(self, reg):
        with span("prepare"):
            pass
        assert reg.to_dict() == {}
