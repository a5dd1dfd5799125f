"""Wire schemas: strict request parsing, round-trips, and the one
response envelope both transports share."""

import json

import pytest

from repro.errors import ClaraError, InvalidWorkloadError, UnknownElementError
from repro.serve.schemas import (
    REQUEST_KINDS,
    WIRE_SCHEMA,
    WORKLOAD_CEILINGS,
    AnalyzeRequest,
    ColocationRequest,
    LintRequest,
    dump_envelope,
    envelope,
    error_envelope,
    request_from_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.workload.spec import WorkloadSpec


class TestWorkloadWire:
    def test_round_trip(self):
        spec = WorkloadSpec(name="w", n_flows=64, packet_bytes=128,
                            zipf_alpha=1.2, udp_fraction=1.0, n_packets=50)
        assert workload_from_dict(workload_to_dict(spec)) == spec

    def test_empty_dict_is_default_spec(self):
        assert workload_from_dict({}) == WorkloadSpec()

    def test_unknown_field_rejected_with_known_list(self):
        with pytest.raises(InvalidWorkloadError, match="n_flowz"):
            workload_from_dict({"n_flowz": 10})

    def test_non_object_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="JSON object"):
            workload_from_dict([1, 2])

    def test_spec_validation_still_applies(self):
        with pytest.raises(InvalidWorkloadError):
            workload_from_dict({"n_flows": 0})


#: every malformed value a wire field can carry, with the field.
BAD_WORKLOAD_FIELDS = [
    ("n_packets", "5"),
    ("n_packets", 2.5),
    ("n_packets", True),
    ("n_packets", None),
    ("n_packets", 100_001),
    ("n_flows", 10**12),
    ("n_flows", 1_000_001),
    ("n_flows", "10"),
    ("payload_bytes", 9_001),
    ("payload_bytes", 64.0),
    ("packet_bytes", False),
    ("zipf_alpha", "1.1"),
    ("zipf_alpha", True),
    ("zipf_alpha", None),
    ("zipf_alpha", float("nan")),
    ("syn_fraction", float("inf")),
    ("udp_fraction", 10**400),
    ("udp_fraction", [0.5]),
    ("name", 7),
    ("name", None),
]

BAD_TRACE_SEEDS = ["abc", None, -1, True, 2.5, "7", [1]]


class TestWireTypesAndCeilings:
    @pytest.mark.parametrize("field,value", BAD_WORKLOAD_FIELDS)
    def test_bad_workload_field_is_typed(self, field, value):
        with pytest.raises(InvalidWorkloadError, match=field):
            workload_from_dict({field: value})

    def test_ceilings_are_inclusive(self):
        spec = workload_from_dict(
            {name: ceiling for name, ceiling in WORKLOAD_CEILINGS.items()}
        )
        assert (spec.n_packets, spec.n_flows, spec.payload_bytes) == (
            100_000, 1_000_000, 9_000
        )

    def test_largest_benchmark_request_is_admitted(self):
        # The heaviest analyze request the serving benchmark sends.
        spec = workload_from_dict({
            "name": "small_flows", "n_flows": 200_000, "packet_bytes": 256,
            "zipf_alpha": 0.6, "syn_fraction": 0.3, "udp_fraction": 0.0,
            "payload_bytes": 128, "n_packets": 2000,
        })
        assert spec.n_packets == 2000

    def test_integer_fractions_are_numbers(self):
        spec = workload_from_dict({"zipf_alpha": 1, "udp_fraction": 1})
        assert spec.zipf_alpha == 1 and spec.udp_fraction == 1

    @pytest.mark.parametrize("seed", BAD_TRACE_SEEDS)
    def test_bad_trace_seed_is_typed(self, seed):
        for cls, body in (
            (AnalyzeRequest, {"element": "aggcounter"}),
            (ColocationRequest, {"elements": ["aggcounter", "udpcount"]}),
        ):
            with pytest.raises(ClaraError, match="trace_seed") as info:
                cls.from_dict(dict(body, trace_seed=seed))
            assert info.value.http_status == 400

    def test_large_trace_seed_is_admitted(self):
        req = AnalyzeRequest.from_dict(
            {"element": "aggcounter", "trace_seed": 2**40}
        )
        assert req.trace_seed == 2**40

    def test_colocation_workload_is_checked_too(self):
        with pytest.raises(InvalidWorkloadError, match="n_packets"):
            ColocationRequest.from_dict({
                "elements": ["aggcounter", "udpcount"],
                "workload": {"n_packets": 10**6},
            })


class TestAnalyzeRequest:
    def test_round_trip(self):
        req = AnalyzeRequest(
            element="aggcounter",
            workload=WorkloadSpec(name="w", n_packets=40),
            trace_seed=7,
        )
        wire = req.to_dict()
        assert wire["schema"] == WIRE_SCHEMA
        assert wire["kind"] == "analyze_request"
        assert AnalyzeRequest.from_dict(wire) == req
        assert AnalyzeRequest.from_dict(json.loads(json.dumps(wire))) == req

    def test_header_is_optional(self):
        req = AnalyzeRequest.from_dict({"element": "aggcounter"})
        assert req.element == "aggcounter"
        assert req.workload == WorkloadSpec()
        assert req.trace_seed == 0

    def test_missing_element_rejected(self):
        with pytest.raises(ClaraError, match="element"):
            AnalyzeRequest.from_dict({})

    def test_unknown_field_rejected(self):
        with pytest.raises(ClaraError, match="wlrkload"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "wlrkload": {}}
            )

    def test_future_schema_rejected(self):
        with pytest.raises(ClaraError, match="wire schema"):
            AnalyzeRequest.from_dict(
                {"schema": WIRE_SCHEMA + 1, "element": "aggcounter"}
            )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ClaraError, match="expected kind"):
            AnalyzeRequest.from_dict(
                {"kind": "lint_request", "element": "aggcounter"}
            )

    def test_target_round_trips(self):
        req = AnalyzeRequest(element="aggcounter", target="dpu-offpath")
        wire = req.to_dict()
        assert wire["target"] == "dpu-offpath"
        assert AnalyzeRequest.from_dict(wire) == req

    def test_target_defaults_to_none(self):
        assert AnalyzeRequest.from_dict(
            {"element": "aggcounter"}
        ).target is None

    def test_unknown_target_rejected_at_parse_time(self):
        from repro.errors import UnknownTargetError

        with pytest.raises(UnknownTargetError, match="no-such-nic"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "target": "no-such-nic"}
            )

    def test_non_string_target_rejected(self):
        with pytest.raises(ClaraError, match="must be a string"):
            AnalyzeRequest.from_dict(
                {"element": "aggcounter", "target": 7}
            )


class TestLintRequest:
    def test_round_trip(self):
        req = LintRequest(elements=("aggcounter",), only=("CL007",),
                          disable=None)
        assert LintRequest.from_dict(req.to_dict()) == req

    def test_defaults_mean_whole_corpus(self):
        req = LintRequest.from_dict({})
        assert req.elements is None and req.only is None \
            and req.disable is None

    def test_non_string_lists_rejected(self):
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"elements": "aggcounter"})
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"only": [7]})

    def test_target_round_trips(self):
        req = LintRequest(elements=("aggcounter",), target="dpu-offpath")
        assert LintRequest.from_dict(req.to_dict()) == req

    def test_unknown_target_rejected(self):
        from repro.errors import UnknownTargetError

        with pytest.raises(UnknownTargetError):
            LintRequest.from_dict({"target": "no-such-nic"})

    def test_baseline_fingerprints_round_trip(self):
        req = LintRequest(
            elements=("aggcounter",),
            baseline=("a" * 16, "b" * 16),
        )
        wire = req.to_dict()
        assert wire["baseline"] == ["a" * 16, "b" * 16]
        assert LintRequest.from_dict(wire) == req
        assert LintRequest.from_dict({}).baseline is None

    def test_non_string_baseline_rejected(self):
        with pytest.raises(ClaraError, match="list of strings"):
            LintRequest.from_dict({"baseline": [12345]})


class TestLintRunPayload:
    def _report(self):
        from repro.nfir import Function, I32, IRBuilder, Module
        from repro.nfir.analysis import lint_module

        module = Module("fixture")
        f = Function("pkt_handler")
        b = IRBuilder(f, f.add_block("entry"))
        b.binop("sdiv", b.const(I32, 8), b.const(I32, 3))
        b.ret()
        module.add_function(f)
        return lint_module(module, only=["CL001"])

    def test_counters_present_and_deterministic(self):
        from repro.serve.schemas import lint_run_payload

        report = self._report()
        payload = lint_run_payload([report], target="nfp-4000")
        assert payload["n_errors"] == 0
        assert payload["n_warnings"] == 1
        assert payload["n_suppressed"] == 0
        assert payload["n_baselined"] == 0
        # Run-varying cache counters must never leak into the payload:
        # the CLI and the server promise byte-identical envelopes.
        assert "cache" not in payload

    def test_stats_feed_the_baselined_counter(self):
        from repro.serve.schemas import lint_run_payload

        payload = lint_run_payload(
            [self._report()],
            target="nfp-4000",
            stats={"cache": "on", "hits": 3, "n_baselined": 2},
        )
        assert payload["n_baselined"] == 2
        assert "cache" not in payload


class TestColocationRequest:
    def test_round_trip(self):
        req = ColocationRequest(
            elements=("aggcounter", "udpcount"),
            workload=WorkloadSpec(name="w", n_packets=40),
        )
        assert ColocationRequest.from_dict(req.to_dict()) == req

    def test_fewer_than_two_elements_rejected(self):
        with pytest.raises(ClaraError, match="at least two"):
            ColocationRequest(elements=("solo",))
        with pytest.raises(ClaraError, match="at least two"):
            ColocationRequest.from_dict({"elements": ["solo"]})

    def test_missing_elements_rejected(self):
        with pytest.raises(ClaraError, match="elements"):
            ColocationRequest.from_dict({})


class TestDispatch:
    def test_kind_routes_to_the_right_class(self):
        req = request_from_dict(
            {"kind": "analyze_request", "element": "aggcounter"}
        )
        assert isinstance(req, AnalyzeRequest)
        req = request_from_dict({"kind": "lint_request"})
        assert isinstance(req, LintRequest)

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(ClaraError, match="analyze_request"):
            request_from_dict({"kind": "mystery"})

    def test_request_kinds_cover_all_classes(self):
        assert sorted(REQUEST_KINDS) == [
            "analyze_request", "colocation_request", "lint_request",
        ]


class TestEnvelope:
    def test_success_shape(self):
        env = envelope("analysis_result", {"x": 1})
        assert env == {
            "schema": WIRE_SCHEMA,
            "kind": "analysis_result",
            "request_id": None,
            "result": {"x": 1},
            "error": None,
        }

    def test_request_id_stamped_from_ambient_context(self):
        from repro.obs import RequestContext, use_request

        with use_request(RequestContext(request_id="abc123")):
            env = envelope("health", {"ready": True})
        assert env["request_id"] == "abc123"
        assert envelope("health", {"ready": True})["request_id"] is None

    def test_error_shape_carries_typed_facts(self):
        env = error_envelope(UnknownElementError("unknown element 'nope'"))
        assert env["result"] is None
        assert env["error"] == {
            "type": "UnknownElementError",
            "message": "unknown element 'nope'",
            "exit_code": UnknownElementError.exit_code,
            "http_status": 404,
        }

    def test_dump_is_parseable_and_stable(self):
        env = envelope("health", {"ready": True})
        text = dump_envelope(env)
        assert json.loads(text) == env
        assert text == dump_envelope(env)
        assert not text.endswith("\n")
