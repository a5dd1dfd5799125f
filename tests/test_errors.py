"""The typed exception hierarchy and where the library raises it."""

import pytest

from repro.errors import (
    EXIT_CODES,
    ArtifactCacheMiss,
    ArtifactError,
    ClaraError,
    InvalidWorkloadError,
    NotTrainedError,
    RequestTimeoutError,
    RequestTooLargeError,
    UnknownElementError,
)


class TestHierarchy:
    def test_all_derive_from_clara_error(self):
        for cls in (UnknownElementError, InvalidWorkloadError,
                    NotTrainedError, ArtifactError, ArtifactCacheMiss,
                    RequestTooLargeError, RequestTimeoutError):
            assert issubclass(cls, ClaraError)

    def test_builtin_compatibility(self):
        """Pre-hierarchy callers caught builtins; that must keep working."""
        assert issubclass(UnknownElementError, KeyError)
        assert issubclass(InvalidWorkloadError, ValueError)
        assert issubclass(NotTrainedError, RuntimeError)
        assert issubclass(ArtifactError, RuntimeError)
        assert issubclass(ArtifactCacheMiss, ArtifactError)

    def test_exit_codes_distinct_and_nonzero(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)

    def test_str_is_clean_even_for_keyerror_subclass(self):
        # KeyError.__str__ would repr() the message; ours must not.
        err = UnknownElementError("unknown element 'x'")
        assert str(err) == "unknown element 'x'"

    def test_core_reexports(self):
        import repro.core as core

        assert core.ClaraError is ClaraError
        assert core.NotTrainedError is NotTrainedError
        assert core.ArtifactError is ArtifactError


class TestRaisedByLibrary:
    def test_unknown_element(self):
        from repro.click.elements import build_element

        with pytest.raises(UnknownElementError, match="unknown element"):
            build_element("not_an_element")

    def test_invalid_workload(self):
        from repro.workload.spec import WorkloadSpec

        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(n_flows=0)
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(udp_fraction=1.5)
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(packet_bytes=10)
        with pytest.raises(InvalidWorkloadError):
            WorkloadSpec(n_packets=0)

    def test_analyze_before_train(self):
        from repro.core import Clara
        from repro.workload.spec import WorkloadSpec

        with pytest.raises(NotTrainedError, match="train"):
            Clara(seed=0).analyze("aggcounter", WorkloadSpec(name="t"))

    def test_rank_colocations_before_training(self):
        from repro.core import Clara

        with pytest.raises(NotTrainedError, match="train_colocation"):
            Clara(seed=0).rank_colocations([])

    def test_unfitted_predictor(self):
        from repro.core.predictor import InstructionPredictor

        with pytest.raises(NotTrainedError):
            InstructionPredictor().predict_direct([["i32.add"]])

    def test_unfitted_scaleout(self):
        from repro.core.scaleout import ScaleoutAdvisor

        with pytest.raises(NotTrainedError):
            ScaleoutAdvisor().fit()

    def test_corrupt_artifact(self, tmp_path):
        from repro.core.artifacts import load_state

        path = tmp_path / "bad.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ArtifactError):
            load_state(path)

    def test_cache_require_miss(self, tmp_path):
        from repro.core import Clara, TrainConfig

        with pytest.raises(ArtifactCacheMiss):
            Clara(seed=0).train(
                TrainConfig.quick(), cache="require", cache_dir=tmp_path
            )


class TestAnalyzeAcceptsNameOrElement:
    def test_string_resolves_like_elementdef(self, clara_artifacts):
        from repro.core import Clara
        from repro.click.elements import build_element
        from repro.workload.spec import WorkloadSpec

        clara = Clara.load(clara_artifacts["artifact"])
        spec = WorkloadSpec(name="t", n_flows=64, n_packets=60)
        by_name = clara.analyze("aggcounter", spec)
        by_def = clara.analyze(build_element("aggcounter"), spec)
        assert by_name.report.to_dict() == by_def.report.to_dict()

    def test_unknown_name_raises(self, clara_artifacts):
        from repro.core import Clara
        from repro.workload.spec import WorkloadSpec

        clara = Clara.load(clara_artifacts["artifact"])
        with pytest.raises(UnknownElementError):
            clara.analyze("nope", WorkloadSpec(name="t"))


class TestHttpStatusMapping:
    """Every ClaraError maps to a meaningful HTTP status for the serve
    transport; anything else is an opaque 500."""

    def test_every_error_has_a_status(self):
        from repro.errors import HTTP_STATUSES, http_status_for

        assert HTTP_STATUSES["UnknownElementError"] == 404
        assert HTTP_STATUSES["InvalidWorkloadError"] == 400
        assert HTTP_STATUSES["NotTrainedError"] == 503
        assert HTTP_STATUSES["ArtifactError"] == 500
        assert HTTP_STATUSES["ArtifactCacheMiss"] == 503
        assert HTTP_STATUSES["RequestTooLargeError"] == 413
        assert HTTP_STATUSES["RequestTimeoutError"] == 408
        for cls in (UnknownElementError, InvalidWorkloadError,
                    NotTrainedError, ArtifactError, ArtifactCacheMiss,
                    RequestTooLargeError, RequestTimeoutError):
            assert http_status_for(cls("x")) == HTTP_STATUSES[cls.__name__]

    def test_base_clara_error_is_client_fault(self):
        from repro.errors import http_status_for

        assert http_status_for(ClaraError("bad request")) == 400

    def test_non_clara_errors_are_opaque_500(self):
        from repro.errors import http_status_for

        assert http_status_for(ValueError("boom")) == 500
        assert http_status_for(KeyError("boom")) == 500
