"""CLI smoke tests (direct invocation, no subprocess)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.serve.schemas import WIRE_SCHEMA
from repro.errors import (
    ArtifactCacheMiss,
    ArtifactError,
    InvalidWorkloadError,
    LINT_EXIT_ERROR,
    LINT_EXIT_WARNING,
    UnknownElementError,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "udpcount", "--flows", "5000", "--udp"]
        )
        assert args.command == "analyze"
        assert args.element == "udpcount"
        assert args.flows == 5000
        assert args.udp
        assert args.load is None
        assert args.cache == "auto"
        assert args.workers == 1

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", "--quick", "--workers", "4", "--save", "clara.pkl"]
        )
        assert args.command == "train"
        assert args.quick
        assert args.workers == 4
        assert args.save == "clara.pkl"
        assert args.cache == "auto"

    def test_sweep_load_flag(self):
        args = build_parser().parse_args(
            ["sweep", "aggcounter", "--load", "clara.pkl"]
        )
        assert args.load == "clara.pkl"

    def test_bad_cache_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--cache", "sometimes"])

    def test_obs_flags_on_every_command(self):
        for command in ("inventory", "train", "explain"):
            args = build_parser().parse_args(
                [command, "--profile", "--json-report", "rr.json", "-vv"]
            )
            assert args.profile
            assert args.json_report == "rr.json"
            assert args.verbose == 2
            assert not args.quiet

    def test_json_flags(self):
        assert build_parser().parse_args(["analyze", "udpcount", "--json"]).json
        assert build_parser().parse_args(["sweep", "udpcount", "--json"]).json


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "mazunat" in out
        assert "ratelimiter" in out

    def test_render(self, capsys):
        assert main(["render", "mininat"]) == 0
        out = capsys.readouterr().out
        assert "class mininat : public Element" in out
        assert "simple_action" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "aggcounter", "--packets", "60"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out
        assert "tput(Mpps)" in out

    def test_train_save_then_analyze_load(self, clara_artifacts, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CLARA_CACHE",
                           str(clara_artifacts["cache_dir"]))
        assert main(["analyze", "aggcounter", "--packets", "60",
                     "--load", str(clara_artifacts["artifact"])]) == 0
        out = capsys.readouterr().out
        assert "Suggested port configuration" in out


class TestExitCodes:
    """Each ClaraError subclass maps to its own exit status, with a
    one-line ``error:`` message instead of a traceback."""

    def test_unknown_element(self, capsys):
        assert main(["render", "not_an_element"]) == \
            UnknownElementError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: unknown element")

    def test_invalid_workload(self, capsys):
        # validation happens before any training starts
        assert main(["analyze", "aggcounter", "--flows", "0"]) == \
            InvalidWorkloadError.exit_code
        assert "n_flows" in capsys.readouterr().err

    def test_artifact_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.pkl")
        assert main(["analyze", "aggcounter", "--load", missing]) == \
            ArtifactError.exit_code
        assert "no artifact at" in capsys.readouterr().err

    def test_cache_require_miss(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLARA_CACHE", str(tmp_path / "empty"))
        assert main(["train", "--quick", "--cache", "require"]) == \
            ArtifactCacheMiss.exit_code
        assert "no cached Clara artifact" in capsys.readouterr().err


class TestJsonOutputs:
    def test_analyze_json_schema(self, clara_artifacts, capsys):
        assert main(["analyze", "aggcounter", "--packets", "60", "--json",
                     "--load", str(clara_artifacts["artifact"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["kind"] == "analysis_result"
        assert payload["error"] is None
        result = payload["result"]
        report = result["report"]
        assert report["schema"] == 2
        assert report["nf_name"] == "aggcounter"
        # schema 2 carries the offload-lint diagnostics
        assert isinstance(report["diagnostics"], list)
        assert all(d["rule"].startswith("CL") for d in report["diagnostics"])
        types = {entry["type"] for entry in report["insights"]}
        assert {"compute", "memory", "scaleout", "placement"} <= types
        assert result["port_config"]["cores"] >= 1
        assert result["profile"]["packets"] == 60

    def test_sweep_json_schema(self, capsys):
        assert main(["sweep", "aggcounter", "--packets", "60",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["kind"] == "core_sweep"
        result = payload["result"]
        assert result["knee"] in [p["cores"] for p in result["points"]]
        assert all(p["throughput_mpps"] > 0 for p in result["points"])

    def test_insight_report_json_roundtrip(self, clara_artifacts):
        from repro.core import Clara, InsightReport
        from repro.workload.spec import WorkloadSpec

        clara = Clara.load(clara_artifacts["artifact"])
        analysis = clara.analyze(
            "udpcount", WorkloadSpec(name="t", n_flows=64, n_packets=60)
        )
        restored = InsightReport.from_json(analysis.report.to_json())
        assert restored.to_dict() == analysis.report.to_dict()


class TestLintCommand:
    """``clara lint``: human/JSON/SARIF output and the 0/8/9 exit
    protocol (clean / warnings / error-severity findings)."""

    def test_warnings_exit_code(self, capsys):
        # aggcounter's counter updates are CL007 race candidates.
        assert main(["lint", "aggcounter"]) == LINT_EXIT_WARNING
        out = capsys.readouterr().out
        assert "warning[CL007]" in out
        assert "lint: module aggcounter" in out

    def test_clean_element_exits_zero(self, capsys):
        assert main(["lint", "mininat"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_whole_corpus_has_no_errors(self, capsys):
        code = main(["lint"])
        assert code in (0, LINT_EXIT_WARNING)
        assert code != LINT_EXIT_ERROR
        capsys.readouterr()

    def test_unknown_target_exits_typed(self, capsys):
        from repro.errors import UnknownTargetError

        assert main(["lint", "--target", "no-such-nic"]) == \
            UnknownTargetError.exit_code
        assert "no-such-nic" in capsys.readouterr().err

    def test_dpu_target_changes_capacity_verdicts(self, capsys):
        # loadbalancer's 88KB conn_table fits the NFP's 4MB IMEM but
        # no SRAM region on the scratch-starved DPU (CL008 warning).
        assert main(["lint", "loadbalancer", "--only", "CL008"]) == 0
        capsys.readouterr()
        assert main(["lint", "loadbalancer", "--only", "CL008",
                     "--target", "dpu-offpath"]) == LINT_EXIT_WARNING
        assert "CL008" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main(["lint", "aggcounter", "--json"])
        assert code == LINT_EXIT_WARNING
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["kind"] == "lint_run"
        (report,) = payload["result"]["reports"]
        assert report["module"] == "aggcounter"
        assert report["counts"]["error"] == 0
        assert report["counts"]["warning"] > 0

    def test_sarif_output(self, capsys):
        assert main(["lint", "aggcounter", "--sarif"]) == LINT_EXIT_WARNING
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "clara-lint"
        assert any(r["ruleId"] == "CL007" for r in run["results"])

    def test_rule_selection(self, capsys):
        # Disabling the only firing rule turns warnings into clean.
        assert main(["lint", "aggcounter", "--disable", "CL007"]) == 0
        capsys.readouterr()
        assert main(["lint", "aggcounter", "--only",
                     "race-candidate"]) == LINT_EXIT_WARNING
        capsys.readouterr()

    def test_unknown_rule_is_clara_error(self, capsys):
        from repro.errors import ClaraError

        assert main(["lint", "--only", "CL999"]) == ClaraError.exit_code
        assert "no lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("CL001", "CL008"):
            assert code in out


class TestObservabilityFlags:
    def test_analyze_profile_prints_stage_table(self, clara_artifacts,
                                                capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLARA_CACHE",
                           str(clara_artifacts["cache_dir"]))
        assert main(["analyze", "aggcounter", "--packets", "60",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Run profile: analyze" in out
        for stage in ("prepare", "profile_on_host", "predict",
                      "placement", "coalescing", "artifact_cache.load"):
            assert stage in out

    def test_analyze_json_report_file(self, clara_artifacts, tmp_path,
                                      capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLARA_CACHE",
                           str(clara_artifacts["cache_dir"]))
        path = tmp_path / "rr.json"
        assert main(["analyze", "aggcounter", "--packets", "60",
                     "--json-report", str(path)]) == 0
        capsys.readouterr()
        from repro.obs import RunReport

        report = RunReport.from_json(path.read_text())
        assert report.command == "analyze"
        assert report.status == "ok"
        assert report.attributes["exit_code"] == 0
        # artifact-cache activity and every advisor stage are visible
        assert "artifact_cache.load" in report.stages
        for stage in ("prepare", "profile_on_host", "predict", "identify",
                      "scaleout", "placement", "coalescing"):
            assert stage in report.stages, stage
        cache_hits = [
            name for name in report.metrics
            if name.startswith("artifact_cache_requests")
        ]
        assert cache_hits

    def test_failed_run_report_records_status(self, tmp_path, capsys):
        path = tmp_path / "rr.json"
        code = main(["render", "not_an_element", "--json-report", str(path)])
        assert code == UnknownElementError.exit_code
        capsys.readouterr()
        from repro.obs import RunReport

        report = RunReport.from_json(path.read_text())
        assert report.status == "UnknownElementError"
        assert report.attributes["exit_code"] == UnknownElementError.exit_code


class TestTelemetryFlags:
    """``--trace-out`` / ``--metrics`` are available on every
    subcommand (exercised here on the cheap ``lint``)."""

    def test_flags_parse_on_every_command(self):
        for command in ("inventory", "train", "analyze", "lint", "bench"):
            argv = [command, "--trace-out", "t.json", "--metrics", "m.prom"]
            if command == "analyze":
                argv.insert(1, "aggcounter")
            args = build_parser().parse_args(argv)
            assert args.trace_out == "t.json"
            assert args.metrics == "m.prom"

    def test_lint_trace_out_is_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(["lint", "mininat", "--trace-out", str(path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert events, "lint run produced no spans"
        assert {e["ph"] for e in events} == {"B", "E"}
        names = {e["name"] for e in events}
        assert "cli.lint" in names
        assert "lint_corpus" in names

    def test_analyze_metrics_has_latency_histograms_without_profile(
        self, clara_artifacts, tmp_path, capsys, monkeypatch,
    ):
        # No --profile: only the default, non-recording tracer is
        # ambient, and its spans must still feed the histograms.
        from repro.obs import MetricsRegistry, set_metrics, validate_exposition

        monkeypatch.setenv("REPRO_CLARA_CACHE",
                           str(clara_artifacts["cache_dir"]))
        path = tmp_path / "metrics.prom"
        previous = set_metrics(MetricsRegistry())
        try:
            assert main(["analyze", "aggcounter", "--packets", "60",
                         "--metrics", str(path)]) == 0
        finally:
            set_metrics(previous)
        capsys.readouterr()
        text = path.read_text(encoding="utf-8")
        for family in ("analyze_latency_seconds", "predict_latency_seconds",
                       "placement_solve_latency_seconds",
                       "kmeans_fit_latency_seconds"):
            assert f"# TYPE {family} histogram" in text, family
        assert validate_exposition(text) == []

    def test_lint_metrics_file_is_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        code = main(["lint", "mininat", "--metrics", str(path)])
        assert code == 0
        capsys.readouterr()
        text = path.read_text(encoding="utf-8")
        assert "# TYPE" in text
        assert 'cli_invocations{command="lint"}' in text


class TestTracePersistence:
    def test_roundtrip(self, tmp_path):
        from repro.workload import generate_trace
        from repro.workload.spec import WorkloadSpec
        from repro.workload.trace import load_trace, save_trace

        spec = WorkloadSpec(name="t", n_flows=10, n_packets=25,
                            udp_fraction=0.4)
        original = generate_trace(spec, seed=3)
        path = tmp_path / "trace.jsonl"
        save_trace(original, str(path))
        loaded = load_trace(str(path))
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.flow_key() == b.flow_key()
            assert a.payload == b.payload
            assert a.timestamp_ns == b.timestamp_ns
            assert (a.udp is None) == (b.udp is None)

    def test_loaded_trace_drives_interpreter(self, tmp_path):
        from repro.click.elements import build_element
        from repro.click.frontend import lower_element
        from repro.click.interp import Interpreter
        from repro.workload import generate_trace
        from repro.workload.spec import WorkloadSpec
        from repro.workload.trace import load_trace, save_trace

        spec = WorkloadSpec(name="t", n_flows=10, n_packets=30)
        path = tmp_path / "trace.jsonl"
        save_trace(generate_trace(spec, seed=0), str(path))
        interp = Interpreter(lower_element(build_element("aggcounter")))
        profile = interp.run_trace(load_trace(str(path)))
        assert profile.packets == 30
