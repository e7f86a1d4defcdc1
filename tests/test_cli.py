"""CLI smoke tests (argument parsing and handlers, no subprocesses)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.variables == 20
        assert args.threads == 4

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_stream_demo_defaults(self):
        args = build_parser().parse_args(["stream-demo"])
        assert args.command == "stream-demo"
        assert args.window == 6
        assert args.max_pending == 8


class TestHandlers:
    def test_demo(self, capsys):
        assert main(["demo", "--variables", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "P(evidence)" in out

    def test_injected_kill_is_finished_by_the_ladder(self, capsys):
        code = main([
            "demo", "--variables", "12", "--seed", "1", "--threads", "2",
            "--executor", "process", "--inject-kill", "1", "--resilience",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded: ProcessSharedMemoryExecutor -> SerialExecutor" in out
        assert "health: healthy" in out

    def test_injected_kill_needs_the_ladder(self):
        with pytest.raises(ValueError, match="--resilience"):
            main([
                "demo", "--variables", "12", "--executor", "process",
                "--inject-kill", "1",
            ])

    def test_query_marginal(self, capsys):
        code = main(
            ["query", "--variables", "8", "--evidence", "0=1", "--target", "3"]
        )
        assert code == 0
        assert "P(X3" in capsys.readouterr().out

    def test_stream_demo(self, capsys):
        code = main(
            ["stream-demo", "--streams", "2", "--ticks", "6", "--window", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streams" in out
        assert "window rolls" in out
        assert "P(state)" in out

    def test_experiment_rerooting_cost(self, capsys):
        assert main(["experiment", "rerooting-cost"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1" in out


class TestTraceCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "demo_trace.json"
        assert main(
            ["demo", "--variables", "10", "--seed", "1", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert str(path) in out
        assert path.exists()
        return path

    def test_demo_trace_writes_file(self, trace_file):
        assert trace_file.stat().st_size > 0

    def test_trace_validate(self, trace_file, capsys):
        assert main(["trace", "validate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out

    def test_trace_report(self, trace_file, capsys):
        assert main(["trace", "report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "per primitive" in out
        # The embedded TaskMeta lets the report replay the DAG through
        # the simulator without the original network.
        assert "measured" in out and "predicted" in out

    def test_trace_gantt(self, trace_file, capsys):
        assert main(["trace", "gantt", str(trace_file), "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_trace_validate_missing_file(self, tmp_path, capsys):
        assert main(["trace", "validate", str(tmp_path / "no.json")]) == 1

    def test_trace_validate_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X", "ts": 0}]}')
        assert main(["trace", "validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out.lower()
