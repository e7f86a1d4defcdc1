"""Every example script must run to completion (bitrot guard).

Each example's ``main()`` is executed in-process with a captured stdout;
assertions are line-level smoke checks on the narrative output.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Some examples import siblings; keep the directory importable.
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "posteriors match" in out

    def test_medical_diagnosis(self, capsys):
        _load("medical_diagnosis").main()
        out = capsys.readouterr().out
        assert "verified against brute-force enumeration." in out

    def test_rerooting_demo(self, capsys):
        _load("rerooting_demo").main()
        out = capsys.readouterr().out
        assert "matches the O(N^2) brute-force search." in out

    def test_generic_dag_scheduling(self, capsys):
        _load("generic_dag_scheduling").main()
        out = capsys.readouterr().out
        assert "report:" in out

    def test_incremental_updates(self, capsys):
        _load("incremental_updates").main()
        out = capsys.readouterr().out
        assert "cold recomputation" in out

    def test_hmm_tracking(self, capsys):
        _load("hmm_tracking").main()
        out = capsys.readouterr().out
        assert "smoothed" in out and "filtered" in out

    @pytest.mark.slow
    def test_parallel_scaling(self, capsys):
        _load("parallel_scaling").main()
        out = capsys.readouterr().out
        assert "collaborative (proposed)" in out
        assert "< 0.9%" in out
