"""Generic collaborative DAG execution (the Section 8 generalization)."""

import threading
import time

import pytest

from repro.sched import run_dag


class TestBasics:
    def test_results_flow_through_dependencies(self):
        results = run_dag(
            nodes={
                "a": lambda: 2,
                "b": lambda: 3,
                "c": lambda a, b: a + b,
                "d": lambda c: c * 10,
            },
            deps={"c": ["a", "b"], "d": ["c"]},
            num_threads=3,
        )
        assert results == {"a": 2, "b": 3, "c": 5, "d": 50}

    def test_dependency_argument_order(self):
        results = run_dag(
            nodes={
                "x": lambda: "x",
                "y": lambda: "y",
                "cat": lambda first, second: first + second,
            },
            deps={"cat": ["y", "x"]},
            num_threads=2,
        )
        assert results["cat"] == "yx"

    def test_single_node(self):
        assert run_dag({"only": lambda: 7}, num_threads=1) == {"only": 7}

    def test_wide_fanout(self):
        n = 50
        nodes = {i: (lambda i=i: i * i) for i in range(n)}
        nodes["sum"] = lambda *vals: sum(vals)
        deps = {"sum": list(range(n))}
        results = run_dag(nodes, deps, num_threads=8)
        assert results["sum"] == sum(i * i for i in range(n))

    def test_deep_chain(self):
        n = 40
        nodes = {0: lambda: 1}
        deps = {}
        for i in range(1, n):
            nodes[i] = lambda prev: prev + 1
            deps[i] = [i - 1]
        results = run_dag(nodes, deps, num_threads=4)
        assert results[n - 1] == n

    def test_actually_parallel_execution(self):
        """Two independent sleeps overlap when run on two threads."""
        barrier = threading.Barrier(2, timeout=5)

        def wait():
            barrier.wait()
            return True

        results = run_dag(
            {"a": wait, "b": wait}, num_threads=2
        )
        assert results == {"a": True, "b": True}


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            run_dag(
                {"a": lambda b: b, "b": lambda a: a},
                deps={"a": ["b"], "b": ["a"]},
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_dag({"a": lambda x: x}, deps={"a": ["ghost"]})

    def test_unknown_node_in_deps_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            run_dag({"a": lambda: 1}, deps={"ghost": ["a"]})

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError):
            run_dag({"a": lambda: 1}, num_threads=0)

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("node exploded")

        with pytest.raises(RuntimeError, match="node exploded"):
            run_dag(
                {"a": boom, "b": lambda: 1},
                num_threads=2,
            )

    def test_weights_accepted(self):
        results = run_dag(
            {"a": lambda: 1, "b": lambda: 2},
            num_threads=2,
            weights={"a": 100.0, "b": 1.0},
        )
        assert results == {"a": 1, "b": 2}
