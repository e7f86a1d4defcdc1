"""The simulated-machine facade."""

import pytest

from repro.jt.generation import synthetic_tree
from repro.simcore.machine import Machine
from repro.simcore.policies import (
    CollaborativePolicy,
    OpenMPPolicy,
    SerialPolicy,
)
from repro.simcore.profiles import XEON
from repro.tasks.dag import build_task_graph


class TestMachine:
    @pytest.fixture(scope="class")
    def graph(self):
        tree = synthetic_tree(24, clique_width=8, seed=7)
        return build_task_graph(tree)

    def test_run(self, graph):
        machine = Machine(XEON, 4)
        result = machine.run(CollaborativePolicy(), graph)
        assert result.num_cores == 4
        assert result.makespan > 0

    def test_compare_keys_by_policy_name(self, graph):
        machine = Machine(XEON, 4)
        results = machine.compare(
            [CollaborativePolicy(), OpenMPPolicy()], graph
        )
        assert set(results) == {"collaborative", "openmp"}

    def test_speedup_curve_starts_at_one(self, graph):
        machine = Machine(XEON, 8)
        curve = machine.speedup_curve(
            CollaborativePolicy(), graph, (1, 2, 4)
        )
        assert curve[0] == pytest.approx(1.0)
        assert curve[-1] > curve[0]

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            Machine(XEON, 0)

    def test_repr(self):
        assert "cores=4" in repr(Machine(XEON, 4))
