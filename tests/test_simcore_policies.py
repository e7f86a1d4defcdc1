"""Tests for the multicore simulator's scheduling policies."""

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree, template_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import (
    CentralizedPolicy,
    CollaborativePolicy,
    DataParallelPolicy,
    LevelParallelPolicy,
    OpenMPPolicy,
    SerialPolicy,
)
from repro.simcore.profiles import IBM_P655, OPTERON, XEON
from repro.simcore.simgraph import build_sim_graph
from repro.tasks.dag import build_task_graph


@pytest.fixture(scope="module")
def graph():
    tree = synthetic_tree(
        64, clique_width=14, states=2, avg_children=3, seed=50
    )
    tree, _, _ = reroot_optimally(tree)
    return build_task_graph(tree)


class TestSerialPolicy:
    def test_makespan_equals_total_duration(self, graph):
        result = SerialPolicy().simulate(graph, XEON)
        sim = build_sim_graph(graph)
        expected = sum(XEON.duration(w, 1) for w in sim.weights)
        assert np.isclose(result.makespan, expected)

    def test_single_core_fields(self, graph):
        result = SerialPolicy().simulate(graph, XEON)
        assert result.num_cores == 1
        assert result.sched_ratio() == 0.0
        assert result.utilization() == pytest.approx(1.0)


class TestCollaborativePolicy:
    def test_speedup_monotone_in_cores(self, graph):
        pol = CollaborativePolicy()
        times = [pol.simulate(graph, XEON, p).makespan for p in (1, 2, 4, 8)]
        for a, b in zip(times, times[1:]):
            assert b < a

    def test_near_linear_at_8_cores(self, graph):
        pol = CollaborativePolicy()
        base = pol.simulate(graph, XEON, 1).makespan
        fast = pol.simulate(graph, XEON, 8).makespan
        assert base / fast > 4.5

    def test_makespan_bounds(self, graph):
        """Greedy schedule lies between span and work/P lower bounds."""
        pol = CollaborativePolicy()
        for p in (2, 4, 8):
            result = pol.simulate(graph, XEON, p)
            sim = build_sim_graph(
                graph, pol.partition_threshold, pol.max_chunks
            )
            work = sum(XEON.duration(w, p) for w in sim.weights)
            span = XEON.duration(sim.critical_path(), p)
            assert result.makespan >= max(span, work / p) * 0.999
            assert result.makespan <= work + 1e-9

    def test_load_balance_is_tight(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 8)
        assert result.load_imbalance() < 1.5

    def test_sched_ratio_small(self, graph):
        # The paper's < 0.9 % bound holds on JT1-sized tables and is
        # asserted by the Fig. 8 benchmark; this medium tree has much
        # smaller tasks, so only a loose bound applies here.
        result = CollaborativePolicy().simulate(graph, XEON, 8)
        assert result.sched_ratio() < 0.25

    def test_partitioning_disabled_still_runs(self, graph):
        pol = CollaborativePolicy(partition_threshold=None)
        result = pol.simulate(graph, XEON, 4)
        assert result.tasks_executed == graph.num_tasks

    def test_compute_time_conserved(self, graph):
        """Total per-core compute equals the partitioned graph's work."""
        pol = CollaborativePolicy()
        result = pol.simulate(graph, XEON, 4)
        sim = build_sim_graph(graph, pol.partition_threshold, pol.max_chunks)
        work = sum(XEON.duration(w, 4) for w in sim.weights)
        assert np.isclose(result.total_compute(), work)


class TestBaselinePolicies:
    def test_openmp_saturates_below_collaborative(self, graph):
        omp = OpenMPPolicy()
        collab = CollaborativePolicy()
        omp_speedup = (
            omp.simulate(graph, XEON, 1).makespan
            / omp.simulate(graph, XEON, 8).makespan
        )
        collab_speedup = (
            collab.simulate(graph, XEON, 1).makespan
            / collab.simulate(graph, XEON, 8).makespan
        )
        assert collab_speedup > 1.5 * omp_speedup

    def test_data_parallel_saturates(self, graph):
        pol = DataParallelPolicy()
        s4 = (
            pol.simulate(graph, XEON, 1).makespan
            / pol.simulate(graph, XEON, 4).makespan
        )
        s8 = (
            pol.simulate(graph, XEON, 1).makespan
            / pol.simulate(graph, XEON, 8).makespan
        )
        # Same-table streaming cap: going 4 -> 8 cores barely helps.
        assert s8 < s4 * 1.5

    def test_level_parallel_valid_and_slower_than_collaborative(self, graph):
        lvl = LevelParallelPolicy().simulate(graph, XEON, 8)
        collab = CollaborativePolicy().simulate(graph, XEON, 8)
        assert lvl.makespan > collab.makespan

    def test_openmp_single_core_close_to_serial(self, graph):
        omp = OpenMPPolicy().simulate(graph, XEON, 1).makespan
        serial = SerialPolicy().simulate(graph, XEON).makespan
        assert omp == pytest.approx(serial, rel=0.01)


class TestCentralizedPolicy:
    def test_execution_time_rises_past_saturation(self):
        tree = template_tree(3, num_cliques=128, clique_width=20)
        graph = build_task_graph(tree)
        pol = CentralizedPolicy()
        times = {
            p: pol.simulate(graph, IBM_P655, p).makespan
            for p in (1, 2, 4, 8, 16)
        }
        assert times[4] < times[1]
        # Coordination dominates well past the knee: more processors now
        # make execution *slower*, the paper's Fig. 6 observation.
        assert times[8] > times[4]
        assert times[16] > times[8]

    def test_single_core_includes_dispatch(self, graph):
        pnl = CentralizedPolicy().simulate(graph, IBM_P655, 1).makespan
        serial = SerialPolicy().simulate(graph, IBM_P655).makespan
        assert pnl > serial


class TestPlatformProfiles:
    def test_memory_scale_grows(self):
        assert XEON.memory_scale(8) > XEON.memory_scale(1) == 1.0

    def test_lock_contention_grows(self):
        assert XEON.lock_overhead(8) > XEON.lock_overhead(1)

    def test_task_sched_overhead_single_core_has_no_locks(self):
        assert XEON.task_sched_overhead(1) == XEON.sched_overhead

    def test_streamed_duration_caps(self):
        unlimited = XEON.streamed_duration(1e9, 100, 8)
        expected = 1e9 / XEON.flops_per_second / XEON.stream_cap
        assert unlimited == pytest.approx(
            expected * XEON.memory_scale(8)
        )

    def test_streamed_duration_static_is_slower(self):
        dynamic = XEON.streamed_duration(1e9, 8, 8, static=False)
        static = XEON.streamed_duration(1e9, 8, 8, static=True)
        assert static > dynamic

    def test_dispatch_latency_grows_with_cores_and_size(self):
        small = IBM_P655.dispatch_latency(2, 0.001)
        big = IBM_P655.dispatch_latency(8, 0.001)
        assert big > small
        sized = IBM_P655.dispatch_latency(8, 0.1)
        assert sized > big

    def test_opteron_slower_than_xeon(self):
        assert OPTERON.flops_per_second < XEON.flops_per_second


class TestSimResultMetrics:
    def test_speedup_over(self, graph):
        pol = CollaborativePolicy()
        base = pol.simulate(graph, XEON, 1)
        fast = pol.simulate(graph, XEON, 8)
        assert fast.speedup_over(base) == pytest.approx(
            base.makespan / fast.makespan
        )

    def test_utilization_in_unit_interval(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 8)
        assert 0.0 < result.utilization() <= 1.0


class TestEnergy:
    def test_energy_nonnegative_and_scales(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 4)
        low = result.energy_joules(active_watts=10, idle_watts=2)
        high = result.energy_joules(active_watts=20, idle_watts=2)
        assert 0 < low < high

    def test_idle_cores_draw_idle_power(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 8)
        zero_idle = result.energy_joules(active_watts=10, idle_watts=0)
        with_idle = result.energy_joules(active_watts=10, idle_watts=5)
        assert with_idle > zero_idle

    def test_edp_consistent(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 4)
        assert result.energy_delay_product() == pytest.approx(
            result.energy_joules() * result.makespan
        )

    def test_negative_power_rejected(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 2)
        with pytest.raises(ValueError):
            result.energy_joules(active_watts=-1)

    def test_parallel_saves_energy_via_idle_reduction(self, graph):
        """More cores finish sooner: busy energy is ~constant, idle
        energy shrinks with the makespan tail, so EDP improves."""
        serial = CollaborativePolicy().simulate(graph, XEON, 1)
        parallel = CollaborativePolicy().simulate(graph, XEON, 8)
        assert (
            parallel.energy_delay_product()
            < serial.energy_delay_product()
        )
