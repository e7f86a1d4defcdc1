"""Tests for Task, TaskGraph and task-dependency-graph construction."""

import threading

import numpy as np
import pytest

import repro.tasks.dag as dag
from repro.inference.incremental import distribute_edges_for
from repro.jt.generation import synthetic_tree, template_tree
from repro.potential.primitives import PrimitiveKind
from repro.sched import (
    CollaborativeExecutor,
    ProcessSharedMemoryExecutor,
    SerialExecutor,
    WorkStealingExecutor,
)
from repro.serve import EngineSessionPool
from repro.tasks.clique_graph import build_clique_updating_graph
from repro.tasks.dag import GRAPH_CACHE_SIZE, build_task_graph
from repro.tasks.layout import table_layout
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT, DISTRIBUTE, Task, TaskGraph


class TestTaskGraphBasics:
    def test_add_task_assigns_dense_ids(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        b = g.add_task(
            PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a]
        )
        assert (a, b) == (0, 1)
        assert g.succs[a] == [b]
        assert g.deps[b] == [a]

    def test_forward_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="not-yet-created"):
            g.add_task(PrimitiveKind.EXTEND, COLLECT, (0, 1), 0, 2, 4, deps=[5])

    def test_bad_phase_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="phase"):
            g.add_task(PrimitiveKind.EXTEND, "sideways", (0, 1), 0, 2, 4)

    def test_roots_and_indegrees(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        g.add_task(PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a])
        assert g.roots() == [a]
        assert g.indegrees() == [0, 1]

    def test_topological_order_valid(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        b = g.add_task(PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a])
        c = g.add_task(PrimitiveKind.EXTEND, COLLECT, (0, 1), 0, 2, 4, deps=[b])
        order = g.topological_order()
        assert order.index(a) < order.index(b) < order.index(c)

    def test_topological_order_is_computed_once_until_a_task_is_added(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        order = g.topological_order()
        assert isinstance(order, tuple)  # callers cannot edit the memo
        assert g.topological_order() is order
        b = g.add_task(PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a])
        assert g.topological_order() == (a, b)
        # validate() does not trust the memo: a cycle edited in afterwards
        # is still found.
        g.deps[a].append(b)
        g.succs[b].append(a)
        with pytest.raises(RuntimeError, match="cycle"):
            g.validate()

    def test_levels_group_by_longest_path(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        b = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 2), 0, 4, 2)
        c = g.add_task(
            PrimitiveKind.MULTIPLY, COLLECT, (0, 1), 0, 4, 4, deps=[a, b]
        )
        levels = g.levels()
        assert sorted(levels[0]) == [a, b]
        assert levels[1] == [c]

    def test_total_and_critical_work(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MULTIPLY, COLLECT, (0, 1), 0, 8, 8)
        b = g.add_task(PrimitiveKind.MULTIPLY, COLLECT, (0, 2), 0, 8, 8)
        c = g.add_task(
            PrimitiveKind.MULTIPLY, COLLECT, (0, 1), 0, 8, 8, deps=[a, b]
        )
        assert g.total_work() == 24.0
        assert g.critical_path_work() == 16.0

    def test_validate_passes_on_consistent_graph(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        g.add_task(PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a])
        g.validate()

    def test_validate_detects_corruption(self):
        g = TaskGraph()
        a = g.add_task(PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 4, 2)
        b = g.add_task(PrimitiveKind.DIVIDE, COLLECT, (0, 1), 0, 2, 2, deps=[a])
        g.deps[b] = []  # corrupt
        with pytest.raises(ValueError):
            g.validate()


class TestTaskProperties:
    def test_weight_follows_primitive_flops(self):
        t = Task(0, PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 100, 10)
        assert t.weight == 100.0
        t2 = Task(1, PrimitiveKind.EXTEND, COLLECT, (0, 1), 0, 10, 100)
        assert t2.weight == 100.0

    def test_partition_size_marginalize_uses_input(self):
        t = Task(0, PrimitiveKind.MARGINALIZE, COLLECT, (0, 1), 0, 100, 10)
        assert t.partition_size == 100

    def test_partition_size_others_use_output(self):
        t = Task(0, PrimitiveKind.EXTEND, DISTRIBUTE, (0, 1), 1, 10, 100)
        assert t.partition_size == 100


class TestBuildTaskGraph:
    def test_task_count_is_eight_per_edge(self):
        tree = synthetic_tree(20, clique_width=3, seed=0)
        g = build_task_graph(tree)
        assert g.num_tasks == 8 * (tree.num_cliques - 1)

    def test_single_clique_tree_has_no_tasks(self):
        tree = synthetic_tree(1, clique_width=3, seed=0)
        assert build_task_graph(tree).num_tasks == 0

    def test_graph_is_acyclic_and_consistent(self):
        tree = synthetic_tree(30, clique_width=4, seed=1)
        g = build_task_graph(tree)
        g.validate()

    def test_pipeline_order_within_edge(self):
        tree = synthetic_tree(10, clique_width=3, seed=2)
        g = build_task_graph(tree)
        by_edge = {}
        for t in g.tasks:
            by_edge.setdefault((t.phase, t.edge), []).append(t)
        order = {
            PrimitiveKind.MARGINALIZE: 0,
            PrimitiveKind.DIVIDE: 1,
            PrimitiveKind.EXTEND: 2,
            PrimitiveKind.MULTIPLY: 3,
        }
        topo = {tid: i for i, tid in enumerate(g.topological_order())}
        for tasks in by_edge.values():
            assert len(tasks) == 4
            ranked = sorted(tasks, key=lambda t: order[t.kind])
            for a, b in zip(ranked, ranked[1:]):
                assert topo[a.tid] < topo[b.tid]

    def test_collect_strictly_precedes_distribute_per_edge(self):
        tree = synthetic_tree(12, clique_width=3, seed=3)
        g = build_task_graph(tree)
        topo = {tid: i for i, tid in enumerate(g.topological_order())}
        collect_max = {}
        distribute_min = {}
        for t in g.tasks:
            if t.phase == COLLECT:
                collect_max[t.edge] = max(
                    collect_max.get(t.edge, -1), topo[t.tid]
                )
            else:
                distribute_min[t.edge] = min(
                    distribute_min.get(t.edge, 1 << 30), topo[t.tid]
                )
        for edge in collect_max:
            assert collect_max[edge] < distribute_min[edge]

    def test_multiplies_into_same_clique_are_serialized(self):
        # A star: root 0 with several children; the root's collect
        # MULTIPLY tasks must form a chain.
        tree = synthetic_tree(8, clique_width=3, avg_children=7, seed=4)
        g = build_task_graph(tree)
        mults = [
            t
            for t in g.tasks
            if t.kind is PrimitiveKind.MULTIPLY
            and t.phase == COLLECT
            and t.clique == tree.root
        ]
        if len(mults) > 1:
            # Each multiply after the first depends on the previous one.
            tids = [t.tid for t in mults]
            for prev, cur in zip(tids, tids[1:]):
                assert prev in g.deps[cur]

    def test_roots_are_leaf_marginalizations(self):
        tree = template_tree(2, num_cliques=31, clique_width=4)
        g = build_task_graph(tree)
        for tid in g.roots():
            t = g.tasks[tid]
            assert t.kind is PrimitiveKind.MARGINALIZE
            assert t.phase == COLLECT


class TestCliqueUpdatingGraph:
    def test_collect_depends_on_children(self):
        tree = synthetic_tree(15, clique_width=3, seed=5)
        cug = build_clique_updating_graph(tree)
        for c in range(tree.num_cliques):
            deps = cug.deps[(COLLECT, c)]
            assert set(deps) == {(COLLECT, ch) for ch in tree.children[c]}

    def test_distribute_depends_on_parent(self):
        tree = synthetic_tree(15, clique_width=3, seed=6)
        cug = build_clique_updating_graph(tree)
        for c in range(tree.num_cliques):
            if c == tree.root:
                assert cug.deps[(DISTRIBUTE, c)] == [(COLLECT, c)]
            else:
                assert cug.deps[(DISTRIBUTE, c)] == [
                    (DISTRIBUTE, tree.parent[c])
                ]

    def test_topological_order_complete(self):
        tree = synthetic_tree(15, clique_width=3, seed=7)
        cug = build_clique_updating_graph(tree)
        order = cug.topological_order()
        assert len(order) == 2 * tree.num_cliques
        pos = {node: i for i, node in enumerate(order)}
        for node, deps in cug.deps.items():
            for d in deps:
                assert pos[d] < pos[node]


def _tree(seed, num_cliques=24, states=2):
    tree = synthetic_tree(
        num_cliques, clique_width=3, states=states, seed=seed
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


def _path_edges(tree, target):
    """Distribute edges of a root-to-``target`` refresh of a fresh state."""
    stale = set(range(tree.num_cliques)) - {tree.root}
    return distribute_edges_for(tree, stale, {target})


def _shape(graph):
    return (
        [
            (t.tid, t.kind, t.phase, t.edge, t.clique, t.input_size,
             t.output_size)
            for t in graph.tasks
        ],
        graph.deps,
    )


def _cached(cache, tree, collect, distribute):
    """The graph of a key after the two requests that make it kept."""
    cache.get(tree, collect, distribute)
    return cache.get(tree, collect, distribute)


class TestGraphCache:
    def test_cached_graph_equals_a_fresh_build(self):
        tree = _tree(0)
        cache = table_layout(tree).graphs
        leaf = tree.leaves()[-1]
        edges = _path_edges(tree, leaf)
        cached = _cached(cache, tree, None, edges)
        assert _shape(cached) == _shape(
            build_task_graph(tree, distribute_edges=edges)
        )
        collect = {(tree.parent[leaf], leaf)}
        restricted = _cached(cache, tree, collect, edges)
        assert _shape(restricted) == _shape(
            build_task_graph(
                tree, collect_edges=collect, distribute_edges=edges
            )
        )
        # Same edge sets in any container: the same graph object.
        assert cache.get(tree, None, sorted(edges)) is cached
        assert cache.get(tree, list(collect), set(edges)) is restricted

    def test_a_key_requested_once_is_not_kept(self):
        tree = _tree(0)
        cache = table_layout(tree).graphs
        edges = _path_edges(tree, tree.leaves()[-1])
        first = cache.get(tree, None, edges)
        assert len(cache) == 0
        second = cache.get(tree, None, edges)
        assert second is not first and len(cache) == 1
        assert _shape(second) == _shape(first)

    @pytest.mark.parametrize(
        "make",
        [
            SerialExecutor,
            lambda: CollaborativeExecutor(
                num_threads=2, partition_threshold=4
            ),
            lambda: WorkStealingExecutor(
                num_threads=2, partition_threshold=4
            ),
            lambda: ProcessSharedMemoryExecutor(
                num_workers=2, inline_threshold=0
            ),
        ],
        ids=["serial", "collaborative", "work-stealing", "process"],
    )
    def test_one_cached_graph_runs_twice_bit_identically(self, make):
        tree = _tree(1, num_cliques=10)
        cache = table_layout(tree).graphs
        edges = _path_edges(tree, tree.leaves()[0])
        graph = _cached(cache, tree, None, edges)
        before = _shape(graph)
        executor = make()
        buffers = []
        for _ in range(2):
            state = PropagationState(tree, {0: 1})
            executor.run(graph, state)
            buffers.append(state.buffer.copy())
        assert np.array_equal(buffers[0], buffers[1])
        assert _shape(graph) == before  # executors only read the graph
        assert cache.get(tree, None, edges) is graph

    def test_lru_never_exceeds_its_bound(self):
        tree = _tree(2, num_cliques=2 * GRAPH_CACHE_SIZE + 8)
        cache = table_layout(tree).graphs
        targets = [c for c in range(tree.num_cliques) if c != tree.root]
        graphs = {}
        for target in targets:
            edges = _path_edges(tree, target)
            graphs[target] = _cached(cache, tree, None, edges)
            assert len(cache) <= GRAPH_CACHE_SIZE
        assert len(cache) == GRAPH_CACHE_SIZE
        # The most recent graphs survive; a hit refreshes its entry.
        last = targets[-1]
        assert cache.get(tree, None, _path_edges(tree, last)) is graphs[last]

    def test_racing_threads_share_one_complete_graph(self, monkeypatch):
        tree = _tree(3)
        edges = _path_edges(tree, tree.leaves()[-1])
        cache = table_layout(tree).graphs
        cache.get(tree, None, edges)  # the next request keeps the graph
        barrier = threading.Barrier(2, timeout=30)
        real = dag.build_task_graph

        def slow_build(*args, **kwargs):
            barrier.wait()  # both threads have missed
            return real(*args, **kwargs)

        monkeypatch.setattr(dag, "build_task_graph", slow_build)
        got = [None, None]

        def fetch(i):
            got[i] = cache.get(tree, None, edges)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert got[0] is got[1]
        got[0].validate()
        assert _shape(got[0]) == _shape(real(tree, distribute_edges=edges))
        assert len(cache) == 1

    def test_caches_are_per_structure(self):
        small, wide = _tree(4, states=2), _tree(4, states=3)
        assert small.parent == wide.parent  # same topology, other tables
        edges = _path_edges(small, small.leaves()[-1])
        caches = [table_layout(t).graphs for t in (small, wide)]
        assert caches[0] is not caches[1]
        for tree, cache in zip((small, wide), caches):
            graph = _cached(cache, tree, None, edges)
            assert _shape(graph) == _shape(
                build_task_graph(tree, distribute_edges=edges)
            )
        assert _shape(caches[0].get(small, None, edges)) != _shape(
            caches[1].get(wide, None, edges)
        )

    def test_engines_over_one_tree_share_one_cache(self):
        pool = EngineSessionPool.from_junction_tree(_tree(5), sessions=2)
        first, second = pool.engines
        assert table_layout(first.jt).graphs is table_layout(second.jt).graphs
        # The same delta in the two sessions asks one cache twice, so its
        # graph is kept.
        finding = {first.jt.cliques[first.jt.leaves()[-1]].variables[0]: 1}
        for engine in (first, second):
            engine.set_evidence(finding)
            engine.propagate(incremental=True)
            assert engine.last_stats.incremental
        assert len(table_layout(first.jt).graphs) == 1
