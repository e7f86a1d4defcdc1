"""Fine-grained task dependency graph construction (Section 5.2, second step).

Each clique update of the clique updating graph is replaced by its *local
task dependency graph*: per incoming message, the primitive pipeline

    MARGINALIZE -> DIVIDE -> EXTEND -> MULTIPLY

with all MULTIPLY tasks into the same clique potential serialized (they
write the same table).  Cross-clique edges follow the clique updating graph:

* the collect pipeline over edge ``(p, c)`` starts once clique ``c``'s own
  collect update finished (its last MULTIPLY task),
* the distribute pipeline over edge ``(p, c)`` starts once clique ``p``'s
  distribute update finished (the root's distribute alias is its collect
  exit).

Incremental repropagation (:mod:`repro.inference.incremental`) builds
*restricted* graphs: only the message pipelines named in
``collect_edges`` / ``distribute_edges`` are emitted, every other clique's
tables being reused from a previous run.  The restricted graph keeps the
exact dependency structure of the full graph projected onto the surviving
pipelines, so every executor runs it through the unchanged
``run(task_graph, state)`` contract.  A tree's restricted graphs come from
its :class:`GraphCache` (kept with the tree's table layout): a stream
repeats a handful of edge sets, so each is built twice, not every tick.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Collection, Dict, FrozenSet, Optional, Tuple

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import PrimitiveKind
from repro.tasks.task import COLLECT, DISTRIBUTE, TaskGraph

Edge = Tuple[int, int]

# Restricted graphs one GraphCache keeps, and first-time keys it
# remembers.  A filtering stream cycles through 6-9 distinct (collect,
# distribute) edge sets; request traffic hardly repeats one, so a larger
# bound would only hold dead graphs.
GRAPH_CACHE_SIZE = 16


class GraphCache:
    """LRU of restricted task graphs over one compiled tree structure.

    Keyed by ``(collect edges, distribute edges)`` (``None``: that phase
    in full), bounded by :data:`GRAPH_CACHE_SIZE`.  Every engine over the
    structure shares one cache: the sessions of a pool, and the rolled
    windows of a filtering session.  A graph is kept from the second
    request of its key on (a key requested once is remembered among the
    last :data:`GRAPH_CACHE_SIZE` such keys): request traffic hardly ever
    asks for a graph again, and holding its graphs anyway multiplied the
    garbage collector's work (DESIGN.md section 3), while a stream's
    handful of edge sets repeat within a few ticks.  A graph is published
    only once it is fully built, and executors only read graphs, so a
    cached graph can be run by any number of engines at once.
    """

    def __init__(self):
        self._graphs: "OrderedDict[Tuple, TaskGraph]" = OrderedDict()
        self._seen: "OrderedDict[Tuple, None]" = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        # A tree pickled to a worker process travels with an empty cache:
        # graphs are rebuilt there on demand, the lock cannot travel.
        return (GraphCache, ())

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def get(
        self,
        jt: JunctionTree,
        collect_edges: Optional[Collection[Edge]],
        distribute_edges: Collection[Edge],
    ) -> TaskGraph:
        """``build_task_graph(jt, collect_edges, distribute_edges)``:
        built on a miss, shared from the key's second request on."""
        key: Tuple[Optional[FrozenSet[Edge]], FrozenSet[Edge]] = (
            None if collect_edges is None else frozenset(collect_edges),
            frozenset(distribute_edges),
        )
        with self._lock:
            graph = self._graphs.get(key)
            if graph is not None:
                self._graphs.move_to_end(key)
                return graph
            keep = key in self._seen
            if not keep:
                self._seen[key] = None
                if len(self._seen) > GRAPH_CACHE_SIZE:
                    self._seen.popitem(last=False)
        graph = build_task_graph(
            jt, collect_edges=key[0], distribute_edges=key[1]
        )
        if keep:
            with self._lock:
                # A racing thread may have published the same key
                # meanwhile; both graphs are complete and equal, keep the
                # first.
                graph = self._graphs.setdefault(key, graph)
                self._graphs.move_to_end(key)
                if len(self._graphs) > GRAPH_CACHE_SIZE:
                    self._graphs.popitem(last=False)
        return graph


def _sizes(jt: JunctionTree, parent: int, child: int) -> Tuple[int, int]:
    """(clique table size of parent, separator table size) for an edge."""
    sep_cards = jt.separator_cards(child, parent)
    sep_size = 1
    for c in sep_cards:
        sep_size *= c
    return jt.cliques[parent].table_size, sep_size


def build_task_graph(
    jt: JunctionTree,
    collect_edges: Optional[Collection[Edge]] = None,
    distribute_edges: Optional[Collection[Edge]] = None,
) -> TaskGraph:
    """Construct the task dependency graph ``G`` for a junction tree.

    With the default arguments the graph is *full* — ``8 * (N - 1)``
    tasks, four primitives per edge per phase — and a single-clique tree
    yields an empty graph (nothing to propagate).

    ``collect_edges`` / ``distribute_edges`` restrict each phase to the
    given ``(parent, child)`` tree edges (``None`` keeps the phase full;
    an empty collection drops it entirely).  Callers must pass edge sets
    whose cliques hold consistent state for the skipped pipelines — see
    :func:`repro.inference.incremental.plan_incremental`, which guarantees
    the collect set is ancestor-closed and the distribute set is closed
    toward the root.
    """
    graph = TaskGraph()
    collect_edges = None if collect_edges is None else set(collect_edges)
    distribute_edges = (
        None if distribute_edges is None else set(distribute_edges)
    )
    # Exit task of each clique's collect / distribute update.
    collect_exit: Dict[int, Optional[int]] = {}
    distribute_exit: Dict[int, Optional[int]] = {}

    # ----------------------- collect phase ---------------------------- #
    # Children must be processed before parents; postorder guarantees the
    # child's collect exit exists when the parent pipeline is created.
    for p in jt.postorder():
        children = [
            c
            for c in jt.children[p]
            if collect_edges is None or (p, c) in collect_edges
        ]
        if not children:
            collect_exit[p] = None
            continue
        clique_size = jt.cliques[p].table_size
        last_multiply: Optional[int] = None
        for c in children:
            child_size = jt.cliques[c].table_size
            _, sep_size = _sizes(jt, p, c)
            edge = (p, c)
            entry_deps = []
            if collect_exit[c] is not None:
                entry_deps.append(collect_exit[c])
            marg = graph.add_task(
                PrimitiveKind.MARGINALIZE, COLLECT, edge, p,
                input_size=child_size, output_size=sep_size, deps=entry_deps,
            )
            div = graph.add_task(
                PrimitiveKind.DIVIDE, COLLECT, edge, p,
                input_size=sep_size, output_size=sep_size, deps=[marg],
            )
            ext = graph.add_task(
                PrimitiveKind.EXTEND, COLLECT, edge, p,
                input_size=sep_size, output_size=clique_size, deps=[div],
            )
            mult_deps = [ext]
            if last_multiply is not None:
                mult_deps.append(last_multiply)
            mult = graph.add_task(
                PrimitiveKind.MULTIPLY, COLLECT, edge, p,
                input_size=clique_size, output_size=clique_size,
                deps=mult_deps,
            )
            last_multiply = mult
        collect_exit[p] = last_multiply

    # ---------------------- distribute phase -------------------------- #
    distribute_exit[jt.root] = collect_exit[jt.root]
    for p in jt.preorder():
        for c in jt.children[p]:
            if distribute_edges is not None and (p, c) not in distribute_edges:
                continue
            child_size = jt.cliques[c].table_size
            _, sep_size = _sizes(jt, p, c)
            edge = (p, c)
            entry_deps = []
            if distribute_exit.get(p) is not None:
                entry_deps.append(distribute_exit[p])
            parent_size = jt.cliques[p].table_size
            marg = graph.add_task(
                PrimitiveKind.MARGINALIZE, DISTRIBUTE, edge, c,
                input_size=parent_size, output_size=sep_size, deps=entry_deps,
            )
            div = graph.add_task(
                PrimitiveKind.DIVIDE, DISTRIBUTE, edge, c,
                input_size=sep_size, output_size=sep_size, deps=[marg],
            )
            ext = graph.add_task(
                PrimitiveKind.EXTEND, DISTRIBUTE, edge, c,
                input_size=sep_size, output_size=child_size, deps=[div],
            )
            mult = graph.add_task(
                PrimitiveKind.MULTIPLY, DISTRIBUTE, edge, c,
                input_size=child_size, output_size=child_size, deps=[ext],
            )
            distribute_exit[c] = mult
    return graph
