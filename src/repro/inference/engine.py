"""The user-facing inference engine.

Typical use::

    from repro import InferenceEngine, random_network

    bn = random_network(40, seed=7)
    engine = InferenceEngine.from_network(bn)
    engine.set_evidence({3: 1, 17: 0})
    engine.propagate()
    posterior = engine.marginal(5)

The engine handles junction-tree construction, critical-path-minimizing
rerooting (Algorithm 1), task-graph construction, and executor dispatch.

Evidence may be changed at any time — including by mutating
``engine.evidence`` directly — and queries always answer against the
*current* findings: the engine compares ``Evidence.version`` against the
version its cached propagation reflects and transparently repropagates
when they diverge.  When the previous propagation is reusable, the
repropagation is *incremental*: only cliques whose evidence context
changed (plus their root-ward closure) are recomputed, via a restricted
task graph that every executor runs through the unchanged
``run(task_graph, state)`` contract (see
:mod:`repro.inference.incremental`); restricted graphs are built once per
tree structure and edge set (:class:`~repro.tasks.dag.GraphCache`).
Repeated queries under identical findings are served from an
evidence-keyed :class:`~repro.inference.cache.QueryCache`.

Engines whose trees differ only in their numbers share the compiled
structure: :meth:`InferenceEngine.sharing` builds an engine over a
:meth:`~repro.jt.junction_tree.JunctionTree.with_priors` twin without
rerooting or building a task graph, and :meth:`InferenceEngine.fork`
starts from another engine's findings and propagation without touching it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Set, Union

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.inference.cache import QueryCache
from repro.inference.evidence import Evidence
from repro.inference.incremental import (
    distribute_edges_for,
    plan_incremental,
)
from repro.jt.build import junction_tree_from_network
from repro.jt.junction_tree import JunctionTree
from repro.jt.rerooting import reroot_optimally
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.sched.stats import ExecutionStats
from repro.tasks.layout import table_layout
from repro.tasks.state import PropagationState
from repro.tasks.task import TaskGraph


class InferenceEngine:
    """Exact inference over a junction tree with pluggable executors.

    Parameters
    ----------
    junction_tree:
        A junction tree whose potentials are already initialized.
    reroot:
        When True (default), apply Algorithm 1 and reroot the tree at the
        clique minimizing the weighted critical path before building the
        task graph.
    cache_size:
        Capacity (distinct evidence signatures) of the query cache.
    """

    def __init__(
        self,
        junction_tree: JunctionTree,
        reroot: bool = True,
        cache_size: int = 128,
    ):
        if len(junction_tree.potentials) != junction_tree.num_cliques:
            raise ValueError(
                "junction tree needs potentials; call initialize_potentials() "
                "or build via InferenceEngine.from_network"
            )
        self.original_root = junction_tree.root
        if reroot:
            junction_tree, root, weight = reroot_optimally(junction_tree)
            self.critical_path_weight = weight
        else:
            from repro.jt.rerooting import critical_path_weight

            self.critical_path_weight = critical_path_weight(junction_tree)
        self.jt = junction_tree
        # Cardinality of every variable id up to the largest (0: no clique
        # holds it), what Evidence.checked_against validates findings with.
        self._cardinalities = [0] * (max(self.jt.variables(), default=-1) + 1)
        for clique in self.jt.cliques:
            for var, card in zip(clique.variables, clique.cardinalities):
                self._cardinalities[var] = card
        # Built once per tree structure and shared through its layout.
        self.task_graph: TaskGraph = table_layout(self.jt).task_graph(self.jt)
        self._init_runtime(cache_size)

    def _init_runtime(self, cache_size: int) -> None:
        """Everything of a fresh engine that is not compiled from its tree:
        no findings, no propagation, an empty cache."""
        self.evidence = Evidence()
        self.cache = QueryCache(cache_size)
        self._state: Optional[PropagationState] = None
        # (id(evidence), evidence.version) that self._state reflects; a
        # mismatch means the findings moved and queries must repropagate.
        self._evidence_token = None
        # Cliques of self._state not yet calibrated to its evidence
        # (lazy distribute: a targeted query refreshes only the cliques
        # on the root-to-host paths and leaves the rest stale).
        self._stale: Set[int] = set()
        # The ``resilience`` the last propagate() asked for; repropagations
        # that queries trigger on their own run under it too.
        self._resilience = None
        self.last_stats: Optional[ExecutionStats] = None
        # PropagationTrace of the last traced propagate(trace=...), if any.
        self.last_trace = None
        # Re-entrancy guard: propagate()/query()/marginal() read and
        # replace self._state, self._stale and self._evidence_token as one
        # transaction; two threads interleaving _sync would leave a
        # half-calibrated state behind.  An RLock (not a Lock) because
        # query() calls propagate() under the same guard.  Multi-threaded
        # callers that need *throughput* rather than mere safety should
        # use one engine per thread via repro.serve.EngineSessionPool —
        # this lock serializes, it does not parallelize.
        self._lock = threading.RLock()

    @classmethod
    def from_network(
        cls,
        bn: BayesianNetwork,
        reroot: bool = True,
        heuristic: str = "min-fill",
    ) -> "InferenceEngine":
        """Build the junction tree from a Bayesian network, then the engine."""
        return cls(junction_tree_from_network(bn, heuristic), reroot=reroot)

    def sharing(self, junction_tree: JunctionTree) -> "InferenceEngine":
        """A fresh engine over ``junction_tree``, compiled by this one.

        ``junction_tree`` must have this engine's tree structure: this
        engine's tree itself, or one made from it by
        :meth:`~repro.jt.junction_tree.JunctionTree.with_priors`.  The new
        engine reuses this one's rerooting and full task graph (the tree
        shares the table layout and the restricted-graph cache) instead of
        recomputing them, and starts with no findings, no propagation and
        an empty cache.  Nothing of this engine changes.
        """
        if (
            junction_tree.cliques is not self.jt.cliques
            or junction_tree.parent is not self.jt.parent
        ):
            raise ValueError(
                "sharing() needs a tree with this engine's structure "
                "(the engine's own tree or one from its with_priors())"
            )
        twin = type(self).__new__(type(self))
        twin.original_root = self.original_root
        twin.critical_path_weight = self.critical_path_weight
        twin.jt = junction_tree
        twin._cardinalities = self._cardinalities
        twin.task_graph = self.task_graph
        twin._init_runtime(self.cache.capacity)
        return twin

    def fork(self) -> "InferenceEngine":
        """An engine that starts from this one's findings and propagation.

        The fork shares the tree and the calibrated state; its own
        repropagations build new states (an incremental one copies the
        buffer first), so changing the fork's findings and querying it
        leaves this engine, its state and its buffer bit-identical.  A
        state with stale cliques would be topped up in place, so that one
        is copied up front.
        """
        with self._lock:
            twin = self.sharing(self.jt)
            twin.set_evidence(self.evidence)
            state = self._state
            if state is not None and self._stale:
                state = state.copy()
            twin._state = state
            twin._stale = set(self._stale)
            twin._resilience = self._resilience
            if self._evidence_token == (
                id(self.evidence), self.evidence.version
            ):
                twin._mark_synced()
            return twin

    # ------------------------------------------------------------------ #
    # Evidence
    # ------------------------------------------------------------------ #

    def set_evidence(self, assignments: Union[Evidence, Mapping[int, int]]):
        """Replace the evidence set; queries will repropagate as needed.

        The previous propagation is kept so the next run can reuse the
        parts of the tree whose findings did not change.
        """
        with self._lock:
            if isinstance(assignments, Evidence):
                self.evidence = Evidence(assignments.as_dict())
                for var, weights in assignments.soft_as_dict().items():
                    self.evidence.observe_soft(var, weights)
            else:
                self.evidence = Evidence(assignments)
            return self

    def observe(self, variable: int, state: int) -> "InferenceEngine":
        """Add one observation; queries will repropagate as needed."""
        with self._lock:
            self.evidence.observe(variable, state)
        return self

    def observe_soft(self, variable: int, weights) -> "InferenceEngine":
        """Attach virtual (likelihood) evidence; queries repropagate as needed."""
        with self._lock:
            self.evidence.observe_soft(variable, weights)
        return self

    def retract(self, variable: int) -> "InferenceEngine":
        """Remove the finding (hard or soft) on one variable, if any."""
        with self._lock:
            self.evidence.retract(variable)
        return self

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def propagate(
        self, executor=None, resilience=None, trace=None, incremental="auto",
        deadline=None,
    ) -> PropagationState:
        """Run two-phase evidence propagation; returns the calibrated state.

        ``executor`` is any object with
        ``run(task_graph, state, tracer=None, deadline=None)``; defaults
        to :class:`~repro.sched.serial.SerialExecutor`.

        ``resilience=True`` runs the executor as the first tier of a
        :class:`~repro.sched.resilient.ResilientExecutor` ladder (rollback
        and step down to serial, NaN/Inf health guard, log-space underflow
        rescue).  The steps taken, if any, land in
        ``self.last_stats.degradations``.

        ``trace`` enables the span tracer (:mod:`repro.obs`): pass ``True``
        to record a :class:`~repro.obs.trace.PropagationTrace` into
        ``self.last_trace``, a path to additionally save it as
        Chrome-trace JSON (open in Perfetto), or a prepared
        :class:`~repro.obs.tracer.Tracer` to control its settings.

        ``incremental`` controls reuse of the previous propagation:

        * ``"auto"`` (default) — repropagate incrementally when a previous
          state exists and the findings moved by a sound, nonempty delta;
          otherwise run the full graph (an unchanged-evidence
          ``propagate()`` still re-runs fully, preserving the historical
          re-run semantics benchmarks rely on).
        * ``True`` — as ``"auto"``, but an unchanged-evidence call reuses
          the previous state outright (zero tasks when already calibrated).
        * ``False`` — always run the full graph.

        Incremental runs execute a *restricted* task graph — only the
        collect pipelines under changed cliques plus the distribute
        pipelines to stale cliques — and are numerically equivalent to a
        full run; ``self.last_stats.tasks_skipped`` records the savings.

        ``deadline`` is an absolute :func:`time.monotonic` instant
        forwarded to executors that support cooperative deadline checks;
        an overrun raises :class:`~repro.sched.faults.TaskExecutionError`
        with ``phase="deadline"`` and leaves the previous propagation
        (and the evidence-staleness bookkeeping) untouched, so the next
        call simply repropagates.
        """
        with self._lock:
            self._resilience = resilience
            return self._repropagate(
                executor=executor, resilience=resilience, trace=trace,
                incremental=incremental, deadline=deadline,
            )

    def _repropagate(
        self, targets: Optional[Set[int]] = None, executor=None,
        resilience=None, trace=None, incremental=True, deadline=None,
    ) -> PropagationState:
        """The one repropagation: plan, state, restricted graph, run, adopt.

        Brings the cached state up to the current findings with the
        distribute phase restricted to the root-to-``targets`` paths
        (``None``: every clique); cliques left out stay in ``_stale``.
        That holds for a from-scratch run too: when reuse is unsound and
        only ``targets`` are asked for, the fresh state is collected in
        full and distributed along those paths only.  Restricted graphs
        come from the tree's graph cache.  The new state replaces
        ``self._state`` only after the run succeeded.  ``incremental`` is
        :meth:`propagate`'s argument.
        """
        assignments = self.evidence.checked_against(self._cardinalities)
        soft = self.evidence.soft_as_dict()
        plan = None
        if incremental and self._state is not None:
            # None: reuse is unsound (weakening delta over zeroed
            # separators, missing collect messages) -> full propagation.
            plan = plan_incremental(self.jt, self._state, assignments, soft)
        if (
            plan is not None
            and not plan.changed_variables
            and incremental is not True
        ):
            plan = None  # "auto", same findings: full re-run semantics
        if plan is None:
            state = PropagationState(self.jt, assignments, soft)
            graph = self.task_graph
            stale: Set[int] = set()
            meta = {"mode": "full"}
            if targets is not None:
                stale = set(range(self.jt.num_cliques)) - {self.jt.root}
                edges = distribute_edges_for(self.jt, stale, targets)
                graph = table_layout(self.jt).graphs.get(self.jt, None, edges)
                stale -= {child for _, child in edges}
        else:
            if plan.changed_variables:
                state = PropagationState.incremental(
                    self._state,
                    evidence=assignments,
                    soft_evidence=soft,
                    rebuild=sorted(plan.rebuild),
                )
                # Every non-root clique is stale under the new findings.
                stale = set(range(self.jt.num_cliques)) - {self.jt.root}
            else:
                # Same findings: finish the lazy distribute on the state
                # we have (zero tasks when the targets are calibrated).
                state, stale = self._state, self._stale
            edges = distribute_edges_for(self.jt, stale, targets)
            graph = table_layout(self.jt).graphs.get(
                self.jt, plan.collect_edges, edges
            )
            stale = stale - {child for _, child in edges}
            meta = {
                "mode": "incremental",
                "dirty_cliques": len(plan.dirty),
                "rebuilt_cliques": len(plan.rebuild),
                "tasks_skipped": self.task_graph.num_tasks - graph.num_tasks,
            }
        if graph.num_tasks or state is not self._state:
            stats = self._run_graph(
                graph, state, executor=executor, resilience=resilience,
                trace=trace, meta=meta, deadline=deadline,
            )
            if plan is not None:
                stats.incremental = True
                stats.tasks_skipped = meta["tasks_skipped"]
            if stale and stats.log_likelihood is not None:
                # A log-space rescue rewrote every clique calibrated and
                # dropped the messages a distribute top-up would divide by.
                stale = set()
            self.last_stats = stats
        self._state = state
        self._stale = stale
        self._mark_synced()
        return state

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint(self, path) -> Dict[str, object]:
        """Persist the engine's calibrated state to ``path``.

        Fully calibrates first (repropagating or topping up stale cliques
        as needed), so the checkpoint always reflects the *current*
        evidence.  ``path`` may be a filesystem path or a binary
        file-like object.  Returns the embedded manifest.  Raises
        ``RuntimeError`` if the engine has never propagated.
        """
        with self._lock:
            state = self._sync()
            return state.save(path)

    def restore(self, path) -> "InferenceEngine":
        """Adopt a checkpointed state (and its evidence) from ``path``.

        The checkpoint must have been taken from an engine over the same
        junction tree — same clique scopes, topology and prior
        potentials — or loading refuses with
        :class:`~repro.integrity.checkpoint.CheckpointMismatch`; tampered
        bytes refuse with
        :class:`~repro.integrity.checkpoint.CheckpointCorrupt`.  On
        success the engine answers queries bit-identically to the engine
        that saved, without repropagating.
        """
        with self._lock:
            state = PropagationState.load(self.jt, path)
            self.evidence = Evidence(state.evidence)
            for var, weights in state.soft_evidence.items():
                self.evidence.observe_soft(var, weights)
            self._state = state
            self._stale = set()
            self._mark_synced()
        return self

    @classmethod
    def from_checkpoint(
        cls,
        junction_tree: JunctionTree,
        path,
        reroot: bool = True,
        cache_size: int = 128,
    ) -> "InferenceEngine":
        """Build an engine over ``junction_tree`` and restore ``path``.

        ``reroot`` must match the flag the checkpointing engine was built
        with — rerooting changes the tree's parent vector, which the
        checkpoint's tree signature covers.
        """
        engine = cls(junction_tree, reroot=reroot, cache_size=cache_size)
        return engine.restore(path)

    # ------------------------------------------------------------------ #
    # Query API
    # ------------------------------------------------------------------ #

    def query(
        self,
        evidence_delta: Optional[Mapping[int, object]] = None,
        vars: Optional[Iterable[int]] = None,
    ) -> Dict[int, np.ndarray]:
        """Apply an evidence delta, return posterior marginals.

        ``evidence_delta`` maps variables to their new finding: an ``int``
        observes a hard state, a sequence of weights attaches soft
        (virtual) evidence, and ``None`` retracts the variable's finding.
        The delta is applied to ``engine.evidence`` (it persists across
        calls, like :meth:`observe`).  ``vars`` selects which marginals to
        return (default: every variable in the tree).

        Repropagation is incremental and *targeted*: only the cliques on
        the paths from the root to the requested variables' host cliques
        are refreshed, everything else stays lazily stale until asked
        for.  Results are memoized in :attr:`cache` under the canonical
        evidence signature, so repeated and near-duplicate queries are
        answered without touching the tree.  The first-ever query (no
        previous propagation) runs a full serial propagation.
        """
        with self._lock:
            return self._query_locked(evidence_delta, vars)

    def _query_locked(
        self,
        evidence_delta: Optional[Mapping[int, object]] = None,
        vars: Optional[Iterable[int]] = None,
    ) -> Dict[int, np.ndarray]:
        for var, finding in (evidence_delta or {}).items():
            if finding is None:
                self.evidence.retract(var)
            elif isinstance(finding, (int, np.integer)):
                self.evidence.observe(var, int(finding))
            else:
                self.evidence.observe_soft(var, finding)

        if vars is None:
            requested = self.jt.variables()
        else:
            requested = [int(v) for v in vars]

        if self._state is None:
            self.propagate()

        signature = self.evidence.signature()
        results: Dict[int, np.ndarray] = {}
        missing = []
        for var in requested:
            cached = self.cache.get_marginal(signature, var)
            if cached is not None:
                results[var] = cached
            else:
                missing.append(var)
        if missing:
            hosts = {self.jt.host(v)[0] for v in missing}
            state = self._sync(targets=hosts)
            for var in missing:
                values = state.marginal(var)
                self.cache.put_marginal(signature, var, values)
                results[var] = values
        return results

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _mark_synced(self) -> None:
        self._evidence_token = (id(self.evidence), self.evidence.version)

    def _run_graph(
        self, graph, state, executor=None, resilience=None, trace=None,
        meta: Optional[Mapping[str, object]] = None, deadline=None,
    ) -> ExecutionStats:
        """Run ``graph`` against ``state``, handling resilience and tracing."""
        executor = executor or SerialExecutor()
        base_executor = executor
        if resilience and not isinstance(executor, ResilientExecutor):
            executor = ResilientExecutor(executor)

        tracer = None
        if trace is not None and trace is not False:
            from repro.obs.tracer import Tracer

            tracer = trace if isinstance(trace, Tracer) else Tracer()
            threshold = getattr(base_executor, "partition_threshold", None)
            if threshold is not None:
                tracer.meta["partition_threshold"] = threshold
            for key, value in (meta or {}).items():
                tracer.meta[key] = value

        stats = executor.run(graph, state, tracer=tracer, deadline=deadline)
        if tracer is not None:
            # Label the trace with the executor that actually completed
            # the run: after a ResilientExecutor ladder stepped down, the
            # requested executor's name and partition threshold would
            # mislabel it (stats.completed_executor records the survivor).
            executor_name = type(base_executor).__name__
            if stats.completed_executor:
                if stats.completed_executor != executor_name:
                    tracer.meta["requested_executor"] = executor_name
                executor_name = stats.completed_executor
                if stats.completed_partition_threshold is not None:
                    tracer.meta["partition_threshold"] = (
                        stats.completed_partition_threshold
                    )
                else:
                    tracer.meta.pop("partition_threshold", None)
            if stats.degradations:
                tracer.meta["degradations"] = [
                    str(r) for r in stats.degradations
                ]
            self.last_trace = tracer.finalize(
                graph=graph, stats=stats, executor=executor_name,
            )
            if isinstance(trace, (str, bytes)) or hasattr(
                trace, "__fspath__"
            ):
                self.last_trace.save(trace)
        return stats

    def _sync(
        self, targets: Optional[Set[int]] = None
    ) -> PropagationState:
        """Make the cached state answer queries on ``targets`` correctly.

        No propagation yet: raise (the caller never asked for one).
        Evidence unchanged and targets fresh: no-op.  Otherwise one
        :meth:`_repropagate` restricted to the targets — a distribute
        top-up, an incremental repropagation or, when reuse is unsound, a
        full one — under the resilience the last :meth:`propagate` asked for.
        """
        if self._state is None:
            raise RuntimeError(
                "no propagation results; call propagate() after setting evidence"
            )
        moved = self._evidence_token != (id(self.evidence), self.evidence.version)
        if moved or (
            self._stale and (targets is None or (targets & self._stale))
        ):
            self._repropagate(targets=targets, resilience=self._resilience)
        return self._state

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def marginal(self, variable: int) -> np.ndarray:
        """Posterior ``P(variable | evidence)``; requires propagate() first.

        Always reflects the *current* findings: if ``engine.evidence``
        changed since the last propagation (including direct mutation,
        e.g. ``engine.evidence.retract(v)``), the engine transparently
        repropagates — incrementally where sound — before answering.
        """
        with self._lock:
            signature = self.evidence.signature()
            cached = self.cache.get_marginal(signature, variable)
            if cached is not None and self._state is not None:
                return cached
            host, _axis = self.jt.host(variable)
            values = self._sync(targets={host}).marginal(variable)
            self.cache.put_marginal(signature, variable, values)
            return values

    def marginals_all(self) -> Dict[int, np.ndarray]:
        """Posterior of every variable in the tree, keyed by variable id."""
        with self._lock:
            return self._sync().marginals_all()

    def clique_marginal(self, clique: int):
        """Normalized joint over one clique's scope."""
        with self._lock:
            return self._sync(targets={clique}).clique_marginal(clique)

    def joint_marginal(self, variables: Iterable[int]):
        """Normalized joint posterior over ``variables``.

        The variables must share a clique (raises ``KeyError`` otherwise
        — exact joints across cliques would need an out-of-tree
        multiplication this engine deliberately does not do).  Used by
        the streaming layer to extract the forward-interface joint when a
        filtering window retires slices.
        """
        from repro.potential.primitives import marginalize

        wanted = sorted(int(v) for v in variables)
        if not wanted:
            raise ValueError("joint_marginal needs at least one variable")
        with self._lock:
            host = self.jt.clique_containing(wanted)
            table = self._sync(targets={host}).clique_marginal(host)
            return marginalize(table, wanted).aligned_to(wanted).normalize()

    def likelihood(self) -> float:
        """Probability of the evidence, ``P(e)``."""
        with self._lock:
            signature = self.evidence.signature()
            cached = self.cache.get_likelihood(signature)
            if cached is not None and self._state is not None:
                return cached
            value = self._sync(targets={self.jt.root}).likelihood()
            self.cache.put_likelihood(signature, value)
            return value

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(cliques={self.jt.num_cliques}, "
            f"tasks={self.task_graph.num_tasks}, root={self.jt.root})"
        )
