"""Mutable numeric state threaded through task execution.

A :class:`PropagationState` owns **one flat float64 buffer** holding every
table of a propagation — the working clique potentials (evidence absorbed),
the per-edge separators and the ``sep_new`` / ``ratio`` / ``extended``
intermediates of each message pipeline — at the offsets
:func:`repro.tasks.layout.table_layout` fixes once per junction tree.
``potentials``, ``separators`` and the intermediates are
:class:`~repro.potential.table.PotentialTable` *views* into that buffer,
and every task writes its result in place into the slot the layout names.
Executing the tasks of a :class:`~repro.tasks.task.TaskGraph` in any order
consistent with its dependencies leaves every clique potential calibrated.

There is one body per task kind, and the primitives it calls are the
only arithmetic: :meth:`execute` passes each one the plan the layout
compiled for its (phase, edge) — the same call a plan-free caller makes,
minus the per-call scope arithmetic.  :meth:`execute` runs a whole task,
:meth:`execute_chunk` one slice of it (the Partition module), and
:meth:`combine_chunks` is the last subtask ``T̂_n`` — an addition for
marginalization, nothing for the primitives whose chunks already wrote
their disjoint output slices.  Who allocated the buffer is the only
difference between executors: :meth:`over` adopts any float64 vector, so
the process executor runs this same class over a shared-memory arena and
a checkpoint restores by adopting the vector it loaded.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential import partition as chunked
from repro.potential.primitives import (
    PrimitiveKind,
    divide,
    extend,
    marginalize,
    multiply,
)
from repro.potential.table import PotentialTable
from repro.tasks.layout import InterKey, table_layout, table_view
from repro.tasks.task import COLLECT, Task

# The pipeline intermediate each primitive writes (MULTIPLY updates the
# target clique potential instead).
_STAGE = {
    PrimitiveKind.MARGINALIZE: "sep_new",
    PrimitiveKind.DIVIDE: "ratio",
    PrimitiveKind.EXTEND: "extended",
}


class PropagationState:
    """Numeric state for one evidence-propagation run over a junction tree."""

    def __init__(
        self,
        jt: JunctionTree,
        evidence: Optional[Mapping[int, int]] = None,
        soft_evidence: Optional[Mapping[int, "np.ndarray"]] = None,
    ):
        if len(jt.potentials) != jt.num_cliques:
            raise ValueError(
                "junction tree has no potentials; call initialize_potentials()"
            )
        buffer = np.zeros(table_layout(jt).size)
        self._bind(jt, buffer, evidence, soft_evidence, None, ())
        # Evidence is absorbed up front (instantiating the observed
        # variables zeroes inconsistent entries; soft findings multiply
        # their likelihood vector into one host clique), leaving the
        # tree's prior potentials untouched.
        self._load_priors(range(jt.num_cliques))
        # Separator tables start as the identity so the first DIVIDE in the
        # collect phase passes the marginal through unchanged.
        for table in self.separators.values():
            table.values.fill(1.0)

    def _bind(
        self,
        jt: JunctionTree,
        buffer: np.ndarray,
        evidence,
        soft_evidence,
        batch: Optional[int],
        computed: Optional[Iterable[InterKey]],
    ) -> None:
        """Make ``buffer`` this state's storage and build the table views.

        ``computed`` names the pipeline intermediates that count as
        present (``None``: all).  A slot no task has written stays *absent*
        from ``_inter`` although its bytes exist: presence means "this
        message was computed" to the incremental planner and the checkpoint.
        """
        layout = table_layout(jt)
        size = layout.size * (1 if batch is None else batch)
        if (buffer.dtype, buffer.shape, buffer.flags.c_contiguous) != (
            np.float64, (size,), True
        ):
            raise ValueError(
                f"state buffer must be a flat float64 vector of {size} "
                f"entries, got {buffer.dtype} {buffer.shape}"
            )
        self.jt = jt
        self.evidence = dict(evidence or {})
        self.soft_evidence = dict(soft_evidence or {})
        # Single-case unless built via batched()/from_cases().
        self.batch = batch
        self.case_evidence = None
        self.buffer = buffer
        self._layout = layout
        self._slots = layout.inter
        # Eq. 1 compiled per (phase, edge): the plans execute() hands the
        # primitives.
        self._pipelines = layout.pipelines(batch is not None)
        self.potentials: Dict[int, PotentialTable] = {
            i: table_view(buffer, slot, batch)
            for i, slot in enumerate(layout.potentials)
        }
        self.separators: Dict[Tuple[int, int], PotentialTable] = {
            edge: table_view(buffer, slot, batch)
            for edge, slot in layout.separators.items()
        }
        # Message-pipeline intermediates keyed by (phase, edge, stage).
        self._inter: Dict[InterKey, PotentialTable] = {
            key: table_view(buffer, self._slots[key], batch)
            for key in (self._slots if computed is None else computed)
        }

    @classmethod
    def over(
        cls,
        jt: JunctionTree,
        buffer: np.ndarray,
        evidence: Optional[Mapping[int, int]] = None,
        soft_evidence: Optional[Mapping[int, "np.ndarray"]] = None,
        batch: Optional[int] = None,
        computed: Optional[Iterable[InterKey]] = None,
    ) -> "PropagationState":
        """A state whose tables are views into ``buffer``, adopted uncopied.

        ``buffer`` is a flat float64 vector in ``table_layout(jt)`` order: a
        shared-memory arena another state was copied into, or the vector a
        checkpoint packed.  ``computed`` lists the intermediates that were
        written (default: every one, which a worker attached to a running
        propagation must assume — the task graph orders the accesses).
        """
        state = cls.__new__(cls)
        state._bind(jt, buffer, evidence, soft_evidence, batch, computed)
        return state

    def _load_priors(self, cliques) -> None:
        """(Re)build the working potentials of ``cliques`` (a range or set)
        from the tree's priors with the evidence absorbed."""
        for i in cliques:
            table = self.potentials[i]
            prior = self.jt.potential(i)
            if prior.variables != table.variables:
                prior = prior.aligned_to(table.variables)
            prior.reduce(self.evidence, out=table)
        for var, weights in self.soft_evidence.items():
            host, axis = self.jt.host(var)
            if host not in cliques:
                continue
            table = self.potentials[host]
            weights = np.asarray(weights, dtype=np.float64)
            if weights.size != table.cardinalities[axis]:
                raise ValueError(
                    f"soft evidence for variable {var} has {weights.size} "
                    f"weights, variable has {table.cardinalities[axis]} states"
                )
            shape = [1] * len(table.cardinalities)
            shape[axis] = weights.size
            table.values *= weights.reshape(shape)

    # ------------------------------------------------------------------ #
    # Batched construction (B evidence cases through one propagation)
    # ------------------------------------------------------------------ #

    @classmethod
    def batched(cls, jt: JunctionTree, cases) -> "PropagationState":
        """State carrying ``B`` independent evidence cases at once.

        ``cases`` is a sequence of ``(evidence, soft_evidence)`` pairs,
        one per case.  Each case's evidence is absorbed into its own batch
        row exactly as the single-case constructor would, so propagating
        the batched state is numerically identical to ``B`` separate runs.
        """
        cases = list(cases)
        if not cases:
            raise ValueError("batched state needs at least one case")
        singles = [
            cls(jt, evidence=ev, soft_evidence=soft) for ev, soft in cases
        ]
        return cls.from_cases(singles)

    @classmethod
    def from_cases(cls, states: Sequence["PropagationState"]) -> "PropagationState":
        """Stack single-case states over the same tree into a batched state.

        Works on fresh states (before propagation) and on propagated ones —
        the engine's per-case fallback path uses the latter to return a
        batched state from ``B`` individual runs.  Intermediates are only
        present for keys present in *every* case.
        """
        states = list(states)
        if not states:
            raise ValueError("from_cases needs at least one state")
        jt = states[0].jt
        for s in states:
            if s.jt is not jt:
                raise ValueError("all cases must share one junction tree")
            if s.batch is not None:
                raise ValueError("from_cases expects single-case states")
        shared_keys = set(states[0]._inter)
        for s in states[1:]:
            shared_keys &= set(s._inter)
        batch = len(states)
        buffer = np.zeros(table_layout(jt).size * batch)
        state = cls.over(jt, buffer, batch=batch, computed=shared_keys)
        state.case_evidence = [
            (dict(s.evidence), dict(s.soft_evidence)) for s in states
        ]
        # Every single-case buffer has the same layout, so each slot of the
        # batched buffer is its B single-case slots stacked batch-major.
        for row, s in enumerate(states):
            for stacked, single in (
                (state.potentials, s.potentials),
                (state.separators, s.separators),
                (state._inter, s._inter),
            ):
                for key, table in stacked.items():
                    table.values[row] = single[key].values
        return state

    # ------------------------------------------------------------------ #
    # Incremental construction (reuse a previous run's tables)
    # ------------------------------------------------------------------ #

    @classmethod
    def incremental(
        cls,
        prev: "PropagationState",
        evidence: Optional[Mapping[int, int]] = None,
        soft_evidence: Optional[Mapping[int, "np.ndarray"]] = None,
        rebuild: Sequence[int] = (),
    ) -> "PropagationState":
        """State for a *restricted* repropagation reusing ``prev``'s tables.

        The new state starts as one copy of ``prev``'s buffer (never an
        alias of it: a failed run must leave ``prev`` bit-identical).
        ``rebuild`` names the cliques whose evidence context changed (the
        dirty set plus its root-ward closure).  Their working potentials
        are reconstructed from the tree's prior potentials with the *new*
        evidence absorbed, then re-charged with the stored collect message
        ``mu[c -> i]`` (``_inter[(COLLECT, (i, c), "sep_new")]``) of every
        *clean* child — those messages depend only on evidence inside the
        child's subtree, which is unchanged by definition of the closure.
        Separators under rebuilt cliques reset to ones so a fresh collect
        pipeline passes its marginal straight through; every other table is
        carried over from ``prev``, making the skipped pipelines exact
        no-ops.

        Raises ``KeyError`` if ``prev`` lacks a stored collect message that
        a rebuilt clique needs (it never completed a collect phase over
        that edge); callers treat that as "fall back to full propagation".
        """
        if prev.batch is not None:
            raise ValueError(
                "incremental repropagation needs a single-case previous "
                "state; batched runs must repropagate from scratch"
            )
        jt = prev.jt
        state = cls.over(
            jt, prev.buffer.copy(), evidence, soft_evidence,
            computed=prev._inter,
        )
        rebuild_set = set(rebuild)
        state._load_priors(rebuild_set)
        for i in rebuild_set:
            for c in jt.children[i]:
                if c in rebuild_set:
                    continue  # a fresh collect pipeline will deliver mu
                mu = state._inter[(COLLECT, (i, c), "sep_new")]
                multiply(state.potentials[i], mu, out=state.potentials[i])
        for edge, table in state.separators.items():
            if edge[1] in rebuild_set:
                table.values.fill(1.0)
        return state

    @property
    def nbytes(self) -> int:
        """Resident bytes of this state's tables: its buffer.

        Covers the working clique potentials, the separators and every
        pipeline intermediate slot.  The model registry charges each
        pooled session's state at this cost against its global memory
        budget.
        """
        return self.buffer.nbytes

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def save(self, path) -> Dict[str, object]:
        """Checkpoint this state to ``path`` (npz archive + manifest).

        ``path`` may be a filesystem path or a binary file-like object.
        Returns the embedded manifest.  See
        :mod:`repro.integrity.checkpoint` for the format and guarantees
        (bit-identical restore, tree/evidence signatures, whole-state
        checksum).  Batched states are refused.
        """
        from repro.integrity.checkpoint import save_state

        return save_state(self, path)

    @classmethod
    def load(cls, jt: JunctionTree, path) -> "PropagationState":
        """Restore a checkpointed state against ``jt``.

        Refuses checkpoints from a different tree
        (:class:`~repro.integrity.checkpoint.CheckpointMismatch`) or with
        tampered bytes
        (:class:`~repro.integrity.checkpoint.CheckpointCorrupt`).
        """
        from repro.integrity.checkpoint import load_state

        return load_state(jt, path)

    # ------------------------------------------------------------------ #
    # Task execution: one in-place body per task kind
    # ------------------------------------------------------------------ #

    def output_table(self, task: Task) -> PotentialTable:
        """The table ``task`` writes, counted present from now on.

        MARGINALIZE / DIVIDE / EXTEND write the ``sep_new`` / ``ratio`` /
        ``extended`` intermediate of their pipeline; MULTIPLY updates the
        potential of the clique the pipeline targets.
        """
        stage = _STAGE.get(task.kind)
        if stage is None:
            return self.potentials[task.clique]
        return self._written((task.phase, task.edge, stage))

    def _written(self, key: InterKey) -> PotentialTable:
        """The intermediate ``key``, its view built when first written."""
        table = self._inter.get(key)
        if table is None:
            table = self._inter[key] = table_view(
                self.buffer, self._slots[key], self.batch
            )
        return table

    def mark_computed(self, tasks: Iterable[Task]) -> None:
        """Count the tables ``tasks`` write as present: the bookkeeping of
        :meth:`execute`, for an executor whose arithmetic ran in another
        address space (the process tier copies its arena back into
        ``buffer``)."""
        for task in tasks:
            self.output_table(task)

    def execute(self, task: Task) -> None:
        """Run one task to completion against the state (Eq. 1, in place)."""
        kind = task.kind
        phase = task.phase
        edge = task.edge
        pipe = self._pipelines[(phase, edge)]
        if kind is PrimitiveKind.MARGINALIZE:
            # The message flows from the other end of the edge into the
            # clique the pipeline updates.
            out = self._written((phase, edge, "sep_new"))
            marginalize(
                self.potentials[pipe.source], out.variables, out=out,
                plan=pipe.marginalize,
            )
        elif kind is PrimitiveKind.DIVIDE:
            sep_new = self._inter[(phase, edge, "sep_new")]
            sep = self.separators[edge]
            divide(
                sep_new, sep, out=self._written((phase, edge, "ratio")),
                plan=pipe.divide,
            )
            sep.values[...] = sep_new.values
        elif kind is PrimitiveKind.EXTEND:
            out = self._written((phase, edge, "extended"))
            extend(
                self._inter[(phase, edge, "ratio")], out.variables,
                out.cardinalities, out=out, plan=pipe.extend,
            )
        elif kind is PrimitiveKind.MULTIPLY:
            out = self.potentials[task.clique]
            multiply(
                out, self._inter[(phase, edge, "extended")], out=out,
                plan=pipe.multiply,
            )
        else:
            raise ValueError(f"task {task} has unexpected kind {kind}")

    def execute_chunk(
        self, task: Task, lo: int, hi: int
    ) -> Optional[np.ndarray]:
        """Compute one slice of ``task`` (the Partition module's subtask).

        For MARGINALIZE the slice is over the *input* flat index space and
        the result is a full-size partial separator, returned for
        :meth:`combine_chunks` to add.  For the other primitives the slice
        is over the *output* flat index space and is written in place —
        chunks own disjoint slices, so nothing is returned.
        """
        kind = task.kind
        edge = task.edge
        pipe = (task.phase, edge)
        if kind is PrimitiveKind.MARGINALIZE:
            source = self._pipelines[pipe].source
            onto = self._slots[pipe + ("sep_new",)].variables
            partial = chunked.marginalize_chunk(
                self.potentials[source], onto, lo, hi
            )
            return partial.values.reshape(-1)
        out = self.output_table(task)
        out_flat = out.values.reshape(-1)
        if kind is PrimitiveKind.DIVIDE:
            sep_new = self._inter[pipe + ("sep_new",)].values.reshape(-1)
            sep = self.separators[edge].values.reshape(-1)
            chunked.divide_chunk_into(out_flat, sep_new, sep, lo, hi)
            # The old separator slice is consumed above; promote the new one.
            sep[lo:hi] = sep_new[lo:hi]
        elif kind is PrimitiveKind.EXTEND:
            ratio = self._inter[pipe + ("ratio",)]
            chunked.extend_chunk_into(
                out_flat, ratio, out.variables, out.cardinalities, lo, hi
            )
        elif kind is PrimitiveKind.MULTIPLY:
            extended = self._inter[pipe + ("extended",)].values.reshape(-1)
            chunked.multiply_chunk_into(out_flat, extended, lo, hi)
        else:
            raise ValueError(f"task {task} has unexpected kind {kind}")
        return None

    def combine_chunks(
        self,
        task: Task,
        parts: Sequence[Optional[np.ndarray]],
        ranges: Sequence[Tuple[int, int]],
    ) -> None:
        """Finish a partitioned ``task`` from its chunk results (``T̂_n``).

        Must be called with a full partition of the task's index space, in
        the order produced by :func:`repro.potential.partition.chunk_ranges`.
        Only MARGINALIZE has anything left to do — its partials add into
        the separator slot; the chunks of the other primitives already
        wrote the output in place, exactly as
        :func:`repro.tasks.partition_plan.combine_flops` models.
        """
        if len(parts) != len(ranges):
            raise ValueError("parts and ranges must have equal length")
        if task.kind is PrimitiveKind.MARGINALIZE:
            chunked.add_partials_into(
                self.output_table(task).values.reshape(-1), parts
            )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def marginal(self, variable: int) -> np.ndarray:
        """Posterior ``P(variable | evidence)`` after full propagation.

        For batched states the result has shape ``(B, card)``: row ``i``
        is the posterior of case ``i``.
        """
        host, _axis = self.jt.host(variable)
        plan = self._layout.answer(host, variable, self.batch is not None)
        table = marginalize(self.potentials[host], (variable,), plan=plan)
        return table.normalize().values

    def clique_marginal(self, clique: int) -> PotentialTable:
        """Normalized joint over one clique's scope (per case if batched)."""
        return self.potentials[clique].normalize()

    def likelihood(self):
        """Probability of the evidence ``P(e)`` (root mass after collect).

        Returns a float for single-case states, an array of shape ``(B,)``
        for batched ones.
        """
        root = self.potentials[self.jt.root]
        if self.batch is not None:
            return root.case_totals()
        return root.total()
