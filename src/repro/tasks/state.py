"""Mutable numeric state threaded through task execution.

A :class:`PropagationState` owns **one flat float64 buffer** holding every
table of a propagation — the working clique potentials (evidence absorbed),
the per-edge separators and the ``sep_new`` / ``ratio`` / ``extended``
intermediates of each message pipeline — at the offsets
:func:`repro.tasks.layout.table_layout` fixes once per junction tree.
Every table is a :class:`~repro.potential.table.PotentialTable` *view*
into that buffer, bound once per buffer into a list indexed by the
layout's slot index; ``potentials``, ``separators`` and the intermediates
are those same views, and every task writes its result in place into the
slot the layout names.  Executing the tasks of a
:class:`~repro.tasks.task.TaskGraph` in any order consistent with its
dependencies leaves every clique potential calibrated.

There is one body per step kind, :func:`_apply`, one per wave kind,
:func:`_run_wave`, and the primitives they call — by their module-level
names, which a tracer may rebind — are the only arithmetic.
:meth:`run_steps` is the straight-line run: it walks a graph's compiled
step list (:meth:`repro.tasks.layout.TableLayout.step_list`) in order,
with the deadline check and the optional per-step trace span in the same
loop.  :meth:`run_waves` runs a tree's full graph compiled into waves
(:meth:`repro.tasks.layout.TableLayout.wave_list`): one numpy call per
primitive kind per level of the DAG for every task whose tables are
small, the wide tasks as steps between them, the deadline checked once
per wave — bitwise the result of :meth:`run_steps`.  :meth:`execute` runs
one task through the step body (the threaded executors' unit of work),
:meth:`execute_chunk` one slice of it (the Partition module), and
:meth:`combine_chunks` is the last subtask ``T̂_n`` — an addition for
marginalization, nothing for the primitives whose chunks already wrote
their disjoint output slices.  :meth:`marginals_all` reads every
posterior with one MARGINALIZE wave over the small host cliques.

**State entry.**  The constructor fills the clique region with one
copy of the tree's prior image
(:meth:`~repro.jt.junction_tree.JunctionTree.prior_image`), multiplies
every entry a hard finding rules out by zero through the finding's
compiled entries (:meth:`~repro.tasks.layout.TableLayout.finding`), then
multiplies the soft findings into their host cliques and sets the
separators to ones: no primitive runs, and the bits are those
:meth:`PotentialTable.reduce` would leave.  :meth:`incremental` reduces
the rebuilt cliques' slices of the same image.

**Buffer reuse.**  A state built here — by the constructor,
:meth:`incremental` or :meth:`copy` — takes its buffer, views already
bound, from the layout's :class:`~repro.tasks.layout.FreeList`, and hands
it back when the state becomes unreachable (its finalizer), unless a
table, a view or the buffer of the dead state is still referenced from
outside, or the list was cleared since the take (a closed session pool):
then the buffer is simply left to the garbage collector.  The check
reads the reference counts of the buffer, the table list, every table
and every view's array (listed once per buffer, ``_Views.arrays``)
against the counts taken when the buffer was new.  A reused buffer
still holds another propagation's bytes in every slot no task of this
state has written, the clique and separator slots excepted (the entry
above rewrites them all); such a slot is *absent* (not in ``_inter``),
is never read, and the checkpoint packs it as zeros.  A state made by
:meth:`over` adopts a vector someone else allocated (the process
executor's shared-memory arena, a loaded checkpoint) and never gives it
to the list.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from operator import attrgetter
from time import monotonic, perf_counter_ns
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential import partition as chunked
from repro.potential.primitives import (
    Entries,
    PrimitiveKind,
    Wave,
    divide,
    extend,
    marginalize,
    multiply,
)
from repro.potential.table import PotentialTable
from repro.tasks.layout import (
    Finding,
    InterKey,
    Step,
    StepList,
    TableLayout,
    WaveList,
    table_layout,
    table_view,
)
from repro.tasks.task import COLLECT, Task, TaskGraph

_values = attrgetter("values")
MARGINALIZE = PrimitiveKind.MARGINALIZE
DIVIDE = PrimitiveKind.DIVIDE
EXTEND = PrimitiveKind.EXTEND


def _apply(tables: List[PotentialTable], step: Step) -> None:
    """Run one step (Eq. 1, in place) against a state's slot-indexed
    tables: the one body of every task kind."""
    code, source, other, out, plan, _written = step
    if code is MARGINALIZE:
        # The message flows from the other end of the edge into the
        # clique the pipeline updates.
        marginalize(tables[source], plan.onto, out=tables[out], plan=plan)
    elif code is DIVIDE:
        sep_new = tables[source]
        sep = tables[other]
        divide(sep_new, sep, out=tables[out], plan=plan)
        sep.values[...] = sep_new.values
    elif code is EXTEND:
        extend(
            tables[source], plan.target, plan.target_cards, out=tables[out],
            plan=plan,
        )
    else:
        target = tables[out]
        multiply(target, tables[source], out=target, plan=plan)


def _run_wave(buffer: np.ndarray, wave: Wave) -> None:
    """Run one wave (Eq. 1 for all its tasks, in place) against a state's
    flat buffer: the body of every wave kind, :func:`_apply`'s twin."""
    code = wave.code
    out = Entries(buffer, wave.out)
    if code is MARGINALIZE:
        marginalize(Entries(buffer, wave.source), None, out=out, plan=wave)
    elif code is DIVIDE:
        divide(
            Entries(buffer, wave.source), Entries(buffer, wave.other),
            out=out, plan=wave,
        )
        buffer[wave.other] = buffer[wave.source]
    elif code is EXTEND:
        extend(Entries(buffer, wave.source), None, None, out=out, plan=wave)
    else:
        multiply(out, Entries(buffer, wave.source), out=out, plan=wave)


def _absorb(buffer: np.ndarray, finding: Finding) -> None:
    """Multiply every entry a hard finding rules out by zero, in place:
    bitwise what :meth:`PotentialTable.reduce`'s mask multiply leaves,
    NaN, inf and -0.0 included (a consistent entry times one is itself)."""
    buffer[finding.small] *= 0.0
    for start, stop, step, cols, lo, hi in finding.wide:
        if cols:
            buffer[start:stop].reshape(-1, cols)[:, lo:hi] *= 0.0
        else:
            buffer[start:stop:step] *= 0.0


class Posteriors(Mapping):
    """The posterior of every variable of a tree, as one read
    (:meth:`PropagationState.marginals_all`): a read-only mapping from
    variable id, ascending, to its posterior vector.  The vectors lie end
    to end in one flat array, ``values``, and each lookup is a view into
    it, so an answer kept costs one array, not one per variable."""

    __slots__ = ("values", "_parts")

    def __init__(self, values: np.ndarray, parts: Mapping[int, slice]):
        self.values = values
        self._parts = parts

    def __getitem__(self, variable: int) -> np.ndarray:
        return self.values[self._parts[variable]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __repr__(self) -> str:
        return f"Posteriors({len(self._parts)} variables)"


class _Views:
    """A flat buffer with a table view bound to every slot of its layout.

    ``tables`` is slot-indexed; ``potentials``, ``separators`` and
    ``inter`` hold the same views keyed as a state exposes them (each
    state copies the dicts, never shares them).  ``clean`` is
    :meth:`refcounts` as taken when nothing but this object referred to
    the views: a buffer whose counts exceed it has a reader outside.
    """

    __slots__ = ("buffer", "tables", "arrays", "potentials", "separators",
                 "inter", "clean")

    def __init__(self, layout: TableLayout, buffer: np.ndarray):
        self.buffer = buffer
        tables = [table_view(buffer, slot) for slot in layout.slots]
        self.tables = tables
        # Every view's array, listed once so the guard reads no attribute.
        self.arrays = tuple(map(_values, tables))
        self.potentials = dict(enumerate(tables[:len(layout.potentials)]))
        self.separators = {
            edge: tables[at] for edge, at in layout.separator_at.items()
        }
        self.inter = {key: tables[at] for key, at in layout.inter_at.items()}
        self.clean = None

    @classmethod
    def recyclable(cls, layout: TableLayout) -> "_Views":
        """Views over a new buffer, ``clean`` recorded."""
        views = cls(layout, np.zeros(layout.size))
        views.clean = views.refcounts()
        return views

    def refcounts(self) -> Tuple[int, int, int, int]:
        """References to the buffer and the table list, and the most to
        any one table and any one view: every view refers to the buffer,
        so anything that can still reach its bytes shows in one of them."""
        tables = self.tables
        return (
            sys.getrefcount(self.buffer),
            sys.getrefcount(tables),
            max(map(sys.getrefcount, tables), default=0),
            max(map(sys.getrefcount, self.arrays), default=0),
        )


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
        self._bind_recycled(jt, evidence, soft_evidence, ())
        # Evidence is absorbed up front (instantiating the observed
        # variables zeroes inconsistent entries; soft findings multiply
        # their likelihood vector into one host clique), leaving the
        # tree's prior potentials untouched.
        self._load_priors(None)
        # Separator tables start as the identity so the first DIVIDE in the
        # collect phase passes the marginal through unchanged.
        buffer = self.buffer
        for index in self._layout.separator_reset:
            buffer[index] = 1.0

    def _bind(
        self,
        jt: JunctionTree,
        views: _Views,
        evidence,
        soft_evidence,
        computed: Optional[Iterable[InterKey]],
    ) -> None:
        """Make ``views`` (a buffer and its bound tables) this state's.

        ``computed`` names the pipeline intermediates that count as
        present (``None``: all).  A slot no task has written stays *absent*
        from ``_inter`` although its bytes exist: presence means "this
        message was computed" to the incremental planner and the checkpoint.
        """
        layout = table_layout(jt)
        self.jt = jt
        self.evidence = dict(evidence or {})
        self.soft_evidence = dict(soft_evidence or {})
        self.buffer = views.buffer
        self._layout = layout
        self._views = views
        # Set by _bind_recycled: the free list this state's buffer goes
        # back to when the state dies, and the list's epoch at the take.
        self._free = None
        self._epoch = 0
        self._tables = views.tables
        # Eq. 1 compiled per task.
        self._steps = layout.steps()
        self.potentials: Dict[int, PotentialTable] = dict(views.potentials)
        self.separators: Dict[Tuple[int, int], PotentialTable] = dict(
            views.separators
        )
        # Message-pipeline intermediates keyed by (phase, edge, stage).
        inter = views.inter
        self._inter: Dict[InterKey, PotentialTable] = (
            dict(inter) if computed is None
            else {key: inter[key] for key in computed}
        )

    def _bind_recycled(
        self, jt: JunctionTree, evidence, soft_evidence, computed
    ) -> None:
        """Bind a buffer from the layout's free list (a new one when the
        list is empty), to be handed back by ``__del__``."""
        layout = table_layout(jt)
        free = layout.free
        epoch = free.epoch
        views = free.take()
        if views is None:
            views = _Views.recyclable(layout)
        self._bind(jt, views, evidence, soft_evidence, computed)
        self._free = free
        self._epoch = epoch

    def __del__(self):
        free = self.__dict__.get("_free")
        if free is None:
            return
        views = self._views
        epoch = self._epoch
        # Drop this state's own references to its tables first: what is
        # left above the clean counts is a reader outside the dead state.
        self.__dict__.clear()
        if views.refcounts() == views.clean:
            free.put(views, epoch)

    @classmethod
    def over(
        cls,
        jt: JunctionTree,
        buffer: np.ndarray,
        evidence: Optional[Mapping[int, int]] = None,
        soft_evidence: Optional[Mapping[int, "np.ndarray"]] = None,
        computed: Optional[Iterable[InterKey]] = None,
    ) -> "PropagationState":
        """A state whose tables are views into ``buffer``, adopted uncopied.

        ``buffer`` is a flat float64 vector in ``table_layout(jt)`` order: a
        shared-memory arena another state was copied into, or the vector a
        checkpoint packed.  ``computed`` lists the intermediates that were
        written (default: every one, which a worker attached to a running
        propagation must assume — the task graph orders the accesses).
        The buffer stays the caller's: it never enters the free list.
        """
        layout = table_layout(jt)
        size = layout.size
        if (buffer.dtype, buffer.shape, buffer.flags.c_contiguous) != (
            np.float64, (size,), True
        ):
            raise ValueError(
                f"state buffer must be a flat float64 vector of {size} "
                f"entries, got {buffer.dtype} {buffer.shape}"
            )
        state = cls.__new__(cls)
        state._bind(
            jt, _Views(layout, buffer), evidence, soft_evidence, computed
        )
        return state

    def _load_priors(self, cliques: Optional[set]) -> None:
        """(Re)build the working potentials of ``cliques`` (a set; None:
        every clique) from the tree's prior image with the evidence
        absorbed.  A full state copies the whole image and zeroes each
        hard finding's compiled entries; a rebuilt clique reduces its
        slice of the image."""
        layout = self._layout
        buffer = self.buffer
        image = self.jt.prior_image()
        if cliques is None:
            np.copyto(buffer[:layout.cliques_end], image)
            for var, state in self.evidence.items():
                _absorb(buffer, layout.finding(var, state))
        else:
            for i in cliques:
                prior = table_view(image, layout.potentials[i])
                prior.reduce(self.evidence, out=self.potentials[i])
        for var, weights in self.soft_evidence.items():
            host, axis = self.jt.host(var)
            if cliques is not None and host not in cliques:
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
    # Incremental construction (reuse a previous run's tables)
    # ------------------------------------------------------------------ #

    def _copied(self, evidence, soft_evidence) -> "PropagationState":
        """A new state holding a copy of this one's bytes and written
        intermediates, under the given findings."""
        state = type(self).__new__(type(self))
        state._bind_recycled(self.jt, evidence, soft_evidence, self._inter)
        np.copyto(state.buffer, self.buffer)
        return state

    def copy(self) -> "PropagationState":
        """An independent state with this one's findings, tables and
        written intermediates: writing either never changes the other."""
        return self._copied(self.evidence, self.soft_evidence)

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
        state = prev._copied(evidence, soft_evidence)
        jt = prev.jt
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
        checksum).
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
    # Task execution: one in-place body per step kind
    # ------------------------------------------------------------------ #

    def step_list(self, graph: TaskGraph) -> StepList:
        """``graph`` compiled for this state's layout (once per graph)."""
        return self._layout.step_list(graph)

    def run_steps(
        self, steps: StepList, trace=None, deadline: Optional[float] = None
    ) -> Tuple[int, int]:
        """The straight-line run: every step of ``steps``, in order.

        ``trace`` is a span buffer that receives one ``task`` span per
        step (steps are then timed one by one; untraced, the loop is timed
        as a whole).  ``deadline``, an absolute :func:`time.monotonic`
        instant, is checked before every step; past it the run stops.
        Returns ``(steps run, nanoseconds inside the steps)``.  The
        intermediates of the steps that completed count as written, even
        when a later step raised.
        """
        tables = self._tables
        tids = steps.tids
        done = 0
        start = perf_counter_ns()
        compute_ns = 0
        try:
            for step in steps.steps:
                if deadline is not None and monotonic() >= deadline:
                    break
                if trace is None:
                    _apply(tables, step)
                else:
                    t0 = perf_counter_ns()
                    _apply(tables, step)
                    t1 = perf_counter_ns()
                    compute_ns += t1 - t0
                    trace.task_span("task", tids[done], t0, t1)
                done += 1
        finally:
            self._mark_written(steps, done)
        if trace is None:
            compute_ns = perf_counter_ns() - start
        return done, compute_ns

    def wave_list(self, graph: TaskGraph) -> Optional[WaveList]:
        """``graph`` compiled into waves for this state's layout, or None
        when it runs as a step list (see
        :meth:`~repro.tasks.layout.TableLayout.wave_list`)."""
        return self._layout.wave_list(graph)

    def run_waves(
        self, waves: WaveList, deadline: Optional[float] = None
    ) -> Tuple[int, int]:
        """The level-synchronous run: every unit of ``waves``, in order.

        ``deadline``, an absolute :func:`time.monotonic` instant, is
        checked before every unit (a wave, or a wide task's step); past it
        the run stops.  Returns ``(tasks run, nanoseconds of the run)``.
        The intermediates of the units that completed count as written,
        even when a later unit raised.
        """
        buffer = self.buffer
        tables = self._tables
        done = 0
        start = perf_counter_ns()
        try:
            for unit in waves.units:
                if deadline is not None and monotonic() >= deadline:
                    break
                if type(unit) is Wave:
                    _run_wave(buffer, unit)
                else:
                    _apply(tables, unit)
                done += 1
        finally:
            inter = self._inter
            if done == len(waves.units) and waves.writes_all:
                inter.update(self._views.inter)
            else:
                for keys, outs in waves.written[:done]:
                    inter.update(zip(keys, map(tables.__getitem__, outs)))
        return sum(map(len, waves.tids[:done])), perf_counter_ns() - start

    def _mark_written(self, steps: StepList, done: int) -> None:
        """Count the intermediates the first ``done`` steps wrote as
        present."""
        inter = self._inter
        tables = self._tables
        for step in steps.steps[:done]:
            if step.written is not None:
                inter[step.written] = tables[step.out]

    def output_table(self, task: Task) -> PotentialTable:
        """The table ``task`` writes, counted present from now on.

        MARGINALIZE / DIVIDE / EXTEND write the ``sep_new`` / ``ratio`` /
        ``extended`` intermediate of their pipeline; MULTIPLY updates the
        potential of the clique the pipeline targets.
        """
        step = self._step(task)
        table = self._tables[step.out]
        if step.written is not None:
            self._inter[step.written] = table
        return table

    def _step(self, task: Task) -> Step:
        try:
            return self._steps[(task.phase, task.edge, task.kind)]
        except KeyError:
            raise ValueError(
                f"task {task} is not a task of this state's tree"
            ) from None

    def mark_computed(self, tasks: Iterable[Task]) -> None:
        """Count the tables ``tasks`` write as present: the bookkeeping of
        :meth:`execute`, for an executor whose arithmetic ran in another
        address space (the process tier copies its arena back into
        ``buffer``)."""
        for task in tasks:
            self.output_table(task)

    def execute(self, task: Task) -> None:
        """Run one task to completion against the state (Eq. 1, in place):
        the step :meth:`run_steps` would run for it."""
        step = self._step(task)
        _apply(self._tables, step)
        if step.written is not None:
            self._inter[step.written] = self._tables[step.out]

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
        code, source, other, _out, plan, _written = self._step(task)
        tables = self._tables
        if code is MARGINALIZE:
            partial = chunked.marginalize_chunk(
                tables[source], plan.onto, lo, hi
            )
            return partial.values.reshape(-1)
        out = self.output_table(task)
        out_flat = out.values.reshape(-1)
        if code is DIVIDE:
            sep_new = tables[source].values.reshape(-1)
            sep = tables[other].values.reshape(-1)
            chunked.divide_chunk_into(out_flat, sep_new, sep, lo, hi)
            # The old separator slice is consumed above; promote the new one.
            sep[lo:hi] = sep_new[lo:hi]
        elif code is EXTEND:
            chunked.extend_chunk_into(
                out_flat, tables[source], out.variables, out.cardinalities,
                lo, hi,
            )
        else:
            extended = tables[source].values.reshape(-1)
            chunked.multiply_chunk_into(out_flat, extended, lo, hi)
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
        if self._step(task).code is MARGINALIZE:
            chunked.add_partials_into(
                self.output_table(task).values.reshape(-1), parts
            )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def marginal(self, variable: int) -> np.ndarray:
        """Posterior ``P(variable | evidence)`` after full propagation."""
        host, _axis = self.jt.host(variable)
        plan = self._layout.answer(host, variable)
        table = marginalize(self.potentials[host], (variable,), plan=plan)
        return table.normalize().values

    def marginals_all(self) -> Posteriors:
        """Posterior of every variable of the tree, by variable id: one
        MARGINALIZE wave sums every variable hosted by a small clique, one
        ``add.reduceat`` normalizes them (an all-zero posterior stays
        zero, as in :meth:`marginal`); a variable on a wide host is read
        on its own, as :meth:`marginal` reads it."""
        reads = self._layout.reads(self.jt)
        values = np.empty(reads.size)
        wave = reads.wave
        if wave is not None:
            sums = marginalize(
                Entries(self.buffer, wave.source), None, plan=wave
            ).values
            totals = np.add.reduceat(sums, reads.starts)
            totals[totals <= 0] = 1.0
            np.divide(
                sums, np.repeat(totals, reads.cards), out=values[:wave.size]
            )
        for var in reads.wide:
            values[reads.parts[var]] = self.marginal(var)
        return Posteriors(values, reads.parts)

    def clique_marginal(self, clique: int) -> PotentialTable:
        """Normalized joint over one clique's scope."""
        return self.potentials[clique].normalize()

    def likelihood(self) -> float:
        """Probability of the evidence ``P(e)`` (root mass after collect)."""
        return self.potentials[self.jt.root].total()
