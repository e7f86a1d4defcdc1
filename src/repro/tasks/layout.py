"""Where the tables of one propagation live: slots in one flat buffer.

Every table a propagation over a junction tree reads or writes — the
working clique potentials, the per-edge separators, and the ``sep_new`` /
``ratio`` / ``extended`` intermediates of each (phase, edge) message
pipeline — has a fixed slot in one flat float64 vector.
:func:`table_layout` is the only place offsets are computed; the
in-process state, the process executor's shared-memory arena, the
incremental copy, the resilient snapshot and the checkpoint all hold that
one vector and read tables out of it with :func:`table_view`.

Because the slots fix the operand scopes of every task, the layout is also
where Eq. 1 is *compiled*: :meth:`TableLayout.pipelines` holds, per
(phase, edge), the plans of the four primitives
(:mod:`repro.potential.primitives`), built once per tree when the first
state over it is bound.  :meth:`TableLayout.steps` turns every task of the
tree into a :class:`Step` — its primitive kind, the *slot index* of each
operand and of the output, and the pipeline's plan — and
:meth:`TableLayout.step_list` compiles a whole task graph into its steps in
topological order, once per graph (kept on the graph, like its order).  A
state runs a step against its list of table views, one per slot, so
running a task costs no key building, no dictionary lookup and no view
construction.  Nothing about the slots, the buffer size or the checkpoint
format depends on the plans or the steps.

The layout also carries the tree's :class:`~repro.tasks.dag.GraphCache` of
restricted task graphs and its :class:`FreeList` of released state
buffers, so everything compiled from a tree's structure travels as one
object: trees that share it
(:meth:`~repro.jt.junction_tree.JunctionTree.with_priors`) share all of it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import (
    DividePlan,
    ExtendPlan,
    MarginalizePlan,
    MultiplyPlan,
    PrimitiveKind,
    plan_divide,
    plan_extend,
    plan_marginalize,
    plan_multiply,
)
from repro.potential.table import PotentialTable
from repro.tasks.dag import GraphCache
from repro.tasks.task import COLLECT, DISTRIBUTE, TaskGraph

Edge = Tuple[int, int]
InterKey = Tuple[str, Edge, str]  # (phase, (parent, child), stage)
PipeKey = Tuple[str, Edge]        # (phase, (parent, child))
StepKey = Tuple[str, Edge, PrimitiveKind]  # a task's (phase, edge, kind)

# Released buffers one layout keeps for reuse.  Two covers a
# propagation loop (the state being replaced and its successor) and two
# serving threads; every extra one is a whole buffer of resident memory.
FREE_BUFFERS = 2


class Slot(NamedTuple):
    """Location (in float64 entries) and scope of one table."""

    start: int
    size: int
    variables: Tuple[int, ...]
    cardinalities: Tuple[int, ...]


class Pipeline(NamedTuple):
    """Eq. 1 over one (phase, edge), compiled: the clique the message is
    marginalized from and the plan of each of the four primitives."""

    source: int
    marginalize: MarginalizePlan
    divide: DividePlan
    extend: ExtendPlan
    multiply: MultiplyPlan


class Step(NamedTuple):
    """One task compiled against the slot index.

    ``code`` is the primitive the step runs.  ``source`` is the slot it
    reads (the source clique for MARGINALIZE, ``sep_new`` for DIVIDE,
    ``ratio`` for EXTEND, ``extended`` for MULTIPLY), ``other`` the
    separator DIVIDE divides by and then overwrites (``-1`` for the other
    kinds), ``out`` the slot written.  ``written`` is the intermediate's
    key, or ``None`` when the step updates a clique potential.
    """

    code: PrimitiveKind
    source: int
    other: int
    out: int
    plan: Union[MarginalizePlan, DividePlan, ExtendPlan, MultiplyPlan]
    written: Optional[InterKey]


class StepList(NamedTuple):
    """A task graph compiled for one layout: ``steps[i]`` runs task
    ``tids[i]``, in topological order."""

    tids: Tuple[int, ...]
    steps: Tuple[Step, ...]


class FreeList:
    """Released buffers of one layout, at most :data:`FREE_BUFFERS`.

    ``put`` and ``take`` are single deque operations, atomic under the
    GIL, so two threads never take the same item; a ``put`` past the
    bound drops the oldest item.  :meth:`clear` lets go of every buffer
    for good: a ``put`` names the ``epoch`` its item was taken in, and an
    item taken before the last ``clear`` is dropped, not kept.  A layout
    pickled to a worker process travels with an empty list.
    """

    __slots__ = ("_items", "epoch")

    def __init__(self):
        self._items: deque = deque(maxlen=FREE_BUFFERS)
        self.epoch = 0

    def __reduce__(self):
        return (FreeList, ())

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(tuple(self._items))

    def put(self, item, epoch: int) -> None:
        """Keep ``item``, taken in ``epoch``, unless the list was cleared
        since."""
        if epoch == self.epoch:
            self._items.append(item)

    def take(self):
        """The most recently released item, or ``None``."""
        try:
            return self._items.pop()
        except IndexError:
            return None

    def clear(self) -> None:
        """Drop every kept item, and every item taken before now when it
        is put back (the owner of the tree's states let go of them).
        Meant for when no state over the tree is running."""
        self.epoch += 1
        self._items.clear()


class TableLayout:
    """The slots of every table of a propagation over one junction tree.

    ``potentials[i]`` is clique ``i``'s working potential,
    ``separators[(parent, child)]`` the edge's separator, and
    ``inter[(phase, edge, stage)]`` one pipeline intermediate (``sep_new``
    and ``ratio`` over the separator scope, ``extended`` over the scope of
    the clique the pipeline updates).  ``size`` is the entry count of the
    whole buffer.  ``slots`` lists every slot in buffer order:
    a table's position there is its *slot index* (clique ``i``'s potential
    is slot ``i``; ``separator_at`` and ``inter_at`` give the others).

    :meth:`pipelines`, :meth:`steps` and :meth:`answer` are the
    primitives' plans over these slots, each built once per tree, on first
    use; ``graphs`` holds the tree's restricted task graphs, each built on
    first use, and ``free`` the released state buffers.
    """

    __slots__ = (
        "potentials", "separators", "inter", "size", "slots", "separator_at",
        "inter_at", "_pipelines", "_steps", "_answers", "graphs", "free",
    )

    def __init__(self, jt: JunctionTree):
        self.size = 0
        self.slots: List[Slot] = []
        self._pipelines: Optional[Dict[PipeKey, Pipeline]] = None
        self._steps: Optional[Dict[StepKey, Step]] = None
        self._answers: Dict[Tuple[int, int], MarginalizePlan] = {}
        self.graphs = GraphCache()
        self.free = FreeList()

        def slot(variables, cardinalities) -> Slot:
            size = 1
            for c in cardinalities:
                size *= c
            placed = Slot(self.size, size, variables, cardinalities)
            self.size += size
            self.slots.append(placed)
            return placed

        self.potentials: List[Slot] = [
            slot(c.variables, c.cardinalities) for c in jt.cliques
        ]
        self.separators: Dict[Edge, Slot] = {}
        self.inter: Dict[InterKey, Slot] = {}
        self.separator_at: Dict[Edge, int] = {}
        self.inter_at: Dict[InterKey, int] = {}
        for child, parent in enumerate(jt.parent):
            if parent is None:
                continue
            edge = (parent, child)
            sep = jt.separator(child, parent)
            cards = jt.separator_cards(child, parent)
            self.separator_at[edge] = len(self.slots)
            self.separators[edge] = slot(sep, cards)
            # Collect updates the parent, distribute the child.
            for phase, target in ((COLLECT, parent), (DISTRIBUTE, child)):
                clique = jt.cliques[target]
                for stage, variables, cardinalities in (
                    ("sep_new", sep, cards),
                    ("ratio", sep, cards),
                    ("extended", clique.variables, clique.cardinalities),
                ):
                    key = (phase, edge, stage)
                    self.inter_at[key] = len(self.slots)
                    self.inter[key] = slot(variables, cardinalities)

    def pipelines(self) -> Dict[PipeKey, Pipeline]:
        """The compiled pipeline of every (phase, edge); built on first
        use."""
        compiled = self._pipelines
        if compiled is None:
            compiled = {}
            for (parent, child), sep in self.separators.items():
                for phase, source, target in (
                    (COLLECT, child, parent), (DISTRIBUTE, parent, child)
                ):
                    src = self.potentials[source]
                    tgt = self.potentials[target]
                    compiled[(phase, (parent, child))] = Pipeline(
                        source,
                        plan_marginalize(
                            src.variables, src.cardinalities, sep.variables
                        ),
                        plan_divide(sep.variables, sep.variables),
                        plan_extend(
                            sep.variables, sep.cardinalities,
                            tgt.variables, tgt.cardinalities,
                        ),
                        plan_multiply(
                            tgt.variables, tgt.cardinalities,
                            tgt.variables, tgt.cardinalities,
                        ),
                    )
            self._pipelines = compiled
        return compiled

    def steps(self) -> Dict[StepKey, Step]:
        """The :class:`Step` of every task of the tree, keyed by the task's
        ``(phase, edge, kind)``; built on first use."""
        compiled = self._steps
        if compiled is None:
            compiled = {}
            at = self.inter_at
            sep_at = self.separator_at
            marg, div, ext, mult = (
                PrimitiveKind.MARGINALIZE, PrimitiveKind.DIVIDE,
                PrimitiveKind.EXTEND, PrimitiveKind.MULTIPLY,
            )
            for pipe_key, pipe in self.pipelines().items():
                phase, edge = pipe_key
                sep_new = pipe_key + ("sep_new",)
                ratio = pipe_key + ("ratio",)
                extended = pipe_key + ("extended",)
                target = edge[0] if phase == COLLECT else edge[1]
                compiled[pipe_key + (marg,)] = Step(
                    marg, pipe.source, -1, at[sep_new], pipe.marginalize,
                    sep_new,
                )
                compiled[pipe_key + (div,)] = Step(
                    div, at[sep_new], sep_at[edge], at[ratio], pipe.divide,
                    ratio,
                )
                compiled[pipe_key + (ext,)] = Step(
                    ext, at[ratio], -1, at[extended], pipe.extend, extended,
                )
                compiled[pipe_key + (mult,)] = Step(
                    mult, at[extended], -1, target, pipe.multiply, None,
                )
            self._steps = compiled
        return compiled

    def step_list(self, graph: TaskGraph) -> StepList:
        """``graph`` compiled into its steps, in topological order.

        Compiled on the graph's first run over this layout and kept on the
        graph (until its next ``add_task``), so the full graph and every
        cached restricted graph compile once.
        """
        steps = self.steps()
        memo = graph._steps
        # The step table identifies the layout without the graph holding
        # the layout (whose graph cache holds the graph).
        if memo is not None and memo[0] is steps:
            return memo[1]
        tids = graph.topological_order()
        tasks = graph.tasks
        try:
            compiled = tuple(
                steps[(task.phase, task.edge, task.kind)]
                for task in map(tasks.__getitem__, tids)
            )
        except KeyError:
            raise ValueError(
                "task graph has tasks that are not tasks of this layout's tree"
            ) from None
        listed = StepList(tids, compiled)
        graph._steps = (steps, listed)
        return listed

    def answer(self, clique: int, variable: int) -> MarginalizePlan:
        """The plan of summing ``clique``'s potential down to ``variable``
        alone (a posterior marginal read from its host clique).  On a
        wide clique with at most ``SPLIT_POST`` entries after the
        variable's axis, the plan keeps that axis as a
        :class:`~repro.potential.primitives.Split`: the read is one
        strided sum per state, not an einsum."""
        key = (clique, variable)
        plan = self._answers.get(key)
        if plan is None:
            slot = self.potentials[clique]
            plan = self._answers[key] = plan_marginalize(
                slot.variables, slot.cardinalities, (variable,)
            )
        return plan


def table_layout(jt: JunctionTree) -> TableLayout:
    """The layout of ``jt``, computed once per tree and kept on it.

    It depends only on the clique scopes and the parent vector, which a
    :class:`~repro.jt.junction_tree.JunctionTree` never changes after
    construction (rerooting builds a new tree).
    """
    layout = getattr(jt, "_table_layout", None)
    if layout is None:
        layout = jt._table_layout = TableLayout(jt)
    return layout


def table_view(buffer: np.ndarray, slot: Slot) -> PotentialTable:
    """The table at ``slot`` as a zero-copy view into the flat ``buffer``.

    Scopes come from the layout, not from outside, so the validating
    :class:`PotentialTable` constructor is bypassed.
    """
    start, size, variables, cardinalities = slot
    values = buffer[start:start + size].reshape(cardinalities)
    return PotentialTable.wrap(variables, cardinalities, values)
