"""Where the tables of one propagation live: slots in one flat buffer.

Every table a propagation over a junction tree reads or writes — the
working clique potentials, the per-edge separators, and the ``sep_new`` /
``ratio`` / ``extended`` intermediates of each (phase, edge) message
pipeline — has a fixed slot in one flat float64 vector.
:func:`table_layout` is the only place offsets are computed; the
in-process state, the process executor's shared-memory arena, the
incremental copy, the resilient snapshot and the checkpoint all hold that
one vector and read tables out of it with :func:`table_view`.

A batched state of ``B`` cases scales every slot by ``B``: slots keep
their order, and each table is batch-major inside its slot.

Because the slots fix the operand scopes of every task, the layout is also
where Eq. 1 is *compiled*: :meth:`TableLayout.pipelines` holds, per
(phase, edge), the plans of the four primitives
(:mod:`repro.potential.primitives`) that ``PropagationState.execute``
hands them, built once per tree when the first state over it is bound.
Nothing about the slots, the buffer size or the checkpoint format depends
on the plans.  The layout also carries the tree's
:class:`~repro.tasks.dag.GraphCache` of restricted task graphs, so
everything compiled from a tree's structure travels as one object: trees
that share it (:meth:`~repro.jt.junction_tree.JunctionTree.with_priors`)
share all of it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import (
    DividePlan,
    ExtendPlan,
    MarginalizePlan,
    MultiplyPlan,
    plan_divide,
    plan_extend,
    plan_marginalize,
    plan_multiply,
)
from repro.potential.table import PotentialTable
from repro.tasks.dag import GraphCache
from repro.tasks.task import COLLECT, DISTRIBUTE

Edge = Tuple[int, int]
InterKey = Tuple[str, Edge, str]  # (phase, (parent, child), stage)
PipeKey = Tuple[str, Edge]        # (phase, (parent, child))


class Slot(NamedTuple):
    """Location (in float64 entries, per case) and scope of one table."""

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


class TableLayout:
    """The slots of every table of a propagation over one junction tree.

    ``potentials[i]`` is clique ``i``'s working potential,
    ``separators[(parent, child)]`` the edge's separator, and
    ``inter[(phase, edge, stage)]`` one pipeline intermediate (``sep_new``
    and ``ratio`` over the separator scope, ``extended`` over the scope of
    the clique the pipeline updates).  ``size`` is the per-case entry
    count of the whole buffer.

    :meth:`pipelines` and :meth:`answer` are the primitives' plans over
    these slots, each built once per tree, on first use; ``graphs`` holds
    the tree's restricted task graphs, each built on first use.
    """

    __slots__ = (
        "potentials", "separators", "inter", "size", "_pipelines", "_answers",
        "graphs",
    )

    def __init__(self, jt: JunctionTree):
        self.size = 0
        self._pipelines: Dict[bool, Dict[PipeKey, Pipeline]] = {}
        self._answers: Dict[Tuple[int, int, bool], MarginalizePlan] = {}
        self.graphs = GraphCache()

        def slot(variables, cardinalities) -> Slot:
            size = 1
            for c in cardinalities:
                size *= c
            placed = Slot(self.size, size, variables, cardinalities)
            self.size += size
            return placed

        self.potentials: List[Slot] = [
            slot(c.variables, c.cardinalities) for c in jt.cliques
        ]
        self.separators: Dict[Edge, Slot] = {}
        self.inter: Dict[InterKey, Slot] = {}
        for child, parent in enumerate(jt.parent):
            if parent is None:
                continue
            edge = (parent, child)
            sep = jt.separator(child, parent)
            cards = jt.separator_cards(child, parent)
            self.separators[edge] = slot(sep, cards)
            # Collect updates the parent, distribute the child.
            for phase, target in ((COLLECT, parent), (DISTRIBUTE, child)):
                clique = jt.cliques[target]
                self.inter[(phase, edge, "sep_new")] = slot(sep, cards)
                self.inter[(phase, edge, "ratio")] = slot(sep, cards)
                self.inter[(phase, edge, "extended")] = slot(
                    clique.variables, clique.cardinalities
                )

    def pipelines(self, batched: bool) -> Dict[PipeKey, Pipeline]:
        """The compiled pipeline of every (phase, edge), for single-case
        (``batched`` false) or batched states; built on first use."""
        compiled = self._pipelines.get(batched)
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
                            src.variables, src.cardinalities, sep.variables,
                            batched,
                        ),
                        plan_divide(sep.variables, sep.variables, batched),
                        plan_extend(
                            sep.variables, sep.cardinalities,
                            tgt.variables, tgt.cardinalities, batched,
                        ),
                        plan_multiply(
                            tgt.variables, tgt.cardinalities,
                            tgt.variables, tgt.cardinalities, batched,
                        ),
                    )
            self._pipelines[batched] = compiled
        return compiled

    def answer(
        self, clique: int, variable: int, batched: bool
    ) -> MarginalizePlan:
        """The plan of summing ``clique``'s potential down to ``variable``
        alone (a posterior marginal read from its host clique)."""
        key = (clique, variable, batched)
        plan = self._answers.get(key)
        if plan is None:
            slot = self.potentials[clique]
            plan = self._answers[key] = plan_marginalize(
                slot.variables, slot.cardinalities, (variable,), batched
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


def table_view(
    buffer: np.ndarray, slot: Slot, batch: Optional[int] = None
) -> PotentialTable:
    """The table at ``slot`` as a zero-copy view into the flat ``buffer``.

    Scopes come from the layout, not from outside, so the validating
    :class:`PotentialTable` constructor is bypassed.
    """
    start, size, variables, cardinalities = slot
    if batch is None:
        values = buffer[start:start + size].reshape(cardinalities)
    else:
        values = buffer[start * batch:(start + size) * batch].reshape(
            (batch,) + cardinalities
        )
    return PotentialTable.wrap(variables, cardinalities, values, batch)
