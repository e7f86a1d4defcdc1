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
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.table import PotentialTable
from repro.tasks.task import COLLECT, DISTRIBUTE

Edge = Tuple[int, int]
InterKey = Tuple[str, Edge, str]  # (phase, (parent, child), stage)


class Slot(NamedTuple):
    """Location (in float64 entries, per case) and scope of one table."""

    start: int
    size: int
    variables: Tuple[int, ...]
    cardinalities: Tuple[int, ...]


class TableLayout:
    """The slots of every table of a propagation over one junction tree.

    ``potentials[i]`` is clique ``i``'s working potential,
    ``separators[(parent, child)]`` the edge's separator, and
    ``inter[(phase, edge, stage)]`` one pipeline intermediate (``sep_new``
    and ``ratio`` over the separator scope, ``extended`` over the scope of
    the clique the pipeline updates).  ``size`` is the per-case entry
    count of the whole buffer.
    """

    __slots__ = ("potentials", "separators", "inter", "size")

    def __init__(self, jt: JunctionTree):
        self.size = 0

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
    table = PotentialTable.__new__(PotentialTable)
    table.variables = variables
    table.cardinalities = cardinalities
    if batch is None:
        table.values = buffer[start:start + size].reshape(cardinalities)
    else:
        table.values = buffer[start * batch:(start + size) * batch].reshape(
            (batch,) + cardinalities
        )
    table.batch = batch
    return table
