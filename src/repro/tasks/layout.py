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
format depends on the plans, the steps or the waves.

The layout holds the tree's **full** task graph
(:meth:`TableLayout.task_graph`, built once per tree structure and
shared by every engine over it), and :meth:`TableLayout.wave_list`
compiles that graph, and only that one, on its second run, level by
level into *waves*: the
tasks of one primitive kind in one level of the DAG
(:meth:`~repro.tasks.task.TaskGraph.levels`), every table they touch
below :data:`~repro.potential.primitives.WIDE_TABLE`, become one
:class:`~repro.potential.primitives.Wave` — a gather / scatter over flat
index maps into the state buffer that runs as one numpy call.  A task
with a wide table stays a :class:`Step` between the waves.  Tasks of one
level are independent, so the kinds may run in any order within it, and
each entry gets the same arithmetic as in the step list: a wave run is
bitwise equal to it.  :meth:`TableLayout.reads` compiles the posterior
read of every variable the same way: one MARGINALIZE wave over every
small host clique.

A state starts as one copy of its tree's prior image
(:meth:`~repro.jt.junction_tree.JunctionTree.prior_image`: the clique
slots come first, end to end, so the image is the buffer's first
``cliques_end`` entries) plus one write per hard finding:
:meth:`TableLayout.finding` compiles where a (variable, state) finding's
zeros go, once per layout, so every tree of one structure shares it.

The layout also carries the tree's :class:`~repro.tasks.dag.GraphCache` of
restricted task graphs and its :class:`FreeList` of released state
buffers, so everything compiled from a tree's structure travels as one
object: trees that share it
(:meth:`~repro.jt.junction_tree.JunctionTree.with_priors`) share all of it.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import (
    WIDE_TABLE,
    DividePlan,
    ExtendPlan,
    Index,
    MarginalizePlan,
    MultiplyPlan,
    PrimitiveKind,
    Wave,
    plan_divide,
    plan_extend,
    plan_marginalize,
    plan_multiply,
    scatter_map,
)
from repro.potential.table import PotentialTable
from repro.tasks.dag import GraphCache, build_task_graph
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


class WaveList(NamedTuple):
    """A full task graph compiled into waves, level by level.

    ``units[i]`` is a :class:`~repro.potential.primitives.Wave` or, for a
    task with a wide table, that task's :class:`Step`; it runs the tasks
    ``tids[i]`` and writes the intermediates ``written[i]``: their keys,
    and their slot indices in the same order.  ``writes_all``: the units
    together write every intermediate of the layout.
    """

    units: Tuple[Union[Wave, Step], ...]
    tids: Tuple[Tuple[int, ...], ...]
    written: Tuple[Tuple[Tuple[InterKey, ...], Tuple[int, ...]], ...]
    writes_all: bool


class Reads(NamedTuple):
    """The posterior read of every variable of a tree, compiled.

    The posteriors lie end to end in one vector of ``size`` entries;
    ``parts`` maps every variable, ascending, to its slice of it.
    ``wave`` sums every variable hosted by a small clique at once into the
    first ``wave.size`` entries (None when there is none), the states of
    its ``i``-th variable from ``starts[i]`` on, ``cards[i]`` of them.
    ``wide`` lists the variables hosted by a wide clique, each read on its
    own with its plan into the entries after.
    """

    wave: Optional[Wave]
    parts: Dict[int, slice]
    starts: np.ndarray
    cards: np.ndarray
    wide: Tuple[int, ...]
    size: int


class Finding(NamedTuple):
    """A hard finding ``variable = state`` compiled against the slots:
    every entry of a clique holding ``variable`` whose coordinate on its
    axis is not ``state`` (what :meth:`PotentialTable.reduce` zeroes).

    ``small`` lists those entries of the small clique tables (below
    :data:`~repro.potential.primitives.WIDE_TABLE`) as buffer offsets.
    ``wide`` lists the wide cliques' entries as strided ranges ``(start,
    stop, step, cols, lo, hi)``: ``buffer[start:stop:step]`` when ``cols``
    is 0, else the columns ``lo:hi`` of ``buffer[start:stop]`` cut into
    rows of ``cols``.
    """

    small: np.ndarray
    wide: Tuple[Tuple[int, int, int, int, int, int], ...]


# A wide table whose observed axis has at most this many (excluded
# states x entries after the axis) is zeroed one strided range per entry
# after it: a 2-D range with rows that short runs 115-270 us on 2**16
# entries, the 1-D ranges 20-95 us together.
_STRIDED_RANGES = 8


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

    ``cliques_end`` is where the clique slots, first in the buffer,
    end; ``separator_reset`` the indexes that set every separator to
    ones (one for all the small separators, one slice per wide one).

    :meth:`pipelines`, :meth:`steps`, :meth:`answer` and :meth:`reads`
    are the primitives' plans over these slots, and :meth:`finding` a
    finding's entries, each built once per tree, on first use;
    :meth:`task_graph` is the tree's full task graph and
    :meth:`wave_list` its waves, each built on first use; ``graphs`` holds
    the tree's restricted task graphs, each built on first use, and
    ``free`` the released state buffers.  A layout pickles as the tree
    structure it is computed from: the slots are computed again on
    unpickling, everything else on first use.
    """

    __slots__ = (
        "potentials", "separators", "inter", "size", "slots", "separator_at",
        "inter_at", "cliques_end", "separator_reset", "_structure",
        "_pipelines", "_steps", "_answers", "_graph", "_reads", "_findings",
        "graphs", "free",
    )

    def __init__(self, jt: JunctionTree):
        self.size = 0
        self.slots: List[Slot] = []
        self._structure = (jt.cliques, jt.parent)
        self._pipelines: Optional[Dict[PipeKey, Pipeline]] = None
        self._steps: Optional[Dict[StepKey, Step]] = None
        self._answers: Dict[Tuple[int, int], MarginalizePlan] = {}
        self._graph: Optional[TaskGraph] = None
        self._reads: Optional[Reads] = None
        self._findings: Dict[Tuple[int, int], Finding] = {}
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
        self.cliques_end = sum(slot.size for slot in self.potentials)
        seps = sorted(self.separators.values())
        small = [slot for slot in seps if slot.size < WIDE_TABLE]
        wide = [
            slice(slot.start, slot.start + slot.size)
            for slot in seps if slot.size >= WIDE_TABLE
        ]
        self.separator_reset: Tuple[Index, ...] = tuple(
            (_indexes([small]) if small else []) + wide
        )

    def __reduce__(self):
        return (_layout_of, self._structure)

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

    def task_graph(self, jt: JunctionTree) -> TaskGraph:
        """The full task graph of ``jt`` (a tree with this layout),
        built on first use: every engine over the tree structure runs
        this one graph, and only it gets waves."""
        graph = self._graph
        if graph is None:
            graph = self._graph = build_task_graph(jt)
        return graph

    def wave_list(self, graph: TaskGraph) -> Optional[WaveList]:
        """``graph`` compiled into waves for its run, or None: it is not
        this layout's full graph (a restricted graph, mostly run once,
        keeps its step list), this is the graph's first run, or none of
        its tasks is small enough to join a wave.  A full graph run once
        (a filtering stream's first window) never pays the compile; from
        the second call on the waves are compiled once and kept on the
        graph next to its step list (until its next ``add_task``)."""
        if graph is not self._graph:
            return None
        memo = graph._waves
        if memo is None:
            graph._waves = ()  # seen: the next run compiles
            return None
        if not memo:
            memo = graph._waves = (compile_waves(self, graph),)
        return memo[0]

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

    def finding(self, variable: int, state: int) -> Finding:
        """The entries the hard finding ``variable = state`` zeroes,
        compiled on its first use (see :class:`Finding`).  Raises
        ``ValueError``, as :meth:`PotentialTable.reduce` does, for a state
        out of the variable's range; a variable no clique holds zeroes
        nothing."""
        key = (variable, state)
        compiled = self._findings.get(key)
        if compiled is None:
            compiled = _compile_finding(self, variable, state)
            self._findings[key] = compiled
        return compiled

    def reads(self, jt: JunctionTree) -> Reads:
        """The compiled posterior read of every variable of ``jt`` (a
        tree with this layout), in variable order; built on first use."""
        compiled = self._reads
        if compiled is None:
            compiled = self._reads = _compile_reads(self, jt)
        return compiled


def _indexes(groups: Sequence[Sequence[Slot]]) -> List[Index]:
    """For each group of slots, its entries laid end to end: a slice when
    the group's slots are adjacent in the buffer, else a view into one
    array of entry offsets built for every group at once."""
    flat = [slot for group in groups for slot in group]
    sizes = np.array([slot.size for slot in flat], dtype=np.intp)
    ends = np.cumsum(sizes)
    entries = np.arange(ends[-1]) + np.repeat(
        np.array([slot.start for slot in flat], dtype=np.intp) - ends + sizes,
        sizes,
    )
    indexes: List[Index] = []
    at = 0
    for group in groups:
        first = group[0].start
        end = first
        for slot in group:
            if slot.start != end:
                end = -1
                break
            end += slot.size
        count = sum(slot.size for slot in group)
        indexes.append(
            slice(first, end) if end >= 0 else entries[at:at + count]
        )
        at += count
    return indexes


@functools.lru_cache(maxsize=256)
def gather_map(
    cardinalities: Tuple[int, ...],
    perm: Optional[Tuple[int, ...]],
    shape: Tuple[int, ...],
    target_cards: Tuple[int, ...],
) -> np.ndarray:
    """For an extension (an :class:`ExtendPlan`'s shapes), the flat
    index into the source table of every result entry, in C order.
    Cached per shape and returned read-only."""
    index = np.arange(math.prod(cardinalities)).reshape(cardinalities)
    if perm is not None:
        index = index.transpose(perm)
    gather = np.broadcast_to(index.reshape(shape), target_cards).reshape(-1)
    gather.flags.writeable = False
    return gather


def _maps(
    maps: List[np.ndarray], shifts: List[int], counts: Sequence[int]
) -> List[np.ndarray]:
    """Each map of ``maps`` plus its shift, laid end to end and cut into
    consecutive runs of ``counts`` maps (one numpy pass for all)."""
    sizes = [part.size for part in maps]
    joined = np.concatenate(maps) + np.repeat(
        np.array(shifts, dtype=np.intp), sizes
    )
    cuts: List[np.ndarray] = []
    at = task = 0
    for count in counts:
        size = sum(sizes[task:task + count])
        cuts.append(joined[at:at + size])
        at += size
        task += count
    return cuts


def _waves(
    layout: TableLayout, code: PrimitiveKind, groups: List[List[Step]]
) -> List[Wave]:
    """The :class:`Wave` of each group of ``groups`` (small steps of kind
    ``code``, pairwise independent within a group), built together."""
    slots = layout.slots
    for steps in groups:
        written = [step.out for step in steps]
        if code is PrimitiveKind.DIVIDE:
            written += [step.other for step in steps]
        if len(set(written)) != len(written):
            # Two tasks of one level writing one table (two MULTIPLYs
            # into one clique) would race under a thread team and lose
            # an update here.
            raise AssertionError(
                f"a {code.value} wave writes one table twice: its tasks "
                f"are not independent"
            )
    if code is PrimitiveKind.DIVIDE and any(
        step.plan.perm is not None for steps in groups for step in steps
    ) or code is PrimitiveKind.MULTIPLY and any(
        step.plan.extend is not None for steps in groups for step in steps
    ):
        # DIVIDE's operands and MULTIPLY's extended table have the scope,
        # in the order, of the table they are combined with.
        raise AssertionError(f"{code.value} wave over unequal scopes")
    counts = [len(steps) for steps in groups]
    steps = [step for group in groups for step in group]
    outs = _indexes([[slots[step.out] for step in group] for group in groups])
    sizes = [sum(slots[step.out].size for step in group) for group in groups]
    others: List[Optional[Index]] = [None] * len(groups)
    scatters: List[Optional[np.ndarray]] = [None] * len(groups)
    if code is PrimitiveKind.EXTEND:
        sources = _maps(
            [
                gather_map(
                    step.plan.cardinalities, step.plan.perm,
                    step.plan.shape, step.plan.target_cards,
                ) for step in steps
            ],
            [slots[step.source].start for step in steps], counts,
        )
    else:
        sources = _indexes(
            [[slots[step.source] for step in group] for group in groups]
        )
    if code is PrimitiveKind.MARGINALIZE:
        # Each task sums into its own bins: offset by the outputs before
        # it in its wave.
        offsets: List[int] = []
        for group in groups:
            at = 0
            for step in group:
                offsets.append(at)
                at += slots[step.out].size
        scatters = _maps(
            [step.plan.scatter for step in steps], offsets, counts
        )
    elif code is PrimitiveKind.DIVIDE:
        others = _indexes(
            [[slots[step.other] for step in group] for group in groups]
        )
    return [
        Wave(code, *fields)
        for fields in zip(sources, others, outs, scatters, sizes)
    ]


# The kinds of one level, in the order their waves run.  Any order is
# correct (a level's tasks are independent); this one is fixed so every
# compile of a graph is the same.
_KINDS = (
    PrimitiveKind.MARGINALIZE, PrimitiveKind.DIVIDE, PrimitiveKind.EXTEND,
    PrimitiveKind.MULTIPLY,
)


def compile_waves(layout: TableLayout, graph: TaskGraph) -> Optional[WaveList]:
    """``graph``'s levels compiled into waves (see the module docstring),
    or None when no task is small enough to join one."""
    steps = layout.step_list(graph)
    step_of = dict(zip(steps.tids, steps.steps))
    wide_slots = {
        at for at, slot in enumerate(layout.slots) if slot.size >= WIDE_TABLE
    }
    rank = {kind: i for i, kind in enumerate(_KINDS)}
    # Run order: per level, one wave per kind present, then the tasks
    # with a wide table.  A wave is a (kind rank, its tids) placeholder
    # until every wave of its kind is built at once, below.
    order: List[Tuple[int, List[int]]] = []
    for level in graph.levels():
        small: List[List[int]] = [[] for _ in _KINDS]
        wide: List[int] = []
        for tid in level:
            step = step_of[tid]
            if wide_slots and (
                step.source in wide_slots or step.other in wide_slots
                or step.out in wide_slots
            ):
                wide.append(tid)
            else:
                small[rank[step.code]].append(tid)
        order.extend((i, members) for i, members in enumerate(small) if members)
        order.extend((-1, [tid]) for tid in wide)
    if all(i < 0 for i, _members in order):
        return None
    groups: List[List[List[Step]]] = [[] for _ in _KINDS]
    for i, members in order:
        if i >= 0:
            groups[i].append([step_of[tid] for tid in members])
    built = [
        iter(_waves(layout, kind, kind_groups)) if kind_groups else None
        for kind, kind_groups in zip(_KINDS, groups)
    ]
    units: List[Union[Wave, Step]] = []
    written: List[Tuple[Tuple[InterKey, ...], Tuple[int, ...]]] = []
    for i, members in order:
        units.append(next(built[i]) if i >= 0 else step_of[members[0]])
        done = [
            step_of[tid] for tid in members
            if step_of[tid].written is not None
        ]
        written.append((
            tuple(step.written for step in done),
            tuple(step.out for step in done),
        ))
    return WaveList(
        tuple(units), tuple(tuple(members) for _i, members in order),
        tuple(written),
        len({key for keys, _outs in written for key in keys})
        == len(layout.inter),
    )


def _compile_finding(
    layout: TableLayout, variable: int, state: int
) -> Finding:
    small: List[np.ndarray] = []
    wide: List[Tuple[int, int, int, int, int, int]] = []
    for start, size, variables, cards in layout.potentials:
        if variable not in variables:
            continue
        axis = variables.index(variable)
        k = cards[axis]
        if not 0 <= state < k:
            raise ValueError(
                f"evidence state {state} out of range for variable "
                f"{variable} with {k} states"
            )
        pre = math.prod(cards[:axis])
        post = size // (pre * k)
        stop = start + size
        if size < WIDE_TABLE:
            entries = np.arange(start, stop).reshape(pre, k, post)
            small.append(np.delete(entries, state, axis=1).reshape(-1))
        elif post * (k - 1) <= _STRIDED_RANGES:
            wide.extend(
                (start + j * post + p, stop, k * post, 0, 0, 0)
                for j in range(k) if j != state for p in range(post)
            )
        else:
            wide.extend(
                (start, stop, 1, k * post, lo * post, hi * post)
                for lo, hi in ((0, state), (state + 1, k)) if lo < hi
            )
    return Finding(
        np.concatenate(small) if small else np.empty(0, dtype=np.intp),
        tuple(wide),
    )


def _compile_reads(layout: TableLayout, jt: JunctionTree) -> Reads:
    variables = jt.variables()
    hosts = [jt.host(var) for var in variables]
    small = [
        i for i, (host, _axis) in enumerate(hosts)
        if layout.potentials[host].size < WIDE_TABLE
    ]
    wide = sorted(set(range(len(variables))) - set(small))
    starts: List[int] = []
    cards: List[int] = []
    size = 0
    for i in small + wide:
        host, axis = hosts[i]
        starts.append(size)
        cards.append(layout.potentials[host].cardinalities[axis])
        size += cards[-1]
    at = dict(zip(small + wide, zip(starts, cards)))
    wave = None
    if small:
        waved = sum(cards[:len(small)])
        wave = Wave(
            PrimitiveKind.MARGINALIZE,
            _indexes([[layout.potentials[hosts[i][0]] for i in small]])[0],
            None, slice(0, waved),
            np.concatenate([
                scatter_map(
                    layout.potentials[hosts[i][0]].cardinalities,
                    (hosts[i][1],),
                ) + at[i][0]
                for i in small
            ]),
            waved,
        )
    return Reads(
        wave,
        {
            var: slice(at[i][0], at[i][0] + at[i][1])
            for i, var in enumerate(variables)
        },
        np.array(starts[:len(small)], dtype=np.intp),
        np.array(cards[:len(small)], dtype=np.intp),
        tuple(variables[i] for i in wide), size,
    )


def _layout_of(cliques, parent) -> TableLayout:
    """A layout computed again from a tree structure (unpickling)."""
    return TableLayout(JunctionTree(cliques, parent))


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
