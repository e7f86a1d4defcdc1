"""The four node-level primitives of evidence propagation.

Propagating evidence from clique Y to clique X through separator S is

    psi_S_new = marginalize(psi_Y, S)
    ratio     = divide(psi_S_new, psi_S_old)
    psi_X_new = multiply(psi_X, extend(ratio, scope(X)))

(Eq. 1 of the paper).  Each primitive here is a function of potential
tables that returns a new table or, given ``out=``, writes the same values
into a table the caller already holds (the propagation state's hot path).
:func:`multiply` of a clique by a table over a subset of its scope never
materialises the extension: it multiplies through a zero-copy broadcast
view of the smaller table (or one strided lane per slice, with the
plan's :class:`Split`), so a wide message pipeline updates its clique
straight from the separator ``ratio`` and has no ``extended`` table at
all (:class:`~repro.tasks.layout.TableLayout`); :func:`extend` itself
is left to the small pipelines, whose extensions run as waves.

What a call has to work out before it touches a number — which axes to
sum, how to permute and reshape so numpy broadcasts, whether the scopes
fit at all — depends on the operands' *scopes* only, and a junction tree
fixes those once.  Each primitive therefore has a plan builder
(:func:`plan_marginalize`, :func:`plan_extend`, :func:`plan_multiply`,
:func:`plan_divide`) that does that work, validation included, and takes
the result as ``plan=``: derived on the spot when absent, so there is one
body per primitive either way.  :class:`~repro.tasks.layout.TableLayout`
builds the plans of every message pipeline once per tree.

A :class:`Wave` is a plan too, for many small tables at once: the tasks
of one primitive kind in one level of a task graph, as flat index maps
into a propagation state's buffer.  Handed a wave as ``plan=`` (and
:class:`Entries` as operands), each primitive runs one numpy call for all
of them (:meth:`~repro.tasks.layout.TableLayout.wave_list` compiles them).
A small table's own MARGINALIZE runs the same ``bincount`` as the wave
that carries it, so a task gives the same bits either way.

:func:`primitive_flops` gives the operation-count estimate used both for
task weights in the scheduler and for the multicore cost model.
"""

from __future__ import annotations

import enum
import functools
import math
import string
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.potential.table import PotentialTable


class PrimitiveKind(enum.Enum):
    """The four node-level primitive types from the paper."""

    MARGINALIZE = "marginalize"
    EXTEND = "extend"
    MULTIPLY = "multiply"
    DIVIDE = "divide"
    # COMBINE is not a paper primitive; it is the merge step produced by the
    # task-partitioning module (the last subtask T_hat_n that concatenates or
    # adds the partial results of its sibling subtasks).
    COMBINE = "combine"


# Tables of at least this many entries marginalize through
# ``np.einsum`` (or a slice kernel), smaller ones through ``np.bincount``
# over a precomputed scatter map: 1.7 us on 32 entries where
# ``add.reduce`` takes 3.1 us, and the same call sums any number of
# small tables at once (a wave).  Only tasks whose every table is below
# this bound join a wave: gathering a 2**16-entry table is 5x slower than
# the slice kernels.
WIDE_TABLE = 1 << 12

# A wide table whose changed run of axes has at most SPLIT_POST entries
# after it runs the slice kernels (:class:`Split`) instead: einsum and
# copyto then loop over an inner axis that short, 115-290 us per call on
# 2**16 entries where one strided pass per slice takes 20-70 us.  Past
# SPLIT_SLICES passes (k * post) the slices stop winning.
SPLIT_POST = 4
SPLIT_SLICES = 12

# np.einsum has one subscript letter per axis and 52 letters.
_LETTERS = string.ascii_letters


def _scope(variables: Sequence[int]) -> Tuple[int, ...]:
    return tuple(int(v) for v in variables)


def _result(variables, cardinalities) -> PotentialTable:
    """An uninitialised table for a primitive called without ``out=``."""
    return PotentialTable.wrap(
        variables, cardinalities, np.empty(cardinalities)
    )


# --------------------------------------------------------------------- #
# Plans: what a primitive derives from its operands' scopes alone
# --------------------------------------------------------------------- #
#
# Each ``plan_*`` builder does the validation and the axis / permutation /
# broadcast-shape arithmetic of its primitive once; the primitive runs the
# same body with a plan handed in (``plan=``) or derived on the spot.  A
# plan handed in is checked against the operands it is used on, so a plan
# for other scopes raises ``ValueError`` like a malformed call always did.


class Split(NamedTuple):
    """A wide table as ``(pre, k, post)``: ``k`` joint states of the one
    run of adjacent axes a primitive changes, ``pre`` entries before the
    run and ``post`` after it.

    The run is what MARGINALIZE drops or, with ``kept`` set, the only
    axes it keeps (a posterior read); for EXTEND, and MULTIPLY by a
    table over a subset of the scope, it is what the extension adds.
    """

    pre: int
    k: int
    post: int
    kept: bool = False


def _run(axes: Sequence[int]) -> Optional[Tuple[int, int]]:
    """``(start, end)`` when the ascending ``axes`` are one non-empty run
    of adjacent axes, else None."""
    if axes and axes[-1] - axes[0] == len(axes) - 1:
        return axes[0], axes[-1] + 1
    return None


def _split(cardinalities, run, kept: bool = False) -> Optional[Split]:
    """The :class:`Split` of a wide table around the axis run ``run``, or
    None when the slice kernels would not beat einsum / copyto there."""
    if run is None:
        return None
    start, end = run
    k = math.prod(cardinalities[start:end])
    post = math.prod(cardinalities[end:])
    if k < 2 or post > SPLIT_POST or k * post > SPLIT_SLICES:
        return None
    return Split(math.prod(cardinalities[:start]), k, post, kept)


class MarginalizePlan(NamedTuple):
    variables: Tuple[int, ...]       # the table's scope
    cardinalities: Tuple[int, ...]
    onto: Tuple[int, ...]            # the result's scope
    onto_cards: Tuple[int, ...]
    # Small tables: the result's flat index of every table entry, in C
    # order (read-only, shared per shape).  None on wide tables.
    scatter: Optional[np.ndarray]
    subscripts: Optional[str]        # einsum form, wide tables only
    split: Optional[Split]           # the slice kernel's, when it wins


class ExtendPlan(NamedTuple):
    variables: Tuple[int, ...]       # the table's scope
    cardinalities: Tuple[int, ...]
    target: Tuple[int, ...]          # the result's scope
    target_cards: Tuple[int, ...]
    # The table's array axes in target order (None when they already are),
    # then its shape with a size-1 axis per added variable.
    perm: Optional[Tuple[int, ...]]
    shape: Tuple[int, ...]
    split: Optional[Split]           # the slice kernel's, when it wins


class MultiplyPlan(NamedTuple):
    variables: Tuple[int, ...]       # a's scope, which the result keeps
    other: Tuple[int, ...]           # b's scope
    extend: Optional[ExtendPlan]     # b up to a's scope; None when it is


class DividePlan(NamedTuple):
    variables: Tuple[int, ...]       # the numerator's scope (the result's)
    other: Tuple[int, ...]           # the denominator's scope
    perm: Optional[Tuple[int, ...]]  # its axes in numerator order


@functools.lru_cache(maxsize=256)
def scatter_map(
    cardinalities: Tuple[int, ...], source: Tuple[int, ...]
) -> np.ndarray:
    """For a table of shape ``cardinalities`` summed onto its axes
    ``source`` (in that order), the flat result index of every entry, in
    C order.  Cached per shape and returned read-only."""
    scatter = np.zeros(cardinalities, dtype=np.intp)
    stride = 1
    for axis in reversed(source):
        card = cardinalities[axis]
        shape = [1] * len(cardinalities)
        shape[axis] = card
        scatter += np.arange(0, card * stride, stride).reshape(shape)
        stride *= card
    scatter = scatter.reshape(-1)
    scatter.flags.writeable = False
    return scatter


def plan_marginalize(
    variables: Sequence[int],
    cardinalities: Sequence[int],
    onto: Sequence[int],
) -> MarginalizePlan:
    """Plan summing a table over ``variables`` down to the scope ``onto``."""
    variables, cardinalities = _scope(variables), _scope(cardinalities)
    onto = _scope(onto)
    missing = set(onto) - set(variables)
    if missing:
        raise ValueError(f"marginalize target has unknown variables {missing}")
    if len(set(onto)) != len(onto):
        raise ValueError(f"duplicate variables in marginalize target {onto}")
    # The table axis behind each result axis.
    source = tuple(variables.index(v) for v in onto)
    scatter = subscripts = split = None
    if (
        math.prod(cardinalities) >= WIDE_TABLE
        and len(variables) < len(_LETTERS)
    ):
        subscripts = "{}->{}".format(
            _LETTERS[:len(variables)],
            "".join(_LETTERS[a] for a in source),
        )
        if list(source) == sorted(source):
            dropped = [i for i in range(len(variables)) if i not in source]
            split = _split(cardinalities, _run(dropped)) or _split(
                cardinalities, _run(source), kept=True
            )
    else:
        scatter = scatter_map(cardinalities, source)
    return MarginalizePlan(
        variables, cardinalities, onto,
        tuple(cardinalities[i] for i in source),
        scatter, subscripts, split,
    )


def plan_extend(
    variables: Sequence[int],
    cardinalities: Sequence[int],
    target: Sequence[int],
    target_cards: Sequence[int],
) -> ExtendPlan:
    """Plan broadcasting a table over ``variables`` up to ``target``."""
    variables, cardinalities = _scope(variables), _scope(cardinalities)
    target, target_cards = _scope(target), _scope(target_cards)
    missing = set(variables) - set(target)
    if missing:
        raise ValueError(f"extension target is missing variables {missing}")
    cards = dict(zip(variables, cardinalities))
    for var, card in zip(target, target_cards):
        if cards.get(var, card) != card:
            raise ValueError(
                f"variable {var} cardinality mismatch: "
                f"{cards[var]} vs {card}"
            )
    # Source axes in their order within the target scope, then a size-1
    # axis for every new variable: numpy broadcasts the rest.
    perm = [variables.index(v) for v in target if v in cards]
    shape = tuple(cards.get(var, 1) for var in target)
    in_order = perm == sorted(perm)
    split = None
    if in_order and math.prod(target_cards) >= WIDE_TABLE:
        split = _split(target_cards, _run(
            [i for i, var in enumerate(target) if var not in cards]
        ))
    return ExtendPlan(
        variables, cardinalities, target, target_cards,
        None if in_order else tuple(perm), shape, split,
    )


def plan_multiply(
    variables: Sequence[int],
    cardinalities: Sequence[int],
    other: Sequence[int],
    other_cards: Sequence[int],
) -> MultiplyPlan:
    """Plan ``a * b`` for ``a`` over ``variables`` and ``b`` over ``other``."""
    variables, other = _scope(variables), _scope(other)
    if not set(other) <= set(variables):
        raise ValueError(
            f"multiply: scope {other} is not a subset of {variables}"
        )
    return MultiplyPlan(
        variables, other,
        None if other == variables else plan_extend(
            other, other_cards, variables, cardinalities
        ),
    )


def plan_divide(variables: Sequence[int], other: Sequence[int]) -> DividePlan:
    """Plan ``numerator / denominator`` over the scopes ``variables`` and
    ``other`` (the same variable set, possibly in another order)."""
    variables, other = _scope(variables), _scope(other)
    if set(variables) != set(other) or len(variables) != len(other):
        raise ValueError(
            f"divide: scopes differ: {variables} vs {other}"
        )
    return DividePlan(
        variables, other,
        None if other == variables else tuple(
            other.index(v) for v in variables
        ),
    )


# An index into a flat buffer: a slice when the entries are one
# contiguous run (a view, no gather), else an array of entry offsets.
Index = Union[slice, np.ndarray]


class Entries:
    """The entries ``index`` of a flat ``buffer``, in index order: one
    operand of a :class:`Wave` (its tables laid end to end)."""

    __slots__ = ("buffer", "index")

    def __init__(self, buffer: np.ndarray, index: Index):
        self.buffer = buffer
        self.index = index

    @property
    def values(self) -> np.ndarray:
        """The entries: a view for a slice index, a gathered copy
        otherwise."""
        return self.buffer[self.index]

    def assign(self, values: np.ndarray) -> None:
        """Write ``values`` into the entries."""
        self.buffer[self.index] = values


class Wave(NamedTuple):
    """One primitive run over many small tasks at once: the plan of a
    call whose operands are :class:`Entries` of one state buffer.

    ``source`` indexes the entries read — MARGINALIZE's source tables,
    DIVIDE's numerators, the ratio entry behind every entry EXTEND writes,
    MULTIPLY's extended tables — ``other`` DIVIDE's denominators (``None``
    for the other kinds), ``out`` the entries written; ``scatter`` is
    MARGINALIZE's result index of every source entry (the tasks' scatter
    maps, offset to their outputs) and ``size`` the entries written.
    """

    code: PrimitiveKind
    source: Index
    other: Optional[Index]
    out: Index
    scatter: Optional[np.ndarray]
    size: int


def _plan_mismatch(name: str, plan) -> ValueError:
    return ValueError(f"{name}: plan= was built for other operands ({plan})")


# --------------------------------------------------------------------- #
# Slice kernels: a wide table as (pre, k, post), one strided pass per
# slice.  They need C-contiguous arrays (their reshapes must be views);
# the primitives run them only then, and einsum / copyto otherwise.
# --------------------------------------------------------------------- #


def _sum_run(values: np.ndarray, out: np.ndarray, split: Split) -> None:
    """``out[p, s] = sum_r values[p, r, s]``: drop the run."""
    k, post = split.k, split.post
    src = values.reshape(-1, k, post)
    dst = out.reshape(-1, post)
    for s in range(post):
        lane = dst[:, s]
        np.add(src[:, 0, s], src[:, 1, s], out=lane)
        for r in range(2, k):
            np.add(lane, src[:, r, s], out=lane)


def _sum_around(values: np.ndarray, out: np.ndarray, split: Split) -> None:
    """``out[r] = sum_{p, s} values[p, r, s]``: keep only the run (as a
    one-row array, so every lane is a reduction's ``out``)."""
    k, post = split.k, split.post
    dst = out.reshape(1, k)
    src = values.reshape(1, -1, k, post)
    for r in range(k):
        lane = dst[:, r]
        np.add.reduce(src[:, :, r, 0], axis=1, out=lane)
        for s in range(1, post):
            lane += np.add.reduce(src[:, :, r, s], axis=1)


def _copy_run(values: np.ndarray, out: np.ndarray, split: Split) -> None:
    """``out[p, r, s] = values[p, s]``: add the run."""
    k, post = split.k, split.post
    src = values.reshape(-1, post)
    dst = out.reshape(-1, k, post)
    for s in range(post):
        lane = src[:, s]
        for r in range(k):
            np.copyto(dst[:, r, s], lane)


def _multiply_run(
    table: np.ndarray, values: np.ndarray, out: np.ndarray, split: Split
) -> None:
    """``out[p, r, s] = table[p, r, s] * values[p, s]``: multiply by the
    extension over the run without building it."""
    k, post = split.k, split.post
    src = table.reshape(-1, k, post)
    ratio = values.reshape(-1, post)
    dst = out.reshape(-1, k, post)
    for s in range(post):
        lane = ratio[:, s]
        for r in range(k):
            np.multiply(src[:, r, s], lane, out=dst[:, r, s])


# --------------------------------------------------------------------- #
# The primitives
# --------------------------------------------------------------------- #


def marginalize(
    table: PotentialTable,
    onto: Sequence[int],
    out: Optional[PotentialTable] = None,
    plan: Optional[MarginalizePlan] = None,
) -> PotentialTable:
    """Sum ``table`` down to the scope ``onto`` (a subset of its variables).

    The result's axes follow the order of ``onto``.  ``out``, a table over
    exactly that scope, receives the result in place and is returned.
    ``plan`` is :func:`plan_marginalize` of these scopes, for callers that
    make the same call many times.  Its size and split decide the kernel:
    ``bincount`` over the scatter map on small tables, the slice kernel on
    a wide table with a :class:`Split` (and C-contiguous arrays), einsum
    on the other wide ones.

    With a :class:`Wave` as ``plan``, ``table`` and ``out`` are
    :class:`Entries` and ``onto`` is unused: one ``bincount`` sums every
    task of the wave into ``out`` (into new :class:`Entries` when ``out``
    is None).
    """
    if type(plan) is Wave:
        sums = np.bincount(
            plan.scatter, weights=table.values, minlength=plan.size
        )
        if out is None:
            return Entries(sums, slice(None))
        out.assign(sums)
        return out
    if plan is None:
        plan = plan_marginalize(table.variables, table.cardinalities, onto)
    elif (
        plan.variables != table.variables
        or plan.cardinalities != table.cardinalities
        or plan.onto != tuple(onto)
    ):
        raise _plan_mismatch("marginalize", plan)
    if out is None:
        out = _result(plan.onto, plan.onto_cards)
    else:
        out.require(plan.onto, plan.onto_cards)
    if plan.subscripts is not None:
        split = plan.split
        values, target = table.values, out.values
        if (
            split is None
            or not values.flags.c_contiguous
            or not target.flags.c_contiguous
        ):
            np.einsum(plan.subscripts, values, out=target)
        elif split.kept:
            _sum_around(values, target, split)
        else:
            _sum_run(values, target, split)
        return out
    # Every result entry has a source entry: the bins are exactly the
    # result's entries.
    sums = np.bincount(plan.scatter, table.values.reshape(-1))
    np.copyto(out.values, sums.reshape(plan.onto_cards))
    return out


def extend(
    table: PotentialTable,
    variables: Sequence[int],
    cardinalities: Sequence[int],
    out: Optional[PotentialTable] = None,
    plan: Optional[ExtendPlan] = None,
) -> PotentialTable:
    """Broadcast ``table`` up to the superset scope ``variables``.

    New variables are replicated (each entry of ``table`` appears once per
    joint state of the added variables), matching the extension primitive.
    ``out``, a table over exactly the target scope, receives the result in
    place and is returned.  ``plan`` is :func:`plan_extend` of these scopes;
    with a :class:`Split` (and C-contiguous arrays) it copies one slice
    per added state instead of broadcasting.  With a :class:`Wave`,
    ``table`` (whose index is the gather map) is copied into ``out``, both
    :class:`Entries`.
    """
    if type(plan) is Wave:
        out.assign(table.values)
        return out
    if plan is None:
        plan = plan_extend(
            table.variables, table.cardinalities, variables, cardinalities
        )
    elif (
        plan.variables != table.variables
        or plan.cardinalities != table.cardinalities
        or plan.target != tuple(variables)
        or plan.target_cards != tuple(cardinalities)
    ):
        raise _plan_mismatch("extend", plan)
    if out is None:
        out = _result(plan.target, plan.target_cards)
    else:
        out.require(plan.target, plan.target_cards)
    values = table.values
    if (
        plan.split is not None
        and values.flags.c_contiguous
        and out.values.flags.c_contiguous
    ):
        _copy_run(values, out.values, plan.split)
        return out
    if plan.perm is not None:
        values = values.transpose(plan.perm)
    np.copyto(out.values, values.reshape(plan.shape))
    return out


def multiply(
    a: PotentialTable,
    b: PotentialTable,
    out: Optional[PotentialTable] = None,
    plan: Optional[MultiplyPlan] = None,
) -> PotentialTable:
    """Pointwise product; ``b``'s scope must be a subset of ``a``'s.

    The result keeps ``a``'s scope and axis order (the common case is
    multiplying a separator ratio into a clique table).  ``out`` receives
    the result in place and is returned; it may be ``a`` itself
    (``a *= b``).  ``plan`` is :func:`plan_multiply` of these scopes.  A
    ``b`` over fewer variables is never extended into a table of ``a``'s
    size: it is broadcast through a view (permuted, with a size-1 axis
    per added variable), or, when the plan's extension carries a
    :class:`Split` (and the arrays are C-contiguous), multiplied in one
    strided lane per slice — bitwise ``a * extend(b)`` either way.  With
    a :class:`Wave`, ``a``, ``b`` and ``out`` are :class:`Entries` of
    tables over equal scopes.
    """
    if type(plan) is Wave:
        out.assign(a.values * b.values)
        return out
    if plan is None:
        plan = plan_multiply(
            a.variables, a.cardinalities, b.variables, b.cardinalities
        )
    elif plan.variables != a.variables or plan.other != b.variables or (
        plan.extend is not None and (
            plan.extend.cardinalities != b.cardinalities
            or plan.extend.target_cards != a.cardinalities
        )
    ):
        raise _plan_mismatch("multiply", plan)
    if out is None:
        out = _result(a.variables, a.cardinalities)
    else:
        out.require(a.variables, a.cardinalities)
    table, values, target = a.values, b.values, out.values
    ext = plan.extend
    if ext is not None:
        if (
            ext.split is not None
            and table.flags.c_contiguous
            and values.flags.c_contiguous
            and target.flags.c_contiguous
        ):
            _multiply_run(table, values, target, ext.split)
            return out
        if ext.perm is not None:
            values = values.transpose(ext.perm)
        values = values.reshape(ext.shape)
    np.multiply(table, values, out=target)
    return out


def divide(
    numerator: PotentialTable,
    denominator: PotentialTable,
    out: Optional[PotentialTable] = None,
    plan: Optional[DividePlan] = None,
) -> PotentialTable:
    """Pointwise ratio over identical scopes with the 0/0 = 0 convention.

    A zero in the denominator implies the corresponding separator state has
    zero mass, in which case the numerator is also zero and the standard
    junction-tree convention defines the ratio as zero.  ``out``, a table
    over the numerator's scope that is neither operand, receives the result
    in place and is returned (an operand as ``out`` raises
    ``ValueError``: the body clears ``out`` before it reads them).
    ``plan`` is :func:`plan_divide` of these scopes; with a :class:`Wave`,
    the operands and ``out`` are :class:`Entries` of equal scopes.
    """
    if out is numerator or out is denominator:
        raise ValueError("divide: out= must be neither operand")
    if type(plan) is Wave:
        num, denom = numerator.values, denominator.values
        ratio = np.zeros_like(num)
        np.divide(num, denom, out=ratio, where=denom != 0)
        out.assign(ratio)
        return out
    if plan is None:
        plan = plan_divide(numerator.variables, denominator.variables)
    elif (
        plan.variables != numerator.variables
        or plan.other != denominator.variables
    ):
        raise _plan_mismatch("divide", plan)
    denom = denominator.values
    if plan.perm is not None:
        denom = denom.transpose(plan.perm)
    if out is None:
        out = _result(numerator.variables, numerator.cardinalities)
    else:
        out.require(numerator.variables, numerator.cardinalities)
    out.values[...] = 0.0
    np.divide(numerator.values, denom, out=out.values, where=denom != 0)
    return out


def primitive_flops(
    kind: PrimitiveKind, input_size: int, output_size: int
) -> int:
    """Estimated operation count of one primitive execution.

    This single estimator is shared by the scheduler's task weights and the
    multicore simulator's cost model so that simulated load balancing matches
    what the real threaded scheduler would do.
    """
    if kind is PrimitiveKind.MARGINALIZE:
        # one add per input entry folded into the output
        return max(input_size, output_size)
    if kind is PrimitiveKind.EXTEND:
        # one copy per output entry
        return output_size
    if kind in (PrimitiveKind.MULTIPLY, PrimitiveKind.DIVIDE):
        # one multiply/divide per output entry
        return output_size
    if kind is PrimitiveKind.COMBINE:
        # one add/copy per combined entry
        return output_size
    raise ValueError(f"unknown primitive kind {kind!r}")
