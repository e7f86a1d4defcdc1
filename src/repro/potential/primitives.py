"""The four node-level primitives of evidence propagation.

Propagating evidence from clique Y to clique X through separator S is

    psi_S_new = marginalize(psi_Y, S)
    ratio     = divide(psi_S_new, psi_S_old)
    psi_X_new = multiply(psi_X, extend(ratio, scope(X)))

(Eq. 1 of the paper).  Each primitive here is a function of potential
tables that returns a new table or, given ``out=``, writes the same values
into a table the caller already holds (the propagation state's hot path);
:func:`primitive_flops` gives the operation-count estimate used both for
task weights in the scheduler and for the multicore cost model.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

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


def _merged_batch(a: PotentialTable, b: PotentialTable):
    """The batch size of a two-table primitive's result.

    One operand may be unbatched (it broadcasts across the batch axis);
    two *different* batch sizes are a caller bug.
    """
    if a.batch is not None and b.batch is not None and a.batch != b.batch:
        raise ValueError(
            f"mismatched batch sizes {a.batch} vs {b.batch}"
        )
    return a.batch if a.batch is not None else b.batch


def marginalize(
    table: PotentialTable,
    onto: Sequence[int],
    out: Optional[PotentialTable] = None,
) -> PotentialTable:
    """Sum ``table`` down to the scope ``onto`` (a subset of its variables).

    The result's axes follow the order of ``onto``; a batched table yields
    a batched result (each case marginalized independently).  ``out``, a
    table over exactly that scope, receives the result in place and is
    returned.
    """
    onto = tuple(int(v) for v in onto)
    missing = set(onto) - set(table.variables)
    if missing:
        raise ValueError(f"marginalize target has unknown variables {missing}")
    offset = 0 if table.batch is None else 1
    drop_axes = tuple(
        i + offset for i, v in enumerate(table.variables) if v not in onto
    )
    kept = tuple(v for v in table.variables if v in onto)
    if out is not None:
        out.require(
            onto, tuple(table.card_of(v) for v in onto), table.batch
        )
        if drop_axes and kept == onto:
            np.add.reduce(table.values, axis=drop_axes, out=out.values)
            return out
    folded = (
        np.add.reduce(table.values, axis=drop_axes)
        if drop_axes
        else table.values
    )
    kept_cards = [table.card_of(v) for v in kept]
    result = PotentialTable(
        kept, kept_cards, folded, batch=table.batch
    ).aligned_to(onto)
    if out is None:
        return result
    out.values[...] = result.values
    return out


def extend(
    table: PotentialTable,
    variables: Sequence[int],
    cardinalities: Sequence[int],
    out: Optional[PotentialTable] = None,
) -> PotentialTable:
    """Broadcast ``table`` up to the superset scope ``variables``.

    New variables are replicated (each entry of ``table`` appears once per
    joint state of the added variables), matching the extension primitive.
    ``out``, a table over exactly the target scope, receives the result in
    place and is returned.
    """
    variables = tuple(int(v) for v in variables)
    cardinalities = tuple(int(c) for c in cardinalities)
    missing = set(table.variables) - set(variables)
    if missing:
        raise ValueError(f"extension target is missing variables {missing}")
    for var, card in zip(variables, cardinalities):
        if var in table.variables and table.card_of(var) != card:
            raise ValueError(
                f"variable {var} cardinality mismatch: "
                f"{table.card_of(var)} vs {card}"
            )
    # Align source axes to their order within the target scope, insert
    # size-1 axes for the new variables, then broadcast.
    src_order = [v for v in variables if v in table.variables]
    aligned = table.aligned_to(src_order)
    src_cards = dict(zip(aligned.variables, aligned.cardinalities))
    shape = [src_cards.get(var, 1) for var in variables]
    target_shape = cardinalities
    if table.batch is not None:
        shape = [table.batch] + shape
        target_shape = (table.batch,) + cardinalities
    values = np.broadcast_to(aligned.values.reshape(shape), target_shape)
    if out is None:
        return PotentialTable(
            variables, cardinalities, values.copy(), batch=table.batch
        )
    out.require(variables, cardinalities, table.batch)
    np.copyto(out.values, values)
    return out


def multiply(
    a: PotentialTable,
    b: PotentialTable,
    out: Optional[PotentialTable] = None,
) -> PotentialTable:
    """Pointwise product; ``b``'s scope must be a subset of ``a``'s.

    The result keeps ``a``'s scope and axis order (the common case is
    multiplying an extended separator ratio into a clique table).
    ``out`` receives the result in place and is returned; it may be ``a``
    itself (``a *= b``).
    """
    if not set(b.variables) <= set(a.variables):
        raise ValueError(
            f"multiply: scope {b.variables} is not a subset of {a.variables}"
        )
    batch = _merged_batch(a, b)
    if b.variables != a.variables:
        b = extend(b, a.variables, a.cardinalities)
    # An unbatched operand broadcasts across the other's batch axis.
    if out is None:
        return PotentialTable(
            a.variables, a.cardinalities, a.values * b.values, batch=batch
        )
    out.require(a.variables, a.cardinalities, batch)
    np.multiply(a.values, b.values, out=out.values)
    return out


def divide(
    numerator: PotentialTable,
    denominator: PotentialTable,
    out: Optional[PotentialTable] = None,
) -> PotentialTable:
    """Pointwise ratio over identical scopes with the 0/0 = 0 convention.

    A zero in the denominator implies the corresponding separator state has
    zero mass, in which case the numerator is also zero and the standard
    junction-tree convention defines the ratio as zero.  ``out``, a table
    over the numerator's scope that is neither operand, receives the result
    in place and is returned.
    """
    if set(numerator.variables) != set(denominator.variables):
        raise ValueError(
            f"divide: scopes differ: {numerator.variables} vs "
            f"{denominator.variables}"
        )
    batch = _merged_batch(numerator, denominator)
    denom = denominator.aligned_to(numerator.variables)
    if out is None:
        shape = np.broadcast_shapes(numerator.values.shape, denom.values.shape)
        out = PotentialTable(
            numerator.variables,
            numerator.cardinalities,
            np.zeros(shape, dtype=np.float64),
            batch=batch,
        )
    else:
        out.require(numerator.variables, numerator.cardinalities, batch)
        out.values[...] = 0.0
    np.divide(
        numerator.values, denom.values, out=out.values,
        where=denom.values != 0,
    )
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
