"""Chunked execution of node-level primitives.

The paper's Partition module (Section 6) splits a large task into subtasks
that each process a slice of the potential table; the final subtask
``T̂_n`` combines the partial results.  The functions here compute exactly
one such slice, one kernel per primitive, so every executor and the
multicore simulator share the same partitioning semantics.

Slices are expressed over the *flat* (C-order) index space of a table:

* For extend/multiply/divide the **output** index space is partitioned:
  the output table lives in a buffer every worker (thread or process)
  sees, each chunk owns a disjoint slice of it and writes that slice in
  place (``*_chunk_into``), and nothing is left to combine.  A wide
  pipeline's MULTIPLY gathers the ratio entries its chunk needs
  (:func:`multiply_extended_chunk_into`): it has no extended table.
* For marginalization the **input** index space is partitioned; each chunk
  returns a partial output table (:func:`marginalize_chunk`) and the
  combiner adds them (:func:`add_partials_into`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.potential.table import PotentialTable


def chunk_ranges(total: int, max_chunk: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into contiguous ``[lo, hi)`` chunks.

    Each chunk has at most ``max_chunk`` elements; the split is as even as
    possible so subtask weights are balanced.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if max_chunk < 1:
        raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
    if total == 0:
        return []
    pieces = -(-total // max_chunk)  # ceil division
    base, extra = divmod(total, pieces)
    ranges = []
    lo = 0
    for i in range(pieces):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _flat_to_sub(table: PotentialTable, flat: np.ndarray, keep: Sequence[int]):
    """Map flat indices of ``table`` to flat indices of the ``keep``
    sub-scope."""
    if not keep:
        # Empty separator: everything folds into the single scalar entry.
        return np.zeros(flat.size, dtype=np.intp), ()
    full_shape = table.values.shape
    coords = np.unravel_index(flat, full_shape)
    keep_axes = [table.variables.index(v) for v in keep]
    keep_cards = tuple(full_shape[a] for a in keep_axes)
    keep_coords = tuple(coords[a] for a in keep_axes)
    return np.ravel_multi_index(keep_coords, keep_cards), keep_cards


def marginalize_chunk(
    table: PotentialTable, onto: Sequence[int], lo: int, hi: int
) -> PotentialTable:
    """Partial marginalization over input entries ``[lo, hi)``.

    Returns a table over ``onto`` holding the partial sums contributed by the
    chunk; summing the chunk tables over a full partition of the input yields
    :func:`repro.potential.primitives.marginalize` exactly.
    """
    onto = tuple(int(v) for v in onto)
    if not 0 <= lo <= hi <= table.size:
        raise ValueError(f"chunk [{lo}, {hi}) out of range for size {table.size}")
    flat = np.arange(lo, hi)
    sub_flat, sub_cards = _flat_to_sub(table, flat, onto)
    out = np.zeros(int(np.prod(sub_cards)) if sub_cards else 1)
    np.add.at(out, sub_flat, table.values.reshape(-1)[lo:hi])
    cards = [table.card_of(v) for v in onto]
    return PotentialTable(onto, cards, out)


def extended_chunk(
    table: PotentialTable,
    variables: Sequence[int],
    cardinalities: Sequence[int],
    lo: int,
    hi: int,
) -> np.ndarray:
    """Entries ``[lo, hi)`` of ``table`` extended to the superset scope
    ``variables`` (flat, C order), gathered for the chunk alone."""
    variables = tuple(int(v) for v in variables)
    cardinalities = tuple(int(c) for c in cardinalities)
    total = int(np.prod(cardinalities)) if cardinalities else 1
    out_shape = cardinalities if cardinalities else (1,)
    src_shape = table.cardinalities if table.cardinalities else (1,)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"chunk [{lo}, {hi}) out of range for size {total}")
    flat = np.arange(lo, hi)
    coords = np.unravel_index(flat, out_shape)
    src_axes = [variables.index(v) for v in table.variables]
    src_coords = tuple(coords[a] for a in src_axes)
    if src_coords:
        src_flat = np.ravel_multi_index(
            src_coords, src_shape[: len(src_coords)]
        )
    else:
        src_flat = np.zeros(hi - lo, dtype=np.intp)
    return table.values.reshape(-1)[src_flat]


def extend_chunk_into(
    out_flat: np.ndarray,
    table: PotentialTable,
    variables: Sequence[int],
    cardinalities: Sequence[int],
    lo: int,
    hi: int,
) -> None:
    """Write entries ``[lo, hi)`` of the flat extended table into ``out_flat``.

    Writing every chunk of a full partition reproduces
    :func:`repro.potential.primitives.extend`.
    """
    out_flat[lo:hi] = extended_chunk(table, variables, cardinalities, lo, hi)


def multiply_chunk_into(
    out_flat: np.ndarray, other_flat: np.ndarray, lo: int, hi: int
) -> None:
    """``out_flat[lo:hi] *= other_flat[lo:hi]`` (the in-place MULTIPLY chunk
    of a table by an already extended one)."""
    out_flat[lo:hi] *= other_flat[lo:hi]


def multiply_extended_chunk_into(
    out_flat: np.ndarray,
    table: PotentialTable,
    variables: Sequence[int],
    cardinalities: Sequence[int],
    lo: int,
    hi: int,
) -> None:
    """``out_flat[lo:hi] *=`` entries ``[lo, hi)`` of ``table`` extended to
    ``variables``: the MULTIPLY chunk of a wide pipeline, which has no
    extended table to read; only the chunk's entries are gathered.

    Multiplying every chunk of a full partition reproduces
    :func:`repro.potential.primitives.multiply` bitwise.
    """
    out_flat[lo:hi] *= extended_chunk(table, variables, cardinalities, lo, hi)


def divide_chunk_into(
    out_flat: np.ndarray,
    num_flat: np.ndarray,
    den_flat: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Write the ``[lo, hi)`` ratio slice (0/0 = 0) of two aligned tables
    into ``out_flat``."""
    den = den_flat[lo:hi]
    out = out_flat[lo:hi]
    out[...] = 0.0
    np.divide(num_flat[lo:hi], den, out=out, where=den != 0)


def add_partials_into(
    out_flat: np.ndarray, parts: Sequence[np.ndarray]
) -> None:
    """Sum partial marginalization tables into ``out_flat`` (the ``T̂_n`` add).

    Partials are added in the given order so the floating-point result is
    deterministic for a fixed chunk plan.
    """
    out_flat[...] = 0.0
    for part in parts:
        out_flat += np.asarray(part).reshape(out_flat.shape)
