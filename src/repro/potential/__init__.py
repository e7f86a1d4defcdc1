"""Potential tables and node-level primitives.

A *potential table* is the joint (unnormalized) distribution over the random
variables of a clique or separator.  Evidence propagation is expressed as a
series of four *node-level primitives* over potential tables (Xia & Prasanna,
SBAC-PAD 2007, as used by the PACT 2009 paper):

* **marginalization** — project a clique table onto a separator scope,
* **extension** — broadcast a separator table up to a clique scope,
* **multiplication** — pointwise product of two aligned tables,
* **division** — pointwise ratio with the 0/0 = 0 convention.
"""

from repro.potential.table import PotentialTable
from repro.potential.primitives import (
    PrimitiveKind,
    divide,
    extend,
    marginalize,
    multiply,
    primitive_flops,
)
from repro.potential.partition import (
    add_partials_into,
    chunk_ranges,
    divide_chunk_into,
    extend_chunk_into,
    marginalize_chunk,
    multiply_chunk_into,
    multiply_extended_chunk_into,
)

__all__ = [
    "PotentialTable",
    "PrimitiveKind",
    "marginalize",
    "extend",
    "multiply",
    "divide",
    "primitive_flops",
    "chunk_ranges",
    "marginalize_chunk",
    "extend_chunk_into",
    "multiply_chunk_into",
    "multiply_extended_chunk_into",
    "divide_chunk_into",
    "add_partials_into",
]
