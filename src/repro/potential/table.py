"""Dense potential tables over discrete random variables.

A :class:`PotentialTable` couples an ordered scope (variable ids with their
cardinalities) to a dense numpy array whose axes follow the scope order.
All junction-tree math in the library is built from these tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np


class PotentialTable:
    """An unnormalized joint distribution over a set of discrete variables.

    Parameters
    ----------
    variables:
        Ordered variable ids; each corresponds to one axis of ``values``.
    cardinalities:
        Number of states of each variable, aligned with ``variables``.
    values:
        Array of shape ``cardinalities`` (or a flat array of the matching
        size, which is reshaped).  Defaults to all-ones (the identity
        potential for multiplication).
    """

    __slots__ = ("variables", "cardinalities", "values")

    def __init__(
        self,
        variables: Sequence[int],
        cardinalities: Sequence[int],
        values: np.ndarray = None,
    ):
        variables = tuple(int(v) for v in variables)
        cardinalities = tuple(int(c) for c in cardinalities)
        if len(variables) != len(set(variables)):
            raise ValueError(f"duplicate variables in scope: {variables}")
        if len(variables) != len(cardinalities):
            raise ValueError(
                f"{len(variables)} variables but {len(cardinalities)} cardinalities"
            )
        if any(c < 1 for c in cardinalities):
            raise ValueError(f"cardinalities must be >= 1, got {cardinalities}")
        shape = cardinalities if cardinalities else ()
        if values is None:
            values = np.ones(shape, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if values.size != expected:
                raise ValueError(
                    f"values has {values.size} entries, scope needs {expected}"
                )
            values = values.reshape(shape)
        self.variables = variables
        self.cardinalities = cardinalities
        self.values = values

    @classmethod
    def wrap(
        cls, variables, cardinalities, values: np.ndarray
    ) -> "PotentialTable":
        """A table over ``values`` as given: no validation, no copy.

        For callers that derived the scope tuples and the array's shape
        from tables already validated (the layout's views, the primitives'
        results); everything else goes through the constructor.
        """
        table = cls.__new__(cls)
        table.variables = variables
        table.cardinalities = cardinalities
        table.values = values
        return table

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of entries in the table (``prod(cardinalities)``)."""
        return int(self.values.size)

    @property
    def nbytes(self) -> int:
        """Bytes needed to store the entries as float64."""
        return self.size * np.dtype(np.float64).itemsize

    @property
    def width(self) -> int:
        """Number of variables in the scope (the clique width ``w``)."""
        return len(self.variables)

    def card_of(self, variable: int) -> int:
        """Cardinality of ``variable``, which must be in the scope."""
        return self.cardinalities[self.variables.index(variable)]

    def require(self, variables, cardinalities) -> None:
        """Raise unless this table is exactly the ``out=`` destination a
        result over ``variables`` x ``cardinalities`` needs."""
        if self.variables != variables or self.cardinalities != cardinalities:
            raise ValueError(
                f"out= has scope {self.variables} x {self.cardinalities}, "
                f"the result needs {variables} x {cardinalities}"
            )

    def scope_cards(self) -> Dict[int, int]:
        """Mapping of variable id to cardinality."""
        return dict(zip(self.variables, self.cardinalities))

    def __repr__(self) -> str:
        scope = ", ".join(
            f"{v}:{c}" for v, c in zip(self.variables, self.cardinalities)
        )
        return f"PotentialTable([{scope}], size={self.size})"

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def copy(self) -> "PotentialTable":
        """Deep copy (values are duplicated)."""
        return PotentialTable(
            self.variables, self.cardinalities, self.values.copy()
        )

    @classmethod
    def ones(cls, variables: Sequence[int], cardinalities: Sequence[int]):
        """Identity potential (all entries 1) over the given scope."""
        return cls(variables, cardinalities)

    @classmethod
    def random(
        cls,
        variables: Sequence[int],
        cardinalities: Sequence[int],
        rng: np.random.Generator,
        low: float = 0.1,
        high: float = 1.0,
    ) -> "PotentialTable":
        """Random strictly-positive potential, useful for synthetic workloads.

        Entries are drawn uniformly from ``[low, high)``; keeping them bounded
        away from zero avoids division blow-ups during propagation.
        """
        shape = tuple(int(c) for c in cardinalities)
        values = rng.uniform(low, high, size=shape)
        return cls(variables, cardinalities, values)

    # ------------------------------------------------------------------ #
    # Scope manipulation
    # ------------------------------------------------------------------ #

    def aligned_to(self, variables: Sequence[int]) -> "PotentialTable":
        """Return this table with axes permuted to the given variable order.

        ``variables`` must be a permutation of this table's scope.
        """
        variables = tuple(int(v) for v in variables)
        if set(variables) != set(self.variables):
            raise ValueError(
                f"cannot align scope {self.variables} to {variables}: "
                "different variable sets"
            )
        if variables == self.variables:
            return self
        perm = [self.variables.index(v) for v in variables]
        cards = tuple(self.cardinalities[p] for p in perm)
        return PotentialTable(
            variables, cards, np.transpose(self.values, perm)
        )

    def reduce(
        self, evidence: Mapping[int, int], out: "PotentialTable" = None
    ) -> "PotentialTable":
        """Instantiate evidence variables *in place of* their full axes.

        Entries inconsistent with the evidence are zeroed; the scope is kept
        so the table shape (and downstream task structure) is unchanged.
        This matches evidence absorption in the paper: the variable is
        instantiated and the remaining entries renormalized later.
        ``out``, a table over this table's scope, receives the result in
        place and is returned.
        """
        if out is None:
            out = self.copy()
        else:
            out.require(self.variables, self.cardinalities)
            np.copyto(out.values, self.values)
        for var, state in evidence.items():
            if var not in self.variables:
                continue
            axis = self.variables.index(var)
            card = self.cardinalities[axis]
            if not 0 <= state < card:
                raise ValueError(
                    f"evidence state {state} out of range for variable {var} "
                    f"with {card} states"
                )
            mask = np.zeros(card, dtype=np.float64)
            mask[state] = 1.0
            shape = [1] * len(self.cardinalities)
            shape[axis] = card
            out.values *= mask.reshape(shape)
        return out

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #

    def normalize(self) -> "PotentialTable":
        """Return the table scaled to sum to 1 (no-op scale for all-zero)."""
        total = float(self.values.sum())
        if total <= 0:
            return self.copy()
        return PotentialTable.wrap(
            self.variables, self.cardinalities, self.values / total
        )

    def total(self) -> float:
        """Sum of all entries (the partition function over this scope)."""
        return float(self.values.sum())

    def allclose(self, other: "PotentialTable", rtol=1e-9, atol=1e-12) -> bool:
        """Whether two tables over the same variable *set* are numerically equal."""
        if set(self.variables) != set(other.variables):
            return False
        aligned = other.aligned_to(self.variables)
        return bool(
            np.allclose(self.values, aligned.values, rtol=rtol, atol=atol)
        )


def common_scope(
    tables: Iterable[PotentialTable],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Union scope of several tables, checking cardinality consistency.

    Returns ``(variables, cardinalities)`` with variables in first-seen order.
    """
    variables = []
    cards = {}
    for table in tables:
        for var, card in zip(table.variables, table.cardinalities):
            if var in cards:
                if cards[var] != card:
                    raise ValueError(
                        f"variable {var} has inconsistent cardinalities "
                        f"{cards[var]} vs {card}"
                    )
            else:
                cards[var] = card
                variables.append(var)
    return tuple(variables), tuple(cards[v] for v in variables)
