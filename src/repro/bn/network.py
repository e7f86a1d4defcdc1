"""Directed graphical model: DAG structure plus conditional probability tables."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.potential.table import PotentialTable


class BayesianNetwork:
    """A Bayesian network over discrete variables ``0 .. n-1``.

    The structure is a DAG; each variable ``v`` carries a conditional
    probability table ``P(v | parents(v))`` stored as a
    :class:`~repro.potential.table.PotentialTable` whose scope is
    ``parents(v) + (v,)`` and which is normalized over ``v`` for every
    parent configuration.
    """

    def __init__(self, cardinalities: Sequence[int]):
        self.cardinalities: Tuple[int, ...] = tuple(int(c) for c in cardinalities)
        if any(c < 2 for c in self.cardinalities):
            raise ValueError("every variable needs at least 2 states")
        n = len(self.cardinalities)
        self._parents: List[List[int]] = [[] for _ in range(n)]
        self._children: List[List[int]] = [[] for _ in range(n)]
        self._cpts: Dict[int, PotentialTable] = {}

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_variables(self) -> int:
        return len(self.cardinalities)

    def parents(self, v: int) -> Tuple[int, ...]:
        return tuple(self._parents[v])

    def children(self, v: int) -> Tuple[int, ...]:
        return tuple(self._children[v])

    def edges(self) -> List[Tuple[int, int]]:
        """All directed edges ``(parent, child)``."""
        return [
            (p, c) for c in range(self.num_variables) for p in self._parents[c]
        ]

    def add_edge(self, parent: int, child: int) -> None:
        """Add edge ``parent -> child``; rejects duplicates and cycles."""
        self._check_var(parent)
        self._check_var(child)
        if parent == child:
            raise ValueError(f"self-loop on variable {parent}")
        if parent in self._parents[child]:
            raise ValueError(f"duplicate edge {parent} -> {child}")
        if self._reachable(child, parent):
            raise ValueError(f"edge {parent} -> {child} would create a cycle")
        self._parents[child].append(parent)
        self._children[parent].append(child)
        # Any previously-set CPT for `child` no longer matches its parent set.
        self._cpts.pop(child, None)

    def _check_var(self, v: int) -> None:
        if not 0 <= v < self.num_variables:
            raise ValueError(
                f"variable {v} out of range [0, {self.num_variables})"
            )

    def _reachable(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is reachable from ``src`` along directed edges."""
        stack = [src]
        seen = set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._children[node])
        return False

    def topological_order(self) -> List[int]:
        """Variables ordered so every parent precedes its children."""
        indegree = [len(self._parents[v]) for v in range(self.num_variables)]
        ready = [v for v, d in enumerate(indegree) if d == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for c in self._children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        if len(order) != self.num_variables:
            raise RuntimeError("graph contains a cycle")  # pragma: no cover
        return order

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #

    def set_cpt(self, v: int, table: PotentialTable) -> None:
        """Attach ``P(v | parents(v))``.

        The table's scope must be exactly ``parents(v) ∪ {v}``, its entries
        non-negative, and it must be normalized over ``v`` for every parent
        configuration.
        """
        self._check_var(v)
        expected = set(self._parents[v]) | {v}
        if set(table.variables) != expected:
            raise ValueError(
                f"CPT scope {set(table.variables)} != parents+self {expected}"
            )
        for var in table.variables:
            if table.card_of(var) != self.cardinalities[var]:
                raise ValueError(
                    f"CPT cardinality of variable {var} is "
                    f"{table.card_of(var)}, network says {self.cardinalities[var]}"
                )
        if np.any(table.values < 0):
            raise ValueError(f"CPT for variable {v} has negative entries")
        axis = table.variables.index(v)
        sums = table.values.sum(axis=axis)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError(f"CPT for variable {v} is not normalized over {v}")
        self._cpts[v] = table

    def cpt(self, v: int) -> PotentialTable:
        self._check_var(v)
        if v not in self._cpts:
            raise KeyError(f"variable {v} has no CPT set")
        return self._cpts[v]

    def has_all_cpts(self) -> bool:
        return len(self._cpts) == self.num_variables

    def randomize_cpts(self, rng: np.random.Generator, alpha: float = 1.0) -> None:
        """Fill every CPT with Dirichlet(``alpha``) rows (strictly positive)."""
        for v in range(self.num_variables):
            scope = list(self.parents(v)) + [v]
            cards = [self.cardinalities[u] for u in scope]
            shape = tuple(cards)
            rows = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
            probs = rng.dirichlet([alpha] * shape[-1], size=rows)
            # Dirichlet can produce exact zeros in extreme draws; nudge away.
            probs = np.clip(probs, 1e-9, None)
            probs = probs / probs.sum(axis=-1, keepdims=True)
            self._cpts[v] = PotentialTable(scope, cards, probs.reshape(shape))

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #

    def joint_table(self) -> PotentialTable:
        """The full joint distribution; exponential in n — testing only."""
        if not self.has_all_cpts():
            raise RuntimeError("all CPTs must be set before computing the joint")
        from repro.potential.primitives import extend

        scope = tuple(range(self.num_variables))
        cards = self.cardinalities
        joint = np.ones(cards)
        for v in range(self.num_variables):
            joint = joint * extend(self._cpts[v], scope, cards).values
        return PotentialTable(scope, cards, joint)

    def marginal_bruteforce(
        self, v: int, evidence: Mapping[int, int] = None
    ) -> np.ndarray:
        """Exact posterior ``P(v | evidence)`` by full enumeration (testing only)."""
        joint = self.joint_table()
        if evidence:
            joint = joint.reduce(evidence)
        from repro.potential.primitives import marginalize

        marg = marginalize(joint, (v,))
        return marg.normalize().values
