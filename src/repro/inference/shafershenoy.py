"""Shafer-Shenoy propagation with lazy message caching.

An alternative to the HUGIN-style two-phase propagation the paper
parallelizes: each directed tree edge carries a *message* computed from
the source clique's prior, its evidence indicators and the messages
flowing into it from its other neighbours.  Beliefs multiply the clique
prior with all incoming messages.

The payoff is **incremental evidence updates**: observing (or retracting)
a variable only invalidates the messages directed *away* from its host
clique; messages flowing toward it stay valid.  Queries then recompute
only the stale part of the tree — the counters expose how much work was
reused, and the tests verify both the numerics (against the HUGIN engine
and brute force) and the savings.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import extend, marginalize, multiply
from repro.potential.table import PotentialTable

Edge = Tuple[int, int]  # (source clique, destination clique)


class ShaferShenoyEngine:
    """Lazy message-passing inference over a junction tree.

    Parameters
    ----------
    jt:
        A junction tree with initialized potentials (the *priors*; the
        engine never mutates them).
    """

    def __init__(self, jt: JunctionTree):
        if len(jt.potentials) != jt.num_cliques:
            raise ValueError(
                "junction tree needs potentials; call initialize_potentials()"
            )
        self.jt = jt
        self._adj = jt.undirected_adjacency()
        self._evidence: Dict[int, int] = {}
        self._soft: Dict[int, np.ndarray] = {}
        self._messages: Dict[Edge, PotentialTable] = {}
        # Instrumentation: how many messages were (re)computed vs served
        # from cache across the engine's lifetime.
        self.messages_computed = 0
        self.messages_reused = 0

    # ------------------------------------------------------------------ #
    # Evidence management
    # ------------------------------------------------------------------ #

    def _host(self, variable: int) -> int:
        return self.jt.host(variable)[0]

    def _invalidate_from(self, clique: int) -> None:
        """Drop every cached message directed away from ``clique``.

        These are exactly the messages whose upstream side contains
        ``clique``; messages pointing toward it are unaffected.
        """
        # BFS from `clique`: the edge (parent_side -> far_side) along each
        # step is directed away and must be dropped.
        stale: Set[Edge] = set()
        stack = [(clique, None)]
        while stack:
            node, come_from = stack.pop()
            for neighbour in self._adj[node]:
                if neighbour == come_from:
                    continue
                stale.add((node, neighbour))
                stack.append((neighbour, node))
        for edge in stale:
            self._messages.pop(edge, None)

    def observe(self, variable: int, state: int) -> "ShaferShenoyEngine":
        """Set hard evidence ``variable = state`` (overwrites)."""
        host = self._host(variable)
        card = self.jt.cliques[host].card_of(variable)
        if not 0 <= state < card:
            raise ValueError(
                f"state {state} out of range for variable {variable}"
            )
        self._evidence[variable] = state
        self._invalidate_from(host)
        return self

    def observe_soft(
        self, variable: int, weights: Sequence[float]
    ) -> "ShaferShenoyEngine":
        """Attach a likelihood vector to ``variable`` (overwrites)."""
        host = self._host(variable)
        card = self.jt.cliques[host].card_of(variable)
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (card,):
            raise ValueError(
                f"need {card} weights for variable {variable}, got {arr.shape}"
            )
        if np.any(arr < 0) or not np.any(arr > 0):
            raise ValueError("weights must be non-negative, not all zero")
        self._soft[variable] = arr
        self._invalidate_from(host)
        return self

    def retract(self, variable: int) -> "ShaferShenoyEngine":
        """Remove any evidence on ``variable``; unknown variables ignored."""
        if variable in self._evidence or variable in self._soft:
            self._evidence.pop(variable, None)
            self._soft.pop(variable, None)
            self._invalidate_from(self._host(variable))
        return self

    @property
    def evidence(self) -> Dict[int, int]:
        return dict(self._evidence)

    # ------------------------------------------------------------------ #
    # Messages and beliefs
    # ------------------------------------------------------------------ #

    def _local_table(self, clique: int) -> PotentialTable:
        """Clique prior with evidence indicators absorbed."""
        table = self.jt.potential(clique)
        relevant_hard = {
            v: s for v, s in self._evidence.items()
            if v in table.variables and self._host(v) == clique
        }
        if relevant_hard:
            table = table.reduce(relevant_hard)
        for var, weights in self._soft.items():
            if self._host(var) != clique or var not in table.variables:
                continue
            axis = table.variables.index(var)
            shape = [1] * len(table.cardinalities)
            shape[axis] = weights.size
            table = PotentialTable(
                table.variables,
                table.cardinalities,
                table.values * weights.reshape(shape),
            )
        return table

    def _message(self, src: int, dst: int) -> PotentialTable:
        """The message ``src -> dst``, computing stale dependencies first."""
        want = (src, dst)
        if want in self._messages:
            self.messages_reused += 1
            return self._messages[want]
        # Iterative dependency resolution over the (acyclic) message tree:
        # push the target, then any missing upstream messages; a node is
        # computed once all its inputs exist.
        stack: List[Edge] = [want]
        while stack:
            s, d = stack[-1]
            if (s, d) in self._messages:
                stack.pop()
                continue
            missing = [
                (n, s)
                for n in self._adj[s]
                if n != d and (n, s) not in self._messages
            ]
            if missing:
                stack.extend(missing)
                continue
            belief = self._local_table(s)
            for n in self._adj[s]:
                if n == d:
                    continue
                incoming = self._messages[(n, s)]
                belief = multiply(belief, incoming)
            sep = self.jt.separator(s, d)
            self._messages[(s, d)] = marginalize(belief, sep)
            self.messages_computed += 1
            stack.pop()
        return self._messages[want]

    def belief(self, clique: int) -> PotentialTable:
        """Unnormalized joint over ``clique``'s scope given all evidence."""
        if not 0 <= clique < self.jt.num_cliques:
            raise ValueError(f"clique {clique} out of range")
        table = self._local_table(clique)
        for neighbour in self._adj[clique]:
            table = multiply(table, self._message(neighbour, clique))
        return table

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def marginal(self, variable: int) -> np.ndarray:
        """Posterior ``P(variable | evidence)``."""
        host = self._host(variable)
        belief = self.belief(host)
        return marginalize(belief, (variable,)).normalize().values

    def joint_marginal(self, variables: Sequence[int]) -> PotentialTable:
        """Normalized joint over variables co-located in one clique.

        Raises ``KeyError`` if no clique covers the set (out-of-clique
        joints need variable grouping at tree-construction time).
        """
        host = self.jt.clique_containing(variables)
        belief = self.belief(host)
        return marginalize(belief, tuple(variables)).normalize()

    def likelihood(self) -> float:
        """Probability of the current evidence."""
        return self.belief(self.jt.root).total()

    def cache_size(self) -> int:
        """Number of currently valid cached messages (max ``2(N-1)``)."""
        return len(self._messages)

    def __repr__(self) -> str:
        return (
            f"ShaferShenoyEngine(cliques={self.jt.num_cliques}, "
            f"cached={self.cache_size()}, "
            f"computed={self.messages_computed}, "
            f"reused={self.messages_reused})"
        )
