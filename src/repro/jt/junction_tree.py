"""The junction-tree data structure.

A junction tree ``J = (T, P̂)`` is a rooted tree of cliques; each clique is a
set of random variables with a potential table, and each tree edge carries a
separator (the intersection of the adjacent cliques' scopes).
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.potential.table import PotentialTable


class Clique:
    """One vertex of a junction tree.

    Parameters
    ----------
    index:
        Position of the clique in the tree's clique list.
    variables:
        Variable ids in the clique's scope (order fixes the potential axes).
    cardinalities:
        Number of states of each scope variable.
    """

    __slots__ = ("index", "variables", "cardinalities")

    def __init__(
        self, index: int, variables: Sequence[int], cardinalities: Sequence[int]
    ):
        self.index = int(index)
        self.variables = tuple(int(v) for v in variables)
        self.cardinalities = tuple(int(c) for c in cardinalities)
        if len(self.variables) != len(set(self.variables)):
            raise ValueError(f"clique {index} has duplicate variables")
        if len(self.variables) != len(self.cardinalities):
            raise ValueError(f"clique {index} scope/cardinality length mismatch")

    @property
    def width(self) -> int:
        """Number of variables in the clique (``w_C`` in the paper)."""
        return len(self.variables)

    @property
    def table_size(self) -> int:
        """Number of potential-table entries (``r^w`` for uniform arity)."""
        size = 1
        for c in self.cardinalities:
            size *= c
        return size

    def card_of(self, variable: int) -> int:
        return self.cardinalities[self.variables.index(variable)]

    def __repr__(self) -> str:
        return f"Clique({self.index}, vars={self.variables})"


class JunctionTree:
    """A rooted tree of cliques with per-clique potential tables.

    The tree is stored as a parent array (``parent[root] is None``) plus
    children lists.  Potentials are optional until
    :meth:`initialize_potentials` or an explicit assignment; structural
    algorithms (rerooting, task-graph construction) only need the skeleton.
    """

    def __init__(self, cliques: Sequence[Clique], parent: Sequence[Optional[int]]):
        self.cliques: List[Clique] = list(cliques)
        if len(parent) != len(self.cliques):
            raise ValueError("parent array length must match clique count")
        self.parent: List[Optional[int]] = [
            None if p is None else int(p) for p in parent
        ]
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        self.root: int = roots[0]
        self.children: List[List[int]] = [[] for _ in self.cliques]
        for i, p in enumerate(self.parent):
            if p is not None:
                if not 0 <= p < len(self.cliques):
                    raise ValueError(f"clique {i} has out-of-range parent {p}")
                self.children[p].append(i)
        self._check_connected()
        self.potentials: Dict[int, PotentialTable] = {}
        # variable -> (host clique, axis there); see :meth:`host`.
        self._hosts: Optional[Dict[int, Tuple[int, int]]] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    def _check_connected(self) -> None:
        seen = 0
        stack = [self.root]
        visited = [False] * self.num_cliques
        while stack:
            node = stack.pop()
            if visited[node]:
                raise ValueError("parent array contains a cycle")
            visited[node] = True
            seen += 1
            stack.extend(self.children[node])
        if seen != self.num_cliques:
            raise ValueError("junction tree is not connected")

    def separator(self, a: int, b: int) -> Tuple[int, ...]:
        """Shared variables of two adjacent cliques, in clique-``a`` order."""
        if self.parent[a] != b and self.parent[b] != a:
            raise ValueError(f"cliques {a} and {b} are not adjacent")
        b_vars = set(self.cliques[b].variables)
        # An empty separator is legal (disconnected components joined by the
        # spanning tree); the message degenerates to a scalar total mass.
        return tuple(v for v in self.cliques[a].variables if v in b_vars)

    def separator_cards(self, a: int, b: int) -> Tuple[int, ...]:
        sep = self.separator(a, b)
        return tuple(self.cliques[a].card_of(v) for v in sep)

    def leaves(self) -> List[int]:
        """Cliques with no children."""
        return [i for i in range(self.num_cliques) if not self.children[i]]

    def degree(self, i: int) -> int:
        """Undirected degree: children plus the parent edge (``k_t``)."""
        return len(self.children[i]) + (0 if self.parent[i] is None else 1)

    def preorder(self) -> List[int]:
        """Root-first traversal; parents precede children."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children[node]))
        return order

    def postorder(self) -> List[int]:
        """Children-first traversal; the root comes last."""
        return list(reversed(self._reverse_postorder()))

    def _reverse_postorder(self) -> List[int]:
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        return order

    def depth_of(self, i: int) -> int:
        """Number of edges from the root to clique ``i``."""
        depth = 0
        node = i
        while self.parent[node] is not None:
            node = self.parent[node]
            depth += 1
        return depth

    def path_to_root(self, i: int) -> List[int]:
        """Cliques from ``i`` up to and including the root."""
        path = [i]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def undirected_adjacency(self) -> List[List[int]]:
        """Neighbour lists of the underlying undirected tree."""
        adj: List[List[int]] = [[] for _ in self.cliques]
        for i, p in enumerate(self.parent):
            if p is not None:
                adj[i].append(p)
                adj[p].append(i)
        return adj

    # ------------------------------------------------------------------ #
    # Potentials
    # ------------------------------------------------------------------ #

    def initialize_potentials(
        self, rng: np.random.Generator = None
    ) -> None:
        """Set every clique potential: random positive if ``rng``, else ones."""
        for clique in self.cliques:
            if rng is None:
                table = PotentialTable.ones(clique.variables, clique.cardinalities)
            else:
                table = PotentialTable.random(
                    clique.variables, clique.cardinalities, rng
                )
            self.potentials[clique.index] = table

    def potential(self, i: int) -> PotentialTable:
        if i not in self.potentials:
            raise KeyError(f"clique {i} has no potential assigned")
        return self.potentials[i]

    def set_potential(self, i: int, table: PotentialTable) -> None:
        clique = self.cliques[i]
        if set(table.variables) != set(clique.variables):
            raise ValueError(
                f"potential scope {table.variables} does not match clique "
                f"scope {clique.variables}"
            )
        self.potentials[i] = table.aligned_to(clique.variables)

    def with_priors(
        self, priors: Mapping[int, PotentialTable]
    ) -> "JunctionTree":
        """A tree with this one's structure and new priors for some cliques.

        ``priors`` maps clique index to its new potential, already in the
        clique's axis order; every other clique keeps this tree's table.
        The new tree shares, rather than copies, the cliques, the parent
        vector and everything compiled from them that exists on this tree
        at call time — the variable → host map, the table layout with its
        pipeline plans and restricted task graphs — so a tree whose
        numbers change but whose structure does not is compiled once.
        Neither tree is modified by the other afterwards: clique priors
        are never written in place.
        """
        self._host_map()
        twin = copy.copy(self)
        twin.potentials = {**self.potentials, **priors}
        return twin

    def copy(self) -> "JunctionTree":
        """Deep copy: structure and potentials."""
        twin = JunctionTree(
            [Clique(c.index, c.variables, c.cardinalities) for c in self.cliques],
            list(self.parent),
        )
        twin.potentials = {i: t.copy() for i, t in self.potentials.items()}
        return twin

    def clique_containing(self, variables: Iterable[int]) -> int:
        """Smallest clique whose scope covers ``variables``.

        Raises ``KeyError`` when no clique covers the set (family coverage
        is guaranteed for trees built from a Bayesian network).
        """
        wanted = set(variables)
        best = None
        for clique in self.cliques:
            if wanted <= set(clique.variables):
                if best is None or clique.table_size < best.table_size:
                    best = clique
        if best is None:
            raise KeyError(f"no clique contains variables {sorted(wanted)}")
        return best.index

    def _host_map(self) -> Dict[int, Tuple[int, int]]:
        """variable -> (smallest clique holding it, its axis there), built
        once per tree: clique scopes never change after construction."""
        hosts = self._hosts
        if hosts is None:
            hosts = {}
            sizes = {}
            for clique in self.cliques:
                size = clique.table_size
                for axis, var in enumerate(clique.variables):
                    # Same tie-break as clique_containing: smallest table,
                    # then lowest index.
                    if var not in hosts or size < sizes[var]:
                        hosts[var] = (clique.index, axis)
                        sizes[var] = size
            self._hosts = hosts
        return hosts

    def host(self, variable: int) -> Tuple[int, int]:
        """``(clique, axis)``: ``clique_containing([variable])`` and the
        variable's axis in that clique's potential.

        Every single-variable answer goes through this one lookup, so the
        clique a query refreshes and the clique its answer is read from
        cannot differ.  Raises ``KeyError`` for a variable no clique holds.
        """
        try:
            return self._host_map()[variable]
        except KeyError:
            raise KeyError(
                f"no clique contains variables [{variable}]"
            ) from None

    def variables(self) -> List[int]:
        """Every variable some clique holds, ascending."""
        return sorted(self._host_map())

    def __repr__(self) -> str:
        return (
            f"JunctionTree(num_cliques={self.num_cliques}, root={self.root})"
        )
