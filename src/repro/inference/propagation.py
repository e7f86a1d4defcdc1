"""Independent serial reference for evidence propagation.

This implements two-phase propagation (Eq. 1) directly by tree recursion,
*without* the task graph, as a cross-check oracle: the task-graph executors
must produce numerically identical clique potentials.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.jt.junction_tree import JunctionTree
from repro.potential.primitives import divide, extend, marginalize, multiply
from repro.potential.table import PotentialTable


def propagate_reference(
    jt: JunctionTree, evidence: Optional[Mapping[int, int]] = None
) -> Dict[int, PotentialTable]:
    """Full two-phase propagation; returns calibrated clique potentials.

    The input tree's potentials are left untouched.
    """
    potentials = {i: jt.potential(i).copy() for i in range(jt.num_cliques)}
    if evidence:
        potentials = {
            i: table.reduce(evidence) for i, table in potentials.items()
        }
    separators: Dict[Tuple[int, int], PotentialTable] = {}

    def absorb(target: int, source: int, edge: Tuple[int, int]) -> None:
        """Propagate evidence from ``source`` into ``target`` (Eq. 1)."""
        sep_vars = jt.separator(source, target)
        sep_cards = tuple(
            jt.cliques[source].card_of(v) for v in sep_vars
        )
        sep_new = marginalize(potentials[source], sep_vars)
        old = separators.get(edge)
        if old is None:
            old = PotentialTable.ones(sep_vars, sep_cards)
        ratio = divide(sep_new, old.aligned_to(sep_vars))
        separators[edge] = sep_new
        clique = jt.cliques[target]
        extended = extend(ratio, clique.variables, clique.cardinalities)
        potentials[target] = multiply(potentials[target], extended)

    # Collect: children feed parents, bottom-up.
    for node in jt.postorder():
        for child in jt.children[node]:
            absorb(node, child, (node, child))
    # Distribute: parents feed children, top-down.
    for node in jt.preorder():
        for child in jt.children[node]:
            absorb(child, node, (node, child))
    return potentials


def marginal_from_potentials(
    jt: JunctionTree, potentials: Dict[int, PotentialTable], variable: int
):
    """Posterior over ``variable`` from calibrated potentials."""
    host, _axis = jt.host(variable)
    return marginalize(potentials[host], (variable,)).normalize().values
