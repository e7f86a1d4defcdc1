"""Planning for incremental evidence repropagation.

A full propagation runs ``8 * (N - 1)`` primitive tasks regardless of how
much the findings changed since the last run.  For serving workloads that
move evidence by small deltas between queries most of that work is
redundant: a collect message ``mu[c -> p]`` depends only on the evidence
inside ``c``'s subtree, so it is still valid whenever no finding in that
subtree changed (Madsen & Jensen's lazy-propagation observation applied to
the paper's clique updating graph).

:func:`plan_incremental` turns an evidence delta into the *rebuild set*
(dirty cliques plus their root-ward closure) and the restricted collect
edge set, after checking that the reuse is actually sound:

* every rebuilt clique must find a stored collect message for each of its
  clean children in the previous state, and
* a *weakening* delta (retraction, overwrite, hard<->soft transition) may
  reopen probability mass in states that the previous evidence had zeroed.
  The carried separators then hold zeros where the new posterior is
  positive, and :func:`repro.potential.primitives.divide`'s ``0 -> 0``
  convention would silently drop that mass.  Zeros can only ever be
  *reopened* by a weakening delta (monotone deltas multiply further
  indicator factors in, which never turns a zero positive), so the planner
  scans the carried separators for zeros only in the weakening case and
  refuses the plan when it finds any.

A refusal (``None`` return) means "fall back to full propagation" — the
engine treats incremental execution strictly as an optimization, never a
semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.tasks.clique_graph import dirty_ancestor_closure, dirty_cliques
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT

from repro.inference.evidence import evidence_delta

Edge = Tuple[int, int]


@dataclass
class IncrementalPlan:
    """A validated restricted-repropagation plan.

    ``rebuild`` is the set of cliques whose working potentials must be
    reconstructed (changed-variable cliques plus ancestors);
    ``collect_edges`` the tree edges whose collect pipelines re-run (every
    edge whose child is in ``rebuild``).  The distribute edge set is chosen
    by the caller — full calibration distributes to every stale clique,
    a targeted query only along the root-to-host paths — via
    :func:`distribute_edges_for`.
    """

    changed_variables: Set[int] = field(default_factory=set)
    weakening: bool = False
    dirty: Set[int] = field(default_factory=set)
    rebuild: Set[int] = field(default_factory=set)
    collect_edges: Set[Edge] = field(default_factory=set)


def plan_incremental(
    jt: JunctionTree,
    prev: PropagationState,
    new_assignments: Mapping[int, int],
    new_soft: Mapping[int, "np.ndarray"],
) -> Optional[IncrementalPlan]:
    """Plan a restricted repropagation from ``prev`` to the new findings.

    Returns ``None`` when reuse is unsound and the caller must fall back
    to full propagation (see the module docstring for the two conditions).
    An empty delta yields a plan with empty ``rebuild`` — nothing to do.
    """
    changed, weakening = evidence_delta(
        new_assignments, new_soft, prev.evidence, prev.soft_evidence
    )
    if not changed:
        return IncrementalPlan()
    dirty = dirty_cliques(jt, changed)
    rebuild = dirty_ancestor_closure(jt, dirty)
    collect_edges = {
        (jt.parent[c], c) for c in rebuild if jt.parent[c] is not None
    }

    # Reuse soundness check 1: stored collect messages for clean children.
    for i in rebuild:
        for c in jt.children[i]:
            if c in rebuild:
                continue
            if (COLLECT, (i, c), "sep_new") not in prev._inter:
                return None

    # Reuse soundness check 2: weakening deltas must not reopen zeros in
    # any separator that survives into the new state as a divide
    # denominator (edges whose child is rebuilt get reset to ones).
    if weakening:
        for edge, table in prev.separators.items():
            if edge[1] in rebuild:
                continue
            if np.any(table.values == 0.0):
                return None

    return IncrementalPlan(
        changed_variables=changed,
        weakening=weakening,
        dirty=dirty,
        rebuild=rebuild,
        collect_edges=collect_edges,
    )


def distribute_edges_for(
    jt: JunctionTree,
    stale: Set[int],
    targets: Optional[Set[int]] = None,
) -> Set[Edge]:
    """Distribute-phase edges needed to refresh ``targets`` (or all cliques).

    An edge ``(p, c)`` re-runs exactly when ``c`` is stale and lies on a
    path from the root to a target clique; ``targets=None`` refreshes every
    stale clique (full calibration).  The returned set is closed toward
    the root, matching the dependency expectations of
    :func:`repro.tasks.dag.build_task_graph`.
    """
    if targets is None:
        # Every stale clique is its own target.
        return {(jt.parent[c], c) for c in stale if jt.parent[c] is not None}
    edges: Set[Edge] = set()
    for t in targets:
        for c in jt.path_to_root(t):
            p = jt.parent[c]
            if p is None:
                break
            if c not in stale:
                continue
            if (p, c) in edges:
                break
            edges.add((p, c))
    return edges
