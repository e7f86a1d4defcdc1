"""Junction-tree rerooting for critical-path minimization (Section 4).

Evidence propagation in a path takes at least as long as in any other path,
so among all rerootings of a junction tree the one minimizing the weighted
critical path gives the best parallel schedule.  This module implements:

* :func:`clique_cost` — the per-clique work estimate of Eq. 2
  (``w_C * k * |table|``: each of the ``k`` neighbour updates runs the
  primitives over the ``r^w``-entry table, with a width factor for the
  per-entry index arithmetic),
* :func:`critical_path_weight` — heaviest root-to-clique path weight,
* :func:`select_root_bruteforce` — the straightforward ``O(w_C N^2)``
  try-every-root baseline,
* :func:`select_root` — the paper's ``O(w_C N)`` Algorithm 1: find the
  heaviest leaf-to-leaf path (the weighted diameter; Lemma 1 shows one of
  its endpoints realizes the critical path), then pick its weighted
  midpoint as the new root,
* :func:`reroot` — reorient all edges toward a new root (preorder walk).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.jt.junction_tree import JunctionTree
from repro.tasks.layout import table_layout


def clique_cost(jt: JunctionTree, index: int) -> float:
    """Evidence-propagation work estimate for one clique (Eq. 2 term)."""
    clique = jt.cliques[index]
    degree = max(jt.degree(index), 1)
    return float(clique.width * degree * clique.table_size)


def all_clique_costs(jt: JunctionTree) -> List[float]:
    """Eq. 2 cost of every clique, indexed by clique."""
    return [clique_cost(jt, i) for i in range(jt.num_cliques)]


def path_weight(jt: JunctionTree, path: List[int]) -> float:
    """Total weight of a path, both endpoints inclusive."""
    costs = all_clique_costs(jt)
    return sum(costs[i] for i in path)


def critical_path_weight(
    jt: JunctionTree, root: Optional[int] = None
) -> float:
    """Weight of the heaviest path from ``root`` to any clique.

    ``root`` defaults to the tree's current root.  Works on the underlying
    undirected tree, so any clique may be queried as a hypothetical root
    without materializing the rerooted tree.
    """
    if root is None:
        root = jt.root
    costs = all_clique_costs(jt)
    adj = jt.undirected_adjacency()
    best = 0.0
    dist = [-1.0] * jt.num_cliques
    dist[root] = costs[root]
    stack = [root]
    while stack:
        node = stack.pop()
        best = max(best, dist[node])
        for nxt in adj[node]:
            if dist[nxt] < 0:
                dist[nxt] = dist[node] + costs[nxt]
                stack.append(nxt)
    return best


def select_root_bruteforce(jt: JunctionTree) -> Tuple[int, float]:
    """Try every clique as root; return ``(best_root, critical_path_weight)``.

    ``O(N^2)`` reference implementation used to validate Algorithm 1.
    Ties break toward the lower clique index.
    """
    best_root = 0
    best_weight = float("inf")
    for candidate in range(jt.num_cliques):
        weight = critical_path_weight(jt, candidate)
        if weight < best_weight:
            best_weight = weight
            best_root = candidate
    return best_root, best_weight


def heaviest_leaf_path(jt: JunctionTree) -> List[int]:
    """The heaviest weighted leaf-to-leaf path (Algorithm 1, lines 1-16).

    One bottom-up sweep computes, for every clique ``i``, the weight ``v_i``
    of the heaviest downward path starting at ``i`` together with the best
    (``p_i``) and second-best (``q_i``) children; the heaviest leaf-to-leaf
    path peaks at the clique maximizing ``v_i + v_{q_i}``.
    """
    n = jt.num_cliques
    costs = all_clique_costs(jt)
    v = list(costs)
    p: List[Optional[int]] = [None] * n
    q: List[Optional[int]] = [None] * n
    for i in jt.postorder():
        children = jt.children[i]
        if not children:
            continue
        ranked = sorted(children, key=lambda c: v[c], reverse=True)
        p[i] = ranked[0]
        if len(ranked) > 1:
            q[i] = ranked[1]
        v[i] = costs[i] + v[p[i]]

    def peak_weight(i: int) -> float:
        return v[i] + (v[q[i]] if q[i] is not None else 0.0)

    m = max(range(n), key=peak_weight)

    # First arm: descend best children from the peak; reversed it runs
    # leaf -> m.  Second arm: descend from the runner-up child.
    arm = [m]
    while p[arm[-1]] is not None:
        arm.append(p[arm[-1]])
    path = list(reversed(arm))
    if q[m] is not None:
        node = q[m]
        while node is not None:
            path.append(node)
            node = p[node]
    return path


def select_root(jt: JunctionTree) -> Tuple[int, float]:
    """Algorithm 1: pick the root minimizing the critical path in O(w_C N).

    Returns ``(root, critical_path_weight)``.  The root is the weighted
    midpoint of the heaviest leaf-to-leaf path: the clique minimizing
    ``max(L(C_x, C_i), L(C_i, C_y))`` over the path, which coincides with
    the paper's ``argmin |L(C_x, C_i) - L(C_i, C_y)|`` criterion at the
    crossover of the two monotone prefix weights.
    """
    if jt.num_cliques == 1:
        return 0, clique_cost(jt, 0)
    costs = all_clique_costs(jt)
    path = heaviest_leaf_path(jt)
    total = sum(costs[i] for i in path)
    prefix = 0.0
    best_root = path[0]
    best_weight = float("inf")
    for node in path:
        prefix += costs[node]
        # Weight from x to node and node to y, both inclusive of `node`.
        left = prefix
        right = total - prefix + costs[node]
        weight = max(left, right)
        if weight < best_weight:
            best_weight = weight
            best_root = node
    return best_root, critical_path_weight(jt, best_root)


def reroot(jt: JunctionTree, new_root: int) -> JunctionTree:
    """Reorient every edge toward ``new_root`` (preorder edge flip).

    Clique indices, scopes and potentials are preserved; only parent/child
    orientation changes, matching Section 4's rerooting procedure.
    """
    if not 0 <= new_root < jt.num_cliques:
        raise ValueError(f"root {new_root} out of range")
    adj = jt.undirected_adjacency()
    parent: List[Optional[int]] = [None] * jt.num_cliques
    visited = [False] * jt.num_cliques
    visited[new_root] = True
    stack = [new_root]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if not visited[nxt]:
                visited[nxt] = True
                parent[nxt] = node
                stack.append(nxt)
    rerooted = JunctionTree(jt.cliques, parent)
    rerooted.potentials = dict(jt.potentials)
    # Same prior tables, same clique slots: the prior image is shared.
    rerooted._priors = jt._priors
    return rerooted


def reroot_optimally(jt: JunctionTree) -> Tuple[JunctionTree, int, float]:
    """Convenience: run Algorithm 1 and return the rerooted tree.

    Returns ``(rerooted_tree, root_index, critical_path_weight)``.  The
    rerooted structure is computed once per input tree and kept on it:
    every later call returns a ``with_priors`` twin of it carrying the
    input tree's current priors, so engines over one tree share its
    table layout, task graph, free list and prior image, and still see a
    prior replaced on the input tree.
    """
    memo = jt.__dict__.get("_rerooted")
    if memo is None:
        root, weight = select_root(jt)
        if root == jt.root:
            return jt, root, weight
        tree = reroot(jt, root)
        # Compiled before the first twin copies it, so every twin shares it.
        table_layout(tree)
        memo = jt._rerooted = (root, weight, tree)
    root, weight, tree = memo
    return tree.with_priors(jt.potentials), root, weight
