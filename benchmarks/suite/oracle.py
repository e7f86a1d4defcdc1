"""Independent re-answering of sampled benchmark ops.

Every answer a workload reports is compared at 1e-9 against a path that
shares no code with the path that produced it:

* ``prop-*`` answers come from the task-graph engine; the oracle is the
  recursive two-phase ``propagate_reference`` over the *generated* (not
  rerooted) tree.
* ``serve-mix`` answers come from pooled incremental engines; the oracle
  is variable elimination straight off the network's CPTs.
* ``stream-durable`` answers come from rolling-window junction trees; the
  oracle is the textbook forward algorithm on the flattened joint state
  space (1296 states, one dense transition matrix), which touches no
  junction-tree code at all and is cheap enough to check *every* tick.
"""

import numpy as np

ATOL = 1e-9


def marginals_match(got, want):
    """True when both map the same variables to equal vectors at ATOL."""
    if set(got) != set(want):
        return False
    return all(
        np.shape(got[v]) == np.shape(want[v])
        and np.allclose(got[v], want[v], rtol=0.0, atol=ATOL)
        for v in want
    )


def reference_marginals(jt, evidence):
    """Posterior of every variable of ``jt`` via ``propagate_reference``."""
    from repro.inference.propagation import propagate_reference

    calibrated = propagate_reference(jt, evidence)
    marginals = {}
    for clique in jt.cliques:
        table = calibrated[clique.index]
        for axis, var in enumerate(table.variables):
            if var in marginals:
                continue
            others = tuple(a for a in range(len(table.variables)) if a != axis)
            vector = table.values.sum(axis=others)
            marginals[var] = vector / vector.sum()
    return marginals


def elimination_marginals(bn, delta, variables):
    """Posterior of each of ``variables`` by variable elimination."""
    from repro.inference.variable_elimination import ve_query

    return {int(v): ve_query(bn, [int(v)], delta).values for v in variables}


def _broadcast(values, axes, ndim):
    """``values`` (axes in the order ``axes``) as an ``ndim``-axis view."""
    order = np.argsort(axes)
    values = np.transpose(values, order)
    shape = [1] * ndim
    for axis, extent in zip(sorted(axes), values.shape):
        shape[axis] = extent
    return values.reshape(shape)


class DenseFilter:
    """Exact forward filtering of a 2-TBN on its flattened joint state.

    Axes ``0..k-1`` of the transition tensor are the previous slice,
    ``k..2k-1`` the current one; a CPT scope id ``>= k`` names a
    previous-slice variable (the DBN template's own convention).
    """

    def __init__(self, cards, prior_cpts, transition_cpts):
        """``*_cpts`` are ``(scope, values)`` pairs, one per slice variable."""
        k = self.k = len(cards)
        self.cards = tuple(cards)
        prior = np.ones(self.cards)
        for scope, values in prior_cpts:
            prior = prior * _broadcast(values, list(scope), k)
        self.prior = prior
        trans = np.ones(self.cards + self.cards)
        for scope, values in transition_cpts:
            axes = [u - k if u >= k else u + k for u in scope]
            trans = trans * _broadcast(values, axes, 2 * k)
        states = int(np.prod(self.cards))
        self.trans = trans.reshape(states, states)
        self.alpha = None

    def tick(self, delta):
        """Advance one slice under ``delta``; returns every posterior."""
        if self.alpha is None:
            alpha = self.prior
        else:
            alpha = (self.alpha.reshape(-1) @ self.trans).reshape(self.cards)
        for var, state in delta.items():
            mask = np.zeros(self.cards[var])
            mask[state] = 1.0
            alpha = alpha * _broadcast(mask, [var], self.k)
        self.alpha = alpha / alpha.sum()
        return {
            v: self.alpha.sum(axis=tuple(a for a in range(self.k) if a != v))
            for v in range(self.k)
        }
