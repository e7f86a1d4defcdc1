"""Evidence: observed variable assignments (hard and soft) to propagate.

*Hard* evidence instantiates a variable to one state.  *Soft* (virtual /
likelihood) evidence attaches a non-negative weight per state — the
classic Pearl virtual-evidence node — and is absorbed by multiplying the
weight vector into a clique containing the variable.

Every mutation bumps a monotonically increasing :attr:`Evidence.version`.
Consumers holding propagation results keyed to an older version (the
:class:`~repro.inference.engine.InferenceEngine`) use it to detect that
their cached state is stale; :func:`evidence_delta` diffs two evidence
snapshots into the changed-variable set that drives incremental
repropagation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence, Set, Tuple

import numpy as np


class Evidence:
    """A set of instantiated variables ``{variable: state}`` plus soft findings.

    Thin validated mapping; :meth:`checked_against` verifies states are in
    range for a given cardinality vector before propagation starts.
    """

    def __init__(self, assignments: Mapping[int, int] = None):
        self._assignments: Dict[int, int] = {}
        self._soft: Dict[int, np.ndarray] = {}
        self._version = 0
        for var, state in (assignments or {}).items():
            self.observe(int(var), int(state))

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter.

        Bumped by every :meth:`observe`, :meth:`observe_soft` and
        :meth:`retract` call (even no-op ones), so ``version`` equality
        guarantees the findings are byte-identical to when a consumer
        snapshotted them.
        """
        return self._version

    def observe(self, variable: int, state: int) -> None:
        """Record ``variable = state``; re-observing overwrites."""
        if variable < 0:
            raise ValueError(f"variable id must be non-negative, got {variable}")
        if state < 0:
            raise ValueError(f"state must be non-negative, got {state}")
        self._assignments[variable] = state
        self._soft.pop(variable, None)
        self._version += 1

    def observe_soft(self, variable: int, weights: Sequence[float]) -> None:
        """Attach a likelihood vector to ``variable`` (virtual evidence).

        ``weights`` must be finite and non-negative with at least one
        positive entry; it need not be normalized.  Re-observing
        overwrites; a previous *hard* finding on the variable is replaced
        by the soft one.
        """
        if variable < 0:
            raise ValueError(f"variable id must be non-negative, got {variable}")
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("soft evidence needs a 1-D vector of >= 2 weights")
        finite = np.all(np.isfinite(arr))
        if not finite or np.any(arr < 0) or not np.any(arr > 0):
            raise ValueError(
                "soft-evidence weights must be finite and non-negative with "
                "a positive entry"
            )
        self._soft[variable] = arr
        self._assignments.pop(variable, None)
        self._version += 1

    def retract(self, variable: int) -> None:
        """Remove an observation (hard or soft); missing variables ignored."""
        self._assignments.pop(variable, None)
        self._soft.pop(variable, None)
        self._version += 1

    def checked_against(self, cardinalities) -> Dict[int, int]:
        """Validate and return a plain dict of hard assignments."""
        for var, state in self._assignments.items():
            if var >= len(cardinalities):
                raise ValueError(f"evidence variable {var} does not exist")
            if state >= cardinalities[var]:
                raise ValueError(
                    f"evidence state {state} out of range for variable {var} "
                    f"with {cardinalities[var]} states"
                )
        for var, weights in self._soft.items():
            if var >= len(cardinalities):
                raise ValueError(f"evidence variable {var} does not exist")
            if weights.size != cardinalities[var]:
                raise ValueError(
                    f"soft evidence for variable {var} has {weights.size} "
                    f"weights, variable has {cardinalities[var]} states"
                )
        return dict(self._assignments)

    def soft_as_dict(self) -> Dict[int, np.ndarray]:
        """Copy of the soft findings, ``{variable: weight vector}``."""
        return {var: weights.copy() for var, weights in self._soft.items()}

    @property
    def has_soft(self) -> bool:
        return bool(self._soft)

    def as_dict(self) -> Dict[int, int]:
        return dict(self._assignments)

    def signature(self) -> Tuple:
        """Canonical, hashable fingerprint of the full evidence set.

        Two ``Evidence`` objects describe the same conditioning exactly
        when their signatures are equal (hard assignments and soft weight
        vectors, order-independent) — the key of the engine's
        :class:`~repro.inference.cache.QueryCache`.
        """
        hard = tuple(sorted(self._assignments.items()))
        soft = tuple(
            (var, tuple(map(float, self._soft[var])))
            for var in sorted(self._soft)
        )
        return (hard, soft)

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._assignments.items())

    def __contains__(self, variable: int) -> bool:
        return variable in self._assignments

    def __repr__(self) -> str:
        return f"Evidence({self._assignments})"


def evidence_delta(
    new_assignments: Mapping[int, int],
    new_soft: Mapping[int, np.ndarray],
    old_assignments: Mapping[int, int],
    old_soft: Mapping[int, np.ndarray],
) -> Tuple[Set[int], bool]:
    """Diff two evidence snapshots into ``(changed_variables, weakening)``.

    A variable is *changed* when its finding differs in any way between the
    snapshots: added, removed, a different hard state, different soft
    weights, or a hard<->soft transition.

    ``weakening`` is True unless every change strictly *adds* a finding on
    a previously unconstrained variable.  Monotone (non-weakening) deltas
    can only multiply further indicator/weight factors into the joint, so
    zero entries in cached tables can never become positive again —
    retraction, overwrite and hard<->soft transitions all can reopen such
    zeros, which restricts how much of a previous propagation is safely
    reusable (see :mod:`repro.inference.incremental`).
    """
    changed: Set[int] = set()
    weakening = False
    for var in set(new_assignments) | set(old_assignments) | set(new_soft) | set(old_soft):
        old_hard = old_assignments.get(var)
        new_hard = new_assignments.get(var)
        old_w = old_soft.get(var)
        new_w = new_soft.get(var)
        if old_hard == new_hard and (
            (old_w is None) == (new_w is None)
            and (old_w is None or np.array_equal(old_w, new_w))
        ):
            continue
        changed.add(var)
        if old_hard is not None or old_w is not None:
            # The variable had a finding before: any modification weakens.
            weakening = True
    return changed, weakening
