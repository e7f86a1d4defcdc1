"""Log-domain potential tables for underflow-proof propagation.

Joint masses shrink exponentially with network size: a few hundred
variables push probabilities below ``float64``'s smallest normal and the
linear-domain engines silently return zeros.  :class:`LogTable` stores
``log ψ`` (with ``-inf`` for structural zeros); products become sums,
ratios become differences, and marginalization uses a max-shifted
log-sum-exp.  :func:`propagate_reference_log` runs the full two-phase
propagation in the log domain and returns log-potentials.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.jt.junction_tree import JunctionTree
from repro.potential.table import PotentialTable

NEG_INF = float("-inf")


class LogTable:
    """A potential table stored as ``log ψ``.

    Mirrors :class:`~repro.potential.table.PotentialTable`'s scope
    conventions; see that class for the axis-order semantics.
    """

    __slots__ = ("variables", "cardinalities", "logs")

    def __init__(
        self,
        variables: Sequence[int],
        cardinalities: Sequence[int],
        logs: np.ndarray,
    ):
        self.variables = tuple(int(v) for v in variables)
        self.cardinalities = tuple(int(c) for c in cardinalities)
        logs = np.asarray(logs, dtype=np.float64)
        expected = 1
        for c in self.cardinalities:
            expected *= c
        if logs.size != expected:
            raise ValueError(
                f"log values have {logs.size} entries, scope needs {expected}"
            )
        self.logs = logs.reshape(self.cardinalities if self.cardinalities else ())

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_linear(cls, table: PotentialTable) -> "LogTable":
        """Elementwise log; zeros map to ``-inf``."""
        with np.errstate(divide="ignore"):
            logs = np.log(table.values)
        return cls(table.variables, table.cardinalities, logs)

    def to_linear(self) -> PotentialTable:
        """Elementwise exp; may underflow — prefer log-domain queries."""
        return PotentialTable(
            self.variables, self.cardinalities, np.exp(self.logs)
        )

    # ------------------------------------------------------------------ #
    # Scope manipulation
    # ------------------------------------------------------------------ #

    def aligned_to(self, variables: Sequence[int]) -> "LogTable":
        variables = tuple(int(v) for v in variables)
        if set(variables) != set(self.variables):
            raise ValueError(
                f"cannot align scope {self.variables} to {variables}"
            )
        if variables == self.variables:
            return self
        perm = [self.variables.index(v) for v in variables]
        cards = tuple(self.cardinalities[p] for p in perm)
        return LogTable(variables, cards, np.transpose(self.logs, perm))

    def extend_to(
        self, variables: Sequence[int], cardinalities: Sequence[int]
    ) -> "LogTable":
        """Broadcast to a superset scope (log of the extension primitive)."""
        variables = tuple(int(v) for v in variables)
        cardinalities = tuple(int(c) for c in cardinalities)
        missing = set(self.variables) - set(variables)
        if missing:
            raise ValueError(f"extension target is missing {missing}")
        src_order = [v for v in variables if v in self.variables]
        aligned = self.aligned_to(src_order)
        src_cards = dict(zip(aligned.variables, aligned.cardinalities))
        shape = [src_cards.get(v, 1) for v in variables]
        logs = np.broadcast_to(
            aligned.logs.reshape(shape), cardinalities
        ).copy()
        return LogTable(variables, cardinalities, logs)

    # ------------------------------------------------------------------ #
    # Log-domain primitives
    # ------------------------------------------------------------------ #

    def marginalize(self, onto: Sequence[int]) -> "LogTable":
        """Max-shifted log-sum-exp over the dropped axes."""
        onto = tuple(int(v) for v in onto)
        missing = set(onto) - set(self.variables)
        if missing:
            raise ValueError(f"marginalize target has unknown {missing}")
        drop = tuple(
            i for i, v in enumerate(self.variables) if v not in onto
        )
        if not drop:
            return self.aligned_to(onto)
        shift = np.max(self.logs, axis=drop, keepdims=True)
        safe_shift = np.where(np.isfinite(shift), shift, 0.0)
        with np.errstate(divide="ignore"):
            summed = np.log(
                np.exp(self.logs - safe_shift).sum(axis=drop)
            ) + safe_shift.reshape(
                [s for i, s in enumerate(shift.shape) if i not in drop]
            )
        kept = [v for v in self.variables if v in onto]
        kept_cards = [
            self.cardinalities[self.variables.index(v)] for v in kept
        ]
        return LogTable(kept, kept_cards, summed).aligned_to(onto)

    def multiply(self, other: "LogTable") -> "LogTable":
        """Log-domain product (addition); ``other`` scope must be a subset."""
        if not set(other.variables) <= set(self.variables):
            raise ValueError("multiply: scope must be a subset")
        extended = other.extend_to(self.variables, self.cardinalities)
        return LogTable(
            self.variables, self.cardinalities, self.logs + extended.logs
        )

    def divide(self, other: "LogTable") -> "LogTable":
        """Log-domain ratio (subtraction) with the 0/0 = 0 convention."""
        if set(other.variables) != set(self.variables):
            raise ValueError("divide: scopes differ")
        denom = other.aligned_to(self.variables)
        with np.errstate(invalid="ignore"):
            out = self.logs - denom.logs
        # -inf / -inf (0/0) must be 0, i.e. log -inf; inf - inf gives nan.
        out = np.where(np.isnan(out), NEG_INF, out)
        return LogTable(self.variables, self.cardinalities, out)

    def reduce(self, evidence: Mapping[int, int]) -> "LogTable":
        """Log-domain evidence absorption (inconsistent entries -> -inf)."""
        logs = self.logs.copy()
        for var, state in evidence.items():
            if var not in self.variables:
                continue
            axis = self.variables.index(var)
            card = self.cardinalities[axis]
            if not 0 <= state < card:
                raise ValueError(
                    f"state {state} out of range for variable {var}"
                )
            mask = np.full(card, NEG_INF)
            mask[state] = 0.0
            shape = [1] * len(self.cardinalities)
            shape[axis] = card
            logs = logs + mask.reshape(shape)
        return LogTable(self.variables, self.cardinalities, logs)

    def log_total(self) -> float:
        """``log Σ ψ`` via max-shifted log-sum-exp."""
        flat = self.logs.reshape(-1)
        shift = float(np.max(flat))
        if not np.isfinite(shift):
            return NEG_INF
        return float(np.log(np.exp(flat - shift).sum()) + shift)

    def normalized_linear(self) -> np.ndarray:
        """``ψ / Σψ`` computed stably (for reading off posteriors)."""
        total = self.log_total()
        if total == NEG_INF:
            size = max(self.logs.size, 1)
            return np.full(self.logs.shape, 1.0 / size)
        return np.exp(self.logs - total)


def propagate_reference_log(
    jt: JunctionTree, evidence: Optional[Mapping[int, int]] = None
) -> Dict[int, LogTable]:
    """Two-phase propagation entirely in the log domain."""
    potentials = {
        i: LogTable.from_linear(jt.potential(i))
        for i in range(jt.num_cliques)
    }
    if evidence:
        potentials = {
            i: table.reduce(evidence) for i, table in potentials.items()
        }
    separators: Dict[Tuple[int, int], LogTable] = {}

    def absorb(target: int, source: int, edge: Tuple[int, int]) -> None:
        sep_vars = jt.separator(source, target)
        sep_cards = tuple(
            jt.cliques[source].card_of(v) for v in sep_vars
        )
        sep_new = potentials[source].marginalize(sep_vars)
        old = separators.get(edge)
        if old is None:
            old = LogTable(sep_vars, sep_cards, np.zeros(sep_cards))
        ratio = sep_new.divide(old.aligned_to(sep_vars))
        separators[edge] = sep_new
        clique = jt.cliques[target]
        potentials[target] = potentials[target].multiply(
            ratio.extend_to(clique.variables, clique.cardinalities)
        )

    for node in jt.postorder():
        for child in jt.children[node]:
            absorb(node, child, (node, child))
    for node in jt.preorder():
        for child in jt.children[node]:
            absorb(child, node, (node, child))
    return potentials


def log_marginal(
    jt: JunctionTree,
    potentials: Dict[int, LogTable],
    variable: int,
) -> np.ndarray:
    """Stable posterior ``P(variable | evidence)`` from log-potentials."""
    host, _axis = jt.host(variable)
    return potentials[host].marginalize((variable,)).normalized_linear()
