"""High-level exact-inference API.

:class:`InferenceEngine` ties the library together: build (or accept) a
junction tree, reroot it to minimize the critical path, construct the task
dependency graph, and run evidence propagation under any executor.
"""

from repro.inference.cache import QueryCache
from repro.inference.evidence import Evidence, evidence_delta
from repro.inference.incremental import (
    IncrementalPlan,
    distribute_edges_for,
    plan_incremental,
)
from repro.inference.propagation import propagate_reference
from repro.inference.mpe import max_propagate, mpe_bruteforce
from repro.inference.engine import InferenceEngine
from repro.inference.shafershenoy import ShaferShenoyEngine
from repro.inference.variable_elimination import ve_marginal, ve_query
from repro.inference.sensitivity import (
    evidence_impact,
    finding_strength,
    rank_findings,
)

__all__ = [
    "Evidence",
    "evidence_delta",
    "QueryCache",
    "IncrementalPlan",
    "plan_incremental",
    "distribute_edges_for",
    "propagate_reference",
    "max_propagate",
    "mpe_bruteforce",
    "InferenceEngine",
    "ShaferShenoyEngine",
    "ve_query",
    "ve_marginal",
    "evidence_impact",
    "finding_strength",
    "rank_findings",
]
