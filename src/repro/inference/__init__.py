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
from repro.inference.engine import InferenceEngine
from repro.inference.variable_elimination import ve_marginal, ve_query

__all__ = [
    "Evidence",
    "evidence_delta",
    "QueryCache",
    "IncrementalPlan",
    "plan_incremental",
    "distribute_edges_for",
    "propagate_reference",
    "InferenceEngine",
    "ve_query",
    "ve_marginal",
]
