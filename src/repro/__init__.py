"""repro — Parallel Evidence Propagation on Multicore Processors.

A full reproduction of Xia, Feng & Prasanna (PACT 2009): junction-tree
rerooting for critical-path minimization, DAG task decomposition of evidence
propagation, a collaborative work-sharing scheduler, and a calibrated
multicore simulator that regenerates the paper's evaluation figures.

Public API highlights
---------------------
* :class:`~repro.inference.engine.InferenceEngine` — end-to-end exact
  inference (network -> junction tree -> reroot -> task DAG -> propagate).
* :mod:`repro.bn` — Bayesian networks, moralization, triangulation.
* :mod:`repro.jt` — junction trees, synthetic generators, rerooting.
* :mod:`repro.sched` — serial/collaborative/baseline executors (threads)
  plus the shared-memory process executor (worker processes; slower than
  serial on every benchmark-suite workload).
* :mod:`repro.simcore` — the discrete-event multicore simulator and
  scheduling policies used for the speedup experiments.
* :mod:`repro.obs` — span tracing for every executor, Chrome-trace/
  Perfetto export, derived metrics, and simulator calibration reports.
* :mod:`repro.serve` — the concurrent inference service: pooled engine
  sessions, admission control, deadlines, circuit breaking, drain.
* :mod:`repro.registry` — the sharded multi-tenant model registry:
  on-demand compilation, LRU eviction under a global memory budget,
  checkpoint rehydration, per-tenant weighted fair admission.
* :mod:`repro.durability` — crash-durable serving: write-ahead tick
  journals, crash-consistent durable model artifacts, and whole-process
  recovery back to the exact acknowledged state.
"""

from repro.bn.generation import chain_network, naive_bayes_network, random_network
from repro.bn.network import BayesianNetwork
from repro.inference.cache import QueryCache
from repro.inference.engine import InferenceEngine
from repro.inference.evidence import Evidence
from repro.jt.build import junction_tree_from_network
from repro.jt.generation import paper_tree, synthetic_tree, template_tree
from repro.jt.junction_tree import Clique, JunctionTree
from repro.jt.rerooting import reroot, reroot_optimally, select_root
from repro.potential.table import PotentialTable
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
    ProcessSharedMemoryExecutor,
    SerialExecutor,
    WorkStealingExecutor,
)
from repro.durability import (
    DurableModelStore,
    RecoveryManager,
    RecoveryReport,
    TickJournal,
)
from repro.obs.trace import PropagationTrace
from repro.obs.tracer import Tracer
from repro.registry import ModelRegistry, RegistryService, TenantScheduler
from repro.serve.breaker import CircuitBreaker
from repro.serve.report import ServiceReport
from repro.serve.request import QueryRequest, QueryResponse
from repro.serve.service import EngineSessionPool, InferenceService
from repro.tasks.dag import build_task_graph

__version__ = "1.0.0"

__all__ = [
    "BayesianNetwork",
    "random_network",
    "chain_network",
    "naive_bayes_network",
    "PotentialTable",
    "Clique",
    "JunctionTree",
    "junction_tree_from_network",
    "template_tree",
    "synthetic_tree",
    "paper_tree",
    "select_root",
    "reroot",
    "reroot_optimally",
    "build_task_graph",
    "Evidence",
    "QueryCache",
    "InferenceEngine",
    "SerialExecutor",
    "CollaborativeExecutor",
    "LevelParallelExecutor",
    "DataParallelExecutor",
    "WorkStealingExecutor",
    "ProcessSharedMemoryExecutor",
    "Tracer",
    "PropagationTrace",
    "CircuitBreaker",
    "ServiceReport",
    "QueryRequest",
    "QueryResponse",
    "EngineSessionPool",
    "InferenceService",
    "ModelRegistry",
    "RegistryService",
    "TenantScheduler",
    "TickJournal",
    "RecoveryManager",
    "RecoveryReport",
    "DurableModelStore",
]
