"""Deadline-aware model compilation: the registry's expensive artifact.

Compiling a Bayesian network into a servable model is the full pipeline
the rest of the repo treats as one-shot setup: moralize, triangulate,
extract cliques, root a spanning tree, reroot it optimally (Algorithm 1),
calibrate one warm session per pool slot, and capture the baseline
integrity checkpoint an eviction retains.  Jensen & Jensen's optimal
junction trees make the case that this artifact is worth caching and
managing explicitly — :func:`compile_model` is the cacheable unit, and
:func:`rehydrate_model` is the cheap path back from an eviction: it
rebuilds sessions over the *retained* rerooted tree and restores each
from the retained checkpoint, skipping triangulation, rerooting and every
calibration propagation (restore beats recompile: the benchmark suite's
``registry.rehydrate_ms`` against ``registry.compile_ms``, and
``integrity.load_ms`` against ``inference.propagate_ms``).

Both entry points take an absolute ``deadline_at`` and check it
cooperatively between pipeline stages, refusing with the typed
:class:`~repro.serve.request.CompileDeadlineExceeded` instead of letting
a doomed request block the queue behind a compile it cannot outlive.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.bn.network import BayesianNetwork
from repro.inference.cache import QueryCache
from repro.inference.engine import InferenceEngine
from repro.jt.build import junction_tree_from_network
from repro.jt.junction_tree import JunctionTree
from repro.serve.request import CompileDeadlineExceeded
from repro.serve.service import EngineSessionPool


@dataclass
class CompiledModel:
    """One servable model: warm session pool plus eviction metadata.

    ``cost_bytes`` is what the registry charges against its global memory
    budget while the model is resident; ``stub_cost_bytes`` is the
    retained cost after eviction (rerooted tree priors + baseline
    checkpoint — the rehydration fast path).  ``stages`` records the
    per-stage wall time of the compile for observability and for the
    registry's deadline estimates.
    """

    model_id: str
    pool: EngineSessionPool
    junction_tree: JunctionTree  # the rerooted tree the pool shares
    baseline: bytes
    cost_bytes: int
    stub_cost_bytes: int
    compile_seconds: float
    stages: List[Tuple[str, float]] = field(default_factory=list)
    rehydrated: bool = False


def _stage_guard(
    model_id: str,
    deadline_at: Optional[float],
    started: float,
    verb: str,
) -> Tuple[Callable[[str], None], List[Tuple[str, float]]]:
    """A cooperative cancellation hook plus the stage-timing record.

    The returned ``on_stage(name)`` stamps the previous stage's duration
    and refuses with :class:`CompileDeadlineExceeded` once ``deadline_at``
    has passed — between stages only, so a stage that started in budget
    always runs to completion (no torn pipeline state to unwind).
    """
    marks: List[Tuple[str, float]] = []
    last = [("start", started)]

    def on_stage(stage: str) -> None:
        now = time.monotonic()
        prev_name, prev_at = last[0]
        if prev_name != "start":
            marks.append((prev_name, now - prev_at))
        last[0] = (stage, now)
        if deadline_at is not None and now >= deadline_at:
            raise CompileDeadlineExceeded(
                f"{verb} of model {model_id!r} overran its deadline at "
                f"stage {stage!r} (+{now - started:.3f}s elapsed)"
            )

    def finish() -> None:
        now = time.monotonic()
        prev_name, prev_at = last[0]
        if prev_name != "start":
            marks.append((prev_name, now - prev_at))

    on_stage.finish = finish  # type: ignore[attr-defined]
    return on_stage, marks


def model_cost_bytes(pool: EngineSessionPool, baseline: bytes) -> int:
    """Resident cost of one compiled model (the budget charge): the
    pool's tables and buffers plus the retained baseline checkpoint."""
    return pool.resident_bytes() + len(baseline)


def stub_cost_bytes(jt: JunctionTree, baseline: Optional[bytes]) -> int:
    """Retained cost of an evicted model's rehydration stub."""
    total = sum(t.nbytes for t in jt.potentials.values())
    if baseline is not None:
        total += len(baseline)
    return total


def compile_model(
    model_id: str,
    network: BayesianNetwork,
    sessions: int = 2,
    cache_size: int = 512,
    deadline_at: Optional[float] = None,
) -> CompiledModel:
    """Cold compile: network → junction tree → rerooted warm pool.

    Runs the full pipeline with cooperative deadline checks between
    stages (``moralize``, ``triangulate``, ``spanning-tree``,
    ``absorb-cpts``, ``reroot``, one ``calibrate-session-i`` per pool
    slot, ``checkpoint``).  Raises
    :class:`~repro.serve.request.CompileDeadlineExceeded` when
    ``deadline_at`` passes between stages; partial work is discarded and
    the model stays cold.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    started = time.monotonic()
    on_stage, marks = _stage_guard(
        model_id, deadline_at, started, "compile"
    )
    jt = junction_tree_from_network(network, on_stage=on_stage)
    on_stage("reroot")
    pool = EngineSessionPool.from_junction_tree(
        jt, sessions=sessions, cache_size=cache_size, warm=False
    )
    for i, engine in enumerate(pool.engines):
        on_stage(f"calibrate-session-{i}")
        engine.propagate()
    on_stage("checkpoint")
    buf = io.BytesIO()
    pool.engines[0].checkpoint(buf)
    baseline = buf.getvalue()
    on_stage.finish()  # type: ignore[attr-defined]
    rerooted = pool.engines[0].jt
    return CompiledModel(
        model_id=model_id,
        pool=pool,
        junction_tree=rerooted,
        baseline=baseline,
        cost_bytes=model_cost_bytes(pool, baseline),
        stub_cost_bytes=stub_cost_bytes(rerooted, baseline),
        compile_seconds=time.monotonic() - started,
        stages=marks,
        rehydrated=False,
    )


def rehydrate_model(
    model_id: str,
    junction_tree: JunctionTree,
    baseline: bytes,
    sessions: int = 2,
    cache_size: int = 512,
    deadline_at: Optional[float] = None,
) -> CompiledModel:
    """Warm restart an evicted model from its retained stub.

    ``junction_tree`` must be the *rerooted* tree the baseline checkpoint
    was captured over (the registry retains exactly that on eviction).
    Each new session restores the checkpoint directly — no moralization,
    no triangulation, no rerooting, no calibration propagation — which is
    why rehydration beats a cold compile (``registry.rehydrate_ms``
    against ``registry.compile_ms`` in the benchmark suite).
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if baseline is None:
        raise ValueError("rehydrate needs the retained baseline checkpoint")
    started = time.monotonic()
    on_stage, marks = _stage_guard(
        model_id, deadline_at, started, "rehydrate"
    )
    on_stage("build-sessions")
    engines = [
        InferenceEngine(junction_tree, reroot=False, cache_size=cache_size)
        for _ in range(sessions)
    ]
    shared = QueryCache(cache_size)
    for engine in engines:
        engine.cache = shared
    for i, engine in enumerate(engines):
        on_stage(f"restore-session-{i}")
        engine.restore(io.BytesIO(baseline))
    pool = EngineSessionPool(engines)
    on_stage.finish()  # type: ignore[attr-defined]
    return CompiledModel(
        model_id=model_id,
        pool=pool,
        junction_tree=junction_tree,
        baseline=baseline,
        cost_bytes=model_cost_bytes(pool, baseline),
        stub_cost_bytes=stub_cost_bytes(junction_tree, baseline),
        compile_seconds=time.monotonic() - started,
        stages=marks,
        rehydrated=True,
    )
