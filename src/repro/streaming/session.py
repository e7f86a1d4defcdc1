"""Online DBN filtering over a bounded unrolled window.

A :class:`FilteringSession` keeps a **window** of ``window`` consecutive
time slices of a :class:`~repro.bn.dbn.DynamicBayesianNetwork` unrolled
into one ordinary network, served by one
:class:`~repro.inference.engine.InferenceEngine`.  Each evidence
**tick** observes the next slice's variables and repropagates
*incrementally* — the tick's findings are an evidence delta over the
previous propagation, so only the dirty part of the task DAG re-runs.
When the window fills, the session **rolls** (Murphy's interface
algorithm): the posterior joint over the forward interface of the
oldest retained boundary slice — ``P(interface | evidence up to the
retired slices)`` — becomes the *prior* of a freshly unrolled window,
encoded as chain-rule "ghost" parents of the new slice 0.  Because the
forward interface d-separates the retired past from the future, the
rolled window's posteriors are **exactly** the posteriors the fully
unrolled network would give, to float noise.

Two structural tricks keep this on the stock junction-tree machinery:

* **Ghost chain-rule prior** — an arbitrary interface joint ``α`` is
  factorized by the chain rule into per-ghost CPDs
  ``P(g_j | g_1..g_{j-1})`` (0/0 contexts filled uniform), so the rolled
  prior enters the network as ordinary CPTs.
* **Boundary clique pin** — a card-2 dummy variable with a uniform CPT
  whose parents are the boundary slice's interface variables; its
  moralization forces the interface into one clique, so the roll can
  read the joint with one ``joint_marginal`` call.

Every rolled window has the same structure; only the ghost prior
differs.  So the first roll compiles a **window template** — the rolled
window's junction tree, rerooting, task graph, table layout and
restricted-graph cache, plus, per clique that hosts a ghost CPT, the
CPT factors the tree build multiplied into it — and every later roll is
a boundary-joint read (on a fork of the live engine, which stays
untouched), a ghost re-seat (the host cliques' priors rebuilt in the
build's multiplication order, so bitwise equal to a from-scratch build)
and one full propagation over a new tree sharing the template's
compiled state.

Ticks are **transactional**: a tick that is refused (deadline) or fails
(executor fault) leaves the session exactly as it was — its evidence is
retracted, time does not advance — so the stream of *applied* ticks is
always an exact filter the offline unrolled-network oracle reproduces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.bn.dbn import DynamicBayesianNetwork
from repro.bn.network import BayesianNetwork
from repro.inference.engine import InferenceEngine
from repro.jt.build import junction_tree_from_network
from repro.potential.primitives import extend
from repro.potential.table import PotentialTable
from repro.sched.faults import TaskExecutionError, check_state_health
from repro.tasks.layout import table_layout


class TickError(RuntimeError):
    """A tick was not applied; the session state is unchanged."""


class TickDeadline(TickError):
    """The tick's deadline passed before its propagation finished."""


class TickFailed(TickError):
    """Every attempt to propagate the tick failed; evidence rolled back."""


@dataclass
class TickResult:
    """What one applied tick did.

    ``t`` is the absolute time of the slice the tick observed; ``rolled``
    says whether the window retired slices first.  ``tasks_executed`` /
    ``tasks_skipped`` come from the tick's own propagation (the roll's
    rebuild propagation is accounted separately in ``roll_seconds``).
    """

    t: int
    rolled: bool = False
    tasks_executed: int = 0
    tasks_skipped: int = 0
    incremental: bool = False
    seconds: float = 0.0
    roll_seconds: float = 0.0


def _chain_rule_cpds(
    joint: PotentialTable, cards: Sequence[int]
) -> List[np.ndarray]:
    """Factorize a joint over m variables into chain-rule CPD arrays.

    Returns ``[P(x_0), P(x_1 | x_0), ...]`` where the j-th array has
    shape ``cards[:j+1]`` and is normalized over its last-listed
    variable (axis j).  Conditioning contexts with zero probability are
    filled uniform — any completion reproduces the joint exactly, since
    the zero prefix annihilates the factor.
    """
    m = len(cards)
    values = np.asarray(joint.values, dtype=np.float64)
    cpds: List[np.ndarray] = []
    for j in range(m):
        tail = tuple(range(j + 1, m))
        num = values.sum(axis=tail) if tail else values.copy()
        den = num.sum(axis=j, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cpd = num / den
        cpd = np.where(np.isfinite(cpd), cpd, 1.0 / cards[j])
        # Kill 1e-16 division drift so BayesianNetwork.set_cpt's
        # normalization check never trips.
        cpd = cpd / cpd.sum(axis=j, keepdims=True)
        cpds.append(cpd)
    return cpds


def _compile(bn: BayesianNetwork) -> InferenceEngine:
    """A window's engine built from scratch: junction tree, rerooting and
    task graph."""
    return InferenceEngine(junction_tree_from_network(bn))


class _WindowTemplate:
    """The compiled structure every rolled window of one session shares.

    ``engine`` is a blank engine (never propagated) over the first rolled
    window's tree; it holds the tree, its rerooting and full task graph,
    and — compiled here, up front, so every window's tree shares them —
    the table layout with its pipeline plans and restricted-graph cache.
    ``recipes`` maps each clique that hosts a ghost CPT to the CPT factors
    :func:`~repro.jt.build.junction_tree_from_network` multiplies into it,
    in its order: an array is a fixed CPT already extended to the clique,
    an int ``j`` stands for ghost ``j``'s chain-rule CPT.
    """

    def __init__(self, bn: BayesianNetwork, ghosts: range):
        engine = _compile(bn)
        jt = engine.jt
        table_layout(jt).pipelines()
        absorbed: Dict[int, List[int]] = {}
        for v in range(bn.num_variables):
            # The build's absorption: lowest variable first, each CPT into
            # the smallest clique covering its scope.
            host = jt.clique_containing(bn.cpt(v).variables)
            absorbed.setdefault(host, []).append(v)
        self.recipes: Dict[int, list] = {}
        for host, variables in absorbed.items():
            if not any(v in ghosts for v in variables):
                continue
            clique = jt.cliques[host]
            self.recipes[host] = [
                v - ghosts.start if v in ghosts
                else extend(
                    bn.cpt(v), clique.variables, clique.cardinalities
                ).values
                for v in variables
            ]
        self.engine = engine

    def engine_for(
        self, ghost_cpts: Sequence[PotentialTable]
    ) -> InferenceEngine:
        """A fresh engine over the rolled window whose ghost CPTs are
        ``ghost_cpts``: the ghost-hosting cliques' priors are rebuilt with
        the build's multiplications, every other prior and all compiled
        state is the template's."""
        jt = self.engine.jt
        priors: Dict[int, PotentialTable] = {}
        for host, factors in self.recipes.items():
            clique = jt.cliques[host]
            values = np.ones(clique.cardinalities)
            for factor in factors:
                if isinstance(factor, int):
                    factor = extend(
                        ghost_cpts[factor], clique.variables,
                        clique.cardinalities,
                    ).values
                values = values * factor
            priors[host] = PotentialTable(
                clique.variables, clique.cardinalities, values
            )
        return self.engine.sharing(jt.with_priors(priors))


class FilteringSession:
    """One online filtering stream over a DBN.

    Parameters
    ----------
    dbn:
        The two-slice template.  Prior CPTs must be set for every slice
        variable; transition CPTs too (a one-slice window never rolls,
        but streaming exists to roll).
    window:
        Slices held unrolled at once (>= 2).
    retire:
        Slices rolled into the prior per roll (1..window); defaults to
        ``window // 2`` so roll cost amortizes over that many cheap
        incremental ticks.
    executor:
        Executor handed to every propagation (None = serial).
    incremental:
        ``False`` forces full repropagation per tick — the benchmark's
        baseline; leave True everywhere else.
    """

    def __init__(
        self,
        dbn: DynamicBayesianNetwork,
        window: int = 8,
        retire: Optional[int] = None,
        executor=None,
        incremental: bool = True,
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.dbn = dbn
        self.k = dbn.k
        self.window = int(window)
        self.retire = int(retire) if retire is not None else max(1, window // 2)
        if not 1 <= self.retire <= self.window:
            raise ValueError(
                f"retire must be in [1, window={self.window}], "
                f"got {self.retire}"
            )
        self.executor = executor
        self.incremental = incremental
        self._interface: List[int] = dbn.interface()
        # Absolute time of window position 0, and of the next tick.
        self.base = 0
        self.t = 0
        # Rolled prior: normalized joint over the interface (sorted
        # template ids), None before the first roll / for an empty
        # interface.
        self._ghost_joint: Optional[PotentialTable] = None
        # Applied evidence, {absolute_t: {slice_var: finding}} — the
        # durable record rolls and resyncs rebuild from.
        self._evidence: Dict[int, Dict[int, object]] = {}
        self.ticks = 0
        self.rolls = 0
        self.last_result: Optional[TickResult] = None
        # Compiled at the first rolled window, kept for the session.
        self._template: Optional[_WindowTemplate] = None
        self.engine = self._build_engine()

    # ------------------------------------------------------------------ #
    # Window construction
    # ------------------------------------------------------------------ #

    def _pos_id(self, v: int, pos: int) -> int:
        """Window-network id of slice variable ``v`` at window position."""
        return pos * self.k + v

    def wid(self, v: int, t: int) -> int:
        """Window-network id of slice variable ``v`` at absolute time ``t``."""
        pos = t - self.base
        if not 0 <= pos < self.window:
            raise ValueError(
                f"time {t} outside the window "
                f"[{self.base}, {self.base + self.window})"
            )
        return self._pos_id(v, pos)

    def _build_window_network(self) -> BayesianNetwork:
        W, k = self.window, self.k
        interface = self._interface
        ghost_ids = self._ghost_ids()
        m = len(ghost_ids)
        ghost_of = dict(zip(interface, ghost_ids))
        # The boundary pin: only needed when the next roll must read a
        # *joint* over >= 2 interface variables.
        dummy = W * k + m if len(interface) >= 2 else None
        cards = list(self.dbn.slice_cards) * W
        cards += [self.dbn.slice_cards[v] for v in interface[:m]]
        if dummy is not None:
            cards.append(2)
        bn = BayesianNetwork(cards)

        for pos in range(W):
            for parent, child in self.dbn.intra_edges:
                bn.add_edge(self._pos_id(parent, pos), self._pos_id(child, pos))
        for pos in range(W - 1):
            for parent, child in self.dbn.inter_edges:
                bn.add_edge(
                    self._pos_id(parent, pos), self._pos_id(child, pos + 1)
                )
        if m:
            ghosts = [ghost_of[v] for v in interface]
            for i in range(m):
                for j in range(i + 1, m):
                    bn.add_edge(ghosts[i], ghosts[j])
            for parent, child in self.dbn.inter_edges:
                bn.add_edge(ghost_of[parent], self._pos_id(child, 0))
        if dummy is not None:
            boundary = [
                self._pos_id(v, self.retire - 1) for v in interface
            ]
            for b in boundary:
                bn.add_edge(b, dummy)

        # Slice CPTs.  Position 0 uses the template prior in the first
        # epoch and the transition CPTs (previous-slice parents mapped to
        # ghosts) once the window has rolled.
        for pos in range(W):
            for v in range(self.k):
                if pos == 0 and not m and self.base == 0:
                    cpt = self.dbn._prior_cpts[v]
                    scope = [self._pos_id(int(u), 0) for u in cpt.variables]
                elif pos == 0 and not m:
                    # Rolled window, empty interface: slices are
                    # temporally disconnected, transition scopes hold
                    # only current-slice ids.
                    cpt = self.dbn._transition_cpts[v]
                    scope = [self._pos_id(int(u), 0) for u in cpt.variables]
                elif pos == 0:
                    cpt = self.dbn._transition_cpts[v]
                    scope = [
                        self._pos_id(int(u), 0)
                        if int(u) < self.k
                        else ghost_of[int(u) - self.k]
                        for u in cpt.variables
                    ]
                else:
                    cpt = self.dbn._transition_cpts[v]
                    scope = [
                        self._pos_id(int(u), pos)
                        if int(u) < self.k
                        else self._pos_id(int(u) - self.k, pos - 1)
                        for u in cpt.variables
                    ]
                bn.set_cpt(
                    self._pos_id(v, pos),
                    PotentialTable(scope, cpt.cardinalities, cpt.values),
                )

        for ghost, cpt in zip(ghost_ids, self._ghost_cpts()):
            bn.set_cpt(ghost, cpt)
        if dummy is not None:
            boundary = [self._pos_id(v, self.retire - 1) for v in interface]
            bcards = [self.dbn.slice_cards[v] for v in interface]
            bn.set_cpt(
                dummy,
                PotentialTable(
                    boundary + [dummy],
                    bcards + [2],
                    np.full(tuple(bcards) + (2,), 0.5),
                ),
            )
        return bn

    def _ghost_ids(self) -> range:
        """Window ids of the ghost variables, one per interface variable;
        none before the first roll and for an empty interface."""
        first = self.window * self.k
        m = len(self._interface) if self._ghost_joint is not None else 0
        return range(first, first + m)

    def _ghost_cpts(self) -> List[PotentialTable]:
        """The rolled prior as the ghosts' chain-rule CPTs."""
        if self._ghost_joint is None:
            return []
        interface = self._interface
        ghosts = list(self._ghost_ids())
        gcards = [self.dbn.slice_cards[v] for v in interface]
        joint = self._ghost_joint.aligned_to(interface)
        return [
            PotentialTable(ghosts[: j + 1], gcards[: j + 1], cpd)
            for j, cpd in enumerate(_chain_rule_cpds(joint, gcards))
        ]

    def _build_engine(self) -> InferenceEngine:
        """Fresh engine over the current window, evidence re-applied.

        The first window is compiled from scratch; a rolled one comes from
        the window template (compiled here on first need), so after the
        first roll no rebuild moralizes, triangulates, reroots or builds a
        task graph or table layout.
        """
        if self.base == 0:
            engine = _compile(self._build_window_network())
        else:
            if self._template is None:
                self._template = _WindowTemplate(
                    self._build_window_network(), self._ghost_ids()
                )
            engine = self._template.engine_for(self._ghost_cpts())
        for t, delta in self._evidence.items():
            for v, finding in delta.items():
                wid = self.wid(v, t)
                if isinstance(finding, (int, np.integer)):
                    engine.observe(wid, int(finding))
                else:
                    engine.observe_soft(wid, finding)
        engine.propagate(executor=self.executor, incremental=False)
        return engine

    def resync(self) -> None:
        """Rebuild the engine from the durable records (failure recovery).

        ``engine`` is dropped before the rebuild: if the rebuild itself
        fails (the executor is still faulty), the session is left marked
        dirty (``engine is None``) and the next tick retries the resync
        instead of propagating on a stale window.  A rolled window is
        rebuilt from the window template, like a roll.
        """
        self.engine = None
        self.engine = self._build_engine()

    # ------------------------------------------------------------------ #
    # Durable state (checkpoint / restore for crash recovery)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready capture of everything that determines this session.

        The window geometry is constructor state; everything else — the
        absolute clock (``base``/``t``), the applied evidence, the
        rolled ghost prior, the tick/roll counters — is here.  Hard
        findings serialize as ints, soft findings and the ghost joint
        as float lists; both round-trip through JSON bit-exactly, so a
        session restored by :meth:`restore_state` answers posteriors
        identically to the one that snapshotted.
        """
        evidence: Dict[str, Dict[str, object]] = {}
        for t, delta in self._evidence.items():
            encoded: Dict[str, object] = {}
            for v, finding in delta.items():
                if isinstance(finding, (int, np.integer)):
                    encoded[str(int(v))] = int(finding)
                else:
                    encoded[str(int(v))] = [
                        float(w)
                        for w in np.asarray(
                            finding, dtype=np.float64
                        ).reshape(-1)
                    ]
            evidence[str(int(t))] = encoded
        ghost = (
            self._ghost_joint.values.reshape(-1).tolist()
            if self._ghost_joint is not None
            else None
        )
        return {
            "base": int(self.base),
            "t": int(self.t),
            "ticks": int(self.ticks),
            "rolls": int(self.rolls),
            "evidence": evidence,
            "ghost": ghost,
        }

    def restore_state(self, doc: Mapping[str, object]) -> None:
        """Adopt a :meth:`snapshot_state` capture and rebuild the engine.

        The session must have been constructed over the same DBN with
        the same window geometry (the snapshot stores neither); the
        rebuild is a full :meth:`resync` — from the window template when
        the snapshot has rolled, compiling the template first if this
        session has not — so on success the session is calibrated and
        immediately answers posteriors for the restored evidence.
        """
        carries_prior = int(doc["base"]) > 0 and bool(self._interface)
        if (doc.get("ghost") is not None) != carries_prior:
            raise ValueError(
                "snapshot must carry a ghost prior exactly when it has "
                "rolled over a nonempty forward interface"
            )
        evidence: Dict[int, Dict[int, object]] = {}
        for t_key, encoded in doc["evidence"].items():
            delta: Dict[int, object] = {}
            for v_key, finding in encoded.items():
                if isinstance(finding, (int, np.integer)):
                    delta[int(v_key)] = int(finding)
                else:
                    delta[int(v_key)] = np.asarray(finding, dtype=np.float64)
            evidence[int(t_key)] = delta
        ghost = doc.get("ghost")
        if ghost is not None:
            cards = [self.dbn.slice_cards[v] for v in self._interface]
            joint = PotentialTable(
                self._interface,
                cards,
                np.asarray(ghost, dtype=np.float64).reshape(tuple(cards)),
            )
        else:
            joint = None
        self.base = int(doc["base"])
        self.t = int(doc["t"])
        self.ticks = int(doc.get("ticks", 0))
        self.rolls = int(doc.get("rolls", 0))
        self._evidence = evidence
        self._ghost_joint = joint
        self.resync()

    # ------------------------------------------------------------------ #
    # Rolling
    # ------------------------------------------------------------------ #

    def _roll(self) -> None:
        """Retire the oldest ``retire`` slices into the rolled prior."""
        r = self.retire
        if self._interface:
            # The rolled prior conditions ONLY on retired evidence:
            # retract everything at retained positions first — on a fork,
            # which absorbs the weakening delta into states of its own and
            # leaves the live engine as it was.
            reader = self.engine.fork()
            for t, delta in self._evidence.items():
                if t - self.base >= r:
                    for v in delta:
                        reader.retract(self.wid(v, t))
            boundary = [self._pos_id(v, r - 1) for v in self._interface]
            joint = reader.joint_marginal(boundary)
            # joint_marginal aligns to sorted window ids, which is the
            # sorted template-interface order; re-scope to template ids.
            self._ghost_joint = PotentialTable(
                self._interface, joint.cardinalities, joint.values
            )
        # Drop the engine before mutating the geometry: if the rebuild
        # below fails, the session stays marked dirty rather than
        # holding an engine whose window ids no longer match ``base``.
        self.engine = None
        self.base += r
        self._evidence = {
            t: delta for t, delta in self._evidence.items() if t >= self.base
        }
        self.rolls += 1
        self.engine = self._build_engine()

    # ------------------------------------------------------------------ #
    # Ticks
    # ------------------------------------------------------------------ #

    def tick(
        self,
        delta: Optional[Mapping[int, object]] = None,
        deadline: Optional[float] = None,
    ) -> TickResult:
        """Observe the next slice and repropagate incrementally.

        ``delta`` maps *slice-template* variable ids to findings (an
        ``int`` for a hard state, a weight sequence for soft evidence);
        an empty delta advances time with an unobserved slice.
        ``deadline`` is an absolute :func:`time.monotonic` instant.

        Raises :class:`TickDeadline` / :class:`TickFailed` **without
        applying anything**: the evidence is rolled back and ``t`` does
        not advance, so the session keeps answering for the ticks that
        *were* applied.
        """
        start = time.perf_counter()
        delta = dict(delta or {})
        for v in delta:
            if not 0 <= int(v) < self.k:
                raise ValueError(
                    f"tick evidence names slice variable {v}, "
                    f"template has 0..{self.k - 1}"
                )
        if deadline is not None and time.monotonic() >= deadline:
            raise TickDeadline("deadline passed before the tick started")
        if self.engine is None:
            # A previous failure interrupted a rebuild; retry it before
            # touching the window.
            try:
                self.resync()
            except Exception as exc:
                raise TickFailed(
                    f"resync after a failed rebuild failed again: {exc}"
                ) from exc

        roll_seconds = 0.0
        rolled = False
        if self.t - self.base >= self.window:
            roll_start = time.perf_counter()
            try:
                self._roll()
            except Exception as exc:
                try:
                    self.resync()
                except Exception:
                    pass  # still dirty; the next tick retries the resync
                raise TickFailed(f"window roll failed: {exc}") from exc
            rolled = True
            roll_seconds = time.perf_counter() - roll_start
            if deadline is not None and time.monotonic() >= deadline:
                # The roll is evidence-neutral (posteriors unchanged),
                # so keeping it while refusing the tick is safe.
                raise TickDeadline("deadline passed during the window roll")

        t = self.t
        engine = self.engine
        applied: List[int] = []
        try:
            for v, finding in delta.items():
                wid = self.wid(int(v), t)
                if isinstance(finding, (int, np.integer)):
                    engine.observe(wid, int(finding))
                else:
                    engine.observe_soft(wid, finding)
                applied.append(wid)
            state = engine.propagate(
                executor=self.executor,
                incremental=True if self.incremental else False,
                deadline=deadline,
            )
        except TaskExecutionError as exc:
            # The engine guarantees a deadline/fault abort leaves the
            # previous propagation untouched; retracting the just-applied
            # findings restores the exact pre-tick evidence.
            for wid in applied:
                engine.retract(wid)
            if exc.phase == "deadline":
                raise TickDeadline(str(exc)) from exc
            raise TickFailed(str(exc)) from exc
        except TickError:
            raise
        except Exception as exc:
            for wid in applied:
                engine.retract(wid)
            try:
                self.resync()  # the failure may have left torn tables
            except Exception:
                pass  # still dirty; the next tick retries the resync
            raise TickFailed(f"{type(exc).__name__}: {exc}") from exc

        health = check_state_health(state)
        if not health.healthy:
            for wid in applied:
                engine.retract(wid)
            try:
                self.resync()
            except Exception:
                pass  # still dirty; the next tick retries the resync
            raise TickFailed(f"unhealthy tick state: {health.summary()}")

        self._evidence[t] = delta
        self.t = t + 1
        self.ticks += 1
        stats = engine.last_stats
        result = TickResult(
            t=t,
            rolled=rolled,
            tasks_executed=getattr(stats, "tasks_executed", 0),
            tasks_skipped=getattr(stats, "tasks_skipped", 0),
            incremental=bool(getattr(stats, "incremental", False)),
            seconds=time.perf_counter() - start - roll_seconds,
            roll_seconds=roll_seconds,
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------ #
    # Posteriors
    # ------------------------------------------------------------------ #

    @property
    def earliest(self) -> int:
        """Oldest absolute time still queryable (window smoothing floor)."""
        return self.base

    def posterior(self, v: int, t: Optional[int] = None) -> np.ndarray:
        """``P(v@t | all applied ticks)`` for a time inside the window.

        ``t`` defaults to the most recent applied tick (the filtering
        posterior); older in-window times give fixed-lag smoothing.
        """
        if t is None:
            t = max(self.t - 1, 0)
        return self.engine.marginal(self.wid(int(v), int(t)))

    def posteriors(
        self,
        vars: Optional[Sequence[int]] = None,
        t: Optional[int] = None,
    ) -> Dict[int, np.ndarray]:
        """Posterior of several slice variables at one time."""
        wanted = (
            [int(v) for v in vars] if vars is not None else list(range(self.k))
        )
        return {v: self.posterior(v, t) for v in wanted}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FilteringSession(k={self.k}, window={self.window}, "
            f"retire={self.retire}, t={self.t}, base={self.base}, "
            f"rolls={self.rolls})"
        )
