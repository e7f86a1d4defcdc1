"""The four workloads: seeded inputs, cold set-up, one op, oracle.

Each workload takes every input from ``--seed`` and reaches the system
only through its public front doors with **default constructor
arguments** — no executor, pool-size, batching or window argument is
passed anywhere in this file, so a PR that improves a default shows up
and nobody can win by retuning the benchmark.

What the seed does *not* move is the amount of work per op.  The
``prop-*`` trees use ``width_jitter=0`` (every table has exactly
``2**clique_width`` entries whatever the topology), and ``serve-mix``
serves one fixed network (``MODEL_SEED``): across seeds
``random_network(30, ...)`` yields 160-200 tasks and 370-1380 table
entries, which would bury a 10 % bound under input variance.  The seed
drives potentials, CPT values, evidence, queries and repeats.
"""

import itertools
import os
import random
import shutil
from collections import deque

import numpy as np

from repro import (
    InferenceEngine,
    ModelRegistry,
    PotentialTable,
    QueryRequest,
    RegistryService,
    random_network,
    synthetic_tree,
)

import oracle

# Shape of the one network serve-mix serves (24 cliques, 184 tasks).
MODEL_SEED = 7
REQUEST_DEADLINE = 60.0
RESULT_TIMEOUT = 70.0


class OpFailed(RuntimeError):
    """The system refused, timed out or failed an op (counts as failed)."""


class Workload:
    """Base: subclasses fill in the model, the inputs and the front door."""

    name = ""
    clients = 1
    # Ops in the traced replay (and in the untraced replay it is compared to).
    replay_ops = 40
    # Direct probes of layers.PROBES that apply to this workload.
    probes = ("tree", "backends")
    # The Bayesian network behind the model, when there is one.
    network = None

    def __init__(self, seed, scratch):
        self.seed = int(seed)
        self.scratch = scratch

    def rng(self, client):
        return random.Random(f"{self.name}/{self.seed}/{client}")

    def items(self, client):
        """Endless deterministic op inputs of one client."""
        raise NotImplementedError

    def sequence(self, client, count):
        return list(itertools.islice(self.items(client), count))

    def build(self):
        """Fresh system objects from the generated model (timed as set-up)."""
        raise NotImplementedError

    def op(self, live, client, item, span):
        """Run one op; returns ``(marginals, tags)`` or raises OpFailed.

        ``span(name, fn)`` returns ``fn`` recorded as a span in the traced
        replay (the client-side ``serve.submit`` / ``serve.wait`` spans)
        and ``fn`` itself otherwise.
        """
        raise NotImplementedError

    def close(self, live):
        """Tear the system down; returns its drain report, if it has one."""
        return None

    def expected(self, client, items, wanted):
        """Oracle answers ``{index: marginals}`` for the ``wanted`` indexes."""
        raise NotImplementedError

    def direct_engine(self):
        """An engine over the model with no service in front (for probes)."""
        return InferenceEngine.from_network(self.network)


class _Propagation(Workload):
    """Full from-scratch propagation of one synthetic junction tree."""

    shape = (0, 0, 0, 0)  # (N, w_C, r, k) of the paper's Section 7
    probes = ("tree", "backends", "observers")

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        n, width, states, children = self.shape
        self.jt = synthetic_tree(
            num_cliques=n, clique_width=width, states=states,
            avg_children=children, width_jitter=0, seed=self.seed,
        )
        self.jt.initialize_potentials(np.random.default_rng(self.seed))
        self.states = states
        self.variables = sorted(
            {v for clique in self.jt.cliques for v in clique.variables}
        )

    def items(self, client):
        rng = self.rng(client)
        while True:
            yield {
                v: rng.randrange(self.states)
                for v in rng.sample(self.variables, 3)
            }

    def build(self):
        return InferenceEngine(self.jt)

    direct_engine = build

    def op(self, live, client, item, span):
        live.set_evidence(item)
        live.propagate(incremental=False)
        return live.marginals_all(), {}

    def expected(self, client, items, wanted):
        return {
            i: oracle.reference_marginals(self.jt, items[i]) for i in wanted
        }


class PropSmall(_Propagation):
    name = "prop-small"
    shape = (128, 5, 2, 4)


class PropLarge(_Propagation):
    name = "prop-large"
    shape = (16, 16, 2, 2)


class ServeMix(Workload):
    name = "serve-mix"
    clients = 2
    replay_ops = 300
    probes = ("tree", "backends", "registry", "integrity", "serve_overhead")
    repeat_share = 0.25
    recent = 32

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.network = random_network(
            30, max_parents=3, edge_probability=0.6, seed=MODEL_SEED
        )

    def items(self, client):
        rng = self.rng(client)
        cards = self.network.cardinalities
        recent = deque(maxlen=self.recent)
        while True:
            if recent and rng.random() < self.repeat_share:
                item = rng.choice(recent)
            else:
                findings = rng.randint(1, 3)
                chosen = rng.sample(range(len(cards)), findings + 2)
                item = {
                    "delta": {
                        v: rng.randrange(cards[v]) for v in chosen[:findings]
                    },
                    "vars": sorted(chosen[findings:]),
                }
            recent.append(item)
            yield item

    def build(self):
        registry = ModelRegistry()
        registry.register("bench", network=self.network)
        return RegistryService(registry)

    def op(self, live, client, item, span):
        request = QueryRequest(
            delta=dict(item["delta"]), vars=list(item["vars"]),
            deadline=REQUEST_DEADLINE,
        )
        future = span("serve.submit", live.submit)(request)
        response = span("serve.wait", future.result)(RESULT_TIMEOUT)
        if response.status != "ok":
            raise OpFailed(f"{response.status}: {response.error}")
        return response.marginals, {
            "cache": response.executor == "cache",
            "coalesced": response.coalesced,
        }

    def close(self, live):
        return live.drain()

    def expected(self, client, items, wanted):
        return {
            i: oracle.elimination_marginals(
                self.network, items[i]["delta"], items[i]["vars"]
            )
            for i in wanted
        }


def build_dbn(seed, k=8, interface=3):
    """A k-variable 2-TBN: intra-slice chain, ``interface`` carry-overs.

    Returns the template plus its CPTs as ``(scope, values)`` pairs, so
    the oracle reads the numbers it was generated from, not the
    template's internals.  (Same family as ``bench_streaming.py``'s
    generator; copied so that script can be deleted.)
    """
    from repro.bn.dbn import DynamicBayesianNetwork

    rng = np.random.default_rng(seed)
    cards = [2 + (v % 2) for v in range(k)]
    dbn = DynamicBayesianNetwork(cards)
    intra = {v: [v - 1] if v else [] for v in range(k)}
    for v in range(1, k):
        dbn.add_intra_edge(v - 1, v)
    inter = {v: [v] if v < interface else [] for v in range(k)}
    for u in range(interface):
        dbn.add_inter_edge(u, u)
    dbn.add_inter_edge(0, 1)
    inter[1].append(0)

    def cpt(scope):
        shape = tuple(cards[u % k] for u in scope)
        table = rng.random(shape) + 0.05
        return table / table.sum(axis=-1, keepdims=True)

    prior, transition = [], []
    for v in range(k):
        scope = intra[v] + [v]
        prior.append((scope, cpt(scope)))
        dbn.set_prior_cpt(
            v, PotentialTable(scope, [cards[u] for u in scope], prior[-1][1])
        )
        scope = [p + k for p in inter[v]] + intra[v] + [v]
        transition.append((scope, cpt(scope)))
        dbn.set_transition_cpt(
            v,
            PotentialTable(
                scope, [cards[u % k] for u in scope], transition[-1][1]
            ),
        )
    return dbn, prior, transition


class StreamDurable(Workload):
    name = "stream-durable"
    clients = 2
    replay_ops = 300
    probes = ("tree", "backends", "streaming", "durability")
    empty_share = 0.1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.dbn, self.prior, self.transition = build_dbn(self.seed)
        self.network = self.dbn.unroll(8)  # the first filtering window
        self.observed = [self.dbn.k - 2, self.dbn.k - 1]
        self._roots = itertools.count()

    def items(self, client):
        rng = self.rng(client)
        cards = self.dbn.slice_cards
        while True:
            if rng.random() < self.empty_share:
                yield {}
            else:
                yield {v: rng.randrange(cards[v]) for v in self.observed}

    def fresh_root(self):
        root = os.path.join(
            self.scratch, f"durable-{os.getpid()}-{next(self._roots)}"
        )
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        return root

    def build(self):
        from repro.serve import StreamingService

        root = self.fresh_root()
        service = StreamingService(self.dbn, durable_root=root)
        handles = [
            service.subscribe(name=f"client-{c}") for c in range(self.clients)
        ]
        return service, handles, root

    def op(self, live, client, item, span):
        service, handles, _root = live
        future = span("serve.submit", service.push_tick)(
            handles[client], dict(item)
        )
        response = span("serve.wait", future.result)(RESULT_TIMEOUT)
        if response.status != "ok":
            raise OpFailed(f"{response.status}: {response.error}")
        return response.marginals, {"rolled": response.rolled}

    def close(self, live):
        service, _handles, root = live
        try:
            return service.drain()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def expected(self, client, items, wanted):
        filt = oracle.DenseFilter(
            self.dbn.slice_cards, self.prior, self.transition
        )
        answers = {}
        for i in range(max(wanted) + 1 if wanted else 0):
            posterior = filt.tick(items[i])
            if i in wanted:
                answers[i] = posterior
        return answers


WORKLOADS = {
    cls.name: cls for cls in (PropSmall, PropLarge, ServeMix, StreamDurable)
}
