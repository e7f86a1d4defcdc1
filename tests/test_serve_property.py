"""Property test: the service's exact-or-explicit contract over seeded
request schedules.

Hypothesis draws an arbitrary multi-client schedule (evidence deltas,
query variables, deadlines, staleness tolerances, priorities) and the
test fires it concurrently at a small service.  Whatever the scheduling
races produce, the invariants hold:

* every request gets exactly one response;
* an ``ok`` response's marginals match a fresh serial-oracle propagation
  to 1e-9;
* a ``stale`` response's marginals are valid distributions and the
  request explicitly tolerated staleness;
* any other status is an explicit refusal with no marginals.

Runs under the ``deterministic`` Hypothesis profile (conftest), so the
schedule *generation* replays identically; outcome counts may vary with
timing but the invariants cannot.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.jt.build import junction_tree_from_network
from repro.sched import CollaborativeExecutor
from repro.serve import EngineSessionPool, InferenceService, QueryRequest

NUM_VARS = 14

_bn = random_network(
    NUM_VARS, cardinality=2, max_parents=3, edge_probability=0.7, seed=33
)
_jt = junction_tree_from_network(_bn)
_oracle = InferenceEngine.from_network(_bn)
_oracle_memo = {}


def oracle_marginal(request: QueryRequest, var: int) -> np.ndarray:
    sig = request.signature()
    if sig not in _oracle_memo:
        _oracle.set_evidence(request.evidence())
        _oracle.propagate(incremental=False)
        _oracle_memo[sig] = {
            v: _oracle.marginal(v) for v in range(NUM_VARS)
        }
    return _oracle_memo[sig][var]


request_strategy = st.builds(
    QueryRequest,
    delta=st.dictionaries(
        st.integers(min_value=0, max_value=NUM_VARS - 1),
        st.integers(min_value=0, max_value=1),
        max_size=3,
    ),
    vars=st.lists(
        st.integers(min_value=0, max_value=NUM_VARS - 1),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    deadline=st.sampled_from([30.0, 30.0, 30.0, 1e-6]),
    priority=st.integers(min_value=0, max_value=2),
    max_staleness=st.sampled_from([None, None, 60.0]),
)


@settings(max_examples=12, deadline=None)
@given(st.lists(request_strategy, min_size=1, max_size=16))
def test_every_response_exact_or_explicit(requests):
    pool = EngineSessionPool.from_junction_tree(_jt, sessions=2)
    service = InferenceService(
        pool,
        fallback=CollaborativeExecutor(num_threads=2),
        max_queue=4,
        workers=2,
    )
    futures = [service.submit(r) for r in requests]
    responses = [f.result(60.0) for f in futures]
    report = service.drain()

    assert len(responses) == len(requests)
    assert report.submitted == len(requests)
    assert report.failed == 0  # no faults injected, so no failures

    for request, response in zip(requests, responses):
        if response.status == "ok":
            assert set(response.marginals) == set(request.vars)
            for var, values in response.marginals.items():
                np.testing.assert_allclose(
                    values, oracle_marginal(request, var), atol=1e-9
                )
        elif response.status == "stale":
            assert request.max_staleness is not None
            for values in response.marginals.values():
                assert np.all(np.isfinite(values))
                assert abs(values.sum() - 1.0) < 1e-6
        else:
            assert response.status in ("shed", "deadline")
            assert response.marginals == {}
            assert response.error
