"""Property test: ``run_dag`` results do not depend on the thread count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import run_dag


@st.composite
def dag_specs(draw):
    """A random DAG of integer-arithmetic nodes (deps reference earlier)."""
    n = draw(st.integers(min_value=1, max_value=15))
    deps = {}
    for i in range(1, n):
        count = draw(st.integers(min_value=0, max_value=min(3, i)))
        if count:
            chosen = draw(
                st.lists(
                    st.integers(min_value=0, max_value=i - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            deps[i] = chosen
    return n, deps


def _node_fn(i):
    def fn(*dep_values):
        return i + sum(dep_values)

    return fn


@given(dag_specs())
@settings(max_examples=20, deadline=None)
def test_run_dag_results_are_deterministic(spec):
    n, deps = spec
    nodes = {i: _node_fn(i) for i in range(n)}
    a = run_dag(nodes, deps, num_threads=3)
    b = run_dag(nodes, deps, num_threads=1)
    assert a == b
