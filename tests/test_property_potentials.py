"""Property-based tests (hypothesis) for potential-table invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.potential.partition import (
    chunk_ranges,
    extend_chunk_into,
    marginalize_chunk,
)
from repro.potential.primitives import divide, extend, marginalize, multiply
from repro.potential.table import PotentialTable


@st.composite
def scopes(draw, max_vars=4, max_card=4):
    """A random scope: variable ids with cardinalities."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    variables = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    cards = draw(
        st.lists(
            st.integers(min_value=2, max_value=max_card),
            min_size=n,
            max_size=n,
        )
    )
    return tuple(variables), tuple(cards)


@st.composite
def tables(draw, max_vars=4, max_card=4):
    variables, cards = draw(scopes(max_vars, max_card))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return PotentialTable.random(
        variables, cards, np.random.default_rng(seed), low=0.1, high=2.0
    )


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_marginalization_preserves_mass(table, data):
    keep = data.draw(
        st.lists(st.sampled_from(table.variables), unique=True)
    )
    marg = marginalize(table, keep)
    assert np.isclose(marg.total(), table.total())


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_extend_then_marginalize_roundtrip(table, data):
    """Extending by fresh variables then summing them out scales by their size."""
    extra = data.draw(
        st.lists(
            st.integers(min_value=20, max_value=25), unique=True, max_size=2
        )
    )
    cards = data.draw(
        st.lists(
            st.integers(min_value=2, max_value=3),
            min_size=len(extra),
            max_size=len(extra),
        )
    )
    target_vars = table.variables + tuple(extra)
    target_cards = table.cardinalities + tuple(cards)
    scale = int(np.prod(cards)) if cards else 1
    extended = extend(table, target_vars, target_cards)
    back = marginalize(extended, table.variables)
    assert np.allclose(back.values, table.values * scale)


@given(tables(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_divide_multiply_roundtrip(table, seed):
    other = PotentialTable.random(
        table.variables,
        table.cardinalities,
        np.random.default_rng(seed),
        low=0.1,
        high=2.0,
    )
    assert np.allclose(
        multiply(divide(table, other), other).values, table.values
    )


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_alignment_invariance_of_marginalization(table, data):
    """Marginalizing an axis-permuted table gives the same answer."""
    perm = data.draw(st.permutations(table.variables))
    keep = data.draw(st.lists(st.sampled_from(table.variables), unique=True))
    a = marginalize(table, keep)
    b = marginalize(table.aligned_to(perm), keep)
    assert np.allclose(a.values, b.values)


@given(tables(max_vars=3), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_chunked_marginalization_matches_whole(table, max_chunk):
    keep = table.variables[::2]
    whole = marginalize(table, keep)
    acc = np.zeros(whole.size)
    for lo, hi in chunk_ranges(table.size, max_chunk):
        acc += marginalize_chunk(table, keep, lo, hi).values.reshape(-1)
    assert np.allclose(acc, whole.values.reshape(-1))


@given(tables(max_vars=3), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_chunked_extension_matches_whole(table, max_chunk):
    target_vars = table.variables + (30,)
    target_cards = table.cardinalities + (3,)
    whole = extend(table, target_vars, target_cards)
    out = np.empty(whole.size)
    for lo, hi in chunk_ranges(whole.size, max_chunk):
        extend_chunk_into(out, table, target_vars, target_cards, lo, hi)
    assert np.array_equal(out, whole.values.reshape(-1))


@given(tables())
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent(table):
    once = table.normalize()
    twice = once.normalize()
    assert np.allclose(once.values, twice.values)
    assert np.isclose(once.total(), 1.0)


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_then_marginalize_selects_slice(table, data):
    var = data.draw(st.sampled_from(table.variables))
    state = data.draw(
        st.integers(min_value=0, max_value=table.card_of(var) - 1)
    )
    reduced = table.reduce({var: state})
    marg = marginalize(reduced, (var,))
    expected = np.zeros(table.card_of(var))
    expected[state] = marginalize(table, (var,)).values[state]
    assert np.allclose(marg.values, expected)
