"""Unit tests for :class:`repro.potential.table.PotentialTable`."""

import numpy as np
import pytest

from repro.potential.table import PotentialTable, common_scope


class TestConstruction:
    def test_default_values_are_ones(self):
        t = PotentialTable([0, 1], [2, 3])
        assert t.values.shape == (2, 3)
        assert np.all(t.values == 1.0)

    def test_flat_values_are_reshaped(self):
        t = PotentialTable([0, 1], [2, 2], np.arange(4))
        assert t.values.shape == (2, 2)
        assert t.values[1, 0] == 2

    def test_scalar_scope(self):
        t = PotentialTable([], [], np.array(3.5))
        assert t.size == 1
        assert t.width == 0
        assert float(t.values) == 3.5

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PotentialTable([1, 1], [2, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cardinalities"):
            PotentialTable([0, 1], [2])

    def test_bad_cardinality_rejected(self):
        with pytest.raises(ValueError, match="cardinalities"):
            PotentialTable([0], [0])

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            PotentialTable([0], [2], np.arange(3))

    def test_size_and_width(self):
        t = PotentialTable([3, 5, 9], [2, 3, 4])
        assert t.size == 24
        assert t.width == 3

    def test_card_of(self):
        t = PotentialTable([3, 5], [2, 3])
        assert t.card_of(5) == 3
        with pytest.raises(ValueError):
            t.card_of(99)

    def test_scope_cards(self):
        t = PotentialTable([3, 5], [2, 3])
        assert t.scope_cards() == {3: 2, 5: 3}

    def test_repr_mentions_scope(self):
        assert "3:2" in repr(PotentialTable([3], [2]))


class TestAlignment:
    def test_aligned_to_permutes_axes(self):
        values = np.arange(6).reshape(2, 3)
        t = PotentialTable([0, 1], [2, 3], values)
        a = t.aligned_to([1, 0])
        assert a.variables == (1, 0)
        assert a.cardinalities == (3, 2)
        assert np.array_equal(a.values, values.T)

    def test_aligned_to_same_order_returns_self(self):
        t = PotentialTable([0, 1], [2, 2])
        assert t.aligned_to([0, 1]) is t

    def test_aligned_to_rejects_different_scope(self):
        t = PotentialTable([0, 1], [2, 2])
        with pytest.raises(ValueError, match="different variable sets"):
            t.aligned_to([0, 2])

    def test_double_alignment_roundtrip(self):
        rng = np.random.default_rng(0)
        t = PotentialTable.random([0, 1, 2], [2, 3, 4], rng)
        back = t.aligned_to([2, 0, 1]).aligned_to([0, 1, 2])
        assert np.allclose(back.values, t.values)


class TestReduce:
    def test_reduce_zeroes_inconsistent_entries(self):
        t = PotentialTable([0, 1], [2, 2], np.array([[1, 2], [3, 4]]))
        r = t.reduce({0: 1})
        assert np.array_equal(r.values, np.array([[0, 0], [3, 4]]))

    def test_reduce_keeps_scope(self):
        t = PotentialTable([0, 1], [2, 2])
        r = t.reduce({1: 0})
        assert r.variables == (0, 1)
        assert r.cardinalities == (2, 2)

    def test_reduce_ignores_foreign_variables(self):
        t = PotentialTable([0], [2], np.array([1.0, 2.0]))
        r = t.reduce({5: 1})
        assert np.array_equal(r.values, t.values)

    def test_reduce_rejects_out_of_range_state(self):
        t = PotentialTable([0], [2])
        with pytest.raises(ValueError, match="out of range"):
            t.reduce({0: 2})

    def test_reduce_multiple_variables(self):
        t = PotentialTable([0, 1], [2, 2], np.ones((2, 2)))
        r = t.reduce({0: 0, 1: 1})
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.array_equal(r.values, expected)

    def test_reduce_does_not_mutate_original(self):
        t = PotentialTable([0], [2], np.array([1.0, 2.0]))
        t.reduce({0: 0})
        assert np.array_equal(t.values, np.array([1.0, 2.0]))

    def test_reduce_into_out_equals_reduce(self):
        t = PotentialTable([0, 1], [2, 3], np.arange(1.0, 7.0))
        out = PotentialTable([0, 1], [2, 3], np.full(6, np.nan))
        assert t.reduce({1: 2}, out=out) is out
        assert np.array_equal(out.values, t.reduce({1: 2}).values)
        with pytest.raises(ValueError, match="out="):
            t.reduce({1: 2}, out=PotentialTable.ones([1, 0], [3, 2]))


class TestArithmetic:
    def test_normalize_sums_to_one(self):
        t = PotentialTable([0], [4], np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(t.normalize().values, 0.25)

    def test_normalize_zero_table_is_noop(self):
        t = PotentialTable([0], [2], np.zeros(2))
        n = t.normalize()
        assert np.array_equal(n.values, np.zeros(2))

    def test_total(self):
        t = PotentialTable([0, 1], [2, 2], np.arange(4))
        assert t.total() == 6.0

    def test_allclose_cross_order(self):
        rng = np.random.default_rng(1)
        t = PotentialTable.random([0, 1], [2, 3], rng)
        assert t.allclose(t.aligned_to([1, 0]))

    def test_allclose_different_scope_false(self):
        a = PotentialTable([0], [2])
        b = PotentialTable([1], [2])
        assert not a.allclose(b)

    def test_allclose_different_values_false(self):
        a = PotentialTable([0], [2], np.array([1.0, 2.0]))
        b = PotentialTable([0], [2], np.array([1.0, 2.5]))
        assert not a.allclose(b)


class TestCopyAndRandom:
    def test_copy_is_deep(self):
        t = PotentialTable([0], [2], np.array([1.0, 2.0]))
        c = t.copy()
        c.values[0] = 99
        assert t.values[0] == 1.0

    def test_random_in_bounds(self, rng):
        t = PotentialTable.random([0, 1], [3, 3], rng, low=0.5, high=0.9)
        assert np.all(t.values >= 0.5)
        assert np.all(t.values < 0.9)

    def test_ones_constructor(self):
        t = PotentialTable.ones([4], [3])
        assert np.all(t.values == 1.0)


class TestCommonScope:
    def test_union_order_first_seen(self):
        a = PotentialTable([0, 2], [2, 4])
        b = PotentialTable([2, 1], [4, 3])
        variables, cards = common_scope([a, b])
        assert variables == (0, 2, 1)
        assert cards == (2, 4, 3)

    def test_inconsistent_cardinality_rejected(self):
        a = PotentialTable([0], [2])
        b = PotentialTable([0], [3])
        with pytest.raises(ValueError, match="inconsistent"):
            common_scope([a, b])

    def test_empty_input(self):
        assert common_scope([]) == ((), ())
