"""Chunked primitives must reproduce whole-table primitives exactly."""

import numpy as np
import pytest

from repro.potential.partition import (
    chunk_ranges,
    divide_chunk_into,
    extend_chunk_into,
    marginalize_chunk,
    multiply_chunk_into,
)
from repro.potential.primitives import divide, extend, marginalize, multiply
from repro.potential.table import PotentialTable


def _random(variables, cards, seed=0):
    return PotentialTable.random(variables, cards, np.random.default_rng(seed))


class TestChunkRanges:
    def test_covers_everything_once(self):
        ranges = chunk_ranges(100, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_respects_max_chunk(self):
        for lo, hi in chunk_ranges(1000, 64):
            assert hi - lo <= 64

    def test_balanced_split(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_single_chunk_when_small(self):
        assert chunk_ranges(5, 10) == [(0, 5)]

    def test_zero_total(self):
        assert chunk_ranges(0, 4) == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 4)
        with pytest.raises(ValueError):
            chunk_ranges(10, 0)


class TestMarginalizeChunk:
    @pytest.mark.parametrize("max_chunk", [1, 3, 7, 100])
    def test_chunks_sum_to_whole(self, max_chunk):
        t = _random([0, 1, 2], [2, 3, 4], seed=1)
        onto = (2, 0)
        whole = marginalize(t, onto)
        total = np.zeros(whole.size)
        for lo, hi in chunk_ranges(t.size, max_chunk):
            total += marginalize_chunk(t, onto, lo, hi).values.reshape(-1)
        assert np.allclose(total, whole.values.reshape(-1))

    def test_empty_target_scope(self):
        t = _random([0, 1], [2, 2], seed=2)
        parts = [
            float(marginalize_chunk(t, (), lo, hi).values)
            for lo, hi in chunk_ranges(t.size, 2)
        ]
        assert np.isclose(sum(parts), t.total())

    def test_out_of_range_rejected(self):
        t = _random([0], [2])
        with pytest.raises(ValueError, match="out of range"):
            marginalize_chunk(t, (0,), 0, 5)


class TestExtendChunk:
    @pytest.mark.parametrize("max_chunk", [1, 5, 64])
    def test_concatenated_chunks_equal_whole(self, max_chunk):
        t = _random([1, 3], [2, 3], seed=3)
        target_vars, target_cards = (3, 2, 1), (3, 4, 2)
        whole = extend(t, target_vars, target_cards)
        out = np.empty(whole.size)
        for lo, hi in chunk_ranges(whole.size, max_chunk):
            extend_chunk_into(out, t, target_vars, target_cards, lo, hi)
        assert np.array_equal(out, whole.values.reshape(-1))

    def test_scalar_source(self):
        t = PotentialTable([], [], np.array(4.0))
        out = np.empty(3)
        extend_chunk_into(out, t, (0,), (3,), 0, 3)
        assert np.array_equal(out, np.array([4.0, 4.0, 4.0]))

    def test_out_of_range_rejected(self):
        t = _random([0], [2])
        with pytest.raises(ValueError, match="out of range"):
            extend_chunk_into(np.empty(4), t, (0, 1), (2, 2), 2, 9)


class TestElementwiseChunks:
    def test_multiply_chunks_equal_whole(self):
        a = _random([0, 1], [3, 4], seed=4)
        b = _random([0, 1], [3, 4], seed=5)
        whole = multiply(a, b).values.reshape(-1)
        out, bf = a.values.reshape(-1).copy(), b.values.reshape(-1)
        for lo, hi in chunk_ranges(12, 5):
            multiply_chunk_into(out, bf, lo, hi)
        assert np.array_equal(out, whole)

    def test_divide_chunks_equal_whole(self):
        a = _random([0, 1], [3, 4], seed=6)
        b = _random([0, 1], [3, 4], seed=7)
        whole = divide(a, b).values.reshape(-1)
        af, bf = a.values.reshape(-1), b.values.reshape(-1)
        out = np.empty(12)
        for lo, hi in chunk_ranges(12, 4):
            divide_chunk_into(out, af, bf, lo, hi)
        assert np.array_equal(out, whole)

    def test_divide_chunk_zero_convention(self):
        num = np.array([0.0, 1.0])
        den = np.array([0.0, 2.0])
        out = np.full(2, np.nan)
        divide_chunk_into(out, num, den, 0, 2)
        assert np.array_equal(out, np.array([0.0, 0.5]))
