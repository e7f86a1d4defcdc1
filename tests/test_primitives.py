"""Unit tests for the four node-level primitives."""

import numpy as np
import pytest

from repro.jt.junction_tree import Clique, JunctionTree
from repro.potential import primitives
from repro.potential.primitives import (
    WIDE_TABLE,
    PrimitiveKind,
    Split,
    divide,
    extend,
    marginalize,
    multiply,
    plan_divide,
    plan_extend,
    plan_marginalize,
    plan_multiply,
    primitive_flops,
)
from repro.potential.table import PotentialTable
from repro.tasks.layout import table_layout
from repro.tasks.state import PropagationState


def _random(variables, cards, seed=0):
    return PotentialTable.random(
        variables, cards, np.random.default_rng(seed)
    )


class TestMarginalize:
    def test_sums_out_dropped_variables(self):
        t = PotentialTable([0, 1], [2, 2], np.array([[1, 2], [3, 4]]))
        m = marginalize(t, [0])
        assert m.variables == (0,)
        assert np.array_equal(m.values, np.array([3, 7]))

    def test_respects_target_order(self):
        t = _random([0, 1, 2], [2, 3, 4])
        a = marginalize(t, [2, 0])
        b = marginalize(t, [0, 2])
        assert a.variables == (2, 0)
        assert np.allclose(a.values, b.values.T)

    def test_marginalize_to_full_scope_is_identity(self):
        t = _random([0, 1], [2, 3])
        m = marginalize(t, [0, 1])
        assert np.allclose(m.values, t.values)

    def test_marginalize_to_empty_scope_gives_total(self):
        t = _random([0, 1], [2, 3])
        m = marginalize(t, [])
        assert m.width == 0
        assert np.isclose(float(m.values), t.total())

    def test_unknown_variable_rejected(self):
        t = _random([0], [2])
        with pytest.raises(ValueError, match="unknown variables"):
            marginalize(t, [5])

    def test_preserves_total_mass(self):
        t = _random([0, 1, 2], [2, 2, 3], seed=3)
        assert np.isclose(marginalize(t, [1]).total(), t.total())


class TestExtend:
    def test_broadcasts_new_variables(self):
        t = PotentialTable([0], [2], np.array([1.0, 2.0]))
        e = extend(t, [0, 1], [2, 3])
        assert e.cardinalities == (2, 3)
        assert np.array_equal(e.values, np.array([[1, 1, 1], [2, 2, 2]]))

    def test_extension_order_independent_of_source(self):
        t = _random([0, 1], [2, 3])
        e = extend(t, [1, 2, 0], [3, 4, 2])
        # Marginalizing back must recover the original (up to scale 4).
        back = marginalize(e, [0, 1])
        assert np.allclose(back.values, t.values * 4)

    def test_extend_to_same_scope_is_identity(self):
        t = _random([0, 1], [2, 3])
        e = extend(t, [0, 1], [2, 3])
        assert np.allclose(e.values, t.values)

    def test_missing_source_variable_rejected(self):
        t = _random([0, 1], [2, 2])
        with pytest.raises(ValueError, match="missing variables"):
            extend(t, [0, 2], [2, 2])

    def test_cardinality_mismatch_rejected(self):
        t = _random([0], [2])
        with pytest.raises(ValueError, match="cardinality mismatch"):
            extend(t, [0, 1], [3, 2])

    def test_extend_scalar(self):
        t = PotentialTable([], [], np.array(2.0))
        e = extend(t, [7], [3])
        assert np.array_equal(e.values, np.array([2.0, 2.0, 2.0]))


class TestMultiply:
    def test_elementwise_on_same_scope(self):
        a = PotentialTable([0], [2], np.array([2.0, 3.0]))
        b = PotentialTable([0], [2], np.array([5.0, 7.0]))
        assert np.array_equal(multiply(a, b).values, np.array([10.0, 21.0]))

    def test_subset_scope_is_extended(self):
        a = PotentialTable([0, 1], [2, 2], np.ones((2, 2)))
        b = PotentialTable([1], [2], np.array([3.0, 4.0]))
        m = multiply(a, b)
        assert np.array_equal(m.values, np.array([[3, 4], [3, 4]]))

    def test_misaligned_axes_are_aligned(self):
        a = _random([0, 1], [2, 3], seed=1)
        b = _random([1, 0], [3, 2], seed=2)
        m = multiply(a, b)
        assert np.allclose(m.values, a.values * b.values.T)

    def test_superset_scope_rejected(self):
        a = PotentialTable([0], [2])
        b = PotentialTable([0, 1], [2, 2])
        with pytest.raises(ValueError, match="not a subset"):
            multiply(a, b)

    def test_result_keeps_a_scope_order(self):
        a = _random([3, 1], [2, 2])
        b = _random([1], [2])
        assert multiply(a, b).variables == (3, 1)


class TestDivide:
    def test_elementwise_ratio(self):
        a = PotentialTable([0], [2], np.array([6.0, 8.0]))
        b = PotentialTable([0], [2], np.array([2.0, 4.0]))
        assert np.array_equal(divide(a, b).values, np.array([3.0, 2.0]))

    def test_zero_over_zero_is_zero(self):
        a = PotentialTable([0], [2], np.array([0.0, 8.0]))
        b = PotentialTable([0], [2], np.array([0.0, 4.0]))
        assert np.array_equal(divide(a, b).values, np.array([0.0, 2.0]))

    def test_nonzero_over_zero_is_zero_by_convention(self):
        # Cannot happen in valid propagation, but must not produce inf/nan.
        a = PotentialTable([0], [2], np.array([3.0, 8.0]))
        b = PotentialTable([0], [2], np.array([0.0, 4.0]))
        out = divide(a, b).values
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0

    def test_scope_mismatch_rejected(self):
        a = PotentialTable([0], [2])
        b = PotentialTable([1], [2])
        with pytest.raises(ValueError, match="scopes differ"):
            divide(a, b)

    def test_axis_order_aligned(self):
        a = _random([0, 1], [2, 3], seed=4)
        b = _random([1, 0], [3, 2], seed=5)
        d = divide(a, b)
        assert np.allclose(d.values, a.values / b.values.T)

    @pytest.mark.parametrize("alias", ["numerator", "denominator"])
    def test_out_aliasing_an_operand_is_refused(self, alias):
        # The body clears ``out`` before it reads the operands, so an
        # aliased ``out`` would silently come back all zeros.
        a = PotentialTable([0], [2], np.array([6.0, 8.0]))
        b = PotentialTable([0], [2], np.array([2.0, 4.0]))
        with pytest.raises(ValueError, match="neither operand"):
            divide(a, b, out=a if alias == "numerator" else b)
        assert np.array_equal(a.values, [6.0, 8.0])
        assert np.array_equal(b.values, [2.0, 4.0])

    def test_divide_multiply_roundtrip(self):
        a = _random([0, 1], [2, 3], seed=6)
        b = _random([0, 1], [2, 3], seed=7)
        round_trip = multiply(divide(a, b), b)
        assert np.allclose(round_trip.values, a.values)


class TestEq1Propagation:
    """End-to-end Eq. 1 check on a hand-built two-clique tree."""

    def test_message_passing_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        psi_y = PotentialTable.random([0, 1], [2, 2], rng)  # clique Y
        psi_x = PotentialTable.random([1, 2], [2, 2], rng)  # clique X
        sep_old = PotentialTable.ones([1], [2])
        sep_new = marginalize(psi_y, [1])
        ratio = divide(sep_new, sep_old)
        psi_x_new = multiply(psi_x, extend(ratio, [1, 2], [2, 2]))
        # Direct: joint = psi_x * psi_y, marginalized onto {1, 2}.
        joint = multiply(
            extend(psi_x, [0, 1, 2], [2, 2, 2]),
            extend(psi_y, [0, 1, 2], [2, 2, 2]),
        )
        direct = marginalize(joint, [1, 2])
        assert np.allclose(psi_x_new.values, direct.values)


class TestOutDestination:
    """``out=`` is a destination, not a mode: same values, written in place."""

    def test_each_primitive_is_bitwise_equal_with_and_without_out(self):
        rng = np.random.default_rng(8)

        def table(variables, cards):
            return PotentialTable(
                variables, cards, rng.uniform(0.1, 2.0, tuple(cards))
            )

        def blank(variables, cards):
            filled = table(variables, cards)
            filled.values[...] = np.nan
            return filled

        clique = table([0, 1, 2], [2, 3, 4])
        # Kept-axis order equal to, and different from, the target order.
        for onto, cards in (((0, 2), (2, 4)), ((2, 0), (4, 2)), ((), ())):
            out = blank(onto, cards)
            assert marginalize(clique, onto, out=out) is out
            assert np.array_equal(out.values, marginalize(clique, onto).values)
        whole = blank([0, 1, 2], [2, 3, 4])
        marginalize(clique, [0, 1, 2], out=whole)
        assert np.array_equal(whole.values, clique.values)
        assert not np.shares_memory(whole.values, clique.values)

        sep = table([2, 0], [4, 2])
        out = blank([0, 1, 2], [2, 3, 4])
        assert extend(sep, [0, 1, 2], [2, 3, 4], out=out) is out
        assert np.array_equal(
            out.values, extend(sep, [0, 1, 2], [2, 3, 4]).values
        )

        den = table([0, 2], [2, 4])
        den.values.reshape(-1)[::3] = 0.0
        out = blank([2, 0], [4, 2])
        assert divide(sep, den, out=out) is out
        assert np.array_equal(out.values, divide(sep, den).values)

        expected = multiply(clique, sep).values
        out = blank([0, 1, 2], [2, 3, 4])
        assert multiply(clique, sep, out=out) is out
        assert np.array_equal(out.values, expected)
        assert multiply(clique, sep, out=clique) is clique  # a *= b
        assert np.array_equal(clique.values, expected)

    def test_out_of_the_wrong_scope_is_rejected(self):
        clique = _random([0, 1], [2, 3])
        with pytest.raises(ValueError, match="out="):
            marginalize(clique, [0], out=PotentialTable.ones([1], [3]))
        with pytest.raises(ValueError, match="out="):
            extend(clique, [0, 1, 2], [2, 3, 2], out=PotentialTable.ones([0, 1], [2, 3]))
        with pytest.raises(ValueError, match="out="):
            multiply(clique, clique, out=PotentialTable.ones([1, 0], [3, 2]))
        with pytest.raises(ValueError, match="out="):
            divide(clique, clique, out=PotentialTable.ones([0, 1], [2, 2]))


class TestPlans:
    """``plan=`` is the derivation done ahead, not a second body."""

    def test_each_primitive_is_bitwise_equal_with_and_without_plan(self):
        rng = np.random.default_rng(9)

        def table(variables, cards):
            return PotentialTable(
                variables, cards, rng.uniform(0.1, 2.0, tuple(cards))
            )

        def blank(variables, cards):
            filled = table(variables, cards)
            filled.values[...] = np.nan
            return filled

        clique = table([4, 1, 7, 2], [2, 3, 4, 2])
        # A separator in the clique's order; one in the *other* clique's
        # order (the distribute direction: kept order != separator scope);
        # an empty one; one equal to the clique (nothing dropped), in and
        # out of the clique's order.
        for onto in (
            (4, 7), (7, 2, 4), (), (4, 1, 7, 2), (2, 7, 1, 4),
        ):
            cards = tuple(clique.card_of(v) for v in onto)
            plan = plan_marginalize(
                clique.variables, clique.cardinalities, onto
            )
            derived = marginalize(clique, onto)
            planned = marginalize(clique, onto, plan=plan)
            assert planned.variables == onto
            assert planned.cardinalities == cards
            assert np.array_equal(planned.values, derived.values)
            assert not np.shares_memory(planned.values, clique.values)
            out = blank(onto, cards)
            assert marginalize(clique, onto, out=out, plan=plan) is out
            assert np.array_equal(out.values, derived.values)

            sep = table(onto, cards)
            plan = plan_extend(
                onto, cards, clique.variables, clique.cardinalities
            )
            derived = extend(sep, clique.variables, clique.cardinalities)
            out = blank(clique.variables, clique.cardinalities)
            for planned in (
                extend(
                    sep, clique.variables, clique.cardinalities, plan=plan
                ),
                extend(
                    sep, clique.variables, clique.cardinalities, out=out,
                    plan=plan,
                ),
            ):
                assert np.array_equal(planned.values, derived.values)

            plan = plan_multiply(
                clique.variables, clique.cardinalities, onto, cards
            )
            derived = multiply(clique, sep)
            assert np.array_equal(
                multiply(clique, sep, plan=plan).values, derived.values
            )
            scratch = clique.copy()
            assert multiply(scratch, sep, out=scratch, plan=plan) is scratch
            assert np.array_equal(scratch.values, derived.values)

            den = table(onto[::-1], cards[::-1])
            den.values.reshape(-1)[::3] = 0.0
            plan = plan_divide(onto, onto[::-1])
            derived = divide(sep, den)
            out = blank(onto, cards)
            for planned in (
                divide(sep, den, plan=plan),
                divide(sep, den, out=out, plan=plan),
            ):
                assert np.array_equal(planned.values, derived.values)

    def test_plan_for_other_operands_is_rejected(self):
        clique = _random([0, 1, 2], [2, 3, 2])
        sep = _random([0, 2], [2, 2])
        other = plan_marginalize([0, 1, 3], [2, 3, 2], [0])
        with pytest.raises(ValueError, match="plan="):
            marginalize(clique, [0], plan=other)
        fits = plan_marginalize([0, 1, 2], [2, 3, 2], [0])
        with pytest.raises(ValueError, match="plan="):
            marginalize(clique, [1], plan=fits)
        with pytest.raises(ValueError, match="plan="):
            marginalize(  # a plan for other cardinalities
                PotentialTable.ones([0, 1, 2], [2, 3, 3]), [0], plan=fits
            )
        with pytest.raises(ValueError, match="out="):
            marginalize(
                clique, [0], out=PotentialTable.ones([1], [3]), plan=fits
            )
        with pytest.raises(ValueError, match="plan="):
            extend(
                sep, [0, 1, 2], [2, 3, 2],
                plan=plan_extend([0, 1], [2, 3], [0, 1, 2], [2, 3, 2]),
            )
        with pytest.raises(ValueError, match="plan="):
            multiply(
                clique, sep,
                plan=plan_multiply([0, 1, 2], [2, 3, 2], [0, 1], [2, 3]),
            )
        with pytest.raises(ValueError, match="plan="):
            divide(sep, sep, plan=plan_divide([0, 1], [0, 1]))

    def test_builders_validate_like_the_primitives(self):
        with pytest.raises(ValueError, match="unknown variables"):
            plan_marginalize([0], [2], [5])
        with pytest.raises(ValueError, match="duplicate"):
            plan_marginalize([0, 1], [2, 2], [0, 0])
        with pytest.raises(ValueError, match="missing variables"):
            plan_extend([0, 9], [2, 2], [0, 1], [2, 2])
        with pytest.raises(ValueError, match="cardinality mismatch"):
            plan_extend([0], [2], [0, 1], [3, 2])
        with pytest.raises(ValueError, match="not a subset"):
            plan_multiply([0], [2], [0, 1], [2, 2])
        with pytest.raises(ValueError, match="scopes differ"):
            plan_divide([0, 1], [0, 2])

    def test_wide_table_reduction_matches_add_reduce(self):
        rng = np.random.default_rng(11)
        width = 12
        assert 2 ** width >= WIDE_TABLE
        variables = list(range(width))
        cards = [2] * width
        wide = PotentialTable(
            variables, cards, rng.uniform(0.1, 2.0, tuple(cards))
        )
        # Drop an inner axis, keep an inner axis, an out-of-order target.
        for onto in (
            tuple(v for v in variables if v != 10), (10,), (7, 2, 11), (),
        ):
            plan = plan_marginalize(variables, cards, onto)
            assert plan.subscripts is not None
            drop = tuple(v for v in variables if v not in onto)
            kept = [v for v in variables if v in onto]
            expected = PotentialTable(
                kept, [2] * len(kept), np.add.reduce(wide.values, axis=drop)
            ).aligned_to(onto)
            for result in (
                marginalize(wide, onto), marginalize(wide, onto, plan=plan)
            ):
                assert result.variables == onto
                assert np.allclose(
                    result.values, expected.values, rtol=1e-12, atol=0.0
                )
        small = plan_marginalize(variables[:5], cards[:5], (1,))
        assert small.subscripts is None


# Wide tables (>= WIDE_TABLE entries) for the slice-kernel
# matrix: the changed run is one axis of cardinality k at the first,
# a middle, the second-to-last or the last position.  Only the last two
# leave at most primitives.SPLIT_POST entries after the run, so only they
# take the slice kernels; the others must keep einsum / copyto.
_WIDE_BASE = (16, 3, 16, 5, 3, 4)
_POSITIONS = {"first": 0, "middle": 2, "second-to-last": 4, "last": 5}


def _wide_cards(position, k):
    cards = list(_WIDE_BASE)
    cards[_POSITIONS[position]] = k
    assert np.prod(cards) >= WIDE_TABLE
    return tuple(cards)


def _out(variables, cards, contiguous):
    """An ``out=`` table; the non-contiguous one is every other entry of
    a larger array."""
    if contiguous:
        values = np.full(cards, np.nan)
    else:
        values = np.full(cards + (2,), np.nan)[..., 0]
    return PotentialTable.wrap(tuple(variables), tuple(cards), values)


# Each case id carries "None" for the table's (single) case axis, so the
# cases keep the names they are tracked under across runs.
_MATRIX = pytest.mark.parametrize(
    "contiguous", [True, False], ids=["None-True", "None-False"]
)
_RUNS = pytest.mark.parametrize("k", [2, 3])
_AT = pytest.mark.parametrize("position", list(_POSITIONS))


class TestSliceKernels:
    """The wide-table kernels against the small-table references:
    ``add.reduce`` (to 1e-12 relative) and a broadcasting ``copyto``
    (bitwise)."""

    def _table(self, position, k, seed=5):
        cards = _wide_cards(position, k)
        values = np.random.default_rng(seed).uniform(0.1, 2.0, cards)
        return PotentialTable(range(len(cards)), cards, values)

    @_MATRIX
    @_RUNS
    @_AT
    def test_marginalize_drop_run(self, position, k, contiguous):
        table = self._table(position, k)
        axis = _POSITIONS[position]
        onto = tuple(v for v in table.variables if v != axis)
        plan = plan_marginalize(table.variables, table.cardinalities, onto)
        assert (plan.split is not None) == (axis >= 4)
        expected = np.add.reduce(table.values, axis=axis)
        out = _out(onto, plan.onto_cards, contiguous)
        result = marginalize(table, onto, out=out, plan=plan)
        assert result is out
        assert np.allclose(out.values, expected, rtol=1e-12, atol=0.0)

    @_MATRIX
    @_RUNS
    @_AT
    def test_marginalize_kept_run(self, position, k, contiguous):
        table = self._table(position, k)
        axis = _POSITIONS[position]
        plan = plan_marginalize(
            table.variables, table.cardinalities, (axis,)
        )
        assert (plan.split is not None) == (axis >= 4)
        expected = np.add.reduce(
            table.values,
            axis=tuple(v for v in table.variables if v != axis),
        )
        out = _out((axis,), (k,), contiguous)
        marginalize(table, (axis,), out=out, plan=plan)
        assert np.allclose(out.values, expected, rtol=1e-12, atol=0.0)

    @_MATRIX
    @_RUNS
    @_AT
    def test_extend_adds_run_bitwise(self, position, k, contiguous):
        wide = self._table(position, k)
        axis = _POSITIONS[position]
        keep = tuple(v for v in wide.variables if v != axis)
        source = marginalize(wide, keep)
        plan = plan_extend(
            keep, source.cardinalities, wide.variables, wide.cardinalities
        )
        assert (plan.split is not None) == (axis >= 4)
        expected = np.empty_like(wide.values)
        np.copyto(expected, np.expand_dims(source.values, axis))
        out = _out(wide.variables, wide.cardinalities, contiguous)
        extend(
            source, wide.variables, wide.cardinalities, out=out, plan=plan
        )
        assert np.array_equal(out.values, expected)
        assert np.array_equal(
            extend(source, wide.variables, wide.cardinalities).values,
            expected,
        )

    @pytest.mark.parametrize("k", [2, 3], ids=["2-None", "3-None"])
    def test_state_marginal(self, k):
        cards = _wide_cards("last", k)
        tree = JunctionTree([Clique(0, range(len(cards)), cards)], [None])
        tree.initialize_potentials(np.random.default_rng(k))
        state = PropagationState(tree)
        values = state.potentials[0].values
        for position, axis in _POSITIONS.items():
            assert (
                table_layout(tree).answer(0, axis).split is not None
            ) == (axis >= 4), position
            joint = np.add.reduce(
                values,
                axis=tuple(a for a in range(len(cards)) if a != axis),
            )
            expected = joint / joint.sum()
            assert np.allclose(
                state.marginal(axis), expected, rtol=1e-12, atol=0.0
            ), position

    def test_wide_last_axis_plans_carry_the_split(self, monkeypatch):
        """A wide last-axis drop, keep and add carry their (pre, k, post)
        split and run without einsum or a broadcasting copyto."""
        width = 12
        variables, cards = tuple(range(width)), (2,) * width
        head = variables[:-1]
        drop = plan_marginalize(variables, cards, head)
        keep = plan_marginalize(variables, cards, variables[-1:])
        add = plan_extend(head, cards[:-1], variables, cards)
        assert drop.split == Split(2 ** 11, 2, 1, False)
        assert keep.split == Split(2 ** 11, 2, 1, True)
        assert add.split == Split(2 ** 11, 2, 1, False)
        table = _random(variables, cards, seed=3)
        expected = (
            np.add.reduce(table.values, axis=-1),
            np.add.reduce(table.values, axis=tuple(range(width - 1))),
        )

        def fallback(*args, **kwargs):
            raise AssertionError("a split plan fell back to numpy's kernel")

        monkeypatch.setattr(primitives.np, "einsum", fallback)
        dropped = marginalize(table, head, plan=drop)
        kept = marginalize(table, variables[-1:], plan=keep)
        assert np.allclose(dropped.values, expected[0], rtol=1e-12, atol=0)
        assert np.allclose(kept.values, expected[1], rtol=1e-12, atol=0)
        monkeypatch.undo()
        # One strided copy per added state, not one broadcast.
        copies = _counting(np.copyto)
        monkeypatch.setattr(primitives.np, "copyto", copies)
        added = extend(dropped, variables, cards, plan=add)
        assert copies.shapes == [(2 ** 11,)] * 2
        assert np.array_equal(
            added.values,
            np.broadcast_to(dropped.values[..., None], table.values.shape),
        )


def _counting(copyto):
    """``np.copyto`` that records the shape of every destination."""

    def counted(dst, src, *args, **kwargs):
        counted.shapes.append(dst.shape)
        return copyto(dst, src, *args, **kwargs)

    counted.shapes = []
    return counted


class TestPrimitiveFlops:
    def test_marginalize_counts_input(self):
        assert primitive_flops(PrimitiveKind.MARGINALIZE, 100, 10) == 100

    def test_extend_counts_output(self):
        assert primitive_flops(PrimitiveKind.EXTEND, 10, 100) == 100

    def test_multiply_divide_count_output(self):
        assert primitive_flops(PrimitiveKind.MULTIPLY, 100, 100) == 100
        assert primitive_flops(PrimitiveKind.DIVIDE, 50, 50) == 50

    def test_combine_counts_output(self):
        assert primitive_flops(PrimitiveKind.COMBINE, 0, 64) == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            primitive_flops("nonsense", 1, 1)
