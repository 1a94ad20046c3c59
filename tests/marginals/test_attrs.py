"""Tests for the AttrSet canonical attribute-set type."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet, as_attrs


class TestCanonicalization:
    @pytest.mark.parametrize(
        "raw",
        [
            (3, 0, 5),
            [5, 3, 0],
            {0, 3, 5},
            frozenset({0, 3, 5}),
            np.array([5, 0, 3]),
            iter([3, 5, 0]),
        ],
    )
    def test_any_collection_sorts(self, raw):
        assert AttrSet(raw) == (0, 3, 5)

    def test_empty(self):
        assert AttrSet(()) == ()
        assert AttrSet().arity == 0

    def test_range_input(self):
        assert AttrSet(range(3)) == (0, 1, 2)

    def test_numpy_scalars_become_ints(self):
        attrs = AttrSet(np.array([2, 1], dtype=np.int32))
        assert all(type(a) is int for a in attrs)

    def test_passthrough_identity(self):
        attrs = AttrSet((1, 2))
        assert AttrSet(attrs) is attrs

    def test_is_a_tuple(self):
        attrs = AttrSet([2, 0])
        assert isinstance(attrs, tuple)
        assert attrs == (0, 2)
        assert hash(attrs) == hash((0, 2))
        assert {attrs: 1}[(0, 2)] == 1

    def test_repr(self):
        assert repr(AttrSet([2, 0])) == "AttrSet(0, 2)"


class TestValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(DimensionError):
            AttrSet((1, 1))

    def test_non_integer_iterable_rejected(self):
        with pytest.raises(DimensionError):
            AttrSet(("a", "b"))

    def test_non_iterable_rejected(self):
        with pytest.raises(DimensionError):
            AttrSet(7)

    def test_float_array_rejected(self):
        with pytest.raises(DimensionError):
            AttrSet(np.array([0.5, 1.0]))

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(DimensionError):
            AttrSet(np.zeros((2, 2), dtype=np.int64))

    def test_range_check(self):
        assert AttrSet((0, 3), num_attributes=4) == (0, 3)
        with pytest.raises(DimensionError):
            AttrSet((0, 4), num_attributes=4)
        with pytest.raises(DimensionError):
            AttrSet((-1, 2), num_attributes=4)

    def test_range_check_on_existing_attrset(self):
        attrs = AttrSet((0, 9))
        with pytest.raises(DimensionError):
            AttrSet(attrs, num_attributes=5)


class TestSetOperations:
    def test_arity_and_size(self):
        attrs = AttrSet((1, 4, 6))
        assert attrs.arity == 3
        assert attrs.size == 8

    def test_issubset(self):
        assert AttrSet((1, 3)).issubset((0, 1, 3, 5))
        assert not AttrSet((1, 2)).issubset((0, 1, 3))
        assert AttrSet(()).issubset(())

    def test_union_intersection(self):
        assert AttrSet((0, 2)).union([2, 5]) == (0, 2, 5)
        assert AttrSet((0, 2, 5)).intersection({5, 0, 9}) == (0, 5)
        assert isinstance(AttrSet((0,)).union((1,)), AttrSet)

    def test_as_attrs_alias(self):
        assert as_attrs([2, 0]) == (0, 2)
        with pytest.raises(DimensionError):
            as_attrs([2, 0], 2)


class TestDeprecatedShim:
    def test_unknown_attribute_still_raises(self):
        import repro.marginals.table as table_mod

        with pytest.raises(AttributeError):
            table_mod.no_such_name
