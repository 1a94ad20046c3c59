"""The shared mixed-radix index helpers, on binary and categorical arities.

Binary tables are the all-2 case of the mixed-radix convention, so
every check here runs on both an all-binary and a mixed arity tuple.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.marginals import AttrSet
from repro.marginals.projection import cell_neighbours, projection_map, strides

#: an all-binary arity tuple and two mixed ones
ARITY_CASES = [(2, 2, 2, 2), (3, 2), (3, 2, 4)]


class TestBasics:
    def test_table_size(self):
        assert AttrSet((0, 1, 2), arities=(3, 4, 2)).size == 24
        assert AttrSet((0, 1, 2)).size == 8
        assert AttrSet(()).size == 1

    def test_strides(self):
        assert strides((3, 4, 2)) == (1, 3, 12)
        assert strides((2, 2, 2)) == (1, 2, 4)

    def test_binary_special_case(self):
        """With all-2 arities the map is the binary bit convention."""
        cells = np.arange(16)
        bits = ((cells >> 1) & 1) | (((cells >> 3) & 1) << 1)
        assert np.array_equal(projection_map((2, 2, 2, 2), (1, 3)), bits)


class TestProjectionMap:
    def test_identity(self):
        for arities in ARITY_CASES:
            pmap = projection_map(arities, tuple(range(len(arities))))
            assert np.array_equal(pmap, np.arange(math.prod(arities)))

    def test_single_attribute(self):
        pmap = projection_map((3, 2), (0,))
        # cells: (a0, a1) = (i%3, i//3)
        assert np.array_equal(pmap, [0, 1, 2, 0, 1, 2])
        assert np.array_equal(projection_map((2, 2), (0,)), [0, 1, 0, 1])

    def test_out_of_range(self):
        for arities in ARITY_CASES:
            with pytest.raises(DimensionError):
                projection_map(arities, (len(arities),))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_balanced_partition(self, data):
        arities = tuple(
            data.draw(
                st.lists(st.integers(2, 4), min_size=1, max_size=4)
            )
        )
        k = data.draw(st.integers(0, len(arities)))
        positions = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(0, len(arities) - 1), min_size=k, max_size=k
                    )
                )
            )
        )
        pmap = projection_map(arities, positions)
        sub_size = math.prod(arities[p] for p in positions)
        counts = np.bincount(pmap, minlength=sub_size)
        assert np.all(counts == math.prod(arities) // sub_size)


class TestNeighbours:
    def test_degree(self):
        nb = cell_neighbours((3, 4))
        assert nb.shape == (12, (3 - 1) + (4 - 1))
        assert cell_neighbours((2, 2, 2)).shape == (8, 3)

    def test_binary_matches_bitflip(self):
        cells = np.arange(8)[:, None]
        flips = cells ^ (1 << np.arange(3))[None, :]
        assert np.array_equal(cell_neighbours((2, 2, 2)), flips)

    def test_neighbours_differ_in_one_digit(self):
        for arities in ARITY_CASES:
            nb = cell_neighbours(arities)
            s = strides(arities)
            m = len(arities)
            for cell in range(math.prod(arities)):
                for other in nb[cell]:
                    digits_a = [(cell // s[j]) % arities[j] for j in range(m)]
                    digits_b = [(other // s[j]) % arities[j] for j in range(m)]
                    diff = sum(a != b for a, b in zip(digits_a, digits_b))
                    assert diff == 1
