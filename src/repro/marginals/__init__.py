"""Marginal-table substrate: datasets, marginal tables and projections.

This subpackage implements the data structures the paper's Section 2
defines: binary datasets over ``d`` attributes, k-way marginal
contingency tables, and the full contingency table (for small ``d``).

Cell indexing convention
------------------------
A marginal table over the sorted attribute tuple ``attrs = (a_0 < a_1 <
... < a_{m-1})`` with arities ``(b_0, ..., b_{m-1})`` stores
``prod(b_j)`` cells.  Cell ``i`` corresponds to the assignment where
attribute ``a_j`` takes the value ``(i // stride_j) % b_j``, with
``stride_j = b_0 * ... * b_{j-1}``.  Binary attributes are the case
``b_j = 2``, where the value is bit ``j`` of ``i``; an
:class:`AttrSet` without arities is binary.  Every module uses this
convention; helpers in :mod:`repro.marginals.projection` translate
between tables over nested attribute sets.
"""

from repro.marginals.attrs import AttrSet, as_attrs
from repro.marginals.dataset import Dataset
from repro.marginals.domain import (
    ATTRIBUTE_KINDS,
    Attribute,
    Domain,
    as_domain,
)
from repro.marginals.table import MarginalTable
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.projection import (
    cell_neighbours,
    constraint_matrix,
    projection_index,
    projection_map,
    strides,
)
from repro.marginals.queries import (
    all_attribute_subsets,
    consecutive_attribute_sets,
    random_attribute_sets,
)
from repro.marginals.analysis_queries import (
    conditional_probability,
    count_where,
    fraction_where,
    most_common_cells,
)

__all__ = [
    "ATTRIBUTE_KINDS",
    "AttrSet",
    "Attribute",
    "Domain",
    "as_attrs",
    "as_domain",
    "Dataset",
    "MarginalTable",
    "FullContingencyTable",
    "projection_map",
    "projection_index",
    "constraint_matrix",
    "cell_neighbours",
    "strides",
    "all_attribute_subsets",
    "consecutive_attribute_sets",
    "random_attribute_sets",
    "conditional_probability",
    "count_where",
    "fraction_where",
    "most_common_cells",
]
